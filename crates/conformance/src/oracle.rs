//! The oracle invariants: each analytic bound checked against its
//! event-kernel simulator on a concrete [`Scenario`].
//!
//! Soundness directions (see DESIGN.md §9):
//!
//! * **DRAM** — `lower <= upper` (analysis self-consistency), simulated
//!   probe `<= upper` (the bound is sound), and simulated probe `>=`
//!   a data-bus serialization floor (the simulation is a real witness).
//! * **NoC** — per-packet delay since token-bucket release `<=` the
//!   network-calculus delay bound for the flow's uncontended rate-latency
//!   path, observed flit backlog `<=` the backlog bound, and the generic
//!   piecewise-linear bounds agree with the closed forms.
//! * **MemGuard** — per-period grants never exceed budget before the
//!   decision (at most one overdraw access), throttles always point at
//!   the next boundary, lazy and eager replenishment take identical
//!   decisions, and `MemGuardProcess` fires once per boundary.
//! * **Sched** — RTA-schedulable task sets never miss a deadline in the
//!   simulator and never respond worse than their RTA bound.
//! * **Determinism** — tick-stepped and event-driven NoC kernels deliver
//!   identical packet records, and same-seed runs under probabilistic
//!   fault plans export byte-identical metrics.
//! * **ClosedLoop** — monitored per-partition bandwidth never exceeds
//!   the MPAM max-bandwidth control in force, disjoint L3 partitions
//!   never evict each other, healthy sensors never degrade the loop,
//!   every sensor-fault storm latches safe mode within its bounded
//!   number of epochs with the matching typed reason, and same-seed
//!   closed-loop runs export byte-identical metrics.
//! * **Dpq** — every simulated completion respects the per-depth DPQ
//!   bounded-access-latency bound, the adversarial probe sits above a
//!   serialization floor, and the bound exceeds the witness by no more
//!   than its known structural slack (tightness).
//! * **PerBank** — the same scenario and the same MemGuard checks with
//!   budgets keyed by bank, reported as `perbank.*`, plus a saturating
//!   replay that earns each bank at least `periods * budget` bytes and at
//!   most one overdraw per period.
//! * **Diff** — one seeded stream through FR-FCFS, DPQ and per-bank
//!   regulated FR-FCFS: each regime respects its own analytic bound, and
//!   the WCD-tightness / throughput deltas are exported as observations.
//! * **Fleet** — one seeded client population through the flat RM and
//!   the sharded cluster/root hierarchy: identical final admitted /
//!   refused / gave-up / crashed / quarantined sets, exact root budget
//!   conservation (granted == Σ active critical demand <= capacity),
//!   exact expected admission counts (all clients when feasible, the
//!   capacity's slot count when not), and byte-identical same-seed
//!   double runs of the hierarchy.

use autoplat_admission::{
    AppId, Application, FleetConfig, FleetOutcome, FleetSim, FleetTopology, ScenarioEvent,
    SymmetricPolicy, WatchdogConfig,
};
use autoplat_core::cache::{ClusterPartCr, PartitionGroup, SchemeId};
use autoplat_core::{CoSim, CoSimConfig, CoSimTask, ControlCommand, QosConfig};
use autoplat_dram::request::Request;
use autoplat_dram::wcd::{bounds, dpq_upper_bound, DpqParams};
use autoplat_dram::{
    adversarial_dpq_probe, adversarial_dpq_workload, adversarial_wcd_workload,
    validation_controller, DpqArbiter,
};
use autoplat_netcalc::bounds::{token_bucket_backlog, token_bucket_delay};
use autoplat_netcalc::{backlog_bound, delay_bound, RateLatency, TokenBucket};
use autoplat_noc::{Mesh, NocConfig, NocSim, NodeId, Packet, PacketRecord};
use autoplat_regulation::process::boundary_after;
use autoplat_regulation::{
    AccessDecision, ClosedLoopConfig, DegradationReason, MemGuard, MemGuardProcess,
    PartitionTarget, RegulationEvent, SensorWatchdogConfig,
};
use autoplat_sched::rta::response_times;
use autoplat_sched::simulate::simulate_global_fp;
use autoplat_sched::TaskSet;
use autoplat_sim::{Engine, FaultPlan, MetricsRegistry, SimDuration, SimRng, SimTime};

use crate::scenario::{
    ClosedLoopScenario, DeterminismScenario, DiffScenario, DpqScenario, DramScenario,
    FleetScenario, MemGuardScenario, NocScenario, Scenario, SchedScenario,
};

/// Absolute slack (ns / cycles / bytes) tolerated on float comparisons.
const EPS: f64 = 1e-6;

/// Fixed per-packet pipeline latency of an uncontended XY path, in
/// cycles beyond the hop count: local injection, per-hop registration
/// and local ejection. This is the `T` of the rate-latency service
/// curve `beta(t) = max(0, t - (hops + T))` the NoC oracle assumes; the
/// dense-reference equivalence tests pin the router to one cycle per
/// hop, so 3 cycles of fixed overhead is sound with known slack.
const NOC_PIPELINE_SLACK_CYCLES: u32 = 3;

/// How a passing case passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseResult {
    /// All invariants of the family held.
    Pass,
    /// The scenario made the invariants vacuous (e.g. an RTA-unschedulable
    /// task set has nothing to promise).
    Vacuous,
}

/// A violated invariant, with enough context to diagnose it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable invariant identifier, e.g. `dram.upper_dominates_sim`.
    pub invariant: &'static str,
    /// Human-readable numbers behind the violation.
    pub details: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.details)
    }
}

fn violation<T>(invariant: &'static str, details: String) -> Result<T, Violation> {
    Err(Violation { invariant, details })
}

/// Per-case numeric observations a check may emit alongside its verdict
/// (tightness ratios, throughput deltas). The harness publishes them as
/// `autoplat.metrics.v1` histograms in deterministic case order, so
/// merged sweep reports stay byte-identical for any shard count.
pub type Observations = Vec<(&'static str, f64)>;

/// The conformance oracle. The `*_scale` knobs deliberately weaken an
/// analytic bound and exist so tests can prove the harness *catches* a
/// broken bound; every real sweep runs with the default `1.0`.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Multiplier applied to the FR-FCFS WCD upper bound before
    /// comparison (also used by the `diff` family's FR-FCFS and
    /// regulated regimes).
    pub wcd_upper_scale: f64,
    /// Multiplier applied to the DPQ bounded-access-latency bound.
    pub dpq_upper_scale: f64,
    /// Multiplier applied to the per-bank guarantee's per-period grant
    /// cap.
    pub perbank_cap_scale: f64,
    /// Multiplier applied to the root arbiter's budget in the `fleet`
    /// family's hierarchical run (the flat baseline keeps the full
    /// budget, so any value but `1.0` makes the topologies diverge).
    pub fleet_root_budget_scale: f64,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle {
            wcd_upper_scale: 1.0,
            dpq_upper_scale: 1.0,
            perbank_cap_scale: 1.0,
            fleet_root_budget_scale: 1.0,
        }
    }
}

impl Oracle {
    /// Checks every invariant of the scenario's family.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    pub fn check(&self, scenario: &Scenario) -> Result<CaseResult, Violation> {
        self.check_observed(scenario).map(|(result, _)| result)
    }

    /// Like [`check`](Oracle::check), but also returns the numeric
    /// observations the family exports (empty for families without an
    /// observation channel).
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    pub fn check_observed(
        &self,
        scenario: &Scenario,
    ) -> Result<(CaseResult, Observations), Violation> {
        match scenario {
            Scenario::Dram(s) => self.check_dram(s),
            Scenario::Noc(s) => check_noc(s).map(|r| (r, Vec::new())),
            Scenario::MemGuard(s) => check_memguard(s, &MEMGUARD_NAMES).map(|r| (r, Vec::new())),
            Scenario::Sched(s) => check_sched(s).map(|r| (r, Vec::new())),
            Scenario::Determinism(s) => check_determinism(s).map(|r| (r, Vec::new())),
            Scenario::ClosedLoop(s) => check_closed_loop(s).map(|r| (r, Vec::new())),
            Scenario::Dpq(s) => self.check_dpq(s),
            Scenario::PerBank(s) => self.check_perbank(s),
            Scenario::Diff(s) => self.check_diff(s),
            Scenario::Fleet(s) => self.check_fleet(s),
        }
    }

    fn check_dram(&self, s: &DramScenario) -> Result<(CaseResult, Observations), Violation> {
        let params = s.params();
        let (lower, upper) = match bounds(&params) {
            Ok(pair) => pair,
            Err(e) => {
                // Generation keeps the write rate at <= 85% of saturation,
                // so the analysis must produce a finite bound.
                return violation("dram.bound_exists", format!("{e} for {params:?}"));
            }
        };
        if lower.delay_ns > upper.delay_ns + EPS {
            return violation(
                "dram.lower_below_upper",
                format!(
                    "lower {:.3} ns > upper {:.3} ns",
                    lower.delay_ns, upper.delay_ns
                ),
            );
        }

        let ctrl = validation_controller(&params);
        let workload = adversarial_wcd_workload(&params, upper.delay_ns);
        let out = ctrl.simulate(workload, false);
        let probe_id = u64::from(params.queue_position) - 1;
        let observed_ns = match out.completions.iter().find(|c| c.request.id == probe_id) {
            Some(c) => c.finished.as_ns(),
            None => {
                return violation(
                    "dram.probe_served",
                    format!("probe {probe_id} never completed"),
                )
            }
        };
        let limit = upper.delay_ns * self.wcd_upper_scale;
        if observed_ns > limit + EPS {
            return violation(
                "dram.upper_dominates_sim",
                format!(
                    "simulated {observed_ns:.3} ns > {:.3} ns ({} x scale {})",
                    limit, upper.delay_ns, self.wcd_upper_scale
                ),
            );
        }
        // Feasibility witness: the probe is the N-th read on one channel,
        // and each earlier read occupies the data bus for at least one
        // burst, so the probe cannot complete before (N-1) bursts.
        let floor_ns = (params.queue_position - 1) as f64 * params.timing.t_burst;
        if observed_ns + EPS < floor_ns {
            return violation(
                "dram.sim_above_serialization_floor",
                format!("simulated {observed_ns:.3} ns < serialization floor {floor_ns:.3} ns"),
            );
        }
        // How much of the analytic WCD budget the adversarial witness
        // actually consumes — the campaign orchestrator folds this into
        // its bound-tightness distribution across the design space.
        let obs = vec![("conformance.dram.tightness", observed_ns / upper.delay_ns)];
        Ok((CaseResult::Pass, obs))
    }

    fn check_dpq(&self, s: &DpqScenario) -> Result<(CaseResult, Observations), Violation> {
        let timing = s.timing();
        let total = u64::from(s.masters) * u64::from(s.depth);
        let arbiter = DpqArbiter::new(timing.clone(), s.masters, s.masters);
        let out = arbiter.simulate(adversarial_dpq_workload(s.masters, s.depth), false);
        if out.completions.len() as u64 != total {
            return violation(
                "dpq.all_served",
                format!("{} of {total} requests completed", out.completions.len()),
            );
        }
        // Soundness: every completion within the bound at its recorded
        // admission depth (scaled by the falsifiability knob).
        for c in &out.completions {
            let depth = match out.depth_of(c.request.id) {
                Some(d) => d,
                None => {
                    return violation(
                        "dpq.depth_recorded",
                        format!("request {} has no admission depth", c.request.id),
                    )
                }
            };
            let bound = match dpq_upper_bound(&DpqParams {
                timing: timing.clone(),
                masters: s.masters,
                queue_depth: depth,
            }) {
                Ok(b) => b,
                Err(e) => return violation("dpq.bound_exists", format!("{e} at depth {depth}")),
            };
            let lat_ns = c.latency().as_ns();
            let limit = bound.delay_ns * self.dpq_upper_scale;
            if lat_ns > limit + EPS {
                return violation(
                    "dpq.upper_dominates_sim",
                    format!(
                        "request {} at depth {depth}: simulated {lat_ns:.3} ns > {limit:.3} ns \
                         ({:.3} x scale {})",
                        c.request.id, bound.delay_ns, self.dpq_upper_scale
                    ),
                );
            }
        }
        // The probe — last request of the last master — is admitted at
        // depth `depth` and saturates the round-robin window.
        let probe = adversarial_dpq_probe(s.masters, s.depth);
        let observed_ns = match out.completion_of(probe) {
            Some(c) => c.finished.as_ns(),
            None => return violation("dpq.probe_served", format!("probe {probe} never completed")),
        };
        let probe_bound = match dpq_upper_bound(&DpqParams {
            timing: timing.clone(),
            masters: s.masters,
            queue_depth: s.depth,
        }) {
            Ok(b) => b,
            Err(e) => return violation("dpq.bound_exists", format!("{e} for the probe")),
        };
        // Feasibility witness: d*m close-page accesses serialize on the
        // shared command/data path, each at least one pipeline long.
        let pipeline = timing.t_rp + timing.t_rcd + timing.t_cl + timing.t_burst;
        let dm = f64::from(s.depth) * f64::from(s.masters);
        let floor_ns = dm * pipeline;
        if observed_ns + EPS < floor_ns {
            return violation(
                "dpq.sim_above_serialization_floor",
                format!("simulated {observed_ns:.3} ns < serialization floor {floor_ns:.3} ns"),
            );
        }
        // Tightness: the bound may exceed the witness only by its known
        // structural slack — one access of round-robin pessimism plus the
        // admission-gap access, the bank-conflict margin (C_acc vs the
        // pipelined spacing the same-bank-per-master workload achieves),
        // and the refresh carry-over. Anything beyond that means the
        // bound (or the simulator) drifted.
        let c_acc = timing.read_miss_cost();
        let slack = 2.0 * c_acc
            + dm * (c_acc - pipeline)
            + (probe_bound.refreshes as f64 + 1.0) * timing.t_rfc;
        if observed_ns + EPS < probe_bound.delay_ns - slack {
            return violation(
                "dpq.bound_tightness",
                format!(
                    "simulated {observed_ns:.3} ns < bound {:.3} ns - structural slack {slack:.3} \
                     ns: the bound is looser than its derivation allows",
                    probe_bound.delay_ns
                ),
            );
        }
        let obs = vec![(
            "conformance.dpq.tightness",
            observed_ns / probe_bound.delay_ns,
        )];
        Ok((CaseResult::Pass, obs))
    }

    fn check_perbank(&self, s: &MemGuardScenario) -> Result<(CaseResult, Observations), Violation> {
        check_memguard(s, &PERBANK_NAMES)?;
        let period = SimDuration::from_ns(s.period_ns as f64);

        // Service guarantee under saturated demand: a bank with budget
        // `B > 0` hammered in `CHUNK`-byte accesses over `h` full periods
        // is granted at least `h * B` bytes (the MemGuard guarantee) and
        // at most `h * (B + CHUNK - 1)` (budget plus one overdraw per
        // period; scaled by the falsifiability knob).
        const CHUNK: u64 = 64;
        let h = u64::from(s.horizon_periods);
        let horizon_t = SimTime::ZERO + period * h;
        let mut granted_sum = 0.0f64;
        let mut cap_sum = 0.0f64;
        for (bank, &budget) in s.budgets.iter().enumerate() {
            if budget == 0 {
                continue;
            }
            let mut sat = MemGuard::new(period, s.budgets.clone());
            let mut t = SimTime::ZERO;
            let mut granted = 0u64;
            let mut steps = 0u64;
            while t < horizon_t {
                steps += 1;
                if steps > 2_000_000 {
                    return violation(
                        "perbank.guarantee_replay_diverged",
                        format!("bank {bank}: saturating replay did not terminate"),
                    );
                }
                match sat.try_access(bank, CHUNK, t) {
                    AccessDecision::Granted => granted += CHUNK,
                    AccessDecision::ThrottledUntil(until) => {
                        if until >= horizon_t {
                            break;
                        }
                        t = until;
                    }
                }
            }
            let floor = h * budget;
            if granted < floor {
                return violation(
                    "perbank.guarantee_floor",
                    format!(
                        "bank {bank}: {granted} bytes granted over {h} periods < \
                         guaranteed {floor} (budget {budget})"
                    ),
                );
            }
            let cap_raw = (h * (budget + CHUNK - 1)) as f64;
            let cap = cap_raw * self.perbank_cap_scale;
            if granted as f64 > cap + EPS {
                return violation(
                    "perbank.guarantee_cap",
                    format!(
                        "bank {bank}: {granted} bytes granted over {h} periods > cap {cap:.1} \
                         ({cap_raw:.1} x scale {})",
                        self.perbank_cap_scale
                    ),
                );
            }
            granted_sum += granted as f64;
            cap_sum += cap_raw;
        }
        let obs = if cap_sum > 0.0 {
            vec![(
                "conformance.perbank.guarantee_utilization",
                granted_sum / cap_sum,
            )]
        } else {
            Vec::new()
        };
        Ok((CaseResult::Pass, obs))
    }

    fn check_diff(&self, s: &DiffScenario) -> Result<(CaseResult, Observations), Violation> {
        let params = s.dram.params();
        let (_, upper) = match bounds(&params) {
            Ok(pair) => pair,
            Err(e) => return violation("diff.bound_exists", format!("{e} for {params:?}")),
        };
        let workload = adversarial_wcd_workload(&params, upper.delay_ns);
        let probe_id = u64::from(params.queue_position) - 1;
        let limit = upper.delay_ns * self.wcd_upper_scale;

        // Regime 1: plain FR-FCFS on the shared stream.
        let fr = validation_controller(&params).simulate(workload.clone(), false);
        let fr_ns = match fr.completions.iter().find(|c| c.request.id == probe_id) {
            Some(c) => c.finished.as_ns(),
            None => {
                return violation(
                    "diff.frfcfs_probe_served",
                    format!("probe {probe_id} never completed under FR-FCFS"),
                )
            }
        };
        if fr_ns > limit + EPS {
            return violation(
                "diff.frfcfs_upper_dominates_sim",
                format!("FR-FCFS simulated {fr_ns:.3} ns > {limit:.3} ns"),
            );
        }

        // Regime 2: DPQ over two masters — the stream already labels
        // reads master 0 / bank 0 and writes master 1 / bank 1. Every
        // completion must respect the per-depth DPQ bound.
        let timing = params.timing.clone();
        let dpq_out = DpqArbiter::new(timing.clone(), 2, 2).simulate(workload.clone(), false);
        if dpq_out.completions.len() != workload.len() {
            return violation(
                "diff.dpq_all_served",
                format!(
                    "{} of {} requests completed under DPQ",
                    dpq_out.completions.len(),
                    workload.len()
                ),
            );
        }
        let mut probe_depth = 0u32;
        for c in &dpq_out.completions {
            let depth = match dpq_out.depth_of(c.request.id) {
                Some(d) => d,
                None => {
                    return violation(
                        "diff.dpq_depth_recorded",
                        format!("request {} has no admission depth", c.request.id),
                    )
                }
            };
            if c.request.id == probe_id {
                probe_depth = depth;
            }
            let bound = match dpq_upper_bound(&DpqParams {
                timing: timing.clone(),
                masters: 2,
                queue_depth: depth,
            }) {
                Ok(b) => b,
                Err(e) => {
                    return violation("diff.dpq_bound_exists", format!("{e} at depth {depth}"))
                }
            };
            let lat_ns = c.latency().as_ns();
            let dpq_limit = bound.delay_ns * self.dpq_upper_scale;
            if lat_ns > dpq_limit + EPS {
                return violation(
                    "diff.dpq_upper_dominates_sim",
                    format!(
                        "request {} at depth {depth}: DPQ simulated {lat_ns:.3} ns > \
                         {dpq_limit:.3} ns",
                        c.request.id
                    ),
                );
            }
        }
        let dpq_ns = match dpq_out.completion_of(probe_id) {
            Some(c) => c.finished.as_ns(),
            None => {
                return violation(
                    "diff.dpq_probe_served",
                    format!("probe {probe_id} never completed under DPQ"),
                )
            }
        };
        let dpq_probe_bound = match dpq_upper_bound(&DpqParams {
            timing: timing.clone(),
            masters: 2,
            queue_depth: probe_depth.max(1),
        }) {
            Ok(b) => b,
            Err(e) => return violation("diff.dpq_bound_exists", format!("{e} for the probe")),
        };

        // Regime 3: FR-FCFS behind per-bank regulation. The read bank is
        // effectively unregulated (so the probe stream is untouched) and
        // the write bank gets the scenario budget; deferring writes keeps
        // them bucket-conformant, so the FR-FCFS bound must still hold.
        let shifted = regulate_workload(&workload, s)?;
        let reg = validation_controller(&params).simulate(shifted, false);
        let reg_ns = match reg.completions.iter().find(|c| c.request.id == probe_id) {
            Some(c) => c.finished.as_ns(),
            None => {
                return violation(
                    "diff.regulated_probe_served",
                    format!("probe {probe_id} never completed under regulation"),
                )
            }
        };
        if reg_ns > limit + EPS {
            return violation(
                "diff.regulated_upper_dominates_sim",
                format!("regulated simulated {reg_ns:.3} ns > {limit:.3} ns"),
            );
        }

        let rps = |completions: usize, finished: SimTime| {
            completions as f64 / finished.as_ns().max(1e-9) * 1e9
        };
        let fr_rps = rps(fr.completions.len(), fr.finished_at);
        let dpq_rps = rps(dpq_out.completions.len(), dpq_out.finished_at);
        let reg_rps = rps(reg.completions.len(), reg.finished_at);
        let obs = vec![
            ("conformance.diff.tightness.frfcfs", fr_ns / upper.delay_ns),
            (
                "conformance.diff.tightness.dpq",
                dpq_ns / dpq_probe_bound.delay_ns,
            ),
            (
                "conformance.diff.tightness.regulated",
                reg_ns / upper.delay_ns,
            ),
            ("conformance.diff.throughput_rps.frfcfs", fr_rps),
            ("conformance.diff.throughput_rps.dpq", dpq_rps),
            ("conformance.diff.throughput_rps.regulated", reg_rps),
            (
                "conformance.diff.throughput_ratio.dpq_vs_frfcfs",
                dpq_rps / fr_rps,
            ),
            (
                "conformance.diff.throughput_ratio.regulated_vs_frfcfs",
                reg_rps / fr_rps,
            ),
            (
                "conformance.diff.wcd_bound_ratio.dpq_vs_frfcfs",
                dpq_probe_bound.delay_ns / upper.delay_ns,
            ),
        ];
        Ok((CaseResult::Pass, obs))
    }

    fn check_fleet(&self, s: &FleetScenario) -> Result<(CaseResult, Observations), Violation> {
        let hier_cfg = fleet_config(s, FleetTopology::Hierarchical, self.fleet_root_budget_scale);
        let flat_cfg = fleet_config(s, FleetTopology::Flat, self.fleet_root_budget_scale);

        // Same-seed double run of the hierarchy: the outcome *and* the
        // metric export must be byte-identical.
        let run_hier = || {
            let outcome = FleetSim::new(hier_cfg.clone()).run();
            let mut reg = MetricsRegistry::new();
            outcome.publish_metrics(&mut reg);
            (outcome, reg.to_json())
        };
        let (hier, hier_json) = run_hier();
        let (replay, replay_json) = run_hier();
        if hier != replay || hier_json != replay_json {
            return violation(
                "fleet.replay_identical",
                format!(
                    "same-seed hierarchy runs diverged (outcomes equal: {}, exports equal: {})",
                    hier == replay,
                    hier_json == replay_json
                ),
            );
        }

        let flat = FleetSim::new(flat_cfg).run();
        let sets = |o: &FleetOutcome| {
            [
                ("admitted", o.admitted.clone()),
                ("refused", o.refused.clone()),
                ("gave_up", o.gave_up.clone()),
                ("crashed", o.crashed.clone()),
                ("quarantined", o.quarantined.clone()),
            ]
        };
        for ((name, f), (_, h)) in sets(&flat).into_iter().zip(sets(&hier)) {
            if f != h {
                return violation(
                    "fleet.flat_hier_sets_agree",
                    format!(
                        "{name} sets diverge: flat has {} clients, hierarchy {} \
                         (flat-only: {:?}, hier-only: {:?})",
                        f.len(),
                        h.len(),
                        f.iter()
                            .filter(|id| !h.contains(id))
                            .take(8)
                            .collect::<Vec<_>>(),
                        h.iter()
                            .filter(|id| !f.contains(id))
                            .take(8)
                            .collect::<Vec<_>>(),
                    ),
                );
            }
        }

        // Budget conservation at the horizon: every grant the root still
        // holds belongs to an active critical client, and the total
        // never exceeds the budget.
        let granted = hier.root_granted_milli.unwrap_or(0);
        if granted != hier.active_guaranteed_milli {
            return violation(
                "fleet.budget_conserved",
                format!(
                    "root holds {granted} milli granted but active criticals demand {} milli",
                    hier.active_guaranteed_milli
                ),
            );
        }
        let budget = (s.capacity_milli() as f64 * self.fleet_root_budget_scale) as u64;
        if granted > budget {
            return violation(
                "fleet.budget_within_capacity",
                format!("root granted {granted} milli out of a {budget} milli budget"),
            );
        }

        // Exact expected counts. Feasible: everyone not crashed ends
        // admitted. Infeasible: exactly `slack_slots` criticals are
        // refused, everything else (criticals in slots + best-effort)
        // is admitted.
        let expected_admitted = if s.feasible {
            u64::from(s.clients) - u64::from(s.crashes)
        } else {
            u64::from(s.clients) - u64::from(s.slack_slots.min(s.criticals()))
        };
        if flat.admitted.len() as u64 != expected_admitted {
            return violation(
                "fleet.expected_admissions",
                format!(
                    "{} of {} clients admitted, expected {expected_admitted} \
                     ({} refused, {} gave up, {} crashed)",
                    flat.admitted.len(),
                    s.clients,
                    flat.refused.len(),
                    flat.gave_up.len(),
                    flat.crashed.len(),
                ),
            );
        }
        if s.crashes > 0 && flat.quarantined != flat.crashed {
            return violation(
                "fleet.storm_victims_quarantined",
                format!(
                    "{} crashed but {} quarantined",
                    flat.crashed.len(),
                    flat.quarantined.len()
                ),
            );
        }

        let mut obs = vec![(
            "conformance.fleet.bundles_per_client",
            hier.bundles as f64 / f64::from(s.clients),
        )];
        if let Some(cycles) = hier.reconverge_cycles {
            obs.push(("conformance.fleet.reconverge_cycles", cycles as f64));
        }
        Ok((CaseResult::Pass, obs))
    }
}

/// The [`FleetConfig`] a [`FleetScenario`] runs under, shared by both
/// topologies except for the root budget scale (the falsifiability
/// knob, applied only to the hierarchy).
fn fleet_config(s: &FleetScenario, topology: FleetTopology, root_scale: f64) -> FleetConfig {
    let mut plan = FaultPlan::new();
    if s.delay_permille > 0 {
        plan = plan
            .delay_probability(f64::from(s.delay_permille) / 1000.0)
            .max_delay_cycles(40);
    }
    if s.dup_permille > 0 {
        plan = plan.duplicate_probability(f64::from(s.dup_permille) / 1000.0);
    }
    for k in 0..u64::from(s.conf_drops) {
        plan = plan.drop_nth("confMsg", 2 + 4 * k);
    }
    let feasible = s.feasible;
    FleetConfig {
        clients: s.clients,
        clusters: s.clusters,
        capacity_milli: s.capacity_milli(),
        root_capacity_milli: if topology == FleetTopology::Hierarchical {
            Some((s.capacity_milli() as f64 * root_scale) as u64)
        } else {
            None
        },
        demand_milli: s.demand_milli,
        critical_every: s.critical_every,
        wave_size: if feasible { (s.clients / 4).max(1) } else { 1 },
        wave_interval: if feasible { 400 } else { 1_500 },
        heartbeat_interval_cycles: 1_000,
        watchdog: WatchdogConfig {
            timeout_cycles: 4_000,
            quarantine_threshold: 1,
            quarantine_cooldown_cycles: 100_000,
        },
        cluster_timeout_cycles: 12_000,
        fault_plan: plan,
        crashes: s.crashes,
        crash_at: if s.crashes > 0 { Some(15_000) } else { None },
        horizon: if feasible {
            45_000
        } else {
            1_500 * u64::from(s.clients) + 15_000
        },
        seed: s.seed,
        topology,
        ..FleetConfig::default()
    }
}

/// Replays `workload` through a [`MemGuard`] keyed by bank (bank 0 —
/// reads — effectively unregulated, bank 1 — writes — on the scenario
/// budget) and returns the stream with each request's arrival deferred to
/// its grant time. Per-bank FIFO order is preserved and grant times are
/// non-decreasing per bank, so the result is a valid controller workload.
fn regulate_workload(workload: &[Request], s: &DiffScenario) -> Result<Vec<Request>, Violation> {
    const BYTES_PER_REQ: u64 = 8;
    let period = SimDuration::from_ns(s.period_ns as f64);
    let budgets = vec![1u64 << 40, s.write_budget.max(BYTES_PER_REQ)];
    let mut pb = MemGuard::new(period, budgets);
    let reads: Vec<&Request> = workload.iter().filter(|r| r.bank == 0).collect();
    let writes: Vec<&Request> = workload.iter().filter(|r| r.bank != 0).collect();
    let mut out = Vec::with_capacity(workload.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut attempt_r = reads.first().map_or(SimTime::ZERO, |r| r.arrival);
    let mut attempt_w = writes.first().map_or(SimTime::ZERO, |r| r.arrival);
    let mut steps = 0u64;
    while i < reads.len() || j < writes.len() {
        steps += 1;
        if steps > 2_000_000 {
            return violation(
                "diff.regulated_replay_diverged",
                format!(
                    "replay stuck after {} of {} grants",
                    out.len(),
                    workload.len()
                ),
            );
        }
        // Advance the bank whose next attempt is earliest (reads win
        // ties) so regulator decisions see non-decreasing time.
        let pick_read = match (i < reads.len(), j < writes.len()) {
            (true, true) => attempt_r <= attempt_w,
            (available, _) => available,
        };
        if pick_read {
            match pb.try_access(0, BYTES_PER_REQ, attempt_r) {
                AccessDecision::Granted => {
                    out.push(Request {
                        arrival: attempt_r,
                        ..*reads[i]
                    });
                    i += 1;
                    if i < reads.len() {
                        attempt_r = attempt_r.max(reads[i].arrival);
                    }
                }
                AccessDecision::ThrottledUntil(until) => attempt_r = until,
            }
        } else {
            match pb.try_access(1, BYTES_PER_REQ, attempt_w) {
                AccessDecision::Granted => {
                    out.push(Request {
                        arrival: attempt_w,
                        ..*writes[j]
                    });
                    j += 1;
                    if j < writes.len() {
                        attempt_w = attempt_w.max(writes[j].arrival);
                    }
                }
                AccessDecision::ThrottledUntil(until) => attempt_w = until,
            }
        }
    }
    Ok(out)
}

fn check_noc(s: &NocScenario) -> Result<CaseResult, Violation> {
    let tb = TokenBucket::new(s.burst_flits(), s.rate());
    let hops = s.cols - 1; // west-to-east along one row
    let latency = f64::from(hops + NOC_PIPELINE_SLACK_CYCLES);
    let rl = RateLatency::new(1.0, latency);
    let delay = match token_bucket_delay(&tb, &rl) {
        Some(d) => d,
        None => {
            return violation(
                "noc.stable",
                format!("rate {} exceeds service rate 1.0", s.rate()),
            )
        }
    };
    let backlog = token_bucket_backlog(&tb, &rl).expect("stable by the same test");

    // The generic piecewise-linear machinery must agree with the closed
    // forms — the netcalc half of the differential check.
    let generic_delay = delay_bound(&tb.to_curve(), &rl.to_curve());
    let generic_backlog = backlog_bound(&tb.to_curve(), &rl.to_curve());
    if generic_delay
        .map(|d| (d - delay).abs() > EPS)
        .unwrap_or(true)
    {
        return violation(
            "noc.netcalc_closed_form_matches_generic",
            format!("closed-form delay {delay} vs generic {generic_delay:?}"),
        );
    }
    if generic_backlog
        .map(|b| (b - backlog).abs() > EPS)
        .unwrap_or(true)
    {
        return violation(
            "noc.netcalc_closed_form_matches_generic",
            format!("closed-form backlog {backlog} vs generic {generic_backlog:?}"),
        );
    }

    let mut sim = NocSim::new(NocConfig::new(s.cols, s.rows));
    let releases = s.release_cycles();
    let mut released: Vec<(u64, u64)> = Vec::new(); // (packet id, release cycle)
    let mut id = 0u64;
    for row in 0..s.rows {
        let src = NodeId::at(0, row, s.cols);
        let dest = NodeId::at(s.cols - 1, row, s.cols);
        for &cycle in &releases {
            sim.inject(Packet::new(id, src, dest, s.flits_per_packet), cycle);
            released.push((id, cycle));
            id += 1;
        }
    }
    let last_release = releases.last().copied().unwrap_or(0);
    let max_cycles = last_release
        + u64::from(s.packets_per_flow * s.rows)
            * u64::from(s.flits_per_packet + s.cols + NOC_PIPELINE_SLACK_CYCLES)
            * 4
        + 1_000;
    if !sim.run_until_idle(max_cycles) {
        return violation(
            "noc.drains",
            format!("network not idle after {max_cycles} cycles"),
        );
    }

    let completed = sim.completed();
    if completed.len() != released.len() {
        return violation(
            "noc.all_delivered",
            format!(
                "{} of {} packets delivered",
                completed.len(),
                released.len()
            ),
        );
    }
    let record_of = |pid: u64| -> &PacketRecord {
        completed
            .iter()
            .find(|r| r.packet.id == pid)
            .expect("delivered")
    };

    // Delay: every packet's tail ejection, measured from its token-bucket
    // release, must stay within the analytic horizontal deviation.
    for &(pid, release) in &released {
        let eject = record_of(pid).ejected_cycle();
        let observed = eject.saturating_sub(release) as f64;
        if observed > delay + EPS {
            return violation(
                "noc.delay_bound_dominates",
                format!(
                    "packet {pid}: observed delay {observed} cycles > bound {delay:.3} \
                     (release {release}, eject {eject}, {s:?})"
                ),
            );
        }
    }

    // Backlog: at each arrival instant, released-but-not-ejected flits of
    // a flow must stay within the vertical deviation.
    let flits = u64::from(s.flits_per_packet);
    for flow in 0..s.rows {
        let base = u64::from(flow) * u64::from(s.packets_per_flow);
        let ids: Vec<u64> = (0..u64::from(s.packets_per_flow))
            .map(|k| base + k)
            .collect();
        for &t in &releases {
            let arrived: u64 = releases.iter().filter(|&&r| r <= t).count() as u64 * flits;
            let departed: u64 = ids
                .iter()
                .filter(|&&pid| record_of(pid).ejected_cycle() <= t)
                .count() as u64
                * flits;
            let observed = arrived.saturating_sub(departed) as f64;
            if observed > backlog + EPS {
                return violation(
                    "noc.backlog_bound_dominates",
                    format!(
                        "flow {flow} at cycle {t}: backlog {observed} flits > bound {backlog:.3}"
                    ),
                );
            }
        }
    }
    // XY routing invariant the bound relies on: hop count is what the
    // mesh geometry says.
    let mesh = Mesh::new(s.cols, s.rows);
    let measured_hops = mesh.hops(NodeId::at(0, 0, s.cols), NodeId::at(s.cols - 1, 0, s.cols));
    if measured_hops != hops {
        return violation(
            "noc.hop_model",
            format!("mesh hops {measured_hops} != model hops {hops}"),
        );
    }
    Ok(CaseResult::Pass)
}

/// The invariant identifiers one regulator family reports. `memguard`
/// and `perbank` run the same trace-and-timer check on one [`MemGuard`],
/// keyed by core or by bank; only these names differ.
struct RegulatorNames {
    /// What a budget index is, in violation details.
    key: &'static str,
    zero_budget_never_grants: &'static str,
    no_grant_past_budget: &'static str,
    single_overdraw: &'static str,
    throttle_points_to_boundary: &'static str,
    throttle_in_future: &'static str,
    lazy_matches_eager: &'static str,
    first_boundary: &'static str,
    one_replenish_per_boundary: &'static str,
    replenish_resets_usage: &'static str,
}

const MEMGUARD_NAMES: RegulatorNames = RegulatorNames {
    key: "core",
    zero_budget_never_grants: "memguard.zero_budget_never_grants",
    no_grant_past_budget: "memguard.no_grant_past_budget",
    single_overdraw: "memguard.single_overdraw",
    throttle_points_to_boundary: "memguard.throttle_points_to_boundary",
    throttle_in_future: "memguard.throttle_in_future",
    lazy_matches_eager: "memguard.lazy_matches_eager",
    first_boundary: "memguard.first_boundary",
    one_replenish_per_boundary: "memguard.one_replenish_per_boundary",
    replenish_resets_usage: "memguard.replenish_resets_usage",
};

const PERBANK_NAMES: RegulatorNames = RegulatorNames {
    key: "bank",
    zero_budget_never_grants: "perbank.zero_budget_never_grants",
    no_grant_past_budget: "perbank.no_grant_past_budget",
    single_overdraw: "perbank.single_overdraw",
    throttle_points_to_boundary: "perbank.throttle_points_to_boundary",
    throttle_in_future: "perbank.throttle_in_future",
    lazy_matches_eager: "perbank.lazy_matches_eager",
    first_boundary: "perbank.first_boundary",
    one_replenish_per_boundary: "perbank.one_replenish_per_boundary",
    replenish_resets_usage: "perbank.replenish_resets_usage",
};

/// The MemGuard trace and replenishment-timer invariants over `s`'s
/// budgets, reported under `names`.
fn check_memguard(s: &MemGuardScenario, names: &RegulatorNames) -> Result<CaseResult, Violation> {
    let period = SimDuration::from_ns(s.period_ns as f64);
    let indices = s.budgets.len();
    let key = names.key;
    let mut lazy = MemGuard::new(period, s.budgets.clone());
    let mut eager = MemGuard::new(period, s.budgets.clone());
    let mut now_ns = 0u64;
    let mut eager_boundary = period.as_ps();
    for access in &s.accesses {
        now_ns += access.gap_ns;
        let now = SimTime::from_ns(now_ns as f64);
        let idx = access.index as usize % indices;
        let budget = s.budgets[idx];
        // The usage the lazy regulator decides on, after its period roll.
        lazy.replenish(now);
        let before = lazy.used(idx);
        let decision = lazy.try_access(idx, access.bytes, now);
        match decision {
            AccessDecision::Granted => {
                if budget == 0 {
                    return violation(
                        names.zero_budget_never_grants,
                        format!("{key} {idx} granted {} bytes at {now_ns} ns", access.bytes),
                    );
                }
                if before >= budget {
                    return violation(
                        names.no_grant_past_budget,
                        format!(
                            "{key} {idx} at {now_ns} ns: {before} bytes already used >= \
                             budget {budget}, yet granted"
                        ),
                    );
                }
                // At most one overdraw: usage after the grant is below
                // budget + the access size.
                if lazy.used(idx) >= budget + access.bytes {
                    return violation(
                        names.single_overdraw,
                        format!(
                            "{key} {idx}: used {} >= budget {budget} + access {}",
                            lazy.used(idx),
                            access.bytes
                        ),
                    );
                }
            }
            AccessDecision::ThrottledUntil(until) => {
                let expected = boundary_after(period, now);
                if until != expected {
                    return violation(
                        names.throttle_points_to_boundary,
                        format!(
                            "{key} {idx} at {now_ns} ns throttled until {} ps, \
                             boundary is {} ps",
                            until.as_ps(),
                            expected.as_ps()
                        ),
                    );
                }
                if until <= now {
                    return violation(
                        names.throttle_in_future,
                        format!(
                            "throttle target {} ps <= now {} ps",
                            until.as_ps(),
                            now.as_ps()
                        ),
                    );
                }
            }
        }
        // Differential: explicit boundary replenishment must take the
        // same decision as the lazy roll.
        while eager_boundary <= now.as_ps() {
            eager.replenish(SimTime::from_ps(eager_boundary));
            eager_boundary += period.as_ps();
        }
        let eager_decision = eager.try_access(idx, access.bytes, now);
        if eager_decision != decision {
            return violation(
                names.lazy_matches_eager,
                format!(
                    "{key} {idx} at {now_ns} ns: lazy {decision:?} vs eager {eager_decision:?}"
                ),
            );
        }
    }

    // Event-driven path: the replenishment timer fires exactly once per
    // boundary and leaves budgets fresh.
    let mut mg = MemGuard::new(period, s.budgets.clone());
    for (idx, &budget) in s.budgets.iter().enumerate() {
        if budget > 0 {
            mg.try_access(idx, budget.min(64), SimTime::ZERO);
        }
    }
    let horizon = SimTime::ZERO + period * u64::from(s.horizon_periods) + period / 2;
    let mut process = MemGuardProcess::new(mg, horizon);
    if process.first_boundary() != SimTime::ZERO + period {
        return violation(
            names.first_boundary,
            format!(
                "first boundary {} ps != period {} ps",
                process.first_boundary().as_ps(),
                period.as_ps()
            ),
        );
    }
    let mut engine: Engine<RegulationEvent> = Engine::new();
    engine.schedule_at(process.first_boundary(), RegulationEvent::Replenish);
    engine.run_until(&mut process, horizon);
    if process.replenishments() != u64::from(s.horizon_periods) {
        return violation(
            names.one_replenish_per_boundary,
            format!(
                "{} replenishments over {} periods",
                process.replenishments(),
                s.horizon_periods
            ),
        );
    }
    for idx in 0..indices {
        if process.memguard().used(idx) != 0 {
            return violation(
                names.replenish_resets_usage,
                format!(
                    "{key} {idx} still shows {} bytes used after the last boundary",
                    process.memguard().used(idx)
                ),
            );
        }
    }
    Ok(CaseResult::Pass)
}

fn check_sched(s: &SchedScenario) -> Result<CaseResult, Violation> {
    let mut rng = SimRng::seed_from(s.taskset_seed);
    let set = TaskSet::generate(
        s.n as usize,
        s.util_permille as f64 / 1000.0,
        SimDuration::from_us(1.0),
        SimDuration::from_us(50.0),
        &mut rng,
    )
    .rate_monotonic();
    let tasks = set.tasks();
    let Some(rta) = response_times(tasks) else {
        // RTA refuses the set: it promises nothing, so there is nothing
        // for the simulator to contradict.
        return Ok(CaseResult::Vacuous);
    };
    let max_period_ns = tasks
        .iter()
        .map(|t| t.period.as_ns())
        .fold(0.0f64, f64::max);
    let horizon = SimDuration::from_ns(max_period_ns * 4.0);
    let outcome = simulate_global_fp(tasks, 1, horizon);
    if !outcome.all_deadlines_met() {
        return violation(
            "sched.rta_admits_no_misses",
            format!(
                "{} deadline misses for an RTA-schedulable set {tasks:?}",
                outcome.deadline_misses
            ),
        );
    }
    for (task, bound) in tasks.iter().zip(&rta) {
        if let Some(observed) = outcome.worst_response.get(&task.id) {
            if observed.as_ns() > bound.as_ns() + EPS {
                return violation(
                    "sched.rta_dominates_sim",
                    format!(
                        "task {}: observed response {:.3} ns > RTA {:.3} ns",
                        task.id,
                        observed.as_ns(),
                        bound.as_ns()
                    ),
                );
            }
        }
    }
    Ok(CaseResult::Pass)
}

fn check_determinism(s: &DeterminismScenario) -> Result<CaseResult, Violation> {
    // (1) Tick-stepped reference vs event-driven kernel on the same
    // sparse traffic: per-packet records must be identical.
    let build = || {
        let mut sim = NocSim::new(NocConfig::new(s.cols, s.rows));
        for i in 0..u64::from(s.packets) {
            let src = NodeId::at(0, (i % u64::from(s.rows)) as u32, s.cols);
            let dest = NodeId::at(s.cols - 1, s.rows - 1, s.cols);
            sim.inject(Packet::new(i, src, dest, s.flits), i * u64::from(s.gap));
        }
        sim
    };
    let total_cycles = u64::from(s.packets) * u64::from(s.gap)
        + u64::from((s.flits + s.cols + s.rows) * s.packets)
        + 1_000;
    let mut dense = build();
    dense.run_cycles_dense(total_cycles);
    let mut event = build();
    event.run_cycles(total_cycles);
    let sort = |sim: &NocSim| {
        let mut records = sim.completed().to_vec();
        records.sort_by_key(|r| r.packet.id);
        records
    };
    let dense_records = sort(&dense);
    let event_records = sort(&event);
    if dense_records != event_records {
        return violation(
            "determinism.dense_matches_event",
            format!(
                "tick-stepped and event-driven records differ: {} vs {} delivered \
                 (first mismatch {:?})",
                dense_records.len(),
                event_records.len(),
                dense_records
                    .iter()
                    .zip(&event_records)
                    .find(|(a, b)| a != b)
            ),
        );
    }

    // (2) Admission control under a probabilistic fault plan: the same
    // seed must export byte-identical metrics.
    let fault_plan = || {
        FaultPlan::new()
            .drop_probability(s.drop_permille as f64 / 1000.0)
            .delay_probability(s.delay_permille as f64 / 1000.0)
            .duplicate_probability(s.dup_permille as f64 / 1000.0)
            .max_delay_cycles(8)
    };
    let admission_run = || {
        let mut scenario =
            autoplat_admission::Scenario::new(SymmetricPolicy::new(0.1, 8.0), s.cols, s.rows)
                .event(
                    0,
                    ScenarioEvent::Activate(Application::best_effort(AppId(0), 0)),
                )
                .event(
                    500,
                    ScenarioEvent::Activate(Application::best_effort(AppId(1), 1)),
                )
                .horizon(4_000)
                .faults(fault_plan(), s.seed);
        if s.crash_client {
            scenario = scenario.event(1_500, ScenarioEvent::Crash(AppId(1)));
        }
        let outcome = scenario.run();
        let mut metrics = MetricsRegistry::new();
        outcome.publish_metrics(&mut metrics);
        metrics.to_json()
    };
    let first = admission_run();
    let second = admission_run();
    if first != second {
        return violation(
            "determinism.admission_byte_identical",
            format!(
                "same-seed admission exports differ ({} vs {} bytes)",
                first.len(),
                second.len()
            ),
        );
    }

    // (3) Optionally the composed co-simulation, the heaviest surface.
    if s.include_cosim {
        let cosim_run = || {
            let mut cfg = CoSimConfig::small();
            cfg.horizon = SimTime::from_us(10.0);
            cfg.seed = s.seed;
            cfg.fault_plan = fault_plan();
            cfg.controls = vec![(
                SimTime::from_us(3.0),
                ControlCommand::SetBudget {
                    core: 2,
                    bytes_per_period: 1_024,
                },
            )];
            CoSim::new(cfg).run().metrics.to_json()
        };
        let first = cosim_run();
        let second = cosim_run();
        if first != second {
            return violation(
                "determinism.cosim_byte_identical",
                format!(
                    "same-seed co-simulation exports differ ({} vs {} bytes)",
                    first.len(),
                    second.len()
                ),
            );
        }
    }
    Ok(CaseResult::Pass)
}

/// The scenario as a concrete co-simulation: a latency victim on core 0
/// and an adversarial hog on core 1, disjoint 16-way L3 partitions
/// (even groups private to the victim's scheme, odd ones to the hog's —
/// the same round-robin assignment safe mode applies, so degradation
/// never migrates ways between the flows), and the closed QoS loop on a
/// 5 µs epoch. The stale-reading threshold is tight only for freeze
/// storms; healthy runs may legitimately observe identical readings
/// every epoch once the loop converges.
fn closed_loop_config(s: &ClosedLoopScenario) -> CoSimConfig {
    let us = SimDuration::from_us;
    let mut cfg = CoSimConfig::small();
    cfg.budgets = vec![s.victim_budget, s.hog_budget];
    cfg.tasks = vec![
        CoSimTask::new(0, NodeId(0), us(2.0), SimDuration::from_ns(200.0)).with_packets(4),
        CoSimTask::new(1, NodeId(1), us(2.0), SimDuration::from_ns(200.0))
            .with_packets(s.hog_packets),
    ];
    cfg.horizon = SimTime::from_us(5.0 * f64::from(s.epochs));
    cfg.seed = s.seed;
    cfg.controls.clear();
    cfg.fault_plan = match s.storm_kind {
        0 => FaultPlan::none(),
        1 => FaultPlan::new().sensor_drop_probability(1.0),
        2 => FaultPlan::new()
            .sensor_stuck_probability(1.0)
            .sensor_stuck_value(1 << 30),
        3 => FaultPlan::new()
            .sensor_spike_probability(1.0)
            .sensor_spike_factor(1 << 21),
        _ => FaultPlan::new().sensor_freeze_probability(1.0),
    };
    let mut partcr = ClusterPartCr::new();
    for g in 0..4u8 {
        let scheme = SchemeId::new(g % 2).expect("scheme id in range");
        partcr.assign(PartitionGroup::new(g), scheme);
    }
    let stale_epochs = if s.storm_kind == 4 {
        ClosedLoopScenario::STALE_EPOCHS
    } else {
        s.epochs + 1
    };
    cfg.qos = Some(QosConfig {
        cache_sets: 64,
        cache_ways: 16,
        line_bytes: 64,
        epoch: us(5.0),
        loop_cfg: ClosedLoopConfig {
            targets: vec![
                PartitionTarget {
                    partid: 0,
                    core: 0,
                    target_bytes_per_epoch: 1024,
                    initial_budget: s.victim_budget,
                    min_budget: 64,
                    max_budget: 8192,
                },
                PartitionTarget {
                    partid: 1,
                    core: 1,
                    target_bytes_per_epoch: 512,
                    initial_budget: s.hog_budget,
                    min_budget: 64,
                    max_budget: 8192,
                },
            ],
            hysteresis_permille: 125,
            max_step_bytes: 256,
            watchdog: SensorWatchdogConfig {
                stale_epochs,
                max_plausible_bytes: 1 << 20,
                fault_tolerance: s.fault_tolerance,
            },
        },
        safe_budget: 512,
        partcr,
    });
    cfg
}

fn check_closed_loop(s: &ClosedLoopScenario) -> Result<CaseResult, Violation> {
    let report = CoSim::new(closed_loop_config(s)).run();
    let Some(qos) = &report.qos else {
        return violation(
            "closedloop.qos_ran",
            "co-simulation produced no QoS report".to_string(),
        );
    };
    // Enough epochs must have elapsed for the storm bound to be
    // meaningful (the last scheduled epoch may race the horizon).
    if (qos.epochs.len() as u32) + 1 < s.epochs {
        return violation(
            "closedloop.epochs_ran",
            format!(
                "{} epochs ran, scenario asked for {}",
                qos.epochs.len(),
                s.epochs
            ),
        );
    }

    // (1) The MPAM max-bandwidth control dominates the monitors: in
    // every epoch, each partition's truly observed bytes stay within the
    // cap the platform had published for that epoch.
    for epoch in &qos.epochs {
        for part in &epoch.parts {
            if part.observed_bytes > part.cap_bytes {
                return violation(
                    "closedloop.bandwidth_within_cap",
                    format!(
                        "epoch {}: part {} observed {} bytes > cap {}",
                        epoch.index, part.partid, part.observed_bytes, part.cap_bytes
                    ),
                );
            }
        }
    }

    // (2) Partition isolation: with fully-assigned disjoint way masks,
    // no flow ever has a line evicted by another flow.
    for &(flow, stats) in &qos.flow_stats {
        if stats.evictions_suffered != 0 {
            return violation(
                "closedloop.partition_isolation",
                format!(
                    "flow {flow} suffered {} cross-partition evictions",
                    stats.evictions_suffered
                ),
            );
        }
    }

    // (3) Degradation is exactly as scripted: healthy sensors never trip
    // the watchdog; every storm latches safe mode with the matching
    // typed reason within the scenario's epoch bound.
    if s.storm_kind == 0 {
        if let Some(reason) = qos.degraded {
            return violation(
                "closedloop.healthy_never_degrades",
                format!("healthy sensors degraded the loop: {reason}"),
            );
        }
    } else {
        let expected = match s.storm_kind {
            1 => DegradationReason::DroppedCaptures,
            2 | 3 => DegradationReason::ImplausibleReading,
            _ => DegradationReason::StaleReadings,
        };
        match (qos.degraded, qos.safe_mode_epoch) {
            (Some(reason), Some(epoch)) => {
                if reason != expected {
                    return violation(
                        "closedloop.safe_mode_reason",
                        format!(
                            "storm {} degraded as {reason}, expected {expected}",
                            s.storm_kind
                        ),
                    );
                }
                let bound = u64::from(s.safe_mode_bound());
                if epoch > bound {
                    return violation(
                        "closedloop.safe_mode_bounded",
                        format!(
                            "storm {} reached safe mode at epoch {epoch} > bound {bound}",
                            s.storm_kind
                        ),
                    );
                }
            }
            _ => {
                return violation(
                    "closedloop.safe_mode_bounded",
                    format!(
                        "storm {} never reached safe mode (degraded {:?})",
                        s.storm_kind, qos.degraded
                    ),
                );
            }
        }
    }

    // (4) Same-seed closed-loop runs export byte-identical metrics, the
    // replay guarantee the sensor-fault storms rely on.
    let first = report.metrics.to_json();
    let second = CoSim::new(closed_loop_config(s)).run().metrics.to_json();
    if first != second {
        return violation(
            "closedloop.byte_identical",
            format!(
                "same-seed closed-loop exports differ ({} vs {} bytes)",
                first.len(),
                second.len()
            ),
        );
    }
    Ok(CaseResult::Pass)
}
