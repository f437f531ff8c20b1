//! Random-but-valid platform scenarios, one family per analytic bound.
//!
//! Every scenario is **self-contained**: all the state needed to replay
//! it is in its fields (inner seeds included), so a scenario can be
//! checked, mutated by the shrinker, and printed as a reproducer without
//! reference to the RNG stream that generated it. Generation draws from
//! a [`SimRng`] seeded with the case seed, so `(family, case_seed)`
//! pins a scenario exactly.

use autoplat_dram::timing::presets::{ddr3_1600, ddr4_2400, lpddr4_3200};
use autoplat_dram::wcd::WcdParams;
use autoplat_dram::{ControllerConfig, DramTiming};
use autoplat_netcalc::TokenBucket;
use autoplat_sim::SimRng;

/// The ten oracle families, each pairing an analytic bound with its
/// event-kernel simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// FR-FCFS WCD bounds (§IV-A) vs the DRAM controller simulator.
    Dram,
    /// Network-calculus delay/backlog bounds vs the event-driven NoC.
    Noc,
    /// MemGuard replenishment guarantees vs `MemGuardProcess`.
    MemGuard,
    /// Response-time analysis vs the global fixed-priority simulator.
    Sched,
    /// Dense-vs-event equivalence and same-seed byte-identical exports
    /// under random fault plans.
    Determinism,
    /// Closed-loop QoS invariants vs the composed co-simulation: the
    /// MPAM max-bandwidth control dominates the monitors, disjoint
    /// partitions isolate, and sensor-fault storms reach safe mode
    /// within a bounded number of epochs.
    ClosedLoop,
    /// DPQ bounded-access-latency (Shah et al.) vs the DPQ arbiter
    /// simulator.
    Dpq,
    /// Per-bank MemGuard guarantees (Sullivan et al.) vs `MemGuard` keyed
    /// by bank and its replenishment process.
    PerBank,
    /// Cross-arbiter differential: the same adversarial request stream
    /// through FR-FCFS, DPQ and per-bank-regulated FR-FCFS, each checked
    /// against its own analytic bound, with WCD-tightness and throughput
    /// deltas exported as metrics.
    Diff,
    /// Hierarchical admission differential: the same seeded client
    /// population through the flat RM and the sharded cluster/root
    /// hierarchy must reach identical final admitted / refused /
    /// quarantined sets, the root's granted budget must conserve, and
    /// same-seed double runs must export byte-identical metrics.
    Fleet,
}

impl Family {
    /// All families, in sweep order. New families append at the end so
    /// existing `(family, case index)` seeds stay stable.
    pub const ALL: [Family; 10] = [
        Family::Dram,
        Family::Noc,
        Family::MemGuard,
        Family::Sched,
        Family::Determinism,
        Family::ClosedLoop,
        Family::Dpq,
        Family::PerBank,
        Family::Diff,
        Family::Fleet,
    ];

    /// Stable lowercase name used in CLI flags, metrics and the corpus.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Dram => "dram",
            Family::Noc => "noc",
            Family::MemGuard => "memguard",
            Family::Sched => "sched",
            Family::Determinism => "determinism",
            Family::ClosedLoop => "closedloop",
            Family::Dpq => "dpq",
            Family::PerBank => "perbank",
            Family::Diff => "diff",
            Family::Fleet => "fleet",
        }
    }

    /// Parses a [`Family::name`] back; `None` for unknown names.
    pub fn parse(name: &str) -> Option<Family> {
        Family::ALL.iter().copied().find(|f| f.name() == name)
    }

    /// Index into [`Family::ALL`], used to decorrelate case seeds.
    pub fn index(&self) -> u64 {
        Family::ALL
            .iter()
            .position(|f| f == self)
            .expect("listed in ALL") as u64
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A DRAM WCD scenario: device preset, controller knobs, write envelope
/// and probe queue position. The write rate is stored as a fraction of
/// the stability limit so every generated scenario has a finite bound.
#[derive(Debug, Clone, PartialEq)]
pub struct DramScenario {
    /// Timing preset: 0 = DDR3-1600, 1 = DDR4-2400, 2 = LPDDR4-3200.
    pub preset: u8,
    /// Write batch length `N_wd`.
    pub n_wd: u32,
    /// Read-hit promotion cap `N_cap`.
    pub n_cap: u32,
    /// Queue position `N` of the probe miss.
    pub queue_position: u32,
    /// Token-bucket burst, in write requests (kept >= 1 so the uniform
    /// write emission of the adversarial workload stays conformant).
    pub write_burst: f64,
    /// Write rate as a fraction (per-mille) of the saturation rate.
    pub rate_permille: u32,
}

impl DramScenario {
    /// The device timing this scenario runs on.
    pub fn timing(&self) -> DramTiming {
        match self.preset {
            0 => ddr3_1600(),
            1 => ddr4_2400(),
            _ => lpddr4_3200(),
        }
    }

    /// The scenario as WCD analysis inputs. The write rate is
    /// `rate_permille/1000` of the rate at which batch work plus refresh
    /// work saturates the device, so `upper_bound` always converges.
    pub fn params(&self) -> WcdParams {
        let timing = self.timing();
        let config = ControllerConfig::paper()
            .with_n_wd(self.n_wd)
            .with_n_cap(self.n_cap);
        let c_batch = timing.write_batch_cost(self.n_wd);
        let refresh_load = timing.t_rfc / timing.t_refi;
        let sat_rate = (1.0 - refresh_load) * self.n_wd as f64 / c_batch;
        let rate = sat_rate * self.rate_permille as f64 / 1000.0;
        WcdParams {
            timing,
            config,
            writes: TokenBucket::new(self.write_burst, rate),
            queue_position: self.queue_position,
        }
    }

    fn generate(rng: &mut SimRng) -> DramScenario {
        DramScenario {
            preset: rng.gen_range(0u32..3) as u8,
            n_wd: rng.gen_range(4u32..=32),
            n_cap: rng.gen_range(1u32..=32),
            queue_position: rng.gen_range(1u32..=48),
            write_burst: rng.gen_range(1.0f64..32.0),
            rate_permille: rng.gen_range(0u32..=850),
        }
    }

    fn shrink(&self) -> Vec<DramScenario> {
        let mut out = Vec::new();
        let mut push = |s: DramScenario| {
            if s != *self {
                out.push(s);
            }
        };
        push(DramScenario {
            queue_position: (self.queue_position / 2).max(1),
            ..self.clone()
        });
        push(DramScenario {
            queue_position: (self.queue_position - 1).max(1),
            ..self.clone()
        });
        push(DramScenario {
            n_cap: (self.n_cap / 2).max(1),
            ..self.clone()
        });
        push(DramScenario {
            n_wd: (self.n_wd / 2).max(4),
            ..self.clone()
        });
        push(DramScenario {
            write_burst: (self.write_burst / 2.0).max(1.0),
            ..self.clone()
        });
        push(DramScenario {
            rate_permille: self.rate_permille / 2,
            ..self.clone()
        });
        push(DramScenario {
            preset: 0,
            ..self.clone()
        });
        out
    }

    fn size(&self) -> u64 {
        self.preset as u64
            + self.n_wd as u64
            + self.n_cap as u64
            + self.queue_position as u64
            + self.write_burst as u64
            + self.rate_permille as u64
    }
}

/// A NoC scenario: disjoint west-to-east flows (one per mesh row), each
/// shaped by a token bucket, so each flow's path offers an uncontended
/// rate-latency service curve the netcalc bounds can be checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct NocScenario {
    /// Mesh columns (>= 2).
    pub cols: u32,
    /// Mesh rows; one flow per row.
    pub rows: u32,
    /// Flits per packet.
    pub flits_per_packet: u32,
    /// Packets injected per flow.
    pub packets_per_flow: u32,
    /// Token-bucket burst, in packets.
    pub burst_packets: u32,
    /// Token-bucket rate, in flits per 1000 cycles.
    pub rate_permille: u32,
}

impl NocScenario {
    /// Burst of the per-flow arrival curve, in flits.
    pub fn burst_flits(&self) -> f64 {
        (self.burst_packets * self.flits_per_packet) as f64
    }

    /// Rate of the per-flow arrival curve, in flits per cycle.
    pub fn rate(&self) -> f64 {
        self.rate_permille as f64 / 1000.0
    }

    /// Greedy token-bucket-conformant release cycles for one flow: the
    /// earliest integer cycles at which cumulative flits stay within
    /// `b + r*t`.
    pub fn release_cycles(&self) -> Vec<u64> {
        let l = self.flits_per_packet as f64;
        let b = self.burst_flits();
        let r = self.rate();
        (0..self.packets_per_flow)
            .map(|k| {
                let need = (k + 1) as f64 * l;
                if need <= b {
                    0
                } else {
                    ((need - b) / r).ceil() as u64
                }
            })
            .collect()
    }

    fn generate(rng: &mut SimRng) -> NocScenario {
        NocScenario {
            cols: rng.gen_range(2u32..=6),
            rows: rng.gen_range(1u32..=4),
            flits_per_packet: rng.gen_range(1u32..=6),
            packets_per_flow: rng.gen_range(3u32..=20),
            burst_packets: rng.gen_range(1u32..=4),
            rate_permille: rng.gen_range(50u32..=500),
        }
    }

    fn shrink(&self) -> Vec<NocScenario> {
        let mut out = Vec::new();
        let mut push = |s: NocScenario| {
            if s != *self {
                out.push(s);
            }
        };
        push(NocScenario {
            packets_per_flow: (self.packets_per_flow / 2).max(1),
            ..self.clone()
        });
        push(NocScenario {
            rows: (self.rows / 2).max(1),
            ..self.clone()
        });
        push(NocScenario {
            cols: (self.cols - 1).max(2),
            ..self.clone()
        });
        push(NocScenario {
            flits_per_packet: (self.flits_per_packet / 2).max(1),
            ..self.clone()
        });
        push(NocScenario {
            burst_packets: (self.burst_packets / 2).max(1),
            ..self.clone()
        });
        push(NocScenario {
            rate_permille: (self.rate_permille / 2).max(50),
            ..self.clone()
        });
        out
    }

    fn size(&self) -> u64 {
        self.cols as u64
            + self.rows as u64
            + self.flits_per_packet as u64
            + self.packets_per_flow as u64
            + self.burst_packets as u64
            + self.rate_permille as u64
    }
}

/// One regulated memory access in a [`MemGuardScenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgAccess {
    /// Regulated index: the issuing core (`memguard`) or the target bank
    /// (`perbank`).
    pub index: u8,
    /// Access size in bytes.
    pub bytes: u64,
    /// Gap since the previous access in the trace, in nanoseconds.
    pub gap_ns: u64,
}

/// A MemGuard scenario, shared by the `memguard` family (budgets keyed by
/// core) and the `perbank` family (budgets keyed by DRAM bank): budgets
/// (possibly zero) and a global access trace replayed against both the
/// lazy and the event-driven replenishment paths.
#[derive(Debug, Clone, PartialEq)]
pub struct MemGuardScenario {
    /// Regulation period in nanoseconds.
    pub period_ns: u64,
    /// Budgets in bytes per period, one per index; zero means always
    /// throttled.
    pub budgets: Vec<u64>,
    /// The access trace (times are cumulative gaps).
    pub accesses: Vec<MgAccess>,
    /// Horizon for the event-driven run and the `perbank` guarantee
    /// replay, in full periods.
    pub horizon_periods: u32,
}

impl MemGuardScenario {
    fn generate(rng: &mut SimRng) -> MemGuardScenario {
        let indices = rng.gen_range(1usize..=4);
        let budgets = (0..indices)
            .map(|_| {
                if rng.gen_bool(0.15) {
                    0
                } else {
                    rng.gen_range(64u64..=4096)
                }
            })
            .collect();
        let period_ns = rng.gen_range(1_000u64..=20_000);
        let n_accesses = rng.gen_range(5usize..=60);
        let accesses = (0..n_accesses)
            .map(|_| MgAccess {
                index: rng.gen_range(0u32..indices as u32) as u8,
                bytes: rng.gen_range(1u64..=512),
                gap_ns: rng.gen_range(0u64..=2_000),
            })
            .collect();
        MemGuardScenario {
            period_ns,
            budgets,
            accesses,
            horizon_periods: rng.gen_range(2u32..=6),
        }
    }

    fn shrink(&self) -> Vec<MemGuardScenario> {
        let mut out = Vec::new();
        if self.accesses.len() > 1 {
            let half = self.accesses.len() / 2;
            out.push(MemGuardScenario {
                accesses: self.accesses[..half].to_vec(),
                ..self.clone()
            });
            out.push(MemGuardScenario {
                accesses: self.accesses[half..].to_vec(),
                ..self.clone()
            });
        }
        if self.budgets.len() > 1 {
            let indices = self.budgets.len() - 1;
            out.push(MemGuardScenario {
                budgets: self.budgets[..indices].to_vec(),
                accesses: self
                    .accesses
                    .iter()
                    .copied()
                    .filter(|a| (a.index as usize) < indices)
                    .collect(),
                ..self.clone()
            });
        }
        if self.horizon_periods > 2 {
            out.push(MemGuardScenario {
                horizon_periods: self.horizon_periods / 2,
                ..self.clone()
            });
        }
        out.retain(|s| s != self && !s.accesses.is_empty());
        out
    }

    fn size(&self) -> u64 {
        self.accesses.len() as u64 * 8 + self.budgets.len() as u64 + self.horizon_periods as u64
    }
}

/// A scheduling scenario: a UUniFast task set pinned by an inner seed, so
/// shrinking `n` or the utilization regenerates a smaller set
/// deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedScenario {
    /// Number of tasks.
    pub n: u32,
    /// Target utilization in per-mille.
    pub util_permille: u32,
    /// Inner seed for the task-set generator.
    pub taskset_seed: u64,
}

impl SchedScenario {
    fn generate(rng: &mut SimRng) -> SchedScenario {
        SchedScenario {
            n: rng.gen_range(2u32..=8),
            util_permille: rng.gen_range(300u32..=1100),
            taskset_seed: rng.next_u64(),
        }
    }

    fn shrink(&self) -> Vec<SchedScenario> {
        let mut out = Vec::new();
        if self.n > 2 {
            out.push(SchedScenario {
                n: self.n - 1,
                ..self.clone()
            });
        }
        if self.util_permille > 300 {
            out.push(SchedScenario {
                util_permille: (self.util_permille - 100).max(300),
                ..self.clone()
            });
        }
        out
    }

    fn size(&self) -> u64 {
        self.n as u64 * 1000 + self.util_permille as u64
    }
}

/// A determinism scenario: the dense-vs-event NoC cross-check plus
/// same-seed double runs of the admission scenario (and optionally the
/// full co-simulation) under a random probabilistic fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterminismScenario {
    /// Mesh columns for the NoC cross-check.
    pub cols: u32,
    /// Mesh rows for the NoC cross-check.
    pub rows: u32,
    /// Sparse packets injected for the NoC cross-check.
    pub packets: u32,
    /// Cycles between injections.
    pub gap: u32,
    /// Flits per packet.
    pub flits: u32,
    /// Seed for fault injectors and the co-simulation.
    pub seed: u64,
    /// Control-message drop probability, per-mille.
    pub drop_permille: u32,
    /// Control-message delay probability, per-mille.
    pub delay_permille: u32,
    /// Control-message duplication probability, per-mille.
    pub dup_permille: u32,
    /// Whether one admission client crashes mid-run.
    pub crash_client: bool,
    /// Whether to also double-run the composed co-simulation (heavier).
    pub include_cosim: bool,
}

impl DeterminismScenario {
    fn generate(rng: &mut SimRng) -> DeterminismScenario {
        DeterminismScenario {
            cols: rng.gen_range(2u32..=4),
            rows: rng.gen_range(2u32..=4),
            packets: rng.gen_range(4u32..=40),
            gap: rng.gen_range(1u32..=50),
            flits: rng.gen_range(1u32..=6),
            seed: rng.next_u64(),
            drop_permille: rng.gen_range(0u32..=300),
            delay_permille: rng.gen_range(0u32..=300),
            dup_permille: rng.gen_range(0u32..=200),
            crash_client: rng.gen_bool(0.3),
            include_cosim: rng.gen_bool(0.2),
        }
    }

    fn shrink(&self) -> Vec<DeterminismScenario> {
        let mut out = Vec::new();
        let mut push = |s: DeterminismScenario| {
            if s != *self {
                out.push(s);
            }
        };
        push(DeterminismScenario {
            packets: (self.packets / 2).max(1),
            ..self.clone()
        });
        push(DeterminismScenario {
            include_cosim: false,
            ..self.clone()
        });
        push(DeterminismScenario {
            crash_client: false,
            ..self.clone()
        });
        push(DeterminismScenario {
            drop_permille: 0,
            ..self.clone()
        });
        push(DeterminismScenario {
            delay_permille: 0,
            dup_permille: 0,
            ..self.clone()
        });
        push(DeterminismScenario {
            cols: (self.cols - 1).max(2),
            rows: (self.rows - 1).max(2),
            ..self.clone()
        });
        push(DeterminismScenario {
            flits: (self.flits / 2).max(1),
            ..self.clone()
        });
        out
    }

    fn size(&self) -> u64 {
        self.cols as u64
            + self.rows as u64
            + self.packets as u64
            + self.flits as u64
            + self.drop_permille as u64
            + self.delay_permille as u64
            + self.dup_permille as u64
            + u64::from(self.crash_client)
            + u64::from(self.include_cosim) * 1000
    }
}

/// A closed-loop QoS scenario: a latency victim and an adversarial
/// bandwidth hog behind disjoint L3 partitions, with MPAM bandwidth
/// monitors feeding the closed-loop budget controller — optionally under
/// a seeded sensor-fault storm that must drive the platform into safe
/// static partitioning within a bounded number of epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedLoopScenario {
    /// Regulation epochs to run (horizon = epochs × epoch length).
    pub epochs: u32,
    /// Watchdog suspect streak tolerated before degradation.
    pub fault_tolerance: u32,
    /// Victim core's MemGuard budget, bytes per period.
    pub victim_budget: u64,
    /// Hog core's MemGuard budget, bytes per period.
    pub hog_budget: u64,
    /// Packets the hog issues per job.
    pub hog_packets: u32,
    /// Sensor-fault storm: 0 = healthy, 1 = dropped captures,
    /// 2 = stuck-at an implausible value, 3 = multiplicative spikes,
    /// 4 = frozen readings.
    pub storm_kind: u8,
    /// Co-simulation seed.
    pub seed: u64,
}

impl ClosedLoopScenario {
    /// The watchdog's stale-reading threshold, fixed so the freeze-storm
    /// detection latency is predictable: `stale_epochs` identical
    /// readings mark a sensor suspect.
    pub const STALE_EPOCHS: u32 = 2;

    /// Upper bound (inclusive) on the epoch index at which a storm must
    /// have latched safe mode. Drop/stuck/spike storms corrupt every
    /// reading from epoch 0, so the suspect streak reaches the tolerance
    /// at epoch `fault_tolerance - 1`; frozen readings first need
    /// `STALE_EPOCHS` repeats before the streak starts.
    pub fn safe_mode_bound(&self) -> u32 {
        match self.storm_kind {
            4 => Self::STALE_EPOCHS + self.fault_tolerance,
            _ => self.fault_tolerance,
        }
    }

    fn generate(rng: &mut SimRng) -> ClosedLoopScenario {
        ClosedLoopScenario {
            epochs: rng.gen_range(8u32..=12),
            fault_tolerance: rng.gen_range(1u32..=3),
            victim_budget: rng.gen_range(8u64..=64) * 64,
            hog_budget: rng.gen_range(1u64..=32) * 64,
            hog_packets: rng.gen_range(8u32..=24),
            storm_kind: rng.gen_range(0u32..=4) as u8,
            seed: rng.next_u64(),
        }
    }

    fn shrink(&self) -> Vec<ClosedLoopScenario> {
        let mut out = Vec::new();
        let mut push = |s: ClosedLoopScenario| {
            if s != *self {
                out.push(s);
            }
        };
        push(ClosedLoopScenario {
            storm_kind: 0,
            ..self.clone()
        });
        push(ClosedLoopScenario {
            hog_packets: (self.hog_packets / 2).max(8),
            ..self.clone()
        });
        push(ClosedLoopScenario {
            epochs: (self.epochs / 2).max(8),
            ..self.clone()
        });
        push(ClosedLoopScenario {
            fault_tolerance: 1,
            ..self.clone()
        });
        push(ClosedLoopScenario {
            victim_budget: (self.victim_budget / 2).max(512),
            ..self.clone()
        });
        push(ClosedLoopScenario {
            hog_budget: (self.hog_budget / 2).max(64),
            ..self.clone()
        });
        out
    }

    fn size(&self) -> u64 {
        self.epochs as u64 * 16
            + self.fault_tolerance as u64 * 8
            + self.victim_budget / 64
            + self.hog_budget / 64
            + self.hog_packets as u64
            + self.storm_kind as u64
    }
}

/// A DPQ arbitration scenario: device preset, master count and the
/// per-master backlog depth of the adversarial workload (every master
/// issues `depth` close-page reads to its own bank at `t = 0`, so the
/// probe — the last request of the last master — is admitted at depth
/// `depth` and saturates the round-robin window of the bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpqScenario {
    /// Timing preset: 0 = DDR3-1600, 1 = DDR4-2400, 2 = LPDDR4-3200.
    pub preset: u8,
    /// Number of masters arbitrated.
    pub masters: u32,
    /// Requests per master (the probe's admission depth).
    pub depth: u32,
}

impl DpqScenario {
    /// The device timing this scenario runs on.
    pub fn timing(&self) -> DramTiming {
        match self.preset {
            0 => ddr3_1600(),
            1 => ddr4_2400(),
            _ => lpddr4_3200(),
        }
    }

    fn generate(rng: &mut SimRng) -> DpqScenario {
        DpqScenario {
            preset: rng.gen_range(0u32..3) as u8,
            masters: rng.gen_range(2u32..=4),
            depth: rng.gen_range(2u32..=32),
        }
    }

    fn shrink(&self) -> Vec<DpqScenario> {
        let mut out = Vec::new();
        let mut push = |s: DpqScenario| {
            if s != *self {
                out.push(s);
            }
        };
        push(DpqScenario {
            depth: (self.depth / 2).max(1),
            ..self.clone()
        });
        push(DpqScenario {
            depth: (self.depth - 1).max(1),
            ..self.clone()
        });
        push(DpqScenario {
            masters: (self.masters - 1).max(1),
            ..self.clone()
        });
        push(DpqScenario {
            preset: 0,
            ..self.clone()
        });
        out
    }

    fn size(&self) -> u64 {
        self.preset as u64 + self.masters as u64 * 64 + self.depth as u64
    }
}

/// A cross-arbiter differential scenario: one adversarial FR-FCFS stream
/// (embedded [`DramScenario`]) replayed through three arbitration
/// regimes — FR-FCFS, DPQ (reads and writes as separate masters) and
/// per-bank-regulated FR-FCFS (the write bank capped at `write_budget`
/// bytes per `period_ns`) — each checked against its own bound.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffScenario {
    /// The shared request stream and FR-FCFS operating point.
    pub dram: DramScenario,
    /// Per-period byte budget of the write bank in the regulated regime
    /// (8 bytes per write request).
    pub write_budget: u64,
    /// Regulation period, nanoseconds.
    pub period_ns: u64,
}

impl DiffScenario {
    fn generate(rng: &mut SimRng) -> DiffScenario {
        DiffScenario {
            dram: DramScenario::generate(rng),
            write_budget: rng.gen_range(2u64..=32) * 8,
            period_ns: rng.gen_range(500u64..=5_000),
        }
    }

    fn shrink(&self) -> Vec<DiffScenario> {
        let mut out: Vec<DiffScenario> = self
            .dram
            .shrink()
            .into_iter()
            .map(|d| DiffScenario {
                dram: d,
                ..self.clone()
            })
            .collect();
        let mut push = |s: DiffScenario| {
            if s != *self {
                out.push(s);
            }
        };
        push(DiffScenario {
            write_budget: (self.write_budget / 2).max(16),
            ..self.clone()
        });
        push(DiffScenario {
            period_ns: (self.period_ns / 2).max(500),
            ..self.clone()
        });
        out
    }

    fn size(&self) -> u64 {
        self.dram.size() + self.write_budget / 8 + self.period_ns / 250
    }
}

/// A hierarchical-admission scenario: one seeded synthetic population
/// run through the flat RM and through the cluster/root hierarchy.
///
/// Fault classes are restricted so the cross-topology set-equality
/// oracle is sound:
///
/// * **Feasible** populations (capacity covers every critical) may see
///   probabilistic delays and duplications plus scripted `confMsg`
///   drops — retransmission and duplicate suppression recover all of
///   them, and since every client is ultimately admitted, arrival
///   *order* cannot change the final sets. Message *drops* with bounded
///   retries could differ per topology (independent per-plane fault
///   streams), so probabilistic drops stay out of this family (the
///   fleet bench exercises them, without the cross-topology claim).
/// * **Infeasible** populations are strictly serialized (one-client
///   waves, a full round trip apart) and fault-free, so both topologies
///   see the same first-come-first-served order and refuse exactly the
///   same clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetScenario {
    /// Population size.
    pub clients: u32,
    /// Cluster count for the hierarchical run (1 = degenerate
    /// single-cluster hierarchy; may exceed `clients`, leaving empty
    /// shards).
    pub clusters: u32,
    /// Every `critical_every`-th client is critical, the rest
    /// best-effort.
    pub critical_every: u32,
    /// Guaranteed demand per critical client, milli-items/cycle.
    pub demand_milli: u32,
    /// Whether capacity covers every critical client.
    pub feasible: bool,
    /// Feasible: spare critical slots beyond the population's demand.
    /// Infeasible: critical slots *short* of the demand (each one a
    /// deterministic refusal).
    pub slack_slots: u32,
    /// Clients killed mid-run by the deterministic crash storm
    /// (feasible scenarios only).
    pub crashes: u32,
    /// Probabilistic control-message delay, per-mille (feasible only).
    pub delay_permille: u32,
    /// Probabilistic control-message duplication, per-mille (feasible
    /// only).
    pub dup_permille: u32,
    /// Scripted `confMsg` drops (feasible only; recovered by the RM's
    /// retransmission).
    pub conf_drops: u32,
    /// Master seed for both topologies' fault injectors.
    pub seed: u64,
}

impl FleetScenario {
    /// Number of critical clients in the population.
    pub fn criticals(&self) -> u32 {
        self.clients.div_ceil(self.critical_every)
    }

    /// The global budget in milli-items/cycle: demand plus slack when
    /// feasible, demand minus `slack_slots` refusals when not.
    pub fn capacity_milli(&self) -> u64 {
        let slots = if self.feasible {
            u64::from(self.criticals()) + u64::from(self.slack_slots)
        } else {
            u64::from(self.criticals()).saturating_sub(u64::from(self.slack_slots))
        };
        slots * u64::from(self.demand_milli)
    }

    fn generate(rng: &mut SimRng) -> FleetScenario {
        let feasible = rng.gen_bool(0.75);
        let clients = if feasible {
            rng.gen_range(30u32..=120)
        } else {
            rng.gen_range(6u32..=14)
        };
        let critical_every = rng.gen_range(1u32..=2);
        let criticals = clients.div_ceil(critical_every);
        FleetScenario {
            clients,
            clusters: rng.gen_range(1u32..=5),
            critical_every,
            demand_milli: rng.gen_range(50u32..=200),
            feasible,
            slack_slots: if feasible {
                rng.gen_range(0u32..=3)
            } else {
                rng.gen_range(1u32..=(criticals - 1).max(1))
            },
            crashes: if feasible {
                rng.gen_range(0u32..=6).min(clients / 8)
            } else {
                0
            },
            delay_permille: if feasible {
                rng.gen_range(0u32..=250)
            } else {
                0
            },
            dup_permille: if feasible {
                rng.gen_range(0u32..=150)
            } else {
                0
            },
            conf_drops: if feasible { rng.gen_range(0u32..=2) } else { 0 },
            seed: rng.next_u64(),
        }
    }

    fn shrink(&self) -> Vec<FleetScenario> {
        let mut out = Vec::new();
        let mut push = |s: FleetScenario| {
            if s != *self {
                out.push(s);
            }
        };
        let criticals_at = |clients: u32| clients.div_ceil(self.critical_every);
        let smaller = (self.clients / 2).max(6);
        push(FleetScenario {
            clients: smaller,
            // Keep the infeasible invariant (1 <= slack < criticals).
            slack_slots: if self.feasible {
                self.slack_slots
            } else {
                self.slack_slots.min((criticals_at(smaller) - 1).max(1))
            },
            crashes: self.crashes.min(smaller / 8),
            ..self.clone()
        });
        push(FleetScenario {
            crashes: 0,
            ..self.clone()
        });
        push(FleetScenario {
            delay_permille: 0,
            dup_permille: 0,
            ..self.clone()
        });
        push(FleetScenario {
            conf_drops: 0,
            ..self.clone()
        });
        push(FleetScenario {
            clusters: 1,
            ..self.clone()
        });
        push(FleetScenario {
            critical_every: 1,
            slack_slots: if self.feasible {
                self.slack_slots
            } else {
                self.slack_slots.min(self.clients - 1)
            },
            ..self.clone()
        });
        out
    }

    fn size(&self) -> u64 {
        u64::from(self.clients) * 16
            + u64::from(self.clusters) * 8
            + u64::from(self.critical_every) * 4
            + u64::from(self.crashes) * 32
            + u64::from(self.delay_permille)
            + u64::from(self.dup_permille)
            + u64::from(self.conf_drops) * 64
    }
}

/// A generated scenario of any family.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// See [`DramScenario`].
    Dram(DramScenario),
    /// See [`NocScenario`].
    Noc(NocScenario),
    /// See [`MemGuardScenario`].
    MemGuard(MemGuardScenario),
    /// See [`SchedScenario`].
    Sched(SchedScenario),
    /// See [`DeterminismScenario`].
    Determinism(DeterminismScenario),
    /// See [`ClosedLoopScenario`].
    ClosedLoop(ClosedLoopScenario),
    /// See [`DpqScenario`].
    Dpq(DpqScenario),
    /// See [`MemGuardScenario`].
    PerBank(MemGuardScenario),
    /// See [`DiffScenario`].
    Diff(DiffScenario),
    /// See [`FleetScenario`].
    Fleet(FleetScenario),
}

impl Scenario {
    /// Generates the scenario pinned by `(family, rng state)`.
    pub fn generate(family: Family, rng: &mut SimRng) -> Scenario {
        match family {
            Family::Dram => Scenario::Dram(DramScenario::generate(rng)),
            Family::Noc => Scenario::Noc(NocScenario::generate(rng)),
            Family::MemGuard => Scenario::MemGuard(MemGuardScenario::generate(rng)),
            Family::Sched => Scenario::Sched(SchedScenario::generate(rng)),
            Family::Determinism => Scenario::Determinism(DeterminismScenario::generate(rng)),
            Family::ClosedLoop => Scenario::ClosedLoop(ClosedLoopScenario::generate(rng)),
            Family::Dpq => Scenario::Dpq(DpqScenario::generate(rng)),
            Family::PerBank => Scenario::PerBank(MemGuardScenario::generate(rng)),
            Family::Diff => Scenario::Diff(DiffScenario::generate(rng)),
            Family::Fleet => Scenario::Fleet(FleetScenario::generate(rng)),
        }
    }

    /// The family this scenario belongs to.
    pub fn family(&self) -> Family {
        match self {
            Scenario::Dram(_) => Family::Dram,
            Scenario::Noc(_) => Family::Noc,
            Scenario::MemGuard(_) => Family::MemGuard,
            Scenario::Sched(_) => Family::Sched,
            Scenario::Determinism(_) => Family::Determinism,
            Scenario::ClosedLoop(_) => Family::ClosedLoop,
            Scenario::Dpq(_) => Family::Dpq,
            Scenario::PerBank(_) => Family::PerBank,
            Scenario::Diff(_) => Family::Diff,
            Scenario::Fleet(_) => Family::Fleet,
        }
    }

    /// Strictly-smaller mutations of this scenario for the shrinker.
    /// Every candidate has [`Scenario::size`] below the current one, so
    /// greedy descent terminates.
    pub fn shrink_candidates(&self) -> Vec<Scenario> {
        let current = self.size();
        let all: Vec<Scenario> = match self {
            Scenario::Dram(s) => s.shrink().into_iter().map(Scenario::Dram).collect(),
            Scenario::Noc(s) => s.shrink().into_iter().map(Scenario::Noc).collect(),
            Scenario::MemGuard(s) => s.shrink().into_iter().map(Scenario::MemGuard).collect(),
            Scenario::Sched(s) => s.shrink().into_iter().map(Scenario::Sched).collect(),
            Scenario::Determinism(s) => s.shrink().into_iter().map(Scenario::Determinism).collect(),
            Scenario::ClosedLoop(s) => s.shrink().into_iter().map(Scenario::ClosedLoop).collect(),
            Scenario::Dpq(s) => s.shrink().into_iter().map(Scenario::Dpq).collect(),
            Scenario::PerBank(s) => s.shrink().into_iter().map(Scenario::PerBank).collect(),
            Scenario::Diff(s) => s.shrink().into_iter().map(Scenario::Diff).collect(),
            Scenario::Fleet(s) => s.shrink().into_iter().map(Scenario::Fleet).collect(),
        };
        all.into_iter().filter(|s| s.size() < current).collect()
    }

    /// A scalar complexity measure driving shrink termination.
    pub fn size(&self) -> u64 {
        match self {
            Scenario::Dram(s) => s.size(),
            Scenario::Noc(s) => s.size(),
            Scenario::MemGuard(s) => s.size(),
            Scenario::Sched(s) => s.size(),
            Scenario::Determinism(s) => s.size(),
            Scenario::ClosedLoop(s) => s.size(),
            Scenario::Dpq(s) => s.size(),
            Scenario::PerBank(s) => s.size(),
            Scenario::Diff(s) => s.size(),
            Scenario::Fleet(s) => s.size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for family in Family::ALL {
            let a = Scenario::generate(family, &mut SimRng::seed_from(42));
            let b = Scenario::generate(family, &mut SimRng::seed_from(42));
            assert_eq!(a, b, "{family}: same seed must give same scenario");
            let c = Scenario::generate(family, &mut SimRng::seed_from(43));
            assert_ne!(a, c, "{family}: distinct seeds should differ");
        }
    }

    #[test]
    fn family_names_round_trip() {
        for family in Family::ALL {
            assert_eq!(Family::parse(family.name()), Some(family));
        }
        assert_eq!(Family::parse("bogus"), None);
    }

    #[test]
    fn dram_params_always_stable() {
        for seed in 0..200 {
            let mut rng = SimRng::seed_from(seed);
            let s = DramScenario::generate(&mut rng);
            let p = s.params();
            autoplat_dram::wcd::upper_bound(&p)
                .unwrap_or_else(|e| panic!("seed {seed} generated unstable params: {e} ({s:?})"));
        }
    }

    #[test]
    fn noc_release_cycles_conform_to_bucket() {
        for seed in 0..100 {
            let mut rng = SimRng::seed_from(seed);
            let s = NocScenario::generate(&mut rng);
            let releases = s.release_cycles();
            let (b, r, l) = (s.burst_flits(), s.rate(), s.flits_per_packet as f64);
            for (k, &t) in releases.iter().enumerate() {
                let cumulative = (k + 1) as f64 * l;
                assert!(
                    cumulative <= b + r * t as f64 + 1e-9,
                    "seed {seed}: packet {k} at cycle {t} violates the bucket"
                );
            }
            let mut sorted = releases.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, releases, "releases must be non-decreasing");
        }
    }

    #[test]
    fn shrink_candidates_strictly_reduce_size() {
        for family in Family::ALL {
            for seed in 0..50 {
                let s = Scenario::generate(family, &mut SimRng::seed_from(seed));
                for candidate in s.shrink_candidates() {
                    assert!(
                        candidate.size() < s.size(),
                        "{family}: candidate {candidate:?} not smaller than {s:?}"
                    );
                }
            }
        }
    }
}
