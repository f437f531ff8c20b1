//! Golden DRAM replays: what every FR-FCFS and DPQ replay of the paper
//! figures and the conformance oracle served, and what the controller
//! publishes about it.
//!
//! `tests/golden/dram_replays.txt` holds
//!
//! * one `export` line per registry the controller publishes into: the
//!   `to_json()` of the registries [`fig5_with_metrics`] and
//!   `validation_wcd_with_metrics(24, 4.0)` fill;
//! * one `replay` line per replay: the Fig. 5 workload, validation queue
//!   positions 1 to 24, the adversarial workloads of 16 seeded `dram` and
//!   `dpq` conformance scenarios (`case_seed(7, family, i)`), and the
//!   `diff` family's shared stream under FR-FCFS and under a 2-master
//!   `DpqArbiter`.
//!
//! A replay line gives the completions as `count:digest` of (id,
//! finished ps, row hit) in serve order, the refresh count and the
//! finish time in ps; an FR-FCFS line adds the mode switches as
//! `count:digest` of (instant ps, direction, write-queue depth), a DPQ
//! line the digest of each completion's admission depth.
//!
//! It was written once and is never regenerated; a change to what a
//! replay serves, when, or what it reports shows up here as a first
//! differing line.

use std::fmt::Write;

use autoplat_bench::{fig5, fig5_with_metrics, validation_wcd_with_metrics};
use autoplat_conformance::{case_seed, Family, Scenario};
use autoplat_dram::config::ControllerConfig;
use autoplat_dram::controller::{Mode, SimOutcome};
use autoplat_dram::request::{Completion, MasterId};
use autoplat_dram::timing::presets::ddr3_1600;
use autoplat_dram::wcd::{bounds, WcdParams};
use autoplat_dram::{
    adversarial_dpq_workload, adversarial_wcd_workload, validation_controller, DpqArbiter,
    DpqOutcome, FrFcfsController, Request, RequestKind,
};
use autoplat_netcalc::arrival::gbps_bucket;
use autoplat_sim::{MetricsRegistry, SimRng, SimTime};

/// Running FNV-1a over little-endian `u64` fields.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `count:digest` of the completions in serve order.
fn served(completions: &[Completion]) -> String {
    let mut h = Fnv::new();
    for c in completions {
        h.u64(c.request.id);
        h.u64(c.finished.as_ps());
        h.u64(u64::from(c.row_hit));
    }
    format!("{}:{:016x}", completions.len(), h.0)
}

/// One FR-FCFS mode switch: (instant ps, 1 = to write / 0 = to read,
/// write-queue depth).
type Switch = (u64, u64, u64);

fn switches(out: &SimOutcome) -> Vec<Switch> {
    out.switches
        .iter()
        .map(|s| {
            let to_write = u64::from(s.to == Mode::Write);
            (s.at.as_ps(), to_write, u64::from(s.write_queue_depth))
        })
        .collect()
}

fn render_frfcfs(name: &str, out: &SimOutcome, text: &mut String) {
    let log = switches(out);
    let mut h = Fnv::new();
    for &(at, to_write, depth) in &log {
        h.u64(at);
        h.u64(to_write);
        h.u64(depth);
    }
    writeln!(
        text,
        "replay {name} served={} refreshes={} finished={} switches={}:{:016x}",
        served(&out.completions),
        out.refreshes,
        out.finished_at.as_ps(),
        log.len(),
        h.0,
    )
    .unwrap();
}

fn render_dpq(name: &str, out: &DpqOutcome, text: &mut String) {
    let mut h = Fnv::new();
    for &depth in &out.depths {
        h.u64(u64::from(depth));
    }
    writeln!(
        text,
        "replay {name} served={} refreshes={} finished={} depths={:016x}",
        served(&out.completions),
        out.refreshes,
        out.finished_at.as_ps(),
        h.0,
    )
    .unwrap();
}

/// The Fig. 5 controller and workload, as `fig5_with_metrics` builds
/// them; `replays_match_golden` checks that `fig5()` reports exactly the
/// switches of this replay.
fn fig5_replay() -> SimOutcome {
    let cfg = ControllerConfig::paper().with_watermarks(8, 24);
    let ctrl = FrFcfsController::new(ddr3_1600(), cfg, 8);
    let mut reqs = Vec::new();
    let mut id = 0u64;
    for i in 0..600u64 {
        reqs.push(Request::new(
            id,
            MasterId(0),
            RequestKind::Read,
            (i % 8) as u32,
            i,
            SimTime::from_ns(i as f64 * 12.0),
        ));
        id += 1;
    }
    for burst in 0..6u64 {
        for k in 0..30u64 {
            reqs.push(Request::new(
                id,
                MasterId(1),
                RequestKind::Write,
                ((burst + k) % 8) as u32,
                1000 + k,
                SimTime::from_ns(burst as f64 * 1000.0 + k as f64 * 2.0),
            ));
            id += 1;
        }
    }
    ctrl.simulate(reqs)
}

/// The adversarial FR-FCFS stream at `params`, horizon at its upper
/// bound, as the validation sweep and the oracle build it.
fn adversarial(params: &WcdParams) -> Vec<Request> {
    let (_, upper) = bounds(params).expect("finite bound");
    adversarial_wcd_workload(params, upper.delay_ns)
}

fn scenario(family: Family, i: u64) -> Scenario {
    Scenario::generate(family, &mut SimRng::seed_from(case_seed(7, family, i)))
}

const SCENARIOS: u64 = 16;

fn render_replays() -> String {
    let mut text = String::new();

    let out = fig5_replay();
    let figure: Vec<Switch> = fig5()
        .iter()
        .map(|e| {
            let to_write = u64::from(e.direction == "switch-to-write");
            let at = SimTime::from_ns(e.at_ns).as_ps();
            (at, to_write, e.write_queue_depth as u64)
        })
        .collect();
    assert_eq!(figure, switches(&out), "fig5() reports this replay");
    render_frfcfs("fig5", &out, &mut text);

    for n in 1..=24u32 {
        let params = WcdParams {
            timing: ddr3_1600(),
            config: ControllerConfig::paper(),
            writes: gbps_bucket(4.0, 8, 8),
            queue_position: n,
        };
        let out = validation_controller(&params).simulate(adversarial(&params));
        render_frfcfs(&format!("validation{n:02}"), &out, &mut text);
    }

    for i in 0..SCENARIOS {
        let Scenario::Dram(s) = scenario(Family::Dram, i) else {
            unreachable!("dram family")
        };
        let params = s.params();
        let out = validation_controller(&params).simulate(adversarial(&params));
        render_frfcfs(&format!("dram{i:02}"), &out, &mut text);
    }

    for i in 0..SCENARIOS {
        let Scenario::Dpq(s) = scenario(Family::Dpq, i) else {
            unreachable!("dpq family")
        };
        let arbiter = DpqArbiter::new(s.timing(), s.masters, s.masters);
        let out = arbiter.simulate(adversarial_dpq_workload(s.masters, s.depth));
        render_dpq(&format!("dpq{i:02}"), &out, &mut text);
    }

    for i in 0..SCENARIOS {
        let Scenario::Diff(s) = scenario(Family::Diff, i) else {
            unreachable!("diff family")
        };
        let params = s.dram.params();
        let workload = adversarial(&params);
        let fr = validation_controller(&params).simulate(workload.clone());
        render_frfcfs(&format!("diff{i:02}.frfcfs"), &fr, &mut text);
        let dpq = DpqArbiter::new(params.timing.clone(), 2, 2).simulate(workload);
        render_dpq(&format!("diff{i:02}.dpq"), &dpq, &mut text);
    }
    text
}

fn render_exports() -> String {
    let mut text = String::new();
    let mut m = MetricsRegistry::new();
    fig5_with_metrics(&mut m);
    writeln!(text, "export fig5 {}", m.to_json()).unwrap();
    let mut m = MetricsRegistry::new();
    validation_wcd_with_metrics(24, 4.0, &mut m);
    writeln!(text, "export validation {}", m.to_json()).unwrap();
    text
}

/// Compares `fresh` against the golden lines starting with `kind `.
fn assert_matches_golden(kind: &str, fresh: &str) {
    let path = format!(
        "{}/../../tests/golden/dram_replays.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let prefix = format!("{kind} ");
    let expected: Vec<&str> = golden.lines().filter(|l| l.starts_with(&prefix)).collect();
    let actual: Vec<&str> = fresh.lines().collect();
    for (e, a) in expected.iter().zip(&actual) {
        assert_eq!(a, e, "drifted from {path}");
    }
    assert_eq!(actual.len(), expected.len(), "{kind} line count drifted");
}

#[test]
fn exports_match_golden() {
    assert_matches_golden("export", &render_exports());
}

#[test]
fn replays_match_golden() {
    assert_matches_golden("replay", &render_replays());
}
