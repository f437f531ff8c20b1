//! Golden behaviour of the ideal control plane: seeded `Scenario`s with
//! no fault plan and no crash or hang event, so they run `run_ideal`.
//!
//! `tests/golden/admission_outcomes.txt` pins only lossy scenarios. This
//! file pins the instantaneous path, both of its reconfiguration rounds
//! (admission and termination) included: `tests/golden/scenario_ideal.txt`
//! holds, per case, one `obs` line per interval observation (rate as
//! bits) and one `sum` line with the injected and delivered packet
//! counts, the mean latency (as bits), the rejected apps and the protocol
//! message count.
//!
//! Cases rotate through `SymmetricPolicy`, `WeightedPolicy` with a
//! best-effort floor of 0 and `WeightedPolicy` with a floor above 0.
//! Each activates 3–6 apps on distinct nodes (some critical), then a
//! critical app whose guarantee alone exceeds the capacity (refused by
//! the weighted policy), then terminates apps, terminates the refused app
//! and one app twice (both no-ops), re-activates a terminated app, and
//! every fourth case terminates every app. Some events share a cycle.
//!
//! It was written once and is never regenerated.

use std::fmt::Write;

use autoplat_admission::modes::{RatePolicy, SymmetricPolicy, WeightedPolicy};
use autoplat_admission::simulation::{Scenario, ScenarioEvent, ScenarioOutcome};
use autoplat_admission::{AppId, Application};

/// splitmix64: a fixed generator, so the cases never depend on the
/// workspace's own RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const CASES: u64 = 12;

/// The scripted part of ideal case `k`, whatever its policy.
struct IdealCase {
    events: Vec<(u64, ScenarioEvent)>,
    flits: u32,
    horizon: u64,
}

impl IdealCase {
    fn new(k: u64, capacity_milli: u64, rng: &mut SplitMix) -> Self {
        let flits = 2 + rng.below(3) as u32;
        let n = 3 + rng.below(4) as u32;
        // Distinct nodes of the 4×4 mesh, node 15 (the sink) excluded.
        let mut nodes: Vec<u32> = (0..15).collect();
        for i in (1..nodes.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            nodes.swap(i, j);
        }
        let apps: Vec<Application> = (0..=n)
            .map(|i| {
                let (id, node) = (AppId(i), nodes[i as usize]);
                if i == n {
                    // Its guarantee alone exceeds the capacity.
                    Application::critical(id, node, (capacity_milli + 1 + rng.below(20)) as u32)
                } else if rng.below(2) == 0 {
                    Application::critical(id, node, (5 + rng.below(capacity_milli / 4)) as u32)
                } else {
                    Application::best_effort(id, node)
                }
            })
            .collect();

        let mut events = Vec::new();
        let mut at = 0u64;
        let mut step = |rng: &mut SplitMix| {
            // One gap in five is zero: two events on one cycle.
            if rng.below(5) > 0 {
                at += 1_500 + rng.below(2_500);
            }
            at
        };
        for app in &apps {
            let cycle = if app.id.0 == 0 { 0 } else { step(rng) };
            events.push((cycle, ScenarioEvent::Activate(*app)));
        }
        let first = AppId(rng.below(u64::from(n)) as u32);
        let second = AppId((first.0 + 1 + rng.below(u64::from(n) - 1) as u32) % n);
        events.push((step(rng), ScenarioEvent::Terminate(first)));
        events.push((step(rng), ScenarioEvent::Terminate(AppId(n))));
        events.push((step(rng), ScenarioEvent::Terminate(second)));
        events.push((step(rng), ScenarioEvent::Terminate(second)));
        events.push((step(rng), ScenarioEvent::Activate(apps[first.0 as usize])));
        if k % 4 == 3 {
            for i in 0..n {
                events.push((step(rng), ScenarioEvent::Terminate(AppId(i))));
            }
        }
        let horizon = at + 2_000 + rng.below(3_000);
        IdealCase {
            events,
            flits,
            horizon,
        }
    }

    fn run<P: RatePolicy>(&self, scenario: Scenario<P>) -> ScenarioOutcome {
        self.events
            .iter()
            .fold(scenario, |s, &(cycle, event)| s.event(cycle, event))
            .flits_per_packet(self.flits)
            .horizon(self.horizon)
            .run()
    }
}

/// Runs ideal case `k` and returns its policy label and outcome.
fn ideal_case(k: u64) -> (String, ScenarioOutcome) {
    let mut rng = SplitMix(0x1dea_1000 + k);
    let capacity_milli = 60 + rng.below(100);
    let capacity = capacity_milli as f64 / 1000.0;
    let burst = (1 + rng.below(8)) as f64;
    let case = IdealCase::new(k, capacity_milli, &mut rng);
    match k % 3 {
        0 => (
            format!("sym/{capacity_milli}"),
            case.run(Scenario::new(SymmetricPolicy::new(capacity, burst), 4, 4)),
        ),
        kind => {
            let floor = if kind == 1 {
                0.0
            } else {
                (1 + rng.below(5)) as f64 / 1000.0
            };
            let policy = WeightedPolicy::new(capacity, burst, floor);
            (
                format!("wtd/{capacity_milli}/{floor}"),
                case.run(Scenario::new(policy, 4, 4)),
            )
        }
    }
}

fn render(name: &str, policy: &str, o: &ScenarioOutcome, text: &mut String) {
    for obs in &o.observations {
        writeln!(
            text,
            "ideal {name} obs {} {}..{} m{} p{} {:016x}",
            obs.app.0,
            obs.from_cycle,
            obs.to_cycle,
            obs.mode,
            obs.packets,
            obs.observed_rate.to_bits()
        )
        .unwrap();
    }
    let rejected: Vec<String> = o.rejected.iter().map(|a| a.0.to_string()).collect();
    writeln!(
        text,
        "ideal {name} sum {policy} inj={} del={} lat={:016x} rej=[{}] msgs={} obs={}",
        o.injected,
        o.delivered,
        o.mean_latency_cycles.to_bits(),
        rejected.join(","),
        o.protocol_messages,
        o.observations.len(),
    )
    .unwrap();
}

#[test]
fn ideal_scenarios_match_golden() {
    let mut text = String::new();
    let (mut rejected, mut mode_drops, mut floors) = (0, 0, 0);
    for k in 0..CASES {
        let (policy, o) = ideal_case(k);
        rejected += o.rejected.len();
        floors += usize::from(policy.starts_with("wtd/") && !policy.ends_with("/0"));
        // A termination that changed the mode: some app's next interval
        // runs in a lower mode than its last one.
        for (i, a) in o.observations.iter().enumerate() {
            mode_drops += o.observations[i + 1..]
                .iter()
                .find(|b| b.app == a.app)
                .filter(|b| b.from_cycle == a.to_cycle && b.mode < a.mode)
                .map_or(0, |_| 1);
        }
        assert_eq!(o.injected, o.delivered, "case {k} did not drain");
        render(&format!("i{k:02}"), &policy, &o, &mut text);
    }
    assert!(rejected > 0, "no case refused an app");
    assert!(mode_drops > 0, "no termination lowered the mode");
    assert!(floors > 0, "no case had a best-effort floor above 0");

    let path = format!(
        "{}/../../tests/golden/scenario_ideal.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let expected: Vec<&str> = golden.lines().collect();
    let actual: Vec<&str> = text.lines().collect();
    for (e, a) in expected.iter().zip(&actual) {
        assert_eq!(a, e, "drifted from {path}");
    }
    assert_eq!(actual.len(), expected.len(), "line count drifted");
}
