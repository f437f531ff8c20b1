//! Determinism gate for the observability layer: two runs of the same
//! seeded faulty scenario must export **byte-identical** metrics, both
//! as JSON and as CSV. This pins down every determinism property the
//! registry relies on — seeded fault injection, `BTreeMap` metric
//! storage, stable float formatting — in one end-to-end assertion.

use autoplat_admission::app::{AppId, Application};
use autoplat_admission::modes::SymmetricPolicy;
use autoplat_admission::rm::WatchdogConfig;
use autoplat_admission::simulation::{Scenario, ScenarioEvent};
use autoplat_sim::metrics::{validate_csv_export, validate_json_export, MetricsRegistry};
use autoplat_sim::FaultPlan;

fn be(id: u32, node: u32) -> Application {
    Application::best_effort(AppId(id), node)
}

/// A lossy scenario exercising drops, delays, duplicates and a client
/// crash, exported through the shared metrics registry.
fn export_run(seed: u64) -> (String, String) {
    let plan = FaultPlan::new().drop_nth("confMsg", 0);
    let out = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
        .event(0, ScenarioEvent::Activate(be(0, 0)))
        .event(4_000, ScenarioEvent::Activate(be(1, 3)))
        .event(4_050, ScenarioEvent::Crash(AppId(1)))
        .horizon(12_000)
        .watchdog(WatchdogConfig {
            timeout_cycles: 2_000,
            quarantine_threshold: 3,
            quarantine_cooldown_cycles: 10_000,
        })
        .faults(plan, seed)
        .run();
    let mut m = MetricsRegistry::new();
    out.publish_metrics(&mut m);
    (m.to_json(), m.to_csv())
}

#[test]
fn seeded_fault_runs_export_byte_identical_metrics() {
    let (json_a, csv_a) = export_run(77);
    let (json_b, csv_b) = export_run(77);
    assert_eq!(json_a, json_b, "JSON export must be byte-identical");
    assert_eq!(csv_a, csv_b, "CSV export must be byte-identical");
    validate_json_export(&json_a).expect("export obeys the schema");
    validate_csv_export(&csv_a).expect("export obeys the CSV schema");
}

#[test]
fn different_seeds_still_obey_the_schema() {
    let (json_a, _) = export_run(1);
    let (json_b, _) = export_run(2);
    validate_json_export(&json_a).expect("seed 1 validates");
    validate_json_export(&json_b).expect("seed 2 validates");
    // Sanity: a faulty run actually recorded fault activity, so the
    // byte-identity above is not vacuous.
    let back = MetricsRegistry::counters_and_gauges_from_json(&json_a).expect("import");
    assert!(back.counter("admission.recovery.faults_injected") > 0);
}

#[test]
fn merged_shards_export_deterministically() {
    // Parallel-run combine: merging per-seed shard registries in any
    // order must export the same counters (gauges are last-write-wins,
    // so shard order is part of the contract and held fixed here).
    let registry_for = |seed| {
        let plan = FaultPlan::new().drop_nth("confMsg", 0);
        let out = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .horizon(6_000)
            .faults(plan, seed)
            .run();
        let mut m = MetricsRegistry::new();
        out.publish_metrics(&mut m);
        m
    };
    let (a, b) = (registry_for(10), registry_for(20));
    let mut left = MetricsRegistry::new();
    left.merge(&a);
    left.merge(&b);
    let mut again = MetricsRegistry::new();
    again.merge(&a);
    again.merge(&b);
    assert_eq!(left.to_json(), again.to_json());
    validate_json_export(&left.to_json()).expect("merged export validates");
}
