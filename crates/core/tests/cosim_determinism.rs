//! Cross-layer determinism: the composed co-simulation is a pure function
//! of its configuration and seed. Two runs with the same seed and fault
//! plan must agree on every metric byte — any `HashMap` iteration order,
//! heap tie-break, or unseeded randomness anywhere in the five composed
//! layers would break this.

use autoplat_core::platform::{CoSim, CoSimConfig, ControlCommand};
use autoplat_sim::metrics::{validate_csv_export, validate_json_export};
use autoplat_sim::{FaultPlan, SimTime};

fn faulted_config(seed: u64) -> CoSimConfig {
    let mut cfg = CoSimConfig::small();
    cfg.seed = seed;
    cfg.fault_plan = FaultPlan::new()
        .drop_probability(0.2)
        .delay_probability(0.3)
        .duplicate_probability(0.2)
        .max_delay_cycles(700);
    cfg.controls = vec![
        (
            SimTime::from_us(5.0),
            ControlCommand::SetBudget {
                core: 2,
                bytes_per_period: 2048,
            },
        ),
        (
            SimTime::from_us(12.0),
            ControlCommand::SetBudget {
                core: 2,
                bytes_per_period: 192,
            },
        ),
        (SimTime::from_us(20.0), ControlCommand::StopTask { task: 1 }),
    ];
    cfg
}

#[test]
fn same_seed_and_fault_plan_export_byte_identical_metrics() {
    let a = CoSim::new(faulted_config(42)).run();
    let b = CoSim::new(faulted_config(42)).run();

    let json_a = a.metrics.to_json();
    let json_b = b.metrics.to_json();
    validate_json_export(&json_a).expect("export matches autoplat.metrics.v1");
    assert_eq!(json_a, json_b, "JSON export must be byte-identical");

    let csv_a = a.metrics.to_csv();
    let csv_b = b.metrics.to_csv();
    validate_csv_export(&csv_a).expect("CSV export matches the schema");
    assert_eq!(csv_a, csv_b, "CSV export must be byte-identical");

    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(a.events_delivered, b.events_delivered);
    assert_eq!(a.packets_delivered, b.packets_delivered);
}

#[test]
fn different_seeds_diverge_under_probabilistic_faults() {
    let a = CoSim::new(faulted_config(1)).run();
    let b = CoSim::new(faulted_config(2)).run();
    // The fault plan is probabilistic, so different seeds must produce
    // observably different runs (addresses and fault draws both differ).
    assert_ne!(
        a.metrics.to_json(),
        b.metrics.to_json(),
        "distinct seeds should not collide byte-for-byte"
    );
}

/// Byte-compares a run's JSON export against a committed golden file.
/// Unlike the double-run tests above, this catches an export that changes
/// between commits: key set, counts, and fault redelivery behaviour.
fn assert_matches_golden(cfg: CoSimConfig, name: &str) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let json = CoSim::new(cfg).run().metrics.to_json();
    assert!(json == golden, "co-sim export drifted from {path}:\n{json}");
}

#[test]
fn exports_match_the_golden_files() {
    assert_matches_golden(CoSimConfig::small(), "cosim_small.json");
    assert_matches_golden(CoSimConfig::small_qos(), "cosim_small_qos.json");
    assert_matches_golden(faulted_config(42), "cosim_faulted.json");
}

#[test]
fn fault_free_runs_are_also_deterministic() {
    let mut cfg = CoSimConfig::small();
    cfg.seed = 7;
    let a = CoSim::new(cfg.clone()).run();
    let b = CoSim::new(cfg).run();
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    assert_eq!(a.deadline_misses(), b.deadline_misses());
}
