//! The benchmark's own checks: per-op work must not grow with workload
//! size, a corrupted expectation must surface as failed ops, and the
//! development and held-out seeds must have committed digests.

use autoplat_perfbench::trace::Tracer;
use autoplat_perfbench::workloads::{
    events_per_op, run, small_open_loop_events_per_job, Params, Workload, COSIM_HORIZON_US,
    FLEET_CLIENTS,
};
use autoplat_perfbench::{expected_digest, DEV_SEED, HELD_OUT_SEED};

/// Largest change of events per op allowed when a workload doubles.
const FLAT_TOLERANCE: f64 = 0.05;

fn drift(w: Workload, size: u64) -> f64 {
    let work = |size| events_per_op(w, DEV_SEED, size).expect("a workload with a size");
    let (one, two) = (work(size), work(2 * size));
    assert!(one > 0.0, "{} does no work at size {size}", w.name());
    println!(
        "{}: {one:.3} per op at size {size}, {two:.3} at {}",
        w.name(),
        2 * size
    );
    (two / one - 1.0).abs()
}

#[test]
fn cosim_qos_is_bounded() {
    let d = drift(Workload::CosimQos, COSIM_HORIZON_US as u64);
    assert!(d <= FLAT_TOLERANCE, "events per job drift {d:.3}");
}

#[test]
fn campaign_grid_is_bounded() {
    // 16 points are one arbiter's sub-grid; 32 add the other.
    let d = drift(Workload::CampaignGrid, 16);
    assert!(d <= FLAT_TOLERANCE, "events per point drift {d:.3}");
}

#[test]
fn fleet_admission_is_bounded() {
    let d = drift(Workload::FleetAdmission, u64::from(FLEET_CLIENTS));
    assert!(d <= FLAT_TOLERANCE, "deliveries per admission drift {d:.3}");
}

/// The guard must reject the open-loop `CoSimConfig::small`, whose
/// throttled core re-arms a `Resume` per job so its backlog never drains.
#[test]
fn guard_rejects_small_open_loop() {
    let one = small_open_loop_events_per_job(1000.0);
    let two = small_open_loop_events_per_job(2000.0);
    let d = (two / one - 1.0).abs();
    println!("small open loop: {one:.3} events per job at 1 ms, {two:.3} at 2 ms");
    assert!(
        d > FLAT_TOLERANCE,
        "open-loop drift {d:.3} passed the guard"
    );
}

#[test]
fn corrupted_expectation_fails_every_op() {
    let params = |expected| Params {
        seed: DEV_SEED,
        seconds: 1e-9,
        expected,
        measure_setup: false,
        traced: false,
    };
    let w = Workload::CosimQos;
    let good = run(w, &params(None), &mut Tracer::new(false));
    assert!(good.attempted > 0);
    assert_eq!(good.failed, 0);
    let digest = good.digest.expect("an op ran");
    let bad = run(w, &params(Some(digest ^ 1)), &mut Tracer::new(false));
    assert_eq!(bad.failed, bad.attempted, "error rate must be 1");
}

#[test]
fn dev_and_held_out_seeds_have_committed_digests() {
    for w in Workload::ALL {
        for seed in [DEV_SEED, HELD_OUT_SEED] {
            assert!(
                expected_digest(w, seed).is_some(),
                "{} seed {seed} has no committed digest",
                w.name()
            );
        }
    }
}
