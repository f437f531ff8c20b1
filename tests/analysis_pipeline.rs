//! Integration test: the full analysis pipeline — feeding a writer's
//! envelope into the WCD analysis, extracting the service curve,
//! composing it with the NoC, and checking a contract — all the way
//! across `core`, `dram`, `netcalc` and `admission`.

use autoplat_admission::e2e::{delay_bound_exact, noc_path_curve, ResourceChain};
use autoplat_core::qos::QosContract;
use autoplat_dram::service_curve::{rate_latency_abstraction, read_service_curve};
use autoplat_dram::timing::presets::ddr3_1600;
use autoplat_dram::wcd::WcdParams;
use autoplat_dram::ControllerConfig;
use autoplat_netcalc::TokenBucket;

/// Use a paced writer's envelope as the DRAM write interference, and
/// bound a critical reader end to end.
#[test]
fn profile_to_guarantee_pipeline() {
    // 1. The best-effort writer's stated envelope: one write per 100 ns
    //    sustained, a burst of one.
    let writer = TokenBucket::new(1.0, 0.01);

    // 2. Feed the envelope into the §IV-A analysis.
    let params = WcdParams {
        timing: ddr3_1600(),
        config: ControllerConfig::paper(),
        writes: writer,
        queue_position: 1,
    };
    let dram_curve = read_service_curve(&params, 32).expect("paced writer is analyzable");
    let dram_rl = rate_latency_abstraction(&params, 32).expect("analyzable");

    // 3. Compose with a regulated NoC path and bound the critical reader.
    let reader = TokenBucket::new(4.0, 0.004);
    let noc = noc_path_curve(6, 2, 1.0, 1.0);
    let exact = delay_bound_exact(&reader, &[noc.to_curve(), dram_curve]).expect("stable");
    let abstracted = ResourceChain::new()
        .stage("noc", noc)
        .stage("dram", dram_rl)
        .delay_bound(&reader)
        .expect("stable");
    assert!(
        exact <= abstracted + 1e-9,
        "exact {exact} vs abstracted {abstracted}"
    );

    // 4. A contract set at the exact bound is guaranteed via the
    //    abstraction only if the abstraction also meets it; the exact
    //    route always certifies itself.
    let contract = QosContract::new(0).with_max_latency_ns(exact + 1.0);
    let chain = ResourceChain::new()
        .stage("noc", noc)
        .stage("dram", dram_rl);
    // The abstracted bound may exceed the exact-based contract...
    let _ = contract.guaranteed_by(&reader, &chain);
    // ...but a contract at the abstracted bound is always certified.
    let loose = QosContract::new(0).with_max_latency_ns(abstracted + 1.0);
    assert!(loose.guaranteed_by(&reader, &chain));
}

/// The controller design tooling closes the loop: pick a configuration
/// for a target, then verify the target via the service curve it yields.
#[test]
fn design_choice_is_self_consistent() {
    use autoplat_dram::design::choose_config;
    let base = WcdParams {
        timing: ddr3_1600(),
        config: ControllerConfig::paper(),
        writes: autoplat_netcalc::arrival::gbps_bucket(5.0, 8, 8),
        queue_position: 16,
    };
    let target = 3000.0;
    let (cfg, wcd) = choose_config(&base, target, &[8, 16, 32], &[4, 8, 16]).expect("achievable");
    assert!(wcd <= target);
    // The chosen configuration's service curve serves 16 requests within
    // the target.
    let curve = read_service_curve(
        &WcdParams {
            config: cfg,
            ..base
        },
        16,
    )
    .expect("stable");
    let t16 = curve.inverse(16.0).expect("reaches 16");
    assert!(t16 <= target + 1e-6, "curve serves 16 by {t16}");
}
