//! Integration test: the full §V pipeline — admission control, rate
//! regulation, network-calculus guarantees, and simulated behaviour —
//! across the `admission`, `netcalc`, `noc`, `dram` and `core` crates.

use autoplat_admission::app::{AppId, Application};
use autoplat_admission::client::{Client, TransmitDecision};
use autoplat_admission::e2e::{noc_path_curve, ResourceChain};
use autoplat_admission::modes::{RatePolicy, WeightedPolicy};
use autoplat_admission::rm::ResourceManager;
use autoplat_core::qos::QosContract;
use autoplat_dram::service_curve::rate_latency_abstraction;
use autoplat_dram::timing::presets::ddr3_1600;
use autoplat_dram::wcd::WcdParams;
use autoplat_dram::ControllerConfig;
use autoplat_netcalc::arrival::gbps_bucket;
use autoplat_netcalc::conformance::first_violation;
use autoplat_noc::{NocConfig, NocSim, NodeId, Packet};
use autoplat_sim::SimTime;

fn dram_stage() -> autoplat_netcalc::RateLatency {
    rate_latency_abstraction(
        &WcdParams {
            timing: ddr3_1600(),
            config: ControllerConfig::paper(),
            writes: gbps_bucket(4.0, 8, 8),
            queue_position: 1,
        },
        32,
    )
    .expect("DDR3 at 4 Gbps writes is stable")
}

#[test]
fn admitted_flows_have_finite_guarantees() {
    let mut rm = ResourceManager::new(WeightedPolicy::new(0.05, 4.0, 0.001), 250.0);
    let apps = [
        Application::critical(AppId(0), 0, 20),
        Application::best_effort(AppId(1), 3),
        Application::best_effort(AppId(2), 12),
    ];
    let mut rates = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        let out = rm.request_admission(*app, SimTime::from_us(i as f64));
        assert!(out.admitted, "{} must be admitted", app.id);
        rates = out.rates;
    }
    let chain = ResourceChain::new()
        .stage("noc", noc_path_curve(6, 2, 1.0, 1.0))
        .stage("dram", dram_stage());
    for (app, tb) in &rates {
        let bound = chain
            .delay_bound(tb)
            .unwrap_or_else(|| panic!("{app} must be stable at its admitted rate"));
        assert!(bound.is_finite() && bound > 0.0);
        // The contract machinery agrees.
        let contract = QosContract::new(app.0 as usize).with_max_latency_ns(bound + 1.0);
        assert!(contract.guaranteed_by(tb, &chain));
    }
}

#[test]
fn critical_guarantee_survives_mode_changes() {
    // The weighted policy's whole point: the critical app's rate (and
    // hence its E2E bound) must not degrade as best-effort apps join.
    let mut rm = ResourceManager::new(WeightedPolicy::new(0.05, 4.0, 0.001), 250.0);
    let chain = ResourceChain::new()
        .stage("noc", noc_path_curve(4, 2, 1.0, 1.0))
        .stage("dram", dram_stage());
    let critical = Application::critical(AppId(0), 0, 20);
    let out = rm.request_admission(critical, SimTime::ZERO);
    let first_bound = chain
        .delay_bound(&out.rates[0].1)
        .expect("critical flow stable");
    for i in 1..6u32 {
        let out = rm.request_admission(
            Application::best_effort(AppId(i), i),
            SimTime::from_us(i as f64),
        );
        assert!(out.admitted);
        let critical_rate = out
            .rates
            .iter()
            .find(|(id, _)| *id == AppId(0))
            .expect("critical stays active")
            .1;
        let bound = chain.delay_bound(&critical_rate).expect("still stable");
        assert!(
            (bound - first_bound).abs() < 1e-9,
            "critical bound changed: {first_bound} -> {bound}"
        );
    }
}

#[test]
fn regulated_injection_is_contract_conformant_and_drains() {
    // The client-side regulation produces traffic that (a) conforms to
    // the admitted token bucket and (b) the NoC delivers completely.
    let policy = WeightedPolicy::new(0.05, 4.0, 0.001);
    let apps = [
        Application::critical(AppId(0), 0, 20),
        Application::best_effort(AppId(1), 15),
    ];
    let contract = policy.contracts(&apps).expect("feasible")[0].1.scale(4.0); // requests/ns -> flits/cycle for 4-flit packets
    let mut client = Client::new(AppId(0), 0);
    client.on_config(0, contract);
    let mut noc = NocSim::new(NocConfig::new(4, 4));
    let mut trace = Vec::new();
    let mut now = 0u64;
    for i in 0..60u64 {
        now = match client.request_transmit(now, 4.0) {
            TransmitDecision::ReleaseAt(at) => at,
            other => panic!("an admitted client must release, got {other:?}"),
        };
        trace.push((now as f64, 4.0));
        noc.inject(Packet::new(i, NodeId(0), NodeId(15), 4), now);
    }
    let tb = policy.contracts(&apps).expect("feasible")[0].1.scale(4.0);
    assert_eq!(
        first_violation(&tb, &trace),
        None,
        "client regulation must produce conformant traffic"
    );
    assert!(noc.run_until_idle(10_000_000));
    assert_eq!(noc.completed().len(), 60);
}

#[test]
fn rejected_apps_leave_guarantees_intact() {
    let mut rm = ResourceManager::new(WeightedPolicy::new(0.03, 4.0, 0.0), 100.0);
    let a = rm.request_admission(Application::critical(AppId(0), 0, 25), SimTime::ZERO);
    assert!(a.admitted);
    let overload = rm.request_admission(
        Application::critical(AppId(1), 1, 25),
        SimTime::from_us(1.0),
    );
    assert!(!overload.admitted, "0.05 > 0.03 capacity");
    // The surviving configuration still has the first app at full rate.
    assert_eq!(rm.active().len(), 1);
    let chain = ResourceChain::new()
        .stage("noc", noc_path_curve(2, 1, 1.0, 1.0))
        .stage("dram", dram_stage());
    let rate = autoplat_netcalc::TokenBucket::new(4.0, 0.01);
    assert!(chain.delay_bound(&rate).is_some());
}
