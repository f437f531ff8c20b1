//! Acceptance scenario for the fault-tolerance layer: a scripted fault
//! plan drops the first `confMsg`, and a scripted event crashes one client
//! mid-transition.
//! The scenario must complete without deadlock, the RM must reclaim the
//! dead client's bandwidth within the watchdog timeout, survivors must
//! keep rates at least as good as their pre-fault guarantees, and the
//! whole run must be bit-identical across two runs with the same fault
//! seed.

use autoplat_admission::app::{AppId, Application};
use autoplat_admission::modes::SymmetricPolicy;
use autoplat_admission::rm::WatchdogConfig;
use autoplat_admission::simulation::{Scenario, ScenarioEvent, ScenarioOutcome};
use autoplat_sim::FaultPlan;

const WATCHDOG_TIMEOUT: u64 = 2_000;
const CRASH_AT: u64 = 4_050;

fn be(id: u32, node: u32) -> Application {
    Application::best_effort(AppId(id), node)
}

/// App 0 runs alone, app 1 joins at cycle 4000 (a mode transition whose
/// stop/conf round is in flight when app 1's client, on node 3, crashes
/// at 4050); on top, the very first `confMsg` of the run is dropped. The
/// `Terminate` of an unknown app at cycle 9000 is a no-op that only
/// introduces an observation boundary, so the final interval is purely
/// post-recovery.
fn acceptance_run(seed: u64) -> ScenarioOutcome {
    let plan = FaultPlan::new().drop_nth("confMsg", 0);
    Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
        .event(0, ScenarioEvent::Activate(be(0, 0)))
        .event(4_000, ScenarioEvent::Activate(be(1, 3)))
        .event(CRASH_AT, ScenarioEvent::Crash(AppId(1)))
        .event(9_000, ScenarioEvent::Terminate(AppId(9)))
        .horizon(16_000)
        .watchdog(WatchdogConfig {
            timeout_cycles: WATCHDOG_TIMEOUT,
            quarantine_threshold: 3,
            quarantine_cooldown_cycles: 10_000,
        })
        .faults(plan, seed)
        .run()
}

#[test]
fn completes_without_deadlock_and_retries_the_dropped_conf() {
    let out = acceptance_run(2024);
    // Returning at all is the deadlock-freedom half; the dropped conf
    // must have been retransmitted rather than lost forever.
    assert_eq!(out.recovery.messages_dropped, 1);
    assert!(
        out.recovery.conf_retransmissions >= 1,
        "dropped confMsg was never retried: {:?}",
        out.recovery
    );
    assert_eq!(out.injected, out.delivered, "all traffic drains");
    assert!(out.injected > 0);
}

#[test]
fn watchdog_reclaims_the_crashed_client_within_timeout() {
    let out = acceptance_run(2024);
    assert_eq!(out.recovery.reclamations, 1, "{:?}", out.recovery);
    // The observation boundary at 9000 sits past crash + watchdog
    // timeout (+ heartbeat slack); by then the reclamation must have
    // forced the system back to mode 1.
    let post_recovery: Vec<_> = out
        .observations
        .iter()
        .filter(|o| o.from_cycle >= 9_000 && o.app == AppId(0))
        .collect();
    assert!(!post_recovery.is_empty());
    assert!(
        post_recovery.iter().all(|o| o.mode == 1),
        "bandwidth not reclaimed: {post_recovery:?}"
    );
    assert!(
        out.recovery.reconverged_at_cycle.is_some(),
        "{:?}",
        out.recovery
    );
}

#[test]
fn survivors_keep_their_pre_fault_guarantees() {
    let out = acceptance_run(2024);
    let app0: Vec<_> = out
        .observations
        .iter()
        .filter(|o| o.app == AppId(0))
        .collect();
    // [0, 4000) is the pre-fault mode-1 interval (minus the admission
    // handshake); [9000, 16000) is fully post-recovery and must sustain
    // at least the same rate.
    let pre_fault = app0.first().expect("pre-fault interval").observed_rate;
    let recovered = app0.last().expect("post-recovery interval").observed_rate;
    assert!(
        recovered >= pre_fault,
        "survivor degraded: {pre_fault} -> {recovered}"
    );
}

#[test]
fn same_fault_seed_is_bit_identical() {
    let (a, b) = (acceptance_run(7), acceptance_run(7));
    assert_eq!(a.observations, b.observations);
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.protocol_messages, b.protocol_messages);
    // And a different seed is allowed to differ (it will: probabilistic
    // tie-breaking does not exist, but fault timing does not change, so
    // scripted-only plans actually agree across seeds; assert equality
    // of the *fault count* only).
    let c = acceptance_run(8);
    assert_eq!(c.recovery.messages_dropped, 1);
}
