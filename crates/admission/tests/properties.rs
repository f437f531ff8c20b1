//! Property-based tests for the admission-control layer.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use autoplat_admission::app::{AppId, Application};
use autoplat_admission::client::{Client, RetryPolicy, TransmitDecision};
use autoplat_admission::control_plane::ControlPlane;
use autoplat_admission::e2e::ResourceChain;
use autoplat_admission::modes::{RatePolicy, SymmetricPolicy, WeightedPolicy};
use autoplat_admission::protocol::{ControlMessage, Endpoint, Envelope, ReceiveState};
use autoplat_admission::rm::{ResourceManager, WatchdogConfig};
use autoplat_admission::simulation::{Scenario, ScenarioEvent};
use autoplat_netcalc::conformance::first_violation;
use autoplat_netcalc::{RateLatency, TokenBucket};
use autoplat_sim::{FaultInjector, FaultPlan, MessageFault, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn symmetric_rates_sum_to_capacity(capacity_milli in 100u32..5000, n in 1usize..16) {
        let capacity = capacity_milli as f64 / 1000.0;
        let policy = SymmetricPolicy::new(capacity, 4.0);
        let active: Vec<Application> =
            (0..n as u32).map(|i| Application::best_effort(AppId(i), i)).collect();
        let total: f64 = policy
            .contracts(&active)
            .expect("symmetric")
            .iter()
            .map(|(_, tb)| tb.rate())
            .sum();
        prop_assert!((total - capacity).abs() < 1e-9);
    }

    #[test]
    fn weighted_policy_never_overcommits(
        capacity_milli in 500u32..3000,
        criticals in proptest::collection::vec(1u32..800, 0..4),
        best_effort in 0usize..5,
    ) {
        let capacity = capacity_milli as f64 / 1000.0;
        let policy = WeightedPolicy::new(capacity, 4.0, 0.0);
        let mut active: Vec<Application> = criticals
            .iter()
            .enumerate()
            .map(|(i, &g)| Application::critical(AppId(i as u32), i as u32, g))
            .collect();
        for k in 0..best_effort {
            let id = (criticals.len() + k) as u32;
            active.push(Application::best_effort(AppId(id), id));
        }
        if active.is_empty() {
            return Ok(());
        }
        match policy.contracts(&active) {
            Some(cs) => {
                let total: f64 = cs.iter().map(|(_, tb)| tb.rate()).sum();
                prop_assert!(total <= capacity + 1e-9, "{total} > {capacity}");
                // Critical apps get exactly their guarantee.
                for (a, (_, c)) in active.iter().zip(&cs) {
                    if a.importance.is_critical() {
                        prop_assert!((c.rate() - a.importance.guaranteed_rate()).abs() < 1e-12);
                    }
                }
            }
            None => {
                // Refusal only when guarantees alone are infeasible.
                let guaranteed: f64 =
                    active.iter().map(|a| a.importance.guaranteed_rate()).sum();
                prop_assert!(guaranteed > capacity - 1e-9);
            }
        }
    }

    #[test]
    fn rm_mode_always_equals_active_count(
        ops in proptest::collection::vec((any::<bool>(), 0u32..8), 1..40),
    ) {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 4.0), 50.0);
        let mut expected: std::collections::BTreeSet<u32> = Default::default();
        let mut t = 0.0;
        for &(admit, id) in &ops {
            t += 100.0;
            if admit {
                if !expected.contains(&id) {
                    let out = rm.request_admission(
                        Application::best_effort(AppId(id), id),
                        SimTime::from_ns(t),
                    );
                    prop_assert!(out.admitted, "symmetric policy admits everyone");
                    expected.insert(id);
                }
            } else {
                rm.terminate(AppId(id), SimTime::from_ns(t));
                expected.remove(&id);
            }
            prop_assert_eq!(rm.mode().0, expected.len());
            prop_assert_eq!(rm.active().len(), expected.len());
        }
    }

    /// After any sequence of admissions and terminations, under either
    /// policy, the rates each call returns are the policy's contracts for
    /// the active set the call leaves behind; a termination of an app that
    /// is not active runs no round and returns none.
    #[test]
    fn returned_rates_are_the_policys_contracts_for_the_active_set(
        ops in proptest::collection::vec((any::<bool>(), 0u32..8, 0u32..600), 1..40),
        floor_milli in 0u32..3,
    ) {
        let symmetric = ResourceManager::new(SymmetricPolicy::new(1.0, 4.0), 50.0);
        check_returned_rates(symmetric, &ops)?;
        let floor = f64::from(floor_milli) / 100.0;
        let weighted = ResourceManager::new(WeightedPolicy::new(1.0, 4.0, floor), 50.0);
        check_returned_rates(weighted, &ops)?;
    }

    #[test]
    fn rm_protocol_pairs_stop_with_config(
        admissions in 1usize..10,
    ) {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 4.0), 100.0);
        for i in 0..admissions as u32 {
            let _ = rm.request_admission(
                Application::best_effort(AppId(i), i),
                SimTime::from_ns(i as f64 * 10.0),
            );
        }
        prop_assert_eq!(rm.log().count("stopMsg"), rm.log().count("confMsg"));
        prop_assert_eq!(rm.log().count("actMsg"), admissions);
        // Round k stops k clients: total = 1 + 2 + ... + n.
        prop_assert_eq!(
            rm.log().count("stopMsg"),
            admissions * (admissions + 1) / 2
        );
    }

    #[test]
    fn e2e_bound_tighter_than_hop_by_hop(
        burst in 0.0f64..32.0,
        rate_milli in 1u32..40,
        stages in proptest::collection::vec((50u32..2000, 0u32..2000), 1..5),
    ) {
        let flow = TokenBucket::new(burst, rate_milli as f64 / 1000.0);
        let mut chain = ResourceChain::new();
        for (i, &(rate_milli, lat)) in stages.iter().enumerate() {
            chain = chain.stage(
                format!("s{i}"),
                RateLatency::new(rate_milli as f64 / 1000.0, lat as f64),
            );
        }
        match (chain.delay_bound(&flow), chain.delay_bound_hop_by_hop(&flow)) {
            (Some(e2e), Some(hbh)) => prop_assert!(e2e <= hbh + 1e-6, "{e2e} > {hbh}"),
            (None, None) => {}
            // Hop-by-hop can be unstable where the convolved view is not?
            // No: both require flow.rate <= min stage rate. Disagreement
            // is a bug.
            other => prop_assert!(false, "stability disagreement: {other:?}"),
        }
    }

    /// Every phase installs a fresh contract and sends fractional
    /// amounts, each clamped to the phase's burst: the released trace
    /// conforms to the phase's contract despite integer-cycle rounding.
    #[test]
    fn client_traffic_conformant_after_any_reconfig_sequence(
        phases in proptest::collection::vec(
            (1.0f64..32.0, 1u32..1000, proptest::collection::vec(0.1f64..4.0, 1..40)),
            1..6,
        ),
    ) {
        let mut client = Client::new(AppId(0), 0);
        let _ = client.request_transmit(0, 1.0); // trap
        let mut now = 0u64;
        for (burst, rate_milli, amounts) in &phases {
            let contract = TokenBucket::new(*burst, *rate_milli as f64 / 1000.0);
            client.on_config(now, contract);
            let mut trace = Vec::new();
            for &a in amounts {
                let amount = a.min(*burst);
                match client.request_transmit(now, amount) {
                    TransmitDecision::ReleaseAt(t) => {
                        trace.push((t as f64, amount));
                        now = t;
                    }
                    other => prop_assert!(false, "active client refused: {other:?}"),
                }
            }
            prop_assert_eq!(first_violation(&contract, &trace), None);
            client.on_stop();
        }
    }

    /// One contract, fractional amounts clamped to its burst: every
    /// request is released, none trapped or blocked, and the trace
    /// conforms.
    #[test]
    fn shaped_output_always_conformant(
        burst in 1.0f64..32.0,
        rate_milli in 1u32..1000,
        amounts in proptest::collection::vec(0.1f64..4.0, 1..80),
    ) {
        let contract = TokenBucket::new(burst, rate_milli as f64 / 1000.0);
        let mut client = Client::new(AppId(0), 0);
        client.on_config(0, contract);
        let mut now = 0u64;
        let mut trace = Vec::new();
        for &a in &amounts {
            let amount = a.min(burst);
            now = release(&mut client, now, amount);
            trace.push((now as f64, amount));
        }
        prop_assert_eq!(first_violation(&contract, &trace), None);
        prop_assert_eq!((client.trapped(), client.blocked()), (0, 0));
    }

    /// `n` sends under one contract, then `on_config` to another and `n`
    /// more: the second trace conforms to the new contract, so credit
    /// earned under the old one never leaks across.
    #[test]
    fn shaper_reconfigure_preserves_conformance_to_new_contract(
        r1 in 1u32..500,
        r2 in 1u32..500,
        n in 1usize..30,
    ) {
        let c1 = TokenBucket::new(4.0, r1 as f64 / 1000.0);
        let c2 = TokenBucket::new(4.0, r2 as f64 / 1000.0);
        let mut client = Client::new(AppId(0), 0);
        client.on_config(0, c1);
        let mut now = 0u64;
        for _ in 0..n {
            now = release(&mut client, now, 1.0);
        }
        client.on_config(now, c2);
        let mut trace = Vec::new();
        for _ in 0..n {
            now = release(&mut client, now, 1.0);
            trace.push((now as f64, 1.0));
        }
        prop_assert_eq!(first_violation(&c2, &trace), None);
    }

    /// Whole-flit packets (1–3 flits, clamped to the burst) released at
    /// integer cycles: rounding only ever delays a release, so the
    /// integer trace conforms to the continuous contract.
    #[test]
    fn regulated_source_spacing_respects_rate(
        burst in 1.0f64..16.0,
        rate_milli in 1u32..500,
        sizes in proptest::collection::vec(1u32..4, 1..40),
    ) {
        let contract = TokenBucket::new(burst, rate_milli as f64 / 1000.0);
        let mut client = Client::new(AppId(0), 0);
        client.on_config(0, contract);
        let mut now = 0u64;
        let mut trace = Vec::new();
        for &flits in &sizes {
            let flits = f64::from(flits.min(burst as u32).max(1));
            now = release(&mut client, now, flits);
            trace.push((now as f64, flits));
        }
        prop_assert_eq!(first_violation(&contract, &trace), None);
    }

    /// Under an arbitrary storm of (possibly duplicated, reordered,
    /// nonsensical) control messages, the RM never admits the same
    /// application twice and the active set's rates never exceed the
    /// capacity.
    #[test]
    fn rm_never_double_admits_or_overcommits_under_message_storms(
        ops in proptest::collection::vec((0u8..5, 0u32..4, 0u64..6), 1..80),
    ) {
        let capacity = 1.0;
        let mut rm = ResourceManager::try_new(SymmetricPolicy::new(capacity, 8.0), 100.0)
            .expect("valid latency")
            .with_retry(RetryPolicy::new(64, 3));
        for n in 0..4u32 {
            rm.register(Application::best_effort(AppId(n), n));
        }
        let mut now = 0u64;
        for &(kind, app, seq) in &ops {
            now += 50;
            let message = match kind {
                0 => ControlMessage::Activation { app: AppId(app) },
                1 => ControlMessage::Termination { app: AppId(app) },
                2 => ControlMessage::Heartbeat { app: AppId(app) },
                3 => ControlMessage::Ack { app: AppId(app), of_seq: seq },
                _ => {
                    let _ = rm.poll(now);
                    continue;
                }
            };
            let envelope = Envelope {
                from: Endpoint::Client(AppId(app)),
                to: Endpoint::Rm,
                seq, // deliberately reused -> duplicates and reordering
                sent_at_cycle: now,
                message,
            };
            let _ = rm.receive_batch(&[envelope], now);
            let ids: Vec<AppId> = rm.active().iter().map(|a| a.id).collect();
            let unique: std::collections::BTreeSet<AppId> = ids.iter().copied().collect();
            prop_assert_eq!(ids.len(), unique.len(), "double admission");
            let total: f64 = rm
                .policy()
                .contracts(rm.active())
                .expect("symmetric policy always serves")
                .iter()
                .map(|(_, tb)| tb.rate())
                .sum();
            prop_assert!(total <= capacity + 1e-9, "overcommitted: {total}");
        }
    }
}

/// Runs `ops` (admit or terminate app `id`; a `demand` below 300 is best
/// effort, else critical at `demand - 300` milli) and checks each call's
/// returned rates against the policy.
fn check_returned_rates<P: RatePolicy>(
    mut rm: ResourceManager<P>,
    ops: &[(bool, u32, u32)],
) -> TestCaseResult {
    for (i, &(admit, id, demand)) in ops.iter().enumerate() {
        let now = SimTime::from_ns(100.0 * i as f64);
        let active = rm.active().iter().any(|a| a.id == AppId(id));
        let rates = match (admit, active) {
            // The instantaneous API leaves duplicates to its caller.
            (true, true) => continue,
            (true, false) => {
                let app = if demand < 300 {
                    Application::best_effort(AppId(id), id)
                } else {
                    Application::critical(AppId(id), id, demand - 300)
                };
                rm.request_admission(app, now).rates
            }
            (false, active) => {
                let rates = rm.terminate(AppId(id), now);
                if !active {
                    prop_assert!(rates.is_empty(), "no round, yet rates {rates:?}");
                    continue;
                }
                rates
            }
        };
        prop_assert_eq!(Some(rates), rm.policy().contracts(rm.active()));
    }
    Ok(())
}

/// Releases `amount` through an active client, returning the cycle.
fn release(client: &mut Client, now: u64, amount: f64) -> u64 {
    match client.request_transmit(now, amount) {
        TransmitDecision::ReleaseAt(t) => t,
        other => panic!("active client refused: {other:?}"),
    }
}

/// Regression pinned from `shaper_reconfigure_preserves_conformance_to_new_contract`
/// seed `cc 4ee39c27…` (shrunk to a
/// slow rate of 1, a fast rate of 11 per 1000 cycles and 5 sends per
/// phase): reconfiguring from a very slow contract to a faster one must
/// not let credit earned under the old contract leak into the new one —
/// the first releases after the reconfiguration once violated the new
/// bucket.
#[test]
fn regression_reconfigure_slow_to_fast_does_not_leak_credit() {
    let c1 = TokenBucket::new(4.0, 1.0 / 1000.0);
    let c2 = TokenBucket::new(4.0, 11.0 / 1000.0);
    let mut client = Client::new(AppId(0), 0);
    client.on_config(0, c1);
    let mut now = 0;
    for _ in 0..5 {
        now = release(&mut client, now, 1.0);
    }
    client.on_config(now, c2);
    let mut trace = Vec::new();
    for _ in 0..5 {
        now = release(&mut client, now, 1.0);
        trace.push((now as f64, 1.0));
    }
    assert_eq!(first_violation(&c2, &trace), None);
}

/// Regression pinned from `shaped_output_always_conformant` seed
/// `cc 97dc8192…` (shrunk to a
/// burst of 1, a rate of 1 per 1000 cycles and amounts `[0.6047…,
/// 3.1009…]`): a request larger than the remaining burst (clamped to the
/// burst size) at the slowest rate once produced a release that broke
/// bucket conformance by a rounding hair.
#[test]
fn regression_minimal_rate_near_burst_release_is_conformant() {
    let burst = 1.0;
    let contract = TokenBucket::new(burst, 1.0 / 1000.0);
    let mut client = Client::new(AppId(0), 0);
    client.on_config(0, contract);
    let mut now = 0;
    let mut trace = Vec::new();
    for a in [0.6047900955436639f64, 3.1009981262409743] {
        let amount = a.min(burst);
        now = release(&mut client, now, amount);
        trace.push((now as f64, amount));
    }
    assert_eq!(first_violation(&contract, &trace), None);
}

proptest! {
    // Full co-simulations are heavier than the pure-function properties
    // above; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any combination of scripted early-message faults ceases by
    /// construction; the protocol must then reconverge: nothing left in
    /// flight, nothing awaiting an ack, traffic flowing.
    #[test]
    fn scenario_reconverges_once_scripted_faults_cease(
        seed in any::<u64>(),
        drop_first_conf in any::<bool>(),
        drop_first_act in any::<bool>(),
        delay_act in any::<bool>(),
        dup_conf in any::<bool>(),
    ) {
        let mut plan = FaultPlan::new();
        if drop_first_conf {
            plan = plan.drop_nth("confMsg", 0);
        }
        if drop_first_act {
            plan = plan.drop_nth("actMsg", 0);
        }
        if delay_act {
            plan = plan.delay_nth("actMsg", 1, 350);
        }
        if dup_conf {
            plan = plan.duplicate_nth("confMsg", 1, 200);
        }
        let out = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(Application::best_effort(AppId(0), 0)))
            .event(3_000, ScenarioEvent::Activate(Application::best_effort(AppId(1), 3)))
            .horizon(12_000)
            .faults(plan, seed)
            .retry(RetryPolicy::new(200, 6))
            .try_run()
            .expect("valid scenario");
        let any_fault = drop_first_conf || drop_first_act || delay_act || dup_conf;
        if any_fault {
            // With no scripted fault the scenario takes the instantaneous
            // path and recovery metrics stay at their defaults.
            prop_assert!(
                out.recovery.reconverged_at_cycle.is_some(),
                "did not reconverge: {:?}",
                out.recovery
            );
        }
        prop_assert!(out.injected > 0, "no traffic after recovery");
        prop_assert_eq!(out.injected, out.delivered);
        // Aggregate observed rate in the final interval stays within the
        // configured capacity (0.5 req/cycle x 4 flits), plus burst slack.
        let last_from = out.observations.iter().map(|o| o.from_cycle).max().unwrap_or(0);
        let total_rate: f64 = out
            .observations
            .iter()
            .filter(|o| o.from_cycle == last_from)
            .map(|o| o.observed_rate)
            .sum();
        prop_assert!(total_rate <= 0.5 * 4.0 + 0.1, "overcommitted: {total_rate}");
    }

    /// Probabilistic loss, duplication and delay never deadlock the
    /// scenario or overcommit the platform, for any seed.
    #[test]
    fn scenario_survives_probabilistic_faults(
        seed in any::<u64>(),
        drop_p in 0.0f64..0.25,
        dup_p in 0.0f64..0.15,
        delay_p in 0.0f64..0.25,
    ) {
        let plan = FaultPlan::new()
            .drop_probability(drop_p)
            .duplicate_probability(dup_p)
            .delay_probability(delay_p)
            .max_delay_cycles(400);
        let out = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(Application::best_effort(AppId(0), 0)))
            .event(2_000, ScenarioEvent::Activate(Application::best_effort(AppId(1), 3)))
            .event(5_000, ScenarioEvent::Terminate(AppId(0)))
            .horizon(10_000)
            .faults(plan, seed)
            .watchdog(WatchdogConfig {
                timeout_cycles: 3_000,
                quarantine_threshold: 3,
                quarantine_cooldown_cycles: 5_000,
            })
            .try_run()
            .expect("valid scenario");
        // Completion itself is the deadlock-freedom property; on top of
        // it, everything injected must drain.
        prop_assert_eq!(out.injected, out.delivered);
        let last_from = out.observations.iter().map(|o| o.from_cycle).max().unwrap_or(0);
        let total_rate: f64 = out
            .observations
            .iter()
            .filter(|o| o.from_cycle == last_from)
            .map(|o| o.observed_rate)
            .sum();
        prop_assert!(total_rate <= 0.5 * 4.0 + 0.1, "overcommitted: {total_rate}");
    }
}

// ---------------------------------------------------------------------
// The control plane's ordered containers against plain reference models
// ---------------------------------------------------------------------

/// The message classes the link properties send, so scripted faults of
/// one class skip the messages of the others.
fn classed(class: u8, app: u32, seq: u64, now: u64) -> Envelope {
    let message = match class % 3 {
        0 => ControlMessage::Stop { app: AppId(app) },
        1 => ControlMessage::Heartbeat { app: AppId(app) },
        _ => ControlMessage::Ack {
            app: AppId(app),
            of_seq: seq,
        },
    };
    Envelope {
        from: Endpoint::Rm,
        to: Endpoint::Client(AppId(app)),
        seq,
        sent_at_cycle: now,
        message,
    }
}

/// A client-plane message from `app`.
fn from_client(app: u32, seq: u64, now: u64, message: ControlMessage) -> Envelope {
    Envelope {
        from: Endpoint::Client(AppId(app)),
        to: Endpoint::Rm,
        seq,
        sent_at_cycle: now,
        message,
    }
}

/// The retry backoff of the watchdog property: longer than any run, so
/// no `confMsg` is retransmitted and no retry deadline precedes a
/// watchdog deadline.
const NEVER_RETRY: u64 = 1 << 40;

proptest! {
    /// A `Link` delivers exactly what a `(deliver_cycle, send index)`
    /// B-tree fed by a twin injector of the same plan and seed delivers:
    /// sends at non-decreasing cycles under random drop, delay and
    /// duplicate probabilities and scripted `delay_nth` faults,
    /// interleaved with drains.
    #[test]
    fn link_delivers_like_a_btree_in_send_order(
        seed in any::<u64>(),
        latency in 0u64..20,
        drop_p in 0.0f64..0.3,
        delay_p in 0.0f64..0.4,
        dup_p in 0.0f64..0.3,
        max_delay in 1u64..60,
        scripted in proptest::collection::vec((0u8..3, 0u64..40, 1u64..80), 0..4),
        ops in proptest::collection::vec((0u8..4, 0u64..6, 0u8..3), 1..200),
    ) {
        let mut plan = FaultPlan::new()
            .drop_probability(drop_p)
            .delay_probability(delay_p)
            .duplicate_probability(dup_p)
            .max_delay_cycles(max_delay);
        for &(class, nth, extra) in &scripted {
            let name = classed(class, 0, 0, 0).message.name();
            plan = plan.delay_nth(name, nth, extra);
        }
        let mut link = ControlPlane::new(plan.clone(), seed, latency);
        let mut twin = FaultInjector::new(plan, seed);
        let mut model: BTreeMap<(u64, u64), Envelope> = BTreeMap::new();
        let mut copies = 0u64;
        let mut enqueue = |model: &mut BTreeMap<(u64, u64), Envelope>, at: u64, e: Envelope| {
            model.insert((at, copies), e);
            copies += 1;
        };
        let mut now = 0u64;
        let mut out = Vec::new();
        for (i, &(kind, dt, class)) in ops.iter().enumerate() {
            now += dt;
            if kind < 3 {
                let e = classed(class, i as u32, i as u64, now);
                link.send(now, e);
                let due = now + latency;
                match twin.on_message(now, e.message.name()) {
                    MessageFault::Deliver => enqueue(&mut model, due, e),
                    MessageFault::Drop => {}
                    MessageFault::Delay(extra) => enqueue(&mut model, due + extra, e),
                    MessageFault::Duplicate(extra) => {
                        enqueue(&mut model, due, e);
                        enqueue(&mut model, due + extra, e);
                    }
                }
            } else {
                out.clear();
                link.drain_due(now, &mut out);
                let mut expected = Vec::new();
                while let Some(entry) = model.first_entry() {
                    if entry.key().0 > now {
                        break;
                    }
                    expected.push(entry.remove());
                }
                prop_assert_eq!(&out, &expected, "drain at {}", now);
            }
            prop_assert_eq!(
                link.next_delivery_cycle(),
                model.keys().next().map(|&(cycle, _)| cycle)
            );
        }
        let rest = link.take_due(u64::MAX);
        let expected: Vec<Envelope> = std::mem::take(&mut model).into_values().collect();
        prop_assert_eq!(rest, expected);
        prop_assert!(link.is_empty());
    }

    /// `ReceiveState` answers exactly like a set of every `(peer, seq)`
    /// it accepted: in-order, reordered and repeated seqs, seqs at the
    /// top of the range, and `forget`.
    #[test]
    fn receive_state_answers_like_a_set_of_every_seq(
        ops in proptest::collection::vec((0u8..8, 0u8..4, any::<u64>()), 1..300),
    ) {
        let mut rx = ReceiveState::new();
        let mut model: HashSet<(Endpoint, u64)> = HashSet::new();
        let mut duplicates = 0u64;
        let mut next = [0u64; 4];
        for &(kind, p, x) in &ops {
            let peer = if p == 0 { Endpoint::Rm } else { Endpoint::Client(AppId(p as u32)) };
            let counter = &mut next[p as usize];
            let seq = match kind {
                // In order, or skipping ahead past a gap.
                0 | 1 => {
                    *counter += x % 3;
                    *counter += 1;
                    *counter - 1
                }
                // Reordered: a seq ahead of the counter.
                2 => *counter + x % 8,
                // Repeated: a seq already behind the counter.
                3 => counter.saturating_sub(1 + x % 4),
                // The top of the range.
                4 => u64::MAX - x % 3,
                5 => x,
                6 => x % 16,
                _ => {
                    rx.forget(peer);
                    model.retain(|&(q, _)| q != peer);
                    *counter = 0;
                    continue;
                }
            };
            let fresh = model.insert((peer, seq));
            if !fresh {
                duplicates += 1;
            }
            prop_assert_eq!(rx.accept(peer, seq), fresh, "{} seq {}", peer, seq);
            prop_assert_eq!(rx.duplicates_suppressed(), duplicates);
        }
    }

    /// The RM's watchdog reclaims exactly the clients a scan of their
    /// last heard cycles finds silent past the timeout, and its next
    /// deadline is that scan's earliest expiry: over random client
    /// messages and polls, one of them at a cycle that goes backwards.
    #[test]
    fn watchdog_matches_a_scan_of_last_heard_cycles(
        timeout in 20u64..300,
        back_at in 0usize..120,
        back_by in 0u64..400,
        ops in proptest::collection::vec((0u8..6, 0u32..5, 0u64..60, 1usize..4), 1..120),
    ) {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 0.0)
            .with_watchdog(WatchdogConfig {
                timeout_cycles: timeout,
                quarantine_threshold: 2,
                quarantine_cooldown_cycles: 500,
            })
            .with_retry(RetryPolicy::new(NEVER_RETRY, 3));
        for n in 0..5u32 {
            rm.register(Application::best_effort(AppId(n), n));
        }
        let active = |rm: &ResourceManager<SymmetricPolicy>, app: u32| {
            rm.active().iter().any(|a| a.id == AppId(app))
        };
        // Last heard cycle of every monitored (that is, active) client.
        let mut heard: BTreeMap<u32, u64> = BTreeMap::new();
        let mut seqs = [0u64; 5];
        let mut clock = 0u64;
        for (i, &(kind, app, dt, batch)) in ops.iter().enumerate() {
            clock += dt;
            let now = if i == back_at { clock.saturating_sub(back_by) } else { clock };
            if kind == 5 {
                let before = rm.reclamations();
                let cutoff = now.checked_sub(timeout);
                let expired: Vec<AppId> = heard
                    .iter()
                    .filter(|&(_, &h)| cutoff.is_some_and(|c| h <= c))
                    .map(|(&a, _)| AppId(a))
                    .collect();
                let _ = rm.poll(now);
                prop_assert_eq!(rm.take_departures(), expired.clone(), "poll at {}", now);
                prop_assert_eq!(rm.reclamations() - before, expired.len() as u64);
                for a in expired {
                    heard.remove(&a.0);
                }
            } else {
                // A batch of messages from consecutive clients.
                let apps: Vec<u32> = (0..batch as u32).map(|k| (app + k) % 5).collect();
                let envelopes: Vec<Envelope> = apps
                    .iter()
                    .map(|&a| {
                        let message = match kind {
                            0 | 1 => ControlMessage::Activation { app: AppId(a) },
                            2 => ControlMessage::Heartbeat { app: AppId(a) },
                            3 => ControlMessage::Termination { app: AppId(a) },
                            _ => ControlMessage::Ack { app: AppId(a), of_seq: dt },
                        };
                        seqs[a as usize] += 1;
                        from_client(a, seqs[a as usize], now, message)
                    })
                    .collect();
                let _ = rm.receive_batch(&envelopes, now);
                let _ = rm.take_departures();
                // Any message from a monitored client, and an admission,
                // is heard at `now`; a departed client is not monitored.
                for a in 0..5u32 {
                    if !active(&rm, a) {
                        heard.remove(&a);
                    } else if apps.contains(&a) || !heard.contains_key(&a) {
                        heard.insert(a, now);
                    }
                }
            }
            for a in 0..5u32 {
                prop_assert_eq!(active(&rm, a), heard.contains_key(&a), "app {} at {}", a, now);
            }
            // The earliest heard cycle of any monitored client, plus the
            // timeout.
            match heard.values().min().map(|&h| h + timeout) {
                Some(due) => prop_assert_eq!(rm.next_deadline(), Some(due), "at {}", now),
                None => prop_assert!(
                    rm.next_deadline().is_none_or(|due| due >= NEVER_RETRY),
                    "no client monitored at {}, yet a deadline {:?}",
                    now,
                    rm.next_deadline()
                ),
            }
        }
    }

    /// The RM suppresses exactly the duplicates a set of every
    /// `(sender, seq)` it accepted finds, where a client's departure
    /// forgets the seqs heard from that client: random batches mixing
    /// envelopes from the message's own client, from another client and
    /// from the RM endpoint, seqs that repeat and seqs at the top of the
    /// range (heartbeats reuse `u64::MAX`), terminations, and polls whose
    /// watchdog reclaims silent clients. An empty batch is a poll.
    #[test]
    fn rm_dedup_answers_like_a_set_forgetting_departed_clients(
        timeout in 20u64..200,
        ops in proptest::collection::vec(
            (0u64..60, proptest::collection::vec((0u8..5, 0u32..5, 0u8..4, 0u8..8), 0..5)),
            1..80,
        ),
    ) {
        // Apps 0–3 are registered, app 4 is refused. Retries and
        // quarantine never trigger, so membership follows the messages.
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 0.0)
            .with_watchdog(WatchdogConfig {
                timeout_cycles: timeout,
                quarantine_threshold: u32::MAX,
                quarantine_cooldown_cycles: 0,
            })
            .with_retry(RetryPolicy::new(NEVER_RETRY, 3));
        for n in 0..4u32 {
            rm.register(Application::best_effort(AppId(n), n));
        }
        let mut seen: HashSet<(Endpoint, u64)> = HashSet::new();
        let mut duplicates = 0u64;
        let mut active: BTreeSet<u32> = BTreeSet::new();
        let mut now = 0u64;
        for (dt, batch) in &ops {
            now += dt;
            if batch.is_empty() {
                let _ = rm.poll(now);
                for app in rm.take_departures() {
                    active.remove(&app.0);
                    seen.retain(|&(peer, _)| peer != Endpoint::Client(app));
                }
            } else {
                let envelopes: Vec<Envelope> = batch
                    .iter()
                    .map(|&(kind, app, sender, seq)| {
                        let message = match kind {
                            0 => ControlMessage::Activation { app: AppId(app) },
                            1 => ControlMessage::Termination { app: AppId(app) },
                            2 => ControlMessage::Heartbeat { app: AppId(app) },
                            3 => ControlMessage::Ack { app: AppId(app), of_seq: 0 },
                            _ => ControlMessage::Stop { app: AppId(app) },
                        };
                        let from = match sender {
                            0 | 1 => Endpoint::Client(AppId(app)),
                            2 => Endpoint::Client(AppId((app + 1) % 5)),
                            _ => Endpoint::Rm,
                        };
                        let seq = match seq {
                            6 => u64::MAX,
                            7 => u64::MAX - 1,
                            s => u64::from(s),
                        };
                        Envelope { from, to: Endpoint::Rm, seq, sent_at_cycle: now, message }
                    })
                    .collect();
                let mut departed = Vec::new();
                for e in &envelopes {
                    if !seen.insert((e.from, e.seq)) {
                        duplicates += 1;
                        continue;
                    }
                    match e.message {
                        ControlMessage::Activation { app } if app.0 < 4 => {
                            active.insert(app.0);
                        }
                        ControlMessage::Termination { app } if active.remove(&app.0) => {
                            departed.push(app);
                            seen.retain(|&(peer, _)| peer != Endpoint::Client(app));
                        }
                        _ => {}
                    }
                }
                let _ = rm.receive_batch(&envelopes, now);
                prop_assert_eq!(rm.take_departures(), departed, "batch at {}", now);
            }
            prop_assert_eq!(rm.duplicates_suppressed(), duplicates, "at {}", now);
            let ids: BTreeSet<u32> = rm.active().iter().map(|a| a.id.0).collect();
            prop_assert_eq!(&ids, &active, "at {}", now);
        }
    }
}
