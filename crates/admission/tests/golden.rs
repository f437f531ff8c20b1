//! Golden admission behaviour: seeded fleet runs over both topologies,
//! seeded `ResourceManager` call traces and seeded lossy scenarios.
//!
//! The perfbench digests pin one hierarchical fleet operating point, and
//! the determinism tests run a config twice within one build, so neither
//! notices a change that moves the flat RM, the scenario's lossy path or
//! an RM edge case the same way on every run. This file does:
//! `tests/golden/admission_outcomes.txt` holds
//!
//! * one `fleet` line per `FleetSim` case: every `FleetOutcome` field
//!   (id lists as `count:digest`) and the digest of its
//!   `publish_metrics` JSON;
//! * one `rm` line per call of a seeded `ResourceManager` trace: the
//!   call and its cycle, the envelopes it returned (`count:digest`), then
//!   mode, rejections, reclamations, safe-mode entries, conf
//!   retransmissions, duplicates suppressed, pending confs, next deadline
//!   and quarantined ids;
//! * one `scenario` line per lossy `Scenario` run with crash and hang
//!   events: its headline numbers, a digest of the whole outcome and one
//!   of its metrics JSON.
//!
//! It was written once and is never regenerated; a change to admission,
//! reclamation, retransmission or delivery order shows up here as a first
//! differing line.
//!
//! Fleet cases rotate through both topologies, 1–12 clusters, no faults,
//! delay plus duplication, drops, crash storms, infeasible capacity and a
//! `root_capacity_milli` override, with heartbeat and watchdog intervals
//! short enough that reclaims and quarantines happen. RM traces mix
//! duplicates, stale and garbage acks, unknown apps, re-activation after
//! reclaim and quarantine, conf-retry exhaustion into safe mode,
//! same-cycle repeats and cycles that go backwards.

use std::fmt::Write;

use autoplat_admission::modes::{RatePolicy, SymmetricPolicy, WeightedPolicy};
use autoplat_admission::simulation::{Scenario, ScenarioEvent, ScenarioOutcome};
use autoplat_admission::{
    AppId, Application, ControlMessage, Endpoint, Envelope, FleetConfig, FleetOutcome, FleetSim,
    FleetTopology, ResourceManager, RetryPolicy, WatchdogConfig,
};
use autoplat_sim::{FaultPlan, MetricsRegistry, SimTime};

/// FNV-1a over `text`.
fn digest(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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

/// `count:digest` of an id list.
fn ids(list: &[AppId]) -> String {
    let text: Vec<String> = list.iter().map(|a| a.0.to_string()).collect();
    format!("{}:{:016x}", list.len(), digest(&text.join(",")))
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

// ---------------------------------------------------------------- fleet

/// Fleet case `k`. Topology alternates, clusters cycle through 1–12, the
/// fault plan rotates none / delay+dup / drops / all three, every third
/// case has a crash storm, every fifth (from 2) has half the capacity its
/// criticals need, every seventh (from 3) shrinks the root's budget, and
/// every eleventh (from 5) times its clusters out at the root.
fn fleet_case(k: u64) -> FleetConfig {
    let mut rng = SplitMix(0xf1ee_7000 + k);
    let clients = 20 + rng.below(380) as u32;
    let critical_every = 1 + rng.below(3) as u32;
    let demand_milli = 50 + 50 * rng.below(4) as u32;
    let criticals = u64::from(clients.div_ceil(critical_every));
    let needed = criticals * u64::from(demand_milli);
    let capacity_milli = if k % 5 == 2 {
        (needed / 2).max(100)
    } else {
        needed + rng.below(1_000)
    };
    let root_capacity_milli = (k % 7 == 3).then_some(capacity_milli * 2 / 3);
    let heartbeat = 300 + rng.below(900);
    let fault_plan = match k % 4 {
        0 => FaultPlan::none(),
        1 => FaultPlan::new()
            .delay_probability(0.03)
            .max_delay_cycles(50)
            .duplicate_probability(0.02),
        2 => FaultPlan::new().drop_probability(0.01 + 0.03 * rng.below(4) as f64),
        _ => FaultPlan::new()
            .drop_probability(0.02)
            .delay_probability(0.03)
            .max_delay_cycles(80)
            .duplicate_probability(0.02),
    };
    let (crashes, crash_at) = if k.is_multiple_of(3) {
        let crashes = if k == 39 {
            clients
        } else {
            clients / (5 + rng.below(10) as u32)
        };
        (crashes, Some(3_000 + rng.below(10_000)))
    } else if k == 20 {
        // A storm size without a storm cycle: nobody crashes.
        (clients / 4, None)
    } else {
        (0, None)
    };
    FleetConfig {
        clients,
        clusters: 1 + (k % 12) as u32,
        capacity_milli,
        root_capacity_milli,
        demand_milli,
        critical_every,
        wave_size: 1 + rng.below(u64::from(clients / 2)) as u32,
        wave_interval: 100 + rng.below(900),
        client_latency_cycles: 5 + rng.below(40),
        bundle_latency_cycles: 10 + rng.below(80),
        heartbeat_interval_cycles: heartbeat,
        watchdog: WatchdogConfig {
            timeout_cycles: heartbeat * (2 + rng.below(3)),
            quarantine_threshold: 1 + rng.below(2) as u32,
            quarantine_cooldown_cycles: 2_000 + rng.below(20_000),
        },
        client_retry: RetryPolicy::new(64 + rng.below(200), 2 + rng.below(7) as u32),
        rm_retry: RetryPolicy::new(64 + rng.below(200), 3 + rng.below(6) as u32),
        bundle_retry: RetryPolicy::new(32 + rng.below(64), 3 + rng.below(4) as u32),
        // Every eleventh case (from 5) times clusters out between their
        // idle digests, so the root reclaims them.
        cluster_timeout_cycles: if k % 11 == 5 {
            heartbeat / 2
        } else {
            4_000 + rng.below(16_000)
        },
        fault_plan,
        crashes,
        crash_at,
        horizon: 15_000 + rng.below(25_000),
        seed: rng.next(),
        topology: if k.is_multiple_of(2) {
            FleetTopology::Hierarchical
        } else {
            FleetTopology::Flat
        },
    }
}

fn render_fleet(name: &str, cfg: &FleetConfig, o: &FleetOutcome, text: &mut String) {
    let mut reg = MetricsRegistry::new();
    o.publish_metrics(&mut reg);
    let topology = match cfg.topology {
        FleetTopology::Flat => "flat",
        FleetTopology::Hierarchical => "hier",
    };
    writeln!(
        text,
        "fleet {name} {topology}/{} adm={} ref={} gu={} cr={} q={} act={} g={} root={} \
         crc={} clr={} last={} rec={} msg={} bun={} qd={} kicks={} h={} json={:016x}",
        cfg.clusters,
        ids(&o.admitted),
        ids(&o.refused),
        ids(&o.gave_up),
        ids(&o.crashed),
        ids(&o.quarantined),
        o.active_clients,
        o.active_guaranteed_milli,
        opt(o.root_granted_milli),
        o.cluster_reclaims,
        o.client_reclaims,
        o.last_transition_cycle,
        opt(o.reconverge_cycles),
        o.control_messages,
        o.bundles,
        o.queue_depth.count(),
        o.kicks,
        o.horizon,
        digest(&reg.to_json()),
    )
    .unwrap();
}

/// What the fleet cases exercised, so the golden file cannot go vacuous.
#[derive(Default)]
struct FleetCoverage {
    flat: u64,
    hier: u64,
    refused: u64,
    gave_up: u64,
    quarantined: u64,
    client_reclaims: u64,
    cluster_reclaims: u64,
}

// ------------------------------------------------------------- RM traces

/// One seeded call trace against a message-driven RM. All but the last
/// two of its `apps` ids are registered up front; those two are unknown
/// until a mid-trace `register` adds them.
struct Trace<P> {
    rm: ResourceManager<P>,
    rng: SplitMix,
    now: u64,
    apps: u32,
    /// Next fresh sequence number per client.
    next_seq: Vec<u64>,
    /// Sequence numbers each client has sent.
    sent: Vec<Vec<u64>>,
    /// Sequence numbers of the confs each client was sent.
    confs: Vec<Vec<u64>>,
}

impl<P: RatePolicy> Trace<P> {
    fn pick_app(&mut self) -> u32 {
        self.rng.below(u64::from(self.apps)) as u32
    }

    /// A fresh sequence number from `app`, or one it already sent (a
    /// duplicate) one time in four.
    fn seq(&mut self, app: u32) -> u64 {
        let a = app as usize;
        if !self.sent[a].is_empty() && self.rng.below(4) == 0 {
            let i = self.rng.below(self.sent[a].len() as u64) as usize;
            return self.sent[a][i];
        }
        let seq = self.next_seq[a];
        self.next_seq[a] += 1;
        self.sent[a].push(seq);
        seq
    }

    fn envelope(&self, app: u32, seq: u64, message: ControlMessage) -> Envelope {
        Envelope {
            from: Endpoint::Client(AppId(app)),
            to: Endpoint::Rm,
            seq,
            sent_at_cycle: self.now,
            message,
        }
    }

    /// A client-to-RM envelope of a random kind: activation, heartbeat
    /// (under the reused heartbeat seq or a fresh one), an ack of the
    /// current conf, of a superseded one or of a seq never sent, or a
    /// termination.
    fn random_envelope(&mut self) -> (&'static str, Envelope) {
        let app = self.pick_app();
        let id = AppId(app);
        match self.rng.below(8) {
            0..=2 => {
                let seq = self.seq(app);
                (
                    "act",
                    self.envelope(app, seq, ControlMessage::Activation { app: id }),
                )
            }
            3 => {
                let seq = if self.rng.below(2) == 0 {
                    u64::MAX
                } else {
                    self.seq(app)
                };
                (
                    "hb",
                    self.envelope(app, seq, ControlMessage::Heartbeat { app: id }),
                )
            }
            4 | 5 => {
                let confs = &self.confs[app as usize];
                let of_seq = match (confs.len(), self.rng.below(3)) {
                    (0, _) | (_, 2) => 1_000_000 + self.rng.below(10),
                    (n, 0) => confs[self.rng.below(n as u64) as usize],
                    (n, _) => confs[n - 1],
                };
                let seq = self.seq(app);
                (
                    "ack",
                    self.envelope(app, seq, ControlMessage::Ack { app: id, of_seq }),
                )
            }
            _ => {
                let seq = self.seq(app);
                (
                    "ter",
                    self.envelope(app, seq, ControlMessage::Termination { app: id }),
                )
            }
        }
    }

    /// Moves the clock: mostly forward, sometimes not at all, sometimes
    /// backwards, and now and then far enough for the watchdog and the
    /// quarantine cooldown to expire.
    fn advance(&mut self) {
        match self.rng.below(20) {
            0 | 1 => {}
            2 => self.now = self.now.saturating_sub(self.rng.below(300)),
            19 => self.now += 1_500 + self.rng.below(3_000),
            _ => self.now += 1 + self.rng.below(400),
        }
    }

    /// Runs one call and returns its label and the envelopes it emitted.
    fn call(&mut self) -> (String, Vec<Envelope>) {
        self.advance();
        let now = self.now;
        let (label, out) = match self.rng.below(14) {
            0..=4 => {
                let (kind, envelope) = self.random_envelope();
                (
                    kind.to_string(),
                    self.rm.receive_batch(std::slice::from_ref(&envelope), now),
                )
            }
            5..=7 => {
                let n = 2 + self.rng.below(4);
                let batch: Vec<Envelope> = (0..n).map(|_| self.random_envelope().1).collect();
                (format!("batch{n}"), self.rm.receive_batch(&batch, now))
            }
            8..=11 => ("poll".to_string(), self.rm.poll(now)),
            12 => {
                let app = self.pick_app();
                self.rm.terminate(AppId(app), SimTime::from_ns(now as f64));
                (format!("terminate{app}"), Vec::new())
            }
            _ => {
                let app = self.pick_app();
                self.rm.register(trace_app(app, self.rng.below(3)));
                (format!("register{app}"), Vec::new())
            }
        };
        for e in &out {
            if let (ControlMessage::Config { app, .. }, Endpoint::Client(to)) = (e.message, e.to) {
                debug_assert_eq!(app, to);
                self.confs[app.0 as usize].push(e.seq);
            }
        }
        (label, out)
    }
}

/// App `id` of an RM trace: critical at 150–450 milli, or best effort.
fn trace_app(id: u32, kind: u64) -> Application {
    match kind {
        0 => Application::best_effort(AppId(id), id),
        k => Application::critical(AppId(id), id, 150 * k as u32 + 150 * (id % 2)),
    }
}

/// `from to seq sent name app [details]` of one envelope, rates as bits.
fn render_envelope(e: &Envelope, text: &mut String) {
    write!(text, "{} {} {} {} ", e.from, e.to, e.seq, e.sent_at_cycle).unwrap();
    match e.message {
        ControlMessage::Config { app, mode, rate } => {
            write!(text, "conf {} {} {:016x}", app.0, mode.0, rate.to_bits())
        }
        ControlMessage::Ack { app, of_seq } => write!(text, "ack {} {of_seq}", app.0),
        m => write!(text, "{} {}", m.name(), m.app().0),
    }
    .unwrap();
    text.push(';');
}

/// What the RM traces exercised, so the golden file cannot go vacuous.
#[derive(Default)]
struct RmCoverage {
    rejections: u64,
    reclamations: u64,
    safe_mode_entries: u64,
    conf_retransmissions: u64,
    duplicates: u64,
    quarantined: u64,
    backwards: u64,
}

const TRACE_CALLS: usize = 24;

fn run_trace<P: RatePolicy>(
    name: &str,
    rm: ResourceManager<P>,
    mut rng: SplitMix,
    text: &mut String,
    cov: &mut RmCoverage,
) {
    let known = 3 + rng.below(4) as u32;
    let apps = known + 2;
    let mut trace = Trace {
        rm,
        rng,
        now: 0,
        apps,
        next_seq: vec![0; apps as usize],
        sent: vec![Vec::new(); apps as usize],
        confs: vec![Vec::new(); apps as usize],
    };
    for id in 0..known {
        let kind = trace.rng.below(3);
        trace.rm.register(trace_app(id, kind));
    }
    for k in 0..TRACE_CALLS {
        let before = trace.now;
        let (label, out) = trace.call();
        if trace.now < before {
            cov.backwards += 1;
        }
        let mut envelopes = String::new();
        for e in &out {
            render_envelope(e, &mut envelopes);
        }
        let rm = &trace.rm;
        let quarantined: Vec<String> = rm
            .quarantined_ids()
            .iter()
            .map(|a| a.0.to_string())
            .collect();
        cov.quarantined += quarantined.len() as u64;
        writeln!(
            text,
            "rm {name} {k} {label}@{} {}:{:08x} {} {} {} {} {} {} {} {} {}",
            trace.now,
            out.len(),
            digest(&envelopes) as u32,
            rm.mode().0,
            rm.rejections(),
            rm.reclamations(),
            rm.safe_mode_entries(),
            rm.conf_retransmissions(),
            rm.duplicates_suppressed(),
            rm.pending_conf_count(),
            opt(rm.next_deadline()),
            if quarantined.is_empty() {
                "-".to_string()
            } else {
                quarantined.join(",")
            },
        )
        .unwrap();
    }
    let rm = &trace.rm;
    cov.rejections += rm.rejections();
    cov.reclamations += rm.reclamations();
    cov.safe_mode_entries += rm.safe_mode_entries();
    cov.conf_retransmissions += rm.conf_retransmissions();
    cov.duplicates += rm.duplicates_suppressed();
}

/// RM trace `k`: symmetric or weighted policy, a short watchdog and conf
/// budget so reclaims, quarantines and safe mode happen within the trace,
/// delta confs on or off.
fn rm_trace(k: u64, text: &mut String, cov: &mut RmCoverage) {
    let mut rng = SplitMix(0x0a11_0c00 + k);
    let watchdog = WatchdogConfig {
        timeout_cycles: 300 + rng.below(700),
        quarantine_threshold: 1 + rng.below(2) as u32,
        quarantine_cooldown_cycles: 500 + rng.below(2_500),
    };
    let retry = RetryPolicy::new(40 + rng.below(100), 2 + rng.below(3) as u32);
    let delta = rng.below(2) == 0;
    let name = format!("r{k:02}");
    if k.is_multiple_of(2) {
        let rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 10.0)
            .with_watchdog(watchdog)
            .with_retry(retry)
            .with_delta_confs(delta);
        run_trace(&name, rm, rng, text, cov);
    } else {
        let rm = ResourceManager::new(WeightedPolicy::new(1.0, 8.0, 0.0), 10.0)
            .with_watchdog(watchdog)
            .with_retry(retry)
            .with_delta_confs(delta);
        run_trace(&name, rm, rng, text, cov);
    }
}

// -------------------------------------------------------------- scenarios

/// Lossy scenario `k`: 2–4 apps on distinct nodes, then a crash of one
/// and a hang of another (and, every third run, a termination), under
/// probabilistic drops, delays and duplicates.
fn scenario_run(k: u64) -> ScenarioOutcome {
    let mut rng = SplitMix(0x5ce0_0000 + k);
    let nodes = [0u32, 3, 12, 15];
    let n = 2 + rng.below(3) as usize;
    let mut events: Vec<(u64, ScenarioEvent)> = Vec::new();
    for (i, &node) in nodes.iter().take(n).enumerate() {
        let id = AppId(i as u32);
        let app = if k % 2 == 1 && i % 2 == 0 {
            Application::critical(id, node, 30)
        } else {
            Application::best_effort(id, node)
        };
        events.push((
            i as u64 * 1_500 + rng.below(500),
            ScenarioEvent::Activate(app),
        ));
    }
    let settled = n as u64 * 1_500 + 1_000;
    let victim = AppId(rng.below(n as u64) as u32);
    let hung = AppId((victim.0 + 1) % n as u32);
    events.push((settled + rng.below(1_000), ScenarioEvent::Crash(victim)));
    events.push((
        settled + rng.below(2_000),
        ScenarioEvent::Hang(hung, 500 + rng.below(2_500)),
    ));
    if k.is_multiple_of(3) {
        events.push((settled + 3_000, ScenarioEvent::Terminate(hung)));
    }
    events.sort_by_key(|&(cycle, _)| cycle);
    let last = events.last().map_or(0, |&(cycle, _)| cycle);
    let plan = FaultPlan::new()
        .drop_probability(0.02 + 0.02 * rng.below(4) as f64)
        .delay_probability(0.05)
        .max_delay_cycles(100)
        .duplicate_probability(0.02);
    let watchdog = WatchdogConfig {
        timeout_cycles: 1_500 + rng.below(1_500),
        quarantine_threshold: 1 + rng.below(3) as u32,
        quarantine_cooldown_cycles: 5_000,
    };
    let spec = ScenarioSpec {
        heartbeat: 300 + rng.below(400),
        latency: 50 + rng.below(100),
        seed: rng.next(),
        horizon: last + 4_000 + rng.below(4_000),
        events,
        plan,
        watchdog,
    };
    if k.is_multiple_of(2) {
        spec.run(Scenario::new(SymmetricPolicy::new(0.4, 8.0), 4, 4))
    } else {
        spec.run(Scenario::new(WeightedPolicy::new(0.2, 8.0, 0.001), 4, 4))
    }
}

/// The scripted part of a lossy scenario, whatever its policy.
struct ScenarioSpec {
    events: Vec<(u64, ScenarioEvent)>,
    plan: FaultPlan,
    watchdog: WatchdogConfig,
    heartbeat: u64,
    latency: u64,
    seed: u64,
    horizon: u64,
}

impl ScenarioSpec {
    fn run<P: RatePolicy>(self, scenario: Scenario<P>) -> ScenarioOutcome {
        self.events
            .iter()
            .fold(scenario, |s, &(cycle, event)| s.event(cycle, event))
            .horizon(self.horizon)
            .watchdog(self.watchdog)
            .retry(RetryPolicy::new(150, 4))
            .heartbeat_interval(self.heartbeat)
            .control_latency_cycles(self.latency)
            .faults(self.plan, self.seed)
            .run()
    }
}

fn render_scenario(name: &str, o: &ScenarioOutcome, text: &mut String) {
    let mut whole = String::new();
    for obs in &o.observations {
        write!(
            whole,
            "{} {} {} {} {} {:016x};",
            obs.app.0,
            obs.from_cycle,
            obs.to_cycle,
            obs.mode,
            obs.packets,
            obs.observed_rate.to_bits()
        )
        .unwrap();
    }
    write!(
        whole,
        "|{} {} {:016x} {:?} {} {:?}",
        o.delivered,
        o.injected,
        o.mean_latency_cycles.to_bits(),
        o.rejected,
        o.protocol_messages,
        o.recovery
    )
    .unwrap();
    let mut reg = MetricsRegistry::new();
    o.publish_metrics(&mut reg);
    let r = &o.recovery;
    writeln!(
        text,
        "scenario {name} inj={} del={} rej={} msgs={} sent={} drop={} dup={} recl={} sme={} \
         conf_rtx={} client_rtx={} reconv={} obs={} digest={:016x} json={:016x}",
        o.injected,
        o.delivered,
        ids(&o.rejected),
        o.protocol_messages,
        r.control_messages_sent,
        r.messages_dropped,
        r.messages_duplicated,
        r.reclamations,
        r.safe_mode_entries,
        r.conf_retransmissions,
        r.client_retransmissions,
        opt(r.reconverged_at_cycle),
        o.observations.len(),
        digest(&whole),
        digest(&reg.to_json()),
    )
    .unwrap();
}

const FLEET_CASES: u64 = 40;
const RM_TRACES: u64 = 20;
const SCENARIOS: u64 = 8;

fn golden_path() -> String {
    format!(
        "{}/../../tests/golden/admission_outcomes.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Compares `fresh` against the golden lines starting with `kind `.
fn assert_matches_golden(kind: &str, fresh: &str) {
    let path = golden_path();
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
fn fleet_outcomes_match_golden() {
    let mut text = String::new();
    let mut cov = FleetCoverage::default();
    for k in 0..FLEET_CASES {
        let cfg = fleet_case(k);
        let o = FleetSim::new(cfg.clone()).run();
        render_fleet(&format!("f{k:02}"), &cfg, &o, &mut text);
        match cfg.topology {
            FleetTopology::Flat => cov.flat += 1,
            FleetTopology::Hierarchical => cov.hier += 1,
        }
        cov.refused += o.refused.len() as u64;
        cov.gave_up += o.gave_up.len() as u64;
        cov.quarantined += o.quarantined.len() as u64;
        cov.client_reclaims += o.client_reclaims;
        cov.cluster_reclaims += o.cluster_reclaims;
    }
    assert_matches_golden("fleet", &text);
    assert!(cov.flat > 0 && cov.hier > 0);
    assert!(cov.refused > 0, "no fleet case refused a client");
    assert!(cov.gave_up > 0, "no fleet client gave up");
    assert!(cov.quarantined > 0, "no fleet case quarantined a client");
    assert!(cov.client_reclaims > 0, "no fleet case reclaimed a client");
    assert!(
        cov.cluster_reclaims > 0,
        "no fleet case reclaimed a cluster"
    );
}

#[test]
fn rm_traces_match_golden() {
    let mut text = String::new();
    let mut cov = RmCoverage::default();
    for k in 0..RM_TRACES {
        rm_trace(k, &mut text, &mut cov);
    }
    assert_matches_golden("rm", &text);
    assert!(cov.rejections > 0, "no trace refused an admission");
    assert!(cov.reclamations > 0, "no trace reclaimed a client");
    assert!(cov.safe_mode_entries > 0, "no trace entered safe mode");
    assert!(
        cov.conf_retransmissions > 0,
        "no trace retransmitted a conf"
    );
    assert!(cov.duplicates > 0, "no trace suppressed a duplicate");
    assert!(cov.quarantined > 0, "no trace quarantined a client");
    assert!(cov.backwards > 0, "no trace moved the clock backwards");
}

#[test]
fn scenario_outcomes_match_golden() {
    let mut text = String::new();
    let mut reclamations = 0;
    for k in 0..SCENARIOS {
        let o = scenario_run(k);
        reclamations += o.recovery.reclamations;
        render_scenario(&format!("s{k}"), &o, &mut text);
    }
    assert_matches_golden("scenario", &text);
    assert!(reclamations > 0, "no scenario reclaimed its crashed client");
}
