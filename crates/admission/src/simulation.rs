//! Dynamic admission-control co-simulation (§V end to end).
//!
//! Runs a scenario of application activations and terminations against a
//! [`ResourceManager`], per-node [`Client`]s and the wormhole NoC: on
//! every mode transition the RM stops the active clients and distributes
//! new rates; between events every active application transmits greedily
//! *through its client*, whose token bucket enforces the assigned rate.
//! The outcome records, per application and per mode interval, the
//! *observed* injection rate — the dynamic realization of Fig. 7 —
//! together with NoC delivery statistics and the protocol cost.
//!
//! # Fault injection
//!
//! A scenario runs on one of two control planes:
//!
//! * **ideal** (the default): control messages take effect instantly and
//!   are never lost; the original, fast path;
//! * **lossy** ([`Scenario::faults`], or any [`Crash`] / [`Hang`] event):
//!   every message travels through a [`ControlPlane`] whose seeded
//!   `autoplat_sim::FaultInjector` may drop, delay or duplicate it, and
//!   clients crash or hang where the script says so (a fault plan faults
//!   messages, not clients). The protocol then runs its fault-tolerant
//!   machinery — retransmission, acknowledgements, heartbeats, the RM
//!   watchdog, safe-mode degradation — and the outcome carries
//!   [`RecoveryMetrics`]. A plan plus a seed determines the run
//!   bit-exactly.
//!
//! [`Crash`]: ScenarioEvent::Crash
//! [`Hang`]: ScenarioEvent::Hang

use std::collections::{BTreeMap, BTreeSet};

use autoplat_noc::{Mesh, NocConfig, NocSim, NodeId, Packet};
use autoplat_sim::engine::{EventSink, Process};
use autoplat_sim::metrics::MetricsRegistry;
use autoplat_sim::{Engine, FaultPlan, SimTime};

use crate::app::{AppId, Application};
use crate::client::{Client, Liveness, RetryPolicy, TransmitDecision};
use crate::control_plane::ControlPlane;
use crate::error::AdmissionError;
use crate::modes::RatePolicy;
use crate::protocol::{ControlMessage, Endpoint, Envelope};
use crate::rm::{ResourceManager, WatchdogConfig};

/// Events driving the lossy admission control plane on the shared
/// simulation kernel. One simulated nanosecond maps to one protocol
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionEvent {
    /// Process all control work due now, transmit up to the next
    /// control-plane deadline, then re-arm at that deadline.
    Kick,
}

/// Kernel time of a protocol cycle (1 cycle = 1 ns).
fn cycle_at(cycle: u64) -> SimTime {
    SimTime::from_ns(cycle as f64)
}

/// One scripted scenario event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioEvent {
    /// An application activates (its first transmission gets trapped and
    /// triggers admission).
    Activate(Application),
    /// An application terminates (its client reports `terMsg`).
    Terminate(AppId),
    /// The application's *client* dies permanently (fault injection): no
    /// more heartbeats, acks or transmissions. The RM watchdog reclaims
    /// its bandwidth.
    Crash(AppId),
    /// The application's client freezes for the given number of cycles,
    /// then resumes (fault injection).
    Hang(AppId, u64),
}

/// Observed behaviour of one application within one mode interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalObservation {
    /// The application.
    pub app: AppId,
    /// Interval start (cycle).
    pub from_cycle: u64,
    /// Interval end (cycle).
    pub to_cycle: u64,
    /// System mode during the interval.
    pub mode: usize,
    /// Packets the application injected in the interval.
    pub packets: u64,
    /// Observed flit-injection rate (flits/cycle).
    pub observed_rate: f64,
}

/// Fault-tolerance bookkeeping of one scenario run.
///
/// All zeros/`None` when the scenario ran on the ideal control plane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryMetrics {
    /// Control messages submitted to the lossy control plane.
    pub control_messages_sent: u64,
    /// Messages the fault injector destroyed.
    pub messages_dropped: u64,
    /// Messages delivered late.
    pub messages_delayed: u64,
    /// Messages delivered twice.
    pub messages_duplicated: u64,
    /// Client-side retransmissions of `actMsg`/`terMsg`.
    pub client_retransmissions: u64,
    /// RM-side retransmissions of `confMsg`.
    pub conf_retransmissions: u64,
    /// Duplicated deliveries suppressed by idempotent receive handling.
    pub duplicates_suppressed: u64,
    /// Applications forcibly terminated by the watchdog.
    pub reclamations: u64,
    /// Times the RM degraded into safe mode.
    pub safe_mode_entries: u64,
    /// Faults of any kind the injector fired.
    pub faults_injected: u64,
    /// First cycle of the final quiescent stretch (no message in flight,
    /// nothing awaiting an ack, no client hung).
    pub reconverged_at_cycle: Option<u64>,
    /// Cycles between the last injected fault and reconvergence.
    pub time_to_reconverge_cycles: Option<u64>,
}

impl RecoveryMetrics {
    /// Total retransmissions, both directions.
    pub fn retransmissions(&self) -> u64 {
        self.client_retransmissions + self.conf_retransmissions
    }

    /// Folds these metrics into `metrics` under the
    /// `admission.recovery.*` namespace (counters for every event class;
    /// reconvergence, when reached, as gauges).
    pub fn publish_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.counter_add(
            "admission.recovery.control_messages_sent",
            self.control_messages_sent,
        );
        metrics.counter_add("admission.recovery.messages_dropped", self.messages_dropped);
        metrics.counter_add("admission.recovery.messages_delayed", self.messages_delayed);
        metrics.counter_add(
            "admission.recovery.messages_duplicated",
            self.messages_duplicated,
        );
        metrics.counter_add(
            "admission.recovery.client_retransmissions",
            self.client_retransmissions,
        );
        metrics.counter_add(
            "admission.recovery.conf_retransmissions",
            self.conf_retransmissions,
        );
        metrics.counter_add(
            "admission.recovery.duplicates_suppressed",
            self.duplicates_suppressed,
        );
        metrics.counter_add("admission.recovery.reclamations", self.reclamations);
        metrics.counter_add(
            "admission.recovery.safe_mode_entries",
            self.safe_mode_entries,
        );
        metrics.counter_add("admission.recovery.faults_injected", self.faults_injected);
        if let Some(at) = self.reconverged_at_cycle {
            metrics.gauge_set("admission.recovery.reconverged_at_cycle", at as f64);
        }
        if let Some(cycles) = self.time_to_reconverge_cycles {
            metrics.gauge_set(
                "admission.recovery.time_to_reconverge_cycles",
                cycles as f64,
            );
        }
    }
}

/// Outcome of a scenario run.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Per-app, per-interval observations, in time order.
    pub observations: Vec<IntervalObservation>,
    /// Packets delivered by the NoC.
    pub delivered: usize,
    /// Packets injected in total.
    pub injected: usize,
    /// Mean NoC latency in cycles.
    pub mean_latency_cycles: f64,
    /// Applications whose admission was refused.
    pub rejected: Vec<AppId>,
    /// Total protocol messages exchanged.
    pub protocol_messages: usize,
    /// Fault-tolerance metrics (all zero on the ideal control plane).
    pub recovery: RecoveryMetrics,
}

impl ScenarioOutcome {
    /// Publishes the outcome into `metrics` under the `admission.*`
    /// namespace:
    ///
    /// * counters — `admission.packets_injected`,
    ///   `admission.packets_delivered`, `admission.protocol_messages`,
    ///   `admission.apps_rejected`;
    /// * gauge — `admission.mean_latency_cycles`;
    /// * histogram — `admission.observed_rate_flits_per_cycle` over all
    ///   interval observations;
    /// * everything [`RecoveryMetrics::publish_metrics`] emits.
    pub fn publish_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.counter_add("admission.packets_injected", self.injected as u64);
        metrics.counter_add("admission.packets_delivered", self.delivered as u64);
        metrics.counter_add("admission.protocol_messages", self.protocol_messages as u64);
        metrics.counter_add("admission.apps_rejected", self.rejected.len() as u64);
        metrics.gauge_set("admission.mean_latency_cycles", self.mean_latency_cycles);
        for obs in &self.observations {
            metrics.observe("admission.observed_rate_flits_per_cycle", obs.observed_rate);
        }
        self.recovery.publish_metrics(metrics);
    }
}

/// The §V co-simulation driver.
///
/// # Examples
///
/// ```
/// use autoplat_admission::app::{AppId, Application};
/// use autoplat_admission::modes::SymmetricPolicy;
/// use autoplat_admission::simulation::{Scenario, ScenarioEvent};
///
/// let outcome = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
///     .event(0, ScenarioEvent::Activate(Application::best_effort(AppId(0), 0)))
///     .event(4_000, ScenarioEvent::Activate(Application::best_effort(AppId(1), 3)))
///     .horizon(8_000)
///     .run();
/// assert_eq!(outcome.injected, outcome.delivered);
/// ```
#[derive(Debug)]
pub struct Scenario<P> {
    policy: P,
    cols: u32,
    rows: u32,
    events: Vec<(u64, ScenarioEvent)>,
    horizon: u64,
    flits_per_packet: u32,
    sink: Option<NodeId>,
    fault_plan: FaultPlan,
    fault_seed: u64,
    watchdog: WatchdogConfig,
    retry: RetryPolicy,
    heartbeat_interval_cycles: u64,
    control_latency_cycles: u64,
}

impl<P: RatePolicy> Scenario<P> {
    /// Creates a scenario on a `cols × rows` mesh with the given policy.
    pub fn new(policy: P, cols: u32, rows: u32) -> Self {
        Scenario {
            policy,
            cols,
            rows,
            events: Vec::new(),
            horizon: 10_000,
            flits_per_packet: 4,
            sink: None,
            fault_plan: FaultPlan::none(),
            fault_seed: 0,
            watchdog: WatchdogConfig::default(),
            retry: RetryPolicy::default(),
            heartbeat_interval_cycles: 500,
            control_latency_cycles: 100,
        }
    }

    /// Adds a scripted event at `cycle`.
    pub fn event(mut self, cycle: u64, event: ScenarioEvent) -> Self {
        self.events.push((cycle, event));
        self
    }

    /// Sets the end of the measured window (cycles).
    pub fn horizon(mut self, cycles: u64) -> Self {
        self.horizon = cycles;
        self
    }

    /// Sets the packet length (flits).
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn flits_per_packet(mut self, flits: u32) -> Self {
        assert!(flits > 0, "packets need flits");
        self.flits_per_packet = flits;
        self
    }

    /// Routes all traffic to a fixed sink node (default: the last node).
    pub fn sink(mut self, node: NodeId) -> Self {
        self.sink = Some(node);
        self
    }

    /// Injects faults from `plan`, resolved deterministically from `seed`.
    /// An active plan switches the run to the lossy control plane.
    pub fn faults(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.fault_plan = plan;
        self.fault_seed = seed;
        self
    }

    /// Replaces the RM watchdog parameters (lossy control plane only).
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Replaces the retransmission policy (lossy control plane only).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the client heartbeat period in cycles (lossy control plane
    /// only; must be positive).
    pub fn heartbeat_interval(mut self, cycles: u64) -> Self {
        self.heartbeat_interval_cycles = cycles;
        self
    }

    /// Sets the one-way control-message latency in cycles.
    pub fn control_latency_cycles(mut self, cycles: u64) -> Self {
        self.control_latency_cycles = cycles;
        self
    }

    /// Runs the scenario.
    ///
    /// # Panics
    ///
    /// Panics on a zero mesh dimension, unordered events, nodes outside
    /// the mesh, or a horizon before the last event; use
    /// [`Scenario::try_run`] for a typed error.
    pub fn run(self) -> ScenarioOutcome {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the scenario, reporting configuration mistakes as
    /// [`AdmissionError`]s instead of panicking.
    pub fn try_run(self) -> Result<ScenarioOutcome, AdmissionError> {
        for w in self.events.windows(2) {
            if w[1].0 < w[0].0 {
                return Err(AdmissionError::UnorderedEvents);
            }
        }
        if let Some(&(last, _)) = self.events.last() {
            if self.horizon < last {
                return Err(AdmissionError::HorizonBeforeLastEvent {
                    last_event: last,
                    horizon: self.horizon,
                });
            }
        }
        if self.cols == 0 || self.rows == 0 {
            return Err(AdmissionError::EmptyMesh);
        }
        let mesh = Mesh::new(self.cols, self.rows);
        let sink = self.sink.unwrap_or(NodeId(mesh.nodes() - 1));
        if !mesh.contains(sink) {
            return Err(AdmissionError::SinkOutsideMesh);
        }
        for (_, event) in &self.events {
            if let ScenarioEvent::Activate(app) = event {
                if !mesh.contains(NodeId(app.node)) {
                    return Err(AdmissionError::NodeOutsideMesh { app: app.id });
                }
            }
        }
        let noc = NocSim::new(NocConfig::new(self.cols, self.rows));
        let lossy = self.fault_plan.is_active()
            || self
                .events
                .iter()
                .any(|(_, e)| matches!(e, ScenarioEvent::Crash(_) | ScenarioEvent::Hang(..)));
        if lossy {
            if self.control_latency_cycles == 0 {
                return Err(AdmissionError::InvalidInterval {
                    what: "control latency",
                });
            }
            if self.heartbeat_interval_cycles == 0 {
                return Err(AdmissionError::InvalidInterval {
                    what: "heartbeat interval",
                });
            }
            self.run_lossy(noc, sink)
        } else {
            Ok(self.run_ideal(noc, sink))
        }
    }

    /// The original instantaneous path: control messages are counted and
    /// take effect the same cycle. This is the hot path benchmarks and
    /// non-fault scenarios use; it pays nothing for the fault machinery.
    fn run_ideal(mut self, mut noc: NocSim, sink: NodeId) -> ScenarioOutcome {
        let mut rm = ResourceManager::new(self.policy, self.control_latency_cycles as f64);
        let mut clients: BTreeMap<AppId, Client> = BTreeMap::new();
        let mut apps: BTreeMap<AppId, Application> = BTreeMap::new();
        let mut rejected = Vec::new();
        let mut observations = Vec::new();
        let mut next_packet_id = 0u64;
        let mut injected = 0usize;

        // Interval boundaries: every event plus the horizon.
        let mut boundaries: Vec<u64> = self.events.iter().map(|&(c, _)| c).collect();
        boundaries.push(self.horizon);
        self.events.reverse(); // pop() from the front

        let mut now = 0u64;
        for &boundary in &boundaries {
            // Transmit greedily in [now, boundary) for all active apps.
            if boundary > now {
                let flits = self.flits_per_packet;
                for (app_id, client) in clients.iter_mut() {
                    let app = apps[app_id];
                    let mut cursor = now;
                    let mut packets = 0u64;
                    loop {
                        match client.request_transmit_before(cursor, flits as f64, boundary) {
                            TransmitDecision::ReleaseAt(c) if c < boundary => {
                                noc.inject(
                                    Packet::new(next_packet_id, NodeId(app.node), sink, flits),
                                    c,
                                );
                                next_packet_id += 1;
                                injected += 1;
                                packets += 1;
                                cursor = c;
                            }
                            _ => break,
                        }
                    }
                    observations.push(IntervalObservation {
                        app: *app_id,
                        from_cycle: now,
                        to_cycle: boundary,
                        mode: rm.mode().0,
                        packets,
                        observed_rate: packets as f64 * flits as f64 / (boundary - now) as f64,
                    });
                }
                now = boundary;
            }

            // Apply the event at this boundary, if any.
            let due = matches!(self.events.last(), Some(&(c, _)) if c <= now);
            if due {
                let (cycle, event) = self.events.pop().expect("checked above");
                let round = match event {
                    // An active app's client is not idle, so nothing is
                    // trapped: no actMsg, no round.
                    ScenarioEvent::Activate(app) if clients.contains_key(&app.id) => Vec::new(),
                    ScenarioEvent::Activate(app) => {
                        let mut client = Client::new(app.id, app.node);
                        // The first transmission is trapped -> actMsg.
                        let _ = client.request_transmit(cycle, 1.0);
                        let outcome = rm.request_admission(app);
                        if outcome.admitted {
                            apps.insert(app.id, app);
                            clients.insert(app.id, client);
                            outcome.rates
                        } else {
                            rejected.push(app.id);
                            Vec::new()
                        }
                    }
                    ScenarioEvent::Terminate(id) => match clients.remove(&id) {
                        Some(mut client) => {
                            client.on_terminate();
                            apps.remove(&id);
                            rm.terminate(id)
                        }
                        None => Vec::new(),
                    },
                    // Unreachable: any Crash/Hang event routes to run_lossy.
                    ScenarioEvent::Crash(_) | ScenarioEvent::Hang(..) => unreachable!(),
                };
                // The transition's stopMsg + confMsg round for every
                // active client.
                for (id, contract) in &round {
                    if let Some(c) = clients.get_mut(id) {
                        c.on_stop();
                        c.on_config(cycle, contract.scale(self.flits_per_packet as f64));
                    }
                }
            }
        }

        assert!(
            noc.run_until_idle(100_000_000),
            "scenario traffic must drain"
        );
        ScenarioOutcome {
            observations,
            delivered: noc.delivered(),
            injected,
            mean_latency_cycles: noc.latency_cycles().mean(),
            rejected,
            protocol_messages: rm.log().len(),
            recovery: RecoveryMetrics::default(),
        }
    }

    /// The lossy path: every control message travels through the fault
    /// injector; clients and RM run their full fault-tolerance machinery.
    /// The loop advances in *epochs*: the data plane transmits greedily up
    /// to the next control-plane deadline (delivery, retransmission,
    /// heartbeat, watchdog expiry, scripted fault or event), which is then
    /// processed, and so on.
    fn run_lossy(
        mut self,
        mut noc: NocSim,
        sink: NodeId,
    ) -> Result<ScenarioOutcome, AdmissionError> {
        let mut rm = ResourceManager::try_new(self.policy, self.control_latency_cycles as f64)?
            .with_watchdog(self.watchdog)
            .with_retry(self.retry);
        let mut cp = ControlPlane::new(
            std::mem::take(&mut self.fault_plan),
            self.fault_seed,
            self.control_latency_cycles,
        );
        let mut clients: BTreeMap<AppId, Client> = BTreeMap::new();
        let mut apps: BTreeMap<AppId, Application> = BTreeMap::new();
        // Terminated apps keep their client for `terMsg` retransmissions
        // but no longer report observations, as on the ideal path.
        let mut terminated: BTreeSet<AppId> = BTreeSet::new();
        let mut rejected: Vec<AppId> = Vec::new();
        let mut observations = Vec::new();
        let mut next_packet_id = 0u64;
        let mut injected = 0usize;
        let mut reconverged_at: Option<u64> = None;
        let flits = self.flits_per_packet;

        let mut boundaries: Vec<u64> = self.events.iter().map(|&(c, _)| c).collect();
        boundaries.push(self.horizon);
        self.events.reverse(); // pop() from the front

        let mut now = 0u64;
        let mut engine: Engine<AdmissionEvent> = Engine::new();
        for &boundary in &boundaries {
            let macro_start = now;
            let mut packets_acc: BTreeMap<AppId, u64> = BTreeMap::new();
            if boundary > now {
                // Drive the segment [now, boundary) on the kernel: each
                // `Kick` drains the control work due at its fire cycle,
                // lets the data plane transmit up to the next deadline and
                // re-arms there. Nothing is scheduled at the boundary
                // itself; the next segment's opening `Kick` covers it,
                // exactly like the classic epoch loop re-entering.
                let mut epoch = LossyEpoch {
                    boundary,
                    flits,
                    sink_node: sink,
                    rm: &mut rm,
                    cp: &mut cp,
                    clients: &mut clients,
                    apps: &apps,
                    rejected: &mut rejected,
                    reconverged_at: &mut reconverged_at,
                    noc: &mut noc,
                    next_packet_id: &mut next_packet_id,
                    injected: &mut injected,
                    packets_acc: &mut packets_acc,
                };
                engine.schedule_at(cycle_at(now), AdmissionEvent::Kick);
                engine.run_until(&mut epoch, cycle_at(boundary));
                now = boundary;
            }
            // Flush the interval observations.
            if boundary > macro_start {
                for app_id in clients.keys().filter(|id| !terminated.contains(id)) {
                    let packets = packets_acc.get(app_id).copied().unwrap_or(0);
                    observations.push(IntervalObservation {
                        app: *app_id,
                        from_cycle: macro_start,
                        to_cycle: boundary,
                        mode: rm.mode().0,
                        packets,
                        observed_rate: packets as f64 * flits as f64
                            / (boundary - macro_start) as f64,
                    });
                }
            }

            // Apply the event at this boundary, if any.
            let due = matches!(self.events.last(), Some(&(c, _)) if c <= now);
            if due {
                let (cycle, event) = self.events.pop().expect("checked above");
                match event {
                    ScenarioEvent::Activate(app) => {
                        rm.register(app);
                        let mut client = Client::try_with_fault_tolerance(
                            app.id,
                            app.node,
                            self.retry,
                            self.heartbeat_interval_cycles,
                        )?;
                        // The conf carries only the rate; the burst is the
                        // policy's, which is mode-independent.
                        if let Some(contracts) = rm.policy().contracts(std::slice::from_ref(&app)) {
                            client.set_conf_burst(contracts[0].1.burst());
                        }
                        // The first transmission is trapped -> actMsg.
                        let _ = client.request_transmit(cycle, 1.0);
                        if let Some(env) = client.send_activation(cycle) {
                            cp.send(cycle, env);
                        }
                        apps.insert(app.id, app);
                        clients.insert(app.id, client);
                        terminated.remove(&app.id);
                    }
                    ScenarioEvent::Terminate(id) => {
                        if let Some(client) = clients.get_mut(&id) {
                            if let Some(env) = client.send_termination(cycle) {
                                cp.send(cycle, env);
                            }
                            terminated.insert(id);
                        }
                    }
                    ScenarioEvent::Crash(id) => {
                        if let Some(client) = clients.get_mut(&id) {
                            client.crash();
                        }
                    }
                    ScenarioEvent::Hang(id, for_cycles) => {
                        if let Some(client) = clients.get_mut(&id) {
                            client.hang(cycle + for_cycles);
                        }
                    }
                }
            }
        }

        assert!(
            noc.run_until_idle(100_000_000),
            "scenario traffic must drain"
        );
        let last_fault = cp.last_fault_cycle();
        let recovery = RecoveryMetrics {
            control_messages_sent: cp.sent(),
            messages_dropped: cp.dropped(),
            messages_delayed: cp.delayed(),
            messages_duplicated: cp.duplicated(),
            client_retransmissions: clients.values().map(Client::retransmissions).sum(),
            conf_retransmissions: rm.conf_retransmissions(),
            duplicates_suppressed: rm.duplicates_suppressed()
                + clients
                    .values()
                    .map(Client::duplicates_suppressed)
                    .sum::<u64>(),
            reclamations: rm.reclamations(),
            safe_mode_entries: rm.safe_mode_entries(),
            faults_injected: cp.injector().injected(),
            reconverged_at_cycle: reconverged_at,
            time_to_reconverge_cycles: match (reconverged_at, last_fault) {
                (Some(at), Some(fault)) => Some(at.saturating_sub(fault)),
                (Some(_), None) => Some(0),
                _ => None,
            },
        };
        Ok(ScenarioOutcome {
            observations,
            delivered: noc.delivered(),
            injected,
            mean_latency_cycles: noc.latency_cycles().mean(),
            rejected,
            protocol_messages: rm.log().len(),
            recovery,
        })
    }
}

/// One lossy segment `[·, boundary)` as a kernel [`Process`].
///
/// The fields borrow the scenario state for the duration of the segment;
/// scripted events are applied between segments, when no borrow is live.
struct LossyEpoch<'a, P> {
    boundary: u64,
    flits: u32,
    sink_node: NodeId,
    rm: &'a mut ResourceManager<P>,
    cp: &'a mut ControlPlane,
    clients: &'a mut BTreeMap<AppId, Client>,
    apps: &'a BTreeMap<AppId, Application>,
    rejected: &'a mut Vec<AppId>,
    reconverged_at: &'a mut Option<u64>,
    noc: &'a mut NocSim,
    next_packet_id: &'a mut u64,
    injected: &'a mut usize,
    packets_acc: &'a mut BTreeMap<AppId, u64>,
}

impl<P: RatePolicy> Process for LossyEpoch<'_, P> {
    type Event = AdmissionEvent;

    fn handle(&mut self, _event: AdmissionEvent, sink: &mut dyn EventSink<AdmissionEvent>) {
        let now = sink.now().as_ns() as u64;
        if now >= self.boundary {
            return;
        }
        process_control(now, self.rm, self.cp, self.clients, self.rejected);
        track_reconvergence(now, self.rm, self.cp, self.clients, self.reconverged_at);
        // The next cycle anything happens on the control plane.
        let mut next = self.boundary;
        let deadlines = [
            self.cp.next_delivery_cycle(),
            self.rm.next_deadline(),
            self.clients
                .values()
                .filter_map(Client::next_timer_cycle)
                .min(),
        ];
        for d in deadlines.into_iter().flatten() {
            if d > now && d < next {
                next = d;
            }
        }
        // Data plane: transmit greedily in [now, next).
        for (app_id, client) in self.clients.iter_mut() {
            let app = self.apps[app_id];
            let mut cursor = now;
            loop {
                match client.request_transmit_before(cursor, 1.0, next) {
                    TransmitDecision::ReleaseAt(c) if c < next => {
                        self.noc.inject(
                            Packet::new(
                                *self.next_packet_id,
                                NodeId(app.node),
                                self.sink_node,
                                self.flits,
                            ),
                            c,
                        );
                        *self.next_packet_id += 1;
                        *self.injected += 1;
                        *self.packets_acc.entry(*app_id).or_insert(0) += 1;
                        cursor = c;
                    }
                    _ => break,
                }
            }
        }
        if next < self.boundary {
            sink.schedule_at(cycle_at(next), AdmissionEvent::Kick);
        }
    }
}

/// Drains every piece of control work due at `now` to a fixed point:
/// due deliveries (routed to the RM or a client, responses resubmitted)
/// and the RM/client timers.
fn process_control<P: RatePolicy>(
    now: u64,
    rm: &mut ResourceManager<P>,
    cp: &mut ControlPlane,
    clients: &mut BTreeMap<AppId, Client>,
    rejected: &mut Vec<AppId>,
) {
    loop {
        let mut progressed = false;
        // Consecutive RM-bound envelopes coalesce into one batch — a
        // single reconfiguration round per delivery burst instead of one
        // per envelope. The batch flushes whenever a client-bound
        // envelope interleaves, so delivery order is preserved exactly.
        let mut rm_batch: Vec<Envelope> = Vec::new();
        for envelope in cp.take_due(now) {
            progressed = true;
            match envelope.to {
                Endpoint::Rm => rm_batch.push(envelope),
                Endpoint::Client(app) => {
                    for response in rm.receive_batch(&rm_batch, now) {
                        cp.send(now, response);
                    }
                    rm_batch.clear();
                    if matches!(envelope.message, ControlMessage::Refusal { .. })
                        && !rejected.contains(&app)
                    {
                        rejected.push(app);
                    }
                    if let Some(client) = clients.get_mut(&app) {
                        for response in client.deliver(envelope, now) {
                            cp.send(now, response);
                        }
                    }
                }
            }
        }
        for response in rm.receive_batch(&rm_batch, now) {
            cp.send(now, response);
        }
        for envelope in rm.poll(now) {
            progressed = true;
            cp.send(now, envelope);
        }
        for client in clients.values_mut() {
            for envelope in client.poll(now) {
                progressed = true;
                cp.send(now, envelope);
            }
        }
        if !progressed {
            return;
        }
    }
}

/// Records the start of the current quiescent stretch: nothing in flight,
/// nothing awaiting an ack, no client hung. Any later disturbance resets
/// it.
fn track_reconvergence<P: RatePolicy>(
    now: u64,
    rm: &ResourceManager<P>,
    cp: &ControlPlane,
    clients: &BTreeMap<AppId, Client>,
    reconverged_at: &mut Option<u64>,
) {
    let quiet = cp.is_empty()
        && rm.pending_conf_count() == 0
        && clients
            .values()
            .all(|c| !c.has_pending_send() && !matches!(c.liveness(), Liveness::Hung { .. }));
    if quiet {
        if reconverged_at.is_none() {
            *reconverged_at = Some(now);
        }
    } else {
        *reconverged_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{SymmetricPolicy, WeightedPolicy};

    fn be(id: u32, node: u32) -> Application {
        Application::best_effort(AppId(id), node)
    }

    #[test]
    fn single_app_uses_its_full_rate() {
        let out = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .horizon(4_000)
            .run();
        assert_eq!(out.injected, out.delivered);
        assert!(out.rejected.is_empty());
        let obs = &out.observations[0];
        // Observed flit rate approaches capacity x flits scaling: the
        // contract is 0.5 req/cycle scaled by 4 flits = 2 flits/cycle,
        // but injection is serialized at 1 flit/cycle by the local port;
        // the client still spaces packets at the token-bucket rate.
        assert!(obs.observed_rate > 0.2, "rate {}", obs.observed_rate);
        assert_eq!(out.recovery, RecoveryMetrics::default());
    }

    #[test]
    fn rates_halve_when_second_app_joins() {
        let out = Scenario::new(SymmetricPolicy::new(0.1, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .event(10_000, ScenarioEvent::Activate(be(1, 3)))
            .horizon(20_000)
            .run();
        let app0: Vec<&IntervalObservation> = out
            .observations
            .iter()
            .filter(|o| o.app == AppId(0))
            .collect();
        assert_eq!(app0.len(), 2);
        assert_eq!(app0[0].mode, 1);
        assert_eq!(app0[1].mode, 2);
        let ratio = app0[1].observed_rate / app0[0].observed_rate;
        assert!(
            (ratio - 0.5).abs() < 0.15,
            "rate should roughly halve, got {ratio:.2} ({} vs {})",
            app0[0].observed_rate,
            app0[1].observed_rate
        );
    }

    #[test]
    fn termination_restores_rates() {
        let out = Scenario::new(SymmetricPolicy::new(0.1, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .event(8_000, ScenarioEvent::Activate(be(1, 3)))
            .event(16_000, ScenarioEvent::Terminate(AppId(1)))
            .horizon(24_000)
            .run();
        let app0: Vec<&IntervalObservation> = out
            .observations
            .iter()
            .filter(|o| o.app == AppId(0))
            .collect();
        assert_eq!(app0.len(), 3);
        assert!(app0[2].observed_rate > app0[1].observed_rate * 1.5);
        assert_eq!(app0[2].mode, 1);
    }

    #[test]
    fn repeated_activation_of_an_active_app_is_a_no_op() {
        let out = Scenario::new(SymmetricPolicy::new(0.1, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .event(2_000, ScenarioEvent::Activate(be(0, 0)))
            .horizon(4_000)
            .run();
        let modes: Vec<usize> = out.observations.iter().map(|o| o.mode).collect();
        assert_eq!(modes, vec![1, 1]);
        assert_eq!(out.observations[0].app, AppId(0));
        assert_eq!(out.observations[1].app, AppId(0));
        // One actMsg, one stop/conf round: the repeat sent nothing.
        assert_eq!(out.protocol_messages, 3);
    }

    #[test]
    fn critical_rate_survives_weighted_scenario() {
        let critical = Application::critical(AppId(0), 0, 40); // 0.04 req/cyc
        let out = Scenario::new(WeightedPolicy::new(0.1, 8.0, 0.001), 4, 4)
            .event(0, ScenarioEvent::Activate(critical))
            .event(8_000, ScenarioEvent::Activate(be(1, 3)))
            .event(16_000, ScenarioEvent::Activate(be(2, 12)))
            .horizon(24_000)
            .run();
        let crit: Vec<&IntervalObservation> = out
            .observations
            .iter()
            .filter(|o| o.app == AppId(0))
            .collect();
        assert_eq!(crit.len(), 3);
        for w in crit.windows(2) {
            let drift = (w[1].observed_rate - w[0].observed_rate).abs();
            assert!(
                drift < 0.05 * w[0].observed_rate.max(0.01),
                "critical rate drifted: {} -> {}",
                w[0].observed_rate,
                w[1].observed_rate
            );
        }
    }

    #[test]
    fn infeasible_admission_is_rejected_and_harmless() {
        let a = Application::critical(AppId(0), 0, 80);
        let b = Application::critical(AppId(1), 3, 80);
        let out = Scenario::new(WeightedPolicy::new(0.1, 8.0, 0.0), 4, 4)
            .event(0, ScenarioEvent::Activate(a))
            .event(5_000, ScenarioEvent::Activate(b))
            .horizon(10_000)
            .run();
        assert_eq!(out.rejected, vec![AppId(1)]);
        assert_eq!(out.injected, out.delivered);
        // The admitted app keeps transmitting in mode 1 throughout.
        assert!(out
            .observations
            .iter()
            .filter(|o| o.app == AppId(0))
            .all(|o| o.mode == 1));
    }

    #[test]
    fn publish_metrics_exports_outcome_and_recovery() {
        let out = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .horizon(4_000)
            .run();
        let mut m = MetricsRegistry::new();
        out.publish_metrics(&mut m);
        assert_eq!(m.counter("admission.packets_injected"), out.injected as u64);
        assert_eq!(
            m.counter("admission.packets_delivered"),
            out.delivered as u64
        );
        assert_eq!(
            m.counter("admission.protocol_messages"),
            out.protocol_messages as u64
        );
        assert_eq!(
            m.gauge("admission.mean_latency_cycles"),
            Some(out.mean_latency_cycles)
        );
        assert_eq!(
            m.histogram("admission.observed_rate_flits_per_cycle")
                .expect("observations")
                .count(),
            out.observations.len() as u64
        );
        // Ideal control plane: recovery counters exist and are zero.
        assert_eq!(m.counter("admission.recovery.faults_injected"), 0);
        assert_eq!(m.counter("admission.recovery.reclamations"), 0);
        autoplat_sim::metrics::validate_json_export(&m.to_json()).expect("schema");
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_events_rejected() {
        let _ = Scenario::new(SymmetricPolicy::new(0.1, 8.0), 2, 2)
            .event(100, ScenarioEvent::Activate(be(0, 0)))
            .event(50, ScenarioEvent::Activate(be(1, 1)))
            .run();
    }

    #[test]
    fn try_run_reports_typed_errors() {
        let err = Scenario::new(SymmetricPolicy::new(0.1, 8.0), 2, 2)
            .event(100, ScenarioEvent::Activate(be(0, 0)))
            .event(50, ScenarioEvent::Activate(be(1, 1)))
            .try_run()
            .unwrap_err();
        assert_eq!(err, AdmissionError::UnorderedEvents);
        let err = Scenario::new(SymmetricPolicy::new(0.1, 8.0), 2, 2)
            .event(100, ScenarioEvent::Activate(be(0, 0)))
            .horizon(50)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, AdmissionError::HorizonBeforeLastEvent { .. }));
        let err = Scenario::new(SymmetricPolicy::new(0.1, 8.0), 2, 2)
            .sink(NodeId(99))
            .try_run()
            .unwrap_err();
        assert_eq!(err, AdmissionError::SinkOutsideMesh);
        let err = Scenario::new(SymmetricPolicy::new(0.1, 8.0), 2, 2)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .event(100, ScenarioEvent::Activate(be(1, 4)))
            .try_run()
            .unwrap_err();
        assert_eq!(err, AdmissionError::NodeOutsideMesh { app: AppId(1) });
        for (cols, rows) in [(0, 4), (4, 0)] {
            let err = Scenario::new(SymmetricPolicy::new(0.1, 8.0), cols, rows).try_run();
            assert_eq!(err.unwrap_err(), AdmissionError::EmptyMesh);
        }
    }

    // --- lossy control plane ---

    #[test]
    fn lossless_fault_path_matches_admission_outcome() {
        // An *empty but forced* fault path (a Hang of 1 cycle on a
        // non-existent app routes to run_lossy) still admits and serves.
        let out = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .event(1, ScenarioEvent::Hang(AppId(9), 1))
            .horizon(4_000)
            .run();
        assert!(out.rejected.is_empty());
        assert!(out.injected > 0);
        assert_eq!(out.injected, out.delivered);
        assert!(out.recovery.control_messages_sent > 0);
        assert_eq!(out.recovery.messages_dropped, 0);
        assert!(out.recovery.reconverged_at_cycle.is_some());

        // Three activations and a termination drain all they inject on the
        // ideal plane, the same forced lossless path and under 1% loss.
        for (plan, hang) in [
            (FaultPlan::none(), false),
            (FaultPlan::none(), true),
            (FaultPlan::new().drop_probability(0.01), false),
        ] {
            let mut s = Scenario::new(SymmetricPolicy::new(0.1, 8.0), 4, 4)
                .event(0, ScenarioEvent::Activate(be(0, 0)))
                .event(2_000, ScenarioEvent::Activate(be(1, 3)))
                .event(4_000, ScenarioEvent::Activate(be(2, 12)))
                .event(6_000, ScenarioEvent::Terminate(AppId(1)))
                .horizon(8_000)
                .faults(plan, 0xfa11);
            if hang {
                s = s.event(7_000, ScenarioEvent::Hang(AppId(9), 1));
            }
            let out = s.run();
            assert!(out.injected > 0);
            assert_eq!(out.injected, out.delivered, "hang {hang}");
            // App 1 reports while it runs and stops at its termination.
            let app1: Vec<_> = out
                .observations
                .iter()
                .filter(|o| o.app == AppId(1))
                .collect();
            assert!(app1.iter().any(|o| o.from_cycle < 6_000), "hang {hang}");
            assert!(
                app1.iter().all(|o| o.from_cycle < 6_000),
                "terminated app still reported (hang {hang}): {app1:?}"
            );
        }
    }

    #[test]
    fn dropped_conf_is_retransmitted_not_deadlocked() {
        let plan = FaultPlan::new().drop_nth("confMsg", 0);
        let out = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .horizon(8_000)
            .faults(plan, 11)
            .run();
        assert_eq!(out.recovery.messages_dropped, 1);
        assert!(
            out.recovery.conf_retransmissions >= 1,
            "the lost conf must be retried"
        );
        // The app still ends up transmitting.
        assert!(out.injected > 0);
        assert!(out.recovery.reconverged_at_cycle.is_some());
    }

    #[test]
    fn crashed_client_is_reclaimed_within_watchdog_timeout() {
        let out = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .event(1_000, ScenarioEvent::Activate(be(1, 3)))
            .event(3_000, ScenarioEvent::Crash(AppId(1)))
            .horizon(12_000)
            .watchdog(WatchdogConfig {
                timeout_cycles: 2_000,
                quarantine_threshold: 3,
                quarantine_cooldown_cycles: 10_000,
            })
            .run();
        assert_eq!(out.recovery.reclamations, 1);
        // Survivor's final interval is back at full (mode-1) rate.
        let last = out
            .observations
            .iter()
            .rfind(|o| o.app == AppId(0))
            .expect("observed");
        assert_eq!(last.mode, 1, "watchdog forced the mode transition");
    }

    #[test]
    fn same_fault_seed_is_bit_identical() {
        let run = |seed: u64| {
            let plan = FaultPlan::new()
                .drop_probability(0.05)
                .duplicate_probability(0.05)
                .delay_probability(0.1)
                .max_delay_cycles(300);
            Scenario::new(SymmetricPolicy::new(0.2, 8.0), 4, 4)
                .event(0, ScenarioEvent::Activate(be(0, 0)))
                .event(2_000, ScenarioEvent::Activate(be(1, 3)))
                .event(6_000, ScenarioEvent::Terminate(AppId(0)))
                .horizon(10_000)
                .faults(plan, seed)
                .run()
        };
        let (a, b) = (run(77), run(77));
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn hang_blocks_then_recovers() {
        let out = Scenario::new(SymmetricPolicy::new(0.5, 8.0), 4, 4)
            .event(0, ScenarioEvent::Activate(be(0, 0)))
            .event(2_000, ScenarioEvent::Hang(AppId(0), 1_000))
            .horizon(8_000)
            .heartbeat_interval(400)
            .run();
        // The hang window transmits nothing, but transmission resumes.
        let obs: Vec<&IntervalObservation> = out
            .observations
            .iter()
            .filter(|o| o.app == AppId(0))
            .collect();
        assert_eq!(obs.len(), 2);
        assert!(obs[1].packets > 0, "client recovered after the hang");
        assert!(out.recovery.reconverged_at_cycle.is_some());
    }
}
