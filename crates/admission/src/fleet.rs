//! Deterministic fleet-scale admission simulation.
//!
//! [`FleetSim`] drives a synthetic population of up to 10^6 clients
//! against either topology on the shared event kernel:
//!
//! * [`FleetTopology::Flat`] — one [`ResourceManager`] owning every
//!   client on a single lossy control plane (the pre-hierarchy baseline,
//!   O(clients) per admission round — usable at smoke scale, hopeless at
//!   fleet scale);
//! * [`FleetTopology::Hierarchical`] — N [`ClusterRm`]s, each owning the
//!   shard `client % clusters`, coalescing control traffic into per-step
//!   bundles towards a [`RootArbiter`] that owns the global guaranteed
//!   budget.
//!
//! Clients are modelled as a minimal supervisor state machine (activate
//! with bounded retransmission, acknowledge configs, heartbeat while
//! admitted) on a lazily-invalidated timer wheel, so the whole fleet
//! costs O(due work) per kick rather than O(clients).
//!
//! A kick also costs what it delivers, not bookkeeping: the planes drain
//! into buffers the sim keeps across kicks (the per-cluster inboxes, the
//! bundle drain buffer, the root-bound and down-bound bundle lists), the
//! wheel arms a timer with one hashed push and reuses the id lists of
//! fired cycles, the RMs keep one hashed record per client and their
//! watchdog in a heard-order index, and the sim caches each cluster's
//! next deadline between its steps. A steady stream of heartbeats
//! therefore allocates nothing per message beyond the occasional growth
//! of a queue, a hashed map or a heap.
//!
//! Everything is seeded: plane fault injectors derive from
//! [`FleetConfig::seed`], timers depend only on client ids, and delivery
//! order is the lossy links' deterministic `(cycle, send order)`. Two
//! runs of the same config produce byte-identical
//! [`FleetOutcome`]s and metric exports — the property the `fleet`
//! conformance family double-runs.
//!
//! Reconvergence after a crash storm is measured without waiting for the
//! planes to drain (heartbeats never stop): the sim tracks the last
//! cycle any state-transition counter moved, and
//! [`FleetOutcome::reconverge_cycles`] is the gap from the storm to that
//! final transition.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use autoplat_sim::hash::FxHashMap;
use autoplat_sim::{
    Engine, EventSink, FaultPlan, HistogramSketch, MetricsRegistry, Process, SimTime,
};

use crate::app::{AppId, Application};
use crate::client::RetryPolicy;
use crate::control_plane::{BundlePlane, ControlPlane};
use crate::error::AdmissionError;
use crate::modes::WeightedPolicy;
use crate::protocol::{
    BundleFrame, ClusterBundle, ClusterId, ControlMessage, Endpoint, Envelope, RootBundle,
};
use crate::rm::cluster::ClusterRm;
use crate::rm::root::RootArbiter;
use crate::rm::{earliest, ResourceManager, WatchdogConfig};

/// Which admission topology the fleet runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetTopology {
    /// One flat RM for the whole population.
    Flat,
    /// Per-cluster RMs under the root arbiter.
    Hierarchical,
}

/// Events driving the fleet on the shared kernel (1 cycle = 1 ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// Process all fleet work due now, then re-arm at the next deadline.
    Kick,
}

/// Kernel time of a protocol cycle.
fn cycle_at(cycle: u64) -> SimTime {
    SimTime::from_ns(cycle as f64)
}

/// Token-bucket burst every fleet policy hands out.
const BURST: f64 = 8.0;

/// The sequence number every heartbeat reuses. Heartbeats are idempotent
/// liveness beacons — the RM touches the watchdog *before* duplicate
/// suppression — so a repeated seq still proves life, and the RM's
/// per-peer receive window holds this one seq above its floor instead
/// of one per heartbeat.
const HEARTBEAT_SEQ: u64 = u64::MAX;

/// Fleet scenario parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Population size. Client `i` supervises `Application` id `i` on
    /// node `i`.
    pub clients: u32,
    /// Shard count for [`FleetTopology::Hierarchical`]; client `i`
    /// belongs to cluster `i % clusters`.
    pub clusters: u32,
    /// Global guaranteed-capacity budget, in milli-items/cycle.
    pub capacity_milli: u64,
    /// Overrides the *root arbiter's* budget only, leaving the per-shard
    /// policies at `capacity_milli`. The falsifiability hook: a
    /// mismatched root budget makes the hierarchy visibly diverge from
    /// the flat RM.
    pub root_capacity_milli: Option<u64>,
    /// Guaranteed demand of each critical client, in milli-items/cycle.
    pub demand_milli: u32,
    /// Every `critical_every`-th client is critical (1 = the whole
    /// population), the rest best-effort.
    pub critical_every: u32,
    /// Clients activating per wave.
    pub wave_size: u32,
    /// Cycles between wave starts.
    pub wave_interval: u64,
    /// One-way client ⇄ cluster-RM latency, in cycles.
    pub client_latency_cycles: u64,
    /// One-way cluster ⇄ root latency, in cycles.
    pub bundle_latency_cycles: u64,
    /// Client heartbeat period; also the clusters' idle digest cadence.
    pub heartbeat_interval_cycles: u64,
    /// Shard-RM watchdog configuration.
    pub watchdog: WatchdogConfig,
    /// Client-side `actMsg` retransmission pacing.
    pub client_retry: RetryPolicy,
    /// RM-side `confMsg` retransmission pacing.
    pub rm_retry: RetryPolicy,
    /// Bundle-level (cluster ⇄ root) retransmission pacing.
    pub bundle_retry: RetryPolicy,
    /// Root-side silence budget before a cluster is quarantined.
    pub cluster_timeout_cycles: u64,
    /// Message-fault plan applied to every plane (per-plane seeded
    /// injectors derive from [`FleetConfig::seed`]).
    pub fault_plan: FaultPlan,
    /// Clients killed by the crash storm (spread evenly over the id
    /// space).
    pub crashes: u32,
    /// Cycle of the crash storm, if any.
    pub crash_at: Option<u64>,
    /// Simulation horizon, in cycles.
    pub horizon: u64,
    /// Master determinism seed.
    pub seed: u64,
    /// Topology under test.
    pub topology: FleetTopology,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 10_000,
            clusters: 16,
            capacity_milli: 1_000_000,
            root_capacity_milli: None,
            demand_milli: 100,
            critical_every: 1,
            wave_size: 1_000,
            wave_interval: 500,
            client_latency_cycles: 20,
            bundle_latency_cycles: 50,
            heartbeat_interval_cycles: 2_500,
            watchdog: WatchdogConfig {
                timeout_cycles: 10_000,
                quarantine_threshold: 1,
                quarantine_cooldown_cycles: 50_000,
            },
            client_retry: RetryPolicy::new(192, 8),
            rm_retry: RetryPolicy::new(192, 8),
            bundle_retry: RetryPolicy::new(64, 6),
            cluster_timeout_cycles: 20_000,
            fault_plan: FaultPlan::none(),
            crashes: 0,
            crash_at: None,
            horizon: 60_000,
            seed: 1,
            topology: FleetTopology::Hierarchical,
        }
    }
}

/// Lifecycle of one synthetic client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Wave not reached yet.
    Idle,
    /// `actMsg` sent, awaiting `confMsg`/`rejMsg`.
    Pending,
    /// Confirmed; heartbeating.
    Admitted,
    /// Refused by the RM (terminal).
    Refused,
    /// Retransmission budget exhausted without an answer (terminal).
    GaveUp,
    /// Killed by the crash storm: deaf and mute (terminal).
    Crashed,
}

/// One synthetic client: the smallest state machine that exercises the
/// RM's admission, ack, heartbeat and watchdog paths.
#[derive(Debug, Clone)]
struct FleetClient {
    phase: Phase,
    /// Activation attempts so far (first send counts as 1).
    attempts: u32,
    /// Fresh per-message sequence for acks; `actMsg` always reuses seq 0
    /// so RM-side duplicate suppression absorbs retransmissions.
    next_seq: u64,
    /// Fire cycle of the currently armed timer. Re-arming never removes
    /// the client's older wheel entry: an entry whose cycle doesn't match
    /// is stale and skipped when its cycle fires, so re-arming costs one
    /// push into the new cycle's id list.
    armed_at: u64,
}

impl FleetClient {
    fn new() -> Self {
        FleetClient {
            phase: Phase::Idle,
            attempts: 0,
            next_seq: 1,
            armed_at: u64::MAX,
        }
    }
}

/// Client-phase transition counters (the client-side half of the
/// reconvergence signature).
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    admitted: u64,
    refused: u64,
    gave_up: u64,
    crashed: u64,
}

/// The topology under simulation.
#[allow(clippy::large_enum_variant)] // Flat is boxed; Hier is the big working set
enum Topo {
    Flat {
        rm: Box<ResourceManager<WeightedPolicy>>,
        plane: ControlPlane,
    },
    Hier {
        cluster_rms: Vec<ClusterRm<WeightedPolicy>>,
        /// Each cluster's [`ClusterRm::next_deadline`], refreshed after
        /// its every step, the only call that moves a cluster's timers;
        /// a kick reads these instead of asking every cluster.
        deadlines: Vec<Option<u64>>,
        planes: Vec<ControlPlane>,
        bundle_plane: BundlePlane,
        root: RootArbiter,
    },
}

/// What a fleet run produced. Field order groups the per-client outcome
/// sets (sorted, disjoint), the budget view, and the convergence and
/// traffic measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Clients admitted and still live at the horizon.
    pub admitted: Vec<AppId>,
    /// Clients explicitly refused.
    pub refused: Vec<AppId>,
    /// Clients whose activation retransmission budget ran dry.
    pub gave_up: Vec<AppId>,
    /// Clients killed by the crash storm.
    pub crashed: Vec<AppId>,
    /// Clients quarantined by a shard watchdog.
    pub quarantined: Vec<AppId>,
    /// Size of the union of RM active sets at the horizon.
    pub active_clients: u64,
    /// Σ guaranteed demand of active critical clients, in milli.
    pub active_guaranteed_milli: u64,
    /// The root arbiter's granted total (hierarchy only). Conservation:
    /// equals [`FleetOutcome::active_guaranteed_milli`] once quiescent.
    pub root_granted_milli: Option<u64>,
    /// Clusters reclaimed by the root watchdog (hierarchy only).
    pub cluster_reclaims: u64,
    /// Shard-level watchdog reclamations across the fleet.
    pub client_reclaims: u64,
    /// Last cycle any state-transition counter moved.
    pub last_transition_cycle: u64,
    /// Cycles from the crash storm to the last state transition, when a
    /// storm was configured.
    pub reconverge_cycles: Option<u64>,
    /// Client-plane envelopes submitted (all planes).
    pub control_messages: u64,
    /// Bundle-plane frames submitted (hierarchy only).
    pub bundles: u64,
    /// Per-step RM inbox depths (only non-empty steps are sampled).
    pub queue_depth: HistogramSketch,
    /// Kernel kicks processed.
    pub kicks: u64,
    /// The configured horizon, for rate normalisation.
    pub horizon: u64,
}

impl FleetOutcome {
    /// Publishes the outcome into the `fleet.*` metric namespace
    /// (autoplat.metrics.v1). Wall-clock throughput gauges are the bench
    /// binary's job — everything here is simulation-deterministic.
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter_add("fleet.clients_admitted", self.admitted.len() as u64);
        reg.counter_add("fleet.clients_refused", self.refused.len() as u64);
        reg.counter_add("fleet.clients_gave_up", self.gave_up.len() as u64);
        reg.counter_add("fleet.clients_crashed", self.crashed.len() as u64);
        reg.counter_add("fleet.clients_quarantined", self.quarantined.len() as u64);
        reg.counter_add("fleet.client_reclaims", self.client_reclaims);
        reg.counter_add("fleet.cluster_reclaims", self.cluster_reclaims);
        reg.counter_add("fleet.control_messages", self.control_messages);
        reg.counter_add("fleet.bundles", self.bundles);
        reg.counter_add("fleet.kicks", self.kicks);
        reg.gauge_set("fleet.active_clients", self.active_clients as f64);
        reg.gauge_set(
            "fleet.active_guaranteed_milli",
            self.active_guaranteed_milli as f64,
        );
        if let Some(granted) = self.root_granted_milli {
            reg.gauge_set("fleet.root_granted_milli", granted as f64);
        }
        reg.gauge_set(
            "fleet.last_transition_cycle",
            self.last_transition_cycle as f64,
        );
        if let Some(cycles) = self.reconverge_cycles {
            reg.gauge_set("fleet.reconverge_cycles", cycles as f64);
        }
        reg.merge_histogram("fleet.queue_depth", &self.queue_depth);
    }
}

/// The clients' timer wheel: hashed slots from fire cycle to the ids
/// armed for that cycle, in arm order, plus a min-heap of the distinct
/// armed cycles. An arm is one hashed push; the heap changes only when a
/// cycle gets its first id or fires, and holds exactly the slots' keys,
/// so [`next`](Self::next) and [`pop_due`](Self::pop_due) answer what an
/// ordered map of the slots would. Stale entries (client re-armed since)
/// are skipped via [`FleetClient::armed_at`]. The id lists of fired
/// cycles are cleared into a spare pool and reused for later cycles, so
/// a steady heartbeat stream allocates no id lists.
#[derive(Debug, Default)]
struct TimerWheel {
    slots: FxHashMap<u64, Vec<u32>>,
    cycles: BinaryHeap<Reverse<u64>>,
    spare: Vec<Vec<u32>>,
}

impl TimerWheel {
    /// Arms the client's one timer at `at` (the newest arm wins; older
    /// entries become stale).
    fn arm(&mut self, client: &mut FleetClient, id: u32, at: u64) {
        client.armed_at = at;
        self.slots
            .entry(at)
            .or_insert_with(|| {
                self.cycles.push(Reverse(at));
                self.spare.pop().unwrap_or_default()
            })
            .push(id);
    }

    /// The earliest armed cycle.
    fn next(&self) -> Option<u64> {
        self.cycles.peek().map(|&Reverse(cycle)| cycle)
    }

    /// Removes the earliest cycle and its ids, if it is due by `now`.
    fn pop_due(&mut self, now: u64) -> Option<(u64, Vec<u32>)> {
        let cycle = self.next().filter(|&cycle| cycle <= now)?;
        self.cycles.pop();
        let ids = self
            .slots
            .remove(&cycle)
            .expect("every heap cycle has a slot");
        Some((cycle, ids))
    }

    /// Returns a fired cycle's id list to the pool.
    fn recycle(&mut self, mut ids: Vec<u32>) {
        ids.clear();
        self.spare.push(ids);
    }
}

/// Buffers a kick fills and empties again, kept across kicks so that
/// once they have grown a kick allocates none of them.
#[derive(Debug, Default)]
struct KickBuffers {
    /// RM-bound envelopes per cluster (the one flat RM's at index 0).
    inboxes: Vec<Vec<Envelope>>,
    /// What the bundle plane delivered this kick.
    frames: Vec<BundleFrame>,
    /// Cluster bundles bound for the root.
    to_root: Vec<ClusterBundle>,
    /// Root bundles per destination cluster.
    downs: Vec<Vec<RootBundle>>,
}

/// The fleet simulation: population, planes, topology and timers.
pub struct FleetSim {
    cfg: FleetConfig,
    clients: Vec<FleetClient>,
    wheel: TimerWheel,
    buffers: KickBuffers,
    topo: Topo,
    counts: Counts,
    next_wave: u32,
    total_waves: u32,
    storm_done: bool,
    queue_depth: HistogramSketch,
    last_signature: u64,
    last_transition_cycle: u64,
    kicks: u64,
}

/// Splitmix-style seed derivation so each plane gets an independent but
/// reproducible fault stream.
fn derive_seed(master: u64, salt: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn actmsg(id: u32, now: u64) -> Envelope {
    Envelope {
        from: Endpoint::Client(AppId(id)),
        to: Endpoint::Rm,
        seq: 0,
        sent_at_cycle: now,
        message: ControlMessage::Activation { app: AppId(id) },
    }
}

fn heartbeat(id: u32, now: u64) -> Envelope {
    Envelope {
        from: Endpoint::Client(AppId(id)),
        to: Endpoint::Rm,
        seq: HEARTBEAT_SEQ,
        sent_at_cycle: now,
        message: ControlMessage::Heartbeat { app: AppId(id) },
    }
}

/// Drains what `plane` delivers by `now` into `inbox`, in delivery order,
/// and keeps only the RM-bound envelopes there: each client-bound one is
/// applied to its client, whose reply goes straight back onto the plane.
fn drain_client_plane(
    plane: &mut ControlPlane,
    inbox: &mut Vec<Envelope>,
    clients: &mut [FleetClient],
    wheel: &mut TimerWheel,
    counts: &mut Counts,
    heartbeat_interval: u64,
    now: u64,
) {
    plane.drain_due(now, inbox);
    inbox.retain(|envelope| match envelope.to {
        Endpoint::Rm => true,
        Endpoint::Client(app) => {
            if let Some(reply) = deliver_to_client(
                &mut clients[app.0 as usize],
                wheel,
                counts,
                heartbeat_interval,
                app.0,
                envelope,
                now,
            ) {
                plane.send(now, reply);
            }
            false
        }
    });
}

/// Applies one RM→client envelope to the client state machine, returning
/// the client's reply (an ack of a `confMsg`), if any.
fn deliver_to_client(
    client: &mut FleetClient,
    wheel: &mut TimerWheel,
    counts: &mut Counts,
    heartbeat_interval: u64,
    id: u32,
    envelope: &Envelope,
    now: u64,
) -> Option<Envelope> {
    if client.phase == Phase::Crashed {
        return None;
    }
    match envelope.message {
        ControlMessage::Config { .. } => {
            if client.phase == Phase::Pending {
                client.phase = Phase::Admitted;
                counts.admitted += 1;
                // Stagger first heartbeats by id so a wave of admissions
                // doesn't heartbeat in lockstep forever.
                let offset = id as u64 % heartbeat_interval.max(1);
                wheel.arm(client, id, now + 1 + offset);
            }
            let seq = client.next_seq;
            client.next_seq += 1;
            Some(Envelope {
                from: Endpoint::Client(AppId(id)),
                to: Endpoint::Rm,
                seq,
                sent_at_cycle: now,
                message: ControlMessage::Ack {
                    app: AppId(id),
                    of_seq: envelope.seq,
                },
            })
        }
        ControlMessage::Refusal { .. } => {
            if client.phase == Phase::Pending {
                client.phase = Phase::Refused;
                counts.refused += 1;
            }
            None
        }
        // Stops carry no obligation (no data plane here); acks of our
        // actMsg are informational — only the conf admits.
        _ => None,
    }
}

impl FleetSim {
    /// Builds the fleet: registers every client's application with its
    /// owning RM and prepares the (still idle) planes and timers.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters; use [`FleetSim::try_new`] for a
    /// typed error.
    pub fn new(cfg: FleetConfig) -> Self {
        FleetSim::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the fleet, rejecting degenerate parameters with
    /// [`AdmissionError::InvalidFleet`]: zero `clusters` under the
    /// hierarchical topology, zero `wave_size` or `critical_every`, or
    /// more `crashes` than clients.
    pub fn try_new(cfg: FleetConfig) -> Result<Self, AdmissionError> {
        let invalid = |what| Err(AdmissionError::InvalidFleet { what });
        if cfg.topology == FleetTopology::Hierarchical && cfg.clusters == 0 {
            return invalid("the hierarchy needs at least one cluster");
        }
        if cfg.wave_size == 0 {
            return invalid("wave_size must be positive");
        }
        if cfg.critical_every == 0 {
            return invalid("critical_every must be positive");
        }
        if cfg.crashes > cfg.clients {
            return invalid("cannot crash more clients than exist");
        }
        let app_for = |i: u32| {
            if i.is_multiple_of(cfg.critical_every) {
                Application::critical(AppId(i), i, cfg.demand_milli)
            } else {
                Application::best_effort(AppId(i), i)
            }
        };
        let capacity = cfg.capacity_milli as f64 / 1000.0;
        let topo = match cfg.topology {
            FleetTopology::Flat => {
                // Sub-half-milli guard band: demands are milli-granular,
                // so an infeasible set overshoots capacity by >= 0.001
                // while a feasible one only "overshoots" by f64
                // summation error (~2e-9 at 10^4 clients). The band is
                // far above the error and far below the granularity, so
                // no admission decision changes.
                let mut rm = ResourceManager::new(
                    WeightedPolicy::new(capacity.max(0.001) + 4e-4, BURST, 0.0),
                    cfg.client_latency_cycles as f64,
                )
                .with_watchdog(cfg.watchdog)
                .with_retry(cfg.rm_retry)
                .with_delta_confs(true);
                for i in 0..cfg.clients {
                    rm.register(app_for(i));
                }
                Topo::Flat {
                    rm: Box::new(rm),
                    plane: ControlPlane::new(
                        cfg.fault_plan.clone(),
                        derive_seed(cfg.seed, 0),
                        cfg.client_latency_cycles,
                    ),
                }
            }
            FleetTopology::Hierarchical => {
                let mut cluster_rms = Vec::with_capacity(cfg.clusters as usize);
                let mut planes = Vec::with_capacity(cfg.clusters as usize);
                for c in 0..cfg.clusters {
                    // +1.0 guard band: the root's integer arbitration is
                    // the real feasibility gate (preapproved admissions
                    // skip the policy check), and the slack keeps the
                    // shard policy's f64 sum from spuriously tripping on
                    // rounding when a shard holds nearly the whole
                    // budget.
                    let inner = ResourceManager::new(
                        WeightedPolicy::new(capacity + 1.0, BURST, 0.0),
                        cfg.client_latency_cycles as f64,
                    )
                    .with_watchdog(cfg.watchdog)
                    .with_retry(cfg.rm_retry)
                    .with_delta_confs(true)
                    .with_preapproved(true);
                    cluster_rms.push(ClusterRm::new(
                        ClusterId(c),
                        inner,
                        cfg.bundle_retry,
                        cfg.heartbeat_interval_cycles,
                    ));
                    planes.push(ControlPlane::new(
                        cfg.fault_plan.clone(),
                        derive_seed(cfg.seed, 1 + c as u64),
                        cfg.client_latency_cycles,
                    ));
                }
                for i in 0..cfg.clients {
                    cluster_rms[(i % cfg.clusters) as usize]
                        .inner_mut()
                        .register(app_for(i));
                }
                let root_capacity = cfg.root_capacity_milli.unwrap_or(cfg.capacity_milli);
                let mut root =
                    RootArbiter::new(root_capacity, cfg.bundle_retry, cfg.cluster_timeout_cycles);
                for c in 0..cfg.clusters {
                    root.register_cluster(ClusterId(c), 0);
                }
                Topo::Hier {
                    deadlines: cluster_rms.iter().map(ClusterRm::next_deadline).collect(),
                    cluster_rms,
                    planes,
                    bundle_plane: BundlePlane::new(
                        cfg.fault_plan.clone(),
                        derive_seed(cfg.seed, u64::from(u32::MAX)),
                        cfg.bundle_latency_cycles,
                    ),
                    root,
                }
            }
        };
        let total_waves = cfg.clients.div_ceil(cfg.wave_size);
        let inboxes = match &topo {
            Topo::Flat { .. } => 1,
            Topo::Hier { cluster_rms, .. } => cluster_rms.len(),
        };
        let buffers = KickBuffers {
            inboxes: vec![Vec::new(); inboxes],
            downs: vec![Vec::new(); inboxes],
            ..KickBuffers::default()
        };
        Ok(FleetSim {
            clients: vec![FleetClient::new(); cfg.clients as usize],
            wheel: TimerWheel::default(),
            buffers,
            topo,
            counts: Counts::default(),
            next_wave: 0,
            total_waves,
            storm_done: cfg.crashes == 0 || cfg.crash_at.is_none(),
            queue_depth: HistogramSketch::new(),
            last_signature: u64::MAX,
            last_transition_cycle: 0,
            kicks: 0,
            cfg,
        })
    }

    /// Runs the fleet to its horizon on the shared kernel and returns
    /// the outcome.
    pub fn run(mut self) -> FleetOutcome {
        let horizon = self.cfg.horizon;
        let mut engine: Engine<FleetEvent> = Engine::new();
        engine.schedule_at(cycle_at(0), FleetEvent::Kick);
        engine.run_until(&mut self, cycle_at(horizon));
        self.into_outcome()
    }

    fn send_upstream(topo: &mut Topo, clusters: u32, id: u32, envelope: Envelope, now: u64) {
        match topo {
            Topo::Flat { plane, .. } => plane.send(now, envelope),
            Topo::Hier { planes, .. } => {
                planes[(id % clusters) as usize].send(now, envelope);
            }
        }
    }

    /// Starts every wave due by `now`: fresh clients go `Pending`, send
    /// their `actMsg` and arm the retransmission timer.
    fn run_waves(&mut self, now: u64) {
        while self.next_wave < self.total_waves
            && u64::from(self.next_wave) * self.cfg.wave_interval <= now
        {
            let lo = self.next_wave * self.cfg.wave_size;
            let hi = (lo + self.cfg.wave_size).min(self.cfg.clients);
            self.next_wave += 1;
            for id in lo..hi {
                if self.clients[id as usize].phase != Phase::Idle {
                    continue;
                }
                self.clients[id as usize].phase = Phase::Pending;
                self.clients[id as usize].attempts = 1;
                Self::send_upstream(&mut self.topo, self.cfg.clusters, id, actmsg(id, now), now);
                let at = now + self.cfg.client_retry.backoff_cycles(0);
                self.wheel.arm(&mut self.clients[id as usize], id, at);
            }
        }
    }

    /// Kills the configured slice of the population once `crash_at`
    /// passes: crashed clients stop transmitting and acknowledging, so
    /// the shard watchdogs must reclaim them.
    fn run_storm(&mut self, now: u64) {
        if self.storm_done {
            return;
        }
        let Some(at) = self.cfg.crash_at else {
            return;
        };
        if now < at {
            return;
        }
        self.storm_done = true;
        // A storm of zero crashes kills nobody (and must not divide by 0).
        let stride = (self.cfg.clients / self.cfg.crashes.max(1)).max(1);
        for k in 0..self.cfg.crashes {
            let id = (k * stride) as usize;
            if self.clients[id].phase != Phase::Crashed {
                self.clients[id].phase = Phase::Crashed;
                self.counts.crashed += 1;
            }
        }
    }

    /// Drains plane deliveries due at `now` and steps the RMs: client
    /// replies go straight back onto the plane, RM-bound envelopes batch
    /// into one `receive_batch` per RM, and — hierarchically — cluster
    /// bundles fan through the root. Every list it fills is a
    /// [`KickBuffers`] field, left empty for the next kick.
    fn process_planes(&mut self, now: u64) {
        let heartbeat_interval = self.cfg.heartbeat_interval_cycles;
        let KickBuffers {
            inboxes,
            frames,
            to_root,
            downs,
        } = &mut self.buffers;
        match &mut self.topo {
            Topo::Flat { rm, plane } => {
                let inbox = &mut inboxes[0];
                drain_client_plane(
                    plane,
                    inbox,
                    &mut self.clients,
                    &mut self.wheel,
                    &mut self.counts,
                    heartbeat_interval,
                    now,
                );
                if !inbox.is_empty() {
                    self.queue_depth.record(inbox.len() as f64);
                }
                for envelope in rm.receive_batch(inbox, now) {
                    plane.send(now, envelope);
                }
                inbox.clear();
                for envelope in rm.poll(now) {
                    plane.send(now, envelope);
                }
                // No upstream to release to; keep the drain from growing.
                rm.take_departures();
            }
            Topo::Hier {
                cluster_rms,
                deadlines,
                planes,
                bundle_plane,
                root,
            } => {
                let n = cluster_rms.len();
                for (plane, inbox) in planes.iter_mut().zip(inboxes.iter_mut()) {
                    drain_client_plane(
                        plane,
                        inbox,
                        &mut self.clients,
                        &mut self.wheel,
                        &mut self.counts,
                        heartbeat_interval,
                        now,
                    );
                }
                bundle_plane.drain_due(now, frames);
                for frame in frames.drain(..) {
                    match frame {
                        BundleFrame::Up(bundle) => to_root.push(bundle),
                        BundleFrame::Down(bundle) => {
                            let c = bundle.to.0 as usize;
                            if c < n {
                                downs[c].push(bundle);
                            }
                        }
                    }
                }
                for (c, cluster) in cluster_rms.iter_mut().enumerate() {
                    let (inbox, down) = (&mut inboxes[c], &mut downs[c]);
                    // Idle shards with no due timer produce nothing;
                    // skipping them is what keeps a kick O(due work).
                    if down.is_empty() && inbox.is_empty() && deadlines[c].is_none_or(|d| d > now) {
                        continue;
                    }
                    if !inbox.is_empty() {
                        self.queue_depth.record(inbox.len() as f64);
                    }
                    let step = cluster.step(down, inbox, now);
                    deadlines[c] = cluster.next_deadline();
                    inbox.clear();
                    down.clear();
                    for envelope in step.to_clients {
                        planes[c].send(now, envelope);
                    }
                    for bundle in step.to_root {
                        bundle_plane.send(now, BundleFrame::Up(bundle));
                    }
                }
                for bundle in to_root.drain(..) {
                    if let Some(down) = root.receive(&bundle, now) {
                        bundle_plane.send(now, BundleFrame::Down(down));
                    }
                }
                for down in root.poll(now) {
                    bundle_plane.send(now, BundleFrame::Down(down));
                }
                debug_assert!(
                    cluster_rms
                        .iter()
                        .zip(deadlines.iter())
                        .all(|(cluster, &cached)| cluster.next_deadline() == cached),
                    "a cached shard deadline went stale"
                );
            }
        }
    }

    /// Fires every live timer due at `now`: activation retransmissions
    /// (or giving up) and heartbeats.
    fn run_wheel(&mut self, now: u64) {
        while let Some((cycle, ids)) = self.wheel.pop_due(now) {
            for &id in &ids {
                let (phase, attempts, armed_at) = {
                    let c = &self.clients[id as usize];
                    (c.phase, c.attempts, c.armed_at)
                };
                if armed_at != cycle {
                    continue; // stale entry; the client re-armed since
                }
                match phase {
                    Phase::Pending => {
                        if attempts >= self.cfg.client_retry.max_attempts() {
                            self.clients[id as usize].phase = Phase::GaveUp;
                            self.counts.gave_up += 1;
                        } else {
                            let backoff = self.cfg.client_retry.backoff_cycles(attempts);
                            self.clients[id as usize].attempts = attempts + 1;
                            Self::send_upstream(
                                &mut self.topo,
                                self.cfg.clusters,
                                id,
                                actmsg(id, now),
                                now,
                            );
                            self.wheel
                                .arm(&mut self.clients[id as usize], id, now + backoff);
                        }
                    }
                    Phase::Admitted => {
                        Self::send_upstream(
                            &mut self.topo,
                            self.cfg.clusters,
                            id,
                            heartbeat(id, now),
                            now,
                        );
                        self.wheel.arm(
                            &mut self.clients[id as usize],
                            id,
                            now + self.cfg.heartbeat_interval_cycles.max(1),
                        );
                    }
                    _ => {}
                }
            }
            self.wheel.recycle(ids);
        }
    }

    /// Sum of every state-transition counter: if a kick leaves it
    /// unchanged, nothing durable happened that cycle. Drives the
    /// reconvergence clock — the planes never drain (heartbeats), so
    /// "empty network" cannot.
    fn signature(&self) -> u64 {
        let mut sig =
            self.counts.admitted + self.counts.refused + self.counts.gave_up + self.counts.crashed;
        match &self.topo {
            Topo::Flat { rm, .. } => {
                sig += rm.reclamations() + rm.rejections() + rm.safe_mode_entries();
            }
            Topo::Hier {
                cluster_rms, root, ..
            } => {
                for cluster in cluster_rms {
                    let inner = cluster.inner();
                    sig += inner.reclamations() + inner.rejections() + inner.safe_mode_entries();
                }
                sig += root.grants() + root.denials() + root.releases() + root.cluster_reclaims();
            }
        }
        sig
    }

    /// The earliest future cycle with any work, over every plane, RM,
    /// the root, the timer wheel, the next wave and the crash storm.
    fn next_deadline(&self, now: u64) -> Option<u64> {
        let mut next = self.wheel.next();
        if self.next_wave < self.total_waves {
            next = earliest(
                next,
                Some(u64::from(self.next_wave) * self.cfg.wave_interval),
            );
        }
        if !self.storm_done {
            next = earliest(next, self.cfg.crash_at);
        }
        match &self.topo {
            Topo::Flat { rm, plane } => {
                next = earliest(next, plane.next_delivery_cycle());
                next = earliest(next, rm.next_deadline());
            }
            Topo::Hier {
                deadlines,
                planes,
                bundle_plane,
                root,
                ..
            } => {
                for plane in planes {
                    next = earliest(next, plane.next_delivery_cycle());
                }
                for &deadline in deadlines {
                    next = earliest(next, deadline);
                }
                next = earliest(next, bundle_plane.next_delivery_cycle());
                next = earliest(next, root.next_deadline());
            }
        }
        next.map(|d| d.max(now + 1))
    }

    fn into_outcome(self) -> FleetOutcome {
        let mut admitted = Vec::new();
        let mut refused = Vec::new();
        let mut gave_up = Vec::new();
        let mut crashed = Vec::new();
        for (i, client) in self.clients.iter().enumerate() {
            let id = AppId(i as u32);
            match client.phase {
                Phase::Admitted => admitted.push(id),
                Phase::Refused => refused.push(id),
                Phase::GaveUp => gave_up.push(id),
                Phase::Crashed => crashed.push(id),
                Phase::Idle | Phase::Pending => {}
            }
        }
        let active_guaranteed = |apps: &[Application]| -> u64 {
            apps.iter().map(|a| a.importance.guaranteed_milli()).sum()
        };
        let (
            active_clients,
            active_guaranteed_milli,
            quarantined,
            root_granted_milli,
            cluster_reclaims,
            client_reclaims,
            control_messages,
            bundles,
        ) = match &self.topo {
            Topo::Flat { rm, plane } => (
                rm.active().len() as u64,
                active_guaranteed(rm.active()),
                rm.quarantined_ids(),
                None,
                0,
                rm.reclamations(),
                plane.sent(),
                0,
            ),
            Topo::Hier {
                cluster_rms,
                planes,
                bundle_plane,
                root,
                ..
            } => {
                let mut quarantined = Vec::new();
                let mut active = 0u64;
                let mut guaranteed = 0u64;
                let mut reclaims = 0u64;
                for cluster in cluster_rms {
                    let inner = cluster.inner();
                    active += inner.active().len() as u64;
                    guaranteed += active_guaranteed(inner.active());
                    reclaims += inner.reclamations();
                    quarantined.extend(inner.quarantined_ids());
                }
                quarantined.sort_unstable();
                (
                    active,
                    guaranteed,
                    quarantined,
                    Some(root.granted_total_milli()),
                    root.cluster_reclaims(),
                    reclaims,
                    planes.iter().map(ControlPlane::sent).sum(),
                    bundle_plane.sent(),
                )
            }
        };
        let reconverge_cycles = if self.cfg.crashes > 0 {
            self.cfg
                .crash_at
                .and_then(|at| self.last_transition_cycle.checked_sub(at))
        } else {
            None
        };
        FleetOutcome {
            admitted,
            refused,
            gave_up,
            crashed,
            quarantined,
            active_clients,
            active_guaranteed_milli,
            root_granted_milli,
            cluster_reclaims,
            client_reclaims,
            last_transition_cycle: self.last_transition_cycle,
            reconverge_cycles,
            control_messages,
            bundles,
            queue_depth: self.queue_depth,
            kicks: self.kicks,
            horizon: self.cfg.horizon,
        }
    }
}

impl Process for FleetSim {
    type Event = FleetEvent;

    fn handle(&mut self, _event: FleetEvent, sink: &mut dyn EventSink<FleetEvent>) {
        let now = sink.now().as_ns() as u64;
        if now >= self.cfg.horizon {
            return;
        }
        self.kicks += 1;
        self.run_waves(now);
        self.run_storm(now);
        self.process_planes(now);
        self.run_wheel(now);
        let sig = self.signature();
        if sig != self.last_signature {
            self.last_signature = sig;
            self.last_transition_cycle = now;
        }
        if let Some(next) = self.next_deadline(now) {
            if next < self.cfg.horizon {
                sink.schedule_at(cycle_at(next), FleetEvent::Kick);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(topology: FleetTopology) -> FleetConfig {
        FleetConfig {
            clients: 120,
            clusters: 4,
            capacity_milli: 12_000,
            demand_milli: 100,
            wave_size: 30,
            wave_interval: 400,
            heartbeat_interval_cycles: 1_000,
            watchdog: WatchdogConfig {
                timeout_cycles: 4_000,
                quarantine_threshold: 1,
                quarantine_cooldown_cycles: 50_000,
            },
            cluster_timeout_cycles: 12_000,
            horizon: 30_000,
            topology,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn feasible_fleet_is_fully_admitted_hierarchically() {
        let outcome = FleetSim::new(small(FleetTopology::Hierarchical)).run();
        assert_eq!(outcome.admitted.len(), 120);
        assert!(outcome.refused.is_empty());
        assert!(outcome.gave_up.is_empty());
        assert!(outcome.quarantined.is_empty());
        assert_eq!(outcome.active_clients, 120);
        // Exact budget conservation: Σ active critical demand == the
        // root's granted total == the full budget.
        assert_eq!(outcome.active_guaranteed_milli, 12_000);
        assert_eq!(outcome.root_granted_milli, Some(12_000));
        assert!(outcome.bundles > 0, "control traffic travelled as bundles");
        assert!(outcome.queue_depth.count() > 0);
    }

    #[test]
    fn flat_and_hierarchical_agree_on_final_sets() {
        let storm = |topology| {
            let mut cfg = small(topology);
            cfg.crashes = 6;
            cfg.crash_at = Some(8_000);
            cfg.horizon = 40_000;
            FleetSim::new(cfg).run()
        };
        let flat = storm(FleetTopology::Flat);
        let hier = storm(FleetTopology::Hierarchical);
        assert_eq!(flat.admitted, hier.admitted);
        assert_eq!(flat.refused, hier.refused);
        assert_eq!(flat.gave_up, hier.gave_up);
        assert_eq!(flat.crashed, hier.crashed);
        assert_eq!(flat.quarantined, hier.quarantined);
        assert_eq!(flat.crashed.len(), 6);
        assert_eq!(flat.quarantined, flat.crashed, "storm victims quarantined");
        assert_eq!(flat.active_clients, hier.active_clients);
        // Hierarchy-side conservation after the storm settles.
        assert_eq!(hier.root_granted_milli, Some(hier.active_guaranteed_milli));
    }

    #[test]
    fn infeasible_demand_is_denied_identically() {
        // 9 criticals of 100 milli against a 500 milli budget, strictly
        // serialized (one-client waves, a full round trip apart) so both
        // topologies see the same first-come-first-served order.
        let run = |topology| {
            let cfg = FleetConfig {
                clients: 9,
                clusters: 3,
                capacity_milli: 500,
                demand_milli: 100,
                wave_size: 1,
                wave_interval: 1_500,
                horizon: 30_000,
                topology,
                ..FleetConfig::default()
            };
            FleetSim::new(cfg).run()
        };
        let flat = run(FleetTopology::Flat);
        let hier = run(FleetTopology::Hierarchical);
        assert_eq!(flat.admitted.len(), 5);
        assert_eq!(flat.refused.len(), 4);
        assert_eq!(flat.admitted, hier.admitted);
        assert_eq!(flat.refused, hier.refused);
        assert_eq!(hier.root_granted_milli, Some(500));
    }

    #[test]
    fn crash_storm_reconverges_and_returns_budget() {
        let mut cfg = small(FleetTopology::Hierarchical);
        cfg.crashes = 8;
        cfg.crash_at = Some(10_000);
        cfg.horizon = 40_000;
        let outcome = FleetSim::new(cfg).run();
        assert_eq!(outcome.crashed.len(), 8);
        assert_eq!(outcome.active_clients, 112);
        assert_eq!(outcome.client_reclaims, 8);
        // All eight grants returned to the root's pool.
        assert_eq!(outcome.root_granted_milli, Some(112 * 100));
        assert_eq!(outcome.active_guaranteed_milli, 112 * 100);
        let reconverge = outcome.reconverge_cycles.expect("storm configured");
        assert!(
            reconverge > 0 && reconverge < 25_000,
            "reclamation settled within the watchdog + release window, got {reconverge}"
        );
    }

    #[test]
    fn identical_seeds_replay_byte_identically() {
        let run = || {
            let mut cfg = small(FleetTopology::Hierarchical);
            cfg.crashes = 4;
            cfg.crash_at = Some(9_000);
            cfg.fault_plan = FaultPlan::new()
                .drop_probability(0.02)
                .delay_probability(0.02)
                .max_delay_cycles(40);
            cfg.horizon = 40_000;
            let outcome = FleetSim::new(cfg).run();
            let mut reg = MetricsRegistry::new();
            outcome.publish_metrics(&mut reg);
            (outcome, reg.to_json())
        };
        let (a, a_json) = run();
        let (b, b_json) = run();
        assert_eq!(a, b, "same seed, same outcome");
        assert_eq!(a_json, b_json, "byte-identical metric export");
    }

    fn invalid(cfg: FleetConfig) -> &'static str {
        match FleetSim::try_new(cfg) {
            Err(AdmissionError::InvalidFleet { what }) => what,
            Err(e) => panic!("wrong error {e}"),
            Ok(_) => panic!("degenerate config accepted"),
        }
    }

    #[test]
    fn try_new_rejects_a_hierarchy_without_clusters() {
        let cfg = FleetConfig {
            clusters: 0,
            ..small(FleetTopology::Hierarchical)
        };
        assert!(invalid(cfg.clone()).contains("cluster"));
        // The flat topology has no clusters to need.
        let flat = FleetConfig {
            topology: FleetTopology::Flat,
            ..cfg
        };
        assert!(FleetSim::try_new(flat).is_ok());
    }

    #[test]
    fn try_new_rejects_empty_waves() {
        let cfg = FleetConfig {
            wave_size: 0,
            ..small(FleetTopology::Hierarchical)
        };
        assert!(invalid(cfg).contains("wave_size"));
    }

    #[test]
    fn try_new_rejects_a_zero_critical_stride() {
        let cfg = FleetConfig {
            critical_every: 0,
            ..small(FleetTopology::Flat)
        };
        assert!(invalid(cfg).contains("critical_every"));
    }

    #[test]
    fn try_new_rejects_more_crashes_than_clients() {
        let cfg = FleetConfig {
            crashes: 121,
            crash_at: Some(1_000),
            ..small(FleetTopology::Hierarchical)
        };
        assert!(invalid(cfg.clone()).contains("crash"));
        let all = FleetConfig {
            crashes: 120,
            ..cfg.clone()
        };
        assert!(
            FleetSim::try_new(all).is_ok(),
            "crashing everyone is allowed"
        );
        // A storm cycle with nobody to crash is a quiet run, not a panic.
        let none = FleetSim::new(FleetConfig { crashes: 0, ..cfg }).run();
        assert!(none.crashed.is_empty());
        assert_eq!(none.admitted.len(), 120);
    }

    #[test]
    #[should_panic(expected = "invalid fleet")]
    fn new_panics_with_the_typed_error() {
        let _ = FleetSim::new(FleetConfig {
            wave_size: 0,
            ..FleetConfig::default()
        });
    }

    /// The hashed wheel pops and peeks like the ordered map it replaced:
    /// seeded arms (cycles repeated by several ids, re-arms of one id,
    /// arms far ahead) interleaved with `pop_due` at a non-decreasing
    /// `now`, every arm for a cycle after `now`.
    #[test]
    fn timer_wheel_answers_like_an_ordered_map() {
        use autoplat_sim::SimRng;
        use std::collections::BTreeMap;
        for seed in 0..16 {
            let mut rng = SimRng::seed_from(seed);
            let mut wheel = TimerWheel::default();
            let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            let mut clients = vec![FleetClient::new(); 8];
            let mut now = 0u64;
            for _ in 0..2_000 {
                match rng.gen_range(0u64..4) {
                    0 | 1 => {
                        let id: u32 = rng.gen_range(0u32..8);
                        let ahead = match rng.gen_range(0u64..3) {
                            0 => rng.gen_range(0u64..3),
                            1 => rng.gen_range(0u64..64),
                            _ => rng.gen_range(0u64..1 << 40),
                        };
                        let at = now + 1 + ahead;
                        wheel.arm(&mut clients[id as usize], id, at);
                        assert_eq!(clients[id as usize].armed_at, at);
                        model.entry(at).or_default().push(id);
                    }
                    2 => now += rng.gen_range(0u64..8),
                    _ => loop {
                        let expected = model
                            .first_entry()
                            .filter(|due| *due.key() <= now)
                            .map(|due| due.remove_entry());
                        let popped = wheel.pop_due(now);
                        assert_eq!(popped, expected, "seed {seed}, pop at {now}");
                        match popped {
                            Some((_, ids)) => wheel.recycle(ids),
                            None => break,
                        }
                    },
                }
                assert_eq!(wheel.next(), model.keys().next().copied(), "seed {seed}");
            }
        }
    }

    #[test]
    fn root_budget_override_is_the_binding_constraint() {
        // The falsifiability hook: shrink only the root's budget and the
        // hierarchy must deny what the shard policies would accept.
        let mut cfg = small(FleetTopology::Hierarchical);
        cfg.clients = 8;
        cfg.clusters = 2;
        cfg.wave_size = 1;
        cfg.wave_interval = 1_500;
        cfg.root_capacity_milli = Some(300);
        cfg.horizon = 20_000;
        let outcome = FleetSim::new(cfg).run();
        assert_eq!(outcome.admitted.len(), 3);
        assert_eq!(outcome.refused.len(), 5);
        assert_eq!(outcome.root_granted_milli, Some(300));
    }
}
