//! Full-platform co-simulation on the shared discrete-event kernel.
//!
//! The paper's admission-control vision (§V) only pays off when DRAM,
//! interconnect, regulation, and scheduling are evaluated *together* on
//! one timeline. [`CoSim`] is that composition: one [`Engine`], one
//! clock, one seeded RNG, one fault plan, and one metrics registry drive
//!
//! * **sched** — periodic tasks released on their cores; each job computes
//!   for its WCET (jobs on one core serialize), then issues its memory
//!   traffic; response time and deadline misses are tracked per task;
//! * **regulation** — every memory packet is charged against the core's
//!   MemGuard budget before it may enter the network; throttled jobs
//!   resume at the next replenishment boundary, and an eager
//!   [`MemGuardProcess`] rolls budgets on the same clock;
//! * **NoC** — granted packets traverse the wormhole mesh to the memory
//!   node as kernel-driven ticks (event-driven, so sparse traffic skips
//!   idle cycles);
//! * **DRAM** — ejected requests are serviced by a [`DramChannel`] with
//!   per-bank row buffers and refresh, and the response packet travels
//!   back through the mesh to the issuing core;
//! * **admission** — scripted control commands (budget reconfigurations,
//!   task stops) are delivered through the shared [`FaultInjector`], so a
//!   fault plan can drop, delay, or duplicate them; infeasible budget
//!   requests are refused, the runtime counterpart of §V's `refMsg`.
//!
//! A configuration plus a seed determines the run bit-exactly: the
//! kernel's `(time, seq)` FIFO ordering, `BTreeMap` state, and forked
//! [`SimRng`] streams leave no nondeterminism, which the cross-layer
//! determinism test pins by comparing metric exports byte for byte.

use std::collections::{BTreeMap, VecDeque};

use autoplat_cache::{
    AccessOutcome, CacheConfig, ClusterPartCr, FlowId, FlowStats, PartitionGroup, SchemeId,
    SetAssocCache,
};
use autoplat_dram::{DramChannel, DramTiming};
use autoplat_mpam::control::BandwidthMinMax;
use autoplat_mpam::{
    CacheStorageMonitor, MemoryBandwidthMonitor, MemorySystemComponent, MonitorFilter, MpamLabel,
    PartId, PartIdSpace, Pmg,
};
use autoplat_noc::{NocConfig, NocEvent, NocSim, NodeId, Packet};
use autoplat_regulation::memguard::{AccessDecision, MemGuard};
use autoplat_regulation::{
    ClosedLoopConfig, ClosedLoopController, DegradationReason, LoopAction, MemGuardProcess,
    MonitorCapture, PartitionTarget, RegulationEvent, SensorWatchdogConfig,
};
use autoplat_sim::engine::{EventSink, MapSink, Process};
use autoplat_sim::metrics::MetricsRegistry;
use autoplat_sim::{
    Engine, FaultInjector, FaultPlan, MessageFault, SimDuration, SimRng, SimTime, Summary,
};

/// One periodic traffic task of the co-simulation.
#[derive(Debug, Clone)]
pub struct CoSimTask {
    /// The core the task runs on (indexes the MemGuard budgets; tasks on
    /// the same core serialize their compute phases).
    pub core: usize,
    /// The mesh node the task injects from and receives responses at.
    pub node: NodeId,
    /// Activation period.
    pub period: SimDuration,
    /// Compute time per job, before the memory phase starts.
    pub wcet: SimDuration,
    /// Relative deadline for the *whole* job (compute + memory round
    /// trips).
    pub deadline: SimDuration,
    /// Memory packets issued per job.
    pub packets_per_job: u32,
    /// Packet length in flits (both request and response).
    pub flits_per_packet: u32,
    /// Bytes charged against the MemGuard budget per packet.
    pub bytes_per_packet: u64,
    /// Size of the address window the task's accesses fall into; smaller
    /// windows produce more DRAM row hits.
    pub address_space: u64,
}

impl CoSimTask {
    /// A task with implicit deadline and cache-line-sized packets.
    pub fn new(core: usize, node: NodeId, period: SimDuration, wcet: SimDuration) -> Self {
        CoSimTask {
            core,
            node,
            period,
            wcet,
            deadline: period,
            packets_per_job: 8,
            flits_per_packet: 4,
            bytes_per_packet: 64,
            address_space: 1 << 20,
        }
    }

    /// Builder-style packet count per job.
    pub fn with_packets(mut self, packets: u32) -> Self {
        self.packets_per_job = packets;
        self
    }

    /// Builder-style constrained deadline.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Builder-style address window.
    pub fn with_address_space(mut self, bytes: u64) -> Self {
        self.address_space = bytes;
        self
    }
}

/// A scripted control-plane command (the §V admission RM's output side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlCommand {
    /// Reconfigure one core's MemGuard budget. Refused when the budget
    /// could not admit the core's largest packet or would violate the
    /// guaranteed-bandwidth invariant.
    SetBudget {
        /// The regulated core.
        core: usize,
        /// New budget in bytes per regulation period.
        bytes_per_period: u64,
    },
    /// Terminate a task: no further jobs are released.
    StopTask {
        /// Index into [`CoSimConfig::tasks`].
        task: usize,
    },
}

fn control_class(cmd: &ControlCommand) -> &'static str {
    match cmd {
        ControlCommand::SetBudget { .. } => "cosim.set_budget",
        ControlCommand::StopTask { .. } => "cosim.stop_task",
    }
}

/// Closed-loop QoS composition: a DSU-style partitioned last-level cache
/// in front of DRAM, an MPAM MSC whose bandwidth/storage monitors observe
/// the co-sim traffic, and a [`ClosedLoopController`] that retunes
/// MemGuard budgets from periodic monitor captures — degrading to a safe
/// static partitioning when the sensors fail.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Cache sets of the shared last-level cache.
    pub cache_sets: u32,
    /// Cache ways (the DSU partition registers require 12 or 16).
    pub cache_ways: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Monitor capture / regulation epoch. The first capture fires one
    /// epoch after time zero.
    pub epoch: SimDuration,
    /// The closed-loop controller configuration. Each target's `partid`
    /// and `core` tie one MPAM bandwidth monitor to one MemGuard budget.
    pub loop_cfg: ClosedLoopConfig,
    /// Conservative per-core budget applied in safe mode.
    pub safe_budget: u64,
    /// Initial DSU cluster partition register (way partitioning).
    pub partcr: ClusterPartCr,
}

/// Configuration of one co-simulation run.
#[derive(Debug, Clone)]
pub struct CoSimConfig {
    /// Mesh geometry and link timing.
    pub noc: NocConfig,
    /// The node the memory controller sits at (default: the last node).
    pub memory_node: Option<NodeId>,
    /// DRAM device timing.
    pub dram_timing: DramTiming,
    /// Number of DRAM banks.
    pub dram_banks: usize,
    /// DRAM row size in bytes.
    pub row_bytes: u64,
    /// MemGuard regulation period.
    pub memguard_period: SimDuration,
    /// Per-core MemGuard budgets (bytes per period).
    pub budgets: Vec<u64>,
    /// The periodic tasks.
    pub tasks: Vec<CoSimTask>,
    /// End of the release window: jobs release in `[0, horizon)` and the
    /// run continues until in-flight work drains.
    pub horizon: SimTime,
    /// Scripted control commands, delivered through the fault injector.
    pub controls: Vec<(SimTime, ControlCommand)>,
    /// Fault plan applied to control commands (classes `cosim.set_budget`
    /// and `cosim.stop_task`).
    pub fault_plan: FaultPlan,
    /// Master seed for the RNG streams and the fault injector.
    pub seed: u64,
    /// Guaranteed memory bandwidth (bytes/s) budget reconfigurations must
    /// respect; `0.0` disables the feasibility check.
    pub guaranteed_bytes_per_sec: f64,
    /// Optional closed-loop QoS composition (cache + MPAM monitors +
    /// regulation feedback). `None` runs the platform open-loop.
    pub qos: Option<QosConfig>,
}

impl CoSimConfig {
    /// A small demonstration platform: 4×4 mesh, DDR3-1600, three tasks
    /// on cores 0–2 with a deliberately tight budget on core 2.
    pub fn small() -> Self {
        let us = SimDuration::from_us;
        CoSimConfig {
            noc: NocConfig::new(4, 4),
            memory_node: None,
            dram_timing: autoplat_dram::timing::presets::ddr3_1600(),
            dram_banks: 8,
            row_bytes: 8192,
            memguard_period: us(1.0),
            budgets: vec![4096, 4096, 192, 4096],
            tasks: vec![
                CoSimTask::new(0, NodeId(0), us(2.0), SimDuration::from_ns(200.0)),
                CoSimTask::new(1, NodeId(1), us(2.0), SimDuration::from_ns(200.0)),
                CoSimTask::new(2, NodeId(4), us(2.0), SimDuration::from_ns(200.0)),
            ],
            horizon: SimTime::from_us(40.0),
            controls: Vec::new(),
            fault_plan: FaultPlan::none(),
            seed: 0,
            guaranteed_bytes_per_sec: 0.0,
            qos: None,
        }
    }

    /// The [`small`](Self::small) platform with the closed QoS loop on
    /// top: a 16-way partitioned cache, one MPAM bandwidth + storage
    /// monitor per core, and a 5 µs capture epoch driving budget retunes.
    pub fn small_qos() -> Self {
        let mut cfg = CoSimConfig::small();
        cfg.horizon = SimTime::from_us(60.0);
        let mut partcr = ClusterPartCr::new();
        for g in 0..4u8 {
            let scheme = SchemeId::new(g % 3).expect("scheme id in range");
            partcr.assign(PartitionGroup::new(g), scheme);
        }
        let targets = (0..3usize)
            .map(|core| PartitionTarget {
                partid: core as u16,
                core,
                target_bytes_per_epoch: 1024,
                initial_budget: cfg.budgets[core],
                min_budget: 192,
                max_budget: 4096,
            })
            .collect();
        cfg.qos = Some(QosConfig {
            cache_sets: 64,
            cache_ways: 16,
            line_bytes: 64,
            epoch: SimDuration::from_us(5.0),
            loop_cfg: ClosedLoopConfig {
                targets,
                hysteresis_permille: 125,
                max_step_bytes: 256,
                watchdog: SensorWatchdogConfig {
                    stale_epochs: 16,
                    max_plausible_bytes: 1 << 20,
                    fault_tolerance: 2,
                },
            },
            safe_budget: 512,
            partcr,
        });
        cfg
    }
}

/// Umbrella event type of the composed platform: each variant belongs to
/// one layer, adapted through [`MapSink`] where a sub-process has its own
/// native event type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoSimEvent {
    /// A network tick (delegated to [`NocSim`]).
    Noc(NocEvent),
    /// A regulation-period boundary (delegated to [`MemGuardProcess`]).
    Regulation(RegulationEvent),
    /// Job release of task *i*.
    Release(usize),
    /// Compute phase of job *j* of task *i* finished.
    ComputeDone(usize, u64),
    /// Task *i* retries issuing after a MemGuard stall.
    Resume(usize),
    /// A control-plane command arrives.
    Control(ControlCommand),
    /// A QoS monitor-capture / regulation epoch boundary.
    Epoch,
}

impl CoSimEvent {
    /// The `engine.events.<tag>` export tag of each variant, indexed by
    /// [`CoSimEvent::index`].
    const TAGS: [&'static str; 7] = [
        "noc.tick",
        "memguard.replenish",
        "sched.release",
        "sched.compute_done",
        "regulation.resume",
        "cosim.control",
        "qos.epoch",
    ];

    /// The variant's position in [`CoSimEvent::TAGS`].
    fn index(&self) -> usize {
        match self {
            CoSimEvent::Noc(_) => 0,
            CoSimEvent::Regulation(_) => 1,
            CoSimEvent::Release(_) => 2,
            CoSimEvent::ComputeDone(..) => 3,
            CoSimEvent::Resume(_) => 4,
            CoSimEvent::Control(_) => 5,
            CoSimEvent::Epoch => 6,
        }
    }
}

#[derive(Debug)]
enum PacketInfo {
    Request { task: usize, job: u64, addr: u64 },
    Response { task: usize, job: u64 },
}

#[derive(Debug)]
struct JobState {
    released_at: SimTime,
    to_issue: u32,
    outstanding: u32,
}

#[derive(Debug)]
struct TaskState {
    spec: CoSimTask,
    rng: SimRng,
    stopped: bool,
    core_free_at: SimTime,
    issue_queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobState>,
    released: u64,
    completed: u64,
    misses: u64,
    throttle_stalls: u64,
    response: Summary,
}

/// One partition's view of one QoS epoch.
#[derive(Debug, Clone)]
pub struct QosPartEpoch {
    /// The MPAM partition id.
    pub partid: u16,
    /// Bytes the bandwidth monitor truly observed in the epoch.
    pub observed_bytes: u64,
    /// The MPAM max-bandwidth control in force for the epoch: the
    /// monitored traffic may never exceed it.
    pub cap_bytes: u64,
    /// The (possibly sensor-corrupted) reading the controller saw;
    /// `None` when the capture message was dropped.
    pub reading: Option<u64>,
    /// The core's MemGuard budget after this epoch's actuation.
    pub budget_after: u64,
}

/// One QoS epoch of the co-simulation.
#[derive(Debug, Clone)]
pub struct QosEpochReport {
    /// Epoch index (0-based).
    pub index: u64,
    /// The instant the capture event fired.
    pub at: SimTime,
    /// Per-partition observations, in controller target order.
    pub parts: Vec<QosPartEpoch>,
}

/// The closed-loop QoS outcome of a co-simulation run.
#[derive(Debug, Clone)]
pub struct QosReport {
    /// Every epoch, in order.
    pub epochs: Vec<QosEpochReport>,
    /// Final per-flow cache statistics, keyed by flow id, in ascending
    /// flow order.
    pub flow_stats: Vec<(u32, FlowStats)>,
    /// The degradation reason, if the loop gave up on its sensors.
    pub degraded: Option<DegradationReason>,
    /// The epoch at which safe mode was commanded, if ever.
    pub safe_mode_epoch: Option<u64>,
    /// Shared-cache hits across all tasks.
    pub cache_hits: u64,
    /// Shared-cache misses (fills, evictions, and bypasses).
    pub cache_misses: u64,
    /// Monitor captures the fault injector destroyed.
    pub captures_dropped: u64,
    /// Budget retunes the controller successfully actuated.
    pub loop_adjustments: u64,
}

/// The live QoS composition: cache, MSC, controller, and bookkeeping.
#[derive(Debug)]
struct QosState {
    cache: SetAssocCache,
    msc: MemorySystemComponent,
    controller: ClosedLoopController,
    targets: Vec<PartitionTarget>,
    bw_monitor_idx: Vec<usize>,
    storage_monitor_idx: Vec<usize>,
    minmax: BandwidthMinMax,
    task_labels: Vec<MpamLabel>,
    task_flows: Vec<FlowId>,
    label_of_flow: BTreeMap<u32, MpamLabel>,
    epoch: SimDuration,
    period: SimDuration,
    line_bytes: u64,
    safe_budget: u64,
    /// Highest budget in force per core during the current epoch.
    budget_high: Vec<u64>,
    /// Highest budget in force per core during the previous epoch
    /// (in-flight packets may still have been admitted under it).
    budget_high_prev: Vec<u64>,
    epoch_index: u64,
    epochs: Vec<QosEpochReport>,
    cache_hits: u64,
    cache_misses: u64,
    captures_dropped: u64,
    loop_adjustments: u64,
    safe_mode_epoch: Option<u64>,
    degraded: Option<DegradationReason>,
}

fn part_label(partid: u16) -> MpamLabel {
    MpamLabel::new(PartId(partid), Pmg(0), PartIdSpace::PhysicalNonSecure)
}

impl QosState {
    fn new(q: &QosConfig, cfg: &CoSimConfig) -> Self {
        assert!(
            !q.loop_cfg.targets.is_empty(),
            "QoS composition needs at least one target"
        );
        let mut cache =
            SetAssocCache::new(CacheConfig::new(q.cache_sets, q.cache_ways, q.line_bytes));
        q.partcr.apply_to(&mut cache);
        let mut msc = MemorySystemComponent::new("cosim.l3");
        let mut bw_monitor_idx = Vec::new();
        let mut storage_monitor_idx = Vec::new();
        for t in &q.loop_cfg.targets {
            assert!(t.core < cfg.budgets.len(), "QoS target core has no budget");
            let filter = MonitorFilter::partid_only(PartId(t.partid));
            bw_monitor_idx.push(msc.add_bandwidth_monitor(MemoryBandwidthMonitor::new(filter)));
            storage_monitor_idx.push(msc.add_storage_monitor(CacheStorageMonitor::new(filter)));
        }
        let task_labels: Vec<MpamLabel> = cfg
            .tasks
            .iter()
            .map(|t| part_label(t.core as u16))
            .collect();
        let task_flows: Vec<FlowId> = cfg
            .tasks
            .iter()
            .map(|t| {
                SchemeId::new((t.core % 8) as u8)
                    .expect("scheme id in range")
                    .flow()
            })
            .collect();
        let mut label_of_flow = BTreeMap::new();
        for (label, flow) in task_labels.iter().zip(&task_flows) {
            label_of_flow.entry(flow.0).or_insert(*label);
        }
        for t in cfg.tasks.iter() {
            if q.loop_cfg.targets.iter().any(|tg| tg.core == t.core) {
                assert!(
                    q.safe_budget >= t.bytes_per_packet,
                    "safe budget can never admit core {}'s packets",
                    t.core
                );
            }
        }
        let controller = ClosedLoopController::new(q.loop_cfg.clone());
        let mut budget_high = cfg.budgets.clone();
        for t in &q.loop_cfg.targets {
            if let Some(b) = controller.commanded_budget(t.core) {
                budget_high[t.core] = budget_high[t.core].max(b);
            }
        }
        QosState {
            cache,
            msc,
            controller,
            targets: q.loop_cfg.targets.clone(),
            bw_monitor_idx,
            storage_monitor_idx,
            minmax: BandwidthMinMax::new(),
            task_labels,
            task_flows,
            label_of_flow,
            epoch: q.epoch,
            period: cfg.memguard_period,
            line_bytes: q.line_bytes as u64,
            safe_budget: q.safe_budget,
            budget_high: budget_high.clone(),
            budget_high_prev: budget_high,
            epoch_index: 0,
            epochs: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            captures_dropped: 0,
            loop_adjustments: 0,
            safe_mode_epoch: None,
            degraded: None,
        }
    }

    /// The MPAM max-bandwidth control for `core`'s partition this epoch:
    /// the MemGuard budget admits at most `budget` bytes per regulation
    /// period, an epoch overlaps at most `ceil(epoch/period) + 1`
    /// periods, and one more period of in-flight traffic admitted under
    /// the previous epoch's budget may still arrive.
    fn cap_bytes(&self, core: usize) -> u64 {
        let periods = self.epoch.as_ps().div_ceil(self.period.as_ps().max(1)) + 2;
        self.budget_high[core].max(self.budget_high_prev[core]) * periods
    }

    /// Raises the observed-budget watermark after a successful retune.
    fn note_budget(&mut self, core: usize, bytes_per_period: u64) {
        if let Some(high) = self.budget_high.get_mut(core) {
            *high = (*high).max(bytes_per_period);
        }
    }
}

/// Per-task results of a co-simulation run.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Jobs released.
    pub released: u64,
    /// Jobs fully completed (all responses received).
    pub completed: u64,
    /// Completed jobs whose response time exceeded the deadline.
    pub deadline_misses: u64,
    /// Times the task stalled on an exhausted MemGuard budget.
    pub throttle_stalls: u64,
    /// End-to-end response time statistics (ns).
    pub response: Summary,
}

/// The outcome of one co-simulation run.
#[derive(Debug)]
pub struct CoSimReport {
    /// Per-task results, indexed like [`CoSimConfig::tasks`].
    pub tasks: Vec<TaskReport>,
    /// Packets the mesh delivered (requests plus responses).
    pub packets_delivered: usize,
    /// Mean NoC packet latency in cycles.
    pub mean_noc_latency_cycles: f64,
    /// DRAM channel busy time.
    pub dram_busy: SimDuration,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses.
    pub dram_row_misses: u64,
    /// DRAM refreshes served.
    pub dram_refreshes: u64,
    /// Eager replenishment boundaries executed.
    pub replenishments: u64,
    /// Control commands applied.
    pub controls_applied: u64,
    /// Control commands refused by admission.
    pub controls_refused: u64,
    /// Control commands the fault injector destroyed.
    pub controls_dropped: u64,
    /// Instant the last event fired.
    pub finished_at: SimTime,
    /// Total events the kernel delivered.
    pub events_delivered: u64,
    /// Closed-loop QoS outcome, when the composition was configured.
    pub qos: Option<QosReport>,
    /// The unified metrics registry (NoC, MemGuard, kernel, and
    /// co-simulation counters), ready for deterministic export.
    pub metrics: MetricsRegistry,
}

impl CoSimReport {
    /// Total deadline misses across tasks.
    pub fn deadline_misses(&self) -> u64 {
        self.tasks.iter().map(|t| t.deadline_misses).sum()
    }

    /// Total jobs completed across tasks.
    pub fn jobs_completed(&self) -> u64 {
        self.tasks.iter().map(|t| t.completed).sum()
    }
}

/// The composed full-platform co-simulation (see the module docs).
///
/// # Examples
///
/// ```
/// use autoplat_core::platform::{CoSim, CoSimConfig};
///
/// let report = CoSim::new(CoSimConfig::small()).run();
/// assert!(report.jobs_completed() > 0);
/// assert_eq!(report.tasks[0].released, report.tasks[0].completed);
/// ```
#[derive(Debug)]
pub struct CoSim {
    noc: NocSim,
    memguard: MemGuardProcess,
    dram: DramChannel,
    injector: FaultInjector,
    memory_node: NodeId,
    tasks: Vec<TaskState>,
    controls: Vec<(SimTime, ControlCommand)>,
    packet_map: BTreeMap<u64, PacketInfo>,
    next_packet_id: u64,
    next_job_id: u64,
    noc_cursor: usize,
    horizon: SimTime,
    guaranteed: f64,
    dram_row_hits: u64,
    dram_row_misses: u64,
    controls_applied: u64,
    controls_refused: u64,
    controls_dropped: u64,
    /// Deliveries per [`CoSimEvent`] variant, indexed by [`CoSimEvent::index`].
    deliveries: [u64; 7],
    qos: Option<QosState>,
}

impl CoSim {
    /// Builds the composed platform.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration: a task core without a budget,
    /// a budget too small to ever admit the core's packets (which would
    /// stall the task forever), task or memory nodes outside the mesh, a
    /// task colocated with the memory node, or a zero horizon.
    pub fn new(cfg: CoSimConfig) -> Self {
        assert!(cfg.horizon > SimTime::ZERO, "need a positive horizon");
        let noc = NocSim::new(cfg.noc);
        let memory_node = cfg
            .memory_node
            .unwrap_or(NodeId(cfg.noc.cols * cfg.noc.rows - 1));
        assert!(
            noc.mesh().contains(memory_node),
            "memory node outside the mesh"
        );
        for (i, t) in cfg.tasks.iter().enumerate() {
            assert!(
                noc.mesh().contains(t.node),
                "task {i} node outside the mesh"
            );
            assert!(
                t.node != memory_node,
                "task {i} colocated with the memory node"
            );
            assert!(t.core < cfg.budgets.len(), "task {i} core has no budget");
            assert!(
                cfg.budgets[t.core] >= t.bytes_per_packet,
                "core {} budget can never admit task {i}'s packets",
                t.core
            );
            assert!(
                t.packets_per_job > 0 || t.wcet > SimDuration::ZERO,
                "empty task {i}"
            );
            assert!(t.address_space > 0, "task {i} needs an address window");
        }
        let mut master = SimRng::seed_from(cfg.seed);
        let tasks = cfg
            .tasks
            .iter()
            .enumerate()
            .map(|(i, spec)| TaskState {
                spec: spec.clone(),
                rng: master.fork(i as u64),
                stopped: false,
                core_free_at: SimTime::ZERO,
                issue_queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                released: 0,
                completed: 0,
                misses: 0,
                throttle_stalls: 0,
                response: Summary::new(),
            })
            .collect();
        let memguard = MemGuardProcess::new(
            MemGuard::new(cfg.memguard_period, cfg.budgets.clone()),
            cfg.horizon,
        );
        let dram = DramChannel::new(cfg.dram_timing.clone(), cfg.dram_banks, cfg.row_bytes);
        let qos = cfg.qos.as_ref().map(|q| QosState::new(q, &cfg));
        let mut memguard = memguard;
        if let Some(q) = &qos {
            // The controller's initial commanded budgets are the source
            // of truth once the loop is closed.
            for t in &q.targets {
                if let Some(b) = q.controller.commanded_budget(t.core) {
                    memguard.memguard_mut().set_budget(t.core, b);
                }
            }
        }
        CoSim {
            noc,
            memguard,
            dram,
            injector: FaultInjector::new(cfg.fault_plan.clone(), cfg.seed),
            memory_node,
            tasks,
            controls: cfg.controls.clone(),
            packet_map: BTreeMap::new(),
            next_packet_id: 0,
            next_job_id: 0,
            noc_cursor: 0,
            horizon: cfg.horizon,
            guaranteed: cfg.guaranteed_bytes_per_sec,
            dram_row_hits: 0,
            dram_row_misses: 0,
            controls_applied: 0,
            controls_refused: 0,
            controls_dropped: 0,
            deliveries: [0; 7],
            qos,
        }
    }

    /// Runs the co-simulation to completion: releases stop at the horizon
    /// and the run drains all in-flight compute and traffic.
    pub fn run(mut self) -> CoSimReport {
        let mut engine: Engine<CoSimEvent> = Engine::new();
        for i in 0..self.tasks.len() {
            engine.schedule_at(SimTime::ZERO, CoSimEvent::Release(i));
        }
        engine.schedule_at(
            self.memguard.first_boundary(),
            CoSimEvent::Regulation(RegulationEvent::Replenish),
        );
        for (at, cmd) in std::mem::take(&mut self.controls) {
            engine.schedule_at(at, CoSimEvent::Control(cmd));
        }
        if let Some(q) = &self.qos {
            engine.schedule_at(SimTime::ZERO + q.epoch, CoSimEvent::Epoch);
        }
        engine.run(&mut self);

        let mut metrics = MetricsRegistry::new();
        self.noc.publish_metrics(&mut metrics);
        self.memguard.memguard().publish_metrics(&mut metrics);
        metrics.counter_add("engine.events_delivered", engine.delivered());
        for (tag, &n) in CoSimEvent::TAGS.iter().zip(&self.deliveries) {
            if n > 0 {
                metrics.counter_add(format!("engine.events.{tag}"), n);
            }
        }
        // The export's key set is pinned: faults are applied here, not by the kernel.
        for key in [
            "engine.events_dropped",
            "engine.events_delayed",
            "engine.events_duplicated",
            "engine.faults_injected",
        ] {
            metrics.counter_add(key, 0);
        }
        let task_reports: Vec<TaskReport> = self
            .tasks
            .iter()
            .map(|t| TaskReport {
                released: t.released,
                completed: t.completed,
                deadline_misses: t.misses,
                throttle_stalls: t.throttle_stalls,
                response: t.response.clone(),
            })
            .collect();
        for (i, t) in task_reports.iter().enumerate() {
            metrics.counter_add(format!("cosim.task{i}.jobs_released"), t.released);
            metrics.counter_add(format!("cosim.task{i}.jobs_completed"), t.completed);
            metrics.counter_add(format!("cosim.task{i}.deadline_misses"), t.deadline_misses);
            metrics.counter_add(format!("cosim.task{i}.throttle_stalls"), t.throttle_stalls);
            metrics.gauge_set(format!("cosim.task{i}.mean_response_ns"), t.response.mean());
            metrics.gauge_set(
                format!("cosim.task{i}.max_response_ns"),
                t.response.max().unwrap_or(0.0),
            );
        }
        metrics.counter_add("cosim.dram.row_hits", self.dram_row_hits);
        metrics.counter_add("cosim.dram.row_misses", self.dram_row_misses);
        metrics.counter_add("cosim.dram.refreshes", self.dram.refreshes());
        metrics.gauge_set("cosim.dram.busy_ns", self.dram.busy().as_ns());
        metrics.counter_add("cosim.controls.applied", self.controls_applied);
        metrics.counter_add("cosim.controls.refused", self.controls_refused);
        metrics.counter_add("cosim.controls.dropped", self.controls_dropped);
        metrics.counter_add("cosim.replenishments", self.memguard.replenishments());
        metrics.gauge_set("cosim.finished_at_ns", engine.now().as_ns());

        let qos_report = self.qos.take().map(|q| {
            let mut flow_stats: Vec<(u32, FlowStats)> = q
                .label_of_flow
                .keys()
                .map(|&f| (f, q.cache.stats(FlowId(f))))
                .collect();
            flow_stats.sort_by_key(|(f, _)| *f);
            metrics.counter_add("cosim.qos.epochs", q.epoch_index);
            metrics.counter_add("cosim.qos.cache_hits", q.cache_hits);
            metrics.counter_add("cosim.qos.cache_misses", q.cache_misses);
            metrics.counter_add("cosim.qos.captures_dropped", q.captures_dropped);
            metrics.counter_add("cosim.qos.loop_adjustments", q.loop_adjustments);
            metrics.gauge_set(
                "cosim.qos.degraded",
                if q.degraded.is_some() { 1.0 } else { 0.0 },
            );
            metrics.gauge_set(
                "cosim.qos.degradation_reason",
                q.degraded.map_or(0.0, |r| r.code() as f64),
            );
            if let Some(epoch) = q.safe_mode_epoch {
                metrics.gauge_set("cosim.qos.safe_mode_epoch", epoch as f64);
            }
            for (i, t) in q.targets.iter().enumerate() {
                let observed: u64 = q.epochs.iter().map(|e| e.parts[i].observed_bytes).sum();
                metrics.counter_add(
                    format!("cosim.qos.part{}.monitored_bytes", t.partid),
                    observed,
                );
                let storage = &q.msc.storage_monitors()[q.storage_monitor_idx[i]];
                metrics.gauge_set(
                    format!("cosim.qos.part{}.storage_bytes", t.partid),
                    storage.value() as f64,
                );
            }
            for (f, s) in &flow_stats {
                metrics.counter_add(format!("cosim.qos.flow{f}.hits"), s.hits);
                metrics.counter_add(format!("cosim.qos.flow{f}.misses"), s.misses);
                metrics.counter_add(
                    format!("cosim.qos.flow{f}.evictions_suffered"),
                    s.evictions_suffered,
                );
            }
            q.controller.publish_metrics(&mut metrics);
            QosReport {
                epochs: q.epochs,
                flow_stats,
                degraded: q.degraded,
                safe_mode_epoch: q.safe_mode_epoch,
                cache_hits: q.cache_hits,
                cache_misses: q.cache_misses,
                captures_dropped: q.captures_dropped,
                loop_adjustments: q.loop_adjustments,
            }
        });

        CoSimReport {
            packets_delivered: self.noc.completed().len(),
            mean_noc_latency_cycles: self.noc.latency_cycles().mean(),
            dram_busy: self.dram.busy(),
            dram_row_hits: self.dram_row_hits,
            dram_row_misses: self.dram_row_misses,
            dram_refreshes: self.dram.refreshes(),
            replenishments: self.memguard.replenishments(),
            controls_applied: self.controls_applied,
            controls_refused: self.controls_refused,
            controls_dropped: self.controls_dropped,
            finished_at: engine.now(),
            events_delivered: engine.delivered(),
            tasks: task_reports,
            qos: qos_report,
            metrics,
        }
    }

    /// Issues as many packets of task `i`'s pending jobs as the MemGuard
    /// budget admits; a throttled issue re-arms at the stall end.
    fn issue(&mut self, i: usize, sink: &mut dyn EventSink<CoSimEvent>) {
        let now = sink.now();
        while let Some(&job_id) = self.tasks[i].issue_queue.front() {
            let (core, bytes) = {
                let spec = &self.tasks[i].spec;
                (spec.core, spec.bytes_per_packet)
            };
            match self.memguard.memguard_mut().try_access(core, bytes, now) {
                AccessDecision::Granted => {
                    let (addr, node, flits) = {
                        let t = &mut self.tasks[i];
                        let addr = (t.rng.next_u64() % t.spec.address_space) & !63;
                        (addr, t.spec.node, t.spec.flits_per_packet)
                    };
                    let pid = self.next_packet_id;
                    self.next_packet_id += 1;
                    self.packet_map.insert(
                        pid,
                        PacketInfo::Request {
                            task: i,
                            job: job_id,
                            addr,
                        },
                    );
                    self.noc
                        .inject_at(Packet::new(pid, node, self.memory_node, flits), now);
                    let t = &mut self.tasks[i];
                    let job = t.jobs.get_mut(&job_id).expect("issuing job exists");
                    job.to_issue -= 1;
                    job.outstanding += 1;
                    if job.to_issue == 0 {
                        t.issue_queue.pop_front();
                    }
                }
                AccessDecision::ThrottledUntil(at) => {
                    self.tasks[i].throttle_stalls += 1;
                    sink.schedule_at(at, CoSimEvent::Resume(i));
                    break;
                }
            }
        }
        self.noc.pump(&mut MapSink::new(sink, CoSimEvent::Noc));
    }

    /// Routes newly ejected packets: requests to the DRAM channel (whose
    /// completion releases the response packet back into the mesh),
    /// responses to their issuing job.
    fn drain_noc(&mut self, sink: &mut dyn EventSink<CoSimEvent>) {
        let completed = self.noc.completed();
        let arrivals: Vec<(u64, SimTime)> = completed[self.noc_cursor..]
            .iter()
            .map(|r| (r.packet.id, r.ejected_at))
            .collect();
        self.noc_cursor = completed.len();
        for (pid, at) in arrivals {
            match self.packet_map.remove(&pid) {
                Some(PacketInfo::Request { task, job, addr }) => {
                    // The partitioned last-level cache sits in front of
                    // DRAM; the MSC's monitors observe every transfer,
                    // fill, and eviction with the task's MPAM label.
                    let mut cache_hit = false;
                    if let Some(q) = self.qos.as_mut() {
                        let label = q.task_labels[task];
                        let flow = q.task_flows[task];
                        q.msc
                            .on_transfer(&label, true, self.tasks[task].spec.bytes_per_packet);
                        match q.cache.access(flow, addr) {
                            AccessOutcome::Hit => {
                                q.cache_hits += 1;
                                cache_hit = true;
                            }
                            AccessOutcome::MissFilled => {
                                q.cache_misses += 1;
                                q.msc.on_fill(&label, q.line_bytes);
                            }
                            AccessOutcome::MissEvicted { victim_owner } => {
                                q.cache_misses += 1;
                                q.msc.on_fill(&label, q.line_bytes);
                                let victim = q
                                    .label_of_flow
                                    .get(&victim_owner.0)
                                    .copied()
                                    .unwrap_or(label);
                                q.msc.on_evict(&victim, q.line_bytes);
                            }
                            AccessOutcome::Bypass => {
                                q.cache_misses += 1;
                            }
                        }
                    }
                    let done = if cache_hit {
                        at
                    } else {
                        let served = self.dram.service(addr, at);
                        if served.row_hit {
                            self.dram_row_hits += 1;
                        } else {
                            self.dram_row_misses += 1;
                        }
                        served.done
                    };
                    let rid = self.next_packet_id;
                    self.next_packet_id += 1;
                    self.packet_map
                        .insert(rid, PacketInfo::Response { task, job });
                    let (node, flits) = {
                        let spec = &self.tasks[task].spec;
                        (spec.node, spec.flits_per_packet)
                    };
                    self.noc
                        .inject_at(Packet::new(rid, self.memory_node, node, flits), done);
                }
                Some(PacketInfo::Response { task, job }) => {
                    let done = {
                        let t = &mut self.tasks[task];
                        let state = t.jobs.get_mut(&job).expect("responding job exists");
                        state.outstanding -= 1;
                        state.outstanding == 0 && state.to_issue == 0
                    };
                    if done {
                        self.finish_job(task, job, at);
                    }
                }
                None => unreachable!("ejected packet {pid} was never mapped"),
            }
        }
        self.noc.pump(&mut MapSink::new(sink, CoSimEvent::Noc));
    }

    fn finish_job(&mut self, task: usize, job: u64, at: SimTime) {
        let t = &mut self.tasks[task];
        let state = t.jobs.remove(&job).expect("finished job exists");
        let response = at.saturating_since(state.released_at);
        t.response.record(response.as_ns());
        t.completed += 1;
        if response > t.spec.deadline {
            t.misses += 1;
        }
    }

    fn apply(&mut self, cmd: ControlCommand) {
        match cmd {
            ControlCommand::SetBudget {
                core,
                bytes_per_period,
            } => {
                if self.try_set_budget(core, bytes_per_period) {
                    self.controls_applied += 1;
                    if let Some(q) = self.qos.as_mut() {
                        q.note_budget(core, bytes_per_period);
                    }
                } else {
                    self.controls_refused += 1;
                }
            }
            ControlCommand::StopTask { task } => {
                if let Some(t) = self.tasks.get_mut(task) {
                    t.stopped = true;
                    self.controls_applied += 1;
                } else {
                    self.controls_refused += 1;
                }
            }
        }
    }

    /// Sets one core's budget, for a scripted [`ControlCommand::SetBudget`]
    /// or the closed loop, if it passes admission: the core exists, the
    /// budget fits the core's largest packet, and the guaranteed bandwidth
    /// stays feasible (otherwise the old budget is restored). Returns
    /// whether the budget was applied.
    fn try_set_budget(&mut self, core: usize, bytes_per_period: u64) -> bool {
        let min_packet = self
            .tasks
            .iter()
            .filter(|t| t.spec.core == core)
            .map(|t| t.spec.bytes_per_packet)
            .max()
            .unwrap_or(0);
        let guaranteed = self.guaranteed;
        let mg = self.memguard.memguard_mut();
        if core >= mg.cores() || bytes_per_period < min_packet {
            return false;
        }
        let old = mg.budget(core);
        mg.set_budget(core, bytes_per_period);
        if guaranteed > 0.0 && !mg.is_feasible(guaranteed) {
            mg.set_budget(core, old);
            return false;
        }
        true
    }

    fn current_budgets(&self) -> Vec<u64> {
        let mg = self.memguard.memguard();
        (0..mg.cores()).map(|c| mg.budget(c)).collect()
    }

    /// Degrades to the safe static partitioning: conservative MemGuard
    /// budgets on every regulated core and disjoint DSU way masks (the
    /// partition groups fully assigned round-robin over the regulated
    /// schemes, so no scheme shares a way with another).
    fn enter_safe_mode(&mut self, q: &mut QosState) {
        let cores: Vec<usize> = q.targets.iter().map(|t| t.core).collect();
        for core in cores {
            let mg = self.memguard.memguard_mut();
            if core < mg.cores() {
                mg.set_budget(core, q.safe_budget);
            }
            q.note_budget(core, q.safe_budget);
        }
        let schemes: Vec<SchemeId> = q
            .targets
            .iter()
            .map(|t| SchemeId::new((t.core % 8) as u8).expect("scheme id in range"))
            .collect();
        let mut partcr = ClusterPartCr::new();
        for g in 0..4u8 {
            partcr.assign(PartitionGroup::new(g), schemes[g as usize % schemes.len()]);
        }
        partcr.apply_to(&mut q.cache);
    }

    /// One monitor-capture epoch: freeze the MPAM monitors, pass each
    /// reading through the fault injector (where a sensor-fault plan may
    /// corrupt or destroy it), feed the controller, and actuate what it
    /// commands.
    fn qos_epoch(&mut self, sink: &mut dyn EventSink<CoSimEvent>) {
        let Some(mut q) = self.qos.take() else {
            return;
        };
        let now = sink.now();
        let cycle = now.as_ns() as u64;
        q.msc.capture_event();
        let targets = q.targets.clone();
        let mut captures = Vec::with_capacity(targets.len());
        let mut parts = Vec::with_capacity(targets.len());
        for (i, t) in targets.iter().enumerate() {
            let observed = q.msc.bandwidth_monitors()[q.bw_monitor_idx[i]]
                .captured()
                .unwrap_or(0);
            let class = format!("cosim.sensor.bw{}", t.partid);
            let reading = self.injector.on_reading(cycle, &class, observed);
            if reading.is_none() {
                q.captures_dropped += 1;
            }
            captures.push(MonitorCapture {
                partid: t.partid,
                bandwidth_bytes: reading,
            });
            parts.push(QosPartEpoch {
                partid: t.partid,
                observed_bytes: observed,
                cap_bytes: q.cap_bytes(t.core),
                reading,
                budget_after: 0,
            });
        }
        for action in q.controller.on_epoch(&captures) {
            match action {
                LoopAction::SetBudget {
                    core,
                    bytes_per_period,
                } => {
                    if self.try_set_budget(core, bytes_per_period) {
                        q.loop_adjustments += 1;
                        q.note_budget(core, bytes_per_period);
                    }
                }
                LoopAction::EnterSafeMode { reason } => {
                    self.enter_safe_mode(&mut q);
                    q.degraded = Some(reason);
                    q.safe_mode_epoch = Some(q.epoch_index);
                }
            }
        }
        for (i, t) in targets.iter().enumerate() {
            parts[i].budget_after = self.memguard.memguard().budget(t.core);
        }
        // Roll the budget watermarks and refresh the MPAM max-bandwidth
        // control for the next epoch.
        q.budget_high_prev = std::mem::replace(&mut q.budget_high, self.current_budgets());
        for t in &targets {
            let cap = q.cap_bytes(t.core) as f64;
            q.minmax
                .set_limits(PartId(t.partid), 0.0, cap)
                .expect("finite bandwidth limits");
        }
        q.msc.set_bandwidth_minmax(q.minmax.clone());
        for m in q.msc.bandwidth_monitors_mut() {
            m.reset();
        }
        q.epochs.push(QosEpochReport {
            index: q.epoch_index,
            at: now,
            parts,
        });
        q.epoch_index += 1;
        let next = now + q.epoch;
        if next <= self.horizon {
            sink.schedule_at(next, CoSimEvent::Epoch);
        }
        self.qos = Some(q);
    }
}

impl Process for CoSim {
    type Event = CoSimEvent;

    fn handle(&mut self, event: CoSimEvent, sink: &mut dyn EventSink<CoSimEvent>) {
        self.deliveries[event.index()] += 1;
        match event {
            CoSimEvent::Noc(ev) => {
                self.noc
                    .handle(ev, &mut MapSink::new(sink, CoSimEvent::Noc));
                self.drain_noc(sink);
            }
            CoSimEvent::Regulation(ev) => {
                self.memguard
                    .handle(ev, &mut MapSink::new(sink, CoSimEvent::Regulation));
            }
            CoSimEvent::Release(i) => {
                let now = sink.now();
                if self.tasks[i].stopped {
                    return;
                }
                let job_id = self.next_job_id;
                self.next_job_id += 1;
                let t = &mut self.tasks[i];
                t.released += 1;
                t.jobs.insert(
                    job_id,
                    JobState {
                        released_at: now,
                        to_issue: t.spec.packets_per_job,
                        outstanding: 0,
                    },
                );
                let start = now.max(t.core_free_at);
                let done = start + t.spec.wcet;
                t.core_free_at = done;
                sink.schedule_at(done, CoSimEvent::ComputeDone(i, job_id));
                let next = now + t.spec.period;
                if next < self.horizon {
                    sink.schedule_at(next, CoSimEvent::Release(i));
                }
            }
            CoSimEvent::ComputeDone(i, job_id) => {
                let pure_compute = {
                    let t = &mut self.tasks[i];
                    let job = t.jobs.get_mut(&job_id).expect("computed job exists");
                    if job.to_issue == 0 && job.outstanding == 0 {
                        true
                    } else {
                        t.issue_queue.push_back(job_id);
                        false
                    }
                };
                if pure_compute {
                    self.finish_job(i, job_id, sink.now());
                } else {
                    self.issue(i, sink);
                }
            }
            CoSimEvent::Resume(i) => {
                self.issue(i, sink);
            }
            CoSimEvent::Control(cmd) => {
                let now = sink.now();
                let cycle = now.as_ns() as u64;
                match self.injector.on_message(cycle, control_class(&cmd)) {
                    MessageFault::Deliver => self.apply(cmd),
                    MessageFault::Drop => self.controls_dropped += 1,
                    MessageFault::Delay(cycles) => {
                        sink.schedule_at(
                            now + SimDuration::from_ns(cycles as f64),
                            CoSimEvent::Control(cmd),
                        );
                    }
                    MessageFault::Duplicate(cycles) => {
                        sink.schedule_at(
                            now + SimDuration::from_ns(cycles as f64),
                            CoSimEvent::Control(cmd.clone()),
                        );
                        self.apply(cmd);
                    }
                }
            }
            CoSimEvent::Epoch => {
                self.qos_epoch(sink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_platform_completes_all_jobs() {
        let report = CoSim::new(CoSimConfig::small()).run();
        for (i, t) in report.tasks.iter().enumerate() {
            assert!(t.released > 0, "task {i} never released");
            assert_eq!(t.released, t.completed, "task {i} lost jobs");
        }
        // Requests and their responses both traverse the mesh.
        assert_eq!(
            report.packets_delivered as u64,
            2 * report
                .tasks
                .iter()
                .map(|t| t.completed * CoSimConfig::small().tasks[0].packets_per_job as u64)
                .sum::<u64>()
        );
        assert_eq!(
            report.dram_row_hits + report.dram_row_misses,
            report.packets_delivered as u64 / 2
        );
        assert!(report.replenishments > 0, "regulation clock ran");
    }

    #[test]
    fn tight_budget_throttles_and_inflates_response() {
        let report = CoSim::new(CoSimConfig::small()).run();
        let generous = &report.tasks[0];
        let tight = &report.tasks[2];
        assert_eq!(generous.throttle_stalls, 0);
        assert!(tight.throttle_stalls > 0, "192 B / period must throttle");
        let tight_max = tight.response.max().unwrap_or(0.0);
        let generous_max = generous.response.max().unwrap_or(0.0);
        assert!(
            tight_max > generous_max,
            "throttling must inflate the tail: {tight_max} vs {generous_max}"
        );
    }

    #[test]
    fn stop_command_halts_releases() {
        let mut cfg = CoSimConfig::small();
        cfg.controls
            .push((SimTime::from_us(10.0), ControlCommand::StopTask { task: 1 }));
        let report = CoSim::new(cfg).run();
        assert!(report.tasks[1].released < report.tasks[0].released);
        assert_eq!(report.controls_applied, 1);
    }

    #[test]
    fn infeasible_budget_is_refused() {
        let mut cfg = CoSimConfig::small();
        // Guarantee exactly the configured sum; any raise is infeasible.
        let sum: u64 = cfg.budgets.iter().sum();
        cfg.guaranteed_bytes_per_sec = sum as f64 / cfg.memguard_period.as_secs();
        cfg.controls.push((
            SimTime::from_us(4.0),
            ControlCommand::SetBudget {
                core: 2,
                bytes_per_period: 1 << 20,
            },
        ));
        let report = CoSim::new(cfg).run();
        assert_eq!(report.controls_refused, 1);
        assert_eq!(report.controls_applied, 0);
    }

    #[test]
    fn dropped_reconfig_leaves_budget_alone() {
        let mut cfg = CoSimConfig::small();
        cfg.fault_plan = FaultPlan::new().drop_nth("cosim.set_budget", 0);
        cfg.controls.push((
            SimTime::from_us(4.0),
            ControlCommand::SetBudget {
                core: 2,
                bytes_per_period: 1 << 20,
            },
        ));
        let report = CoSim::new(cfg).run();
        assert_eq!(report.controls_dropped, 1);
        assert_eq!(report.controls_applied, 0);
        // The tight budget stayed in force, so the throttling persists.
        assert!(report.tasks[2].throttle_stalls > 0);
    }

    #[test]
    fn open_loop_config_has_no_qos_report() {
        let report = CoSim::new(CoSimConfig::small()).run();
        assert!(report.qos.is_none());
    }

    #[test]
    fn closed_loop_stays_healthy_and_bounded() {
        let report = CoSim::new(CoSimConfig::small_qos()).run();
        for (i, t) in report.tasks.iter().enumerate() {
            assert_eq!(t.released, t.completed, "task {i} lost jobs");
        }
        let qos = report.qos.expect("QoS composition ran");
        assert!(qos.epochs.len() >= 10, "epochs: {}", qos.epochs.len());
        assert_eq!(qos.degraded, None, "healthy sensors must not degrade");
        assert_eq!(qos.safe_mode_epoch, None);
        // Every request went through the shared cache exactly once.
        let requests: u64 = report
            .tasks
            .iter()
            .map(|t| t.completed * CoSimConfig::small().tasks[0].packets_per_job as u64)
            .sum();
        assert_eq!(qos.cache_hits + qos.cache_misses, requests);
        assert!(qos.cache_hits > 0, "small address windows must hit");
        // The monitored bandwidth never exceeds the MPAM max-bandwidth
        // control derived from the MemGuard budgets.
        for epoch in &qos.epochs {
            for part in &epoch.parts {
                assert!(
                    part.observed_bytes <= part.cap_bytes,
                    "epoch {} part {}: {} > cap {}",
                    epoch.index,
                    part.partid,
                    part.observed_bytes,
                    part.cap_bytes
                );
            }
        }
    }

    #[test]
    fn closed_loop_retunes_generous_budgets_towards_target() {
        let report = CoSim::new(CoSimConfig::small_qos()).run();
        let qos = report.qos.expect("QoS composition ran");
        assert!(qos.loop_adjustments > 0, "the loop never actuated");
        // Cores 0/1 observe ~1280 B per epoch against a 1024 B target,
        // so their 4096 B budgets are stepped down.
        let last = qos.epochs.last().expect("epochs recorded");
        assert!(
            last.parts[0].budget_after < 4096,
            "core 0 budget never tightened: {}",
            last.parts[0].budget_after
        );
    }

    #[test]
    fn partition_isolation_holds_with_disjoint_masks() {
        let mut cfg = CoSimConfig::small_qos();
        // Fully assigned, one group per scheme, plus a hot co-runner.
        cfg.tasks[1] = cfg.tasks[1].clone().with_packets(24);
        let report = CoSim::new(cfg).run();
        let qos = report.qos.expect("QoS composition ran");
        for (flow, stats) in &qos.flow_stats {
            assert_eq!(
                stats.evictions_suffered, 0,
                "flow {flow} lost lines to a co-runner"
            );
        }
    }

    #[test]
    fn sensor_storm_degrades_to_safe_mode_within_bound() {
        let mut cfg = CoSimConfig::small_qos();
        cfg.fault_plan = FaultPlan::new().sensor_drop_probability(1.0);
        let report = CoSim::new(cfg).run();
        let qos = report.qos.expect("QoS composition ran");
        assert_eq!(
            qos.degraded,
            Some(DegradationReason::DroppedCaptures),
            "a total capture loss must degrade"
        );
        // fault_tolerance = 2 suspect epochs: safe mode by epoch 1.
        assert_eq!(qos.safe_mode_epoch, Some(1));
        // Safe mode pins the regulated cores to the conservative budget.
        let last = qos.epochs.last().expect("epochs recorded");
        for part in &last.parts {
            assert_eq!(part.budget_after, 512, "part {} budget", part.partid);
        }
        assert_eq!(
            report.metrics.gauge("cosim.qos.degraded"),
            Some(1.0),
            "degradation must surface in the metrics export"
        );
        assert_eq!(
            report.metrics.gauge("cosim.qos.degradation_reason"),
            Some(DegradationReason::DroppedCaptures.code() as f64)
        );
    }

    #[test]
    fn stuck_sensor_storm_is_caught_as_implausible() {
        let mut cfg = CoSimConfig::small_qos();
        cfg.fault_plan = FaultPlan::new()
            .sensor_stuck_probability(1.0)
            .sensor_stuck_value(1 << 30);
        let report = CoSim::new(cfg).run();
        let qos = report.qos.expect("QoS composition ran");
        assert_eq!(qos.degraded, Some(DegradationReason::ImplausibleReading));
        assert!(qos.safe_mode_epoch.expect("safe mode reached") <= 2);
    }

    #[test]
    fn qos_runs_are_seed_deterministic() {
        let run = || {
            let mut cfg = CoSimConfig::small_qos();
            cfg.fault_plan = FaultPlan::new()
                .sensor_drop_probability(0.3)
                .sensor_spike_probability(0.2);
            cfg.seed = 77;
            CoSim::new(cfg).run().metrics.to_json()
        };
        assert_eq!(run(), run());
    }
}
