//! Kernel and co-simulation perf baselines.
//!
//! Deterministic workloads that the `perf` binary runs once, exporting
//! the measured throughputs through the `autoplat.metrics.v1` schema as
//! `BENCH_kernel.json` / `BENCH_cosim.json` — the perf-trajectory
//! artifacts every later change is measured against. Unlike every other
//! export in the workspace these files intentionally carry
//! wall-clock-derived gauges; the counters beside them record the
//! deterministic workload sizes so a reader can tell what was measured.
//!
//! The queue workloads run against both [`EventQueue`] (the calendar
//! queue) and [`HeapEventQueue`] (the retained `BinaryHeap` baseline), so
//! each export records the new structure's throughput *and* the baseline
//! it must stay ahead of. The WCD workload times the §IV-A bounds at the
//! Table II operating points, whose cost the paper puts at "milliseconds
//! at most".

use std::hint::black_box;
use std::time::Instant;

use autoplat_core::platform::{CoSim, CoSimConfig};
use autoplat_dram::wcd::bounds;
use autoplat_noc::{NocConfig, NocSim, NodeId, Packet};
use autoplat_sim::engine::EventSink;
use autoplat_sim::event::HeapEventQueue;
use autoplat_sim::{Engine, EventQueue, MetricsRegistry, Process, SimDuration, SimRng, SimTime};

use crate::experiments::{table2_params, TABLE2_WRITE_RATES_GBPS};

/// The two queue implementations under one face, so every workload runs
/// identically against the calendar queue and the heap baseline.
trait BenchQueue: Default {
    /// Human-readable implementation name used in metric keys.
    const NAME: &'static str;
    fn schedule(&mut self, at: SimTime, payload: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl BenchQueue for EventQueue<u64> {
    const NAME: &'static str = "calendar";
    fn schedule(&mut self, at: SimTime, payload: u64) {
        EventQueue::schedule(self, at, payload);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
}

impl BenchQueue for HeapEventQueue<u64> {
    const NAME: &'static str = "heap";
    fn schedule(&mut self, at: SimTime, payload: u64) {
        HeapEventQueue::schedule(self, at, payload);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        HeapEventQueue::pop(self)
    }
}

/// Workload sizes; `quick` is the CI smoke scale, the default is the
/// committed-baseline scale.
#[derive(Debug, Clone, Copy)]
pub struct PerfScale {
    /// Events held in the queue during the hold-model loop.
    pub hold_population: u64,
    /// Schedule+pop operations in the hold-model loop.
    pub hold_ops: u64,
    /// Events per burst (schedule all, then drain all).
    pub burst_events: u64,
    /// Events in the same-timestamp-tie workload.
    pub tie_events: u64,
    /// Distinct instants the tie workload spreads its events over.
    pub tie_instants: u64,
    /// Self-rescheduling engine chain length.
    pub chain_events: u64,
    /// Same-instant batch size × rounds for the batched-delivery workload.
    pub batch_width: u64,
    pub batch_rounds: u64,
    /// Co-simulation horizon.
    pub cosim_horizon: SimTime,
    /// NoC benchmark window (cycles) and packet gap.
    pub noc_cycles: u64,
    pub noc_gap: u64,
}

impl PerfScale {
    /// The scale the committed `BENCH_*.json` baselines are produced at.
    pub fn full() -> Self {
        PerfScale {
            hold_population: 4_096,
            hold_ops: 2_000_000,
            burst_events: 1_000_000,
            tie_events: 1_000_000,
            tie_instants: 1_000,
            chain_events: 2_000_000,
            batch_width: 64,
            batch_rounds: 20_000,
            cosim_horizon: SimTime::from_us(200.0),
            noc_cycles: 500_000,
            noc_gap: 1_000,
        }
    }

    /// CI smoke scale: seconds, not minutes, on one core.
    pub fn quick() -> Self {
        PerfScale {
            hold_population: 1_024,
            hold_ops: 200_000,
            burst_events: 100_000,
            tie_events: 100_000,
            tie_instants: 100,
            chain_events: 200_000,
            batch_width: 32,
            batch_rounds: 2_000,
            cosim_horizon: SimTime::from_us(20.0),
            noc_cycles: 50_000,
            noc_gap: 1_000,
        }
    }
}

/// Hold model: a steady-state population of events; each step pops the
/// earliest and schedules a replacement a random (seeded, exponential-ish)
/// delay into the future. This is the canonical priority-queue benchmark
/// and the closest match to a simulator's mostly-monotonic hot path.
/// Returns events cycled through the queue (checksum-guarded).
fn hold_model<Q: BenchQueue>(population: u64, ops: u64) -> u64 {
    let mut q = Q::default();
    let mut rng = SimRng::seed_from(0x5EED);
    for i in 0..population {
        q.schedule(SimTime::from_ps(rng.gen_range(0..1_000_000)), i);
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let (t, p) = q.pop().expect("population stays constant");
        checksum = checksum.wrapping_add(p);
        // Mean delay ~64 ns: mostly near-future, occasionally far.
        let delay = 1 + (rng.gen_range(0..u64::MAX) >> 47);
        q.schedule(t + SimDuration::from_ps(delay), p);
    }
    checksum
}

/// Sparse hold model: 16 pending events, each popped event replaced by one
/// a uniform 1 ps–2 ms later. This is the scheduler's shape — a few task
/// releases and completion checks spread over milliseconds — where most
/// calendar buckets between two pending events are empty. Returns events
/// cycled through the queue (checksum-guarded).
fn sparse_hold<Q: BenchQueue>(ops: u64) -> u64 {
    const PENDING: u64 = 16;
    const MAX_DELAY_PS: u64 = 2_000_000_000;
    let mut q = Q::default();
    let mut rng = SimRng::seed_from(0x5BA5);
    for i in 0..PENDING {
        q.schedule(SimTime::from_ps(rng.gen_range(1..=MAX_DELAY_PS)), i);
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let (t, p) = q.pop().expect("population stays constant");
        checksum = checksum.wrapping_add(p ^ t.as_ps());
        let delay = rng.gen_range(1..=MAX_DELAY_PS);
        q.schedule(t + SimDuration::from_ps(delay), p);
    }
    checksum
}

/// Burst model: schedule `n` events at seeded random times, then drain the
/// queue dry. Exercises bucket distribution + per-bucket sorting against
/// the heap's `O(n log n)`.
fn burst<Q: BenchQueue>(n: u64) -> u64 {
    let mut q = Q::default();
    let mut rng = SimRng::seed_from(0xB17E);
    for i in 0..n {
        q.schedule(SimTime::from_ps(rng.gen_range(0..100_000_000)), i);
    }
    let mut popped = 0u64;
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

/// Tie-heavy model: `n` events over only `instants` distinct timestamps,
/// so same-instant FIFO batches dominate — the case the batched delivery
/// path amortizes.
fn tie_burst<Q: BenchQueue>(n: u64, instants: u64) -> u64 {
    let mut q = Q::default();
    let mut rng = SimRng::seed_from(0x71E5);
    for i in 0..n {
        let t = rng.gen_range(0..instants) * 1_000;
        q.schedule(SimTime::from_ps(t), i);
    }
    let mut popped = 0u64;
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

/// A process that re-schedules itself `remaining` times — the minimal
/// kick-style chain, measuring pure engine + queue overhead per event.
struct Chain {
    remaining: u64,
}

impl Process for Chain {
    type Event = ();
    fn handle(&mut self, _ev: (), sink: &mut dyn EventSink<()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sink.schedule_in(SimDuration::from_ns(10.0), ());
        }
    }
}

/// Runs the self-rescheduling chain; returns events delivered.
pub fn engine_chain(events: u64) -> u64 {
    let mut engine = Engine::new();
    engine.schedule_at(SimTime::ZERO, ());
    let mut chain = Chain { remaining: events };
    engine.run(&mut chain);
    engine.delivered()
}

/// A process that answers every kick with a `width`-event same-instant
/// batch scheduled one period ahead — the workload the per-timestamp
/// batching in `run_until` exists for.
struct Batcher {
    width: u64,
    rounds: u64,
}

impl Process for Batcher {
    type Event = u64;
    fn handle(&mut self, ev: u64, sink: &mut dyn EventSink<u64>) {
        // Only the batch's first event (payload 0) schedules the next
        // round; the rest are passive same-instant deliveries.
        if ev == 0 && self.rounds > 0 {
            self.rounds -= 1;
            for i in 0..self.width {
                sink.schedule_in(SimDuration::from_ns(100.0), i);
            }
        }
    }
}

/// Runs the same-instant batch workload; returns events delivered.
fn engine_batches(width: u64, rounds: u64) -> u64 {
    let mut engine = Engine::new();
    engine.schedule_at(SimTime::ZERO, 0);
    let mut p = Batcher { width, rounds };
    engine.run(&mut p);
    engine.delivered()
}

/// Runs the composed co-simulation (DRAM + NoC + MemGuard + sched +
/// admission under one clock) to `horizon`; returns kernel events
/// delivered. This is the kick-path number: everything flows through
/// `Engine::run_until`.
fn cosim_kick(horizon: SimTime) -> u64 {
    let mut cfg = CoSimConfig::small();
    cfg.horizon = horizon;
    CoSim::new(cfg).run().events_delivered
}

/// Same sparse workload into a fresh 4x4 mesh: a 4-flit packet every
/// `gap` cycles, round-robin over the west-edge sources.
pub fn sparse_noc(cycles: u64, gap: u64) -> NocSim {
    let mut n = NocSim::new(NocConfig::new(4, 4));
    for (i, release) in (0..cycles).step_by(gap as usize).enumerate() {
        let src = NodeId::at(0, (i as u32) % 4, 4);
        n.inject(Packet::new(i as u64, src, NodeId(15), 4), release);
    }
    n
}

/// Sweeps of the WCD workload at every scale: the paper's claim is about
/// the cost of one bound, not about a workload size.
const WCD_SWEEPS: u64 = 2_000;

/// Computes the §IV-A upper and lower WCD bounds at each Table II write
/// rate, `sweeps` times over; returns the number of bounds computed.
fn wcd_bounds(sweeps: u64) -> u64 {
    let params = TABLE2_WRITE_RATES_GBPS.map(table2_params);
    for _ in 0..sweeps {
        for p in &params {
            black_box(bounds(black_box(p)).expect("Table II rates stay below saturation"));
        }
    }
    2 * params.len() as u64 * sweeps
}

/// Wall-clock throughput of `ops` operations done by `f`.
fn events_per_sec<F: FnOnce() -> u64>(f: F) -> (u64, f64) {
    let started = Instant::now();
    let ops = f();
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    (ops, ops as f64 / wall)
}

/// Measures every kernel workload at `scale` and publishes the results:
/// `kernel.queue.<impl>.*_events_per_sec` gauges for both queue
/// implementations (hold, sparse hold, burst and ties, plus the
/// calendar-vs-heap hold speedup),
/// `kernel.engine.*` for the chain and batched-delivery paths, and
/// `kernel.wcd.bounds_per_sec` for the Table II WCD bounds. Counters
/// record the workload sizes.
pub fn kernel_baselines(scale: PerfScale) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.counter_add("kernel.scale.hold_population", scale.hold_population);
    m.counter_add("kernel.scale.hold_ops", scale.hold_ops);
    m.counter_add("kernel.scale.burst_events", scale.burst_events);
    m.counter_add("kernel.scale.tie_events", scale.tie_events);
    m.counter_add("kernel.scale.tie_instants", scale.tie_instants);
    m.counter_add("kernel.scale.chain_events", scale.chain_events);
    m.counter_add(
        "kernel.scale.batch_events",
        scale.batch_width * scale.batch_rounds,
    );

    fn queue_rates<Q: BenchQueue>(m: &mut MetricsRegistry, scale: PerfScale) -> f64 {
        let name = Q::NAME;
        let (_, hold_rate) = events_per_sec(|| {
            hold_model::<Q>(scale.hold_population, scale.hold_ops);
            scale.hold_ops
        });
        m.gauge_set(
            format!("kernel.queue.{name}.hold_events_per_sec"),
            hold_rate,
        );
        let (_, rate) = events_per_sec(|| {
            sparse_hold::<Q>(scale.hold_ops);
            scale.hold_ops
        });
        m.gauge_set(format!("kernel.queue.{name}.sparse_events_per_sec"), rate);
        let (_, rate) = events_per_sec(|| burst::<Q>(scale.burst_events));
        m.gauge_set(format!("kernel.queue.{name}.burst_events_per_sec"), rate);
        let (_, rate) = events_per_sec(|| tie_burst::<Q>(scale.tie_events, scale.tie_instants));
        m.gauge_set(format!("kernel.queue.{name}.ties_events_per_sec"), rate);
        hold_rate
    }
    let calendar_hold = queue_rates::<EventQueue<u64>>(&mut m, scale);
    let heap_hold = queue_rates::<HeapEventQueue<u64>>(&mut m, scale);
    m.gauge_set(
        "kernel.queue.hold_speedup_vs_heap",
        calendar_hold / heap_hold,
    );

    let (delivered, rate) = events_per_sec(|| engine_chain(scale.chain_events));
    m.counter_add("kernel.engine.chain_events_delivered", delivered);
    m.gauge_set("kernel.engine.chain_events_per_sec", rate);

    let (delivered, rate) =
        events_per_sec(|| engine_batches(scale.batch_width, scale.batch_rounds));
    m.counter_add("kernel.engine.batch_events_delivered", delivered);
    m.gauge_set("kernel.engine.batch_events_per_sec", rate);

    let (computed, rate) = events_per_sec(|| wcd_bounds(WCD_SWEEPS));
    m.counter_add("kernel.wcd.bounds_computed", computed);
    m.gauge_set("kernel.wcd.bounds_per_sec", rate);

    m
}

/// Measures the composed-platform workloads at `scale` and publishes:
/// the co-sim kick-path event rate and the event-driven vs dense
/// (tick-stepped) NoC comparison on identical sparse traffic.
pub fn cosim_baselines(scale: PerfScale) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();

    let (delivered, rate) = events_per_sec(|| cosim_kick(scale.cosim_horizon));
    m.counter_add("cosim.kick.events_delivered", delivered);
    m.gauge_set("cosim.kick.events_per_sec", rate);
    m.gauge_set("cosim.kick.horizon_us", scale.cosim_horizon.as_us());

    let mut dense = sparse_noc(scale.noc_cycles, scale.noc_gap);
    let started = Instant::now();
    dense.run_cycles_dense(scale.noc_cycles);
    let dense_wall = started.elapsed().as_secs_f64().max(1e-9);

    let mut event = sparse_noc(scale.noc_cycles, scale.noc_gap);
    let started = Instant::now();
    event.run_cycles(scale.noc_cycles);
    let event_wall = started.elapsed().as_secs_f64().max(1e-9);

    assert_eq!(
        dense.completed().len(),
        event.completed().len(),
        "kernel paths must agree before their timings mean anything"
    );

    m.counter_add("cosim.noc.cycles", scale.noc_cycles);
    m.counter_add(
        "cosim.noc.packets_delivered",
        event.completed().len() as u64,
    );
    m.gauge_set(
        "cosim.noc.dense_cycles_per_sec",
        scale.noc_cycles as f64 / dense_wall,
    );
    m.gauge_set(
        "cosim.noc.event_cycles_per_sec",
        scale.noc_cycles as f64 / event_wall,
    );
    m.gauge_set("cosim.noc.event_vs_dense_speedup", dense_wall / event_wall);

    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_model_checksum_is_implementation_independent() {
        // Same seeded workload through both queues: identical pop streams.
        let a = hold_model::<EventQueue<u64>>(64, 2_000);
        let b = hold_model::<HeapEventQueue<u64>>(64, 2_000);
        assert_eq!(a, b);
        let a = sparse_hold::<EventQueue<u64>>(20_000);
        let b = sparse_hold::<HeapEventQueue<u64>>(20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn burst_workloads_conserve_events() {
        assert_eq!(burst::<EventQueue<u64>>(1_000), 1_000);
        assert_eq!(burst::<HeapEventQueue<u64>>(1_000), 1_000);
        assert_eq!(tie_burst::<EventQueue<u64>>(1_000, 7), 1_000);
    }

    #[test]
    fn engine_workloads_deliver_expected_event_counts() {
        assert_eq!(engine_chain(100), 101); // initial kick + 100 reschedules
        let delivered = engine_batches(8, 10);
        assert_eq!(delivered, 1 + 8 * 10); // kick + rounds full batches
    }

    #[test]
    fn baselines_export_under_the_shared_schema() {
        let mut scale = PerfScale::quick();
        scale.hold_ops = 1_000;
        scale.burst_events = 1_000;
        scale.tie_events = 1_000;
        scale.chain_events = 1_000;
        scale.batch_rounds = 50;
        scale.cosim_horizon = SimTime::from_us(5.0);
        scale.noc_cycles = 5_000;
        let kernel = kernel_baselines(scale);
        autoplat_sim::metrics::validate_json_export(&kernel.to_json()).expect("kernel schema");
        let cosim = cosim_baselines(scale);
        autoplat_sim::metrics::validate_json_export(&cosim.to_json()).expect("cosim schema");
        assert!(kernel
            .to_json()
            .contains("kernel.queue.calendar.hold_events_per_sec"));
        assert!(kernel
            .to_json()
            .contains("kernel.queue.heap.hold_events_per_sec"));
        for name in ["calendar", "heap"] {
            let key = format!("kernel.queue.{name}.sparse_events_per_sec");
            assert!(kernel.gauge(&key).is_some(), "{key}");
        }
        assert!(cosim.to_json().contains("cosim.kick.events_per_sec"));
        assert_eq!(kernel.counter("kernel.wcd.bounds_computed"), 8 * WCD_SWEEPS);
        let rate = kernel.gauge("kernel.wcd.bounds_per_sec");
        assert!(rate.is_some_and(|r| r > 0.0), "{rate:?}");
        for p in TABLE2_WRITE_RATES_GBPS.map(table2_params) {
            let (lower, upper) = bounds(&p).expect("below saturation");
            assert!(upper.delay_ns.is_finite() && upper.delay_ns >= lower.delay_ns);
        }
    }
}
