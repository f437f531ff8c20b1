//! A co-simulation's steady-state packets must not allocate, and its
//! memory must not grow with the horizon.
//!
//! This test binary installs a counting global allocator that also
//! tracks the bytes live on each thread and their high-water mark. The
//! counters are `const` thread-locals, so allocations made by the test
//! harness's other threads stay out of the count. The closed-loop
//! `small_qos` platform runs to two horizons, and only `CoSim::run` is
//! counted; the extra half millisecond carries about 12,000 more packets
//! through the mesh. The extra allocations over the extra packets must
//! stay below one per two packets: a network that allocates flits per
//! packet, or a drain that collects its arrivals per tick, shows up as
//! several per packet. The peak of live bytes must stay nearly flat: a
//! store that keeps a record per packet for the whole run grows by
//! hundreds of KiB over the extra half millisecond.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autoplat_core::cosim::{CoSim, CoSimConfig};
use autoplat_noc::{NocConfig, NocSim};
use autoplat_sim::SimTime;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread. Signed: memory
    /// another thread allocated may be freed here.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE_BYTES` since the last reset.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Adds `delta` bytes to this thread's live total and raises its peak.
fn track(delta: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are `Cell`s in `const` thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs, and its result.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The most bytes this thread held live while `f` ran, beyond those live
/// when it started, and its result.
fn peak_bytes_during<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(before));
    let out = f();
    (PEAK_BYTES.with(Cell::get) - before, out)
}

/// A seed-1 `small_qos` co-sim released up to `horizon_us`.
fn small_qos(horizon_us: f64) -> CoSim {
    let mut cfg = CoSimConfig::small_qos();
    cfg.horizon = SimTime::from_us(horizon_us);
    cfg.seed = 1;
    CoSim::new(cfg)
}

/// Packets delivered by a seed-1 `small_qos` co-sim released up to
/// `horizon_us`, and the allocations its `run` made.
fn run(horizon_us: f64) -> (u64, u64) {
    let sim = small_qos(horizon_us);
    let (allocations, report) = allocations_during(|| sim.run());
    (report.packets_delivered as u64, allocations)
}

#[test]
fn steady_state_packets_do_not_allocate() {
    let (short_packets, short_allocations) = run(500.0);
    let (long_packets, long_allocations) = run(1_000.0);
    let extra_packets = long_packets - short_packets;
    let extra_allocations = long_allocations.saturating_sub(short_allocations);
    assert!(extra_packets > 10_000, "{extra_packets} extra packets");
    assert!(
        2 * extra_allocations <= extra_packets,
        "{short_allocations} allocations for {short_packets} packets over 0.5 ms, \
         {long_allocations} for {long_packets} over 1 ms: {extra_allocations} for \
         {extra_packets} extra packets"
    );
}

#[test]
fn peak_memory_does_not_grow_with_the_horizon() {
    let (sim_short, sim_long) = (small_qos(500.0), small_qos(1_000.0));
    let (short, _) = peak_bytes_during(|| sim_short.run());
    let (long, _) = peak_bytes_during(|| sim_long.run());
    assert!(
        (long - short).abs() < 64 * 1024,
        "peak live bytes {short} over 0.5 ms, {long} over 1 ms"
    );
}

#[test]
fn network_construction_does_not_allocate_per_router() {
    let (small, _) = allocations_during(|| NocSim::new(NocConfig::new(4, 4)));
    let (large, _) = allocations_during(|| NocSim::new(NocConfig::new(16, 16)));
    assert_eq!(small, large, "4x4 and 16x16 meshes allocate alike");
    assert!(small <= 8, "{small} allocations for one NocSim");
}
