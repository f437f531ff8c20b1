//! A co-simulation's steady-state packets must not allocate.
//!
//! This test binary installs a counting global allocator. The counter is
//! a `const` thread-local, so allocations made by the test harness's
//! other threads stay out of the count. The closed-loop `small_qos`
//! platform runs to two horizons, and only `CoSim::run` is counted; the
//! extra half millisecond carries about 12,000 more packets through the
//! mesh. The extra allocations over the extra packets must stay below
//! one per two packets: a network that allocates flits per packet, or a
//! drain that collects its arrivals per tick, shows up as several per
//! packet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autoplat_core::cosim::{CoSim, CoSimConfig};
use autoplat_noc::{NocConfig, NocSim};
use autoplat_sim::SimTime;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a `Cell` in a `const` thread-local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Packets delivered by a seed-1 `small_qos` co-sim released up to
/// `horizon_us`, and the allocations its `run` made.
fn run(horizon_us: f64) -> (u64, u64) {
    let mut cfg = CoSimConfig::small_qos();
    cfg.horizon = SimTime::from_us(horizon_us);
    cfg.seed = 1;
    let sim = CoSim::new(cfg);
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
fn network_construction_does_not_allocate_per_router() {
    let (small, _) = allocations_during(|| NocSim::new(NocConfig::new(4, 4)));
    let (large, _) = allocations_during(|| NocSim::new(NocConfig::new(16, 16)));
    assert_eq!(small, large, "4x4 and 16x16 meshes allocate alike");
    assert!(small <= 8, "{small} allocations for one NocSim");
}
