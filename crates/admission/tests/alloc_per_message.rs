//! A fleet's steady-state control messages must not allocate.
//!
//! This test binary installs a counting global allocator. The counter is
//! a `const` thread-local, so allocations made by the test harness's
//! other threads stay out of the count. A hierarchical fleet of 1,000
//! clients runs to two horizons; once every client is admitted, the extra
//! cycles carry only heartbeats, their watchdog touches and the idle
//! bundle digests. The extra allocations over the extra control messages
//! must stay below one per two messages: a kick that allocates its
//! buffers, or an RM that allocates per heartbeat, shows up as several
//! per message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autoplat_admission::{FleetConfig, FleetSim, FleetTopology};

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

/// Control messages of a fault-free 1,000-client, 8-cluster fleet run to
/// `horizon`, and the allocations made on this thread while building and
/// running it.
fn run(horizon: u64) -> (u64, u64) {
    let cfg = FleetConfig {
        clients: 1_000,
        clusters: 8,
        horizon,
        topology: FleetTopology::Hierarchical,
        ..FleetConfig::default()
    };
    let before = ALLOCATIONS.with(Cell::get);
    let outcome = FleetSim::new(cfg).run();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(outcome.admitted.len(), 1_000);
    (outcome.control_messages, allocations)
}

#[test]
fn steady_state_messages_do_not_allocate() {
    let (short_messages, short_allocations) = run(60_000);
    let (long_messages, long_allocations) = run(240_000);
    let extra_messages = long_messages - short_messages;
    let extra_allocations = long_allocations.saturating_sub(short_allocations);
    assert!(extra_messages > 50_000, "{extra_messages} extra messages");
    assert!(
        2 * extra_allocations <= extra_messages,
        "{short_allocations} allocations for {short_messages} messages over 60k cycles, \
         {long_allocations} for {long_messages} over 240k: {extra_allocations} for \
         {extra_messages} extra messages"
    );
}
