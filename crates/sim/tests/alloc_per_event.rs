//! The event kernel must not allocate per event.
//!
//! This test binary installs a counting global allocator. The counter is
//! a `const` thread-local, so allocations made by the test harness's
//! other threads stay out of the count. A fresh engine that holds a
//! steady population of events should allocate only to grow its queue to
//! that population, once, and never again however many events it
//! delivers. The populations are those the workspace's engines hold: 16
//! is about the mean of a co-sim's or a scheduling run's queue, 64 about
//! the largest seen in any benchmark workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autoplat_sim::engine::EventSink;
use autoplat_sim::{Engine, Process, SimDuration, SimTime};

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

/// Allocations made on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Deliveries each run makes beyond its initial population.
const DELIVERIES: u64 = 100_000;

/// A hold model on the engine: every delivery reschedules its event a
/// seeded 1 ps–1 µs later, so the population stays constant until
/// `remaining` runs out and the queue drains.
struct Hold {
    remaining: u64,
    state: u64,
}

impl Hold {
    /// splitmix64, reduced to a delay in picoseconds.
    fn next_delay(&mut self) -> SimDuration {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        SimDuration::from_ps(1 + (z ^ (z >> 31)) % 1_000_000)
    }
}

impl Process for Hold {
    type Event = u64;

    fn handle(&mut self, event: u64, sink: &mut dyn EventSink<u64>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let delay = self.next_delay();
            sink.schedule_in(delay, event);
        }
    }
}

/// Allocations of a fresh engine holding `population` events through
/// [`DELIVERIES`] deliveries, from construction to the drained queue.
fn hold_allocations(population: u64) -> u64 {
    let mut hold = Hold {
        remaining: DELIVERIES,
        state: population,
    };
    let mut delivered = 0;
    let n = allocations_during(|| {
        let mut engine = Engine::new();
        for event in 0..population {
            engine.schedule_at(SimTime::ZERO + hold.next_delay(), event);
        }
        engine.run(&mut hold);
        delivered = engine.delivered();
    });
    assert_eq!(delivered, DELIVERIES + population);
    n
}

#[test]
fn engine_holding_64_events_allocates_a_fixed_handful() {
    let n = hold_allocations(64);
    assert!(n <= 8, "{n} allocations for 64 pending events");
}

#[test]
fn engine_holding_16_events_allocates_a_fixed_handful() {
    let n = hold_allocations(16);
    assert!(n <= 6, "{n} allocations for 16 pending events");
}
