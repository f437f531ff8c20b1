//! The global fixed-priority simulator must not allocate per event.
//!
//! This test binary installs a counting global allocator. The counter is
//! a `const` thread-local, so allocations made by the test harness's
//! other threads stay out of the count. Ten times the horizon means ten
//! times the events; a simulator whose allocations scale with its events
//! shows up as a tenfold count, while one that only allocates to grow
//! its buffers stays within a factor of two. On four cores the backlog
//! stays bounded, so the count is also held to a fixed handful: the
//! engine's event queue and the job queues grow to their peak and stop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autoplat_sched::simulate::simulate_global_fp;
use autoplat_sched::task::TaskSet;
use autoplat_sim::{SimDuration, SimRng};

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

/// Allocations allowed in one four-core run, whatever its horizon.
const MAX_ALLOCATIONS_PER_RUN: u64 = 48;

#[test]
fn global_fp_allocations_do_not_scale_with_events() {
    // The first set `ablation_sched` draws: seed 2021, 12 tasks, 0.7
    // utilization per core on 4 cores (so 2.8 on one core, a growing
    // backlog).
    let ts = TaskSet::generate(
        12,
        2.8,
        SimDuration::from_us(100.0),
        SimDuration::from_us(2_000.0),
        &mut SimRng::seed_from(2021),
    )
    .rate_monotonic();
    for cores in [4, 1] {
        let short = allocations_during(|| {
            simulate_global_fp(ts.tasks(), cores, SimDuration::from_us(20_000.0));
        });
        let long = allocations_during(|| {
            simulate_global_fp(ts.tasks(), cores, SimDuration::from_us(200_000.0));
        });
        assert!(
            long <= 2 * short,
            "{cores} cores: {short} allocations over 20 ms but {long} over 200 ms"
        );
        if cores == 4 {
            // On one core the backlog grows for the whole horizon, and so
            // do the job queues; only the relative bound applies there.
            for (horizon, n) in [("20 ms", short), ("200 ms", long)] {
                assert!(
                    n <= MAX_ALLOCATIONS_PER_RUN,
                    "4 cores: {n} allocations over {horizon}, more than {MAX_ALLOCATIONS_PER_RUN}"
                );
            }
        }
    }
}
