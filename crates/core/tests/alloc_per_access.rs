//! The platform model must not allocate per access or per cache set.
//!
//! This test binary installs a counting global allocator that also sums
//! the bytes asked for. The counters are `const` thread-locals, so
//! allocations made by the test harness's other threads stay out of the
//! count. A platform whose run materializes its access streams shows up
//! as bytes that double with the stream length; a cache that allocates
//! per set shows up as a construction count that grows with the sets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autoplat_core::platform::{Platform, PlatformConfig};
use autoplat_core::workload::Workload;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the slots are gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are `Cell`s in `const` thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes asked for on this thread while `f` runs, and
/// its result.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    (after.0 - before.0, after.1 - before.1, out)
}

#[test]
fn construction_does_not_allocate_per_set() {
    let (tiny, _, _) = allocations_during(|| Platform::new(PlatformConfig::tiny()));
    let (small, _, _) = allocations_during(|| Platform::new(PlatformConfig::small()));
    assert_eq!(
        tiny, small,
        "a 256-set and a 2048-set L3 must allocate alike: {tiny} vs {small} allocations"
    );
}

/// Allocations and bytes of one run of the probe and three hogs of
/// `ablation_cache`, each hog making `hog_accesses` accesses, on a fresh
/// `tiny()` platform built outside the count.
fn run(hog_accesses: usize) -> (u64, u64) {
    let mut platform = Platform::new(PlatformConfig::tiny());
    let load = [
        Workload::latency_probe(0, 4000),
        Workload::bandwidth_hog(1, hog_accesses),
        Workload::bandwidth_hog(2, hog_accesses),
        Workload::bandwidth_hog(3, hog_accesses),
    ];
    let (allocations, bytes, report) = allocations_during(|| platform.run(&load));
    assert_eq!(report.cores[1].accesses, hog_accesses as u64);
    (allocations, bytes)
}

#[test]
fn runs_do_not_allocate_per_access() {
    let short = run(40_000);
    let long = run(80_000);
    assert_eq!(
        short, long,
        "(allocations, bytes) at 40k accesses per hog vs 80k"
    );
}
