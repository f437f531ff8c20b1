//! Criterion bench for the event kernel: queue schedule/pop throughput
//! (calendar vs the retained `BinaryHeap` baseline, dense and sparse
//! hold, bursts and ties), engine chain and
//! same-instant batch delivery, the co-sim kick path, and the
//! event-driven vs dense NoC stepping ratio.
//!
//! The workloads live in `autoplat_bench::perf` and are shared with the
//! `perf` binary, which exports the same measurements as
//! `BENCH_kernel.json` / `BENCH_cosim.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use autoplat_bench::perf::{
    burst, cosim_kick, engine_batches, engine_chain, hold_model, sparse_hold, sparse_noc, tie_burst,
};
use autoplat_sim::event::HeapEventQueue;
use autoplat_sim::{EventQueue, SimTime};

fn bench_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue");
    group.bench_function("calendar_hold_4k_x_200k", |b| {
        b.iter(|| hold_model::<EventQueue<u64>>(4_096, 200_000));
    });
    group.bench_function("heap_hold_4k_x_200k", |b| {
        b.iter(|| hold_model::<HeapEventQueue<u64>>(4_096, 200_000));
    });
    group.bench_function("calendar_sparse_16_x_200k", |b| {
        b.iter(|| sparse_hold::<EventQueue<u64>>(200_000));
    });
    group.bench_function("heap_sparse_16_x_200k", |b| {
        b.iter(|| sparse_hold::<HeapEventQueue<u64>>(200_000));
    });
    group.bench_function("calendar_burst_100k", |b| {
        b.iter(|| burst::<EventQueue<u64>>(100_000));
    });
    group.bench_function("heap_burst_100k", |b| {
        b.iter(|| burst::<HeapEventQueue<u64>>(100_000));
    });
    group.bench_function("calendar_ties_100k_over_100", |b| {
        b.iter(|| tie_burst::<EventQueue<u64>>(100_000, 100));
    });
    group.bench_function("heap_ties_100k_over_100", |b| {
        b.iter(|| tie_burst::<HeapEventQueue<u64>>(100_000, 100));
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.bench_function("chain_200k", |b| {
        b.iter(|| engine_chain(200_000));
    });
    group.bench_function("batches_32_x_2k", |b| {
        b.iter(|| engine_batches(32, 2_000));
    });
    group.finish();
}

fn bench_cosim(c: &mut Criterion) {
    let mut group = c.benchmark_group("cosim");
    group.bench_function("kick_path_20us", |b| {
        b.iter(|| cosim_kick(SimTime::from_us(20.0)));
    });
    group.bench_function("noc_event_50k_cycles", |b| {
        b.iter(|| {
            let mut n = sparse_noc(50_000, 1_000);
            n.run_cycles(50_000);
            n.completed().len()
        });
    });
    group.bench_function("noc_dense_50k_cycles", |b| {
        b.iter(|| {
            let mut n = sparse_noc(50_000, 1_000);
            n.run_cycles_dense(50_000);
            n.completed().len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_queue, bench_engine, bench_cosim);
criterion_main!(benches);
