//! Standalone unit-cost probes: each layer's public hot function timed
//! outside the co-simulation, on inputs shaped from a workload's counts.
//!
//! These are standalone costs, not self time inside `CoSim::run`: caches,
//! branch history and allocation patterns differ from the composed loop,
//! so `count × ns/op` attributes a run only approximately and the
//! residual is reported as glue.

use std::hint::black_box;

use autoplat_bench::perf::{engine_chain, sparse_noc};
use autoplat_cache::{CacheConfig, ClusterPartCr, FlowId, PartitionGroup, SchemeId, SetAssocCache};
use autoplat_dram::timing::presets::ddr3_1600;
use autoplat_dram::DramChannel;
use autoplat_mpam::{
    CacheStorageMonitor, MemoryBandwidthMonitor, MemorySystemComponent, MonitorFilter, MpamLabel,
    PartId, PartIdSpace, Pmg,
};
use autoplat_noc::{NocConfig, NocSim, NodeId, Packet};
use autoplat_regulation::{ClosedLoopConfig, ClosedLoopController, MemGuard, MonitorCapture};
use autoplat_sim::{SimDuration, SimRng, SimTime};

use crate::clock::CpuInstant;

/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;

/// Median CPU nanoseconds per op of `REPS` runs of `f`, which performs
/// `ops` ops per call.
fn median_ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = CpuInstant::now();
            f();
            t.elapsed_s() * 1e9 / ops.max(1) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

/// `Engine` dispatch cost: a self-rescheduling chain of `events` events.
pub fn engine_ns_per_event(events: u64) -> f64 {
    median_ns_per_op(events, || {
        black_box(engine_chain(events));
    })
}

/// `perf::sparse_noc` for any mesh: one 4-flit packet every `gap` cycles,
/// round-robin over the west-edge nodes, into the last node (where the
/// co-sim's memory controller sits).
fn sparse_mesh(cols: u32, rows: u32, cycles: u64, gap: u64) -> NocSim {
    if (cols, rows) == (4, 4) {
        return sparse_noc(cycles, gap);
    }
    let mut n = NocSim::new(NocConfig::new(cols, rows));
    let sink = NodeId(cols * rows - 1);
    for (i, release) in (0..cycles).step_by(gap as usize).enumerate() {
        let src = NodeId::at(0, (i as u32) % rows, cols);
        n.inject(Packet::new(i as u64, src, sink, 4), release);
    }
    n
}

/// `NocSim::run_cycles` cost per tick on a `cols`×`rows` mesh with one
/// 4-flit packet every `gap` cycles over `cycles` cycles. Ticks are
/// counted on an identical mesh advanced one cycle at a time, outside
/// the timed region.
pub fn noc_ns_per_tick(cols: u32, rows: u32, cycles: u64, gap: u64) -> f64 {
    let mut counter = sparse_mesh(cols, rows, cycles, gap);
    let mut ticks = 0u64;
    for _ in 0..cycles {
        let end = counter.now() + counter.cycle_time();
        if counter.next_activation().is_some_and(|at| at < end) {
            ticks += 1;
        }
        counter.run_cycles(1);
    }
    median_ns_per_op(ticks, || {
        let mut noc = sparse_mesh(cols, rows, cycles, gap);
        noc.run_cycles(cycles);
        black_box(noc.completed().len());
    })
}

/// `DramChannel::service` cost: `services` line addresses drawn from a
/// 1 MiB window (the co-sim tasks' default) arriving every `spacing_ns`.
pub fn dram_ns_per_service(services: u64, spacing_ns: f64, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from(seed);
    let addrs: Vec<u64> = (0..services)
        .map(|_| (rng.next_u64() % (1 << 20)) & !63)
        .collect();
    let spacing = SimDuration::from_ns(spacing_ns.max(0.001));
    median_ns_per_op(services, || {
        let mut ch = DramChannel::new(ddr3_1600(), 8, 8192);
        let mut at = SimTime::ZERO;
        for &a in &addrs {
            black_box(ch.service(a, at));
            at += spacing;
        }
    })
}

/// The `CoSimConfig::small_qos` shared cache: 64 sets × 16 ways, with
/// its partition-group-to-scheme assignment.
fn qos_cache() -> SetAssocCache {
    let mut cache = SetAssocCache::new(CacheConfig::new(64, 16, 64));
    let mut partcr = ClusterPartCr::new();
    for g in 0..4u8 {
        partcr.assign(
            PartitionGroup::new(g),
            SchemeId::new(g % 3).expect("scheme id in range"),
        );
    }
    partcr.apply_to(&mut cache);
    cache
}

/// `SetAssocCache::access` cost: `accesses` lines from a 1 MiB window,
/// round-robin over the three task flows.
pub fn cache_ns_per_access(accesses: u64, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from(seed);
    let flows: Vec<FlowId> = (0..3u8)
        .map(|s| SchemeId::new(s).expect("scheme id in range").flow())
        .collect();
    let trace: Vec<(FlowId, u64)> = (0..accesses)
        .map(|i| (flows[i as usize % 3], (rng.next_u64() % (1 << 20)) & !63))
        .collect();
    median_ns_per_op(accesses, || {
        let mut cache = qos_cache();
        for &(flow, addr) in &trace {
            black_box(cache.access(flow, addr));
        }
    })
}

/// `MemorySystemComponent::on_transfer` and `on_fill` costs (ns each) on
/// the co-sim's MSC shape: one bandwidth and one storage monitor per
/// partition, three partitions, labels round-robin.
pub fn mpam_ns(transfers: u64) -> (f64, f64) {
    let labels: Vec<MpamLabel> = (0..3u16)
        .map(|p| MpamLabel::new(PartId(p), Pmg(0), PartIdSpace::PhysicalNonSecure))
        .collect();
    let msc = || {
        let mut msc = MemorySystemComponent::new("probe.l3");
        for p in 0..3u16 {
            let filter = MonitorFilter::partid_only(PartId(p));
            msc.add_bandwidth_monitor(MemoryBandwidthMonitor::new(filter));
            msc.add_storage_monitor(CacheStorageMonitor::new(filter));
        }
        msc
    };
    let transfer = median_ns_per_op(transfers, || {
        let mut m = msc();
        for i in 0..transfers {
            m.on_transfer(&labels[i as usize % 3], true, 64);
        }
        black_box(&m);
    });
    let fill = median_ns_per_op(transfers, || {
        let mut m = msc();
        for i in 0..transfers {
            m.on_fill(&labels[i as usize % 3], 64);
        }
        black_box(&m);
    });
    (transfer, fill)
}

/// `MemGuard::try_access` cost: `calls` 64-byte requests round-robin over
/// the cores of `budgets`, one every `spacing_ns`, 1 µs periods.
pub fn memguard_ns_per_try(calls: u64, spacing_ns: f64, budgets: &[u64]) -> f64 {
    let spacing = SimDuration::from_ns(spacing_ns.max(0.001));
    let cores = budgets.len();
    median_ns_per_op(calls, || {
        let mut mg = MemGuard::new(SimDuration::from_us(1.0), budgets.to_vec());
        let mut now = SimTime::ZERO;
        for i in 0..calls {
            black_box(mg.try_access(i as usize % cores, 64, now));
            now += spacing;
        }
    })
}

/// `ClosedLoopController::on_epoch` cost in µs per epoch: the workload's
/// own capture sequence replayed into fresh controllers until at least
/// `min_epochs` epochs have been timed.
pub fn closed_loop_us_per_epoch(
    cfg: &ClosedLoopConfig,
    epochs: &[Vec<MonitorCapture>],
    min_epochs: u64,
) -> f64 {
    if epochs.is_empty() {
        return 0.0;
    }
    let replays = min_epochs.div_ceil(epochs.len() as u64).max(1);
    let ns = median_ns_per_op(replays * epochs.len() as u64, || {
        for _ in 0..replays {
            let mut c = ClosedLoopController::new(cfg.clone());
            for captures in epochs {
                black_box(c.on_epoch(captures));
            }
        }
    });
    ns / 1000.0
}
