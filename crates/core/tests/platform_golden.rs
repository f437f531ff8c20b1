//! Golden platform reports: `Platform::run` outputs pinned field by field.
//!
//! `tests/golden/platform_reports.txt` holds one line per run: every
//! `CoreReport` field of every core (f64s by their bits, times in
//! picoseconds), then the run's `dram_busy` and `finished_at`. It was
//! written once and is never regenerated; a change to the cache, the
//! DRAM channel, MemGuard regulation, the workload generators or the
//! platform loop shows up here as a first differing line.
//!
//! Two kinds of case:
//!
//! * the exact `Platform::run` inputs of the paper experiments
//!   (`interference`, `ablation_cache`, `ablation_memguard`,
//!   `ablation_cluster_l2`), a way-split and MemGuard-budget sweep of a
//!   probe against three hogs (`config_search …` rows), solo runs of
//!   hogs, a probe and paced writers (`profiling …` rows) and
//!   `examples/quickstart`;
//! * seeded platforms covering what those inputs leave out: random
//!   readers, write fractions 0, 0.3, 0.5 and 1, non-zero gaps, L3s
//!   under LRU, tree-PLRU and random replacement with 1, 12, 16 and 64
//!   ways, zero and partial way masks, L3 line caps, throttling MemGuard
//!   budgets, cluster L2s with masks, and 1, 3 and 8 DRAM banks. Each
//!   seeded case runs two or three times on one `Platform`: replacement
//!   state survives `reset()`, so a later run depends on the earlier
//!   ones.

use std::fmt::Write;

use autoplat_cache::cache::Replacement;
use autoplat_cache::{CacheConfig, FlowId};
use autoplat_core::platform::{CoreReport, Platform, PlatformConfig, PlatformReport};
use autoplat_core::workload::{Pattern, Workload};
use autoplat_sim::SimDuration;

/// splitmix64: a fixed generator, so the cases never depend on the
/// workspace's own RNG.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

fn bits(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |x| format!("{:016x}", x.to_bits()))
}

fn render_core(core: usize, c: &CoreReport, out: &mut String) {
    let lat = &c.read_latency;
    write!(
        out,
        " | c{core} acc={} l2={} l3h={} l3m={} row={} lat=n{}:{:016x}:{:016x}:{:016x}:{}:{} fin={} thr={}",
        c.accesses,
        c.l2_hits,
        c.l3_hits,
        c.l3_misses,
        c.row_hits,
        lat.count(),
        lat.mean().to_bits(),
        lat.variance().to_bits(),
        lat.sum().to_bits(),
        bits(lat.min()),
        bits(lat.max()),
        c.finished_at.as_ps(),
        c.throttled.as_ps()
    )
    .unwrap();
}

/// Renders one run as one line.
fn render(name: &str, run: usize, report: &PlatformReport, out: &mut String) {
    write!(
        out,
        "{name} run{run} busy={} end={}",
        report.dram_busy.as_ps(),
        report.finished_at.as_ps()
    )
    .unwrap();
    for (core, c) in report.cores.iter().enumerate() {
        render_core(core, c, out);
    }
    out.push('\n');
}

fn probe_and_hogs(probe: usize, hogs: usize, hog_count: usize) -> Vec<Workload> {
    let mut load = vec![Workload::latency_probe(0, probe)];
    load.extend((1..=hogs).map(|h| Workload::bandwidth_hog(h, hog_count)));
    load
}

/// X1: 0..=3 hogs beside the probe, all on one platform.
fn interference(out: &mut String) {
    let mut platform = Platform::new(PlatformConfig::tiny());
    for hogs in 0..=3 {
        render(
            "interference",
            hogs,
            &platform.run(&probe_and_hogs(3000, hogs, 40_000)),
            out,
        );
    }
}

/// X2: the way split between a critical probe and three hogs.
fn ablation_cache(out: &mut String) {
    for critical_ways in [0u32, 2, 4, 8, 12, 14] {
        let mut platform = Platform::new(PlatformConfig::tiny());
        if critical_ways > 0 {
            let critical_mask = (1u64 << critical_ways) - 1;
            platform.set_core_way_mask(0, critical_mask);
            for hog in 1..4 {
                platform.set_core_way_mask(hog, 0xFFFF & !critical_mask);
            }
        }
        let report = platform.run(&probe_and_hogs(4000, 3, 40_000));
        render(&format!("ablation_cache w{critical_ways}"), 0, &report, out);
    }
}

/// X3: the hog's MemGuard budget.
fn ablation_memguard(out: &mut String) {
    let load = probe_and_hogs(3000, 1, 40_000);
    let mut platform = Platform::new(PlatformConfig::tiny());
    render("ablation_memguard none", 0, &platform.run(&load), out);
    for budget in [1u64 << 16, 16384, 4096, 1024, 256] {
        let cfg = PlatformConfig::tiny().with_memguard(
            SimDuration::from_us(10.0),
            vec![1 << 40, budget, 1 << 40, 1 << 40],
        );
        let report = Platform::new(cfg).run(&load);
        render(&format!("ablation_memguard b{budget}"), 0, &report, out);
    }
}

/// X8: a probe and a hog sharing a cluster L2.
fn ablation_cluster_l2(out: &mut String) {
    let l2 = CacheConfig::new(128, 8, 64);
    let load = probe_and_hogs(3000, 1, 30_000);
    for (label, partition_l3, partition_l2) in [
        ("shared", false, false),
        ("l3", true, false),
        ("l2l3", true, true),
    ] {
        let cfg = PlatformConfig::tiny().with_cluster_l2(2, l2, 10.0);
        let mut platform = Platform::new(cfg);
        if partition_l3 {
            platform.set_core_way_mask(0, 0x00FF);
            platform.set_core_way_mask(1, 0xFF00);
        }
        if partition_l2 {
            platform.set_core_l2_way_mask(0, 0x0F);
            platform.set_core_l2_way_mask(1, 0xF0);
        }
        let report = platform.run(&load);
        render(&format!("ablation_cluster_l2 {label}"), 0, &report, out);
    }
}

/// A 5k-access probe against three 30k-access hogs on `tiny()`: the
/// unregulated base run, every split of the 16 L3 ways with 1 to 15
/// private ways for the probe, and hog MemGuard budgets halving from
/// 1 MiB to 4 KiB per 10 µs.
fn config_search(out: &mut String) {
    let scenario = probe_and_hogs(5000, 3, 30_000);
    let mut base = Platform::new(PlatformConfig::tiny());
    render("config_search base", 0, &base.run(&scenario), out);
    for critical_ways in 1..16u32 {
        let mut platform = Platform::new(PlatformConfig::tiny());
        let critical_mask = (1u64 << critical_ways) - 1;
        for w in &scenario {
            let mask = if w.core == 0 {
                critical_mask
            } else {
                0xFFFF & !critical_mask
            };
            platform.set_core_way_mask(w.core, mask);
        }
        let report = platform.run(&scenario);
        render(&format!("config_search w{critical_ways}"), 0, &report, out);
    }
    for shift in (12..=20u32).rev() {
        let budget = 1u64 << shift;
        let budgets = vec![1 << 40, budget, budget, budget];
        let cfg = PlatformConfig::tiny().with_memguard(SimDuration::from_us(10.0), budgets);
        let report = Platform::new(cfg).run(&scenario);
        render(&format!("config_search b{budget}"), 0, &report, out);
    }
}

/// Solo runs on `tiny()`: two hogs, a probe, and write-only hogs paced
/// at 100 to 400 ns per access.
fn profiling(out: &mut String) {
    let writer = |core, count, gap| {
        Workload::bandwidth_hog(core, count)
            .with_write_fraction(1.0)
            .with_gap_ns(gap)
    };
    let solo = [
        ("hog20k", Workload::bandwidth_hog(0, 20_000)),
        ("probe5k", Workload::latency_probe(0, 5_000)),
        ("hog10k", Workload::bandwidth_hog(0, 10_000)),
        ("writer100", writer(0, 10_000, 100.0)),
        ("writer120", writer(1, 10_000, 120.0)),
        ("writer400", writer(1, 8_000, 400.0)),
        ("writer200", writer(1, 8_000, 200.0)),
        ("writer100b", writer(1, 8_000, 100.0)),
    ];
    for (label, workload) in solo {
        let report = Platform::new(PlatformConfig::tiny()).run(&[workload]);
        render(&format!("profiling {label}"), 0, &report, out);
    }
}

/// `examples/quickstart`: solo, shared, partitioned on one platform,
/// then partitioned and regulated on a second.
fn quickstart(out: &mut String) {
    let load = probe_and_hogs(4000, 3, 40_000);
    let mut platform = Platform::new(PlatformConfig::tiny());
    render("quickstart solo", 0, &platform.run(&load[..1]), out);
    render("quickstart shared", 1, &platform.run(&load), out);
    platform.set_core_way_mask(0, 0x000F);
    for hog in 1..4 {
        platform.set_core_way_mask(hog, 0xFFF0);
    }
    render("quickstart partitioned", 2, &platform.run(&load), out);
    let cfg = PlatformConfig::tiny()
        .with_memguard(SimDuration::from_us(10.0), vec![1 << 40, 2048, 2048, 2048]);
    let mut regulated = Platform::new(cfg);
    regulated.set_core_way_mask(0, 0x000F);
    for hog in 1..4 {
        regulated.set_core_way_mask(hog, 0xFFF0);
    }
    render("quickstart managed", 0, &regulated.run(&load), out);
}

/// A random non-empty subset of `full`.
fn partial_mask(rng: &mut SplitMix, full: u64) -> u64 {
    loop {
        let mask = (rng.below(u64::MAX) ^ (rng.below(u64::MAX) << 1)) & full;
        if mask != 0 {
            return mask;
        }
    }
}

/// Zero, partial or default (untouched) way mask.
fn maybe_mask(rng: &mut SplitMix, full: u64) -> Option<u64> {
    match rng.below(4) {
        0 => Some(0),
        1 | 2 => Some(partial_mask(rng, full)),
        _ => None,
    }
}

fn seeded_workload(rng: &mut SplitMix, core: usize) -> Workload {
    let count = 200 + rng.below(1800) as usize;
    let base = match rng.below(4) {
        0 => Workload::latency_probe(core, count),
        1 => Workload::bandwidth_hog(core, count),
        2 => Workload::random_reader(
            core,
            count,
            rng.pick(&[4096, 64 * 1024, 1 << 20]),
            rng.below(1 << 32),
        ),
        _ => Workload {
            core,
            pattern: Pattern::WorkingSet {
                base: 0x2000_0000 + core as u64 * 0x40_0000 + rng.below(64) * 64,
                span: rng.pick(&[0, 64, 16 * 1024, 256 * 1024]),
                stride: rng.pick(&[8, 64, 192, 4096]),
            },
            count,
            write_fraction: 0.0,
            gap_ns: 0.0,
        },
    };
    base.with_write_fraction(rng.pick(&[0.0, 0.3, 0.5, 1.0]))
        .with_gap_ns(rng.pick(&[0.0, 0.5, 13.7, 50.0, 200.0]))
}

fn seeded_case(index: u64, out: &mut String) {
    let mut rng = SplitMix(0x91a7_f0e5_0000 + index);
    let ways = [1u32, 12, 16, 64][index as usize % 4];
    let replacement = match (index / 4) % 3 {
        0 => Replacement::Lru,
        1 => Replacement::TreePlru,
        _ => Replacement::Random(rng.below(1 << 32)),
    };
    let sets = rng.pick(&[16u32, 64, 256]);
    let cores = 1 + rng.below(4) as usize;
    let mut cfg = PlatformConfig::tiny().with_cores(cores);
    cfg.cache = CacheConfig::new(sets, ways, 64).with_replacement(replacement);
    cfg.dram_banks = [1u32, 3, 8][(index as usize / 12) % 3];
    cfg.row_bytes = rng.pick(&[2048, 8192]);
    cfg.interconnect_ns = rng.pick(&[20.0, 7.5]);
    if rng.below(3) == 0 {
        let per_cluster = rng.pick(&[1usize, 2, 4]).min(cores);
        let per_cluster = if cores.is_multiple_of(per_cluster) {
            per_cluster
        } else {
            1
        };
        let l2_policy = rng.pick(&[Replacement::Lru, Replacement::TreePlru]);
        let l2_cfg =
            CacheConfig::new(rng.pick(&[8, 32]), rng.pick(&[2, 8]), 64).with_replacement(l2_policy);
        cfg = cfg.with_cluster_l2(per_cluster, l2_cfg, 10.0);
    }
    if rng.below(3) == 0 {
        let period = SimDuration::from_ns(rng.pick(&[1_000.0, 5_000.0, 10_000.0]));
        let budgets = (0..cores)
            .map(|_| rng.pick(&[64u64, 256, 1024, 1 << 30]))
            .collect();
        cfg = cfg.with_memguard(period, budgets);
    }
    let l3_full = cfg.cache.geometry.full_mask();
    let l2_full = cfg.l2.as_ref().map(|(_, c, _)| c.geometry.full_mask());
    let mut platform = Platform::new(cfg);
    let name = format!("seeded{index:02}");
    let runs = 2 + rng.below(2) as usize;
    for run in 0..runs {
        for core in 0..cores {
            if let Some(mask) = maybe_mask(&mut rng, l3_full) {
                platform.set_core_way_mask(core, mask);
            }
            if let Some(mask) = l2_full.and_then(|full| maybe_mask(&mut rng, full)) {
                platform.set_core_l2_way_mask(core, mask);
            }
            if rng.below(6) == 0 {
                let cap = rng.pick(&[0, 8, 100]);
                platform.cache_mut().set_max_lines(FlowId(core as u32), cap);
            }
        }
        let mut load = Vec::new();
        for core in 0..cores {
            if rng.below(5) != 0 {
                load.push(seeded_workload(&mut rng, core));
            }
        }
        render(&name, run, &platform.run(&load), out);
    }
}

fn render_all() -> String {
    let mut out = String::new();
    interference(&mut out);
    ablation_cache(&mut out);
    ablation_memguard(&mut out);
    ablation_cluster_l2(&mut out);
    config_search(&mut out);
    profiling(&mut out);
    quickstart(&mut out);
    for index in 0..40 {
        seeded_case(index, &mut out);
    }
    out
}

#[test]
fn reports_match_golden() {
    let path = format!(
        "{}/../../tests/golden/platform_reports.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let fresh = render_all();
    let expected: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let actual: Vec<&str> = fresh.lines().collect();
    for (i, (e, a)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(a, e, "line {i} drifted from {path}");
    }
    assert_eq!(actual.len(), expected.len(), "line count drifted");
}
