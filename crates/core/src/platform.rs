//! The composed vehicle-integration-platform model.
//!
//! A transaction-level simulation of the SoC stack the paper describes:
//! cores issue memory accesses through an (optional) MemGuard regulator
//! into a shared, partitionable L3; misses cross the interconnect to a
//! single DRAM channel with per-bank row buffers. The model is the
//! substrate on which interference is *measured* — the 8× read-latency
//! inflation of \[2\], the cache-partitioning coupling effect of §II, the
//! MemGuard trade-off — while the detailed per-component models
//! ([`autoplat_dram::FrFcfsController`], [`autoplat_noc::NocSim`]) remain
//! available for component-level studies.
//!
//! [`Platform::run`] steps the earliest-ready core, ties broken by core
//! index, and streams each core's accesses from its workload's
//! generator: a core holds one pending access, and a throttled one stays
//! pending until its retry, so a run's memory does not grow with its
//! access counts.

use autoplat_cache::{CacheConfig, FlowId, SetAssocCache};
use autoplat_dram::timing::presets::ddr3_1600;
use autoplat_dram::{DramChannel, DramTiming};
use autoplat_regulation::memguard::{AccessDecision, MemGuard};
use autoplat_sim::{SimDuration, SimTime, Summary};

use crate::workload::{Access, AccessKind, AccessStream, Workload};

pub use crate::cosim::{
    CoSim, CoSimConfig, CoSimEvent, CoSimReport, CoSimTask, ControlCommand, QosConfig,
    QosEpochReport, QosPartEpoch, QosReport, TaskReport,
};

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of cores.
    pub cores: usize,
    /// Shared L3 configuration.
    pub cache: CacheConfig,
    /// DRAM device timing.
    pub dram_timing: DramTiming,
    /// Number of DRAM banks.
    pub dram_banks: u32,
    /// DRAM row-buffer size in bytes (for address → row/bank mapping).
    pub row_bytes: u64,
    /// L3 hit latency in nanoseconds.
    pub l3_hit_ns: f64,
    /// One-way interconnect latency in nanoseconds.
    pub interconnect_ns: f64,
    /// Optional MemGuard regulation: period and per-core byte budgets.
    pub memguard: Option<(SimDuration, Vec<u64>)>,
    /// Optional cluster-shared L2s: cores per cluster, the per-cluster L2
    /// configuration, and the L2 hit latency (ns). §II: the DSU-style
    /// cluster infrastructure that pinning alone cannot isolate.
    pub l2: Option<(usize, CacheConfig, f64)>,
}

impl PlatformConfig {
    /// A small default platform: 4 cores, 2 MiB 16-way L3, DDR3-1600 with
    /// 8 banks, 30 ns L3 hits, 20 ns interconnect hops, no regulation.
    pub fn small() -> Self {
        PlatformConfig {
            cores: 4,
            cache: CacheConfig::new(2048, 16, 64),
            dram_timing: ddr3_1600(),
            dram_banks: 8,
            row_bytes: 8192,
            l3_hit_ns: 30.0,
            interconnect_ns: 20.0,
            memguard: None,
            l2: None,
        }
    }

    /// A deliberately small platform for fast interference experiments:
    /// like [`small`] but with a 256 KiB L3, so streaming workloads
    /// thrash it within a few thousand accesses.
    ///
    /// [`small`]: PlatformConfig::small
    pub fn tiny() -> Self {
        PlatformConfig {
            cache: CacheConfig::new(256, 16, 64),
            ..PlatformConfig::small()
        }
    }

    /// Builder-style MemGuard regulation.
    ///
    /// # Panics
    ///
    /// Panics if the budget list length differs from `cores` or any
    /// budget is zero, which would deadlock the issuing core. A budget
    /// below one cache line (64 B) is accepted: like a 64 B budget, it
    /// grants one line per period.
    pub fn with_memguard(mut self, period: SimDuration, budgets: Vec<u64>) -> Self {
        check_memguard_budgets(self.cores, &budgets);
        self.memguard = Some((period, budgets));
        self
    }

    /// Builder-style core count.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        self.cores = cores;
        self
    }

    /// Builder-style cluster-shared L2 caches: `cores_per_cluster` cores
    /// share one L2 of the given configuration with `hit_ns` hit latency.
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_cluster` is zero or does not divide the core
    /// count.
    pub fn with_cluster_l2(
        mut self,
        cores_per_cluster: usize,
        l2: CacheConfig,
        hit_ns: f64,
    ) -> Self {
        assert!(cores_per_cluster > 0, "need at least one core per cluster");
        assert_eq!(
            self.cores % cores_per_cluster,
            0,
            "cores per cluster must divide the core count"
        );
        self.l2 = Some((cores_per_cluster, l2, hit_ns));
        self
    }
}

/// Panics unless there is one budget per core and no budget is zero.
/// [`Platform::run`] indexes the regulator by core, and a zero budget
/// throttles its core at every period boundary forever. Any other budget
/// lets its core progress: `MemGuard` grants an access whenever the
/// period's usage is below the budget and lets that access overdraw it.
fn check_memguard_budgets(cores: usize, budgets: &[u64]) {
    assert_eq!(budgets.len(), cores, "one budget per core");
    assert!(
        budgets.iter().all(|&b| b > 0),
        "a zero budget would deadlock its core"
    );
}

/// Per-core results of a platform run.
#[derive(Debug, Clone, Default)]
pub struct CoreReport {
    /// Total accesses issued.
    pub accesses: u64,
    /// Cluster-L2 hits (0 when no L2 is configured).
    pub l2_hits: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses (went to DRAM).
    pub l3_misses: u64,
    /// DRAM row-buffer hits among this core's DRAM transactions.
    pub row_hits: u64,
    /// Read access latency statistics (ns), L3 hits included.
    pub read_latency: Summary,
    /// Time the core finished its workload.
    pub finished_at: SimTime,
    /// Stall time spent throttled by MemGuard.
    pub throttled: SimDuration,
}

impl CoreReport {
    /// Mean read latency in nanoseconds.
    pub fn mean_read_latency(&self) -> f64 {
        self.read_latency.mean()
    }

    /// L3 hit rate.
    pub fn l3_hit_rate(&self) -> f64 {
        let total = self.l3_hits + self.l3_misses;
        if total == 0 {
            0.0
        } else {
            self.l3_hits as f64 / total as f64
        }
    }
}

/// The outcome of one platform run.
#[derive(Debug, Clone)]
pub struct PlatformReport {
    /// Per-core reports (indexed by core).
    pub cores: Vec<CoreReport>,
    /// Total DRAM busy time.
    pub dram_busy: SimDuration,
    /// Wall-clock end of the run.
    pub finished_at: SimTime,
}

/// The composed platform.
///
/// # Examples
///
/// ```
/// use autoplat_core::platform::{Platform, PlatformConfig};
/// use autoplat_core::workload::Workload;
///
/// let mut p = Platform::new(PlatformConfig::small());
/// let report = p.run(&[Workload::latency_probe(0, 2000)]);
/// // A solo probe mostly hits in the L3 after the first cold sweep.
/// assert!(report.cores[0].l3_hit_rate() > 0.7);
/// ```
#[derive(Debug)]
pub struct Platform {
    config: PlatformConfig,
    cache: SetAssocCache,
    l2s: Vec<SetAssocCache>,
    memguard: Option<MemGuard>,
}

impl Platform {
    /// Creates a platform.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (zero cores/banks, bad timing, or
    /// MemGuard budgets that [`PlatformConfig::with_memguard`] would
    /// reject, a wrong count or a zero budget, however they were set).
    pub fn new(config: PlatformConfig) -> Self {
        assert!(config.cores > 0, "need at least one core");
        assert!(config.dram_banks > 0, "need at least one bank");
        config.dram_timing.validate().expect("valid DRAM timing");
        if let Some((_, budgets)) = &config.memguard {
            check_memguard_budgets(config.cores, budgets);
        }
        let cache = SetAssocCache::new(config.cache);
        let l2s = match &config.l2 {
            Some((per_cluster, l2_cfg, _)) => {
                let clusters = config.cores.div_ceil(*per_cluster);
                (0..clusters).map(|_| SetAssocCache::new(*l2_cfg)).collect()
            }
            None => Vec::new(),
        };
        let memguard = config
            .memguard
            .clone()
            .map(|(period, budgets)| MemGuard::new(period, budgets));
        Platform {
            config,
            cache,
            l2s,
            memguard,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Restricts the L3 ways core `core` may allocate into — the hook
    /// DSU scheme IDs or MPAM portion bitmaps compile down to.
    ///
    /// # Panics
    ///
    /// Panics if the mask selects ways beyond the cache geometry.
    pub fn set_core_way_mask(&mut self, core: usize, mask: u64) {
        self.cache.set_allocation_mask(FlowId(core as u32), mask);
    }

    /// Direct access to the shared L3 (e.g. to apply a
    /// [`autoplat_cache::ClusterPartCr`]).
    pub fn cache_mut(&mut self) -> &mut SetAssocCache {
        &mut self.cache
    }

    /// Restricts the cluster-L2 ways core `core` may allocate into.
    ///
    /// # Panics
    ///
    /// Panics if no cluster L2 is configured or the mask selects ways
    /// beyond the L2 geometry.
    pub fn set_core_l2_way_mask(&mut self, core: usize, mask: u64) {
        let (per_cluster, _, _) = self.config.l2.as_ref().expect("no cluster L2 configured");
        let cluster = core / per_cluster;
        self.l2s[cluster].set_allocation_mask(FlowId(core as u32), mask);
    }

    /// Runs the workloads to completion (cache and regulator state are
    /// reset first so runs are independent).
    ///
    /// # Panics
    ///
    /// Panics if a workload names a core outside the configuration or
    /// two workloads share a core.
    pub fn run(&mut self, workloads: &[Workload]) -> PlatformReport {
        for w in workloads {
            assert!(
                w.core < self.config.cores,
                "workload on unknown core {}",
                w.core
            );
        }
        {
            let mut seen = std::collections::HashSet::new();
            for w in workloads {
                assert!(seen.insert(w.core), "core {} has two workloads", w.core);
            }
        }
        self.cache.reset();
        for l2 in &mut self.l2s {
            l2.reset();
        }
        if let Some((period, budgets)) = self.config.memguard.clone() {
            self.memguard = Some(MemGuard::new(period, budgets));
        }

        let mut dram = DramChannel::new(
            self.config.dram_timing.clone(),
            self.config.dram_banks as usize,
            self.config.row_bytes,
        );

        struct CoreState<'a> {
            stream: AccessStream<'a>,
            /// The next access to issue; `None` once the stream is done.
            /// A throttled access stays here until its retry.
            pending: Option<Access>,
            ready_at: SimTime,
            gap: SimDuration,
            report: CoreReport,
        }
        let mut states: Vec<(usize, CoreState)> = workloads
            .iter()
            .map(|w| {
                let mut stream = w.access_stream();
                (
                    w.core,
                    CoreState {
                        pending: stream.next(),
                        stream,
                        ready_at: SimTime::ZERO,
                        gap: SimDuration::from_ns(w.gap_ns),
                        report: CoreReport::default(),
                    },
                )
            })
            .collect();

        let interconnect = SimDuration::from_ns(self.config.interconnect_ns);
        let l3_hit = SimDuration::from_ns(self.config.l3_hit_ns);

        loop {
            // Pick the earliest-ready unfinished core.
            let next = states
                .iter()
                .enumerate()
                .filter(|(_, (_, s))| s.pending.is_some())
                .min_by_key(|(_, (core, s))| (s.ready_at, *core))
                .map(|(i, _)| i);
            let Some(i) = next else { break };
            let (core, state) = &mut states[i];
            let core = *core;
            let access = state.pending.expect("picked cores have an access");
            let now = state.ready_at;

            // MemGuard regulation. A throttled access is deferred to the
            // next period boundary and retried then, so other cores'
            // earlier events are processed first (causality).
            if let Some(mg) = self.memguard.as_mut() {
                match mg.try_access(core, 64, now) {
                    AccessDecision::Granted => {}
                    AccessDecision::ThrottledUntil(t_ok) => {
                        state.report.throttled += t_ok - now;
                        state.ready_at = t_ok;
                        continue;
                    }
                }
            }
            state.pending = state.stream.next();

            state.report.accesses += 1;
            // Cluster-shared L2 first, when configured.
            if let Some((per_cluster, _, l2_hit_ns)) = &self.config.l2 {
                let cluster = core / per_cluster;
                if self.l2s[cluster]
                    .access(FlowId(core as u32), access.addr)
                    .is_hit()
                {
                    state.report.l2_hits += 1;
                    let finish = now + SimDuration::from_ns(*l2_hit_ns);
                    if access.kind == AccessKind::Read {
                        state
                            .report
                            .read_latency
                            .record(finish.saturating_since(now).as_ns());
                    }
                    state.ready_at = finish + state.gap;
                    state.report.finished_at = finish;
                    continue;
                }
            }
            let outcome = self.cache.access(FlowId(core as u32), access.addr);
            let finish = if outcome.is_hit() {
                state.report.l3_hits += 1;
                now + l3_hit
            } else {
                state.report.l3_misses += 1;
                // DRAM transaction.
                let arrive = now + interconnect;
                let served = dram.service(access.addr, arrive);
                if served.row_hit {
                    state.report.row_hits += 1;
                }
                match access.kind {
                    // Reads block until the response returns.
                    AccessKind::Read => served.done + interconnect,
                    // Posted writes release the core after the request is
                    // handed to the interconnect.
                    AccessKind::Write => now + interconnect,
                }
            };
            if access.kind == AccessKind::Read {
                state
                    .report
                    .read_latency
                    .record(finish.saturating_since(now).as_ns());
            }
            state.ready_at = finish + state.gap;
            state.report.finished_at = finish;
        }

        let finished_at = states
            .iter()
            .map(|(_, s)| s.report.finished_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        let mut cores = vec![CoreReport::default(); self.config.cores];
        for (core, s) in states {
            cores[core] = s.report;
        }
        PlatformReport {
            cores,
            dram_busy: dram.busy(),
            finished_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn solo_probe_mostly_hits() {
        let mut p = Platform::new(PlatformConfig::small());
        let r = p.run(&[Workload::latency_probe(0, 2000)]);
        assert_eq!(r.cores[0].accesses, 2000);
        assert!(
            r.cores[0].l3_hit_rate() > 0.7,
            "rate {}",
            r.cores[0].l3_hit_rate()
        );
        // Hit latency dominates the mean.
        assert!(r.cores[0].mean_read_latency() < 100.0);
    }

    #[test]
    fn hog_inflates_probe_latency() {
        let mut p = Platform::new(PlatformConfig::tiny());
        let solo = p.run(&[Workload::latency_probe(0, 3000)]);
        let loaded = p.run(&[
            Workload::latency_probe(0, 3000),
            Workload::bandwidth_hog(1, 40_000),
            Workload::bandwidth_hog(2, 40_000),
            Workload::bandwidth_hog(3, 40_000),
        ]);
        let ratio = loaded.cores[0].mean_read_latency() / solo.cores[0].mean_read_latency();
        assert!(
            ratio > 1.5,
            "co-running hogs must visibly inflate probe latency, got {ratio:.2}×"
        );
    }

    #[test]
    fn way_partitioning_restores_isolation() {
        let mut p = Platform::new(PlatformConfig::tiny());
        let loaded = p.run(&[
            Workload::latency_probe(0, 3000),
            Workload::bandwidth_hog(1, 30_000),
        ]);
        // Partition: probe gets 4 ways, hog the rest.
        p.set_core_way_mask(0, 0x000F);
        p.set_core_way_mask(1, 0xFFF0);
        let isolated = p.run(&[
            Workload::latency_probe(0, 3000),
            Workload::bandwidth_hog(1, 30_000),
        ]);
        assert!(
            isolated.cores[0].l3_hit_rate() > loaded.cores[0].l3_hit_rate(),
            "partitioning must protect the probe's working set: {} vs {}",
            isolated.cores[0].l3_hit_rate(),
            loaded.cores[0].l3_hit_rate()
        );
        assert!(isolated.cores[0].mean_read_latency() < loaded.cores[0].mean_read_latency());
    }

    #[test]
    fn memguard_throttles_hog_and_protects_probe() {
        let cfg = PlatformConfig::tiny();
        let mut p = Platform::new(cfg.clone());
        let unregulated = p.run(&[
            Workload::latency_probe(0, 2000),
            Workload::bandwidth_hog(1, 40_000),
        ]);
        // Regulate the hog to ~64 lines per 10 µs; generous probe budget.
        let mut pr = Platform::new(cfg.with_memguard(
            SimDuration::from_us(10.0),
            vec![1 << 30, 64 * 64, 1 << 30, 1 << 30],
        ));
        let regulated = pr.run(&[
            Workload::latency_probe(0, 2000),
            Workload::bandwidth_hog(1, 40_000),
        ]);
        assert!(
            regulated.cores[1].throttled > SimDuration::ZERO,
            "hog throttled"
        );
        assert!(
            regulated.cores[0].mean_read_latency() < unregulated.cores[0].mean_read_latency(),
            "regulation must shield the probe: {} vs {}",
            regulated.cores[0].mean_read_latency(),
            unregulated.cores[0].mean_read_latency()
        );
    }

    #[test]
    fn streaming_hog_gets_dram_row_hits() {
        let mut p = Platform::new(PlatformConfig::small());
        let r = p.run(&[Workload::bandwidth_hog(0, 10_000)]);
        let c = &r.cores[0];
        assert!(c.l3_misses > 0);
        assert!(
            c.row_hits as f64 > 0.5 * c.l3_misses as f64,
            "sequential streams should hit open rows: {} of {}",
            c.row_hits,
            c.l3_misses
        );
        assert!(r.dram_busy > SimDuration::ZERO);
    }

    #[test]
    fn runs_are_reproducible_and_independent() {
        let mut p = Platform::new(PlatformConfig::small());
        let load = [
            Workload::latency_probe(0, 1000),
            Workload::random_reader(1, 1000, 1 << 20, 5),
        ];
        let a = p.run(&load);
        let b = p.run(&load);
        assert_eq!(
            a.cores[0].read_latency.mean(),
            b.cores[0].read_latency.mean(),
            "state must be reset between runs"
        );
        assert_eq!(a.finished_at, b.finished_at);
    }

    #[test]
    #[should_panic(expected = "two workloads")]
    fn duplicate_core_rejected() {
        let mut p = Platform::new(PlatformConfig::small());
        let _ = p.run(&[
            Workload::latency_probe(0, 10),
            Workload::bandwidth_hog(0, 10),
        ]);
    }

    #[test]
    #[should_panic(expected = "unknown core")]
    fn foreign_core_rejected() {
        let mut p = Platform::new(PlatformConfig::small());
        let _ = p.run(&[Workload::latency_probe(9, 10)]);
    }

    #[test]
    fn cluster_l2_interference_survives_l3_partitioning() {
        // §II: "pinning a process on one core of a cluster still will not
        // resolve the interference from the other core … on the L2 cache
        // if there are not possibilities to partition the cache."
        use autoplat_cache::CacheConfig;
        // 64 KiB shared L2: the probe's 32 KiB working set fits exactly
        // into half its ways (4 ways × 128 sets = 512 lines).
        let l2_cfg = CacheConfig::new(128, 8, 64);
        let cfg = PlatformConfig::tiny().with_cluster_l2(2, l2_cfg, 10.0);
        // Probe on core 0 and hog on core 1 share cluster 0's L2.
        let load = [
            Workload::latency_probe(0, 3000),
            Workload::bandwidth_hog(1, 30_000),
        ];
        // L3 fully partitioned between the two cores:
        let mut l3_only = Platform::new(cfg.clone());
        l3_only.set_core_way_mask(0, 0x00FF);
        l3_only.set_core_way_mask(1, 0xFF00);
        let r_l3 = l3_only.run(&load);
        // The probe's L2 hits are wrecked by the hog despite L3 isolation.
        let l2_rate_shared = r_l3.cores[0].l2_hits as f64 / r_l3.cores[0].accesses as f64;

        // Now also partition the L2 (the DSU-style remedy):
        let mut both = Platform::new(cfg);
        both.set_core_way_mask(0, 0x00FF);
        both.set_core_way_mask(1, 0xFF00);
        both.set_core_l2_way_mask(0, 0x0F);
        both.set_core_l2_way_mask(1, 0xF0);
        let r_both = both.run(&load);
        let l2_rate_isolated = r_both.cores[0].l2_hits as f64 / r_both.cores[0].accesses as f64;

        assert!(
            l2_rate_isolated > l2_rate_shared + 0.2,
            "L2 partitioning must rescue the probe's L2 hits: {l2_rate_shared:.3} -> {l2_rate_isolated:.3}"
        );
        assert!(
            r_both.cores[0].mean_read_latency() < r_l3.cores[0].mean_read_latency(),
            "and its latency: {} vs {}",
            r_both.cores[0].mean_read_latency(),
            r_l3.cores[0].mean_read_latency()
        );
    }

    #[test]
    fn l2_hits_reduce_latency_vs_l3() {
        use autoplat_cache::CacheConfig;
        let cfg = PlatformConfig::tiny().with_cluster_l2(
            2,
            CacheConfig::new(128, 8, 64), // 64 KiB: fits the probe WS
            10.0,
        );
        let mut with_l2 = Platform::new(cfg);
        let r2 = with_l2.run(&[Workload::latency_probe(0, 3000)]);
        let mut without = Platform::new(PlatformConfig::tiny());
        let r3 = without.run(&[Workload::latency_probe(0, 3000)]);
        assert!(r2.cores[0].l2_hits > 0);
        assert!(
            r2.cores[0].mean_read_latency() < r3.cores[0].mean_read_latency(),
            "L2 hits at 10 ns must beat L3 hits at 30 ns"
        );
    }

    #[test]
    #[should_panic(expected = "no cluster L2 configured")]
    fn l2_mask_requires_l2() {
        let mut p = Platform::new(PlatformConfig::tiny());
        p.set_core_l2_way_mask(0, 0xF);
    }

    #[test]
    #[should_panic(expected = "divide the core count")]
    fn cluster_size_must_divide_cores() {
        use autoplat_cache::CacheConfig;
        let _ = PlatformConfig::tiny().with_cluster_l2(3, CacheConfig::new(64, 8, 64), 10.0);
    }

    #[test]
    fn sub_line_budget_grants_one_line_per_period() {
        // `MemGuard` grants while the period's usage is below the budget,
        // so 63 B grants one 64 B line per 10 µs period, as 64 B does.
        let finish = |budget: u64| {
            let cfg = PlatformConfig::tiny()
                .with_memguard(SimDuration::from_us(10.0), vec![budget, 4096, 4096, 4096]);
            let r = Platform::new(cfg).run(&[Workload::bandwidth_hog(0, 100)]);
            (r.cores[0].finished_at, r.cores[0].throttled)
        };
        let (at, throttled) = finish(63);
        assert_eq!(at, SimTime::from_ns(990_020.0));
        assert!(throttled > SimDuration::from_us(984.0), "{throttled}");
        assert_eq!((at, throttled), finish(64));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn zero_budget_through_builder_rejected() {
        let _ =
            PlatformConfig::small().with_memguard(SimDuration::from_us(1.0), vec![64, 0, 64, 64]);
    }

    #[test]
    #[should_panic(expected = "one budget per core")]
    fn core_count_changed_after_memguard_rejected() {
        let cfg = PlatformConfig::tiny()
            .with_memguard(SimDuration::from_us(10.0), vec![4096; 4])
            .with_cores(8);
        let _ = Platform::new(cfg);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn zero_budget_set_through_field_rejected() {
        let mut cfg = PlatformConfig::tiny();
        cfg.memguard = Some((SimDuration::from_us(10.0), vec![4096, 0, 4096, 4096]));
        let _ = Platform::new(cfg);
    }
}
