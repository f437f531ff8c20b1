//! Sweep driver: derive per-case seeds, generate scenarios, run the
//! oracle, shrink failures and publish metrics.
//!
//! Sweeps run serially ([`run_sweep`]) or sharded across worker threads
//! ([`run_sweep_parallel`]). Parallelism never changes the result: every
//! case derives its own seed from `(master_seed, family, case_index)`, so
//! cases are independent, and the shard merge reassembles tallies and
//! failures in serial order — the two entry points return identical
//! reports (and therefore byte-identical metrics exports).

use autoplat_sim::{MetricsRegistry, SimRng};

use crate::oracle::{CaseResult, Observations, Oracle};
use crate::scenario::{Family, Scenario};
use crate::shrink::{shrink, Shrunk};

/// Mixes the master seed, the family index and the case index into an
/// independent per-case seed (splitmix64 finalizer over golden-ratio
/// offsets). Replaying a single case therefore needs only this value.
pub fn case_seed(master_seed: u64, family: Family, case_index: u64) -> u64 {
    let mut z = master_seed
        .wrapping_add(family.index().wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(case_index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Master seed; every case seed derives from it deterministically.
    pub seed: u64,
    /// Cases per family.
    pub cases: u64,
    /// Restrict the sweep to one family (`None` = every family in
    /// [`Family::ALL`]).
    pub family: Option<Family>,
    /// Oracle configuration (tests use this to break a bound on purpose).
    pub oracle: Oracle,
}

impl SweepConfig {
    /// A sweep over all families with the default oracle.
    pub fn new(seed: u64, cases: u64) -> Self {
        SweepConfig {
            seed,
            cases,
            family: None,
            oracle: Oracle::default(),
        }
    }
}

/// A failing case, shrunk to a minimal reproducer.
#[derive(Debug, Clone)]
pub struct Failure {
    pub family: Family,
    pub case_index: u64,
    pub case_seed: u64,
    /// The scenario as originally generated.
    pub original: Scenario,
    /// Size of the original scenario (shrinking only ever reduces this).
    pub original_size: u64,
    /// Minimal still-failing scenario plus its violation.
    pub shrunk: Shrunk,
}

impl Failure {
    /// Command line + debug dump that replays the failure exactly.
    pub fn reproducer(&self) -> String {
        format!(
            "{}\nreplay: cargo run -p autoplat-bench --bin conformance -- \
             --family {} --case-seed 0x{:x}\nminimal scenario: {:?}",
            self.shrunk.violation,
            self.family.name(),
            self.case_seed,
            self.shrunk.scenario
        )
    }
}

/// Per-family tallies.
#[derive(Debug, Clone, Copy, Default)]
pub struct FamilyStats {
    pub cases: u64,
    pub passed: u64,
    pub vacuous: u64,
    pub violations: u64,
}

/// The numeric observations one passing case emitted, kept raw (not
/// pre-aggregated) so the shard merge can reassemble them in serial
/// case order before any order-sensitive histogram fold happens.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseObservations {
    pub family: Family,
    pub case_index: u64,
    pub values: Observations,
}

/// Outcome of a full sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    pub stats: Vec<(Family, FamilyStats)>,
    pub failures: Vec<Failure>,
    /// Raw per-case observations in serial `(family, case_index)` order.
    pub observations: Vec<CaseObservations>,
}

impl SweepReport {
    pub fn total_cases(&self) -> u64 {
        self.stats.iter().map(|(_, s)| s.cases).sum()
    }

    pub fn total_violations(&self) -> u64 {
        self.stats.iter().map(|(_, s)| s.violations).sum()
    }

    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Publishes sweep tallies into the shared metrics registry under
    /// the `conformance.*` namespace. Per-case observations fold into
    /// histograms serially, in the report's (already deterministic)
    /// case order, so the export is byte-identical for any shard count.
    pub fn publish_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.counter_add("conformance.cases", self.total_cases());
        metrics.counter_add("conformance.violations", self.total_violations());
        for (family, stats) in &self.stats {
            let name = family.name();
            metrics.counter_add(format!("conformance.{name}.cases"), stats.cases);
            metrics.counter_add(format!("conformance.{name}.passed"), stats.passed);
            metrics.counter_add(format!("conformance.{name}.vacuous"), stats.vacuous);
            metrics.counter_add(format!("conformance.{name}.violations"), stats.violations);
        }
        for case in &self.observations {
            for &(name, value) in &case.values {
                metrics.observe(name, value);
            }
        }
    }
}

/// Runs a single case: derives the scenario for `seed` and checks it,
/// shrinking on failure. Returns `Ok` with the pass kind or the shrunk
/// failure.
pub fn run_case(oracle: &Oracle, family: Family, seed: u64) -> Result<CaseResult, Shrunk> {
    run_case_observed(oracle, family, seed).map(|(result, _)| result)
}

/// Like [`run_case`], but also returns the case's numeric observations.
pub fn run_case_observed(
    oracle: &Oracle,
    family: Family,
    seed: u64,
) -> Result<(CaseResult, Observations), Shrunk> {
    let mut rng = SimRng::seed_from(seed);
    let scenario = Scenario::generate(family, &mut rng);
    match oracle.check_observed(&scenario) {
        Ok(pair) => Ok(pair),
        Err(violation) => Err(shrink(oracle, scenario, violation)),
    }
}

/// Outcome of one indexed case: what the tally should count, plus the
/// shrunk failure when the oracle was violated.
fn run_indexed_case(
    oracle: &Oracle,
    master_seed: u64,
    family: Family,
    case_index: u64,
) -> Result<(CaseResult, Observations), Box<Failure>> {
    let seed = case_seed(master_seed, family, case_index);
    match run_case_observed(oracle, family, seed) {
        Ok(pair) => Ok(pair),
        Err(shrunk) => {
            let mut rng = SimRng::seed_from(seed);
            let original = Scenario::generate(family, &mut rng);
            let original_size = original.size();
            Err(Box::new(Failure {
                family,
                case_index,
                case_seed: seed,
                original,
                original_size,
                shrunk,
            }))
        }
    }
}

fn swept_families(config: &SweepConfig) -> Vec<Family> {
    match config.family {
        Some(f) => vec![f],
        None => Family::ALL.to_vec(),
    }
}

/// Records a passing case's observations (if it emitted any).
fn push_observations(
    out: &mut Vec<CaseObservations>,
    family: Family,
    case_index: u64,
    values: Observations,
) {
    if !values.is_empty() {
        out.push(CaseObservations {
            family,
            case_index,
            values,
        });
    }
}

/// Runs the configured sweep serially.
pub fn run_sweep(config: &SweepConfig) -> SweepReport {
    let mut stats = Vec::new();
    let mut failures = Vec::new();
    let mut observations = Vec::new();
    for family in swept_families(config) {
        let mut tally = FamilyStats::default();
        for case_index in 0..config.cases {
            tally.cases += 1;
            match run_indexed_case(&config.oracle, config.seed, family, case_index) {
                Ok((CaseResult::Pass, values)) => {
                    tally.passed += 1;
                    push_observations(&mut observations, family, case_index, values);
                }
                Ok((CaseResult::Vacuous, values)) => {
                    tally.vacuous += 1;
                    push_observations(&mut observations, family, case_index, values);
                }
                Err(failure) => {
                    tally.violations += 1;
                    failures.push(*failure);
                }
            }
        }
        stats.push((family, tally));
    }
    SweepReport {
        stats,
        failures,
        observations,
    }
}

/// Runs the configured sweep across `shards` worker threads.
///
/// Shard `s` takes every case whose `case_index % shards == s`, for every
/// family, so work balances without any shared mutable state: each worker
/// derives its case seeds independently (splitmix over the master seed)
/// and collects its own tallies and failures. The merge then adds the
/// per-shard [`FamilyStats`] (exact — counters commute) and reorders
/// failures back into serial `(family, case_index)` order, so the report
/// — and any [`MetricsRegistry`] export built from it — is byte-identical
/// to [`run_sweep`]'s regardless of shard count or thread interleaving.
pub fn run_sweep_parallel(config: &SweepConfig, shards: usize) -> SweepReport {
    /// One worker's slice of the sweep: its per-family tallies (in the
    /// serial sweep's family order), the failures it hit and the raw
    /// observations its passing cases emitted.
    type ShardOutput = (
        Vec<(Family, FamilyStats)>,
        Vec<Failure>,
        Vec<CaseObservations>,
    );

    let shards = shards.max(1);
    if shards == 1 || config.cases == 0 {
        return run_sweep(config);
    }
    let families = swept_families(config);
    let mut shard_outputs: Vec<ShardOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let families = &families;
                let oracle = &config.oracle;
                let (seed, cases) = (config.seed, config.cases);
                scope.spawn(move || {
                    let mut stats = Vec::new();
                    let mut failures = Vec::new();
                    let mut observations = Vec::new();
                    for &family in families {
                        let mut tally = FamilyStats::default();
                        for case_index in (shard as u64..cases).step_by(shards) {
                            tally.cases += 1;
                            match run_indexed_case(oracle, seed, family, case_index) {
                                Ok((CaseResult::Pass, values)) => {
                                    tally.passed += 1;
                                    push_observations(
                                        &mut observations,
                                        family,
                                        case_index,
                                        values,
                                    );
                                }
                                Ok((CaseResult::Vacuous, values)) => {
                                    tally.vacuous += 1;
                                    push_observations(
                                        &mut observations,
                                        family,
                                        case_index,
                                        values,
                                    );
                                }
                                Err(failure) => {
                                    tally.violations += 1;
                                    failures.push(*failure);
                                }
                            }
                        }
                        stats.push((family, tally));
                    }
                    (stats, failures, observations)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep shard panicked"))
            .collect()
    });

    // Deterministic merge: family order is the serial sweep's, tallies add
    // exactly, failures sort back into serial discovery order.
    let mut stats: Vec<(Family, FamilyStats)> = families
        .iter()
        .map(|&f| (f, FamilyStats::default()))
        .collect();
    let mut failures = Vec::new();
    let mut observations = Vec::new();
    for (shard_stats, shard_failures, shard_observations) in &mut shard_outputs {
        for (slot, (family, tally)) in stats.iter_mut().zip(shard_stats.iter()) {
            debug_assert_eq!(slot.0, *family, "shards sweep families in the same order");
            slot.1.cases += tally.cases;
            slot.1.passed += tally.passed;
            slot.1.vacuous += tally.vacuous;
            slot.1.violations += tally.violations;
        }
        failures.append(shard_failures);
        observations.append(shard_observations);
    }
    failures.sort_by_key(|f| (f.family.index(), f.case_index));
    observations.sort_by_key(|o| (o.family.index(), o.case_index));
    SweepReport {
        stats,
        failures,
        observations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_distinct_across_families_and_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for family in Family::ALL {
            for idx in 0..64 {
                assert!(seen.insert(case_seed(42, family, idx)));
            }
        }
        assert_eq!(seen.len(), Family::ALL.len() * 64);
    }

    #[test]
    fn case_seed_is_deterministic() {
        assert_eq!(case_seed(7, Family::Dram, 3), case_seed(7, Family::Dram, 3));
        assert_ne!(case_seed(7, Family::Dram, 3), case_seed(8, Family::Dram, 3));
    }

    fn reports_identical(a: &SweepReport, b: &SweepReport) {
        assert_eq!(a.stats.len(), b.stats.len());
        for ((fa, sa), (fb, sb)) in a.stats.iter().zip(&b.stats) {
            assert_eq!(fa, fb);
            assert_eq!(
                (sa.cases, sa.passed, sa.vacuous, sa.violations),
                (sb.cases, sb.passed, sb.vacuous, sb.violations),
                "family {} tallies diverge",
                fa.name()
            );
        }
        let key = |f: &Failure| (f.family.index(), f.case_index, f.case_seed);
        assert_eq!(
            a.failures.iter().map(key).collect::<Vec<_>>(),
            b.failures.iter().map(key).collect::<Vec<_>>()
        );
        assert_eq!(
            a.observations, b.observations,
            "raw observations diverge between sweeps"
        );
        // The exports are what CI byte-compares, so check them too.
        let mut ma = MetricsRegistry::new();
        a.publish_metrics(&mut ma);
        let mut mb = MetricsRegistry::new();
        b.publish_metrics(&mut mb);
        assert_eq!(ma.to_json(), mb.to_json());
    }

    #[test]
    fn parallel_sweep_matches_serial_report() {
        let config = SweepConfig::new(7, 6);
        let serial = run_sweep(&config);
        for shards in [2, 3, 5, 8] {
            reports_identical(&serial, &run_sweep_parallel(&config, shards));
        }
    }

    #[test]
    fn parallel_sweep_orders_failures_serially_under_a_broken_bound() {
        // Halving the WCD upper bound makes violations common; the shard
        // merge must hand them back in serial (family, case_index) order.
        let config = SweepConfig {
            seed: 7,
            cases: 10,
            family: Some(Family::Dram),
            oracle: crate::oracle::Oracle {
                wcd_upper_scale: 0.5,
                ..crate::oracle::Oracle::default()
            },
        };
        let serial = run_sweep(&config);
        assert!(
            serial.total_violations() > 0,
            "broken bound must produce failures for this test to bite"
        );
        reports_identical(&serial, &run_sweep_parallel(&config, 4));
    }

    #[test]
    fn parallel_sweep_with_one_shard_or_zero_cases_degenerates() {
        let config = SweepConfig::new(3, 2);
        reports_identical(&run_sweep(&config), &run_sweep_parallel(&config, 1));
        let empty = SweepConfig::new(3, 0);
        let report = run_sweep_parallel(&empty, 4);
        assert_eq!(report.total_cases(), 0);
        assert!(report.all_passed());
    }
}
