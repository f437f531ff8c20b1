//! Golden scheduling outcomes: every `SchedOutcome` field of seeded task
//! sets under global and partitioned fixed-priority scheduling.
//!
//! The paper digest only sees how many sets were schedulable, and the
//! conformance `sched` family runs on one core, so neither notices a
//! drift in multi-core preemption counts or response times. This file
//! does: `tests/golden/sched_outcomes.txt` holds one line per
//! `(case, mode)` with the completed, incomplete, missed and preempted
//! job counts, then each task id's worst response in picoseconds, in id
//! order. It was written once and is never regenerated; a change to the
//! simulator's event order, preemption accounting or completion timing
//! shows up here as a first differing line.
//!
//! Cases: the 50 `ablation_sched` sets at 0.7 utilization per core (seed
//! 2021, 12 tasks, 4 cores, 20 ms), then 60 sets from a fixed generator
//! covering 1–20 tasks, 1–8 cores, 0.3–1.2 utilization per core (so some
//! overload and build a backlog), constrained deadlines, repeated task
//! ids, and integer-microsecond periods and WCETs, which force releases
//! and completions onto the same instants.

use std::fmt::Write;

use autoplat_sched::partition::{first_fit_decreasing, Partition};
use autoplat_sched::simulate::{simulate_global_fp, simulate_partitioned_fp, SchedOutcome};
use autoplat_sched::task::TaskSet;
use autoplat_sched::Task;
use autoplat_sim::{SimDuration, SimRng};

const PS_PER_US: u64 = 1_000_000;

/// One seeded task set with its platform.
struct Case {
    name: String,
    /// Priority order: first = highest.
    tasks: Vec<Task>,
    cores: usize,
    horizon: SimDuration,
    /// The partitioned assignment, or `None` when none was found.
    partition: Option<Partition>,
}

/// splitmix64: a fixed generator, so the extra sets never depend on the
/// workspace's own RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The task sets `ablation_sched(50, 0.7)` draws, with its FFD partition.
fn ablation_cases() -> Vec<Case> {
    let cores = 4;
    let mut rng = SimRng::seed_from(2021);
    (0..50)
        .map(|k| {
            let ts = TaskSet::generate(
                12,
                0.7 * cores as f64,
                SimDuration::from_us(100.0),
                SimDuration::from_us(2_000.0),
                &mut rng,
            )
            .rate_monotonic();
            Case {
                name: format!("a{k:02}"),
                partition: first_fit_decreasing(ts.tasks(), cores).ok(),
                tasks: ts.tasks().to_vec(),
                cores,
                horizon: SimDuration::from_us(20_000.0),
            }
        })
        .collect()
}

/// Extra set `k`: its shape rotates through integer periods (every third
/// set), constrained deadlines (every fourth), repeated ids (every tenth)
/// and a 20 ms horizon (every fifth; 3 ms otherwise). The partitioned run
/// deals tasks round-robin onto the cores in priority order, so
/// overloaded cores are simulated too.
fn extra_case(k: u64) -> Case {
    let mut rng = SplitMix(0x5c4e_d000 + k);
    let n = 1 + rng.below(20) as usize;
    let cores = 1 + rng.below(8) as usize;
    let total_util = (0.3 + 0.9 * rng.unit()) * cores as f64;
    let integer = k.is_multiple_of(3);
    let constrained = k % 4 == 1;
    let repeated_ids = k % 10 == 7;
    let horizon_us = if k.is_multiple_of(5) { 20_000 } else { 3_000 };

    let weights: Vec<f64> = (0..n).map(|_| 0.05 + rng.unit()).collect();
    let weight_sum: f64 = weights.iter().sum();
    let tasks: Vec<Task> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let util = (total_util * w / weight_sum).min(1.0);
            // Periods and WCETs in ps; integer sets keep both on a µs grid.
            let (period, wcet, slack_grid) = if integer {
                let period_us = [100, 200, 250, 400, 500, 1_000][rng.below(6) as usize];
                let wcet_us = ((util * period_us as f64).round() as u64).clamp(1, period_us);
                (period_us * PS_PER_US, wcet_us * PS_PER_US, PS_PER_US)
            } else {
                let (lo, hi) = (
                    (100.0 * PS_PER_US as f64).ln(),
                    (2_000.0 * PS_PER_US as f64).ln(),
                );
                let period = (lo + rng.unit() * (hi - lo)).exp() as u64;
                let wcet = ((util * period as f64) as u64).clamp(1, period);
                (period, wcet, 1)
            };
            let id = if repeated_ids {
                (i % 3) as u32
            } else {
                i as u32
            };
            let task = Task::new(id, SimDuration::from_ps(wcet), SimDuration::from_ps(period));
            if constrained {
                let slack_steps = (period - wcet) / slack_grid;
                let deadline = wcet + rng.below(slack_steps + 1) * slack_grid;
                task.with_deadline(SimDuration::from_ps(deadline))
            } else {
                task
            }
        })
        .collect();
    let tasks = TaskSet::new(tasks).rate_monotonic().tasks().to_vec();
    let mut partition = Partition {
        cores: vec![Vec::new(); cores],
    };
    for (i, task) in tasks.iter().enumerate() {
        partition.cores[i % cores].push(*task);
    }
    Case {
        name: format!("x{k:02}"),
        tasks,
        cores,
        horizon: SimDuration::from_ps(horizon_us * PS_PER_US),
        partition: Some(partition),
    }
}

fn cases() -> Vec<Case> {
    let mut cases = ablation_cases();
    cases.extend((0..60).map(extra_case));
    cases
}

/// `name mode completed incomplete misses preemptions id:worst_ps ...`
fn render_outcome(name: &str, mode: &str, out: &SchedOutcome, text: &mut String) {
    write!(
        text,
        "{name} {mode} {} {} {} {}",
        out.completed_jobs, out.incomplete_jobs, out.deadline_misses, out.preemptions
    )
    .unwrap();
    let mut worst: Vec<(u32, u64)> = out
        .worst_response
        .iter()
        .map(|(&id, r)| (id, r.as_ps()))
        .collect();
    worst.sort_unstable();
    for (id, ps) in worst {
        write!(text, " {id}:{ps}").unwrap();
    }
    text.push('\n');
}

fn render_all() -> String {
    let mut text = String::new();
    for case in cases() {
        let global = simulate_global_fp(&case.tasks, case.cores, case.horizon);
        render_outcome(&case.name, "global", &global, &mut text);
        match &case.partition {
            Some(partition) => {
                let part = simulate_partitioned_fp(partition, case.horizon);
                render_outcome(&case.name, "partitioned", &part, &mut text);
            }
            None => writeln!(text, "{} partitioned unplaceable", case.name).unwrap(),
        }
    }
    text
}

#[test]
fn outcomes_match_golden() {
    let path = format!(
        "{}/../../tests/golden/sched_outcomes.txt",
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
