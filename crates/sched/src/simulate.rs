//! Event-driven preemptive fixed-priority scheduling simulator.
//!
//! Simulates synchronous periodic task sets on `m` cores under **global**
//! fixed-priority scheduling (the `m` highest-priority ready jobs run,
//! jobs migrate freely) or under **partitioned** scheduling (each core
//! runs its own subset; see [`crate::partition`]). Used to demonstrate
//! §II's observation that partitioning localizes interference — e.g.
//! Dhall's effect, where global scheduling misses deadlines at low
//! utilization.
//!
//! Time advances through the shared [`autoplat_sim::Engine`]: job
//! releases and completion checks are discrete events ([`SchedEvent`]),
//! so the simulator touches exactly the instants where the schedule can
//! change instead of spinning a dense `while now < horizon` loop.

use std::collections::HashMap;

use autoplat_sim::engine::{Engine, EventSink, Process};
use autoplat_sim::metrics::MetricsRegistry;
use autoplat_sim::{SimDuration, SimTime};

use crate::partition::Partition;
use crate::task::Task;

/// Outcome of a scheduling simulation.
#[derive(Debug, Clone, Default)]
pub struct SchedOutcome {
    /// Worst observed response time per task id.
    pub worst_response: HashMap<u32, SimDuration>,
    /// Jobs that completed after their absolute deadline.
    pub deadline_misses: u64,
    /// Number of preemptions (a running job displaced before finishing).
    pub preemptions: u64,
    /// Jobs completed within the horizon.
    pub completed_jobs: u64,
    /// Jobs still unfinished at the horizon (regardless of deadline).
    pub incomplete_jobs: u64,
}

impl SchedOutcome {
    /// Whether no job missed its deadline: completed jobs finished in
    /// time, and no unfinished job's deadline fell inside the horizon
    /// (unfinished jobs with later deadlines are not counted against the
    /// schedule — they simply straddle the measurement window).
    pub fn all_deadlines_met(&self) -> bool {
        self.deadline_misses == 0
    }

    /// Publishes the outcome into `metrics` under the `sched.*`
    /// namespace:
    ///
    /// * counters — `sched.completed_jobs`, `sched.incomplete_jobs`,
    ///   `sched.deadline_misses`, `sched.preemptions`;
    /// * histogram — `sched.worst_response_ns` over per-task worst
    ///   response times;
    /// * gauges — per-task `sched.task.{id}.worst_response_ns`.
    ///
    /// Tasks are walked in id order so exports stay deterministic.
    pub fn publish_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.counter_add("sched.completed_jobs", self.completed_jobs);
        metrics.counter_add("sched.incomplete_jobs", self.incomplete_jobs);
        metrics.counter_add("sched.deadline_misses", self.deadline_misses);
        metrics.counter_add("sched.preemptions", self.preemptions);
        let mut ids: Vec<u32> = self.worst_response.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let worst = self.worst_response[&id].as_ns();
            metrics.observe("sched.worst_response_ns", worst);
            metrics.gauge_set(format!("sched.task.{id}.worst_response_ns"), worst);
        }
    }

    fn merge(&mut self, other: SchedOutcome) {
        for (id, r) in other.worst_response {
            let e = self.worst_response.entry(id).or_default();
            *e = (*e).max(r);
        }
        self.deadline_misses += other.deadline_misses;
        self.preemptions += other.preemptions;
        self.completed_jobs += other.completed_jobs;
        self.incomplete_jobs += other.incomplete_jobs;
    }
}

#[derive(Debug, Clone)]
struct Job {
    task_idx: usize,
    release: SimTime,
    deadline: SimTime,
    remaining: SimDuration,
}

/// Events driving the global fixed-priority simulator on the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// Release of the next job of the task at this index.
    Release(usize),
    /// Completion check for the running set chosen at generation `.0`;
    /// checks from superseded generations are ignored.
    Check(u64),
}

/// The global preemptive fixed-priority scheduler as a kernel process.
///
/// Every delivered event first charges the elapsed interval to the jobs
/// that were running, then recomputes the running set, counts
/// displacements (preemptions) and schedules the next completion check.
/// Completion checks carry a generation number: whenever the running set
/// is recomputed the generation bumps, so a check scheduled for a
/// superseded running set is recognised as stale and dropped — the
/// event-driven analogue of the dense loop recomputing its `next_event`.
#[derive(Debug)]
struct GlobalFp<'a> {
    tasks: &'a [Task],
    cores: usize,
    horizon: SimTime,
    jobs: Vec<Job>,
    outcome: SchedOutcome,
    /// Keys `(task_idx, release)` of the jobs chosen to run at the last
    /// event; doubles as the previous set when the next event recomputes.
    running_keys: Vec<(usize, SimTime)>,
    /// Time up to which running jobs have been charged.
    last_update: SimTime,
    /// Current running-set generation, for staleness checks.
    gen: u64,
}

impl<'a> GlobalFp<'a> {
    fn new(tasks: &'a [Task], cores: usize, horizon: SimTime) -> Self {
        GlobalFp {
            tasks,
            cores,
            horizon,
            jobs: Vec::new(),
            outcome: SchedOutcome::default(),
            running_keys: Vec::new(),
            last_update: SimTime::ZERO,
            gen: 0,
        }
    }

    /// Charges `[last_update, t]` to the running jobs and records any
    /// completions landing exactly at `t`.
    fn elapse_to(&mut self, t: SimTime) {
        let delta = t.saturating_since(self.last_update);
        self.last_update = t;
        if !delta.is_zero() {
            for key in &self.running_keys {
                if let Some(job) = self
                    .jobs
                    .iter_mut()
                    .find(|j| (j.task_idx, j.release) == *key)
                {
                    job.remaining = job.remaining.saturating_sub(delta);
                }
            }
        }
        // Completions: running jobs that just hit zero remaining.
        let mut done: Vec<usize> = (0..self.jobs.len())
            .filter(|&j| {
                self.jobs[j].remaining.is_zero()
                    && self
                        .running_keys
                        .contains(&(self.jobs[j].task_idx, self.jobs[j].release))
            })
            .collect();
        done.sort_unstable_by(|a, b| b.cmp(a));
        for j in done {
            let job = self.jobs.remove(j);
            let response = t - job.release;
            let id = self.tasks[job.task_idx].id;
            let worst = self.outcome.worst_response.entry(id).or_default();
            *worst = (*worst).max(response);
            if t > job.deadline {
                self.outcome.deadline_misses += 1;
            }
            self.outcome.completed_jobs += 1;
        }
    }

    /// Recomputes the running set at `t`, counts preemptions against the
    /// previous set and schedules the next completion check.
    fn reschedule(&mut self, t: SimTime, sink: &mut dyn EventSink<SchedEvent>) {
        // Pick the `cores` highest-priority ready jobs (stable by task
        // index, then earliest release).
        let mut ready: Vec<usize> = (0..self.jobs.len())
            .filter(|&j| !self.jobs[j].remaining.is_zero())
            .collect();
        ready.sort_by_key(|&j| (self.jobs[j].task_idx, self.jobs[j].release));
        let running: Vec<usize> = ready.into_iter().take(self.cores).collect();
        let new_keys: Vec<(usize, SimTime)> = running
            .iter()
            .map(|&j| (self.jobs[j].task_idx, self.jobs[j].release))
            .collect();

        // Count preemptions: previously-running unfinished jobs displaced.
        for key in &self.running_keys {
            let still_exists = self
                .jobs
                .iter()
                .any(|j| (j.task_idx, j.release) == *key && !j.remaining.is_zero());
            if still_exists && !new_keys.contains(key) {
                self.outcome.preemptions += 1;
            }
        }
        self.running_keys = new_keys;

        // Next completion among the running jobs, if any.
        if let Some(min_remaining) = running
            .iter()
            .map(|&j| self.jobs[j].remaining)
            .min()
            .filter(|d| !d.is_zero())
        {
            self.gen += 1;
            sink.schedule_at(t + min_remaining, SchedEvent::Check(self.gen));
        }
    }

    /// Charges the tail interval up to `horizon` and accounts jobs still
    /// unfinished there, consuming the simulator.
    fn finish(mut self, horizon: SimTime) -> SchedOutcome {
        self.elapse_to(horizon);
        for job in self.jobs.iter().filter(|j| !j.remaining.is_zero()) {
            self.outcome.incomplete_jobs += 1;
            if job.deadline <= horizon {
                self.outcome.deadline_misses += 1;
            }
        }
        self.outcome
    }
}

impl Process for GlobalFp<'_> {
    type Event = SchedEvent;

    fn handle(&mut self, event: SchedEvent, sink: &mut dyn EventSink<SchedEvent>) {
        let t = sink.now();
        match event {
            SchedEvent::Release(i) => {
                // The dense loop never processed releases landing at the
                // horizon; keep that boundary semantics.
                if t >= self.horizon {
                    return;
                }
                self.elapse_to(t);
                let task = &self.tasks[i];
                self.jobs.push(Job {
                    task_idx: i,
                    release: t,
                    deadline: t + task.deadline,
                    remaining: task.wcet,
                });
                sink.schedule_at(t + task.period, SchedEvent::Release(i));
                self.reschedule(t, sink);
            }
            SchedEvent::Check(gen) => {
                if gen != self.gen {
                    return; // stale: the running set changed since
                }
                self.elapse_to(t);
                self.reschedule(t, sink);
            }
        }
    }
}

/// Simulates global preemptive fixed-priority scheduling of `tasks`
/// (slice order = priority order, first = highest) on `cores` cores with
/// synchronous release at `t = 0`, until `horizon`.
///
/// # Panics
///
/// Panics if `cores` is zero or `tasks` is empty.
///
/// # Examples
///
/// ```
/// use autoplat_sched::simulate::simulate_global_fp;
/// use autoplat_sched::Task;
/// use autoplat_sim::SimDuration;
///
/// let tasks = vec![Task::new(0, SimDuration::from_us(1.0), SimDuration::from_us(4.0))];
/// let out = simulate_global_fp(&tasks, 1, SimDuration::from_us(40.0));
/// assert!(out.all_deadlines_met());
/// assert_eq!(out.completed_jobs, 10);
/// ```
pub fn simulate_global_fp(tasks: &[Task], cores: usize, horizon: SimDuration) -> SchedOutcome {
    assert!(cores > 0, "need at least one core");
    assert!(!tasks.is_empty(), "need at least one task");
    let horizon_t = SimTime::ZERO + horizon;

    let mut sim = GlobalFp::new(tasks, cores, horizon_t);
    let mut engine = Engine::new();
    // Synchronous release: every task's first job lands at t = 0; FIFO
    // tie-breaking delivers them in priority (slice) order.
    for i in 0..tasks.len() {
        engine.schedule_at(SimTime::ZERO, SchedEvent::Release(i));
    }
    engine.run_until(&mut sim, horizon_t);
    sim.finish(horizon_t)
}

/// Simulates a partitioned assignment: each core independently runs its
/// task list (already in priority order) on one core.
pub fn simulate_partitioned_fp(partition: &Partition, horizon: SimDuration) -> SchedOutcome {
    let mut total = SchedOutcome::default();
    for core_tasks in &partition.cores {
        if core_tasks.is_empty() {
            continue;
        }
        total.merge(simulate_global_fp(core_tasks, 1, horizon));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::response_times;
    use crate::task::TaskSet;
    use autoplat_sim::SimRng;

    fn t(id: u32, c_us: f64, p_us: f64) -> Task {
        Task::new(id, SimDuration::from_us(c_us), SimDuration::from_us(p_us))
    }

    #[test]
    fn single_task_runs_every_period() {
        let out = simulate_global_fp(&[t(0, 1.0, 5.0)], 1, SimDuration::from_us(50.0));
        assert_eq!(out.completed_jobs, 10);
        assert!(out.all_deadlines_met());
        assert_eq!(out.worst_response[&0], SimDuration::from_us(1.0));
    }

    #[test]
    fn simulated_worst_response_matches_rta_at_critical_instant() {
        // Synchronous release IS the critical instant for constrained
        // deadlines, so simulation over a hyperperiod matches RTA.
        let tasks = vec![t(0, 1.0, 4.0), t(1, 2.0, 6.0), t(2, 3.0, 12.0)];
        let rt = response_times(&tasks).expect("schedulable");
        let out = simulate_global_fp(&tasks, 1, SimDuration::from_us(48.0));
        for (i, task) in tasks.iter().enumerate() {
            assert_eq!(
                out.worst_response[&task.id], rt[i],
                "task {} sim vs RTA",
                task.id
            );
        }
        assert!(out.all_deadlines_met());
    }

    #[test]
    fn overload_misses_deadlines() {
        let tasks = vec![t(0, 3.0, 4.0), t(1, 3.0, 8.0)];
        let out = simulate_global_fp(&tasks, 1, SimDuration::from_us(80.0));
        assert!(out.deadline_misses > 0 || out.incomplete_jobs > 0);
        assert!(!out.all_deadlines_met());
    }

    #[test]
    fn two_cores_run_two_heavy_tasks() {
        let tasks = vec![t(0, 3.0, 5.0), t(1, 3.0, 5.0)];
        let one = simulate_global_fp(&tasks, 1, SimDuration::from_us(50.0));
        assert!(!one.all_deadlines_met(), "120% does not fit one core");
        let two = simulate_global_fp(&tasks, 2, SimDuration::from_us(50.0));
        assert!(two.all_deadlines_met(), "two cores fit 2×60%");
    }

    #[test]
    fn dhalls_effect_global_vs_partitioned() {
        // Dhall's instance on 2 cores: two light tasks (C=1, T=5) and one
        // heavy task (C=5.0, T=5.05 → deadline barely above C). Global RM
        // runs the two light tasks first on both cores; the heavy task
        // then cannot finish by its deadline. Partitioned puts the heavy
        // task alone on a core and everything fits.
        let light1 = t(0, 1.0, 5.0);
        let light2 = t(1, 1.0, 5.0);
        let heavy = Task::new(2, SimDuration::from_us(4.2), SimDuration::from_us(5.05));
        let tasks = vec![light1, light2, heavy];
        let global = simulate_global_fp(&tasks, 2, SimDuration::from_us(101.0));
        assert!(
            global.deadline_misses > 0,
            "Dhall's effect must bite global RM"
        );

        let partition = Partition {
            cores: vec![vec![light1, light2], vec![heavy]],
        };
        let part = simulate_partitioned_fp(&partition, SimDuration::from_us(101.0));
        assert!(
            part.all_deadlines_met(),
            "partitioned schedules the same set"
        );
    }

    #[test]
    fn preemptions_counted() {
        // Low-priority long task preempted by high-priority short one.
        let tasks = vec![t(0, 1.0, 4.0), t(1, 6.0, 20.0)];
        let out = simulate_global_fp(&tasks, 1, SimDuration::from_us(20.0));
        assert!(out.preemptions >= 1, "long task must be preempted");
        assert!(out.all_deadlines_met());
    }

    #[test]
    fn random_sets_sim_never_beats_rta() {
        // RTA is an upper bound on any observed response time.
        let mut rng = SimRng::seed_from(5);
        for _ in 0..10 {
            let ts = TaskSet::generate(
                5,
                0.6,
                SimDuration::from_us(10.0),
                SimDuration::from_us(200.0),
                &mut rng,
            )
            .rate_monotonic();
            if let Some(rt) = response_times(ts.tasks()) {
                let out = simulate_global_fp(ts.tasks(), 1, SimDuration::from_us(5000.0));
                for (i, task) in ts.tasks().iter().enumerate() {
                    if let Some(obs) = out.worst_response.get(&task.id) {
                        assert!(
                            *obs <= rt[i],
                            "observed {} > RTA {} for task {}",
                            obs,
                            rt[i],
                            task.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn publish_metrics_exports_outcome() {
        let tasks = vec![t(0, 1.0, 4.0), t(1, 2.0, 6.0)];
        let out = simulate_global_fp(&tasks, 1, SimDuration::from_us(48.0));
        let mut m = MetricsRegistry::new();
        out.publish_metrics(&mut m);
        assert_eq!(m.counter("sched.completed_jobs"), out.completed_jobs);
        assert_eq!(m.counter("sched.deadline_misses"), out.deadline_misses);
        assert_eq!(m.counter("sched.preemptions"), out.preemptions);
        assert_eq!(
            m.gauge("sched.task.0.worst_response_ns"),
            Some(out.worst_response[&0].as_ns())
        );
        assert_eq!(
            m.histogram("sched.worst_response_ns")
                .expect("tasks")
                .count(),
            2
        );
        autoplat_sim::metrics::validate_json_export(&m.to_json()).expect("schema");
    }

    #[test]
    fn partitioned_merge_accumulates() {
        let partition = Partition {
            cores: vec![vec![t(0, 1.0, 4.0)], vec![t(1, 1.0, 4.0)], Vec::new()],
        };
        let out = simulate_partitioned_fp(&partition, SimDuration::from_us(16.0));
        assert_eq!(out.completed_jobs, 8);
        assert_eq!(out.worst_response.len(), 2);
    }
}
