//! MemGuard-style memory-bandwidth regulation
//! (Yun et al., RTAS 2013 — reference \[6\] of the paper).
//!
//! Each regulated index — a core, or a DRAM bank as in Sullivan et
//! al.'s per-bank regulation — receives a bandwidth **budget** (bytes
//! per regulation period). Every access is charged to its index's
//! per-period usage counter, the model's stand-in for the performance
//! counter MemGuard reads; once a budget is spent, further accesses are
//! **throttled** — deferred to the start of the next period, when all
//! budgets replenish. The sum of guaranteed budgets must not exceed the
//! guaranteed (worst-case) memory bandwidth for the reservation to hold.
//!
//! Keying by core regulates demand but leaves two cores within budget
//! free to collide on one bank; keying by bank bounds the load each bank
//! receives per period. Either way, under saturated demand an index with
//! budget `B` is granted at least `h·B` bytes over `h` full periods and
//! at most one overdraw access past `B` per period (the MemGuard
//! counter-overflow rule).

use autoplat_sim::metrics::{HistogramSketch, MetricsRegistry};
use autoplat_sim::{SimDuration, SimTime};

/// The regulator's verdict on one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDecision {
    /// Budget available: proceed now.
    Granted,
    /// Budget exhausted: the access stalls until the given instant (the
    /// next period boundary).
    ThrottledUntil(SimTime),
}

/// A MemGuard-style bandwidth regulator.
///
/// # Examples
///
/// ```
/// use autoplat_regulation::{MemGuard, AccessDecision};
/// use autoplat_sim::{SimDuration, SimTime};
///
/// let mut mg = MemGuard::new(SimDuration::from_us(100.0), vec![128]);
/// assert_eq!(mg.try_access(0, 128, SimTime::ZERO), AccessDecision::Granted);
/// let next = SimTime::ZERO + SimDuration::from_us(100.0);
/// assert_eq!(
///     mg.try_access(0, 64, SimTime::ZERO),
///     AccessDecision::ThrottledUntil(next)
/// );
/// // In the next period the budget is fresh.
/// assert_eq!(mg.try_access(0, 64, next), AccessDecision::Granted);
/// ```
#[derive(Debug, Clone)]
pub struct MemGuard {
    period: SimDuration,
    budgets: Vec<u64>,
    used: Vec<u64>,
    period_index: u64,
    throttle_events: Vec<u64>,
    /// Lifetime bytes granted per index (survives period rolls).
    granted_total: Vec<u64>,
    /// Distribution of throttle wait times (ns): how long each throttled
    /// access must stall until its period boundary.
    throttle_wait: HistogramSketch,
}

impl MemGuard {
    /// Creates a regulator with one budget (bytes/period) per regulated
    /// index (core or bank).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `budgets` is empty.
    pub fn new(period: SimDuration, budgets: Vec<u64>) -> Self {
        assert!(!period.is_zero(), "regulation period must be non-zero");
        assert!(!budgets.is_empty(), "need at least one core budget");
        let cores = budgets.len();
        MemGuard {
            period,
            budgets,
            used: vec![0; cores],
            period_index: 0,
            throttle_events: vec![0; cores],
            granted_total: vec![0; cores],
            throttle_wait: HistogramSketch::new(),
        }
    }

    /// Number of regulated indices (cores or banks).
    pub fn cores(&self) -> usize {
        self.budgets.len()
    }

    /// The regulation period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The budget of `core` in bytes per period.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn budget(&self, core: usize) -> u64 {
        self.budgets[core]
    }

    /// Updates the budget of `core` (takes effect immediately).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_budget(&mut self, core: usize, bytes_per_period: u64) {
        self.budgets[core] = bytes_per_period;
    }

    /// Whether the budgets are feasible against a guaranteed memory
    /// bandwidth (bytes/second): the reservation invariant of \[6\].
    pub fn is_feasible(&self, guaranteed_bytes_per_sec: f64) -> bool {
        let total: u64 = self.budgets.iter().sum();
        total as f64 <= guaranteed_bytes_per_sec * self.period.as_secs()
    }

    /// Rolls the regulation period forward to include `now`, replenishing
    /// budgets at each boundary. Synchronous callers get this lazily from
    /// [`MemGuard::try_access`]; event-driven runs replenish eagerly at
    /// boundaries instead (see [`crate::process::MemGuardProcess`]).
    /// Both paths are idempotent per period, so mixing them is safe.
    pub fn replenish(&mut self, now: SimTime) {
        let idx = now.as_ps() / self.period.as_ps();
        if idx > self.period_index {
            self.period_index = idx;
            self.used.fill(0);
        }
    }

    /// The start of the period following the one containing `now`.
    fn next_boundary(&self, now: SimTime) -> SimTime {
        let idx = now.as_ps() / self.period.as_ps();
        SimTime::from_ps((idx + 1) * self.period.as_ps())
    }

    /// Regulates one access of `bytes` by `core` at `now`.
    ///
    /// Time must be non-decreasing across calls (interleaving indices is
    /// fine). An access larger than the whole budget is granted at a
    /// period boundary (it can never fit otherwise) and overdraws that
    /// period — matching MemGuard, which only throttles *after* the
    /// counter overflows.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn try_access(&mut self, core: usize, bytes: u64, now: SimTime) -> AccessDecision {
        self.replenish(now);
        if self.budgets[core] == 0 || self.used[core] >= self.budgets[core] {
            self.throttle_events[core] += 1;
            let boundary = self.next_boundary(now);
            self.throttle_wait
                .record(boundary.saturating_since(now).as_ns());
            return AccessDecision::ThrottledUntil(boundary);
        }
        self.used[core] += bytes;
        self.granted_total[core] += bytes;
        AccessDecision::Granted
    }

    /// Bytes used by `core` in the current period.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn used(&self, core: usize) -> u64 {
        self.used[core]
    }

    /// Lifetime bytes granted to `core` across all periods.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn granted_total(&self, core: usize) -> u64 {
        self.granted_total[core]
    }

    /// Publishes the regulator's observability data into `metrics` under
    /// the `memguard.*` namespace:
    ///
    /// * counters — `memguard.throttle_events` (total) and per-core
    ///   `memguard.core.{i}.throttle_events` /
    ///   `memguard.core.{i}.bytes_served`;
    /// * gauges — per-core `memguard.core.{i}.budget_bytes`;
    /// * histogram — `memguard.throttle_wait_ns`, the stall each
    ///   throttled access pays until its period boundary.
    pub fn publish_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.counter_add(
            "memguard.throttle_events",
            self.throttle_events.iter().sum(),
        );
        for core in 0..self.cores() {
            metrics.counter_add(
                format!("memguard.core.{core}.throttle_events"),
                self.throttle_events[core],
            );
            metrics.counter_add(
                format!("memguard.core.{core}.bytes_served"),
                self.granted_total[core],
            );
            metrics.gauge_set(
                format!("memguard.core.{core}.budget_bytes"),
                self.budgets[core] as f64,
            );
        }
        metrics.merge_histogram("memguard.throttle_wait_ns", &self.throttle_wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mg(budgets: Vec<u64>) -> MemGuard {
        MemGuard::new(SimDuration::from_us(1.0), budgets)
    }

    #[test]
    fn grants_until_budget_exhausted() {
        let mut m = mg(vec![256]);
        assert_eq!(m.try_access(0, 128, SimTime::ZERO), AccessDecision::Granted);
        assert_eq!(m.try_access(0, 128, SimTime::ZERO), AccessDecision::Granted);
        let boundary = SimTime::from_us(1.0);
        assert_eq!(
            m.try_access(0, 64, SimTime::from_ns(500.0)),
            AccessDecision::ThrottledUntil(boundary)
        );
        let mut reg = MetricsRegistry::new();
        m.publish_metrics(&mut reg);
        assert_eq!(reg.counter("memguard.core.0.throttle_events"), 1);
        assert_eq!(m.used(0), 256);
    }

    #[test]
    fn budget_replenishes_each_period() {
        let mut m = mg(vec![100]);
        assert_eq!(m.try_access(0, 100, SimTime::ZERO), AccessDecision::Granted);
        for k in 1..5u64 {
            let t = SimTime::from_us(k as f64);
            assert_eq!(
                m.try_access(0, 100, t),
                AccessDecision::Granted,
                "period {k}"
            );
        }
    }

    #[test]
    fn cores_are_isolated() {
        let mut m = mg(vec![100, 100]);
        // Core 0 burns its budget.
        let _ = m.try_access(0, 100, SimTime::ZERO);
        assert!(matches!(
            m.try_access(0, 1, SimTime::ZERO),
            AccessDecision::ThrottledUntil(_)
        ));
        // Core 1 is unaffected.
        assert_eq!(m.try_access(1, 100, SimTime::ZERO), AccessDecision::Granted);
    }

    #[test]
    fn zero_budget_always_throttles() {
        let mut m = mg(vec![0]);
        assert!(matches!(
            m.try_access(0, 1, SimTime::ZERO),
            AccessDecision::ThrottledUntil(_)
        ));
        assert_eq!(m.granted_total(0), 0);
    }

    #[test]
    fn oversized_access_overdraws_at_boundary() {
        let mut m = mg(vec![100]);
        // 300 > budget: granted (fresh period) but overdraws.
        assert_eq!(m.try_access(0, 300, SimTime::ZERO), AccessDecision::Granted);
        assert!(matches!(
            m.try_access(0, 1, SimTime::ZERO),
            AccessDecision::ThrottledUntil(_)
        ));
    }

    #[test]
    fn feasibility_check() {
        let m = MemGuard::new(SimDuration::from_us(1000.0), vec![500_000, 400_000]);
        // 900 KB per ms = 900 MB/s.
        assert!(m.is_feasible(1.0e9));
        assert!(!m.is_feasible(0.5e9));
    }

    #[test]
    fn set_budget_takes_effect() {
        let mut m = mg(vec![100]);
        let _ = m.try_access(0, 100, SimTime::ZERO);
        m.set_budget(0, 200);
        assert_eq!(m.budget(0), 200);
        assert_eq!(m.try_access(0, 50, SimTime::ZERO), AccessDecision::Granted);
    }

    #[test]
    fn counters_track_lifetime() {
        let mut m = mg(vec![1000]);
        let _ = m.try_access(0, 100, SimTime::ZERO);
        let _ = m.try_access(0, 100, SimTime::from_us(1.5)); // next period
        assert_eq!(m.granted_total(0), 200);
        assert_eq!(m.used(0), 100, "usage resets at the boundary");
    }

    #[test]
    fn throttled_core_proceeds_next_period() {
        let mut m = mg(vec![64]);
        let _ = m.try_access(0, 64, SimTime::ZERO);
        let d = m.try_access(0, 64, SimTime::from_ns(10.0));
        let AccessDecision::ThrottledUntil(t) = d else {
            panic!("expected throttle")
        };
        assert_eq!(m.try_access(0, 64, t), AccessDecision::Granted);
    }

    #[test]
    fn guarantee_floor_holds_under_saturated_demand() {
        // Saturate budget 256 with 64-byte chunks for 5 full periods: the
        // guarantee h·B must be met exactly (256 divides evenly), never
        // undershot.
        let mut m = mg(vec![256]);
        let horizon = SimTime::from_us(5.0);
        let mut t = SimTime::ZERO;
        let mut granted = 0u64;
        while t < horizon {
            match m.try_access(0, 64, t) {
                AccessDecision::Granted => granted += 64,
                AccessDecision::ThrottledUntil(u) => {
                    if u >= horizon {
                        break;
                    }
                    t = u;
                }
            }
        }
        assert_eq!(granted, 5 * m.budget(0));
        assert_eq!(m.granted_total(0), granted);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let _ = MemGuard::new(SimDuration::ZERO, vec![1]);
    }

    #[test]
    fn throttle_wait_histogram_measures_stall_to_boundary() {
        let mut m = mg(vec![64]);
        let _ = m.try_access(0, 64, SimTime::ZERO);
        // Throttled 400 ns into a 1 µs period: 600 ns to the boundary.
        let _ = m.try_access(0, 1, SimTime::from_ns(400.0));
        let mut reg = MetricsRegistry::new();
        m.publish_metrics(&mut reg);
        let wait = reg
            .histogram("memguard.throttle_wait_ns")
            .expect("one stall");
        assert_eq!(wait.count(), 1);
        assert!((wait.max().expect("one stall") - 600.0).abs() < 1e-9);
    }

    #[test]
    fn publish_metrics_exports_per_core_state() {
        let mut m = mg(vec![128, 0]);
        let _ = m.try_access(0, 128, SimTime::ZERO);
        let _ = m.try_access(0, 1, SimTime::from_ns(100.0)); // throttled
        let _ = m.try_access(1, 1, SimTime::from_ns(200.0)); // zero budget
        let mut reg = MetricsRegistry::new();
        m.publish_metrics(&mut reg);
        assert_eq!(reg.counter("memguard.throttle_events"), 2);
        assert_eq!(reg.counter("memguard.core.0.throttle_events"), 1);
        assert_eq!(reg.counter("memguard.core.1.throttle_events"), 1);
        assert_eq!(reg.counter("memguard.core.0.bytes_served"), 128);
        assert_eq!(reg.gauge("memguard.core.0.budget_bytes"), Some(128.0));
        assert_eq!(reg.gauge("memguard.core.1.budget_bytes"), Some(0.0));
        let wait = reg.histogram("memguard.throttle_wait_ns").expect("stalls");
        assert_eq!(wait.count(), 2);
        autoplat_sim::metrics::validate_csv_export(&reg.to_csv()).expect("schema");
    }
}
