//! System modes and adaptive rate policies (Fig. 7).
//!
//! "Each mode is defined by the number of currently active applications,
//! and determines the minimum time separating every two transmissions
//! issued from the same application." The RM recomputes every source's
//! injection rate on each mode transition, one [`RatePolicy::contracts`]
//! call for the whole active set:
//!
//! * [`SymmetricPolicy`] — "transmission rates decrease uniformly for all
//!   applications along with the increasing number of senders";
//! * [`WeightedPolicy`] — the non-symmetric variant "used in a
//!   mixed-criticality system to maintain the critical application
//!   guarantees while reducing best effort traffic".

use autoplat_netcalc::TokenBucket;

use crate::app::{AppId, Application};

/// A system mode: the number of currently active applications.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    Hash,
    PartialOrd,
    Ord,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct SystemMode(pub usize);

impl std::fmt::Display for SystemMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mode{}", self.0)
    }
}

/// A rate-allocation policy: maps the set of active applications to a
/// token-bucket contract per application (rates in items/cycle).
pub trait RatePolicy {
    /// The contracts of every application in `active` (the mode's member
    /// list), in `active` order, or `None` when the policy cannot serve
    /// that set (admission must be refused).
    ///
    /// A policy is a pure function of the active set, and one call prices
    /// a whole reconfiguration round in O(n) — the difference between
    /// hundreds and a million clients per mode transition.
    fn contracts(&self, active: &[Application]) -> Option<Vec<(AppId, TokenBucket)>>;
}

/// Symmetric guarantees: each of the `n` active applications receives
/// `capacity / n`, with a fixed burst.
///
/// # Examples
///
/// ```
/// use autoplat_admission::app::{AppId, Application};
/// use autoplat_admission::modes::{RatePolicy, SymmetricPolicy};
///
/// let policy = SymmetricPolicy::new(0.8, 4.0);
/// let apps: Vec<_> = (0..4).map(|i| Application::best_effort(AppId(i), i)).collect();
/// let contracts = policy.contracts(&apps).expect("symmetric always serves");
/// assert!(contracts.iter().all(|(_, tb)| (tb.rate() - 0.2).abs() < 1e-12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymmetricPolicy {
    capacity: f64,
    burst: f64,
}

impl SymmetricPolicy {
    /// Creates a policy distributing `capacity` items/cycle with `burst`
    /// items of slack per application.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive or `burst` is negative.
    pub fn new(capacity: f64, burst: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(burst >= 0.0, "burst must be non-negative");
        SymmetricPolicy { capacity, burst }
    }
}

impl RatePolicy for SymmetricPolicy {
    fn contracts(&self, active: &[Application]) -> Option<Vec<(AppId, TokenBucket)>> {
        let n = active.len().max(1);
        let tb = TokenBucket::new(self.burst, self.capacity / n as f64);
        Some(active.iter().map(|a| (a.id, tb)).collect())
    }
}

/// Non-symmetric (importance-weighted) guarantees: critical applications
/// always receive their guaranteed rate; best-effort applications share
/// whatever capacity remains equally. Admission of a critical application
/// fails when the guarantees alone would exceed capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPolicy {
    capacity: f64,
    burst: f64,
    /// Floor below which best-effort rates are not squeezed further; 0
    /// allows squeezing best effort to nothing.
    best_effort_floor: f64,
}

impl WeightedPolicy {
    /// Creates a weighted policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive or `burst`/`floor` negative.
    pub fn new(capacity: f64, burst: f64, best_effort_floor: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(
            burst >= 0.0 && best_effort_floor >= 0.0,
            "negative parameter"
        );
        WeightedPolicy {
            capacity,
            burst,
            best_effort_floor,
        }
    }
}

impl RatePolicy for WeightedPolicy {
    fn contracts(&self, active: &[Application]) -> Option<Vec<(AppId, TokenBucket)>> {
        let guaranteed: f64 = active.iter().map(|a| a.importance.guaranteed_rate()).sum();
        if guaranteed > self.capacity + 1e-12 {
            // The critical guarantees alone are infeasible.
            return None;
        }
        let best_effort = active
            .iter()
            .filter(|a| !a.importance.is_critical())
            .count();
        let be_rate = if best_effort == 0 {
            0.0
        } else {
            ((self.capacity - guaranteed) / best_effort as f64).max(self.best_effort_floor)
        };
        Some(
            active
                .iter()
                .map(|a| {
                    let rate = if a.importance.is_critical() {
                        a.importance.guaranteed_rate()
                    } else {
                        be_rate
                    };
                    (a.id, TokenBucket::new(self.burst, rate))
                })
                .collect(),
        )
    }
}

/// Tabulates a policy over modes `1..=max_mode` for a homogeneous set of
/// applications: the **Fig. 7 series** (injection rate as a function of
/// the system mode).
pub fn rate_series<P: RatePolicy>(
    policy: &P,
    template: &[Application],
    max_mode: usize,
) -> Vec<(SystemMode, Vec<(Application, f64)>)> {
    assert!(
        max_mode <= template.len(),
        "template must cover max_mode apps"
    );
    let mut out = Vec::with_capacity(max_mode);
    for n in 1..=max_mode {
        let active = &template[..n];
        let contracts = policy.contracts(active);
        let rates = active
            .iter()
            .enumerate()
            .map(|(i, a)| (*a, contracts.as_ref().map_or(0.0, |c| c[i].1.rate())))
            .collect();
        out.push((SystemMode(n), rates));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn be(n: u32) -> Application {
        Application::best_effort(AppId(n), n)
    }

    #[test]
    fn symmetric_rates_shrink_uniformly() {
        let p = SymmetricPolicy::new(1.0, 8.0);
        for n in 1..=8usize {
            let active: Vec<_> = (0..n as u32).map(be).collect();
            let contracts = p.contracts(&active).expect("always serves");
            assert_eq!(contracts.len(), n);
            for (a, (id, tb)) in active.iter().zip(&contracts) {
                assert_eq!(*id, a.id, "contracts come in active order");
                assert!((tb.rate() - 1.0 / n as f64).abs() < 1e-12);
                assert_eq!(tb.burst(), 8.0);
            }
        }
    }

    #[test]
    fn weighted_policy_protects_critical() {
        let p = WeightedPolicy::new(1.0, 4.0, 0.0);
        let critical = Application::critical(AppId(0), 0, 400); // 0.4
        let mut active = vec![critical];
        let solo = p.contracts(&active).expect("fits");
        assert_eq!(solo[0].1.rate(), 0.4);
        // Add best-effort apps: critical keeps 0.4, they split 0.6.
        for n in 1..=6u32 {
            active.push(be(n));
            let contracts = p.contracts(&active).expect("fits");
            assert_eq!(contracts[0].1.rate(), 0.4, "critical rate must not degrade");
            for (_, b) in &contracts[1..] {
                assert!((b.rate() - 0.6 / n as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weighted_policy_rejects_infeasible_guarantees() {
        let p = WeightedPolicy::new(1.0, 4.0, 0.0);
        let a = Application::critical(AppId(0), 0, 600);
        let b = Application::critical(AppId(1), 1, 600);
        assert!(p.contracts(&[a, b]).is_none(), "1.2 > 1.0 capacity");
    }

    #[test]
    fn weighted_floor_keeps_best_effort_alive() {
        let p = WeightedPolicy::new(1.0, 4.0, 0.05);
        let c = Application::critical(AppId(0), 0, 1000); // eats everything
        let b0 = be(1);
        let contracts = p.contracts(&[c, b0]).expect("fits");
        assert_eq!(
            contracts[1],
            (b0.id, TokenBucket::new(4.0, 0.05)),
            "floor applies"
        );
    }

    #[test]
    fn fig7_series_shapes() {
        // Symmetric: monotone decreasing 1/n. Weighted: critical flat,
        // best effort decreasing.
        let apps: Vec<_> = std::iter::once(Application::critical(AppId(0), 0, 300))
            .chain((1..8).map(be))
            .collect();
        let sym = SymmetricPolicy::new(1.0, 8.0);
        let series = rate_series(&sym, &apps, 8);
        let mut last = f64::INFINITY;
        for (mode, rates) in &series {
            let r = rates[0].1;
            assert!(r <= last, "symmetric rate must fall with mode {mode}");
            last = r;
        }
        let weighted = WeightedPolicy::new(1.0, 8.0, 0.0);
        let series = rate_series(&weighted, &apps, 8);
        for (_, rates) in &series {
            assert_eq!(rates[0].1, 0.3, "critical rate constant across modes");
        }
        // Best-effort rates decrease with mode.
        let be_rates: Vec<f64> = series[1..].iter().map(|(_, rates)| rates[1].1).collect();
        for w in be_rates.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn mode_display() {
        assert_eq!(SystemMode(3).to_string(), "mode3");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SymmetricPolicy::new(0.0, 1.0);
    }
}
