//! Streaming statistics for simulated measurements.
//!
//! [`Summary`] accumulates count/mean/variance/min/max using Welford's
//! online algorithm; the simulators use it to report latency and bandwidth
//! figures. Distributions go through [`crate::metrics::HistogramSketch`].

use std::fmt;

/// Online summary statistics (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use autoplat_sim::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    /// Exact running sum (Kahan-compensated). Kept separately from
    /// `mean * count`, which loses precision after [`Summary::merge`].
    sum: f64,
    /// Kahan compensation term for `sum`.
    sum_c: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN: a NaN sample would silently poison every later
    /// statistic.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "Summary::record: NaN sample");
        self.count += 1;
        self.kahan_add(x);
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance; `0.0` with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Sum of all samples, tracked exactly (Kahan-compensated) rather
    /// than reconstructed as `mean * count` — reconstruction loses
    /// precision once summaries have been [`merge`](Summary::merge)d.
    pub fn sum(&self) -> f64 {
        self.sum + self.sum_c
    }

    /// Kahan-compensated accumulation of `x` into `sum`; `sum_c` carries
    /// the low-order bits lost by each addition, so `sum + sum_c` is the
    /// compensated total.
    fn kahan_add(&mut self, x: f64) {
        let y = x + self.sum_c;
        let t = self.sum + y;
        self.sum_c = y - (t - self.sum);
        self.sum = t;
    }

    /// Merges another summary into this one (parallel-friendly combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.kahan_add(other.sum());
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min.unwrap_or(f64::NAN),
            self.max.unwrap_or(f64::NAN)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_and_variance() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn summary_merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.record(1.0);
        let before = a.clone();
        a.merge(&Summary::new());
        assert_eq!(a, before);

        let mut b = Summary::new();
        b.merge(&before);
        assert_eq!(b, before);
    }

    #[test]
    fn sum_is_exact_not_reconstructed() {
        // Samples whose mean*count reconstruction drifts: large magnitude
        // offsets with small increments.
        let mut s = Summary::new();
        let xs = [1e15, 3.0, -1e15, 4.0];
        for x in xs {
            s.record(x);
        }
        assert_eq!(s.sum(), 7.0, "Kahan sum must survive cancellation");
    }

    #[test]
    fn merge_preserves_exact_sum() {
        let mut left = Summary::new();
        let mut right = Summary::new();
        left.record(1e15);
        left.record(3.0);
        right.record(-1e15);
        right.record(4.0);
        left.merge(&right);
        // The old mean*count reconstruction loses the 7.0 entirely at
        // this magnitude (mean ≈ 1.75 rounded within 1e15-scale floats).
        assert!((left.sum() - 7.0).abs() < 1e-3, "sum {}", left.sum());
    }

    #[test]
    fn merge_is_associative_on_sum() {
        let xs: Vec<f64> = (0..300)
            .map(|i| (i as f64).cos() * 1e8 + i as f64 * 1e-6)
            .collect();
        let part = |range: std::ops::Range<usize>| {
            let mut s = Summary::new();
            for &x in &xs[range] {
                s.record(x);
            }
            s
        };
        let (a, b, c) = (part(0..100), part(100..200), part(200..300));

        // (a ⊕ b) ⊕ c
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        let scale = xs.iter().map(|x| x.abs()).sum::<f64>();
        assert!(
            (ab_c.sum() - a_bc.sum()).abs() <= scale * 1e-15,
            "merge grouping changed the sum: {} vs {}",
            ab_c.sum(),
            a_bc.sum()
        );
        assert_eq!(ab_c.count(), a_bc.count());
        assert!((ab_c.mean() - a_bc.mean()).abs() < 1e-6);
    }
}
