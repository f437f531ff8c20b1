//! A [`SimTime`]-domain token-bucket traffic shaper.
//!
//! Wraps the network-calculus bucket state in simulator time units: the
//! enforceable regulation primitive of §IV-A ("all it takes is a buffer
//! and a timer"), meant for NoC entrances and the front of the DRAM
//! controller. No simulator composes it yet: only its unit and property
//! tests drive it.
//!
//! [`SimTime`]: autoplat_sim::SimTime

use autoplat_netcalc::conformance::BucketState;
use autoplat_netcalc::TokenBucket;
use autoplat_sim::{SimDuration, SimTime};

/// A traffic shaper enforcing a token-bucket contract in simulated time.
///
/// The contract rate is interpreted as **items per nanosecond**, the burst
/// as items (an "item" being whatever the caller regulates: requests,
/// flits, bytes).
///
/// # Examples
///
/// ```
/// use autoplat_regulation::TrafficShaper;
/// use autoplat_netcalc::TokenBucket;
/// use autoplat_sim::{SimTime, SimDuration};
///
/// // 4-request burst, 0.01 requests/ns (≈ 10 M requests/s).
/// let mut shaper = TrafficShaper::new(TokenBucket::new(4.0, 0.01));
/// assert_eq!(shaper.release_time(SimTime::ZERO, 4.0), Some(SimTime::ZERO));
/// // The burst is gone: one more request waits 100 ns for a token.
/// assert_eq!(
///     shaper.release_time(SimTime::ZERO, 1.0),
///     Some(SimTime::from_ns(100.0))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct TrafficShaper {
    contract: TokenBucket,
    state: BucketState,
    shaped: u64,
    delayed: u64,
    total_delay: SimDuration,
}

impl TrafficShaper {
    /// Creates a shaper enforcing `contract`.
    pub fn new(contract: TokenBucket) -> Self {
        TrafficShaper {
            contract,
            state: BucketState::new(contract),
            shaped: 0,
            delayed: 0,
            total_delay: SimDuration::ZERO,
        }
    }

    /// The enforced contract.
    pub fn contract(&self) -> &TokenBucket {
        &self.contract
    }

    /// Computes the earliest conformant release instant for `amount`
    /// items requested at `now`, consumes the tokens, and updates the
    /// shaper statistics. Returns `None` if `amount` exceeds the burst
    /// (can never be released at once).
    ///
    /// # Panics
    ///
    /// Panics if time moves backwards across calls.
    pub fn release_time(&mut self, now: SimTime, amount: f64) -> Option<SimTime> {
        let t = self.state.earliest_send(now.as_ns(), amount)?;
        // Round *up* to the integer-picosecond grid: rounding to nearest
        // could release half a picosecond early and breach the contract.
        let release = SimTime::from_ps((t * 1000.0).ceil() as u64).max(now);
        assert!(
            self.state
                .try_consume(release.as_ns().max(now.as_ns()), amount),
            "tokens available at computed release time"
        );
        self.shaped += 1;
        if release > now {
            self.delayed += 1;
            self.total_delay += release - now;
        }
        Some(release)
    }

    /// Whether `amount` would be conformant right now (without consuming).
    pub fn would_conform(&mut self, now: SimTime, amount: f64) -> bool {
        self.state.conforms(now.as_ns(), amount)
    }

    /// Replaces the contract (e.g. on a Resource-Manager mode change),
    /// starting from a full bucket at `now`.
    pub fn reconfigure(&mut self, now: SimTime, contract: TokenBucket) {
        self.contract = contract;
        let mut s = BucketState::new(contract);
        s.reset(now.as_ns());
        self.state = s;
    }

    /// Items shaped so far.
    pub fn shaped(&self) -> u64 {
        self.shaped
    }

    /// Items that had to wait.
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    /// Cumulative shaping delay.
    pub fn total_delay(&self) -> SimDuration {
        self.total_delay
    }

    /// Mean shaping delay per item (zero when nothing was shaped).
    pub fn mean_delay(&self) -> SimDuration {
        if self.shaped == 0 {
            SimDuration::ZERO
        } else {
            self.total_delay / self.shaped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_passes_immediately() {
        let mut s = TrafficShaper::new(TokenBucket::new(8.0, 0.1));
        for _ in 0..8 {
            assert_eq!(s.release_time(SimTime::ZERO, 1.0), Some(SimTime::ZERO));
        }
        assert_eq!(s.shaped(), 8);
        assert_eq!(s.delayed(), 0);
        assert_eq!(s.mean_delay(), SimDuration::ZERO);
    }

    #[test]
    fn sustained_rate_enforced() {
        let mut s = TrafficShaper::new(TokenBucket::new(1.0, 0.01));
        let t0 = s.release_time(SimTime::ZERO, 1.0).expect("fits burst");
        let t1 = s.release_time(SimTime::ZERO, 1.0).expect("fits burst");
        assert_eq!(t0, SimTime::ZERO);
        assert_eq!(t1, SimTime::from_ns(100.0));
        assert_eq!(s.delayed(), 1);
        assert_eq!(s.total_delay(), SimDuration::from_ns(100.0));
    }

    #[test]
    fn oversized_amount_rejected() {
        let mut s = TrafficShaper::new(TokenBucket::new(2.0, 1.0));
        assert_eq!(s.release_time(SimTime::ZERO, 3.0), None);
    }

    #[test]
    fn would_conform_does_not_consume() {
        let mut s = TrafficShaper::new(TokenBucket::new(1.0, 0.0));
        assert!(s.would_conform(SimTime::ZERO, 1.0));
        assert!(s.would_conform(SimTime::ZERO, 1.0));
        assert_eq!(s.release_time(SimTime::ZERO, 1.0), Some(SimTime::ZERO));
        assert!(!s.would_conform(SimTime::ZERO, 1.0));
    }

    #[test]
    fn shaped_stream_is_contract_conformant() {
        use autoplat_netcalc::conformance::first_violation;
        let contract = TokenBucket::new(3.0, 0.05);
        let mut s = TrafficShaper::new(contract);
        let mut trace = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let rel = s.release_time(now, 1.0).expect("unit items fit");
            trace.push((rel.as_ns(), 1.0));
            now = rel;
        }
        assert_eq!(first_violation(&contract, &trace), None);
    }

    #[test]
    fn reconfigure_resets_bucket() {
        let mut s = TrafficShaper::new(TokenBucket::new(1.0, 0.001));
        let _ = s.release_time(SimTime::ZERO, 1.0);
        s.reconfigure(SimTime::from_ns(10.0), TokenBucket::new(2.0, 0.5));
        assert_eq!(s.contract().burst(), 2.0);
        assert_eq!(
            s.release_time(SimTime::from_ns(10.0), 2.0),
            Some(SimTime::from_ns(10.0))
        );
    }

    #[test]
    fn mean_delay_accumulates() {
        let mut s = TrafficShaper::new(TokenBucket::new(1.0, 0.01));
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            now = s.release_time(now, 1.0).expect("fits");
        }
        assert!(s.mean_delay() > SimDuration::ZERO);
        assert_eq!(s.delayed(), 4);
    }
}
