//! Seeded, deterministic fault injection for control-plane simulations.
//!
//! Automotive admission control is only viable if the §V protocol survives
//! a lossy control plane and misbehaving clients. This module provides the
//! *fault model*: a [`FaultPlan`] describes which faults occur — scripted
//! ("drop the 1st `confMsg`") or probabilistic ("1% of messages are lost")
//! — and a [`FaultInjector`] executes the plan reproducibly from a `u64`
//! seed, counting what it injected and when it last did.
//!
//! Message faults are expressed as a verdict on each sent message
//! ([`MessageFault`]): deliver, drop, delay by `n` cycles, or duplicate
//! (deliver twice, the copy delayed). Reordering arises naturally from
//! delaying some messages past their successors. Client faults
//! ([`ClientFault`]) crash a node permanently; sensor faults
//! ([`SensorFault`]) corrupt or lose monitor readings.
//!
//! # Examples
//!
//! ```
//! use autoplat_sim::fault::{FaultInjector, FaultPlan, MessageFault};
//!
//! // Deterministic: same seed, same verdicts.
//! let plan = FaultPlan::new().drop_probability(0.5);
//! let verdicts = |seed| {
//!     let mut inj = FaultInjector::new(FaultPlan::new().drop_probability(0.5), seed);
//!     (0..16).map(|i| inj.on_message(i, "confMsg")).collect::<Vec<_>>()
//! };
//! assert_eq!(verdicts(7), verdicts(7));
//! assert!(plan.is_active());
//! assert!(!FaultPlan::none().is_active());
//! ```

use crate::rng::SimRng;

/// The verdict of the injector on one sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFault {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Deliver late by the given number of cycles.
    Delay(u64),
    /// Deliver normally *and* deliver a copy late by the given number of
    /// cycles (tests idempotent receive handling).
    Duplicate(u64),
}

/// A scripted client-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientFault {
    /// The client at `node` dies at `at_cycle` and never recovers: it stops
    /// sending heartbeats, acknowledging, and transmitting.
    Crash {
        /// The faulted node.
        node: u32,
        /// When the crash happens.
        at_cycle: u64,
    },
}

impl ClientFault {
    /// The cycle at which the fault takes effect.
    pub fn at_cycle(&self) -> u64 {
        let ClientFault::Crash { at_cycle, .. } = self;
        *at_cycle
    }

    /// The node the fault targets.
    pub fn node(&self) -> u32 {
        let ClientFault::Crash { node, .. } = self;
        *node
    }
}

/// One scripted message fault: applies to the `occurrence`-th message
/// (0-based) whose class matches `class` (e.g. `"confMsg"`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedMessageFault {
    /// Message class the script matches (`actMsg`, `confMsg`, ...).
    pub class: String,
    /// Which occurrence of that class is faulted (0 = the first).
    pub occurrence: u64,
    /// What happens to it.
    pub fault: MessageFault,
}

/// The verdict of the injector on one sensor reading (a monitor capture
/// on its way to the regulation loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorFault {
    /// The reading arrives unmodified.
    Accurate,
    /// The sensor is stuck: the reading is replaced by a fixed value.
    StuckAt(u64),
    /// The sensor is frozen: the *previous* reading of this class is
    /// repeated (stale data; the first reading of a class has nothing to
    /// repeat and passes through).
    Frozen,
    /// A transient spike: the reading is corrupted upward by the given
    /// multiplier (noisy sensor).
    Spike(u64),
    /// The capture message is lost entirely; the consumer sees no
    /// reading this epoch.
    Dropped,
}

/// A complete, declarative fault plan: scripted message faults, scripted
/// client crashes, and background probabilistic message and sensor noise.
///
/// All probabilities are per message (or per sensor reading) and resolved
/// from the injector's seed, so a plan plus a seed fully determines every
/// injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    scripted: Vec<ScriptedMessageFault>,
    client_faults: Vec<ClientFault>,
    drop_p: f64,
    duplicate_p: f64,
    delay_p: f64,
    max_delay_cycles: u64,
    sensor_drop_p: f64,
    sensor_stuck_p: f64,
    sensor_freeze_p: f64,
    sensor_spike_p: f64,
    sensor_stuck_value: u64,
    sensor_spike_factor: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: every message is delivered, no client faults. The
    /// injector's hot path for this plan is a single branch.
    pub fn none() -> Self {
        FaultPlan {
            scripted: Vec::new(),
            client_faults: Vec::new(),
            drop_p: 0.0,
            duplicate_p: 0.0,
            delay_p: 0.0,
            max_delay_cycles: 64,
            sensor_drop_p: 0.0,
            sensor_stuck_p: 0.0,
            sensor_freeze_p: 0.0,
            sensor_spike_p: 0.0,
            sensor_stuck_value: 0,
            sensor_spike_factor: 16,
        }
    }

    /// An empty plan to be populated with the builder methods.
    pub fn new() -> Self {
        FaultPlan::none()
    }

    /// True when the plan can inject anything.
    pub fn is_active(&self) -> bool {
        !self.scripted.is_empty()
            || !self.client_faults.is_empty()
            || self.drop_p > 0.0
            || self.duplicate_p > 0.0
            || self.delay_p > 0.0
            || self.sensor_active()
    }

    /// True when the plan can corrupt sensor readings.
    pub fn sensor_active(&self) -> bool {
        self.sensor_drop_p > 0.0
            || self.sensor_stuck_p > 0.0
            || self.sensor_freeze_p > 0.0
            || self.sensor_spike_p > 0.0
    }

    /// Drops the `occurrence`-th (0-based) message of `class`.
    pub fn drop_nth(mut self, class: impl Into<String>, occurrence: u64) -> Self {
        self.scripted.push(ScriptedMessageFault {
            class: class.into(),
            occurrence,
            fault: MessageFault::Drop,
        });
        self
    }

    /// Delays the `occurrence`-th (0-based) message of `class` by `cycles`.
    pub fn delay_nth(mut self, class: impl Into<String>, occurrence: u64, cycles: u64) -> Self {
        self.scripted.push(ScriptedMessageFault {
            class: class.into(),
            occurrence,
            fault: MessageFault::Delay(cycles),
        });
        self
    }

    /// Duplicates the `occurrence`-th (0-based) message of `class`, the
    /// copy arriving `cycles` late.
    pub fn duplicate_nth(mut self, class: impl Into<String>, occurrence: u64, cycles: u64) -> Self {
        self.scripted.push(ScriptedMessageFault {
            class: class.into(),
            occurrence,
            fault: MessageFault::Duplicate(cycles),
        });
        self
    }

    /// Crashes the client at `node` at `at_cycle`, permanently.
    pub fn crash_client(mut self, node: u32, at_cycle: u64) -> Self {
        self.client_faults
            .push(ClientFault::Crash { node, at_cycle });
        self
    }

    /// Every message is independently lost with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]: {p}");
        self.drop_p = p;
        self
    }

    /// Every message is independently duplicated with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn duplicate_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]: {p}");
        self.duplicate_p = p;
        self
    }

    /// Every message is independently delayed (by up to
    /// [`max_delay_cycles`](Self::max_delay_cycles)) with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn delay_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]: {p}");
        self.delay_p = p;
        self
    }

    /// Upper bound (inclusive) on probabilistic delays, in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn max_delay_cycles(mut self, cycles: u64) -> Self {
        assert!(cycles > 0, "max delay must be positive");
        self.max_delay_cycles = cycles;
        self
    }

    // --- sensor faults -------------------------------------------------

    /// Every capture message is independently lost with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn sensor_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]: {p}");
        self.sensor_drop_p = p;
        self
    }

    /// Every reading independently sticks at
    /// [`sensor_stuck_value`](Self::sensor_stuck_value) with probability
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn sensor_stuck_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]: {p}");
        self.sensor_stuck_p = p;
        self
    }

    /// Every reading independently repeats its predecessor (stale data)
    /// with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn sensor_freeze_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]: {p}");
        self.sensor_freeze_p = p;
        self
    }

    /// Every reading is independently spiked upward by
    /// [`sensor_spike_factor`](Self::sensor_spike_factor) with
    /// probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn sensor_spike_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]: {p}");
        self.sensor_spike_p = p;
        self
    }

    /// The value probabilistically stuck sensors report.
    pub fn sensor_stuck_value(mut self, value: u64) -> Self {
        self.sensor_stuck_value = value;
        self
    }

    /// The multiplier probabilistic spikes apply.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 2` (a unity spike is not a fault).
    pub fn sensor_spike_factor(mut self, factor: u64) -> Self {
        assert!(factor >= 2, "spike factor must exceed 1");
        self.sensor_spike_factor = factor;
        self
    }
}

/// Executes a [`FaultPlan`] deterministically.
///
/// The injector owns a seeded [`SimRng`], per-class occurrence counters for
/// the scripted faults, and the count and latest cycle of the faults it
/// injected.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    /// Occurrence counters, keyed by position in an ordered class list so
    /// behaviour does not depend on hash order.
    seen: Vec<(String, u64)>,
    /// Last reading delivered per sensor class, for freeze faults.
    last_readings: Vec<(String, u64)>,
    injected: u64,
    last_fault_cycle: Option<u64>,
    /// Client faults not yet handed to the driver, sorted by cycle.
    pending_client_faults: Vec<ClientFault>,
}

impl FaultInjector {
    /// Creates an injector executing `plan` with randomness derived from
    /// `seed` alone.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let mut pending = plan.client_faults.clone();
        pending.sort_by_key(|f| (f.at_cycle(), f.node()));
        FaultInjector {
            rng: SimRng::seed_from(seed),
            seen: Vec::new(),
            last_readings: Vec::new(),
            injected: 0,
            last_fault_cycle: None,
            pending_client_faults: pending,
            plan,
        }
    }

    /// Decides the fate of a message of `class` sent at `now_cycle`.
    ///
    /// Scripted faults take precedence over probabilistic ones; an inactive
    /// plan returns [`MessageFault::Deliver`] after a single branch.
    pub fn on_message(&mut self, now_cycle: u64, class: &str) -> MessageFault {
        if !self.plan.is_active() {
            return MessageFault::Deliver;
        }
        let occurrence = self.bump_occurrence(class);
        if let Some(scripted) = self
            .plan
            .scripted
            .iter()
            .find(|s| s.class == class && s.occurrence == occurrence)
        {
            // `drop_nth`, `delay_nth` and `duplicate_nth` never script `Deliver`.
            let fault = scripted.fault;
            self.record_fault(now_cycle);
            return fault;
        }
        // Probabilistic noise. Draw order is fixed so verdicts depend only
        // on the seed and the message sequence.
        if self.plan.drop_p > 0.0 && self.rng.gen_bool(self.plan.drop_p) {
            self.record_fault(now_cycle);
            return MessageFault::Drop;
        }
        if self.plan.duplicate_p > 0.0 && self.rng.gen_bool(self.plan.duplicate_p) {
            let lag = self.rng.gen_range(1..=self.plan.max_delay_cycles);
            self.record_fault(now_cycle);
            return MessageFault::Duplicate(lag);
        }
        if self.plan.delay_p > 0.0 && self.rng.gen_bool(self.plan.delay_p) {
            let lag = self.rng.gen_range(1..=self.plan.max_delay_cycles);
            self.record_fault(now_cycle);
            return MessageFault::Delay(lag);
        }
        MessageFault::Deliver
    }

    /// Decides the fate of a sensor reading of `class` captured at
    /// `now_cycle`, returning the value the consumer sees (`None` when
    /// the capture message is dropped).
    ///
    /// The draw order is fixed (drop, stuck, freeze, spike) so verdicts
    /// depend only on the seed and the call sequence.
    pub fn on_reading(&mut self, now_cycle: u64, class: &str, value: u64) -> Option<u64> {
        if !self.plan.sensor_active() {
            self.remember_reading(class, value);
            return Some(value);
        }
        let verdict = self.sensor_verdict();
        let delivered = match verdict {
            SensorFault::Accurate => Some(value),
            SensorFault::StuckAt(v) => Some(v),
            SensorFault::Frozen => Some(self.last_reading(class).unwrap_or(value)),
            SensorFault::Spike(factor) => Some(value.saturating_mul(factor).max(factor)),
            SensorFault::Dropped => None,
        };
        if verdict != SensorFault::Accurate {
            self.record_fault(now_cycle);
        }
        if let Some(v) = delivered {
            self.remember_reading(class, v);
        }
        delivered
    }

    fn sensor_verdict(&mut self) -> SensorFault {
        if self.plan.sensor_drop_p > 0.0 && self.rng.gen_bool(self.plan.sensor_drop_p) {
            return SensorFault::Dropped;
        }
        if self.plan.sensor_stuck_p > 0.0 && self.rng.gen_bool(self.plan.sensor_stuck_p) {
            return SensorFault::StuckAt(self.plan.sensor_stuck_value);
        }
        if self.plan.sensor_freeze_p > 0.0 && self.rng.gen_bool(self.plan.sensor_freeze_p) {
            return SensorFault::Frozen;
        }
        if self.plan.sensor_spike_p > 0.0 && self.rng.gen_bool(self.plan.sensor_spike_p) {
            return SensorFault::Spike(self.plan.sensor_spike_factor);
        }
        SensorFault::Accurate
    }

    fn last_reading(&self, class: &str) -> Option<u64> {
        self.last_readings
            .iter()
            .find(|(c, _)| c == class)
            .map(|(_, v)| *v)
    }

    fn remember_reading(&mut self, class: &str, value: u64) {
        if let Some(entry) = self.last_readings.iter_mut().find(|(c, _)| c == class) {
            entry.1 = value;
        } else {
            self.last_readings.push((class.to_string(), value));
        }
    }

    /// Client faults due at or before `now_cycle`, removed from the plan.
    /// The driver applies them in the returned (cycle, node) order.
    pub fn take_client_faults_due(&mut self, now_cycle: u64) -> Vec<ClientFault> {
        let split = self
            .pending_client_faults
            .partition_point(|f| f.at_cycle() <= now_cycle);
        let due: Vec<ClientFault> = self.pending_client_faults.drain(..split).collect();
        for fault in &due {
            self.record_fault(fault.at_cycle());
        }
        due
    }

    /// The cycle of the next pending client fault, if any.
    pub fn next_client_fault_cycle(&self) -> Option<u64> {
        self.pending_client_faults.first().map(|f| f.at_cycle())
    }

    /// Total faults injected (messages + client events).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The cycle of the most recent injected fault, if any — the anchor
    /// for time-to-reconverge measurements.
    pub fn last_fault_cycle(&self) -> Option<u64> {
        self.last_fault_cycle
    }

    fn bump_occurrence(&mut self, class: &str) -> u64 {
        if let Some(entry) = self.seen.iter_mut().find(|(c, _)| c == class) {
            let occurrence = entry.1;
            entry.1 += 1;
            occurrence
        } else {
            self.seen.push((class.to_string(), 1));
            0
        }
    }

    /// Counts one injected fault at `at_cycle`.
    fn record_fault(&mut self, at_cycle: u64) {
        self.injected += 1;
        self.last_fault_cycle = Some(self.last_fault_cycle.unwrap_or(0).max(at_cycle));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_always_delivers() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 1);
        for i in 0..100 {
            assert_eq!(inj.on_message(i, "confMsg"), MessageFault::Deliver);
        }
        assert_eq!(inj.injected(), 0);
        assert_eq!(inj.last_fault_cycle(), None);
    }

    #[test]
    fn scripted_drop_hits_exact_occurrence() {
        let plan = FaultPlan::new().drop_nth("confMsg", 1);
        let mut inj = FaultInjector::new(plan, 99);
        assert_eq!(inj.on_message(10, "confMsg"), MessageFault::Deliver);
        assert_eq!(inj.on_message(20, "actMsg"), MessageFault::Deliver);
        assert_eq!(inj.on_message(30, "confMsg"), MessageFault::Drop);
        assert_eq!(inj.on_message(40, "confMsg"), MessageFault::Deliver);
        assert_eq!(inj.injected(), 1);
        assert_eq!(inj.last_fault_cycle(), Some(30));
    }

    #[test]
    fn scripted_delay_and_duplicate() {
        let plan = FaultPlan::new()
            .delay_nth("stopMsg", 0, 7)
            .duplicate_nth("actMsg", 0, 3);
        let mut inj = FaultInjector::new(plan, 5);
        assert_eq!(inj.on_message(0, "stopMsg"), MessageFault::Delay(7));
        assert_eq!(inj.on_message(4, "actMsg"), MessageFault::Duplicate(3));
        assert_eq!(inj.on_message(9, "stopMsg"), MessageFault::Deliver);
        assert_eq!(inj.on_message(9, "actMsg"), MessageFault::Deliver);
        assert_eq!(inj.injected(), 2);
        assert_eq!(inj.last_fault_cycle(), Some(4));
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let plan = || {
            FaultPlan::new()
                .drop_probability(0.2)
                .duplicate_probability(0.1)
                .delay_probability(0.1)
                .max_delay_cycles(16)
        };
        let run = |seed| {
            let mut inj = FaultInjector::new(plan(), seed);
            (0..256)
                .map(|i| inj.on_message(i, "msg"))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
        let verdicts = run(42);
        assert!(verdicts.contains(&MessageFault::Drop));
        assert!(verdicts.contains(&MessageFault::Deliver));
    }

    #[test]
    fn drop_probability_roughly_respected() {
        let mut inj = FaultInjector::new(FaultPlan::new().drop_probability(0.25), 7);
        let drops = (0..4000)
            .filter(|&i| inj.on_message(i, "m") == MessageFault::Drop)
            .count();
        assert!((800..1200).contains(&drops), "0.25 of 4000 gave {drops}");
    }

    #[test]
    fn client_faults_drain_in_order() {
        let plan = FaultPlan::new()
            .crash_client(3, 500)
            .crash_client(4, 200)
            .crash_client(1, 200);
        let mut inj = FaultInjector::new(plan, 0);
        assert_eq!(inj.next_client_fault_cycle(), Some(200));
        assert_eq!(inj.take_client_faults_due(100), vec![]);
        assert_eq!(inj.injected(), 0);
        let due = inj.take_client_faults_due(1000);
        let crash = |node, at_cycle| ClientFault::Crash { node, at_cycle };
        assert_eq!(due, vec![crash(1, 200), crash(4, 200), crash(3, 500)]);
        assert_eq!(inj.next_client_fault_cycle(), None);
        assert_eq!(inj.injected(), 3);
        assert_eq!(inj.last_fault_cycle(), Some(500));
    }

    #[test]
    fn healthy_sensor_readings_pass_through() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 1);
        for i in 0..32 {
            assert_eq!(inj.on_reading(i, "bw0", 100 + i), Some(100 + i));
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn frozen_sensor_repeats_last_delivered_reading() {
        let plan = FaultPlan::new().sensor_freeze_probability(1.0);
        let mut inj = FaultInjector::new(plan, 9);
        // Every reading is frozen; the first of a class has nothing to
        // repeat, and each later one repeats the last value delivered.
        assert_eq!(inj.on_reading(0, "bw0", 10), Some(10));
        assert_eq!(inj.on_reading(1, "bw0", 20), Some(10));
        assert_eq!(inj.on_reading(2, "bw0", 30), Some(10));
        // Each class keeps its own history.
        assert_eq!(inj.on_reading(3, "bw1", 40), Some(40));
        assert_eq!(inj.on_reading(4, "bw1", 50), Some(40));
        assert_eq!(inj.injected(), 5);
        assert_eq!(inj.last_fault_cycle(), Some(4));
    }

    #[test]
    fn frozen_sensor_with_no_history_passes_through() {
        let plan = FaultPlan::new().sensor_freeze_probability(1.0);
        let mut inj = FaultInjector::new(plan, 9);
        assert_eq!(inj.on_reading(0, "bw0", 77), Some(77));
    }

    #[test]
    fn spiked_zero_reading_is_still_visible() {
        let plan = FaultPlan::new().sensor_spike_probability(1.0);
        let mut inj = FaultInjector::new(plan, 2);
        assert_eq!(inj.on_reading(0, "bw0", 0), Some(16));
        assert_eq!(inj.on_reading(1, "bw0", 3), Some(48));
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn probabilistic_sensor_faults_are_seed_deterministic() {
        let plan = || {
            FaultPlan::new()
                .sensor_drop_probability(0.2)
                .sensor_stuck_probability(0.1)
                .sensor_freeze_probability(0.1)
                .sensor_spike_probability(0.1)
        };
        let run = |seed| {
            let mut inj = FaultInjector::new(plan(), seed);
            (0..256)
                .map(|i| inj.on_reading(i, "bw", 100))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
        let readings = run(42);
        assert!(readings.contains(&None), "drops should occur");
        assert!(readings.contains(&Some(100)), "clean readings should occur");
    }

    #[test]
    fn sensor_drop_storm_drops_everything() {
        let mut inj = FaultInjector::new(FaultPlan::new().sensor_drop_probability(1.0), 4);
        assert!((0..16).all(|i| inj.on_reading(i, "bw", 9).is_none()));
        assert_eq!(inj.injected(), 16);
    }

    #[test]
    #[should_panic(expected = "probability outside [0, 1]")]
    fn drop_probability_rejects_above_one() {
        let _ = FaultPlan::new().drop_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "probability outside [0, 1]")]
    fn drop_probability_rejects_nan() {
        let _ = FaultPlan::new().drop_probability(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "probability outside [0, 1]")]
    fn duplicate_probability_rejects_negative() {
        let _ = FaultPlan::new().duplicate_probability(-0.1);
    }

    #[test]
    #[should_panic(expected = "probability outside [0, 1]")]
    fn delay_probability_rejects_above_one() {
        let _ = FaultPlan::new().delay_probability(2.0);
    }

    #[test]
    #[should_panic(expected = "probability outside [0, 1]")]
    fn sensor_drop_probability_rejects_nan() {
        let _ = FaultPlan::new().sensor_drop_probability(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "probability outside [0, 1]")]
    fn sensor_stuck_probability_rejects_above_one() {
        let _ = FaultPlan::new().sensor_stuck_probability(1.01);
    }

    #[test]
    #[should_panic(expected = "probability outside [0, 1]")]
    fn sensor_freeze_probability_rejects_negative() {
        let _ = FaultPlan::new().sensor_freeze_probability(-0.5);
    }

    #[test]
    #[should_panic(expected = "probability outside [0, 1]")]
    fn sensor_spike_probability_rejects_nan() {
        let _ = FaultPlan::new().sensor_spike_probability(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "max delay must be positive")]
    fn max_delay_cycles_rejects_zero() {
        let _ = FaultPlan::new().max_delay_cycles(0);
    }

    #[test]
    #[should_panic(expected = "spike factor must exceed 1")]
    fn sensor_spike_factor_rejects_one() {
        let _ = FaultPlan::new().sensor_spike_factor(1);
    }
}
