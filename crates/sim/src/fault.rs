//! Seeded, deterministic fault injection for control-plane simulations.
//!
//! Automotive admission control is only viable if the §V protocol survives
//! a lossy control plane and misbehaving clients. This module provides the
//! *fault model*: a [`FaultPlan`] describes which faults occur — scripted
//! ("drop the 1st `confMsg`") or probabilistic ("1% of messages are lost")
//! — and a [`FaultInjector`] executes the plan reproducibly from a `u64`
//! seed, emitting [`TraceEntry`](crate::TraceEntry) records with `source = "fault"` so tests
//! can assert on exactly what was injected.
//!
//! Message faults are expressed as a verdict on each sent message
//! ([`MessageFault`]): deliver, drop, delay by `n` cycles, or duplicate
//! (deliver twice, the copy delayed). Reordering arises naturally from
//! delaying some messages past their successors; a dedicated reorder
//! probability applies a short randomized delay for exactly that purpose.
//! Client faults ([`ClientFault`]) crash a node permanently or hang it for
//! a window of cycles.
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
use crate::time::SimTime;
use crate::trace::Trace;

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
    /// The client at `node` freezes at `at_cycle` for `for_cycles`: incoming
    /// messages queue unprocessed and no heartbeats are emitted until it
    /// wakes.
    Hang {
        /// The faulted node.
        node: u32,
        /// When the hang starts.
        at_cycle: u64,
        /// How long it lasts.
        for_cycles: u64,
    },
}

impl ClientFault {
    /// The cycle at which the fault takes effect.
    pub fn at_cycle(&self) -> u64 {
        match self {
            ClientFault::Crash { at_cycle, .. } | ClientFault::Hang { at_cycle, .. } => *at_cycle,
        }
    }

    /// The node the fault targets.
    pub fn node(&self) -> u32 {
        match self {
            ClientFault::Crash { node, .. } | ClientFault::Hang { node, .. } => *node,
        }
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

/// What a scripted sensor fault does to a matching reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorFaultKind {
    /// Replace the reading with a fixed value.
    StuckAt(u64),
    /// Repeat the previous reading for a window of occurrences.
    Freeze {
        /// Consecutive readings (starting at the scripted occurrence)
        /// that stay frozen.
        for_readings: u64,
    },
    /// Multiply the reading by the given factor.
    Spike(u64),
    /// Lose the capture message.
    Drop,
}

/// One scripted sensor fault: applies to the `occurrence`-th reading
/// (0-based) of sensor `class` (a [`SensorFaultKind::Freeze`] extends
/// over a window of occurrences).
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedSensorFault {
    /// Sensor class the script matches (e.g. `"cosim.sensor.bw0"`).
    pub class: String,
    /// First faulted occurrence of that class (0 = the first reading).
    pub occurrence: u64,
    /// What happens to it.
    pub fault: SensorFaultKind,
}

impl ScriptedSensorFault {
    fn matches(&self, class: &str, occurrence: u64) -> bool {
        if self.class != class {
            return false;
        }
        match self.fault {
            SensorFaultKind::Freeze { for_readings } => {
                occurrence >= self.occurrence
                    && occurrence < self.occurrence.saturating_add(for_readings)
            }
            _ => occurrence == self.occurrence,
        }
    }
}

/// A complete, declarative fault plan: scripted message faults, scripted
/// client faults, and background probabilistic noise.
///
/// All probabilities are per-message and resolved from the injector's seed,
/// so a plan plus a seed fully determines every injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    scripted: Vec<ScriptedMessageFault>,
    client_faults: Vec<ClientFault>,
    drop_p: f64,
    duplicate_p: f64,
    delay_p: f64,
    reorder_p: f64,
    max_delay_cycles: u64,
    sensor_scripted: Vec<ScriptedSensorFault>,
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
            reorder_p: 0.0,
            max_delay_cycles: 64,
            sensor_scripted: Vec::new(),
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
            || self.reorder_p > 0.0
            || self.sensor_active()
    }

    /// True when the plan can corrupt sensor readings.
    pub fn sensor_active(&self) -> bool {
        !self.sensor_scripted.is_empty()
            || self.sensor_drop_p > 0.0
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

    /// Hangs the client at `node` for `for_cycles` starting at `at_cycle`.
    pub fn hang_client(mut self, node: u32, at_cycle: u64, for_cycles: u64) -> Self {
        self.client_faults.push(ClientFault::Hang {
            node,
            at_cycle,
            for_cycles,
        });
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

    /// Every message is independently pushed behind its successors with
    /// probability `p` (a short randomized delay; reordering is delay-based).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn reorder_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]: {p}");
        self.reorder_p = p;
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

    /// The scripted client faults, in script order.
    pub fn client_faults(&self) -> &[ClientFault] {
        &self.client_faults
    }

    // --- sensor faults -------------------------------------------------

    /// Sticks the `occurrence`-th (0-based) reading of sensor `class` at
    /// a fixed `value`.
    pub fn stuck_sensor_nth(
        mut self,
        class: impl Into<String>,
        occurrence: u64,
        value: u64,
    ) -> Self {
        self.sensor_scripted.push(ScriptedSensorFault {
            class: class.into(),
            occurrence,
            fault: SensorFaultKind::StuckAt(value),
        });
        self
    }

    /// Freezes sensor `class` for `for_readings` readings starting at the
    /// `occurrence`-th: each frozen reading repeats the previous one.
    pub fn freeze_sensor_from(
        mut self,
        class: impl Into<String>,
        occurrence: u64,
        for_readings: u64,
    ) -> Self {
        self.sensor_scripted.push(ScriptedSensorFault {
            class: class.into(),
            occurrence,
            fault: SensorFaultKind::Freeze { for_readings },
        });
        self
    }

    /// Spikes the `occurrence`-th (0-based) reading of sensor `class`
    /// upward by `factor`.
    pub fn spike_sensor_nth(
        mut self,
        class: impl Into<String>,
        occurrence: u64,
        factor: u64,
    ) -> Self {
        self.sensor_scripted.push(ScriptedSensorFault {
            class: class.into(),
            occurrence,
            fault: SensorFaultKind::Spike(factor),
        });
        self
    }

    /// Drops the `occurrence`-th (0-based) capture message of sensor
    /// `class`.
    pub fn drop_capture_nth(mut self, class: impl Into<String>, occurrence: u64) -> Self {
        self.sensor_scripted.push(ScriptedSensorFault {
            class: class.into(),
            occurrence,
            fault: SensorFaultKind::Drop,
        });
        self
    }

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
/// the scripted faults, and a [`Trace`] of every injected fault
/// (`source = "fault"`, tags `drop` / `delay` / `duplicate` / `crash` /
/// `hang`, value = the affected cycle or delay).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    /// Occurrence counters, keyed by position in an ordered class list so
    /// behaviour does not depend on hash order.
    seen: Vec<(String, u64)>,
    /// Reading counters per sensor class (independent of message classes).
    sensor_seen: Vec<(String, u64)>,
    /// Last reading delivered per sensor class, for freeze faults.
    last_readings: Vec<(String, u64)>,
    trace: Trace,
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
            sensor_seen: Vec::new(),
            last_readings: Vec::new(),
            trace: Trace::enabled(),
            injected: 0,
            last_fault_cycle: None,
            pending_client_faults: pending,
            plan,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
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
            let fault = scripted.fault;
            self.record_message_fault(now_cycle, class, fault);
            return fault;
        }
        // Probabilistic noise. Draw order is fixed so verdicts depend only
        // on the seed and the message sequence.
        if self.plan.drop_p > 0.0 && self.rng.gen_bool(self.plan.drop_p) {
            self.record_message_fault(now_cycle, class, MessageFault::Drop);
            return MessageFault::Drop;
        }
        if self.plan.duplicate_p > 0.0 && self.rng.gen_bool(self.plan.duplicate_p) {
            let lag = self.rng.gen_range(1..=self.plan.max_delay_cycles);
            let fault = MessageFault::Duplicate(lag);
            self.record_message_fault(now_cycle, class, fault);
            return fault;
        }
        if self.plan.delay_p > 0.0 && self.rng.gen_bool(self.plan.delay_p) {
            let lag = self.rng.gen_range(1..=self.plan.max_delay_cycles);
            let fault = MessageFault::Delay(lag);
            self.record_message_fault(now_cycle, class, fault);
            return fault;
        }
        if self.plan.reorder_p > 0.0 && self.rng.gen_bool(self.plan.reorder_p) {
            // Short delay: just enough to land behind the next few sends.
            let lag = self
                .rng
                .gen_range(1..=self.plan.max_delay_cycles.clamp(1, 8));
            let fault = MessageFault::Delay(lag);
            self.record_message_fault(now_cycle, class, fault);
            return fault;
        }
        MessageFault::Deliver
    }

    /// Decides the fate of a sensor reading of `class` captured at
    /// `now_cycle`, returning the value the consumer sees (`None` when
    /// the capture message is dropped).
    ///
    /// Scripted sensor faults take precedence over probabilistic ones;
    /// the probabilistic draw order is fixed (drop, stuck, freeze,
    /// spike) so verdicts depend only on the seed and the call sequence.
    pub fn on_reading(&mut self, now_cycle: u64, class: &str, value: u64) -> Option<u64> {
        if !self.plan.sensor_active() {
            self.remember_reading(class, value);
            return Some(value);
        }
        let occurrence = self.bump_sensor_occurrence(class);
        let verdict = self.sensor_verdict(class, occurrence);
        let delivered = match verdict {
            SensorFault::Accurate => Some(value),
            SensorFault::StuckAt(v) => Some(v),
            SensorFault::Frozen => Some(self.last_reading(class).unwrap_or(value)),
            SensorFault::Spike(factor) => Some(value.saturating_mul(factor).max(factor)),
            SensorFault::Dropped => None,
        };
        self.record_sensor_fault(now_cycle, class, verdict, delivered);
        if let Some(v) = delivered {
            self.remember_reading(class, v);
        }
        delivered
    }

    fn sensor_verdict(&mut self, class: &str, occurrence: u64) -> SensorFault {
        if let Some(scripted) = self
            .plan
            .sensor_scripted
            .iter()
            .find(|s| s.matches(class, occurrence))
        {
            return match scripted.fault {
                SensorFaultKind::StuckAt(v) => SensorFault::StuckAt(v),
                SensorFaultKind::Freeze { .. } => SensorFault::Frozen,
                SensorFaultKind::Spike(f) => SensorFault::Spike(f),
                SensorFaultKind::Drop => SensorFault::Dropped,
            };
        }
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

    fn record_sensor_fault(
        &mut self,
        now_cycle: u64,
        class: &str,
        verdict: SensorFault,
        delivered: Option<u64>,
    ) {
        let (tag, value) = match verdict {
            SensorFault::Accurate => return,
            SensorFault::StuckAt(v) => ("sensor_stuck", Some(v as i64)),
            SensorFault::Frozen => ("sensor_freeze", delivered.map(|v| v as i64)),
            SensorFault::Spike(f) => ("sensor_spike", Some(f as i64)),
            SensorFault::Dropped => ("sensor_drop", None),
        };
        self.trace.record(
            SimTime::from_ps(now_cycle),
            "fault",
            format!("{tag}:{class}"),
            value,
        );
        self.injected += 1;
        self.last_fault_cycle = Some(self.last_fault_cycle.unwrap_or(0).max(now_cycle));
    }

    /// Client faults due at or before `now_cycle`, removed from the plan.
    /// The driver applies them in the returned (cycle, node) order.
    pub fn take_client_faults_due(&mut self, now_cycle: u64) -> Vec<ClientFault> {
        let split = self
            .pending_client_faults
            .partition_point(|f| f.at_cycle() <= now_cycle);
        let due: Vec<ClientFault> = self.pending_client_faults.drain(..split).collect();
        for fault in &due {
            let (tag, value) = match fault {
                ClientFault::Crash { node, .. } => ("crash", *node as i64),
                ClientFault::Hang { node, .. } => ("hang", *node as i64),
            };
            self.trace.record(
                SimTime::from_ps(fault.at_cycle()),
                "fault",
                tag,
                Some(value),
            );
            self.injected += 1;
            self.last_fault_cycle = Some(self.last_fault_cycle.unwrap_or(0).max(fault.at_cycle()));
        }
        due
    }

    /// The cycle of the next pending client fault, if any.
    pub fn next_client_fault_cycle(&self) -> Option<u64> {
        self.pending_client_faults.first().map(|f| f.at_cycle())
    }

    /// The record of everything injected so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
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

    fn bump_sensor_occurrence(&mut self, class: &str) -> u64 {
        if let Some(entry) = self.sensor_seen.iter_mut().find(|(c, _)| c == class) {
            let occurrence = entry.1;
            entry.1 += 1;
            occurrence
        } else {
            self.sensor_seen.push((class.to_string(), 1));
            0
        }
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

    fn record_message_fault(&mut self, now_cycle: u64, class: &str, fault: MessageFault) {
        let (tag, value) = match fault {
            MessageFault::Deliver => return,
            MessageFault::Drop => ("drop", None),
            MessageFault::Delay(d) => ("delay", Some(d as i64)),
            MessageFault::Duplicate(d) => ("duplicate", Some(d as i64)),
        };
        self.trace.record(
            SimTime::from_ps(now_cycle),
            "fault",
            format!("{tag}:{class}"),
            value,
        );
        self.injected += 1;
        self.last_fault_cycle = Some(self.last_fault_cycle.unwrap_or(0).max(now_cycle));
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
        assert!(inj.trace().entries().is_empty());
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
        assert_eq!(inj.trace().count_tag("drop:confMsg"), 1);
        assert_eq!(inj.last_fault_cycle(), Some(30));
    }

    #[test]
    fn scripted_delay_and_duplicate() {
        let plan = FaultPlan::new()
            .delay_nth("stopMsg", 0, 7)
            .duplicate_nth("actMsg", 0, 3);
        let mut inj = FaultInjector::new(plan, 5);
        assert_eq!(inj.on_message(0, "stopMsg"), MessageFault::Delay(7));
        assert_eq!(inj.on_message(0, "actMsg"), MessageFault::Duplicate(3));
        assert_eq!(inj.trace().count_tag("delay:stopMsg"), 1);
        assert_eq!(inj.trace().count_tag("duplicate:actMsg"), 1);
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
            .hang_client(1, 200, 100);
        let mut inj = FaultInjector::new(plan, 0);
        assert_eq!(inj.next_client_fault_cycle(), Some(200));
        assert_eq!(inj.take_client_faults_due(100), vec![]);
        let due = inj.take_client_faults_due(1000);
        assert_eq!(
            due,
            vec![
                ClientFault::Hang {
                    node: 1,
                    at_cycle: 200,
                    for_cycles: 100
                },
                ClientFault::Crash {
                    node: 3,
                    at_cycle: 500
                },
            ]
        );
        assert_eq!(inj.next_client_fault_cycle(), None);
        assert_eq!(inj.trace().count_tag("crash"), 1);
        assert_eq!(inj.trace().count_tag("hang"), 1);
        assert_eq!(inj.last_fault_cycle(), Some(500));
    }

    #[test]
    fn fault_trace_uses_fault_source() {
        let mut inj = FaultInjector::new(FaultPlan::new().drop_nth("confMsg", 0), 0);
        let _ = inj.on_message(5, "confMsg");
        assert!(inj.trace().entries().iter().all(|e| e.source == "fault"));
    }

    #[test]
    fn healthy_sensor_readings_pass_through() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 1);
        for i in 0..32 {
            assert_eq!(inj.on_reading(i, "bw0", 100 + i), Some(100 + i));
        }
        assert_eq!(inj.injected(), 0);
        assert!(inj.trace().entries().is_empty());
    }

    #[test]
    fn scripted_sensor_faults_hit_exact_occurrences() {
        let plan = FaultPlan::new()
            .stuck_sensor_nth("bw0", 1, 7)
            .drop_capture_nth("bw0", 2)
            .spike_sensor_nth("bw1", 0, 8);
        let mut inj = FaultInjector::new(plan, 3);
        assert_eq!(inj.on_reading(10, "bw0", 100), Some(100));
        assert_eq!(inj.on_reading(20, "bw0", 100), Some(7));
        assert_eq!(inj.on_reading(30, "bw0", 100), None);
        assert_eq!(inj.on_reading(40, "bw0", 100), Some(100));
        assert_eq!(inj.on_reading(40, "bw1", 50), Some(400));
        assert_eq!(inj.trace().count_tag("sensor_stuck:bw0"), 1);
        assert_eq!(inj.trace().count_tag("sensor_drop:bw0"), 1);
        assert_eq!(inj.trace().count_tag("sensor_spike:bw1"), 1);
        assert_eq!(inj.injected(), 3);
        assert_eq!(inj.last_fault_cycle(), Some(40));
    }

    #[test]
    fn frozen_sensor_repeats_last_delivered_reading() {
        let plan = FaultPlan::new().freeze_sensor_from("bw0", 2, 3);
        let mut inj = FaultInjector::new(plan, 9);
        assert_eq!(inj.on_reading(0, "bw0", 10), Some(10));
        assert_eq!(inj.on_reading(1, "bw0", 20), Some(20));
        // Occurrences 2..5 fall in the freeze window: the reading is
        // pinned to the last value delivered before the freeze began.
        assert_eq!(inj.on_reading(2, "bw0", 30), Some(20));
        assert_eq!(inj.on_reading(3, "bw0", 40), Some(20));
        assert_eq!(inj.on_reading(4, "bw0", 50), Some(20));
        assert_eq!(inj.on_reading(5, "bw0", 60), Some(60));
        assert_eq!(inj.trace().count_tag("sensor_freeze:bw0"), 3);
    }

    #[test]
    fn frozen_sensor_with_no_history_passes_through() {
        let plan = FaultPlan::new().freeze_sensor_from("bw0", 0, 1);
        let mut inj = FaultInjector::new(plan, 9);
        assert_eq!(inj.on_reading(0, "bw0", 77), Some(77));
    }

    #[test]
    fn spiked_zero_reading_is_still_visible() {
        let plan = FaultPlan::new().spike_sensor_nth("bw0", 0, 16);
        let mut inj = FaultInjector::new(plan, 2);
        assert_eq!(inj.on_reading(0, "bw0", 0), Some(16));
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
    fn reorder_probability_rejects_nan() {
        let _ = FaultPlan::new().reorder_probability(f64::NAN);
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
