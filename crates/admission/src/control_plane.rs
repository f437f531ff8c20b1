//! A lossy, latency-modelled control plane between the RM and clients —
//! and, generically, between any two control endpoints.
//!
//! The instantaneous simulation path pretends control messages arrive the
//! moment they are logged. Under fault injection this module carries each
//! payload explicitly: every send is submitted to an
//! `autoplat_sim::FaultInjector`, which may deliver it after the nominal
//! latency, drop it, delay it further, or duplicate it. Deliveries come
//! back out of [`Link::drain_due`] in deterministic `(cycle, send order)`
//! order, so a scenario with the same fault seed replays bit-identically.
//!
//! The link is generic over its payload: [`ControlPlane`] carries
//! per-client [`Envelope`]s (classed by `ControlMessage::name`), and
//! [`BundlePlane`] carries the hierarchical [`BundleFrame`]s (classed
//! `bundleMsg`/`grantMsg`), so the exact same fault model — including
//! scripted `drop_nth`/`delay_nth`/`duplicate_nth` per class — governs
//! both layers of the control hierarchy.

use std::collections::VecDeque;

use autoplat_sim::{FaultInjector, FaultPlan, MessageFault};

use crate::protocol::{BundleFrame, Envelope};

/// A payload the lossy link can carry: anything cloneable (for duplicate
/// faults) with a fault-injection class name.
pub trait Payload: Clone {
    /// The class the fault injector keys scripted and probabilistic
    /// message faults on.
    fn class(&self) -> &'static str;
}

impl Payload for Envelope {
    fn class(&self) -> &'static str {
        self.message.name()
    }
}

impl Payload for BundleFrame {
    fn class(&self) -> &'static str {
        BundleFrame::class(self)
    }
}

/// Inserts `(cycle, value)` into `queue`, which is sorted by cycle,
/// behind every entry at or before `cycle`, so entries of one cycle stay
/// in insertion order. The position is found from the back: a cycle at
/// or after the last one appends, and a later one passes only the
/// entries due after it, which the insert moves anyway.
pub(crate) fn insert_in_order<V>(queue: &mut VecDeque<(u64, V)>, cycle: u64, value: V) {
    let later = queue.iter().rev().take_while(|&&(c, _)| c > cycle).count();
    queue.insert(queue.len() - later, (cycle, value));
}

/// The per-client control plane: a [`Link`] of [`Envelope`]s.
pub type ControlPlane = Link<Envelope>;

/// The hierarchical control plane: a [`Link`] of [`BundleFrame`]s.
pub type BundlePlane = Link<BundleFrame>;

/// The in-flight control-message network: one fault injector in front
/// of a queue of messages sorted by delivery cycle, in send order within
/// a cycle.
///
/// # Examples
///
/// ```
/// use autoplat_admission::control_plane::ControlPlane;
/// use autoplat_admission::protocol::{ControlMessage, Endpoint, Envelope};
/// use autoplat_admission::AppId;
/// use autoplat_sim::FaultPlan;
///
/// let mut cp = ControlPlane::new(FaultPlan::none(), 7, 100);
/// cp.send(0, Envelope {
///     from: Endpoint::Rm,
///     to: Endpoint::Client(AppId(0)),
///     seq: 0,
///     sent_at_cycle: 0,
///     message: ControlMessage::Stop { app: AppId(0) },
/// });
/// assert_eq!(cp.next_delivery_cycle(), Some(100));
/// assert_eq!(cp.take_due(100).len(), 1);
/// assert!(cp.is_empty());
/// ```
#[derive(Debug)]
pub struct Link<T> {
    injector: FaultInjector,
    latency_cycles: u64,
    /// In-flight messages as `(deliver_cycle, payload)`, sorted by
    /// delivery cycle and in send order within a cycle: the queue order
    /// *is* the delivery order, deterministic for a given seed. The
    /// latency is constant and senders' cycles never decrease, so an
    /// undelayed send appends; a delayed or duplicated copy is inserted
    /// after every entry due at or before its cycle, moving only the
    /// messages due after it. Due messages are popped off the front, so
    /// a drain allocates nothing.
    in_flight: VecDeque<(u64, T)>,
    sent: u64,
    dropped: u64,
    delayed: u64,
    duplicated: u64,
}

impl<T: Payload> Link<T> {
    /// Creates a link with the given fault plan, fault seed and nominal
    /// one-way latency in cycles.
    pub fn new(plan: FaultPlan, seed: u64, latency_cycles: u64) -> Self {
        Link {
            injector: FaultInjector::new(plan, seed),
            latency_cycles,
            in_flight: VecDeque::new(),
            sent: 0,
            dropped: 0,
            delayed: 0,
            duplicated: 0,
        }
    }

    /// The fault injector (for its fault bookkeeping).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Submits `payload` at `now_cycle`; the injector decides its fate.
    pub fn send(&mut self, now_cycle: u64, payload: T) {
        self.sent += 1;
        match self.injector.on_message(now_cycle, payload.class()) {
            MessageFault::Deliver => {
                self.enqueue(now_cycle + self.latency_cycles, payload);
            }
            MessageFault::Drop => {
                self.dropped += 1;
            }
            MessageFault::Delay(extra) => {
                self.delayed += 1;
                self.enqueue(now_cycle + self.latency_cycles + extra, payload);
            }
            MessageFault::Duplicate(extra) => {
                self.duplicated += 1;
                self.enqueue(now_cycle + self.latency_cycles, payload.clone());
                self.enqueue(now_cycle + self.latency_cycles + extra, payload);
            }
        }
    }

    fn enqueue(&mut self, deliver_cycle: u64, payload: T) {
        insert_in_order(&mut self.in_flight, deliver_cycle, payload);
    }

    /// The earliest pending delivery, if any.
    pub fn next_delivery_cycle(&self) -> Option<u64> {
        self.in_flight.front().map(|&(cycle, _)| cycle)
    }

    /// Moves every payload due at or before `now_cycle` to the end of
    /// `out`, in deterministic delivery order. Callers that drain every
    /// kick keep `out` and clear it, so draining allocates nothing.
    pub fn drain_due(&mut self, now_cycle: u64, out: &mut Vec<T>) {
        let due = self
            .in_flight
            .iter()
            .take_while(|&&(cycle, _)| cycle <= now_cycle)
            .count();
        out.extend(self.in_flight.drain(..due).map(|(_, payload)| payload));
    }

    /// Removes and returns every payload due at or before `now_cycle`,
    /// in deterministic delivery order: [`drain_due`](Self::drain_due)
    /// into a fresh `Vec`.
    pub fn take_due(&mut self, now_cycle: u64) -> Vec<T> {
        let mut due = Vec::new();
        self.drain_due(now_cycle, &mut due);
        due
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Messages submitted.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages the injector destroyed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages delivered late.
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    /// Messages delivered twice.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// The cycle of the most recent injected fault of any kind.
    pub fn last_fault_cycle(&self) -> Option<u64> {
        self.injector.last_fault_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppId;
    use crate::protocol::{
        BundleItem, ClusterBundle, ClusterId, ControlMessage, Endpoint, GrantDecision, RootBundle,
    };

    fn stop(app: u32) -> Envelope {
        Envelope {
            from: Endpoint::Rm,
            to: Endpoint::Client(AppId(app)),
            seq: 0,
            sent_at_cycle: 0,
            message: ControlMessage::Stop { app: AppId(app) },
        }
    }

    #[test]
    fn fifo_among_same_cycle_deliveries() {
        let mut cp = ControlPlane::new(FaultPlan::none(), 1, 10);
        cp.send(0, stop(0));
        cp.send(0, stop(1));
        cp.send(0, stop(2));
        let due = cp.take_due(10);
        let apps: Vec<u32> = due.iter().map(|e| e.message.app().0).collect();
        assert_eq!(apps, vec![0, 1, 2]);
        assert!(cp.take_due(10_000).is_empty());
    }

    #[test]
    fn drain_due_appends_in_delivery_order_and_leaves_later_messages() {
        let plan = FaultPlan::new().delay_nth("stopMsg", 1, 5);
        let mut cp = ControlPlane::new(plan, 1, 10);
        cp.send(0, stop(0));
        cp.send(0, stop(1)); // delayed to 15
        cp.send(3, stop(2));
        let mut out = vec![stop(9)];
        cp.drain_due(9, &mut out);
        assert_eq!(out.len(), 1, "nothing due before cycle 10");
        cp.drain_due(14, &mut out);
        let apps: Vec<u32> = out.iter().map(|e| e.message.app().0).collect();
        assert_eq!(apps, vec![9, 0, 2], "appended after what was there");
        assert_eq!(cp.next_delivery_cycle(), Some(15));
        out.clear();
        cp.drain_due(15, &mut out);
        assert_eq!(out.len(), 1);
        assert!(cp.is_empty());
    }

    #[test]
    fn scripted_drop_loses_exactly_that_message() {
        let plan = FaultPlan::new().drop_nth("stopMsg", 1);
        let mut cp = ControlPlane::new(plan, 1, 10);
        cp.send(0, stop(0));
        cp.send(0, stop(1)); // dropped
        cp.send(0, stop(2));
        assert_eq!(cp.dropped(), 1);
        let apps: Vec<u32> = cp.take_due(10).iter().map(|e| e.message.app().0).collect();
        assert_eq!(apps, vec![0, 2]);
        assert_eq!(cp.last_fault_cycle(), Some(0));
    }

    #[test]
    fn duplicate_delivers_twice() {
        let plan = FaultPlan::new().duplicate_nth("stopMsg", 0, 25);
        let mut cp = ControlPlane::new(plan, 1, 10);
        cp.send(0, stop(0));
        assert_eq!(cp.duplicated(), 1);
        assert_eq!(cp.take_due(10).len(), 1);
        assert_eq!(cp.next_delivery_cycle(), Some(35));
        assert_eq!(cp.take_due(35).len(), 1);
        assert!(cp.is_empty());
    }

    #[test]
    fn delay_shifts_delivery() {
        let plan = FaultPlan::new().delay_nth("stopMsg", 0, 40);
        let mut cp = ControlPlane::new(plan, 1, 10);
        cp.send(0, stop(0));
        assert_eq!(cp.delayed(), 1);
        assert!(cp.take_due(49).is_empty());
        assert_eq!(cp.take_due(50).len(), 1);
    }

    #[test]
    fn same_seed_same_fate() {
        let run = |seed: u64| -> (u64, u64, Vec<(u64, u32)>) {
            let plan = FaultPlan::new()
                .drop_probability(0.3)
                .delay_probability(0.2);
            let mut cp = ControlPlane::new(plan, seed, 10);
            for i in 0..50 {
                cp.send(i, stop(i as u32));
            }
            let mut deliveries = Vec::new();
            while let Some(next) = cp.next_delivery_cycle() {
                for e in cp.take_due(next) {
                    deliveries.push((next, e.message.app().0));
                }
            }
            (cp.dropped(), cp.delayed(), deliveries)
        };
        assert_eq!(run(42), run(42), "same seed, same fate");
        assert_ne!(run(42).2, run(43).2, "different seed, different fate");
    }

    fn up(seq: u64) -> BundleFrame {
        BundleFrame::Up(ClusterBundle {
            cluster: ClusterId(0),
            seq,
            sent_at_cycle: 0,
            live_clients: 1,
            items: vec![BundleItem::Request {
                app: AppId(0),
                rate_milli: 10,
            }],
        })
    }

    #[test]
    fn bundle_plane_shares_the_fault_model() {
        // Scripted faults key on the frame class exactly like envelopes.
        let plan = FaultPlan::new()
            .drop_nth("bundleMsg", 1)
            .duplicate_nth("grantMsg", 0, 30);
        let mut bp = BundlePlane::new(plan, 9, 10);
        bp.send(0, up(0));
        bp.send(0, up(1)); // dropped
        bp.send(
            0,
            BundleFrame::Down(RootBundle {
                to: ClusterId(0),
                seq: 0,
                sent_at_cycle: 0,
                ack_of: Some(0),
                decisions: vec![GrantDecision::Granted {
                    app: AppId(0),
                    rate_milli: 10,
                }],
            }),
        ); // duplicated
        assert_eq!(bp.dropped(), 1);
        assert_eq!(bp.duplicated(), 1);
        let due = bp.take_due(10);
        assert_eq!(due.len(), 2, "one up-bundle survives plus first grant copy");
        assert!(matches!(
            due[0],
            BundleFrame::Up(ClusterBundle { seq: 0, .. })
        ));
        assert_eq!(bp.next_delivery_cycle(), Some(40));
        assert_eq!(bp.take_due(40).len(), 1, "the duplicate grant copy");
        assert!(bp.is_empty());
    }

    #[test]
    fn bundle_plane_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::new()
                .drop_probability(0.25)
                .delay_probability(0.25)
                .max_delay_cycles(17);
            let mut bp = BundlePlane::new(plan, seed, 10);
            for i in 0..40 {
                bp.send(i, up(i));
            }
            let mut order = Vec::new();
            while let Some(next) = bp.next_delivery_cycle() {
                for f in bp.take_due(next) {
                    if let BundleFrame::Up(b) = f {
                        order.push((next, b.seq));
                    }
                }
            }
            order
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
