//! Deterministic time-ordered event queue.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO tie-breaking), which keeps simulations reproducible
//! regardless of container-internal ordering.
//!
//! [`EventQueue`] is a binary min-heap on the key `(time, seq)`, where
//! `seq` is a per-queue counter stamped on every [`schedule`]. Keys are
//! unique, so the pop order is a total order fixed by the schedule alone:
//! nondecreasing time, and within one instant the order of scheduling.
//!
//! A heap suits the populations the workspace's engines actually hold.
//! Counted at every delivery (seed 1), no queue of the `small_qos`
//! co-sim, the smoke campaign grid or the scheduling ablation held more
//! than 65 events (means 10–15; the scheduling ablation: mean 11, max
//! 40). Many engines are also short-lived: one pass over the paper's figures builds 615
//! scheduling engines, each delivering about 1,000 events. At those sizes
//! a push or pop costs a few comparisons, the heap allocates only when
//! its population reaches a new high, and an empty queue costs nothing to
//! build, so a fresh engine pays for the events it holds and no more.
//!
//! [`schedule`]: EventQueue::schedule

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event: fire time, insertion sequence number, payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The total-order key. `seq` is unique, so keys never collide.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // tie, the first-scheduled) event is on top.
        other.key().cmp(&self.key())
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use autoplat_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(3.0), "late");
/// q.schedule(SimTime::from_ns(1.0), "early");
/// q.schedule(SimTime::from_ns(1.0), "early-second");
///
/// assert_eq!(q.pop().map(|(_, e)| e), Some("early"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("early-second"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue. It allocates nothing until the first
    /// [`schedule`](Self::schedule).
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Removes and returns the next event *only if* it fires exactly at
    /// `at`. This is the batching primitive: after one
    /// [`peek_time`](Self::peek_time), a caller drains the whole
    /// same-timestamp batch with repeated `pop_if_at` calls. Each call is
    /// one peek plus at most one O(log n) pop.
    pub fn pop_if_at(&mut self, at: SimTime) -> Option<E> {
        if self.heap.peek()?.at != at {
            return None;
        }
        self.heap.pop().map(|e| e.event)
    }

    /// The fire time of the earliest pending event, if any. O(1).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The sequence number the next [`schedule`](Self::schedule) will use.
    /// Strictly monotonic over the queue's lifetime, also across spells in
    /// which the queue drains.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5.0), 5);
        q.schedule(SimTime::from_ns(1.0), 1);
        q.schedule(SimTime::from_ns(3.0), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(7.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(2.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10.0), "c");
        q.schedule(SimTime::from_ns(1.0), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        q.schedule(SimTime::from_ns(5.0), "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
    }

    #[test]
    fn far_future_events_pop_after_near_ones() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(1_000_000.0), "far-b");
        q.schedule(SimTime::from_ns(1.0), "near");
        q.schedule(SimTime::from_us(999_999.0), "far-a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far-a"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far-b"));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_ties_keep_fifo_order() {
        let mut q = EventQueue::new();
        let far = SimTime::from_us(5_000.0);
        q.schedule(SimTime::ZERO, -1);
        for i in 0..50 {
            q.schedule(far, i);
        }
        assert_eq!(q.pop().map(|(_, e)| e), Some(-1));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn insert_behind_cursor_pops_first() {
        // A schedule behind the cursor, the time of the last pop (legal
        // for the queue; only the Engine forbids past scheduling), must
        // still pop before the remaining t=200ns.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(100.0), "first");
        q.schedule(SimTime::from_ns(200.0), "last");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
        q.schedule(SimTime::from_ns(5.0), "early");
        assert_eq!(q.pop().map(|(_, e)| e), Some("early"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("last"));
    }

    #[test]
    fn pop_if_at_drains_exactly_one_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(3.0);
        q.schedule(t, 0);
        q.schedule(t, 1);
        q.schedule(SimTime::from_ns(4.0), 2);
        assert_eq!(q.pop_if_at(t), Some(0));
        assert_eq!(q.pop_if_at(t), Some(1));
        assert_eq!(q.pop_if_at(t), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_if_at(SimTime::from_ns(4.0)), Some(2));
        assert!(q.is_empty());
        assert_eq!(q.pop_if_at(t), None);
    }
}
