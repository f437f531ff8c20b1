//! Deterministic time-ordered event queue.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO tie-breaking), which keeps simulations reproducible
//! regardless of container-internal ordering.
//!
//! Two implementations share the contract:
//!
//! * [`EventQueue`] — the production queue: a calendar/bucket structure
//!   tuned for the mostly-monotonic access pattern of a discrete-event
//!   simulation. Scheduling into the near future appends into a
//!   pre-allocated ring bucket (no per-event allocation once warm); only
//!   far-future events fall back to a sorted overflow tier.
//! * [`HeapEventQueue`] — the original `BinaryHeap` queue, retained as the
//!   differential-testing reference and the perf baseline every
//!   `BENCH_kernel.json` export compares against.
//!
//! # Calendar structure
//!
//! Time (integer picoseconds) is divided into buckets of `2^shift` ps. A
//! ring of `NUM_BUCKETS` buckets covers the *near window*
//! `[base_bucket, base_bucket + NUM_BUCKETS)` of bucket indices; events
//! beyond it wait in a min-heap overflow tier. Only the bucket under the
//! cursor is ever sorted, and even that lazily: inserts into it just
//! append and set a dirty flag, and the next pop/peek sorts once — so a
//! burst of k out-of-order schedules costs one `O(k log k)` sort, not k
//! sorted insertions. Future buckets collect events unsorted and are
//! sorted when the cursor reaches them. As the cursor advances, overflow
//! events whose bucket enters the window migrate into the ring; when the
//! ring drains entirely, the queue re-centers on the earliest overflow
//! event and re-derives `shift` from the overflow span, so bucket width
//! adapts to event density.
//!
//! A 1024-bit occupancy map beside the ring (one bit per slot, set on
//! every push into a slot, cleared when a pop empties the cursor slot)
//! lets the cursor jump straight to the next occupied slot instead of
//! stepping through empty buckets one by one, so empty simulated time
//! costs a few word scans however sparse the schedule. After the jump,
//! one overflow drain pulls in every entry whose bucket entered the
//! window. The pop order is the same as a bucket-by-bucket walk's: every
//! overflow entry's bucket lies at or beyond the old window end, so
//! beyond every occupied ring slot, and the walk's step-by-step drains
//! would have put each such entry into the same slot (one the cursor
//! had just vacated), in the same heap order.
//!
//! The orderings of both queues are byte-identical by construction —
//! pinned by differential property tests in `tests/properties.rs`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Number of buckets in the calendar ring (power of two).
const NUM_BUCKETS: usize = 1024;
/// Slot mask: ring slot of global bucket index `b` is `b & BUCKET_MASK`.
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;
/// Words in the slot occupancy map, one bit per ring slot.
const OCCUPANCY_WORDS: usize = NUM_BUCKETS / 64;
/// Default bucket width exponent: `2^10` ps ≈ 1 ns per bucket, so the near
/// window spans ~1 µs until the first adaptive re-center.
const DEFAULT_SHIFT: u32 = 10;
/// Widest allowed bucket. At `2^54` ps per bucket the full `u64` time axis
/// spans fewer than `NUM_BUCKETS` buckets, so every span fits the window.
const MAX_SHIFT: u32 = 54;

/// A pending event: fire time (ps), insertion sequence number, payload.
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The total-order key. `seq` is unique, so keys never collide.
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Overflow-tier wrapper inverting the order so `BinaryHeap` (a max-heap)
/// yields the earliest `(at, seq)` first.
struct OverflowEntry<E>(Entry<E>);

impl<E> PartialEq for OverflowEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<E> Eq for OverflowEntry<E> {}

impl<E> PartialOrd for OverflowEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for OverflowEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
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
    /// The calendar ring. Invariants while `len > 0`:
    /// * every ring entry's clamped bucket index
    ///   `max(at >> shift, base_bucket)` lies in
    ///   `[base_bucket, base_bucket + NUM_BUCKETS)` and the entry sits in
    ///   that index's slot;
    /// * the cursor slot (`base_bucket & BUCKET_MASK`) is non-empty and —
    ///   unless `cursor_dirty` — sorted descending by `(at, seq)`, so the
    ///   global minimum is its last element; other slots are unsorted.
    buckets: Vec<Vec<Entry<E>>>,
    /// Bit `s % 64` of word `s / 64` is set iff ring slot `s` is
    /// non-empty.
    occupied: [u64; OCCUPANCY_WORDS],
    /// Global bucket index under the cursor.
    base_bucket: u64,
    /// The cursor slot has unsorted appends pending; the next access
    /// through [`ensure_cursor_sorted`](Self::ensure_cursor_sorted) sorts
    /// it once.
    cursor_dirty: bool,
    /// Bucket width is `2^shift` picoseconds.
    shift: u32,
    /// Entries currently in the ring.
    near_len: usize,
    /// Far-future tier: a min-heap on `(at, seq)`; every entry's bucket
    /// index is `>= base_bucket + NUM_BUCKETS`.
    overflow: BinaryHeap<OverflowEntry<E>>,
    len: usize,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, Vec::new);
        EventQueue {
            buckets,
            occupied: [0; OCCUPANCY_WORDS],
            base_bucket: 0,
            cursor_dirty: false,
            shift: DEFAULT_SHIFT,
            near_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            at: at.as_ps(),
            seq,
            event,
        };
        if self.len == 0 {
            // Re-center the window on the first event, wherever it lands.
            self.base_bucket = entry.at >> self.shift;
            self.cursor_dirty = false; // one entry is trivially sorted
            self.push_to_slot(self.cursor_slot(), entry);
            self.near_len = 1;
            self.len = 1;
            return;
        }
        let b = entry.at >> self.shift;
        let window_end = self.base_bucket.saturating_add(NUM_BUCKETS as u64);
        if b >= window_end {
            // Far future: into the overflow min-heap.
            self.overflow.push(OverflowEntry(entry));
        } else if b <= self.base_bucket {
            // Cursor bucket (covers anything at or before it): append now,
            // sort lazily on the next access. A burst of k such inserts
            // costs one sort, not k sorted insertions.
            self.push_to_slot(self.cursor_slot(), entry);
            self.cursor_dirty = true;
            self.near_len += 1;
        } else {
            // Future ring bucket: plain append; sorted when the cursor
            // arrives.
            self.push_to_slot((b & BUCKET_MASK) as usize, entry);
            self.near_len += 1;
        }
        self.len += 1;
        // A pile-up behind the cursor means the window is centered too
        // high — the first event after an empty spell landed above older
        // schedules, clamping them all into one bucket. Rebase on the true
        // minimum instead of re-sorting an ever-fatter cursor bucket.
        if b < self.base_bucket {
            let fat = (self.len / 8).max(64);
            if self.buckets[self.cursor_slot()].len() > fat {
                self.rebuild();
            }
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.ensure_cursor_sorted();
        let entry = self.pop_cursor_min();
        Some((SimTime::from_ps(entry.at), entry.event))
    }

    /// Removes and returns the next event *only if* it fires exactly at
    /// `at`. This is the batching primitive: after one
    /// [`peek_time`](Self::peek_time), a caller drains the whole
    /// same-timestamp batch with repeated `pop_if_at` calls — each is O(1)
    /// against the sorted cursor bucket, with no re-search per event.
    pub fn pop_if_at(&mut self, at: SimTime) -> Option<E> {
        if self.len == 0 {
            return None;
        }
        self.ensure_cursor_sorted();
        let slot = self.cursor_slot();
        match self.buckets[slot].last() {
            Some(entry) if entry.at == at.as_ps() => {}
            _ => return None,
        }
        Some(self.pop_cursor_min().event)
    }

    /// The fire time of the earliest pending event, if any. O(1) amortized:
    /// the cursor-slot invariant keeps the global minimum at a known
    /// position, paying at most one deferred sort for appends since the
    /// last access.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        self.ensure_cursor_sorted();
        self.buckets[self.cursor_slot()]
            .last()
            .map(|e| SimTime::from_ps(e.at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sequence number the next [`schedule`](Self::schedule) will use.
    /// Strictly monotonic over the queue's lifetime (including across
    /// bucket-epoch rollovers).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn cursor_slot(&self) -> usize {
        (self.base_bucket & BUCKET_MASK) as usize
    }

    /// Appends `entry` to ring slot `slot` and marks the slot occupied.
    fn push_to_slot(&mut self, slot: usize, entry: Entry<E>) {
        self.buckets[slot].push(entry);
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Removes the last entry of the (sorted, non-empty) cursor slot,
    /// clears the slot's occupancy bit if that emptied it, and restores
    /// the cursor-slot invariant.
    fn pop_cursor_min(&mut self) -> Entry<E> {
        let slot = self.cursor_slot();
        let entry = self.buckets[slot].pop().expect("cursor slot non-empty");
        if self.buckets[slot].is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.len -= 1;
        self.near_len -= 1;
        self.normalize();
        entry
    }

    /// The first occupied ring slot at or cyclically after `from`. The
    /// ring must be non-empty.
    fn next_occupied_slot(&self, from: usize) -> usize {
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return word * 64 + bits.trailing_zeros() as usize;
            }
            word = (word + 1) % OCCUPANCY_WORDS;
            bits = self.occupied[word];
        }
    }

    /// Restores the cursor-slot invariant after a removal: jumps the
    /// cursor to the next non-empty bucket (migrating overflow events whose
    /// bucket entered the window), or re-centers on the overflow tier when
    /// the ring has drained.
    fn normalize(&mut self) {
        if self.len == 0 {
            return;
        }
        if self.near_len == 0 {
            self.recenter_on_overflow();
            return;
        }
        let cursor = self.cursor_slot();
        if !self.buckets[cursor].is_empty() {
            return;
        }
        // Every ring entry's bucket lies in the window, so the next
        // occupied slot at cyclic distance `d` holds bucket
        // `base_bucket + d`, the earliest one pending.
        let next = self.next_occupied_slot((cursor + 1) % NUM_BUCKETS);
        self.base_bucket += ((next + NUM_BUCKETS - cursor) % NUM_BUCKETS) as u64;
        // The jump exposed `d` new buckets at the window's far end; pull
        // in the overflow events that now fall inside them. (They land
        // beyond every occupied slot, never in the new cursor bucket.)
        self.drain_overflow();
        self.cursor_dirty = true;
    }

    /// Ring empty, overflow not: re-center the window on the earliest
    /// overflow event and re-derive the bucket width from the overflow
    /// span, so density decides granularity (sparse far-apart events get
    /// wide buckets, dense clusters get fine ones). The chosen width fits
    /// the whole span inside the window, so this empties the overflow tier.
    fn recenter_on_overflow(&mut self) {
        let min_at = self.overflow.peek().expect("overflow non-empty").0.at;
        let max_at = self
            .overflow
            .iter()
            .map(|e| e.0.at)
            .max()
            .expect("overflow non-empty");
        let span = max_at - min_at;
        let mut shift = 0;
        while shift < MAX_SHIFT && (span >> shift) >= NUM_BUCKETS as u64 - 2 {
            shift += 1;
        }
        self.shift = shift;
        self.base_bucket = min_at >> shift;
        self.drain_overflow();
        self.cursor_dirty = true;
    }

    /// Migrates overflow entries whose bucket index lies inside the current
    /// window into the ring: pops the heap while its minimum qualifies.
    fn drain_overflow(&mut self) {
        let window_end = self.base_bucket.saturating_add(NUM_BUCKETS as u64);
        while let Some(entry) = self.overflow.peek() {
            let b = entry.0.at >> self.shift;
            if b >= window_end {
                break;
            }
            let entry = self.overflow.pop().expect("checked above").0;
            self.push_to_slot((b & BUCKET_MASK) as usize, entry);
            self.near_len += 1;
        }
    }

    /// Collects every pending entry and redistributes it around the true
    /// minimum time, re-deriving the bucket width from the full span (which
    /// therefore always fits the window, emptying the overflow tier). O(n),
    /// and triggered only when at least `len / 8` inserts have landed
    /// behind the cursor, so the cost amortizes.
    fn rebuild(&mut self) {
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        entries.extend(self.overflow.drain().map(|e| e.0));
        let min_at = entries.iter().map(|e| e.at).min().expect("len > 0");
        let max_at = entries.iter().map(|e| e.at).max().expect("len > 0");
        let span = max_at - min_at;
        let mut shift = 0;
        while shift < MAX_SHIFT && (span >> shift) >= NUM_BUCKETS as u64 - 2 {
            shift += 1;
        }
        self.shift = shift;
        self.base_bucket = min_at >> shift;
        self.near_len = self.len;
        self.occupied = [0; OCCUPANCY_WORDS];
        for entry in entries {
            self.push_to_slot(((entry.at >> shift) & BUCKET_MASK) as usize, entry);
        }
        self.cursor_dirty = true;
    }

    /// Sorts the cursor bucket if appends are pending. Descending by
    /// `(at, seq)`: the earliest event pops from the back. Keys are unique
    /// (`seq` is), so unstable sorting is deterministic.
    fn ensure_cursor_sorted(&mut self) {
        if self.cursor_dirty {
            let slot = self.cursor_slot();
            self.buckets[slot].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.cursor_dirty = false;
        }
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
            .field("pending", &self.len)
            .field("overflow", &self.overflow.len())
            .field("bucket_width_ps", &(1u64 << self.shift))
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

/// A pending event in the [`HeapEventQueue`] reference implementation.
struct Pending<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Pending<E> {}

impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // tie, the first-inserted) event is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original `BinaryHeap`-backed queue, kept as the ordering reference
/// for differential property tests and as the perf baseline recorded in
/// `BENCH_kernel.json` next to the calendar queue's throughput.
///
/// Same contract as [`EventQueue`]: nondecreasing time, FIFO within a tie.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Pending<E>>,
    next_seq: u64,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Pending { at, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|p| (p.at, p.event))
    }

    /// The fire time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|p| p.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        HeapEventQueue::new()
    }
}

impl<E> std::fmt::Debug for HeapEventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapEventQueue")
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
    fn far_future_events_cross_the_overflow_tier() {
        // Default window is ~1 µs; 1 s is far beyond it, so these events
        // live in the overflow tier until the ring drains, then migrate
        // through an adaptive re-center.
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
    fn overflow_tier_keeps_fifo_ties() {
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
        // After popping at t=100ns the cursor bucket has advanced; a later
        // schedule at t=5ns (legal for the queue — only the Engine forbids
        // past scheduling) must still pop before the remaining t=200ns.
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

    #[test]
    fn jump_wraps_from_the_last_ring_slot_to_the_first() {
        // Default buckets are 2^10 ps wide. The first event centres the
        // window on bucket 1023, the ring's last slot; the next ones sit
        // in buckets 1026 and 1029 (slots 2 and 5, past the wrap) and in
        // the overflow tier at buckets 2048 and 2049 (slots 0 and 1 once
        // the window reaches them).
        let bucket = |b: u64| SimTime::from_ps(b << DEFAULT_SHIFT);
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for (i, b) in [1023, 2049, 1029, 2048, 1026].into_iter().enumerate() {
            cal.schedule(bucket(b), i);
            heap.schedule(bucket(b), i);
        }
        assert_eq!(cal.cursor_slot(), NUM_BUCKETS - 1);
        assert_eq!(cal.overflow.len(), 2);
        let mut cursors = Vec::new();
        while let Some(popped) = cal.pop() {
            assert_eq!(Some(popped), heap.pop());
            assert_eq!(cal.peek_time(), heap.peek_time());
            cursors.push((cal.base_bucket, cal.cursor_slot()));
        }
        assert!(heap.pop().is_none());
        // 1023 -> 1026 wraps the slot index; the first jump also drains
        // both overflow events into slots 0 and 1, behind the cursor slot.
        assert_eq!(
            cursors,
            vec![(1026, 2), (1029, 5), (2048, 0), (2049, 1), (2049, 1)]
        );
    }

    #[test]
    fn heap_reference_matches_on_a_mixed_workload() {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let times = [7_u64, 3, 3, 9_000_000_000, 3, 0, 12, 9_000_000_000, 1];
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_ps(t), i);
            heap.schedule(SimTime::from_ps(t), i);
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
