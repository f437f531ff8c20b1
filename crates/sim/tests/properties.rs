//! Property-based tests for the simulation kernel.

use autoplat_sim::engine::EventSink;
use autoplat_sim::{Engine, EventQueue, Process, SimDuration, SimTime, Summary};
use proptest::prelude::*;

/// The queue contract written out as plainly as possible: pending
/// `(at, seq, payload)` triples in a `Vec`, popped by a linear scan for
/// the least `(at, seq)`. The differential properties below hold
/// [`EventQueue`] to it.
#[derive(Default)]
struct ScanModel {
    pending: Vec<(SimTime, u64, usize)>,
    next_seq: u64,
}

impl ScanModel {
    fn schedule(&mut self, at: SimTime, payload: usize) {
        self.pending.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn least(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let (at, _, payload) = self.pending.swap_remove(self.least()?);
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.least().map(|i| self.pending[i].0)
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}

/// splitmix64: drives the sparse hold model.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// A delay on mixed scales, in ps: the same instant, 1 ps-1 ns,
    /// 1 µs-2 ms, and rarely 1 s.
    fn sparse_delay(&mut self) -> u64 {
        match self.below(256) {
            0 => 1_000_000_000_000,
            1..=63 => 0,
            64..=127 => 1 + self.below(1_000),
            _ => 1_000_000 + self.below(1_999_000_000),
        }
    }
}

/// Records every delivery `(time, payload)` in the order the engine makes
/// them, without scheduling anything further.
struct Recorder {
    delivered: Vec<(SimTime, usize)>,
}

impl Process for Recorder {
    type Event = usize;

    fn handle(&mut self, event: usize, sink: &mut dyn EventSink<usize>) {
        self.delivered.push((sink.now(), event));
    }
}

proptest! {
    #[test]
    fn engine_delivers_equal_timestamps_in_schedule_order(
        times in proptest::collection::vec(0u64..50, 1..200),
    ) {
        // Heavy collisions: only 50 distinct instants for up to 200
        // events, so FIFO tie-breaking carries the ordering.
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_ps(t), i);
        }
        let mut process = Recorder { delivered: Vec::new() };
        engine.run(&mut process);
        prop_assert_eq!(process.delivered.len(), times.len());
        for w in process.delivered.windows(2) {
            let ((ta, ia), (tb, ib)) = (w[0], w[1]);
            prop_assert!(ta <= tb, "time order violated: {ta} then {tb}");
            if ta == tb {
                prop_assert!(
                    ia < ib,
                    "same-instant events must fire in schedule order, got {ia} before {ib}"
                );
            }
        }
    }

    #[test]
    fn run_until_never_delivers_past_the_deadline(
        times in proptest::collection::vec(0u64..1000, 1..200),
        deadline in 0u64..1000,
    ) {
        let deadline = SimTime::from_ps(deadline);
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_ps(t), i);
        }
        let mut process = Recorder { delivered: Vec::new() };
        engine.run_until(&mut process, deadline);
        // Everything at or before the deadline fired; nothing after did,
        // and the clock never overtook the deadline.
        let due = times.iter().filter(|&&t| SimTime::from_ps(t) <= deadline).count();
        prop_assert_eq!(process.delivered.len(), due);
        for &(t, _) in &process.delivered {
            prop_assert!(t <= deadline, "delivered past the deadline: {t}");
        }
        prop_assert!(engine.now() <= deadline);
        prop_assert_eq!(engine.pending(), times.len() - due);
    }
    #[test]
    fn event_queue_pops_sorted_with_fifo_ties(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ps(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time order violated");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO tie-break violated");
                }
            }
            last = Some((t, idx));
        }
    }

    #[test]
    fn event_queue_matches_scan_model_on_bulk_schedules(
        times in proptest::collection::vec(0u64..500, 1..300),
    ) {
        // Heavy same-timestamp collisions: the FIFO seq tie-break carries
        // the ordering, and the queue must reproduce the model's pop
        // sequence payload-for-payload.
        let mut q = EventQueue::new();
        let mut model = ScanModel::default();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ps(t), i);
            model.schedule(SimTime::from_ps(t), i);
        }
        for _ in 0..times.len() {
            prop_assert_eq!(q.peek_time(), model.peek_time());
            prop_assert_eq!(q.pop(), model.pop());
        }
        prop_assert!(q.is_empty());
    }

    #[test]
    fn event_queue_matches_scan_model_with_far_future_interleaving(
        ops in proptest::collection::vec(
            // (pop?, near time, far multiplier): far times sit 50 µs
            // apart, far beyond the near ones, and pops interleave with
            // schedules on both scales.
            (any::<bool>(), 0u64..2_000, 0u64..8),
            1..200,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut model = ScanModel::default();
        let mut payload = 0usize;
        for &(is_pop, near, far) in &ops {
            if is_pop {
                prop_assert_eq!(q.pop(), model.pop());
            } else {
                let t = near + far * 50_000_000; // 0, 50 µs, 100 µs, ...
                q.schedule(SimTime::from_ps(t), payload);
                model.schedule(SimTime::from_ps(t), payload);
                payload += 1;
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.peek_time());
        }
        // Drain both: the tails must agree too.
        loop {
            let (a, b) = (q.pop(), model.pop());
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn event_queue_matches_scan_model_on_sparse_hold_schedules(
        seed in any::<u64>(),
        initial in 1usize..=32,
    ) {
        // A hold model on a moving window: each step pops the earliest
        // event and schedules 0-3 more (one on average, keeping 1-32
        // pending) at the popped time plus a sparse delay, which mixes
        // same-instant ties with gaps from 1 ps to 1 s.
        let mut rng = SplitMix(seed);
        let mut q = EventQueue::new();
        let mut model = ScanModel::default();
        let mut payload = 0usize;
        for _ in 0..initial {
            let at = SimTime::from_ps(rng.sparse_delay());
            q.schedule(at, payload);
            model.schedule(at, payload);
            payload += 1;
        }
        for _ in 0..3_000 {
            let popped = q.pop();
            prop_assert_eq!(&popped, &model.pop());
            let (now, _) = popped.expect("the hold model never drains");
            let fresh = [0, 0, 0, 1, 1, 1, 2, 3][rng.below(8) as usize];
            let fresh = fresh.clamp(usize::from(q.is_empty()), 32 - q.len());
            for _ in 0..fresh {
                let at = now + SimDuration::from_ps(rng.sparse_delay());
                q.schedule(at, payload);
                model.schedule(at, payload);
                payload += 1;
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.peek_time());
        }
    }

    #[test]
    fn pop_if_at_batches_reproduce_plain_pop_order(
        times in proptest::collection::vec(0u64..200, 1..200),
    ) {
        let mut plain = EventQueue::new();
        let mut batched = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            plain.schedule(SimTime::from_ps(t), i);
            batched.schedule(SimTime::from_ps(t), i);
        }
        let mut by_pop = Vec::new();
        while let Some((t, e)) = plain.pop() {
            by_pop.push((t, e));
        }
        let mut by_batch = Vec::new();
        while let Some(t) = batched.peek_time() {
            while let Some(e) = batched.pop_if_at(t) {
                by_batch.push((t, e));
            }
        }
        prop_assert_eq!(by_pop, by_batch);
    }

    #[test]
    fn next_seq_is_monotonic_across_queue_drains(
        rounds in proptest::collection::vec(0u64..4, 2..40),
    ) {
        // Each round schedules ~80 µs past the previous round's pops and
        // drains the queue again. Sequence numbers must keep strictly
        // increasing the whole way: they are the FIFO tie-break and may
        // never reset when the queue empties.
        let mut q = EventQueue::new();
        let mut last_seq = q.next_seq();
        let mut base = 0u64;
        for (i, &extra) in rounds.iter().enumerate() {
            for j in 0..=extra {
                q.schedule(SimTime::from_ps(base + j), i);
                let seq = q.next_seq();
                prop_assert!(seq > last_seq, "next_seq must grow on every schedule");
                last_seq = seq;
            }
            while q.pop().is_some() {}
            base += 80_000_000; // ~80 µs
        }
    }

    #[test]
    fn time_addition_associates(a in 0u64..1u64<<40, b in 0u64..1u64<<40, c in 0u64..1u64<<40) {
        let t = SimTime::from_ps(a);
        let d1 = SimDuration::from_ps(b);
        let d2 = SimDuration::from_ps(c);
        prop_assert_eq!((t + d1) + d2, t + (d1 + d2));
    }

    #[test]
    fn duration_roundtrip_through_ns(ps in 0u64..1u64<<50) {
        let d = SimDuration::from_ps(ps);
        let back = SimDuration::from_ns(d.as_ns());
        // f64 has 52 bits of mantissa; ps < 2^50 round-trips exactly.
        prop_assert_eq!(back, d);
    }

    #[test]
    fn saturating_since_is_never_negative_and_inverts_add(
        a in 0u64..1u64<<40,
        b in 0u64..1u64<<40,
    ) {
        let t = SimTime::from_ps(a);
        let d = SimDuration::from_ps(b);
        prop_assert_eq!((t + d).saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(t + d + SimDuration::from_ps(1)), SimDuration::ZERO);
    }

    #[test]
    fn summary_mean_between_min_and_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = s.mean();
        prop_assert!(mean >= s.min().expect("non-empty") - 1e-9);
        prop_assert!(mean <= s.max().expect("non-empty") + 1e-9);
        prop_assert!(s.variance() >= 0.0);
        prop_assert_eq!(s.count(), xs.len() as u64);
    }

    #[test]
    fn summary_merge_equals_sequential(
        xs in proptest::collection::vec(-1e4f64..1e4, 0..60),
        ys in proptest::collection::vec(-1e4f64..1e4, 0..60),
    ) {
        let mut all = Summary::new();
        for &x in xs.iter().chain(&ys) {
            all.record(x);
        }
        let mut a = Summary::new();
        for &x in &xs {
            a.record(x);
        }
        let mut b = Summary::new();
        for &y in &ys {
            b.record(y);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        if all.count() > 0 {
            prop_assert!((a.mean() - all.mean()).abs() < 1e-6);
            prop_assert!((a.variance() - all.variance()).abs() < 1e-4);
        }
    }

    #[test]
    fn rng_fork_streams_are_reproducible(seed in any::<u64>(), stream in any::<u64>()) {
        use autoplat_sim::SimRng;
        let mut p1 = SimRng::seed_from(seed);
        let mut p2 = SimRng::seed_from(seed);
        let mut c1 = p1.fork(stream);
        let mut c2 = p2.fork(stream);
        for _ in 0..8 {
            prop_assert_eq!(c1.gen_range(0..u64::MAX), c2.gen_range(0..u64::MAX));
        }
    }
}
