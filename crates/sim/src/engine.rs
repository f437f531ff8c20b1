//! The shared run loop for every event-driven simulator in the workspace.
//!
//! The [`Engine`] owns the clock and the event queue; components implement
//! [`Process`] and react to delivered events, scheduling follow-ups through
//! the [`EventSink`] handle they are given.
//!
//! # Ordering contract
//!
//! Events fire in nondecreasing time order. Events scheduled for the same
//! instant are delivered in the order they were scheduled (FIFO, via the
//! `(time, seq)` key in [`EventQueue`]), so a run is a pure function of the
//! schedule — no `HashMap` iteration order or heap internals leak through.
//! Scheduling into the simulated past panics rather than silently
//! reordering history.
//!
//! # Composition
//!
//! A composed simulator (e.g. the full-platform co-simulation in
//! `autoplat_core`) owns several sub-processes with their own event types
//! and wraps them in one umbrella enum. [`MapSink`] adapts the umbrella
//! sink to a sub-process's native event type, so sub-processes stay
//! reusable in isolation:
//!
//! ```
//! use autoplat_sim::engine::{EventSink, MapSink, Process};
//!
//! enum Top { Sub(u32) }
//!
//! struct Sub;
//! impl Process for Sub {
//!     type Event = u32;
//!     fn handle(&mut self, ev: u32, sink: &mut dyn EventSink<u32>) {
//!         if ev > 0 {
//!             sink.schedule_in(autoplat_sim::SimDuration::from_ns(1.0), ev - 1);
//!         }
//!     }
//! }
//!
//! struct Composed(Sub);
//! impl Process for Composed {
//!     type Event = Top;
//!     fn handle(&mut self, ev: Top, sink: &mut dyn EventSink<Top>) {
//!         match ev {
//!             Top::Sub(inner) => self.0.handle(inner, &mut MapSink::new(sink, Top::Sub)),
//!         }
//!     }
//! }
//! ```

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Where a [`Process`] schedules follow-up events.
///
/// The [`Engine`] hands each delivery a sink over its own queue;
/// [`MapSink`] adapts a sink across event types for composition.
pub trait EventSink<E> {
    /// The current simulated time.
    fn now(&self) -> SimTime;

    /// Schedules `event` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past, which would break causality.
    fn schedule_at(&mut self, at: SimTime, event: E);

    /// Schedules `event` to fire `delay` after the current time.
    fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now() + delay;
        self.schedule_at(at, event);
    }
}

/// The sink [`Engine`] hands to a process: the delivery instant plus the
/// engine's queue.
struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> EventSink<E> for Scheduler<'_, E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({at} < {})",
            self.now
        );
        self.queue.schedule(at, event);
    }
}

/// Adapts an [`EventSink`] over event type `A` into one over `B` by mapping
/// every scheduled event through `F: FnMut(B) -> A`.
///
/// This is the composition primitive: a parent process with an umbrella
/// event enum wraps its sink with the enum constructor before delegating to
/// a sub-process (see the module docs for an example).
pub struct MapSink<'a, A, F> {
    inner: &'a mut dyn EventSink<A>,
    map: F,
}

impl<'a, A, F> MapSink<'a, A, F> {
    /// Wraps `inner`, translating scheduled events through `map`.
    pub fn new(inner: &'a mut dyn EventSink<A>, map: F) -> Self {
        MapSink { inner, map }
    }
}

impl<A, B, F: FnMut(B) -> A> EventSink<B> for MapSink<'_, A, F> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn schedule_at(&mut self, at: SimTime, event: B) {
        self.inner.schedule_at(at, (self.map)(event));
    }
}

/// An event-driven simulation component.
pub trait Process {
    /// The event type this process reacts to.
    type Event;

    /// Handles one event delivered at its fire time.
    fn handle(&mut self, event: Self::Event, sink: &mut dyn EventSink<Self::Event>);
}

/// The simulation engine: a clock plus an event queue, driving one [`Process`].
///
/// # Examples
///
/// A process that counts down by rescheduling itself:
///
/// ```
/// use autoplat_sim::{Engine, Process, SimDuration, SimTime};
/// use autoplat_sim::engine::EventSink;
///
/// struct Countdown(u32);
///
/// impl Process for Countdown {
///     type Event = ();
///     fn handle(&mut self, _ev: (), sink: &mut dyn EventSink<()>) {
///         if self.0 > 0 {
///             self.0 -= 1;
///             sink.schedule_in(SimDuration::from_ns(10.0), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.schedule_at(SimTime::ZERO, ());
/// let mut process = Countdown(3);
/// engine.run(&mut process);
/// assert_eq!(process.0, 0);
/// assert_eq!(engine.now(), SimTime::from_ns(30.0));
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    delivered: u64,
}

impl<E> Engine<E> {
    /// Creates an engine at `t = 0` with an empty queue.
    pub fn new() -> Self {
        Engine::starting_at(SimTime::ZERO)
    }

    /// Creates an engine whose clock starts at `now`, for resuming a
    /// simulator that already carries simulated history.
    pub fn starting_at(now: SimTime) -> Self {
        Engine {
            now,
            queue: EventQueue::new(),
            delivered: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Schedules an initial event at an absolute time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({at} < {})",
            self.now
        );
        self.queue.schedule(at, event);
    }

    /// Runs until the queue drains, delivering every event to `process`.
    pub fn run<P: Process<Event = E>>(&mut self, process: &mut P) {
        self.run_until(process, SimTime::MAX);
    }

    /// Runs until the queue drains or the next event would fire after
    /// `deadline`. Events at exactly `deadline` are delivered.
    ///
    /// This is the batched hot path: one peek per *timestamp*, then the
    /// whole same-instant batch drains through
    /// [`EventQueue::pop_if_at`](crate::EventQueue::pop_if_at) — including
    /// events a handler schedules at the instant being drained, which keep
    /// their FIFO position behind the already-scheduled batch.
    pub fn run_until<P: Process<Event = E>>(&mut self, process: &mut P, deadline: SimTime) {
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                return;
            }
            assert!(at >= self.now, "event queue violated causality");
            self.now = at;
            while let Some(event) = self.queue.pop_if_at(at) {
                self.delivered += 1;
                let mut sink = Scheduler {
                    now: at,
                    queue: &mut self.queue,
                };
                process.handle(event, &mut sink);
            }
        }
    }

    /// Number of still-pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl Process for Recorder {
        type Event = u32;
        fn handle(&mut self, event: u32, sink: &mut dyn EventSink<u32>) {
            self.seen.push((sink.now(), event));
            if event < 3 {
                sink.schedule_in(SimDuration::from_ns(1.0), event + 1);
            }
        }
    }

    #[test]
    fn run_drains_queue_and_advances_clock() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_ns(5.0), 0);
        let mut p = Recorder::default();
        engine.run(&mut p);
        assert_eq!(p.seen.len(), 4);
        assert_eq!(engine.now(), SimTime::from_ns(8.0));
        assert_eq!(engine.delivered(), 4);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_ns(0.0), 0);
        let mut p = Recorder::default();
        engine.run_until(&mut p, SimTime::from_ns(1.0));
        // events at 0 and 1 ns delivered; 2 and 3 still pending/future
        assert_eq!(p.seen.len(), 2);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "event queue violated causality")]
    fn causality_violation_panics_even_in_release() {
        // The public API cannot schedule into the past, so corrupt the
        // queue directly (same-module access) to pin that the check is a
        // real assert, not a debug_assert compiled out of release builds.
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_ns(10.0), 0u32);
        let mut p = Recorder::default();
        engine.run(&mut p);
        assert_eq!(engine.now(), SimTime::from_ns(13.0));
        engine.queue.schedule(SimTime::from_ns(1.0), 9);
        engine.run(&mut p);
    }

    #[test]
    fn map_sink_translates_scheduled_events() {
        #[derive(Debug, PartialEq)]
        enum Top {
            Sub(u32),
        }
        struct Sub;
        impl Process for Sub {
            type Event = u32;
            fn handle(&mut self, ev: u32, sink: &mut dyn EventSink<u32>) {
                if ev > 0 {
                    sink.schedule_in(SimDuration::from_ns(1.0), ev - 1);
                }
            }
        }
        struct Composed {
            sub: Sub,
            fired: u32,
        }
        impl Process for Composed {
            type Event = Top;
            fn handle(&mut self, ev: Top, sink: &mut dyn EventSink<Top>) {
                self.fired += 1;
                match ev {
                    Top::Sub(inner) => {
                        self.sub.handle(inner, &mut MapSink::new(sink, Top::Sub));
                    }
                }
            }
        }
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, Top::Sub(3));
        let mut p = Composed { sub: Sub, fired: 0 };
        engine.run(&mut p);
        assert_eq!(p.fired, 4);
        assert_eq!(engine.now(), SimTime::from_ns(3.0));
    }

    #[test]
    fn starting_at_resumes_a_clock() {
        let mut engine = Engine::<u32>::starting_at(SimTime::from_ns(100.0));
        assert_eq!(engine.now(), SimTime::from_ns(100.0));
        engine.schedule_at(SimTime::from_ns(100.0), 9);
        let mut p = Recorder::default();
        engine.run(&mut p);
        assert_eq!(p.seen[0].0, SimTime::from_ns(100.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_past_panics() {
        struct Bad;
        impl Process for Bad {
            type Event = ();
            fn handle(&mut self, _e: (), sink: &mut dyn EventSink<()>) {
                sink.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_ns(10.0), ());
        engine.run(&mut Bad);
    }
}
