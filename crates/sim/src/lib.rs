//! Discrete-event simulation kernel for the `autoplat` hardware models.
//!
//! Every simulator in the workspace (the FR-FCFS DRAM controller, the
//! wormhole NoC, the shared caches, the schedulers) is built on the small
//! set of primitives provided here:
//!
//! * [`SimTime`] / [`SimDuration`] — integer picosecond simulated time, so
//!   DDR timing parameters such as `tCK = 1.25 ns` are represented exactly;
//! * [`EventQueue`] — a deterministic time-ordered event queue with FIFO
//!   tie-breaking: one binary heap on `(time, seq)`, sized to the few
//!   dozen events an engine holds;
//! * [`Engine`] — a minimal run loop driving components that implement
//!   [`Process`];
//! * [`stats`] — streaming statistics (Welford mean/variance)
//!   used to report simulated latencies and bandwidths;
//! * [`metrics`] — the [`MetricsRegistry`] every simulator publishes
//!   into after its run, and its deterministic JSON/CSV export;
//! * [`rng`] — seeded, reproducible random number plumbing;
//! * [`hash`] — a seedless hasher for maps looked up only by key, so
//!   their `Debug` output and iteration are the same in every process.
//!
//! # Examples
//!
//! ```
//! use autoplat_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_ns(10.0), "b");
//! queue.schedule(SimTime::from_ns(5.0), "a");
//! let (t, ev) = queue.pop().expect("queue is non-empty");
//! assert_eq!(ev, "a");
//! assert_eq!(t, SimTime::from_ns(5.0));
//! ```

pub mod engine;
pub mod event;
pub mod fault;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, EventSink, MapSink, Process};
pub use event::EventQueue;
pub use fault::{FaultInjector, FaultPlan, MessageFault, SensorFault};
pub use json::JsonValue;
pub use metrics::{HistogramSketch, MetricsRegistry};
pub use rng::SimRng;
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
