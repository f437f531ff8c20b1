//! Runtime traffic regulation: software bandwidth control for COTS
//! platforms (§II).
//!
//! When the hardware offers no fine-grained QoS mechanisms, "one has to
//! resort to software-based methods": performance counters can be used
//! "to actively limit the number of requests and reserve memory
//! bandwidths on the level of cores, hypervisor partitions or single
//! applications using software-based mechanisms such as Memguard \[6\]".
//!
//! * [`memguard`] — a MemGuard-style regulator: bandwidth budgets keyed
//!   by core or by DRAM bank, replenished every period, with accesses
//!   throttled until the next period once their budget is spent; its
//!   per-period usage counters stand in for the performance counters;
//! * [`process`] — the regulator's period roll as a timer on the shared
//!   event kernel;
//! * [`closed_loop`] — monitor-driven budget retuning with degradation
//!   to safe static partitions.
//!
//! # Examples
//!
//! ```
//! use autoplat_regulation::memguard::{MemGuard, AccessDecision};
//! use autoplat_sim::{SimTime, SimDuration};
//!
//! // Two cores, 1 ms period, 1000/2000 bytes of budget.
//! let mut mg = MemGuard::new(SimDuration::from_us(1000.0), vec![1000, 2000]);
//! match mg.try_access(0, 1000, SimTime::ZERO) {
//!     AccessDecision::Granted => {}
//!     AccessDecision::ThrottledUntil(_) => unreachable!("budget available"),
//! }
//! // Budget spent: the next access is deferred to the next period.
//! assert!(matches!(
//!     mg.try_access(0, 1, SimTime::ZERO),
//!     AccessDecision::ThrottledUntil(_)
//! ));
//! ```

pub mod closed_loop;
pub mod memguard;
pub mod process;

pub use closed_loop::{
    ClosedLoopConfig, ClosedLoopController, DegradationReason, LoopAction, MonitorCapture,
    PartitionTarget, SensorWatchdogConfig,
};
pub use memguard::{AccessDecision, MemGuard};
pub use process::{MemGuardProcess, RegulationEvent};
