//! End-to-end admission control for MPSoCs (§V, Fig. 6/Fig. 7).
//!
//! Admission control "decouple\[s\] the data layer where transmission is
//! performed, from the control layer responsible for allocation and
//! arbitration of available resources": instead of letting every router
//! and memory controller arbitrate its flits and commands independently,
//! a central **Resource Manager (RM)** with a global view admits
//! applications and configures the **rate regulation** of every source
//! node; local **clients** trap unauthorized accesses and enforce the
//! assigned rates.
//!
//! * [`app`] — applications with criticality and bandwidth demands;
//! * [`protocol`] — the four control messages (`actMsg`, `terMsg`,
//!   `stopMsg`, `confMsg`) and the per-kind message counts;
//! * [`modes`] — **system modes** (defined by the number of currently
//!   active applications) and the rate policies of Fig. 7: symmetric
//!   (rates shrink uniformly with the mode) and non-symmetric
//!   (criticality-weighted, keeping critical guarantees while squeezing
//!   best-effort traffic);
//! * [`client`] — the per-node supervisor state machine;
//! * [`rm`] — the Resource Manager: admission, termination, mode
//!   transitions, reconfiguration rounds and their overhead accounting,
//!   plus the heartbeat watchdog that reclaims dead clients' bandwidth;
//! * [`rm::cluster`] / [`rm::root`] — the two-level hierarchy for fleet
//!   scale: per-cluster RMs own disjoint client shards and coalesce
//!   their control traffic into per-step bundles towards a root arbiter
//!   that owns the global guaranteed-capacity budget;
//! * [`fleet`] — the deterministic fleet simulation driving the
//!   hierarchy (or a flat RM, for conformance) over lossy planes at up
//!   to 10^6 synthetic clients;
//! * [`error`] — typed [`AdmissionError`]s replacing panicking validation;
//! * [`e2e`] — end-to-end latency guarantees for admitted flows across a
//!   NoC + DRAM resource chain via network calculus.
//!
//! The control plane is assumed *lossy*: [`protocol`] adds
//! sequence-numbered envelopes, acknowledgements, heartbeats and refusals
//! so a dropped `confMsg` degrades into a bounded retransmission instead
//! of a deadlock, and [`simulation`] can inject seeded faults from
//! `autoplat_sim::FaultPlan` to exercise the recovery paths.
//!
//! # Examples
//!
//! ```
//! use autoplat_admission::app::{AppId, Application, Importance};
//! use autoplat_admission::modes::SymmetricPolicy;
//! use autoplat_admission::rm::ResourceManager;
//!
//! let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 100.0);
//! let a = rm.request_admission(Application::best_effort(AppId(0), 0));
//! assert!(a.admitted);
//! let b = rm.request_admission(Application::best_effort(AppId(1), 1));
//! // Two active apps: each now gets half the capacity.
//! let rate_a = b.rates.iter().find(|(id, _)| *id == AppId(0)).expect("present").1;
//! assert!((rate_a.rate() - 0.5).abs() < 1e-12);
//! ```

pub mod app;
pub mod client;
pub mod control_plane;
pub mod e2e;
pub mod error;
pub mod fleet;
pub mod modes;
pub mod protocol;
pub mod rm;
pub mod simulation;

pub use app::{AppId, Application, Importance};
pub use client::{Liveness, RetryPolicy};
pub use control_plane::{BundlePlane, ControlPlane, Link, Payload};
pub use error::AdmissionError;
pub use fleet::{FleetConfig, FleetOutcome, FleetSim, FleetTopology};
pub use modes::{RatePolicy, SymmetricPolicy, SystemMode, WeightedPolicy};
pub use protocol::{
    BundleFrame, BundleItem, ClusterBundle, ClusterId, ControlMessage, Endpoint, Envelope,
    GrantDecision, RootBundle,
};
pub use rm::cluster::{ClusterRm, ClusterStep};
pub use rm::root::RootArbiter;
pub use rm::{ResourceManager, WatchdogConfig};
pub use simulation::{AdmissionEvent, Scenario, ScenarioEvent, ScenarioOutcome};
