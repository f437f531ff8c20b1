//! Differential conformance harness: analytic bounds as oracles for
//! every simulator in the workspace.
//!
//! The paper's whole argument (DATE'21, "The Road towards Predictable
//! Automotive High-Performance Platforms") rests on analytic bounds —
//! FR-FCFS worst-case DRAM delay, network-calculus delay/backlog
//! curves, MemGuard replenishment guarantees, response-time analysis —
//! being *sound* for the systems they model. This crate turns that
//! soundness claim into a randomized differential test:
//!
//! 1. [`scenario`] generates random-but-valid scenarios per family
//!    (DRAM configs + request streams, NoC topologies + flows, MemGuard
//!    budgets + access traces, task sets, fault plans, closed-loop QoS
//!    compositions under sensor-fault storms, DPQ arbitration setups,
//!    per-bank regulation traces and cross-arbiter differential
//!    streams), each fully determined by a single `u64` case seed;
//! 2. [`oracle`] replays each scenario through both the analysis and
//!    the event-kernel simulator and checks the dominance invariants;
//! 3. [`shrink`](mod@shrink) greedily minimises any failing scenario;
//! 4. [`harness`] sweeps N cases per family from a master seed and
//!    reports shrunk, replayable reproducers.
//!
//! The `conformance` binary in `autoplat-bench` fronts the sweep for
//! CI (`--cases N --seed S --export-json`); the golden corpus under
//! `tests/golden/conformance_corpus.txt` pins known-interesting case
//! seeds forever.

pub mod harness;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use harness::{
    case_seed, run_case, run_case_observed, run_sweep, run_sweep_parallel, CaseObservations,
    Failure, FamilyStats, SweepConfig, SweepReport,
};
pub use oracle::{CaseResult, Observations, Oracle, Violation};
pub use scenario::{Family, Scenario};
pub use shrink::{shrink, Shrunk};
