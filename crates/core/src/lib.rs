//! `autoplat` — predictable automotive high-performance platforms.
//!
//! This is the top-level crate of the reproduction of *"The Road towards
//! Predictable Automotive High-Performance Platforms"* (DATE 2021). It
//! composes the substrate crates into a vehicle-integration-platform
//! model:
//!
//! * [`architecture`] — the three classes of centralized E/E
//!   architectures of Fig. 1, as a typed taxonomy;
//! * [`workload`] — synthetic workloads (latency-critical probes,
//!   bandwidth hogs, mixed streams) standing in for the automotive
//!   applications the paper motivates;
//! * [`platform`] — the composed SoC model: cores in clusters, a shared
//!   partitionable L3, an interconnect and a DRAM channel, with optional
//!   MemGuard regulation — the substrate on which interference is
//!   *measured*;
//! * [`qos`] — QoS contracts and their verification against both
//!   measured reports and analytic (network-calculus) bounds.
//!
//! # Quickstart
//!
//! ```
//! use autoplat_core::platform::{Platform, PlatformConfig};
//! use autoplat_core::workload::Workload;
//!
//! // Two cores on a default platform: a latency probe and a hog.
//! let mut platform = Platform::new(PlatformConfig::small());
//! let report = platform.run(&[
//!     Workload::latency_probe(0, 2_000),
//!     Workload::bandwidth_hog(1, 2_000),
//! ]);
//! // Both cores completed all their accesses.
//! assert_eq!(report.cores[0].accesses, 2_000);
//! assert_eq!(report.cores[1].accesses, 2_000);
//! ```

pub mod architecture;
pub mod cosim;
pub mod design_space;
pub mod platform;
pub mod qos;
pub mod workload;

pub use cosim::{
    CoSim, CoSimConfig, CoSimReport, CoSimTask, ControlCommand, QosConfig, QosEpochReport,
    QosPartEpoch, QosReport,
};
pub use design_space::{BudgetPlan, ControlFaults, MeshTopology, PlatformPoint, TaskSetShape};
pub use platform::{Platform, PlatformConfig, PlatformReport};
pub use qos::QosContract;
pub use workload::Workload;

// One-stop re-exports of the substrate crates, so downstream users can
// depend on `autoplat-core` alone.
pub use autoplat_admission as admission;
pub use autoplat_cache as cache;
pub use autoplat_dram as dram;
pub use autoplat_mpam as mpam;
pub use autoplat_netcalc as netcalc;
pub use autoplat_noc as noc;
pub use autoplat_regulation as regulation;
pub use autoplat_sched as sched;
pub use autoplat_sim as sim;
