//! FR-FCFS DRAM controller modelling and worst-case delay analysis.
//!
//! This crate reproduces §IV-A of the DATE'21 paper "The Road towards
//! Predictable Automotive High-Performance Platforms": worst-case delay
//! (WCD) guarantees for read requests arriving at a First-Ready
//! First-Come-First-Served (FR-FCFS) DRAM controller.
//!
//! It contains three layers:
//!
//! * [`timing`] — JEDEC-style DRAM timing parameter sets; the
//!   [`timing::presets::ddr3_1600`] preset is the paper's **Table I**
//!   verbatim, and the method "can be applied to any memory technology by
//!   just changing the values of the timing parameters", so DDR4/LPDDR4
//!   presets are provided too;
//! * [`controller`] — a cycle-approximate discrete-event simulator of the
//!   controller of Fig. 4: separate read/write queues, row-hit promotion
//!   capped at `N_cap`, watermark-based write batching
//!   (`W_high`/`W_low`/`N_wd`, Fig. 5), and periodic refresh;
//! * [`wcd`] — the analytic **upper and lower bounds** on the WCD of a read
//!   miss entering the read queue at position `N` (the algorithm of
//!   §IV-A: serve `N` misses, add `N_cap` back-to-back hits, then iterate
//!   write-batch and refresh overheads to a fixpoint), which regenerates
//!   **Table II**; and [`service_curve`] turning the `(t_N, N)` points into
//!   a network-calculus service curve for compositional analysis.
//!
//! # Examples
//!
//! Computing the WCD bounds for the paper's Table II operating point at a
//! 4 Gbps write rate:
//!
//! ```
//! use autoplat_dram::timing::presets::ddr3_1600;
//! use autoplat_dram::config::ControllerConfig;
//! use autoplat_dram::wcd::{self, WcdParams};
//! use autoplat_netcalc::arrival::gbps_bucket;
//!
//! let params = WcdParams {
//!     timing: ddr3_1600(),
//!     config: ControllerConfig::paper(),
//!     writes: gbps_bucket(4.0, 8, 8), // 4 Gbps, burst 8, BL8 x8 = 8 B/req
//!     queue_position: 16,
//! };
//! let upper = wcd::upper_bound(&params).expect("stable at 4 Gbps");
//! let lower = wcd::lower_bound(&params);
//! assert!(lower.delay_ns <= upper.delay_ns);
//! // Bounds land in the paper's microsecond range and are close.
//! assert!(upper.delay_ns > 1000.0 && upper.delay_ns < 4000.0);
//! ```

pub mod channel;
pub mod config;
pub mod controller;
pub mod design;
pub mod dpq;
pub mod request;
pub mod service_curve;
pub mod timing;
pub mod wcd;

pub use channel::{ChannelAccess, DramChannel};
pub use config::ControllerConfig;
pub use controller::{
    adversarial_wcd_workload, validation_controller, DramEvent, FrFcfsController,
};
pub use dpq::{adversarial_dpq_probe, adversarial_dpq_workload, DpqArbiter, DpqOutcome};
pub use request::{Request, RequestKind};
pub use timing::DramTiming;
