//! Experiment library for regenerating the paper's tables and figures.
//!
//! Every table/figure of the DATE'21 paper has a function here returning
//! structured rows; the `src/bin/*` binaries print them, and [`perf`]
//! times the simulation kernel, the composed platform and the §IV-A WCD
//! bounds for the `perf` binary. See `EXPERIMENTS.md` at the repository
//! root for the paper-vs-measured record.

pub mod experiments;
pub mod export;
pub mod format;
pub mod perf;

pub use experiments::*;
pub use export::ExportOptions;
