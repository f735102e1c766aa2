//! Two-clock benchmark of the atomio simulator.
//!
//! Virtual time is the paper's clock (modelled makespan and bandwidth per
//! atomicity strategy); host time is what the simulator costs to run. This
//! crate measures both on four workloads, end to end and layer by layer,
//! against the metric catalog in `BENCHMARK.json`. See `README.md` here.

pub mod catalog;
pub mod cli;
pub mod host;
pub mod json;
pub mod probes;
pub mod run;
pub mod spans;
pub mod workloads;
