//! growt-benchmark: the repository's gated benchmark.
//!
//! Two binaries share this library: `growt-benchmark` (the gate: four
//! workloads over the `GrowMap` facade, five end-to-end metrics) and
//! `growt-benchmark-layers` (probes that time the layers' public functions
//! one by one).  README.md in this directory defines every metric.

#![warn(missing_docs)]

pub mod driver;
pub mod estimators;
pub mod metrics;
pub mod opwrap;
pub mod pool;
pub mod sysinfo;
pub mod trace;
pub mod workloads;
