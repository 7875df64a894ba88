//! The pathix benchmark: three closed-loop workloads (`cold`, `warm_rw`,
//! `batch`) driven through the engine's public API, end-to-end metrics
//! measured untraced, and per-layer metrics from a separate traced run.
//! See `README.md` in this directory for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.

pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
