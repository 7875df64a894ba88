//! # pathix-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§6), plus the ablations listed in DESIGN.md.
//!
//! The `report` binary regenerates the artifacts:
//!
//! ```text
//! cargo run --release -p pathix-bench --bin report -- all
//! cargo run --release -p pathix-bench --bin report -- fig9 fig10 fig11 tab3 example1
//! cargo run --release -p pathix-bench --bin report -- [--fast] throughput scaling chaos overload
//! ```
//!
//! The paper's experiments live in [`experiments`] and print through
//! [`table`]. The four substrate harnesses — [`throughput`], [`scaling`],
//! [`chaos`] and [`overload`] — share the [`corpus`] and each expose one
//! `run(fast) -> Artifact`; `report` prints, checks and writes every
//! [`artifact::Artifact`] the same way (`BENCH_PR2.json`–`BENCH_PR5.json`).
//!
//! Criterion micro-benchmarks live in `benches/` and wrap the same
//! experiment functions.

pub mod artifact;
pub mod chaos;
pub mod corpus;
pub mod experiments;
pub mod overload;
pub mod scaling;
pub mod table;
pub mod throughput;

pub use experiments::*;
