//! # pathix-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§6), plus the ablations and extensions listed in DESIGN.md
//! §4, and the substrate benchmarks.
//!
//! Every experiment returns one [`artifact::Artifact`]; the `report` binary
//! prints it, checks it and (in full mode) writes it as `<name>.json`:
//!
//! ```text
//! cargo run --release -p pathix-bench --bin report -- all     # paper ablations extensions
//! cargo run --release -p pathix-bench --bin report -- [--fast] paper ablations extensions
//! cargo run --release -p pathix-bench --bin report -- [--fast] throughput scaling chaos overload
//! ```
//!
//! The paper's experiments live in [`experiments`] as three artifacts:
//! [`paper`] (`PAPER.json`), [`ablations`] (`ABLATIONS.json`) and
//! [`extensions`] (`EXTENSIONS.json`). The four substrate harnesses —
//! [`throughput`], [`scaling`], [`chaos`] and [`overload`] — share the
//! [`corpus`] and each expose one `run(fast) -> Artifact`
//! (`BENCH_PR2.json`–`BENCH_PR5.json`).
//!
//! Criterion micro-benchmarks live in `benches/` and wrap the same
//! cold-run helpers.

pub mod artifact;
pub mod chaos;
pub mod corpus;
pub mod experiments;
pub mod overload;
pub mod scaling;
pub mod throughput;

pub use experiments::*;
