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
//! cargo run --release -p pathix-bench --bin report -- [--fast] chaos overload
//! cargo run --release -p pathix-bench --bin report -- diff OLD.json NEW.json
//! ```
//!
//! The paper's experiments live in [`experiments`] as three artifacts:
//! [`paper`] (`PAPER.json`), [`ablations`] (`ABLATIONS.json`) and
//! [`extensions`] (`EXTENSIONS.json`). The two substrate harnesses —
//! [`chaos`] and [`overload`] — share the [`corpus`] and each expose one
//! `run(fast) -> Artifact` (`CHAOS.json`, `OVERLOAD.json`). [`diff`]
//! compares two artifact files cell by cell.
//!
//! Every cell of every artifact is simulated time, a count or an outcome,
//! so each artifact reproduces byte for byte. Wall-clock timings, end to
//! end and per layer, come from the benchmark under `perfbench/`, not from
//! this crate.

pub mod artifact;
pub mod chaos;
pub mod corpus;
pub mod diff;
pub mod experiments;
pub mod overload;

pub use experiments::*;
