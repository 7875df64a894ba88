//! pathix-lint: an architectural invariant checker for the pathix
//! workspace.
//!
//! The paper's physical algebra rests on contracts that the type system
//! cannot express: XStep and XAssembly never touch the buffer manager
//! (§5.2, §5.4.2), only XSchedule/XScan perform cluster I/O (§5.3.4,
//! §5.4.3), replayed runs are bit-identical (DESIGN §3), the
//! operator hot path never panics, and the crate graph flows
//! `xml → tree → core`. This crate enforces them statically with a
//! hand-rolled tokenizer and a per-file rule engine — no dependencies,
//! runnable anywhere the workspace builds:
//!
//! ```text
//! cargo run -p pathix-lint -- check
//! ```
//!
//! Rules:
//! - **R1 — I/O confinement.** Navigation-only operators must not
//!   reference `Buffer::fix`, `Device`, `pathix_storage`, or any other
//!   physical-I/O API; XStep reads pages (Simple method, fallback mode)
//!   only through `pathix_tree::FullCursor`.
//! - **R2 — determinism.** No `Instant`/`SystemTime` anywhere (wall-clock
//!   time is measured by perfbench, outside the workspace); no `rand`
//!   outside xmlgen/bench/tests; no `HashMap` in cost-accounting/report
//!   code.
//! - **R3 — panic-freedom.** No `unwrap`/`expect`/`panic!`-family
//!   macros or slice indexing in non-test code of the operator hot
//!   path, the buffer manager, and the navigation primitives.
//!   Escape hatch: `// lint:allow(reason)` on or above the line.
//! - **R4 — layering.** Inter-crate references must point down the
//!   layer stack, and `Pi` instances may only be built through the
//!   checked constructors in `instance.rs`.
//! - **R5 — concurrency confinement.** Threading primitives
//!   (`std::thread`, channels, locks, atomics) appear only in the
//!   storage layer's shared page cache and fault plan and the batch
//!   executor module (`core/src/batch.rs`); the operator hot path stays
//!   single-threaded (DESIGN §10). Non-test code of core's `ops/` and
//!   `instance.rs` does not name `Arc` at all: an instance pins its
//!   cluster with the non-atomic `pathix_tree::ClusterPin`.
//! - **R6 — fault containment.** The fault-injection API
//!   (`FaultDevice`/`FaultPlan`/…) stays below the shared cache
//!   (storage, the facade, bench, tests); `IoError` is constructed
//!   only by the storage layer; operators have no error channel
//!   (`ExecError` never appears inside `ops/`).
//! - **R7 — governor confinement.** Budget and admission types
//!   (`QueryBudget`, `Deadline`, `AdmissionConfig`, `GovernorReport`)
//!   stay in the governor zone; inside `ops/` the `interrupted`
//!   checkpoint is called only by the declared checkpoint operators, and
//!   deadline logic never reads a wall clock (DESIGN §12).
//! - **R8 — `unsafe` confinement.** Non-test code uses `unsafe` only in
//!   `crates/storage/src/checksum.rs`, whose one block calls the CRC32
//!   carry-less-multiply kernel right after the CPU feature check; clippy's
//!   `undocumented_unsafe_blocks` makes that block carry a `// SAFETY:`
//!   comment.
//! - **R9 — one cost table.** Non-test code declares a `const` whose name
//!   ends in `_NS` only in `crates/storage/src/cost.rs`, the table every
//!   simulated CPU charge and the optimizer's estimate read.

pub mod rules;
pub mod tokenizer;
pub mod workspace;

pub use rules::{check_source, Diagnostic};
pub use workspace::{check_workspace, find_workspace_root};
