//! # pathix
//!
//! A from-scratch reproduction of **"Cost-Sensitive Reordering of
//! Navigational Primitives"** (Kanne, Brantner, Moerkotte — SIGMOD 2005):
//! an XPath evaluation engine whose physical algebra separates cheap
//! intra-cluster navigation from expensive inter-cluster I/O, pooling all
//! I/O for a location path in a single operator that can exploit
//! asynchronous request reordering (`XSchedule`) or a single sequential
//! scan (`XScan`).
//!
//! ## Crate map
//!
//! * [`storage`] — paged storage: simulated disk with a seek/rotation/
//!   transfer cost model and a reordering command queue, an in-memory
//!   device, and the buffer manager over decoded pages.
//! * [`xml`] — minimal XML parser/serializer and the in-memory document
//!   tree.
//! * [`xmlgen`] — deterministic XMark-shaped benchmark document generator.
//! * [`tree`] — clustered on-page tree storage with border nodes and
//!   intra-cluster navigation primitives.
//! * [`xpath`] — location-path AST, parser, and the reference evaluator.
//! * [`core`] — partial path instances and the physical algebra
//!   (`XStep`/`XAssembly`/`XSchedule`/`XScan`), plan compiler and executor.
//!
//! ## Quickstart
//!
//! ```
//! use pathix::{Database, DatabaseOptions, Method, PlanConfig};
//!
//! // An XMark-like auction document at scaling factor 0.05.
//! let db = Database::from_xmark(0.05, &DatabaseOptions::default()).unwrap();
//!
//! // Evaluate XMark Q6' with all three plans of the paper.
//! let q = "count(/site/regions//item)";
//! let simple = db.run(q, Method::Simple).unwrap();
//! let sched = db.run(q, Method::xschedule()).unwrap();
//! let scan = db.run(q, Method::XScan).unwrap();
//! assert_eq!(simple.value, sched.value);
//! assert_eq!(simple.value, scan.value);
//! println!("{}", sched.report);
//!
//! // A bare path goes through the same `run`; a full `PlanConfig` can ask
//! // for its result nodes in document order.
//! let mut cfg = PlanConfig::new(Method::XScan);
//! cfg.sort = true;
//! let items = db.run("/site/regions//item", cfg).unwrap();
//! assert_eq!(items.nodes.len() as u64, simple.value);
//! ```
//!
//! [`Database::run`] runs one query. [`Database::run_batch`] runs a batch
//! of `(path, method)` items in one of three [`Batch`] modes: interleaved on
//! this database's device (its XScan items read one shared scan), or a
//! worker pool over device forks, plain or governed by budgets and
//! admission control. Every mode returns a [`BatchRun`] whose items are the
//! results each path gets when run alone. An interleaved batch fails as a
//! whole on an unrecovered read; in the pool, an item fails alone.

pub use pathix_core as core;
pub use pathix_storage as storage;
pub use pathix_tree as tree;
pub use pathix_xml as xml;
pub use pathix_xmlgen as xmlgen;
pub use pathix_xpath as xpath;

mod db;

pub use db::{Batch, Database, DatabaseOptions, DbError, DeviceKind};
pub use pathix_core::{
    AdmissionConfig, BatchRun, Deadline, ExecError, ExecReport, GovernorReport, Method, PathRun,
    PlanConfig, QueryBudget, QueryRun,
};
pub use pathix_storage::{FaultKind, FaultPlan, FaultRule};
