//! # pathix-core
//!
//! The paper's primary contribution: a physical algebra for XPath location
//! paths whose first-class citizens are **partial path instances** (§4), and
//! whose operators separate cheap intra-cluster navigation from expensive
//! inter-cluster I/O (§5).
//!
//! | Paper operator | Type |
//! |----------------|------|
//! | `XStep`        | [`ops::XStep`] — intra-cluster navigation; one operator routes each instance to the step it applies to |
//! | `XAssembly`(^R)| [`ops::XAssembly`] — result filtering, duplicate elimination (`R`), speculative-instance matching (`S`) |
//! | `XSchedule`(^R)| [`ops::XSchedule`] — pooled asynchronous cluster access |
//! | `XScan`        | [`ops::XScan`] — single sequential scan with speculative evaluation |
//! | Unnest-Map     | [`ops::XStep`] over unswizzled ends — the baseline Simple method, also the steps of a plan in fallback |
//!
//! [`plan`] compiles a [`pathix_xpath::LocationPath`] plus a [`plan::Method`]
//! into an executable plan and runs it against a [`pathix_tree::TreeStore`],
//! returning result nodes and a full cost report (simulated total time, CPU
//! share, buffer and device statistics) — everything needed to regenerate
//! the paper's figures and tables. The same driver runs several plans on
//! one store, interleaved, with their XScans reading one shared scan (the
//! paper's §7 outlook); [`batch`] runs independent plans on a worker pool.
//! Every batch returns a [`BatchRun`].

pub mod batch;
pub mod context;
pub mod error;
pub mod governor;
pub mod instance;
pub mod ops;
pub mod optimizer;
pub mod plan;
pub mod report;

pub use batch::{
    execute_batch_governed, execute_batch_parallel, AdmissionConfig, BatchRun, ConcurrentRun,
    WorkerSeed,
};
pub use context::{ExecCtx, ExecStats};
pub use error::ExecError;
pub use governor::{CancelToken, Deadline, GovernorReport, QueryBudget};
pub use instance::{Pi, REnd};
pub use optimizer::{Optimizer, PlanEstimate};
pub use plan::{
    execute_interleaved, execute_path, execute_query, Method, PathRun, PlanConfig, QueryRun,
};
pub use report::ExecReport;
