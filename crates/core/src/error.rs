//! Execution errors surfaced by the physical plans.
//!
//! Every plan executor drives its plans through one driver in
//! [`crate::plan`], which consumes assembled instances through one output
//! contract (`plan::result_node`): the right end must be `Done`, `Core`,
//! or (for zero-step plans) `Cold`. Anything else is a broken operator
//! contract; instead of panicking in the hot path (DESIGN.md invariant
//! R3), the violation is reported as a value.

use crate::instance::REnd;
use pathix_storage::IoErrorKind;
use std::fmt;

/// Execution failure of a physical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An operator emitted an instance whose right end violates the plan
    /// output contract.
    UnexpectedEnd {
        /// Debug rendering of the offending right end.
        end: String,
    },
    /// A parallel batch worker terminated without delivering the result for
    /// a claimed work item (see [`crate::batch`]).
    WorkerLost {
        /// Index of the orphaned work item.
        item: usize,
    },
    /// A page read failed unrecoverably (permanent device error, a
    /// checksum mismatch that survived every retry, or a verified image
    /// that does not decode); the plan was drained and aborted cleanly.
    Io {
        /// The page whose read failed.
        page: u32,
        /// How the read failed.
        kind: IoErrorKind,
        /// Read attempts made before giving up (1 = no retry).
        attempts: u32,
    },
    /// The query crossed its hard sim-time deadline and was aborted at a
    /// governor checkpoint (after the soft stage already degraded it into
    /// fallback mode; see [`crate::governor`]).
    DeadlineExceeded {
        /// Physical page reads issued before the abort.
        page_reads: u64,
        /// Simulated nanoseconds elapsed from query start to abort.
        elapsed: u64,
    },
    /// The admission controller shed this item before execution: the batch
    /// exceeded the configured admission capacity. Shedding is deterministic
    /// by batch order.
    Overloaded,
}

impl ExecError {
    /// Builds the contract-violation error for `end`.
    pub(crate) fn unexpected_end(end: &REnd) -> Self {
        ExecError::UnexpectedEnd {
            end: format!("{end:?}"),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnexpectedEnd { end } => write!(f, "unexpected plan output end: {end}"),
            ExecError::WorkerLost { item } => {
                write!(f, "parallel batch: no worker delivered item {item}")
            }
            ExecError::Io {
                page,
                kind,
                attempts,
            } => {
                write!(
                    f,
                    "I/O error on page {page}: {kind} after {attempts} attempt(s)"
                )
            }
            ExecError::DeadlineExceeded {
                page_reads,
                elapsed,
            } => {
                write!(
                    f,
                    "hard deadline exceeded after {elapsed} sim-ns ({page_reads} page reads)"
                )
            }
            ExecError::Overloaded => {
                write!(f, "shed by admission control: batch over capacity")
            }
        }
    }
}

impl std::error::Error for ExecError {}
