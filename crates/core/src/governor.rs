//! Resource governance: per-query budgets and the batch outcome tally.
//!
//! The paper's fallback mode (§5.4.6, DESIGN §5.4.6 note) bounds a single
//! query's *memory* (`PlanConfig::mem_limit`); a server handling a batch
//! also needs bounded time per query and load shedding that degrades
//! latency, never correctness. This module holds the vocabulary types;
//! enforcement lives at the declared checkpoints (operator produce loops,
//! queue pops, and the buffer fix path — see DESIGN §12 for the checkpoint
//! map) and in the governed batch executor
//! ([`crate::batch::execute_batch_governed`]).
//!
//! Everything here is simulated-time based: deadlines are expressed in
//! `SimClock` nanoseconds, never wall-clock, so every governed outcome is
//! exactly reproducible (lint rule R7 enforces that no `std::time::Instant`
//! creeps into deadline logic).

/// A two-stage deadline in simulated nanoseconds, relative to query start.
///
/// Crossing `soft_ns` flips the plan into the existing §5.4.6 fallback mode
/// (degrade: keep answering with bounded S); crossing `hard_ns` aborts the
/// query with [`crate::ExecError::DeadlineExceeded`]. `hard_ns` is clamped
/// to be no earlier than `soft_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Degrade threshold (sim-ns after query start).
    pub soft_ns: u64,
    /// Abort threshold (sim-ns after query start), `>= soft_ns`.
    pub hard_ns: u64,
}

impl Deadline {
    /// A two-stage deadline; `hard_ns` is clamped up to at least `soft_ns`.
    pub fn new(soft_ns: u64, hard_ns: u64) -> Self {
        Self {
            soft_ns,
            hard_ns: hard_ns.max(soft_ns),
        }
    }

    /// A single-stage deadline: degrade and abort at the same instant
    /// (the soft stage never observably fires before the hard one).
    pub fn hard_only(hard_ns: u64) -> Self {
        Self::new(hard_ns, hard_ns)
    }
}

/// Everything the governor may hold against one query. The default budget is
/// unlimited: no deadline — executing under it is behaviorally identical
/// to executing ungoverned.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Optional two-stage sim-time deadline.
    pub deadline: Option<Deadline>,
}

impl QueryBudget {
    /// No deadline: governance off.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Budget with a two-stage deadline.
    pub fn with_deadline(soft_ns: u64, hard_ns: u64) -> Self {
        Self {
            deadline: Some(Deadline::new(soft_ns, hard_ns)),
        }
    }
}

/// Batch-level outcome tally produced by the governed executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorReport {
    /// Items the admission controller let in.
    pub admitted: u64,
    /// Items shed with `ExecError::Overloaded` before execution.
    pub shed: u64,
    /// Admitted items that completed in fallback mode after their soft
    /// deadline — answers are still correct.
    pub degraded: u64,
    /// Admitted items aborted at the hard deadline.
    pub deadline_aborted: u64,
    /// Always 0: nothing cancels a query. Kept only because perfbench sums
    /// it, like [`crate::batch::ConcurrentRun`], and the pinned `Display`
    /// line of `tests/sim_fingerprint.rs` prints it; it goes when those
    /// stop naming it.
    pub canceled: u64,
}

impl std::fmt::Display for GovernorReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "governor: admitted {} shed {} degraded {} deadline-aborted {} canceled {}",
            self.admitted, self.shed, self.degraded, self.deadline_aborted, self.canceled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_clamps_hard_to_soft() {
        let d = Deadline::new(100, 50);
        assert_eq!(d.soft_ns, 100);
        assert_eq!(d.hard_ns, 100);
        let h = Deadline::hard_only(70);
        assert_eq!((h.soft_ns, h.hard_ns), (70, 70));
    }

    #[test]
    fn unlimited_budget_has_no_limits() {
        let b = QueryBudget::unlimited();
        assert!(b.deadline.is_none());
    }
}
