//! Execution context: counters, the charges of the physical algebra, the
//! fallback switch and the per-query governor state shared by all
//! operators of one plan.

use crate::error::ExecError;
use crate::governor::QueryBudget;
use pathix_storage::cost::{INSTANCE_NS, QUEUE_OP_NS, SET_OP_NS};
use pathix_storage::{IoError, IoErrorKind, SimClock};
use pathix_tree::{NavCharge, NavCounters, NavParams, TreeStore};
use std::cell::Cell;

/// Counters accumulated during one execution.
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Path instances that flowed between operators.
    pub instances: Cell<u64>,
    /// Entries inserted into the reachable-ends structure `R`.
    pub r_inserts: Cell<u64>,
    /// Speculative instances stored in `S`.
    pub s_inserts: Cell<u64>,
    /// Peak size of `S`.
    pub s_peak: Cell<u64>,
    /// Entries pushed to the schedule queue `Q`.
    pub q_pushes: Cell<u64>,
    /// Speculative left-incomplete instances generated by the I/O operator.
    pub speculative_generated: Cell<u64>,
}

/// Shared execution context handed to every operator call.
pub struct ExecCtx<'a> {
    /// The store being queried.
    pub store: &'a TreeStore,
    /// Navigation counters (nodes visited, tests, borders).
    pub nav_counters: NavCounters,
    /// Algebra counters.
    pub stats: ExecStats,
    /// Maximum number of instances `S` may hold before the plan reverts to
    /// fallback mode (`None` = unlimited).
    pub mem_limit: Option<usize>,
    /// Fallback switch (§5.4.6): once set, `XStep` treats every end as
    /// unswizzled, so its steps cross borders with synchronous I/O as in
    /// the Simple method, and the I/O operators stop speculating.
    pub fallback: Cell<bool>,
    /// Governor state; `None` for ungoverned execution (the default — every
    /// checkpoint then reduces to the check for a recorded I/O error).
    gov: Option<GovState>,
}

/// Per-query governor state: absolute sim-time deadlines.
struct GovState {
    /// Absolute sim-time of the soft (degrade) stage.
    soft_ns: Option<u64>,
    /// Absolute sim-time of the hard (abort) stage.
    hard_ns: Option<u64>,
    /// Sim-time at query start (for `DeadlineExceeded::elapsed`).
    t0_ns: u64,
    /// Device reads at query start (for `DeadlineExceeded::page_reads`).
    reads0: u64,
    /// A checkpoint saw the hard deadline pass; sticky.
    abort: Cell<bool>,
    /// The query degraded at its soft deadline — distinct from a plain
    /// `mem_limit` fallback.
    degraded: Cell<bool>,
}

impl<'a> ExecCtx<'a> {
    /// Creates an ungoverned context.
    pub fn new(store: &'a TreeStore, mem_limit: Option<usize>) -> Self {
        Self {
            store,
            nav_counters: NavCounters::default(),
            stats: ExecStats::default(),
            mem_limit,
            fallback: Cell::new(false),
            gov: None,
        }
    }

    /// Creates a governed context: `budget`'s deadlines are anchored at the
    /// current sim-time. Arms the buffer's governor gate at the hard
    /// deadline: past it no further device I/O is issued and retry backoff
    /// is clamped, even between operator checkpoints. The executor's
    /// epilogue (`governor_verdict`) disarms it.
    pub fn with_budget(
        store: &'a TreeStore,
        mem_limit: Option<usize>,
        budget: &QueryBudget,
    ) -> Self {
        let t0 = store.clock().now_ns();
        let hard_ns = budget.deadline.map(|d| t0.saturating_add(d.hard_ns));
        store.buffer.set_io_deadline(hard_ns);
        Self {
            gov: Some(GovState {
                soft_ns: budget.deadline.map(|d| t0.saturating_add(d.soft_ns)),
                hard_ns,
                t0_ns: t0,
                reads0: store.buffer.device_stats().reads,
                abort: Cell::new(false),
                degraded: Cell::new(false),
            }),
            ..Self::new(store, mem_limit)
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        self.store.clock()
    }

    /// Charging handle for navigation cursors.
    pub fn nav_charge(&self) -> NavCharge<'_> {
        NavCharge {
            clock: self.clock(),
            params: NavParams::default(),
            counters: &self.nav_counters,
        }
    }

    /// Charges one `R`/`S` structure operation.
    #[inline]
    pub fn charge_set_op(&self) {
        self.clock().charge_cpu(SET_OP_NS);
    }

    /// Charges one queue operation.
    #[inline]
    pub fn charge_queue_op(&self) {
        self.clock().charge_cpu(QUEUE_OP_NS);
    }

    /// Charges the creation/forwarding of one path instance.
    #[inline]
    pub fn charge_instance(&self) {
        self.charge_instances(1);
    }

    /// Charges the creation of `n` path instances at once.
    #[inline]
    pub(crate) fn charge_instances(&self, n: u64) {
        self.stats.instances.set(self.stats.instances.get() + n);
        self.clock().charge_cpu(INSTANCE_NS * n);
    }

    /// True once the plan has switched to fallback mode.
    #[inline]
    pub fn in_fallback(&self) -> bool {
        self.fallback.get()
    }

    /// The governor checkpoint, called at operator loop tops and queue pops
    /// (the declared sites of lint rule R7). True once the plan must wind
    /// down — because an I/O error was recorded or the query's hard
    /// deadline passed. Crossing the *soft* deadline
    /// does not interrupt: it flips the §5.4.6 fallback switch and the plan
    /// keeps answering, degraded.
    ///
    /// Ungoverned contexts pay one `Option` check on top of the recorded-
    /// error flag — no clock reads, no behavior change.
    #[inline]
    pub fn interrupted(&self) -> bool {
        if let Some(g) = &self.gov {
            if self.governor_trip(g) {
                return true;
            }
        }
        self.store.io_failed()
    }

    /// Slow path of [`Self::interrupted`]: checks the sim-clock against
    /// both deadline stages and records a hard-stage abort. The buffer's
    /// I/O gate needs no arming here: it refuses device access from the
    /// same instant on, as `with_budget` set it to the same deadline.
    fn governor_trip(&self, g: &GovState) -> bool {
        if g.abort.get() {
            return true;
        }
        let now = self.clock().now_ns();
        if g.hard_ns.is_some_and(|hard| now >= hard) {
            g.abort.set(true);
            return true;
        }
        if g.soft_ns.is_some_and(|soft| now >= soft) && !self.fallback.get() {
            // Soft stage: degrade into fallback, keep going.
            self.fallback.set(true);
            g.degraded.set(true);
        }
        false
    }

    /// Records that `S` grew to `len`; triggers fallback when the per-query
    /// memory limit is exceeded. Returns true if fallback was just
    /// triggered (the caller then clears `S`).
    pub fn note_s_size(&self, len: usize) -> bool {
        let peak = self.stats.s_peak.get().max(len as u64);
        self.stats.s_peak.set(peak);
        if self.fallback.get() || self.mem_limit.is_none_or(|limit| len <= limit) {
            return false;
        }
        self.fallback.set(true);
        true
    }

    /// Whether a checkpoint aborted this query at its hard deadline.
    pub(crate) fn governor_abort(&self) -> bool {
        self.gov.as_ref().is_some_and(|g| g.abort.get())
    }

    /// Whether the governor degraded this query (soft deadline).
    pub(crate) fn governor_degraded(&self) -> bool {
        self.gov.as_ref().is_some_and(|g| g.degraded.get())
    }

    /// The governed epilogue, run on every exit path of a plan: disarms the
    /// buffer gate and returns the abort error if the
    /// governor stopped the query (draining its in-flight reads first).
    /// `recorded_io` is the store's recorded read error: a governor abort
    /// wins over the `Interrupted` error it may have produced at the gate,
    /// and if the gate refused a read but the plan wound down without
    /// another checkpoint, the budget itself classifies the abort.
    /// Ungoverned contexts return `None`.
    pub(crate) fn governor_verdict(&self, recorded_io: Option<&IoError>) -> Option<ExecError> {
        let g = self.gov.as_ref()?;
        let buffer = &self.store.buffer;
        buffer.set_io_deadline(None);
        let gate_refused = recorded_io.is_some_and(|e| e.kind == IoErrorKind::Interrupted);
        if !(self.governor_abort() || gate_refused) {
            return None;
        }
        buffer.drain_inflight();
        Some(ExecError::DeadlineExceeded {
            page_reads: buffer.device_stats().reads - g.reads0,
            elapsed: self.clock().now_ns().saturating_sub(g.t0_ns),
        })
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pathix_storage::{BufferParams, MemDevice, SimClock};
    use pathix_tree::{import_into, ImportConfig, Placement, TreeStore};
    use std::rc::Rc;

    fn tiny_store() -> TreeStore {
        let mut doc = pathix_xml::Document::new("r");
        doc.add_element(doc.root(), "a");
        let mut dev = MemDevice::new(1024);
        let (meta, _) = import_into(
            &mut dev,
            &doc,
            &ImportConfig {
                page_size: 1024,
                placement: Placement::Sequential,
            },
        )
        .unwrap();
        TreeStore::open(
            Box::new(dev),
            meta,
            BufferParams::default(),
            Rc::new(SimClock::new()),
        )
    }

    #[test]
    fn charges_accumulate_on_clock() {
        let store = tiny_store();
        let cx = ExecCtx::new(&store, None);
        let t0 = cx.clock().cpu_ns();
        cx.charge_set_op();
        cx.charge_queue_op();
        cx.charge_instance();
        let d = cx.clock().cpu_ns() - t0;
        assert_eq!(d, SET_OP_NS + QUEUE_OP_NS + INSTANCE_NS);
        assert_eq!(cx.stats.instances.get(), 1);
    }

    #[test]
    fn fallback_triggers_once_at_limit() {
        let store = tiny_store();
        let cx = ExecCtx::new(&store, Some(10));
        assert!(!cx.note_s_size(10));
        assert!(!cx.in_fallback());
        assert!(cx.note_s_size(11));
        assert!(cx.in_fallback());
        assert!(!cx.note_s_size(50), "fallback triggers only once");
        assert_eq!(cx.stats.s_peak.get(), 50);
        assert!(cx.in_fallback());
    }

    #[test]
    fn no_limit_never_falls_back() {
        let store = tiny_store();
        let cx = ExecCtx::new(&store, None);
        assert!(!cx.note_s_size(1_000_000));
        assert!(!cx.in_fallback());
    }

    #[test]
    fn ungoverned_interrupted_mirrors_io_failed() {
        let store = tiny_store();
        let cx = ExecCtx::new(&store, None);
        assert!(!cx.interrupted());
        assert!(!cx.governor_abort());
    }

    #[test]
    fn soft_deadline_degrades_then_hard_aborts() {
        let store = tiny_store();
        let budget = QueryBudget::with_deadline(1_000, 100_000);
        let cx = ExecCtx::with_budget(&store, None, &budget);
        assert!(!cx.interrupted(), "within both stages");
        store.clock().wait_until(store.clock().now_ns() + 2_000);
        assert!(!cx.interrupted(), "soft stage degrades, never aborts");
        assert!(cx.in_fallback());
        assert!(cx.governor_degraded());
        store.clock().wait_until(store.clock().now_ns() + 200_000);
        assert!(cx.interrupted());
        assert!(cx.governor_abort());
        // The hard trip must stop further I/O: the buffer's deadline gate
        // refuses the miss and drops the prefetch.
        let page = store.meta.root.page;
        let reads = store.buffer.device_stats().reads;
        let e = store.buffer.try_fix(page).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::Interrupted);
        store.buffer.prefetch(page);
        assert_eq!(store.buffer.in_flight(), 0);
        assert_eq!(store.buffer.device_stats().reads, reads);
        // The epilogue classifies the abort and disarms the gate.
        assert!(matches!(
            cx.governor_verdict(Some(&e)),
            Some(ExecError::DeadlineExceeded { .. })
        ));
        assert!(store.buffer.try_fix(page).is_ok());
    }
}
