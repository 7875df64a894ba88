//! `XAssembly` / `XAssembly^R` (paper §5.3.3, §5.4.5): the topmost operator
//! of a path plan.
//!
//! Responsibilities:
//!
//! * return **full path instances** to the consumer, eliminating duplicate
//!   result nodes through the reachable-right-ends structure `R`;
//! * turn right-incomplete instances into cluster-visit requests on the
//!   shared queue `Q` (when an `XSchedule` is attached), deduplicating via
//!   `R` so no inter-cluster edge is traversed twice for the same step;
//! * hold **left-incomplete (speculative) instances** in `S` until their
//!   left end is proven reachable, then *fire* them — transitively — which
//!   may produce results or further cluster requests (§5.4.5.2);
//! * implement the `//` optimization (§5.4.5.4): for `XScan` plans whose
//!   path starts with `descendant-or-self::node()`, every left end at step
//!   1 counts as reachable without storing anything;
//! * enforce the memory limit on `S` and flip the plan into **fallback
//!   mode** (§5.4.6) when it is exceeded.

use crate::context::ExecCtx;
use crate::instance::{Pi, REnd};
use crate::ops::xschedule::{QEntry, SchedShared, XSchedule};
use crate::ops::Operator;
use pathix_tree::{IdMap, IdSet, NodeId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::rc::Rc;

/// Unswizzled right end stored in `S`.
#[derive(Debug, Clone, Copy)]
enum SEnd {
    /// Right-complete at `sr` (full when `sr == |π|`).
    Complete { id: NodeId, order: u64 },
    /// Right-incomplete; continuing requires visiting `target`'s cluster.
    Border { target: NodeId },
}

/// An instance parked in `S`. It is left-incomplete, and its left end is
/// the key of its chain; `next` is the next instance under that left end.
#[derive(Debug, Clone, Copy)]
struct SPi {
    sr: u16,
    end: SEnd,
    next: Option<NonZeroUsize>,
}

/// The assembly operator. Emits full path instances with `Done` right ends.
pub struct XAssembly {
    producer: Box<dyn Operator>,
    path_len: u16,
    sched: Option<Rc<RefCell<SchedShared>>>,
    /// Reachable right ends `R`: (step, node).
    r: IdSet<(u16, NodeId)>,
    /// Speculative instances `S`: each left end's (head, tail) chain in
    /// `s_arena`, which fires in insertion order.
    s: IdMap<(u16, NodeId), (usize, usize)>,
    /// Every instance inserted into `S` since it was last empty.
    s_arena: Vec<SPi>,
    /// Live instances in `S`.
    s_count: usize,
    /// Newly reachable ends whose dependent `S` entries must fire.
    fire: VecDeque<(u16, NodeId)>,
    out: VecDeque<Pi>,
    /// §5.4.5.4: left/right ends at this step are always reachable.
    all_reachable_step: Option<u16>,
}

impl XAssembly {
    /// Creates the operator. `sched` links back to the plan's `XSchedule`
    /// (or `None` for `XScan` plans).
    pub fn new(
        producer: Box<dyn Operator>,
        path_len: u16,
        sched: Option<Rc<RefCell<SchedShared>>>,
        all_reachable_step: Option<u16>,
    ) -> Self {
        Self {
            producer,
            path_len,
            sched,
            r: IdSet::default(),
            s: IdMap::default(),
            s_arena: Vec::new(),
            s_count: 0,
            fire: VecDeque::new(),
            out: VecDeque::new(),
            all_reachable_step,
        }
    }

    /// Current number of instances held in `S` (for tests/reports).
    pub fn s_len(&self) -> usize {
        self.s_count
    }

    fn end_reachable(&self, key: (u16, NodeId)) -> bool {
        self.all_reachable_step == Some(key.0) || self.r.contains(&key)
    }

    /// Processes a (proven-reachable) right end.
    fn note_right(&mut self, cx: &ExecCtx<'_>, sl: u16, nl: NodeId, li: bool, sr: u16, end: SEnd) {
        match end {
            SEnd::Complete { id, order } => {
                if sr == self.path_len {
                    cx.charge_set_op();
                    if self.r.insert((sr, id)) {
                        cx.stats.r_inserts.set(cx.stats.r_inserts.get() + 1);
                        cx.charge_instance();
                        self.out.push_back(Pi::result(sr, id, order));
                    }
                } else {
                    // Right-complete mid-path ends are normally consumed by
                    // the next XStep; treat defensively as a reachable end.
                    cx.charge_set_op();
                    if self.r.insert((sr, id)) {
                        cx.stats.r_inserts.set(cx.stats.r_inserts.get() + 1);
                        self.fire.push_back((sr, id));
                    }
                }
            }
            SEnd::Border { target } => {
                let key = (sr, target);
                if self.all_reachable_step == Some(sr) {
                    // `//` + XScan: ends at this step need no bookkeeping.
                    return;
                }
                cx.charge_set_op();
                if self.r.insert(key) {
                    cx.stats.r_inserts.set(cx.stats.r_inserts.get() + 1);
                    self.fire.push_back(key);
                    if let Some(sched) = &self.sched {
                        // §5.4.4: under speculation, a cluster that was
                        // already visited needs no second visit — its
                        // speculative instances cover this continuation
                        // (unless fallback discarded S).
                        let covered =
                            !cx.in_fallback() && sched.borrow().covered_by_speculation(target.page);
                        if !covered {
                            XSchedule::enqueue(
                                cx,
                                sched,
                                QEntry {
                                    page: target.page,
                                    sr,
                                    slot: target.slot,
                                    resume: true,
                                    sl,
                                    nl,
                                    li,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    fn fire_pending(&mut self, cx: &ExecCtx<'_>) {
        while let Some(key) = self.fire.pop_front() {
            cx.charge_set_op();
            let mut next = self.s.remove(&key).map(|(head, _)| head);
            while let Some(&x) = next.and_then(|i| self.s_arena.get(i)) {
                self.s_count -= 1;
                next = x.next.map(NonZeroUsize::get);
                self.note_right(cx, key.0, key.1, true, x.sr, x.end);
            }
            if self.s_count == 0 {
                self.s_arena.clear();
            }
        }
    }

    /// Appends an instance to the chain of its left end `lkey` in `S`.
    fn s_insert(&mut self, lkey: (u16, NodeId), sr: u16, end: SEnd) {
        let at = self.s_arena.len();
        // A new chain's tail is `at` itself, which is not in the arena yet;
        // any other tail lies before `at`, so `at` is never 0 there.
        let (_, tail) = self.s.entry(lkey).or_insert((at, at));
        if let Some(prev) = self.s_arena.get_mut(*tail) {
            prev.next = NonZeroUsize::new(at);
        }
        *tail = at;
        self.s_arena.push(SPi {
            sr,
            end,
            next: None,
        });
        self.s_count += 1;
    }

    fn unswizzle(p: &Pi) -> Option<SEnd> {
        match &p.nr {
            REnd::Core {
                cluster,
                slot,
                order,
            } => Some(SEnd::Complete {
                id: cluster.id(*slot),
                order: *order,
            }),
            REnd::Done { id, order } => Some(SEnd::Complete {
                id: *id,
                order: *order,
            }),
            REnd::Border { target, .. } => Some(SEnd::Border { target: *target }),
            // Entry/Cold ends never surface at the top of a well-formed
            // plan: Entry ends are always consumed by their XStep.
            REnd::Entry { .. } | REnd::Cold { .. } => None,
        }
    }

    fn enter_fallback(&mut self) {
        // §5.4.6: discard S; only the duplicate-elimination structures stay.
        self.s.clear();
        self.s_arena.clear();
        self.s_count = 0;
    }
}

impl Operator for XAssembly {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        loop {
            // Governor checkpoint: a recorded read error or a passed hard
            // deadline winds the assembly down — the executor
            // surfaces the cause, so emitting further results is pointless.
            if cx.interrupted() {
                self.out.clear();
                return None;
            }
            if let Some(pi) = self.out.pop_front() {
                return Some(pi);
            }
            self.fire_pending(cx);
            if let Some(pi) = self.out.pop_front() {
                return Some(pi);
            }
            let Some(p) = self.producer.next(cx) else {
                // Producer exhausted and nothing left to fire: whatever
                // remains in S is unreachable.
                return None;
            };
            debug_assert!(p.validate(self.path_len).is_ok(), "{p:?}");
            let Some(end) = Self::unswizzle(&p) else {
                debug_assert!(false, "unexpected end at XAssembly: {p:?}");
                continue;
            };
            if !p.li {
                self.note_right(cx, p.sl, p.nl, p.li, p.sr, end);
            } else {
                let lkey = (p.sl, p.nl);
                cx.charge_set_op();
                if self.end_reachable(lkey) {
                    self.note_right(cx, p.sl, p.nl, p.li, p.sr, end);
                } else if !cx.in_fallback() {
                    self.s_insert(lkey, p.sr, end);
                    cx.stats.s_inserts.set(cx.stats.s_inserts.get() + 1);
                    if cx.note_s_size(self.s_count) {
                        self.enter_fallback();
                    }
                }
                // In fallback mode unproven speculative instances are
                // dropped: the plan re-derives results exhaustively.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{drain, mem_store, sample_doc};
    use pathix_tree::Placement;

    struct Feed(Vec<Pi>);
    impl Operator for Feed {
        fn next(&mut self, _cx: &ExecCtx<'_>) -> Option<Pi> {
            if self.0.is_empty() {
                None
            } else {
                Some(self.0.remove(0))
            }
        }
    }

    /// `sl > 0` test feeds mark themselves left-incomplete, matching the
    /// shapes the real operators produce.
    fn done(sl: u16, nl: NodeId, sr: u16, id: NodeId, order: u64) -> Pi {
        Pi {
            sl,
            nl,
            sr,
            nr: REnd::Done { id, order },
            li: sl > 0,
        }
    }

    fn border(sl: u16, nl: NodeId, sr: u16, target: NodeId) -> Pi {
        Pi {
            sl,
            nl,
            sr,
            nr: REnd::Border {
                proxy: NodeId::new(99, 99),
                target,
            },
            li: sl > 0,
        }
    }

    fn cx_for_tests(store: &pathix_tree::TreeStore) -> ExecCtx<'_> {
        ExecCtx::new(store, None)
    }

    #[test]
    fn full_instances_pass_through_deduplicated() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        let n = NodeId::new(1, 1);
        let feed = Feed(vec![
            done(0, NodeId::new(0, 0), 2, n, 7),
            done(0, NodeId::new(0, 0), 2, n, 7), // duplicate result node
            done(0, NodeId::new(0, 0), 2, NodeId::new(1, 2), 8),
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 2, None, None);
        let got = drain(&mut asm, &cx);
        let emitted: Vec<_> = got.iter().map(|p| (p.sr, p.nr.node_id())).collect();
        assert_eq!(
            emitted,
            vec![(2, n), (2, NodeId::new(1, 2))],
            "duplicates eliminated via R"
        );
    }

    #[test]
    fn speculative_instance_fires_when_left_end_reachable() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        let proxy_target = NodeId::new(5, 0);
        let result = NodeId::new(5, 3);
        // First a speculative instance: "if (1, 5:0) reachable, result at 2".
        // Then a right-incomplete real path making (1, 5:0) reachable.
        let feed = Feed(vec![
            done(1, proxy_target, 2, result, 42),
            border(0, NodeId::new(0, 0), 1, proxy_target),
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 2, None, None);
        let got = drain(&mut asm, &cx);
        assert_eq!(got.len(), 1, "fired speculative instance yields result");
        assert_eq!(got[0].nr.node_id(), result);
        assert_eq!(asm.s_len(), 0, "fired instances leave S");
    }

    #[test]
    fn firing_cascades_transitively() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        let a = NodeId::new(3, 0);
        let b = NodeId::new(4, 0);
        let result = NodeId::new(4, 7);
        // Chain: real path reaches border a at step1; spec instance says
        // a@1 → border b@2; another says b@2 → result@3.
        let feed = Feed(vec![
            done(2, b, 3, result, 9),
            border(1, a, 2, b),
            border(0, NodeId::new(0, 0), 1, a),
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 3, None, None);
        let got = drain(&mut asm, &cx);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].nr.node_id(), result);
    }

    #[test]
    fn s_fires_each_left_end_in_insertion_order() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let mut cx = cx_for_tests(&docstore);
        let (a, b, c) = (NodeId::new(3, 0), NodeId::new(4, 0), NodeId::new(5, 0));
        let root = NodeId::new(0, 0);
        let r = |slot| NodeId::new(7, slot);
        // Speculative instances under a@1 and b@1 interleave; one of a's
        // continues at border c@2, whose own instance waits under c@2.
        let feed = Feed(vec![
            done(1, a, 3, r(1), 1),
            done(1, b, 3, r(2), 2),
            border(1, a, 2, c),
            done(1, a, 3, r(3), 3),
            done(2, c, 3, r(4), 4),
            done(1, b, 3, r(5), 5),
            done(1, a, 3, r(6), 6),
            border(0, root, 1, a),
            border(0, root, 1, b),
            done(1, NodeId::new(9, 0), 3, r(7), 7),
            done(1, NodeId::new(9, 1), 3, r(8), 8),
            done(1, NodeId::new(9, 2), 3, r(9), 9),
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 3, None, None);
        let mut got = Vec::new();
        for _ in 0..6 {
            got.push(asm.next(&cx).expect("six results").nr.node_id().slot);
        }
        // a's chain in insertion order, the cascade through c@2, then b's.
        assert_eq!(got, [1, 3, 6, 4, 2, 5]);
        assert_eq!(asm.s_len(), 0);
        assert!(asm.s.is_empty() && asm.s_arena.is_empty(), "S emptied");
        assert_eq!(cx.stats.s_peak.get(), 7);
        // Three unreachable instances then overflow a limit of two.
        cx.mem_limit = Some(2);
        assert!(asm.next(&cx).is_none());
        assert!(cx.in_fallback());
        assert_eq!(asm.s_len(), 0);
        assert!(
            asm.s.is_empty() && asm.s_arena.is_empty(),
            "fallback discards S"
        );
    }

    #[test]
    fn unreachable_speculation_stays_unfired() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        let feed = Feed(vec![done(1, NodeId::new(9, 0), 2, NodeId::new(9, 1), 1)]);
        let mut asm = XAssembly::new(Box::new(feed), 2, None, None);
        let got = drain(&mut asm, &cx);
        assert!(got.is_empty());
        assert_eq!(asm.s_len(), 1, "unproven instance remains in S");
    }

    #[test]
    fn all_reachable_step_skips_storage() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        // With the // optimization, a left end at step 1 fires immediately
        // even though nothing was recorded in R.
        let feed = Feed(vec![done(1, NodeId::new(9, 0), 2, NodeId::new(9, 1), 1)]);
        let mut asm = XAssembly::new(Box::new(feed), 2, None, Some(1));
        let got = drain(&mut asm, &cx);
        assert_eq!(got.len(), 1);
        assert_eq!(asm.s_len(), 0);
    }

    #[test]
    fn borders_feed_the_schedule_queue() {
        let docstore = mem_store(&sample_doc(), 256, Placement::Sequential);
        assert!(docstore.meta.page_count > 1);
        let cx = cx_for_tests(&docstore);
        let shared = Rc::new(RefCell::new(SchedShared::default()));
        let target = NodeId::new(docstore.meta.base_page + 1, 0);
        let feed = Feed(vec![
            border(0, NodeId::new(0, 0), 1, target),
            border(0, NodeId::new(0, 0), 1, target), // same edge twice
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 2, Some(Rc::clone(&shared)), None);
        let got = drain(&mut asm, &cx);
        assert!(got.is_empty());
        assert_eq!(shared.borrow().len(), 1, "edge queued once (dedup via R)");
        assert_eq!(cx.stats.q_pushes.get(), 1);
    }

    #[test]
    fn memory_limit_triggers_fallback_and_discards_s() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let mut cx = cx_for_tests(&docstore);
        cx.mem_limit = Some(2);
        let feed = Feed(vec![
            done(1, NodeId::new(9, 0), 2, NodeId::new(9, 1), 1),
            done(1, NodeId::new(9, 2), 2, NodeId::new(9, 3), 2),
            done(1, NodeId::new(9, 4), 2, NodeId::new(9, 5), 3),
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 2, None, None);
        let got = drain(&mut asm, &cx);
        assert!(got.is_empty());
        assert!(cx.in_fallback());
        assert_eq!(asm.s_len(), 0, "S discarded on fallback");
    }
}
