//! `XSchedule` / `XSchedule^R` (paper §5.3.4, §5.4.4): the single operator
//! performing all physical cluster accesses for a path, using
//! **asynchronous I/O**.
//!
//! All pending cluster visits live in the queue `Q`, which is shared with
//! the `XAssembly` operator at the top of the plan (XAssembly feeds the
//! targets of right-incomplete instances back into `Q`). Every entry's
//! cluster access is submitted to the device's asynchronous queue the
//! moment it enters `Q`, so the lower layers — in our substrate the
//! simulated disk's SSTF command queue — always see the full set
//! of outstanding requests and are free to reorder them.
//!
//! When `speculative` is set (§5.4.4) the operator additionally produces
//! left-incomplete path instances for every border node of each visited
//! cluster, so that no cluster has to be visited twice.

use crate::context::ExecCtx;
use crate::instance::{Pi, REnd};
use crate::ops::{ClusterEmit, Operator};
use pathix_storage::PageId;
use pathix_tree::{Cluster, IdSet, NodeId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// One pending cluster visit. The derived ordering — cluster id first,
/// step second — is the paper's lexicographic queue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QEntry {
    /// Cluster to visit.
    pub page: PageId,
    /// `S_R` of the pending instance.
    pub sr: u16,
    /// Entry slot within the cluster (context node or border companion).
    pub slot: u16,
    /// Whether navigation resumes at the slot (border companion) or starts
    /// fresh (context node).
    pub resume: bool,
    /// `S_L` of the pending instance.
    pub sl: u16,
    /// `N_L` of the pending instance.
    pub nl: NodeId,
    /// Left-incompleteness of the pending instance.
    pub li: bool,
}

/// Within-page portion of a [`QEntry`], in the paper's lexicographic queue
/// order (step `S_R` first). Keying `Q` by page and then by this tuple
/// preserves the exact iteration order of the former flat
/// `BTreeSet<QEntry>`.
type QKey = (u16, u16, bool, u16, NodeId, bool);

fn qkey(e: QEntry) -> QKey {
    (e.sr, e.slot, e.resume, e.sl, e.nl, e.li)
}

fn qentry(page: PageId, k: QKey) -> QEntry {
    let (sr, slot, resume, sl, nl, li) = k;
    QEntry {
        page,
        sr,
        slot,
        resume,
        sl,
        nl,
        li,
    }
}

/// The queue `Q` shared between `XSchedule` and `XAssembly`, keyed by page:
/// dedup on `push`, `pop_for_page`, and the page-membership probes are all
/// O(log |Q|) map operations instead of scans over unrelated entries.
#[derive(Debug, Default)]
pub struct SchedShared {
    q: BTreeMap<PageId, BTreeSet<QKey>>,
    /// Total entries across all pages (every per-page set is non-empty).
    entries: usize,
    /// Clusters for which speculative instances were already generated.
    visited: IdSet<PageId>,
    /// Whether the owning `XSchedule` runs speculatively; lets `XAssembly`
    /// skip queueing visits to clusters whose speculative instances
    /// already cover the continuation (the §5.4.4 no-revisit guarantee).
    speculative: bool,
}

impl SchedShared {
    /// Inserts an entry; returns false if it was already queued.
    pub fn push(&mut self, e: QEntry) -> bool {
        let inserted = self.q.entry(e.page).or_default().insert(qkey(e));
        if inserted {
            self.entries += 1;
        }
        inserted
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if `Q` is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    fn pop_for_page(&mut self, page: PageId) -> Option<QEntry> {
        let set = self.q.get_mut(&page)?;
        let first = *set.iter().next()?;
        set.remove(&first);
        if set.is_empty() {
            self.q.remove(&page);
        }
        self.entries -= 1;
        Some(qentry(page, first))
    }

    /// True if at least one entry targets `page`.
    fn contains_page(&self, page: PageId) -> bool {
        self.q.contains_key(&page)
    }

    /// The lowest-numbered page with a queued entry.
    fn first_page(&self) -> Option<PageId> {
        self.q.keys().next().copied()
    }

    /// True if the plan speculates and `page`'s speculative instances were
    /// already generated — visiting it again is unnecessary.
    pub fn covered_by_speculation(&self, page: PageId) -> bool {
        self.speculative && self.visited.contains(&page)
    }

    fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.q.keys().copied()
    }

    /// All entries in queue order (page, then within-page key).
    #[cfg(test)]
    fn entries_in_order(&self) -> impl Iterator<Item = QEntry> + '_ {
        self.q
            .iter()
            .flat_map(|(&page, set)| set.iter().map(move |&k| qentry(page, k)))
    }
}

/// The asynchronous-I/O-performing operator.
pub struct XSchedule {
    producer: Box<dyn Operator>,
    /// Desired minimum queue size `k` (paper default: 100).
    k: usize,
    /// Generate left-incomplete instances to prevent cluster revisits
    /// (§5.4.4).
    speculative: bool,
    path_len: u16,
    shared: Rc<RefCell<SchedShared>>,
    current: Option<Arc<Cluster>>,
    /// The current cluster's speculative instances still to come.
    emit: ClusterEmit,
    producer_done: bool,
}

impl XSchedule {
    /// Creates the operator. `shared` must be the same handle given to the
    /// plan's `XAssembly`.
    pub fn new(
        producer: Box<dyn Operator>,
        shared: Rc<RefCell<SchedShared>>,
        k: usize,
        speculative: bool,
        path_len: u16,
    ) -> Self {
        shared.borrow_mut().speculative = speculative;
        Self {
            producer,
            k: k.max(1),
            speculative,
            path_len,
            shared,
            current: None,
            emit: ClusterEmit::default(),
            producer_done: false,
        }
    }

    /// Queues a cluster visit and submits the asynchronous read.
    /// Shared logic for producer input and XAssembly feedback.
    pub fn enqueue(cx: &ExecCtx<'_>, shared: &Rc<RefCell<SchedShared>>, e: QEntry) {
        cx.charge_queue_op();
        if shared.borrow_mut().push(e) {
            cx.stats.q_pushes.set(cx.stats.q_pushes.get() + 1);
            cx.store.buffer.prefetch(e.page);
        }
    }

    fn resolve(&self, cx: &ExecCtx<'_>, e: QEntry, cluster: Arc<Cluster>) -> Pi {
        cx.charge_instance();
        let nr = if e.resume {
            REnd::Entry {
                cluster,
                slot: e.slot,
            }
        } else {
            let order = cluster.node(e.slot).order;
            REnd::Core {
                cluster,
                slot: e.slot,
                order,
            }
        };
        Pi::band(e.sl, e.nl, e.sr, nr, e.li)
    }

    fn generate_speculative(&mut self, cx: &ExecCtx<'_>, cluster: &Arc<Cluster>) {
        if !self.speculative || cx.in_fallback() || self.path_len == 0 {
            return;
        }
        if !self.shared.borrow_mut().visited.insert(cluster.page) {
            return;
        }
        self.emit = ClusterEmit::new(cx, Arc::clone(cluster), Vec::new(), self.path_len);
    }
}

impl Operator for XSchedule {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        loop {
            // Governor checkpoint: an unrecovered read error or a passed
            // hard deadline aborts the plan — stop emitting so the
            // pipeline winds down and the executor can surface it.
            if cx.interrupted() {
                self.emit = ClusterEmit::default();
                self.current = None;
                return None;
            }
            if let Some(pi) = self.emit.next() {
                return Some(pi);
            }
            // Replenish Q from the producer up to the desired minimum k.
            if !self.producer_done {
                while self.shared.borrow().len() < self.k {
                    match self.producer.next(cx) {
                        Some(p) => {
                            let id = p.nr.node_id();
                            debug_assert_eq!(p.sr, 0, "producer feeds context nodes");
                            Self::enqueue(
                                cx,
                                &self.shared,
                                QEntry {
                                    page: id.page,
                                    sr: 0,
                                    slot: id.slot,
                                    resume: false,
                                    sl: 0,
                                    nl: p.nl,
                                    li: false,
                                },
                            );
                        }
                        None => {
                            self.producer_done = true;
                            break;
                        }
                    }
                }
            }
            // Serve remaining entries of the current cluster first.
            if let Some(cl) = &self.current {
                let entry = self.shared.borrow_mut().pop_for_page(cl.page);
                match entry {
                    Some(e) => {
                        cx.charge_queue_op();
                        let cl = cl.clone();
                        return Some(self.resolve(cx, e, cl));
                    }
                    None => self.current = None,
                }
            }
            if self.shared.borrow().is_empty() {
                if self.producer_done {
                    return None;
                }
                continue; // replenish more
            }
            // Pick the next cluster: prefer one already in the buffer, then
            // whatever the device completes first.
            let resident = self
                .shared
                .borrow()
                .pages()
                .find(|&p| cx.store.buffer.is_resident(p));
            let cluster = match resident {
                Some(p) => cx.store.checked_fix(p)?,
                None => match cx.store.buffer.fix_any_prefetched(true) {
                    Some((p, cl)) => {
                        let needed = self.shared.borrow().contains_page(p);
                        if !needed {
                            // Stale completion: the cluster stays cached for
                            // later hits, but nothing to serve from it now.
                            continue;
                        }
                        cl
                    }
                    None => {
                        // Nothing in flight (entries whose pages were
                        // resident at enqueue time but evicted since):
                        // read synchronously. Q was checked non-empty
                        // above; if it drained concurrently, loop back to
                        // the emptiness check instead of panicking.
                        let first = self.shared.borrow().first_page();
                        match first {
                            Some(p) => cx.store.checked_fix(p)?,
                            None => continue,
                        }
                    }
                },
            };
            self.generate_speculative(cx, &cluster);
            self.current = Some(cluster);
        }
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::ops::testutil::{drain, mem_store, sample_doc};
    use crate::ops::ContextSource;
    use pathix_tree::Placement;

    fn shared() -> Rc<RefCell<SchedShared>> {
        Rc::new(RefCell::new(SchedShared::default()))
    }

    #[test]
    fn queue_orders_by_page_then_step() {
        let mut q = SchedShared::default();
        let e = |page, sr, slot| QEntry {
            page,
            sr,
            slot,
            resume: true,
            sl: 0,
            nl: NodeId::new(0, 0),
            li: false,
        };
        q.push(e(5, 1, 0));
        q.push(e(2, 3, 0));
        q.push(e(2, 1, 0));
        q.push(e(5, 0, 1));
        let order: Vec<(PageId, u16)> = q.entries_in_order().map(|x| (x.page, x.sr)).collect();
        assert_eq!(order, vec![(2, 1), (2, 3), (5, 0), (5, 1)]);
        assert_eq!(q.pop_for_page(2).unwrap().sr, 1);
        assert_eq!(q.pop_for_page(2).unwrap().sr, 3);
        assert!(q.pop_for_page(2).is_none());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn duplicate_entries_collapse() {
        let mut q = SchedShared::default();
        let e = QEntry {
            page: 1,
            sr: 0,
            slot: 0,
            resume: false,
            sl: 0,
            nl: NodeId::new(0, 0),
            li: false,
        };
        assert!(q.push(e));
        assert!(!q.push(e));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn emits_context_instances_with_swizzled_ends() {
        let doc = sample_doc();
        let store = mem_store(&doc, 512, Placement::Shuffled { seed: 4 });
        let cx = ExecCtx::new(&store, None);
        let src = ContextSource::new(vec![store.root()]);
        let mut sched = XSchedule::new(Box::new(src), shared(), 100, false, 2);
        let got = drain(&mut sched, &cx);
        assert_eq!(got.len(), 1);
        match &got[0].nr {
            REnd::Core { cluster, slot, .. } => {
                assert_eq!(cluster.id(*slot), store.root());
            }
            other => panic!("expected swizzled core end, got {other:?}"),
        }
    }

    #[test]
    fn serves_feedback_entries_pushed_by_consumer() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 4 });
        let cx = ExecCtx::new(&store, None);
        let sh = shared();
        let src = ContextSource::new(vec![store.root()]);
        let mut sched = XSchedule::new(Box::new(src), Rc::clone(&sh), 100, false, 2);
        // Drain the context, then push a feedback entry like XAssembly does.
        let first = sched.next(&cx).expect("context");
        assert_eq!(first.sr, 0);
        assert!(sched.next(&cx).is_none(), "queue drained");
        // Find some other page to visit.
        let target_page = store.meta.base_page + 1;
        XSchedule::enqueue(
            &cx,
            &sh,
            QEntry {
                page: target_page,
                sr: 1,
                slot: 0,
                resume: true,
                sl: 0,
                nl: store.root(),
                li: false,
            },
        );
        let resumed = sched.next(&cx).expect("feedback entry served");
        assert_eq!(resumed.sr, 1);
        assert!(matches!(resumed.nr, REnd::Entry { .. }));
        assert!(sched.next(&cx).is_none());
    }

    #[test]
    fn speculative_generates_per_border_per_step() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let src = ContextSource::new(vec![store.root()]);
        let path_len = 3;
        let mut sched = XSchedule::new(Box::new(src), shared(), 100, true, path_len);
        let got = drain(&mut sched, &cx);
        let root_cluster = store.fix(store.root().page);
        let borders = root_cluster.border_slots().count();
        // One context instance + borders × path_len speculative instances.
        assert_eq!(got.len(), 1 + borders * path_len as usize);
        let (spec, ctx_instances): (Vec<_>, Vec<_>) = got.iter().partition(|p| p.li);
        assert_eq!(ctx_instances.len(), 1);
        assert_eq!(spec.len() as u64, cx.stats.speculative_generated.get());
        // Speculative instances have S_L = S_R and an Entry end.
        for p in spec {
            assert_eq!(p.sl, p.sr);
            assert!(matches!(p.nr, REnd::Entry { .. }));
        }
    }

    #[test]
    fn prefetches_are_submitted_for_queued_entries() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let sh = shared();
        for p in store.meta.page_range().skip(1).take(3) {
            XSchedule::enqueue(
                &cx,
                &sh,
                QEntry {
                    page: p,
                    sr: 0,
                    slot: 0,
                    resume: true,
                    sl: 0,
                    nl: store.root(),
                    li: false,
                },
            );
        }
        assert_eq!(store.buffer.stats().prefetches, 3);
        let src = ContextSource::new(vec![]);
        let mut sched = XSchedule::new(Box::new(src), sh, 100, false, 1);
        let got = drain(&mut sched, &cx);
        assert_eq!(got.len(), 3);
        assert_eq!(store.buffer.stats().async_loads, 3);
    }
}
