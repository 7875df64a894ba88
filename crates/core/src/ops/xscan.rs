//! `XScan` (paper §5.4.3): the scan-based I/O operator.
//!
//! Visits **every cluster of the document exactly once**, in physical page
//! order, i.e. one sequential scan. For each cluster it emits
//!
//! 1. the context-node instances whose context lives in the cluster
//!    (contexts are materialized and grouped by cluster up front — the
//!    paper's "input sorted by cluster ID" requirement), and
//! 2. **speculative left-incomplete instances** `l_{b,i}` for every border
//!    node `b` and every step `i < |π|`, so that all information relevant
//!    to the path is extracted in this single visit — the cluster is never
//!    loaded again.
//!
//! A [`ClusterEmit`] hands these out one at a time, so no cluster's
//! instances are ever queued; the speculative `XSchedule` emits through the
//! same type.
//!
//! Several `XScan`s, one per path, may read one [`ScanCursor`], "a single
//! I/O-performing operator" for several location paths (§7).
//!
//! In fallback mode (§5.4.6) the operator leaves its cursor, restarts its
//! (materialized) producer and degrades to the identity: it re-emits context
//! nodes and the now-border-crossing `XStep` recomputes the full result,
//! deduplicated by `XAssembly`'s surviving `R` structure.

use crate::context::ExecCtx;
use crate::instance::Pi;
use crate::ops::Operator;
use pathix_storage::PageId;
use pathix_tree::{Cluster, IdMap, NodeId};
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// What one scanned cluster contributes to a path of `path_len` steps,
/// handed out one instance at a time: an instance for each context stored
/// in the cluster, then a speculative instance `l_{b,i}` for every border
/// node `b` and every step `i < path_len`, border by border.
///
/// All of them are charged when the emitter is made, that is when the page
/// is scanned. The emitter pins the cluster only while some of its
/// instances are still to come: the last one takes the emitter's own
/// `Arc`, and a cluster that contributes nothing is not kept at all.
#[derive(Default)]
pub(crate) struct ClusterEmit {
    /// The scanned cluster; `None` once its last instance is out.
    cluster: Option<Arc<Cluster>>,
    /// Contexts stored in the cluster, handed out first, in order.
    contexts: std::vec::IntoIter<NodeId>,
    /// Slot where the search for the current border node starts.
    slot: usize,
    /// Step of the next speculative instance at the current border.
    step: u16,
    path_len: u16,
    /// Instances still to be handed out.
    left: usize,
}

impl ClusterEmit {
    /// Charges and prepares what `cluster` contributes: `contexts` (all
    /// stored in it), then `path_len` speculative instances per border.
    pub(crate) fn new(
        cx: &ExecCtx<'_>,
        cluster: Arc<Cluster>,
        contexts: Vec<NodeId>,
        path_len: u16,
    ) -> Self {
        let speculative = cluster.border_slots().count() * usize::from(path_len);
        let left = contexts.len() + speculative;
        cx.charge_instances(left as u64);
        let generated = &cx.stats.speculative_generated;
        generated.set(generated.get() + speculative as u64);
        Self {
            cluster: (left > 0).then_some(cluster),
            contexts: contexts.into_iter(),
            slot: 0,
            step: 0,
            path_len,
            left,
        }
    }

    /// The next instance, or `None` once the cluster's are all out.
    pub(crate) fn next(&mut self) -> Option<Pi> {
        self.left = self.left.checked_sub(1)?;
        let cluster = if self.left == 0 {
            self.cluster.take()?
        } else {
            Arc::clone(self.cluster.as_ref()?)
        };
        if let Some(id) = self.contexts.next() {
            let order = cluster.node(id.slot).order;
            return Some(Pi::swizzled_context(cluster, id.slot, order));
        }
        if self.step == 0 {
            // Move on to the next border node.
            let found = cluster.nodes.get(self.slot..)?.iter();
            self.slot += found.take_while(|n| !n.kind.is_border()).count();
        }
        let (slot, step) = (self.slot as u16, self.step);
        self.step += 1;
        if self.step == self.path_len {
            (self.slot, self.step) = (self.slot + 1, 0);
        }
        Some(Pi::speculative(step, cluster, slot))
    }
}

/// The page cursor of a sequential scan: it fixes each page once, in
/// physical order, for every [`XScan`] that reads it. A reader that has
/// taken the current page waits (returns `None`) until all others took it;
/// the next to ask fixes the next page. A reader leaves when it enters
/// fallback, is interrupted or is dropped. A lone `XScan` is one reader.
#[derive(Clone, Default)]
pub struct ScanCursor(Rc<RefCell<CursorState>>);

#[derive(Default)]
struct CursorState {
    /// Pages still to be fixed.
    pages: Range<PageId>,
    /// The last page fixed, until all took it; `None` if its read failed.
    current: Option<Arc<Cluster>>,
    readers: usize,
    /// Readers that have still to take the current page.
    pending: usize,
}

impl ScanCursor {
    /// A cursor over `pages`, with no reader yet.
    pub fn new(pages: Range<PageId>) -> Self {
        let cursor = Self::default();
        cursor.0.borrow_mut().pages = pages;
        cursor
    }

    /// True while some reader has a page still to take.
    pub(crate) fn open(&self) -> bool {
        let state = self.0.borrow();
        state.pending > 0 || (state.readers > 0 && !state.pages.is_empty())
    }
}

impl CursorState {
    /// The next page for a reader whose first untaken page is `unread`, or
    /// `None` while the reader waits for the others and after the last.
    fn take(&mut self, unread: &mut PageId, cx: &ExecCtx<'_>) -> Option<Option<Arc<Cluster>>> {
        if *unread == self.pages.start {
            if self.pending > 0 {
                return None;
            }
            let page = self.pages.next()?;
            // A failed read records the error on the store.
            self.current = cx.store.checked_fix(page);
            self.pending = self.readers;
        }
        *unread = self.pages.start;
        Some(self.release())
    }

    /// A pending reader is done with the current page; the last one takes
    /// the cursor's handle on it, so the cursor pins no frame.
    fn release(&mut self) -> Option<Arc<Cluster>> {
        self.pending -= 1;
        if self.pending == 0 {
            self.current.take()
        } else {
            self.current.clone()
        }
    }
}

/// The sequential-scan I/O operator.
pub struct XScan {
    producer: Option<Box<dyn Operator>>,
    path_len: u16,
    /// The cursor this scan reads, until it leaves.
    cursor: Option<ScanCursor>,
    /// The first page not taken from the cursor.
    unread: PageId,
    ctx_by_page: IdMap<PageId, Vec<NodeId>>,
    all_contexts: Vec<NodeId>,
    /// What the last scanned cluster has still to hand out.
    emit: ClusterEmit,
    /// Fallback restart state.
    fb_pos: Option<usize>,
}

impl XScan {
    /// Creates a scan that reads `cursor`'s pages, from the next one it
    /// fixes on, together with the cursor's other readers.
    pub fn new(producer: Box<dyn Operator>, cursor: &ScanCursor, path_len: u16) -> Self {
        let mut state = cursor.0.borrow_mut();
        state.readers += 1;
        Self {
            producer: Some(producer),
            path_len,
            cursor: Some(cursor.clone()),
            unread: state.pages.start,
            ctx_by_page: IdMap::default(),
            all_contexts: Vec::new(),
            emit: ClusterEmit::default(),
            fb_pos: None,
        }
    }

    fn materialize_contexts(&mut self, cx: &ExecCtx<'_>) {
        let Some(mut producer) = self.producer.take() else {
            return;
        };
        while let Some(p) = producer.next(cx) {
            debug_assert_eq!(p.sr, 0, "XScan's producer feeds context nodes");
            let id = p.nr.node_id();
            self.ctx_by_page.entry(id.page).or_default().push(id);
            self.all_contexts.push(id);
        }
    }

    /// Stops scanning: no one waits for this reader any more.
    fn leave(&mut self) {
        self.emit = ClusterEmit::default();
        if let Some(cursor) = self.cursor.take() {
            let mut state = cursor.0.borrow_mut();
            state.readers -= 1;
            if self.unread < state.pages.start {
                state.release();
            }
        }
    }
}

impl Drop for XScan {
    fn drop(&mut self) {
        self.leave();
    }
}

impl Operator for XScan {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        self.materialize_contexts(cx);
        loop {
            // Governor checkpoint: an unrecovered read error or a passed
            // hard deadline aborts the plan — stop emitting so the
            // pipeline winds down and the executor can surface it.
            if cx.interrupted() {
                self.leave();
                return None;
            }
            if cx.in_fallback() && self.fb_pos.is_none() {
                // Restart as identity over the context nodes (§5.4.6).
                self.leave();
                self.fb_pos = Some(0);
            }
            if let Some(pi) = self.emit.next() {
                return Some(pi);
            }
            if let Some(fb) = &mut self.fb_pos {
                let &id = self.all_contexts.get(*fb)?;
                *fb += 1;
                let cluster = cx.store.checked_fix(id.page)?;
                let order = cluster.node(id.slot).order;
                cx.charge_instance();
                return Some(Pi::swizzled_context(cluster, id.slot, order));
            }
            let cursor = self.cursor.as_ref()?;
            let cluster = cursor.0.borrow_mut().take(&mut self.unread, cx)?;
            // After a failed read, the next turn's checkpoint winds down.
            if let Some(cluster) = cluster {
                let contexts = self.ctx_by_page.remove(&cluster.page).unwrap_or_default();
                self.emit = ClusterEmit::new(cx, cluster, contexts, self.path_len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::instance::REnd;
    use crate::ops::testutil::{drain, mem_store, sample_doc};
    use crate::ops::ContextSource;
    use pathix_tree::{Placement, TreeStore};
    use std::sync::Weak;

    /// A cursor over the whole document, for one reader.
    fn lone(store: &TreeStore) -> ScanCursor {
        ScanCursor::new(store.meta.page_range())
    }

    #[test]
    fn scans_every_page_exactly_once_in_order() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 2 });
        let cx = ExecCtx::new(&store, None);
        {
            let mut dev = store.buffer.device_mut();
            dev.set_trace(true);
        }
        let src = ContextSource::new(vec![store.root()]);
        let pages: Vec<PageId> = store.meta.page_range().collect();
        let mut scan = XScan::new(Box::new(src), &lone(&store), 2);
        let _ = drain(&mut scan, &cx);
        let dev = store.buffer.device_mut();
        let trace = dev.access_trace().to_vec();
        assert_eq!(trace, pages, "physical order, each page once");
    }

    #[test]
    fn emits_context_plus_speculative_instances() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let src = ContextSource::new(vec![store.root()]);
        let path_len = 2u16;
        let mut scan = XScan::new(Box::new(src), &lone(&store), path_len);
        let got = drain(&mut scan, &cx);
        let mut total_borders = 0usize;
        for p in store.meta.page_range() {
            total_borders += store.fix(p).border_slots().count();
        }
        assert_eq!(got.len(), 1 + total_borders * path_len as usize);
        let contexts = got.iter().filter(|p| !p.li).count();
        assert_eq!(contexts, 1);
        // Speculative instances: S_L == S_R, Entry ends, every step < |π|.
        for p in got.iter().filter(|p| matches!(p.nr, REnd::Entry { .. })) {
            assert_eq!(p.sl, p.sr);
            assert!(p.sr < path_len);
        }
    }

    #[test]
    fn zero_length_path_emits_contexts_only() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let src = ContextSource::new(vec![store.root()]);
        let mut scan = XScan::new(Box::new(src), &lone(&store), 0);
        let got = drain(&mut scan, &cx);
        assert_eq!(got.len(), 1);
        assert!(got[0].is_full(0));
    }

    /// The scan pins a cluster's frame only while one of its instances is
    /// still out: once the last instance of a page has been handed out and
    /// dropped, the frame is evictable again — before the scan loads the
    /// next page — and a page that contributes no instance (no context,
    /// and no border or no step to speculate for) is never kept.
    #[test]
    fn a_scanned_frame_stays_pinned_only_while_its_instances_are_out() {
        let doc = sample_doc();
        for path_len in [0u16, 2] {
            let store = mem_store(&doc, 256, Placement::Shuffled { seed: 2 });
            let cx = ExecCtx::new(&store, None);
            // A weak handle on every resident frame: a frame is pinned
            // while anyone but the buffer holds a strong one.
            let frames: IdMap<PageId, Weak<Cluster>> = store
                .meta
                .page_range()
                .map(|p| (p, Arc::downgrade(&store.fix(p))))
                .collect();
            let pinned = |page: PageId| frames[&page].strong_count() > 1;
            let expected = |page: PageId| {
                let borders = frames[&page].upgrade().unwrap().border_slots().count();
                borders * usize::from(path_len) + usize::from(page == store.root().page)
            };
            // Every page of a split document has borders, so only the
            // zero-step path has pages that contribute nothing.
            let idle = store
                .meta
                .page_range()
                .filter(|&p| expected(p) == 0)
                .count();
            assert_eq!(idle > 0, path_len == 0);
            let src = ContextSource::new(vec![store.root()]);
            let mut scan = XScan::new(Box::new(src), &lone(&store), path_len);
            let mut held: Vec<Pi> = Vec::new();
            while let Some(p) = scan.next(&cx) {
                let page = p.nr.node_id().page;
                assert!(held.iter().all(|q| q.nr.node_id().page == page));
                held.push(p);
                for other in store.meta.page_range().filter(|&q| q != page) {
                    assert!(!pinned(other), "page {other} pinned while {page} is out");
                }
                assert!(pinned(page), "page {page} unpinned with an instance held");
                if held.len() == expected(page) {
                    held.clear();
                    assert!(!pinned(page), "page {page} pinned after its last instance");
                }
            }
            assert!(held.is_empty(), "every page hands out what it charged");
            for page in store.meta.page_range() {
                assert!(!pinned(page), "page {page} pinned after the scan");
            }
        }
    }

    /// A reader that is dropped or enters fallback leaves the cursor, so it
    /// stalls no one: of three readers taking turns, one enters fallback
    /// and one is dropped, each while it has still to take the current
    /// page, and the last still gets every page, each read once.
    #[test]
    fn a_reader_that_leaves_stalls_no_one() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        store.buffer.device_mut().set_trace(true);
        let pages: Vec<PageId> = store.meta.page_range().collect();
        assert!(pages.len() > 4);
        let cursor = lone(&store);
        let cxs: Vec<_> = (0..3).map(|_| ExecCtx::new(&store, None)).collect();
        let mut scans: Vec<Option<XScan>> = (0..3)
            .map(|_| {
                let src = ContextSource::new(vec![store.root()]);
                Some(XScan::new(Box::new(src), &cursor, 2))
            })
            .collect();
        // Reader 0 takes each page first and fixes it; readers 1 and 2
        // have still to take page 2 when reader 1 enters fallback, and
        // page 3 when reader 2 is dropped.
        let mut last_pages = Vec::new();
        let mut round = 0;
        while cursor.open() {
            assert!(round <= pages.len(), "the cursor stalled");
            for (i, (scan, cx)) in scans.iter_mut().zip(&cxs).enumerate() {
                match (round, i) {
                    (2, 1) => cx.fallback.set(true),
                    (3, 2) => *scan = None,
                    _ => {}
                }
                let Some(scan) = scan else { continue };
                while let Some(p) = scan.next(cx) {
                    if i == 0 {
                        last_pages.push(p.nr.node_id().page);
                    }
                }
            }
            round += 1;
        }
        last_pages.dedup();
        assert_eq!(last_pages, pages, "the last reader gets every page");
        assert_eq!(
            store.buffer.device_mut().access_trace(),
            pages,
            "each page read once"
        );
        // Every page fixed once, plus the fallback reader's own context.
        assert_eq!(store.buffer.stats().fixes, pages.len() as u64 + 1);
        assert!(cxs[1].in_fallback());
    }

    #[test]
    fn fallback_reemits_contexts() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let src = ContextSource::new(vec![store.root()]);
        let mut scan = XScan::new(Box::new(src), &lone(&store), 2);
        // Pull a few instances, then force fallback mid-scan.
        let _ = scan.next(&cx).expect("some instance");
        cx.fallback.set(true);
        let rest = drain(&mut scan, &cx);
        assert_eq!(rest.len(), 1, "identity over the one context node");
        assert_eq!(rest[0].nr.node_id(), store.root());
        assert_eq!(rest[0].sr, 0);
    }
}
