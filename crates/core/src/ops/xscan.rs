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
//! In fallback mode (§5.4.6) the operator restarts its (materialized)
//! producer and degrades to the identity: it re-emits context nodes and the
//! now-border-crossing `XStep`s recompute the full result, deduplicated by
//! `XAssembly`'s surviving `R` structure.

use crate::context::ExecCtx;
use crate::instance::Pi;
use crate::ops::Operator;
use pathix_storage::PageId;
use pathix_tree::{Cluster, IdMap, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// The sequential-scan I/O operator.
pub struct XScan {
    producer: Option<Box<dyn Operator>>,
    path_len: u16,
    pages: Vec<PageId>,
    pos: usize,
    ctx_by_page: IdMap<PageId, Vec<NodeId>>,
    all_contexts: Vec<NodeId>,
    emit: VecDeque<Pi>,
    /// Fallback restart state.
    fb_pos: Option<usize>,
}

impl XScan {
    /// Creates a scan over the document's page range.
    pub fn new(producer: Box<dyn Operator>, pages: Vec<PageId>, path_len: u16) -> Self {
        Self {
            producer: Some(producer),
            path_len,
            pages,
            pos: 0,
            ctx_by_page: IdMap::default(),
            all_contexts: Vec::new(),
            emit: VecDeque::new(),
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
}

/// Queues what one scanned cluster contributes to a path of `path_len`
/// steps: an instance for each of the `contexts`, all stored in it, then a
/// speculative instance for every border node and every step, so that the
/// cluster is never loaded again. [`XScan`] and the shared scan over
/// several paths (`plan::execute_paths_shared_scan`) both emit through it.
pub(crate) fn emit_cluster(
    cx: &ExecCtx<'_>,
    cluster: &Arc<Cluster>,
    contexts: impl IntoIterator<Item = NodeId>,
    path_len: u16,
    out: &mut VecDeque<Pi>,
) {
    for id in contexts {
        cx.charge_instance();
        let order = cluster.node(id.slot).order;
        out.push_back(Pi::swizzled_context(Arc::clone(cluster), id.slot, order));
    }
    for b in cluster.border_slots() {
        for i in 0..path_len {
            cx.charge_instance();
            cx.stats
                .speculative_generated
                .set(cx.stats.speculative_generated.get() + 1);
            out.push_back(Pi::speculative(i, Arc::clone(cluster), b));
        }
    }
}

impl Operator for XScan {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        self.materialize_contexts(cx);
        loop {
            // Governor checkpoint: an unrecovered read error, a cancel, or a
            // passed hard deadline aborts the plan — stop emitting so the
            // pipeline winds down and the executor can surface it.
            if cx.interrupted() {
                self.emit.clear();
                return None;
            }
            if cx.in_fallback() && self.fb_pos.is_none() {
                // Restart as identity over the context nodes (§5.4.6).
                self.emit.clear();
                self.fb_pos = Some(0);
            }
            if let Some(pi) = self.emit.pop_front() {
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
            let &page = self.pages.get(self.pos)?;
            self.pos += 1;
            // A failed read records the error on the store; the scan winds
            // down at the next turn's checkpoint.
            if let Some(cluster) = cx.store.checked_fix(page) {
                let contexts = self.ctx_by_page.get(&page).into_iter().flatten().copied();
                emit_cluster(cx, &cluster, contexts, self.path_len, &mut self.emit);
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
    use pathix_tree::Placement;

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
        let mut scan = XScan::new(Box::new(src), pages.clone(), 2);
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
        let pages: Vec<PageId> = store.meta.page_range().collect();
        let path_len = 2u16;
        let mut scan = XScan::new(Box::new(src), pages.clone(), path_len);
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
        let pages: Vec<PageId> = store.meta.page_range().collect();
        let mut scan = XScan::new(Box::new(src), pages, 0);
        let got = drain(&mut scan, &cx);
        assert_eq!(got.len(), 1);
        assert!(got[0].is_full(0));
    }

    #[test]
    fn fallback_reemits_contexts() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let src = ContextSource::new(vec![store.root()]);
        let pages: Vec<PageId> = store.meta.page_range().collect();
        let mut scan = XScan::new(Box::new(src), pages, 2);
        // Pull a few instances, then force fallback mid-scan.
        let _ = scan.next(&cx).expect("some instance");
        cx.fallback.set(true);
        let rest = drain(&mut scan, &cx);
        assert_eq!(rest.len(), 1, "identity over the one context node");
        assert_eq!(rest[0].nr.node_id(), store.root());
        assert_eq!(rest[0].sr, 0);
    }
}
