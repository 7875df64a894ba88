//! The tree store: metadata + buffer-managed access to decoded clusters.

use crate::node::{decode_cluster, Cluster, DecodeError, NodeId};
use pathix_storage::{
    BufferManager, BufferParams, Device, IoError, PageId, SimClock, WriteAheadLog,
};
use pathix_xml::SymbolTable;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

/// Metadata of one stored document.
#[derive(Debug, Clone)]
pub struct TreeMeta {
    /// NodeId of the document root element.
    pub root: NodeId,
    /// First page of the document on the device.
    pub base_page: PageId,
    /// Number of pages (= clusters) the document occupies.
    pub page_count: u32,
    /// The document's tag alphabet.
    pub symbols: SymbolTable,
    /// Logical node count (elements + text nodes).
    pub node_count: u64,
    /// Logical element count.
    pub element_count: u64,
    /// Element count per tag symbol (indexed by `Symbol::index`). Collected
    /// at import; the optimizer's selectivity estimates are built on it.
    pub tag_counts: Vec<u64>,
    /// Sum of subtree sizes (nodes, including self) over all elements of a
    /// tag — `tag_descendants[t] / tag_counts[t]` is the average subtree a
    /// `descendant` step from a `t` element inspects.
    pub tag_descendants: Vec<u64>,
    /// Inter-cluster edges (border-node pairs, one per live `BorderDown`
    /// record); the optimizer prices XScan's speculation from it. Counted
    /// at import and kept current by [`crate::TreeUpdater`].
    pub border_edges: u64,
}

impl TreeMeta {
    /// The physical page range `[base, base + count)` of the document —
    /// what the `XScan` operator scans.
    pub fn page_range(&self) -> std::ops::Range<PageId> {
        self.base_page..self.base_page + self.page_count
    }

    /// Number of elements carrying `tag` (0 for unknown symbols).
    pub fn tag_count(&self, tag: pathix_xml::Symbol) -> u64 {
        self.tag_counts
            .get(tag.index() as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Total subtree nodes under elements carrying `tag`.
    pub fn tag_subtree_nodes(&self, tag: pathix_xml::Symbol) -> u64 {
        self.tag_descendants
            .get(tag.index() as usize)
            .copied()
            .unwrap_or(0)
    }
}

/// Decoder plugged into the buffer manager.
pub struct ClusterDecoder;

impl pathix_storage::PageDecoder<Cluster> for ClusterDecoder {
    fn decode(
        &self,
        page: PageId,
        bytes: &Arc<[u8]>,
        clock: &SimClock,
    ) -> Result<Cluster, DecodeError> {
        decode_cluster(page, bytes, clock)
    }
}

/// A stored document opened for querying: metadata plus the buffer manager
/// over its device.
pub struct TreeStore {
    /// Document metadata.
    pub meta: TreeMeta,
    /// Buffer manager caching decoded clusters.
    pub buffer: BufferManager<Cluster, ClusterDecoder>,
    /// Optional write-ahead log: when attached, every page update is logged
    /// before it is written (see `pathix_storage::wal`).
    pub wal: Option<Rc<RefCell<WriteAheadLog>>>,
    /// First unrecovered I/O error hit by [`Self::checked_fix`] during the
    /// current plan execution. Operators observe it via [`Self::io_failed`]
    /// and wind down; the executor takes it with [`Self::take_io_error`] and
    /// converts it to `ExecError::Io`.
    io_error: Cell<Option<IoError>>,
}

impl TreeStore {
    /// Opens a store over `device` with the given buffer configuration.
    pub fn open(
        device: Box<dyn Device>,
        meta: TreeMeta,
        params: BufferParams,
        clock: Rc<SimClock>,
    ) -> Self {
        Self {
            meta,
            buffer: BufferManager::new(device, ClusterDecoder, params, clock),
            wal: None,
            io_error: Cell::new(None),
        }
    }

    /// Attaches a write-ahead log; subsequent updates log page after-images
    /// before writing. Call `flush()` on the log to commit.
    pub fn attach_wal(&mut self, wal: Rc<RefCell<WriteAheadLog>>) {
        self.wal = Some(wal);
    }

    /// Convenience: import `doc` into a fresh device produced by `mk_device`
    /// and open a store over it.
    pub fn build(
        doc: &pathix_xml::Document,
        device: Box<dyn Device>,
        import_cfg: &crate::import::ImportConfig,
        params: BufferParams,
        clock: Rc<SimClock>,
    ) -> Result<(Self, crate::import::ImportReport), crate::import::ImportError> {
        let mut device = device;
        let (meta, report) = crate::import::import_into(device.as_mut(), doc, import_cfg)?;
        Ok((Self::open(device, meta, params, clock), report))
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        self.buffer.clock()
    }

    /// The document root's NodeId.
    pub fn root(&self) -> NodeId {
        self.meta.root
    }

    /// Fixes the cluster holding `page`.
    ///
    /// Infallible (panics on an unrecoverable read error) — for
    /// construction, export, and tests. Operators on the query path use
    /// [`Self::checked_fix`].
    pub fn fix(&self, page: PageId) -> Arc<Cluster> {
        self.buffer.fix(page)
    }

    /// Fixes the cluster of a node.
    pub fn fix_node(&self, id: NodeId) -> Arc<Cluster> {
        self.buffer.fix(id.page)
    }

    /// Fixes the cluster holding `page`, returning the I/O error instead of
    /// panicking.
    pub fn try_fix(&self, page: PageId) -> Result<Arc<Cluster>, IoError> {
        self.buffer.try_fix(page)
    }

    /// Fixes the cluster holding `page`; on an unrecoverable read error,
    /// records the first such error on the store and returns `None`.
    ///
    /// This is the operator-facing fix: operators have no error channel of
    /// their own (their iterator protocol yields `Option<Pi>`), so they
    /// treat `None` as "wind down" and the executor surfaces the recorded
    /// error as `ExecError::Io` after draining the plan.
    pub fn checked_fix(&self, page: PageId) -> Option<Arc<Cluster>> {
        match self.buffer.try_fix(page) {
            Ok(cluster) => Some(cluster),
            Err(e) => {
                if self.io_error.get().is_none() {
                    self.io_error.set(Some(e));
                }
                None
            }
        }
    }

    /// True once [`Self::checked_fix`] has recorded an unrecovered error in
    /// the current execution.
    pub fn io_failed(&self) -> bool {
        self.io_error.get().is_some()
    }

    /// Takes the recorded error, clearing the flag.
    pub fn take_io_error(&self) -> Option<IoError> {
        self.io_error.take()
    }

    /// Clears any recorded error (executors call this when a run starts, so
    /// one aborted plan cannot poison the next).
    pub fn clear_io_error(&self) {
        self.io_error.set(None);
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::import::{import_into, ImportConfig, Placement};
    use crate::node::NodeKind;
    use pathix_storage::MemDevice;

    fn store_for(doc: &pathix_xml::Document, page_size: usize) -> TreeStore {
        let mut dev = MemDevice::new(page_size);
        let cfg = ImportConfig {
            page_size,
            placement: Placement::Sequential,
        };
        let (meta, _) = import_into(&mut dev, doc, &cfg).unwrap();
        TreeStore::open(
            Box::new(dev),
            meta,
            BufferParams::default(),
            Rc::new(SimClock::new()),
        )
    }

    #[test]
    fn open_and_fix_root() {
        let mut doc = pathix_xml::Document::new("r");
        doc.add_element(doc.root(), "a");
        let store = store_for(&doc, 4096);
        let cluster = store.fix_node(store.root());
        let root = cluster.node(store.root().slot);
        assert!(matches!(root.kind, NodeKind::Element { .. }));
        assert_eq!(
            store.meta.symbols.name(match &root.kind {
                NodeKind::Element { tag, .. } => *tag,
                _ => unreachable!(),
            }),
            "r"
        );
    }

    #[test]
    fn fixed_cluster_holds_the_device_allocation() {
        let mut doc = pathix_xml::Document::new("r");
        for _ in 0..50 {
            let c = doc.add_element(doc.root(), "x");
            doc.set_attr(c, "a", "value");
            doc.add_text(c, "payload text");
        }
        let store = store_for(&doc, 512);
        for p in store.meta.page_range() {
            let cluster = store.fix(p);
            let image = store.buffer.device_mut().read_sync(p, store.clock());
            assert!(
                Arc::ptr_eq(&cluster.bytes, &image.unwrap()),
                "page {p} was copied"
            );
        }
    }

    #[test]
    fn page_range_covers_document() {
        let mut doc = pathix_xml::Document::new("r");
        for _ in 0..200 {
            let c = doc.add_element(doc.root(), "x");
            doc.add_text(c, "payload text");
        }
        let store = store_for(&doc, 512);
        let range = store.meta.page_range();
        assert!(range.len() > 1);
        for p in range {
            let c = store.fix(p);
            assert!(!c.is_empty());
        }
    }
}
