//! Document import: partitions a logical tree into page-sized clusters,
//! materializes border-node pairs on inter-cluster edges, and writes the
//! encoded pages to a device under a configurable physical placement.
//!
//! ## Packing
//!
//! Nodes are placed in DFS (document) order. A child is inlined into its
//! parent's cluster while the page budget allows; otherwise the importer
//! performs a *chain split*: one `BorderDown` proxy is appended in the
//! parent's cluster and the child **and all of its following siblings**
//! continue under a `BorderUp` proxy in another cluster. This keeps the
//! child list of every node locally navigable (each entry is either a core
//! node or a border proxy) and bounds the border liability of a cluster to
//! one proxy per open node, so pages can never overflow.
//!
//! Continuations land in a shared *scrap bin* cluster while it has room,
//! so short tails do not each burn a page: clusters are forests (multiple
//! `BorderUp` roots per page), as in Natix. A fresh cluster is opened only
//! when the bin is full.
//!
//! ## Placement policies
//!
//! Cluster creation order is DFS order. [`Placement`] maps creation order to
//! physical page positions: `Sequential` models a freshly bulk-loaded
//! database (related clusters physically adjacent), and `ChunkShuffled`
//! permutes runs of `chunk` clusters: a moderately aged database, or with
//! `chunk: 1` a fully shuffled, heavily updated one.
//!
//! ## Memory
//!
//! Import holds the document, its preorder ranks and the encoded page
//! images; of the clusters being built, only the ones that can still grow.
//! A cluster grows while an open DFS frame fills it (its `open` count of
//! nodes with unfinished children is above 0) or while it is the scrap bin.
//! It *closes* when the last frame leaves it and it is not the bin, or when
//! the bin moves on from it and no frame is left in it. From then on no
//! record of it changes, so it is encoded into its page image at once and
//! its build state is reused by the next cluster: at most one build
//! cluster per open frame plus the bin is alive (5 of 1,092 at SF 1).
//!
//! The one thing a closed cluster does not know is the page numbers of
//! its border companions: they depend on the placement of all clusters,
//! and so on how many there are. Borders are encoded with the companion's
//! creation index as its page; once the last cluster closes, one pass over
//! each image rewrites those fields to physical pages
//! (`node::retarget_borders`), and the pages are sealed and appended in
//! physical order. No page is encoded twice.

use crate::node::{
    encode_records, encoded_size, put_attr, retarget_borders, Node, NodeId, NodeKind, Span,
    BORDER_SIZE,
};
use crate::store::TreeMeta;
use pathix_storage::{seal_page, splitmix64, Device, PageId, CHECKSUM_LEN};
use pathix_xml::{Document, NodeRef, XKind};
use std::fmt;

/// Fisher–Yates shuffle driven by [`splitmix64`], so the layout for a given
/// seed is a fixed function of the seed alone — independent of any external
/// PRNG crate's algorithm choices (DESIGN.md invariant R2).
fn seeded_shuffle(v: &mut [usize], seed: u64) {
    let mut state = seed;
    for i in (1..v.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Physical placement of clusters onto pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Pages in cluster-creation (DFS) order — a freshly loaded database.
    Sequential,
    /// Chunks of `chunk` consecutive clusters keep their internal order but
    /// the chunks themselves are permuted — a moderately aged database:
    /// traversal is sequential within a chunk, with a seek between chunks.
    /// `chunk: 1` permutes every cluster: a fragmented database.
    ChunkShuffled {
        /// Run length preserved.
        chunk: usize,
        /// Permutation seed.
        seed: u64,
    },
}

/// Import configuration.
#[derive(Debug, Clone, Copy)]
pub struct ImportConfig {
    /// Page size in bytes (must match the device).
    pub page_size: usize,
    /// Physical placement policy.
    pub placement: Placement,
}

impl Default for ImportConfig {
    fn default() -> Self {
        Self {
            page_size: 8192,
            placement: Placement::Sequential,
        }
    }
}

/// Statistics of one import run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Number of clusters (= pages) created.
    pub clusters: u32,
    /// Number of inter-cluster edges (border-node pairs).
    pub border_edges: u64,
    /// Logical nodes stored.
    pub nodes: u64,
    /// Total record bytes (excluding slot directories and padding).
    pub record_bytes: u64,
}

/// Import failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportError {
    /// A single record (e.g. a giant text node) does not fit the room a
    /// page has for it.
    RecordTooLarge {
        /// The encoded record size.
        size: usize,
        /// The room left for it: the page budget less the records already
        /// on the page and the borders reserved for its open nodes (the
        /// record's own, if it has children).
        budget: usize,
    },
    /// The page is too small for its own slot directory and checksum
    /// trailer, so no record fits on it.
    PageTooSmall {
        /// The configured page size in bytes.
        page_size: usize,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::RecordTooLarge { size, budget } => {
                write!(
                    f,
                    "record of {size} bytes exceeds the {budget} bytes left on its page"
                )
            }
            ImportError::PageTooSmall { page_size } => {
                write!(f, "a page of {page_size} bytes has no room for records")
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// The record bytes a page of `page_size` bytes has room for: the page less
/// its slot directory (count + (n+1) offsets; with records ≥ 17 bytes,
/// slots per page ≤ page/17, so 2 bytes per record + 4 fixed is a safe
/// bound) and the checksum trailer at its end.
fn page_budget(page_size: usize) -> Result<usize, ImportError> {
    page_size
        .checked_sub(4 + CHECKSUM_LEN + 2 * (page_size / 17 + 1))
        .ok_or(ImportError::PageTooSmall { page_size })
}

/// A cluster while it can still grow.
#[derive(Default)]
struct BuildCluster {
    /// Creation index: the placeholder page its companions' borders name.
    id: u32,
    nodes: Vec<Node>,
    bytes: Vec<u8>,          // the nodes' payloads, back to back
    lasts: Vec<Option<u16>>, // last child per slot
    used: usize,
    open: usize, // nodes with unfinished child processing (border liability)
}

impl BuildCluster {
    /// Appends a node with its `payload`, linking it under `parent`
    /// (`None` = a new root of this cluster's forest).
    fn add(&mut self, kind: NodeKind, payload: &[u8], parent: Option<u16>, order: u64) -> u16 {
        let size = encoded_size(&kind);
        let slot = self.nodes.len() as u16;
        self.nodes.push(Node {
            kind: kind.with_payload(Span::new(self.bytes.len(), payload.len())),
            parent,
            first_child: None,
            next_sibling: None,
            prev_sibling: None,
            order,
        });
        self.bytes.extend_from_slice(payload);
        self.lasts.push(None);
        if let Some(p) = parent {
            match self.lasts[p as usize] {
                Some(last) => {
                    self.nodes[last as usize].next_sibling = Some(slot);
                    self.nodes[slot as usize].prev_sibling = Some(last);
                }
                None => self.nodes[p as usize].first_child = Some(slot),
            }
            self.lasts[p as usize] = Some(slot);
        }
        self.used += size;
        slot
    }

    /// Whether a chain-split continuation fits within `budget`: a
    /// `BorderUp` and a record of `size` bytes, next to one border reserved
    /// per open node, the record's own and the BorderUp's included.
    fn fits_continuation(&self, size: usize, has_children: bool, budget: usize) -> bool {
        let open_after = self.open + 1 + usize::from(has_children);
        self.used + BORDER_SIZE + size + open_after * BORDER_SIZE <= budget
    }
}

/// The clusters of one import: the few still growing, in reusable slots,
/// and the page image of every closed one.
#[derive(Default)]
struct Packer {
    page_size: usize,
    /// Build clusters by slot. A slot on `free` holds a closed cluster's
    /// cleared buffers for the next one to reuse, so the slot count is the
    /// most clusters ever alive at once.
    slots: Vec<BuildCluster>,
    free: Vec<usize>,
    /// Slot of the scrap bin: the cluster collecting continuations.
    scrap: Option<usize>,
    /// Encoded page images by creation index, each empty until its cluster
    /// closes; border target pages are creation indices.
    pages: Vec<Vec<u8>>,
    /// Clusters, border edges, core nodes and record bytes so far.
    report: ImportReport,
    /// The most live clusters beyond the open DFS frames seen at the start
    /// of a step (at most 1: the scrap bin).
    live_over_frames: usize,
}

impl Packer {
    /// Starts a new, empty cluster and returns its slot.
    fn open(&mut self) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(BuildCluster::default());
            self.slots.len() - 1
        });
        self.slots[slot].id = self.pages.len() as u32;
        self.pages.push(Vec::new());
        self.report.clusters += 1;
        slot
    }

    /// Starts a new cluster as the scrap bin, closing the old bin if no
    /// frame is left in it.
    fn open_scrap(&mut self) -> usize {
        let slot = self.open();
        if let Some(old) = self.scrap.replace(slot) {
            self.close_if_done(old);
        }
        slot
    }

    /// Closes the cluster at `slot` if it can no longer grow: no frame is
    /// left in it and it is not the scrap bin.
    fn close_if_done(&mut self, slot: usize) {
        if self.slots[slot].open == 0 && self.scrap != Some(slot) {
            self.close(slot);
        }
    }

    /// Encodes the cluster at `slot` into its page image and frees the slot.
    fn close(&mut self, slot: usize) {
        let c = &mut self.slots[slot];
        self.pages[c.id as usize] = encode_records(&c.nodes, &c.bytes, self.page_size);
        self.report.record_bytes += c.used as u64;
        self.report.nodes += c.nodes.iter().filter(|n| n.kind.is_core()).count() as u64;
        c.nodes.clear();
        c.bytes.clear();
        c.lasts.clear();
        c.used = 0;
        self.free.push(slot);
    }

    /// Notes how many clusters are alive while `frames` DFS frames are open.
    fn observe(&mut self, frames: usize) {
        let live = self.slots.len() - self.free.len();
        self.live_over_frames = self.live_over_frames.max(live.saturating_sub(frames));
    }
}

struct Frame {
    /// Document node whose children are being processed.
    next_child: Option<NodeRef>,
    /// Slot of the cluster currently receiving the children.
    cluster: usize,
    /// Slot of the parent (core node or BorderUp) in that cluster.
    parent_slot: u16,
}

/// The record kind of document node `n`, with its payload written to
/// `payload` (cleared first) in record layout.
fn node_kind(doc: &Document, n: NodeRef, payload: &mut Vec<u8>) -> NodeKind {
    payload.clear();
    match doc.kind(n) {
        XKind::Element(tag) => {
            for (name, value) in doc.attrs(n) {
                put_attr(payload, *name, value);
            }
            NodeKind::Element {
                tag,
                attrs: Span::new(0, payload.len()),
            }
        }
        XKind::Text(_) => {
            payload.extend_from_slice(doc.text(n).expect("text node").as_bytes());
            NodeKind::Text(Span::new(0, payload.len()))
        }
    }
}

/// Packs `doc` into clusters, encoding each into its page image as it
/// closes (border target pages are creation indices), and returns the
/// packer with every cluster closed.
fn partition(
    doc: &Document,
    page_size: usize,
    budget: usize,
    ranks: &[u64],
) -> Result<Packer, ImportError> {
    let mut pack = Packer {
        page_size,
        ..Packer::default()
    };
    let mut payload = Vec::new();

    // Root node always goes to cluster 0, slot 0.
    let root_kind = node_kind(doc, doc.root(), &mut payload);
    let root_size = encoded_size(&root_kind);
    if root_size + BORDER_SIZE > budget {
        return Err(ImportError::RecordTooLarge {
            size: root_size,
            budget: budget.saturating_sub(BORDER_SIZE),
        });
    }
    let root = pack.open();
    pack.slots[root].add(
        root_kind,
        &payload,
        None,
        crate::node::order_key(ranks[doc.root().0 as usize]),
    );
    pack.slots[root].open = 1;

    let mut stack = vec![Frame {
        next_child: doc.first_child(doc.root()),
        cluster: root,
        parent_slot: 0,
    }];

    loop {
        pack.observe(stack.len());
        let Some(frame) = stack.last_mut() else {
            break;
        };
        let Some(child) = frame.next_child else {
            let cluster = frame.cluster;
            stack.pop();
            pack.slots[cluster].open -= 1;
            pack.close_if_done(cluster);
            continue;
        };
        frame.next_child = doc.next_sibling(child);
        let (cluster_idx, parent_slot) = (frame.cluster, frame.parent_slot);

        let kind = node_kind(doc, child, &mut payload);
        let size = encoded_size(&kind);
        let has_children = doc.first_child(child).is_some();
        let order = crate::node::order_key(ranks[child.0 as usize]);

        // Would inlining keep the cluster within budget, including one
        // reserved border per open node (liability invariant)?
        let c = &pack.slots[cluster_idx];
        let open_after = c.open + usize::from(has_children);
        let inline_ok = c.used + size + open_after * BORDER_SIZE <= budget;

        let (target_cluster, target_parent) = if inline_ok {
            (cluster_idx, parent_slot)
        } else {
            // Chain split: close this cluster's chain with one BorderDown
            // and continue the remaining children behind a BorderUp in
            // another cluster — the scrap bin if the continuation fits
            // there, a fresh cluster otherwise.
            let target_idx = match pack.scrap {
                Some(b)
                    if b != cluster_idx
                        && pack.slots[b].fits_continuation(size, has_children, budget) =>
                {
                    b
                }
                _ => pack.open_scrap(),
            };
            let (from_id, to_id) = (pack.slots[cluster_idx].id, pack.slots[target_idx].id);
            let down_slot = {
                let c = &mut pack.slots[cluster_idx];
                // The liability reservation guarantees this fits; the
                // target slot is patched right below.
                let slot = c.add(
                    NodeKind::BorderDown {
                        target: NodeId::new(to_id, 0),
                    },
                    &[],
                    Some(parent_slot),
                    order,
                );
                c.open -= 1;
                debug_assert!(c.used <= budget, "border liability violated");
                slot
            };
            let up_slot = pack.slots[target_idx].add(
                NodeKind::BorderUp {
                    target: NodeId::new(from_id, down_slot),
                },
                &[],
                None,
                order,
            );
            pack.slots[target_idx].open += 1;
            // Patch the BorderDown's target slot (forest clusters may hold
            // several BorderUp roots).
            if let NodeKind::BorderDown { target } =
                &mut pack.slots[cluster_idx].nodes[down_slot as usize].kind
            {
                target.slot = up_slot;
            }
            pack.report.border_edges += 1;
            // That was the last record of the cluster this frame leaves,
            // unless another frame is still in it.
            pack.close_if_done(cluster_idx);
            // The current frame's remaining children now flow to the
            // continuation under the new BorderUp.
            let frame = stack.last_mut().expect("frame still on stack");
            frame.cluster = target_idx;
            frame.parent_slot = up_slot;

            // Re-check: the node itself (plus liabilities) must fit.
            let c = &pack.slots[target_idx];
            let reserved = c.used + (c.open + usize::from(has_children)) * BORDER_SIZE;
            if reserved + size > budget {
                return Err(ImportError::RecordTooLarge {
                    size,
                    budget: budget.saturating_sub(reserved),
                });
            }
            (target_idx, up_slot)
        };

        let slot = pack.slots[target_cluster].add(kind, &payload, Some(target_parent), order);
        if has_children {
            pack.slots[target_cluster].open += 1;
            stack.push(Frame {
                next_child: doc.first_child(child),
                cluster: target_cluster,
                parent_slot: slot,
            });
        }
    }

    // Every frame has left; the scrap bin is the one cluster still open.
    if let Some(bin) = pack.scrap.take() {
        pack.close_if_done(bin);
    }
    debug_assert_eq!(pack.free.len(), pack.slots.len(), "a cluster left open");
    Ok(pack)
}

/// Computes the cluster-index → page-position permutation for a placement.
fn placement_positions(n: usize, placement: Placement) -> Vec<usize> {
    let mut pos = vec![0usize; n];
    match placement {
        Placement::Sequential => {
            for (i, p) in pos.iter_mut().enumerate() {
                *p = i;
            }
        }
        Placement::ChunkShuffled { chunk, seed } => {
            let chunk = chunk.max(1);
            let n_chunks = n.div_ceil(chunk);
            let mut chunk_order: Vec<usize> = (0..n_chunks).collect();
            seeded_shuffle(&mut chunk_order, seed);
            let mut position = 0usize;
            for &c in &chunk_order {
                for i in (c * chunk..((c + 1) * chunk).min(n)).take(chunk) {
                    pos[i] = position;
                    position += 1;
                }
            }
        }
    }
    pos
}

/// Per-tag element counts and descendant-or-self totals
/// ([`TreeMeta::tag_counts`], [`TreeMeta::tag_descendants`]) in one
/// preorder walk, from the preorder `ranks` of the `total` nodes reachable
/// from the root.
///
/// A subtree occupies a contiguous rank interval, so its size is `end −
/// rank`, where `end` is the rank of the next node outside it: the next
/// sibling's rank, else the parent's `end`. The walk overwrites each
/// node's rank with its `end` in place: a next sibling comes later in
/// preorder, so its rank is still there when read, and a parent comes
/// earlier, so its `end` already is.
fn tag_stats(doc: &Document, mut ranks: Vec<u64>, total: u64) -> (Vec<u64>, Vec<u64>) {
    let mut tag_counts = vec![0u64; doc.symbols().len()];
    let mut tag_descendants = vec![0u64; doc.symbols().len()];
    for node in doc.descendants_or_self(doc.root()) {
        let end = match doc.next_sibling(node) {
            Some(ns) => ranks[ns.0 as usize],
            None => doc.parent(node).map_or(total, |p| ranks[p.0 as usize]),
        };
        let size = end - ranks[node.0 as usize];
        ranks[node.0 as usize] = end;
        if let Some(tag) = doc.tag(node) {
            tag_counts[tag.index() as usize] += 1;
            tag_descendants[tag.index() as usize] += size;
        }
    }
    (tag_counts, tag_descendants)
}

/// Imports `doc` into `device`, returning the tree metadata and a report.
///
/// Pages are appended starting at the device's current end, so several
/// documents can share one device.
pub fn import_into(
    device: &mut dyn Device,
    doc: &Document,
    cfg: &ImportConfig,
) -> Result<(TreeMeta, ImportReport), ImportError> {
    assert_eq!(
        cfg.page_size,
        device.page_size(),
        "config page size must match device"
    );
    let budget = page_budget(cfg.page_size)?;
    let ranks = doc.preorder_ranks();
    let Packer {
        mut pages, report, ..
    } = partition(doc, cfg.page_size, budget, &ranks)?;

    // Border targets name creation indices until here: point them at
    // physical pages, then append the pages in physical order.
    let n = pages.len();
    let positions = placement_positions(n, cfg.placement);
    let base = device.num_pages();
    let mut by_position: Vec<usize> = (0..n).collect();
    by_position.sort_unstable_by_key(|&idx| positions[idx]);
    for (pos, &idx) in by_position.iter().enumerate() {
        let mut bytes = std::mem::take(&mut pages[idx]);
        retarget_borders(&mut bytes, |id| base + positions[id as usize] as PageId);
        seal_page(&mut bytes);
        let pid = device.append_page(bytes);
        assert_eq!(
            pid,
            base + pos as PageId,
            "device page allocation out of sync"
        );
    }

    let (tag_counts, tag_descendants) = tag_stats(doc, ranks, report.nodes);
    let root_page = base + positions[0] as PageId;
    let meta = TreeMeta {
        root: NodeId::new(root_page, 0),
        base_page: base,
        page_count: n as u32,
        symbols: doc.symbols().clone(),
        node_count: doc.len() as u64,
        element_count: doc.element_count() as u64,
        tag_counts,
        tag_descendants,
        border_edges: report.border_edges,
    };
    Ok((meta, report))
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pathix_storage::{DiskProfile, SimClock, SimDisk};

    fn deep_doc(depth: usize) -> Document {
        let mut d = Document::new("r");
        let mut cur = d.root();
        for i in 0..depth {
            cur = d.add_element(cur, if i % 2 == 0 { "a" } else { "b" });
        }
        d
    }

    fn wide_doc(width: usize) -> Document {
        let mut d = Document::new("r");
        for _ in 0..width {
            let c = d.add_element(d.root(), "c");
            d.add_text(c, "some text payload here");
        }
        d
    }

    fn import_mem(doc: &Document, page_size: usize) -> (SimDisk, TreeMeta, ImportReport) {
        let mut dev = SimDisk::with_profile(page_size, DiskProfile::instant());
        let cfg = ImportConfig {
            page_size,
            placement: Placement::Sequential,
        };
        let (meta, report) = import_into(&mut dev, doc, &cfg).unwrap();
        (dev, meta, report)
    }

    /// Decodes all pages and checks structural invariants.
    fn check_invariants(dev: &mut SimDisk, meta: &TreeMeta) {
        let clock = SimClock::new();
        let mut clusters = Vec::new();
        for p in meta.base_page..meta.base_page + meta.page_count {
            let bytes = dev.read_sync(p, &clock).unwrap();
            assert!(pathix_storage::verify_page(&bytes), "page {p} not sealed");
            clusters.push(crate::node::decode_cluster(p, &bytes, &clock).unwrap());
        }
        let find = |id: NodeId| -> &Node {
            let c = &clusters[(id.page - meta.base_page) as usize];
            assert_eq!(c.page, id.page);
            c.node(id.slot)
        };
        let mut cores = 0u64;
        for c in &clusters {
            assert!(!c.is_empty(), "no empty clusters");
            for (slot, n) in c.nodes.iter().enumerate() {
                if n.kind.is_core() {
                    cores += 1;
                }
                // Border companions point back at us.
                if let Some(t) = n.kind.target() {
                    let back = find(t);
                    assert_eq!(
                        back.kind.target(),
                        Some(NodeId::new(c.page, slot as u16)),
                        "companion symmetry"
                    );
                    match n.kind {
                        NodeKind::BorderDown { .. } => {
                            assert!(matches!(back.kind, NodeKind::BorderUp { .. }))
                        }
                        NodeKind::BorderUp { .. } => {
                            assert!(matches!(back.kind, NodeKind::BorderDown { .. }))
                        }
                        _ => unreachable!(),
                    }
                }
                // Link symmetry within the cluster.
                if let Some(fc) = n.first_child {
                    assert_eq!(c.node(fc).parent, Some(slot as u16));
                    assert_eq!(c.node(fc).prev_sibling, None);
                }
                if let Some(ns) = n.next_sibling {
                    assert_eq!(c.node(ns).prev_sibling, Some(slot as u16));
                    assert_eq!(c.node(ns).parent, n.parent);
                }
                // BorderUp proxies are roots of the cluster's forest.
                if matches!(n.kind, NodeKind::BorderUp { .. }) {
                    assert_eq!(n.parent, None);
                }
                // Borders are leaves except BorderUp.
                if matches!(n.kind, NodeKind::BorderDown { .. }) {
                    assert_eq!(n.first_child, None);
                }
            }
        }
        assert_eq!(cores, meta.node_count, "every logical node stored once");
    }

    #[test]
    fn tiny_doc_single_cluster() {
        let doc = wide_doc(2);
        let (mut dev, meta, report) = import_mem(&doc, 8192);
        assert_eq!(report.clusters, 1);
        assert_eq!(report.border_edges, 0);
        assert_eq!(meta.root, NodeId::new(0, 0));
        check_invariants(&mut dev, &meta);
    }

    #[test]
    fn wide_doc_splits_into_chain() {
        // 500 children with text don't fit one 1 KiB page.
        let doc = wide_doc(500);
        let (mut dev, meta, report) = import_mem(&doc, 1024);
        assert!(report.clusters > 10);
        assert!(report.border_edges > 0);
        check_invariants(&mut dev, &meta);
    }

    #[test]
    fn deep_doc_splits() {
        let doc = deep_doc(2000);
        let (mut dev, meta, report) = import_mem(&doc, 1024);
        assert!(report.clusters > 1);
        check_invariants(&mut dev, &meta);
        assert_eq!(meta.node_count, 2001);
    }

    #[test]
    fn order_keys_are_preorder() {
        let doc = wide_doc(30);
        let (mut dev, meta, _) = import_mem(&doc, 512);
        let clock = SimClock::new();
        let mut orders = Vec::new();
        for p in 0..meta.page_count {
            let bytes = dev.read_sync(p, &clock).unwrap();
            let c = crate::node::decode_cluster(p, &bytes, &clock).unwrap();
            for n in &c.nodes {
                if n.kind.is_core() {
                    orders.push(n.order);
                }
            }
        }
        orders.sort_unstable();
        let expect: Vec<u64> = (0..doc.len() as u64).map(crate::node::order_key).collect();
        assert_eq!(orders, expect);
    }

    #[test]
    fn shuffled_placement_is_permutation() {
        let doc = wide_doc(300);
        let mut dev = SimDisk::with_profile(512, DiskProfile::instant());
        let cfg = ImportConfig {
            page_size: 512,
            placement: Placement::ChunkShuffled { chunk: 1, seed: 7 },
        };
        let (meta, report) = import_into(&mut dev, &doc, &cfg).unwrap();
        assert_eq!(meta.page_count, report.clusters);
        check_invariants(&mut dev, &meta);
        // Root is usually not on page 0 under shuffle.
        let seq = import_mem(&doc, 512).1;
        assert_eq!(seq.page_count, meta.page_count);
    }

    #[test]
    fn shuffled_positions_are_permutation() {
        let pos = placement_positions(100, Placement::ChunkShuffled { chunk: 1, seed: 3 });
        let mut sorted = pos.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(pos, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_text_is_an_error() {
        let mut doc = Document::new("r");
        let huge = "x".repeat(5000);
        doc.add_text(doc.root(), &huge);
        let mut dev = SimDisk::with_profile(1024, DiskProfile::instant());
        let err = import_into(
            &mut dev,
            &doc,
            &ImportConfig {
                page_size: 1024,
                placement: Placement::Sequential,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ImportError::RecordTooLarge { .. }));
        // The same for an attribute value longer than its u16 length field.
        let mut doc = Document::new("r");
        doc.set_attr(doc.root(), "a", &"x".repeat(70_000));
        let cfg = ImportConfig {
            page_size: 1 << 16,
            placement: Placement::Sequential,
        };
        let err = import_into(
            &mut SimDisk::with_profile(1 << 16, DiskProfile::instant()),
            &doc,
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, ImportError::RecordTooLarge { .. }));
    }

    /// A record that does not fit is reported against the room that was
    /// left for it, so the error never names a record that would fit: root
    /// records around the size where the root's reserved border no longer
    /// fits, nodes that do not fit even a fresh continuation cluster, and
    /// long XMark texts on 1 KiB pages all report `size > budget`.
    #[test]
    fn record_too_large_reports_the_room_left() {
        let import = |doc: &Document, page_size: usize| {
            let mut dev = SimDisk::with_profile(page_size, DiskProfile::instant());
            let cfg = ImportConfig {
                page_size,
                placement: Placement::Sequential,
            };
            import_into(&mut dev, doc, &cfg).map(|_| ())
        };
        let mut cases = Vec::new();
        for len in 800..900 {
            let mut doc = Document::new("r");
            doc.set_attr(doc.root(), "a", &"x".repeat(len));
            cases.push((doc, 1024));
        }
        // Texts of every length up to ~1 KiB, under elements still open.
        let mut texts = Document::new("r");
        let mut parent = texts.root();
        for i in 0..40 {
            parent = texts.add_element(parent, "e");
            texts.add_text(parent, &"x".repeat(29 * i));
        }
        for page_size in [256, 512, 1024] {
            cases.push((texts.clone(), page_size));
        }
        let xmark = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.01));
        cases.push((xmark, 1024));
        let mut provoked = 0;
        for (doc, page_size) in &cases {
            if let Err(ImportError::RecordTooLarge { size, budget }) = import(doc, *page_size) {
                assert!(size > budget, "{size} B reported as not fitting {budget} B");
                provoked += 1;
            }
        }
        assert!(provoked > 4, "only {provoked} imports outgrew their pages");
    }

    /// The clusters of `doc` on `page_size`-byte pages, all closed.
    fn packed(doc: &Document, page_size: usize) -> Packer {
        let budget = page_budget(page_size).unwrap();
        partition(doc, page_size, budget, &doc.preorder_ranks()).unwrap()
    }

    /// Import builds at most one cluster per open DFS frame plus the scrap
    /// bin, so its build state is bounded by the document's depth, not by
    /// its size: holding every cluster until the end fails here.
    #[test]
    fn build_state_is_bounded_by_the_open_frames() {
        let xmark = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.1));
        for (doc, page_size) in [
            (deep_doc(2000), 1024),
            (wide_doc(500), 1024),
            (xmark.clone(), 8192),
            (xmark.clone(), 2048),
        ] {
            let pack = packed(&doc, page_size);
            let pages = pack.report.clusters as usize;
            assert!(pages > 10, "{pages} pages at {page_size} B");
            assert!(
                pack.live_over_frames <= 1,
                "more than the bin beyond frames"
            );
            assert!(
                pack.pages.iter().all(|p| p.len() == page_size),
                "unencoded page"
            );
            let peak = pack.slots.len();
            if doc.len() == xmark.len() {
                assert!(4 * peak <= pages, "{peak} clusters alive of {pages}");
            }
        }
        // The wide document needs one frame, so at most two clusters.
        assert!(packed(&wide_doc(500), 1024).slots.len() <= 2);
    }

    /// `tag_counts` and `tag_descendants` equal per-element counts of each
    /// subtree, walked node by node; a detached subtree counts for nothing.
    #[test]
    fn tag_stats_match_subtree_counts() {
        let mut detached = wide_doc(20);
        let gone = detached.first_child(detached.root()).unwrap();
        detached.detach(gone);
        let docs = [
            pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.01)),
            wide_doc(200),
            deep_doc(300),
            detached,
        ];
        for doc in &docs {
            let (_, meta, _) = import_mem(doc, 8192);
            let mut counts = vec![0u64; doc.symbols().len()];
            let mut descendants = vec![0u64; doc.symbols().len()];
            for node in doc.descendants_or_self(doc.root()) {
                if let Some(tag) = doc.tag(node) {
                    counts[tag.index() as usize] += 1;
                    descendants[tag.index() as usize] +=
                        doc.descendants_or_self(node).count() as u64;
                }
            }
            assert_eq!(meta.tag_counts, counts);
            assert_eq!(meta.tag_descendants, descendants);
        }
    }

    /// A page too small for its directory and checksum is an error, not a
    /// panic; small pages that have room report the record that does not
    /// fit.
    #[test]
    fn tiny_pages_are_errors() {
        let mut doc = wide_doc(3);
        doc.add_text(doc.root(), &"x".repeat(100));
        for page_size in 0..=100 {
            let mut dev = SimDisk::with_profile(page_size, DiskProfile::instant());
            let cfg = ImportConfig {
                page_size,
                placement: Placement::Sequential,
            };
            let err = import_into(&mut dev, &doc, &cfg).unwrap_err();
            match page_size {
                0..10 => assert_eq!(err, ImportError::PageTooSmall { page_size }),
                _ => assert!(matches!(err, ImportError::RecordTooLarge { .. })),
            }
            assert_eq!(dev.num_pages(), 0, "a failed import writes no page");
        }
    }

    #[test]
    fn two_documents_share_device() {
        let doc1 = wide_doc(50);
        let doc2 = deep_doc(50);
        let mut dev = SimDisk::with_profile(512, DiskProfile::instant());
        let cfg = ImportConfig {
            page_size: 512,
            placement: Placement::Sequential,
        };
        let (m1, _) = import_into(&mut dev, &doc1, &cfg).unwrap();
        let (m2, _) = import_into(&mut dev, &doc2, &cfg).unwrap();
        assert_eq!(m2.base_page, m1.page_count);
        check_invariants(&mut dev, &m1);
        check_invariants(&mut dev, &m2);
    }
}

#[cfg(test)]
mod chunk_tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn chunk_shuffled_is_permutation_preserving_runs() {
        let pos = placement_positions(20, Placement::ChunkShuffled { chunk: 4, seed: 9 });
        let mut sorted = pos.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        // Within a chunk, positions are consecutive.
        for c in 0..5 {
            for i in 0..3 {
                assert_eq!(pos[c * 4 + i] + 1, pos[c * 4 + i + 1]);
            }
        }
    }

    #[test]
    fn chunk_shuffled_roundtrips() {
        let mut doc = pathix_xml::Document::new("r");
        for _ in 0..300 {
            let c = doc.add_element(doc.root(), "x");
            doc.add_text(c, "payload text for the record");
        }
        let mut dev =
            pathix_storage::SimDisk::with_profile(512, pathix_storage::DiskProfile::instant());
        let cfg = ImportConfig {
            page_size: 512,
            placement: Placement::ChunkShuffled { chunk: 4, seed: 1 },
        };
        let (meta, rep) = import_into(&mut dev, &doc, &cfg).unwrap();
        assert!(rep.clusters > 8);
        let store = crate::store::TreeStore::open(
            Box::new(dev),
            meta,
            pathix_storage::BufferParams::default(),
            std::rc::Rc::new(pathix_storage::SimClock::new()),
        );
        let back = crate::export::export(&store);
        assert!(doc.logically_equal(&back));
    }
}
