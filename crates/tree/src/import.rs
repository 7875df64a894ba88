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
//! database (related clusters physically adjacent), `Shuffled` models a
//! heavily updated, fragmented database, and `Strided` models a regularly
//! interleaved layout (e.g. after round-robin space allocation).

use crate::node::{
    encode_cluster, encoded_size, put_attr, Cluster, Node, NodeId, NodeKind, Span, BORDER_SIZE,
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
    /// Random permutation — a fragmented database.
    Shuffled {
        /// Permutation seed.
        seed: u64,
    },
    /// Logically adjacent clusters end up `n/stride` pages apart.
    Strided {
        /// Number of interleaved groups.
        stride: usize,
    },
    /// Chunks of `chunk` consecutive clusters keep their internal order but
    /// the chunks themselves are permuted — a moderately aged database:
    /// traversal is sequential within a chunk, with a seek between chunks.
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
    /// A single record (e.g. a giant text node) exceeds the page budget.
    RecordTooLarge {
        /// The encoded record size.
        size: usize,
        /// The page budget it must fit into.
        budget: usize,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::RecordTooLarge { size, budget } => {
                write!(f, "record of {size} bytes exceeds page budget {budget}")
            }
        }
    }
}

impl std::error::Error for ImportError {}

struct BuildCluster {
    nodes: Vec<Node>,
    bytes: Vec<u8>,          // the nodes' payloads, back to back
    lasts: Vec<Option<u16>>, // last child per slot
    used: usize,
    open: usize, // nodes with unfinished child processing (border liability)
}

impl BuildCluster {
    fn new() -> Self {
        Self {
            nodes: Vec::new(),
            bytes: Vec::new(),
            lasts: Vec::new(),
            used: 0,
            open: 0,
        }
    }

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
}

struct Frame {
    /// Document node whose children are being processed.
    next_child: Option<NodeRef>,
    /// Cluster currently receiving the children.
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

/// Builds the clusters (with cluster-index placeholders in border targets).
fn partition(
    doc: &Document,
    budget: usize,
    ranks: &[u64],
) -> Result<(Vec<BuildCluster>, u64), ImportError> {
    let mut clusters: Vec<BuildCluster> = vec![BuildCluster::new()];
    let mut border_edges = 0u64;
    // Scrap bin: cluster currently collecting chain-split continuations.
    let mut scrap: Option<usize> = None;
    let mut payload = Vec::new();

    // Root node always goes to cluster 0, slot 0.
    let root_kind = node_kind(doc, doc.root(), &mut payload);
    let root_size = encoded_size(&root_kind);
    if root_size + BORDER_SIZE > budget {
        return Err(ImportError::RecordTooLarge {
            size: root_size,
            budget,
        });
    }
    clusters[0].add(
        root_kind,
        &payload,
        None,
        crate::node::order_key(ranks[doc.root().0 as usize]),
    );
    clusters[0].open = 1;

    let mut stack = vec![Frame {
        next_child: doc.first_child(doc.root()),
        cluster: 0,
        parent_slot: 0,
    }];

    while let Some(frame) = stack.last_mut() {
        let Some(child) = frame.next_child else {
            clusters[frame.cluster].open -= 1;
            stack.pop();
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
        let c = &clusters[cluster_idx];
        let open_after = c.open + usize::from(has_children);
        let inline_ok = c.used + size + open_after * BORDER_SIZE <= budget;

        let (target_cluster, target_parent) = if inline_ok {
            (cluster_idx, parent_slot)
        } else {
            // Chain split: close this cluster's chain with one BorderDown
            // and continue the remaining children behind a BorderUp in
            // another cluster — the scrap bin if the continuation fits
            // there, a fresh cluster otherwise.
            let target_idx = match scrap {
                Some(b) if b != cluster_idx => {
                    let c = &clusters[b];
                    let open_after = c.open + 1 + usize::from(has_children);
                    if c.used + BORDER_SIZE + size + open_after * BORDER_SIZE <= budget {
                        b
                    } else {
                        let idx = clusters.len();
                        clusters.push(BuildCluster::new());
                        scrap = Some(idx);
                        idx
                    }
                }
                _ => {
                    let idx = clusters.len();
                    clusters.push(BuildCluster::new());
                    scrap = Some(idx);
                    idx
                }
            };
            let down_slot = {
                let c = &mut clusters[cluster_idx];
                // The liability reservation guarantees this fits; the
                // target slot is patched right below.
                let slot = c.add(
                    NodeKind::BorderDown {
                        target: NodeId::new(target_idx as u32, 0),
                    },
                    &[],
                    Some(parent_slot),
                    order,
                );
                c.open -= 1;
                debug_assert!(c.used <= budget, "border liability violated");
                slot
            };
            let up_slot = clusters[target_idx].add(
                NodeKind::BorderUp {
                    target: NodeId::new(cluster_idx as u32, down_slot),
                },
                &[],
                None,
                order,
            );
            clusters[target_idx].open += 1;
            // Patch the BorderDown's target slot (forest clusters may hold
            // several BorderUp roots).
            if let NodeKind::BorderDown { target } =
                &mut clusters[cluster_idx].nodes[down_slot as usize].kind
            {
                target.slot = up_slot;
            }
            border_edges += 1;
            // The current frame's remaining children now flow to the
            // continuation under the new BorderUp.
            let frame = stack.last_mut().expect("frame still on stack");
            frame.cluster = target_idx;
            frame.parent_slot = up_slot;

            // Re-check: the node itself (plus liabilities) must fit.
            let c = &clusters[target_idx];
            let open_after = c.open + usize::from(has_children);
            if c.used + size + open_after * BORDER_SIZE > budget {
                return Err(ImportError::RecordTooLarge { size, budget });
            }
            (target_idx, up_slot)
        };

        let slot = clusters[target_cluster].add(kind, &payload, Some(target_parent), order);
        if has_children {
            clusters[target_cluster].open += 1;
            stack.push(Frame {
                next_child: doc.first_child(child),
                cluster: target_cluster,
                parent_slot: slot,
            });
        }
    }

    Ok((clusters, border_edges))
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
        Placement::Shuffled { seed } => {
            let mut order: Vec<usize> = (0..n).collect();
            seeded_shuffle(&mut order, seed);
            for (position, &cluster) in order.iter().enumerate() {
                pos[cluster] = position;
            }
        }
        Placement::Strided { stride } => {
            let stride = stride.max(1);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| (i % stride, i / stride));
            for (position, &cluster) in order.iter().enumerate() {
                pos[cluster] = position;
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
    // Leave room for the slot directory (count + (n+1) offsets; with records
    // ≥ 17 bytes, slots per page ≤ page/17, so 2 bytes per record + 4 fixed
    // is a safe bound) and for the checksum trailer at the page end.
    let budget = cfg.page_size - 4 - CHECKSUM_LEN - 2 * (cfg.page_size / 17 + 1);
    let ranks = doc.preorder_ranks();
    let (clusters, border_edges) = partition(doc, budget, &ranks)?;

    let n = clusters.len();
    let positions = placement_positions(n, cfg.placement);
    let base = device.num_pages();

    // Fix border targets: placeholder page = cluster index.
    let mut finals: Vec<Cluster> = Vec::with_capacity(n);
    let mut record_bytes = 0u64;
    let mut nodes = 0u64;
    for (idx, mut c) in clusters.into_iter().enumerate() {
        record_bytes += c.used as u64;
        nodes += c.nodes.iter().filter(|x| x.kind.is_core()).count() as u64;
        for node in &mut c.nodes {
            if let NodeKind::BorderDown { target } | NodeKind::BorderUp { target } = &mut node.kind
            {
                target.page = base + positions[target.page as usize] as PageId;
            }
        }
        finals.push(Cluster {
            page: base + positions[idx] as PageId,
            nodes: c.nodes,
            bytes: c.bytes.into(),
        });
    }

    // Write in physical page order.
    finals.sort_by_key(|c| c.page);
    for c in &finals {
        let mut bytes = encode_cluster(c, cfg.page_size);
        seal_page(&mut bytes);
        let pid = device.append_page(bytes);
        assert_eq!(pid, c.page, "device page allocation out of sync");
    }

    let mut tag_counts = vec![0u64; doc.symbols().len()];
    let mut tag_descendants = vec![0u64; doc.symbols().len()];
    // Subtree sizes via the preorder-rank trick: the nodes of a subtree
    // occupy a contiguous rank interval, so size = next-outside rank − own.
    let preorder: Vec<_> = doc.descendants_or_self(doc.root()).collect();
    let total = preorder.len() as u64;
    let mut subtree_end = vec![0u64; doc.len()];
    {
        let mut rank_of = vec![0u64; doc.len()];
        for (rank, &node) in preorder.iter().enumerate() {
            rank_of[node.0 as usize] = rank as u64;
        }
        // end(node) = rank of the next node outside its subtree: the next
        // sibling's rank, else the parent's end. Parents precede children
        // in preorder, so one top-down pass suffices.
        let mut end_of = vec![total; doc.len()];
        for &node in &preorder {
            let e = match doc.next_sibling(node) {
                Some(ns) => rank_of[ns.0 as usize],
                None => match doc.parent(node) {
                    Some(p) => end_of[p.0 as usize],
                    None => total,
                },
            };
            end_of[node.0 as usize] = e;
            subtree_end[node.0 as usize] = e - rank_of[node.0 as usize];
        }
    }
    for node in doc.descendants_or_self(doc.root()) {
        if let Some(tag) = doc.tag(node) {
            tag_counts[tag.index() as usize] += 1;
            tag_descendants[tag.index() as usize] += subtree_end[node.0 as usize];
        }
    }

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
    };
    let report = ImportReport {
        clusters: n as u32,
        border_edges,
        nodes,
        record_bytes,
    };
    Ok((meta, report))
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pathix_storage::{MemDevice, SimClock};

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

    fn import_mem(doc: &Document, page_size: usize) -> (MemDevice, TreeMeta, ImportReport) {
        let mut dev = MemDevice::new(page_size);
        let cfg = ImportConfig {
            page_size,
            placement: Placement::Sequential,
        };
        let (meta, report) = import_into(&mut dev, doc, &cfg).unwrap();
        (dev, meta, report)
    }

    /// Decodes all pages and checks structural invariants.
    fn check_invariants(dev: &mut MemDevice, meta: &TreeMeta) {
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
        let mut dev = MemDevice::new(512);
        let cfg = ImportConfig {
            page_size: 512,
            placement: Placement::Shuffled { seed: 7 },
        };
        let (meta, report) = import_into(&mut dev, &doc, &cfg).unwrap();
        assert_eq!(meta.page_count, report.clusters);
        check_invariants(&mut dev, &meta);
        // Root is usually not on page 0 under shuffle.
        let seq = import_mem(&doc, 512).1;
        assert_eq!(seq.page_count, meta.page_count);
    }

    #[test]
    fn strided_placement_positions() {
        let pos = placement_positions(6, Placement::Strided { stride: 2 });
        // clusters 0,2,4 land first, then 1,3,5.
        assert_eq!(pos, vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn shuffled_positions_are_permutation() {
        let pos = placement_positions(100, Placement::Shuffled { seed: 3 });
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
        let mut dev = MemDevice::new(1024);
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
        let err = import_into(&mut MemDevice::new(1 << 16), &doc, &cfg).unwrap_err();
        assert!(matches!(err, ImportError::RecordTooLarge { .. }));
    }

    #[test]
    fn two_documents_share_device() {
        let doc1 = wide_doc(50);
        let doc2 = deep_doc(50);
        let mut dev = MemDevice::new(512);
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
        let mut dev = pathix_storage::MemDevice::new(512);
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
