//! Export: reconstructs the logical [`Document`] from a stored tree by
//! walking all clusters across borders. Used for round-trip verification
//! (import ∘ export ≡ identity) and by the document-export use case the
//! paper's outlook mentions.

use crate::node::{Cluster, DecodeError, NodeKind};
use crate::store::TreeStore;
use pathix_storage::PageId;
use pathix_xml::{Document, NodeRef};
use std::collections::HashMap;
use std::sync::Arc;

struct Frame {
    cluster: Arc<Cluster>,
    /// Next slot to process in the current sibling chain.
    cur: Option<u16>,
    /// Document node receiving the children.
    parent: NodeRef,
}

/// Rebuilds the logical document from the store.
///
/// Fixes every page of the document through the buffer manager (sequentially
/// by following the tree structure), so it exercises exactly the structures
/// queries use.
///
/// # Panics
/// Like [`TreeStore::fix`], on an unrecoverable read error; and on a text
/// or attribute payload that is not UTF-8.
pub fn export(store: &TreeStore) -> Document {
    walk(store, |page| store.fix(page))
}

/// Rebuilds the logical document with a **single sequential scan** of the
/// document's pages, then stitches the clusters in memory — the
/// scan-friendly export the paper's outlook sketches ("speed up document
/// export, where our 'path instance' becomes the textual representation of
/// a whole document", §7). On a fragmented layout this replaces the
/// random page accesses of [`export`]'s structural walk with one scan.
///
/// # Panics
/// As [`export`].
pub fn export_scan(store: &TreeStore) -> Document {
    // One sequential pass pins every cluster; the walk does no further I/O.
    let clusters: HashMap<PageId, Arc<Cluster>> = store
        .meta
        .page_range()
        .map(|page| (page, store.fix(page)))
        .collect();
    walk(store, |page| Arc::clone(&clusters[&page]))
}

/// Stitches the document from the root's cluster on, taking each page's
/// cluster from `fetch` — in the walk's order, one call per border crossed.
fn walk(store: &TreeStore, fetch: impl Fn(PageId) -> Arc<Cluster>) -> Document {
    let symbols = &store.meta.symbols;
    let root = store.root();
    let root_cluster = fetch(root.page);
    let root_node = *root_cluster.node(root.slot);
    let NodeKind::Element { tag, .. } = root_node.kind else {
        panic!("document root must be an element");
    };
    let mut doc = Document::new(symbols.name(tag));
    for attr in root_cluster.attrs(&root_node) {
        let (name, value) = payload(&root_cluster, attr);
        doc.set_attr(doc.root(), symbols.name(name), value);
    }
    let mut stack = vec![Frame {
        cur: root_node.first_child,
        cluster: root_cluster,
        parent: doc.root(),
    }];
    while let Some(frame) = stack.last_mut() {
        let Some(slot) = frame.cur else {
            stack.pop();
            continue;
        };
        let node = *frame.cluster.node(slot);
        frame.cur = node.next_sibling;
        let (cluster, first, parent) = match node.kind {
            NodeKind::Element { tag, .. } => {
                let el = doc.add_element(frame.parent, symbols.name(tag));
                for attr in frame.cluster.attrs(&node) {
                    let (name, value) = payload(&frame.cluster, attr);
                    doc.set_attr(el, symbols.name(name), value);
                }
                (Arc::clone(&frame.cluster), node.first_child, el)
            }
            NodeKind::Text(_) => {
                doc.add_text(
                    frame.parent,
                    payload(&frame.cluster, frame.cluster.text(&node)),
                );
                continue;
            }
            NodeKind::BorderDown { target } => {
                // Continue this chain position inside the companion cluster:
                // the BorderUp's children are the deferred children.
                let cluster = fetch(target.page);
                let up = *cluster.node(target.slot);
                debug_assert!(matches!(up.kind, NodeKind::BorderUp { .. }));
                (cluster, up.first_child, frame.parent)
            }
            NodeKind::BorderUp { .. } | NodeKind::Free => {
                unreachable!("proxy root or tombstone inside a sibling chain")
            }
        };
        if first.is_some() {
            stack.push(Frame {
                cluster,
                cur: first,
                parent,
            });
        }
    }
    doc
}

/// A payload read from `cluster`. Export has no error channel, so a payload
/// that is not UTF-8 panics, as an unreadable page does in the walk.
fn payload<T>(cluster: &Cluster, read: Result<T, DecodeError>) -> T {
    read.unwrap_or_else(|e| panic!("export: page {}: {e}", cluster.page))
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::import::{import_into, ImportConfig, Placement};
    use crate::store::TreeStore;
    use pathix_storage::{BufferParams, MemDevice, SimClock};
    use std::rc::Rc;

    fn roundtrip(doc: &Document, page_size: usize, placement: Placement) {
        let mut dev = MemDevice::new(page_size);
        let cfg = ImportConfig {
            page_size,
            placement,
        };
        let (meta, _) = import_into(&mut dev, doc, &cfg).unwrap();
        let store = TreeStore::open(
            Box::new(dev),
            meta,
            BufferParams::default(),
            Rc::new(SimClock::new()),
        );
        let back = export(&store);
        assert!(
            doc.logically_equal(&back),
            "export must reproduce the logical document"
        );
    }

    fn rich_doc() -> Document {
        let mut d = Document::new("site");
        let r = d.add_element(d.root(), "regions");
        d.set_attr(r, "count", "3");
        for i in 0..20 {
            let item = d.add_element(r, "item");
            d.set_attr(item, "id", &format!("i{i}"));
            let name = d.add_element(item, "name");
            d.add_text(name, "a reasonably long text payload for splitting");
            let desc = d.add_element(item, "description");
            let list = d.add_element(desc, "parlist");
            for _ in 0..3 {
                let li = d.add_element(list, "listitem");
                d.add_text(li, "item text content");
            }
        }
        d
    }

    #[test]
    fn roundtrip_single_page() {
        roundtrip(&rich_doc(), 1 << 16, Placement::Sequential);
    }

    #[test]
    fn roundtrip_many_small_pages() {
        roundtrip(&rich_doc(), 256, Placement::Sequential);
    }

    #[test]
    fn roundtrip_shuffled() {
        roundtrip(&rich_doc(), 256, Placement::Shuffled { seed: 42 });
    }

    #[test]
    fn roundtrip_strided() {
        roundtrip(&rich_doc(), 256, Placement::Strided { stride: 4 });
    }

    #[test]
    fn roundtrip_deep_chain() {
        let mut d = Document::new("r");
        let mut cur = d.root();
        for _ in 0..500 {
            cur = d.add_element(cur, "n");
        }
        d.add_text(cur, "leaf");
        roundtrip(&d, 256, Placement::Sequential);
    }

    #[test]
    fn export_scan_equals_export() {
        let doc = rich_doc();
        let mut dev = MemDevice::new(256);
        let cfg = ImportConfig {
            page_size: 256,
            placement: Placement::Shuffled { seed: 12 },
        };
        let (meta, _) = import_into(&mut dev, &doc, &cfg).unwrap();
        let store = TreeStore::open(
            Box::new(dev),
            meta,
            BufferParams::default(),
            Rc::new(SimClock::new()),
        );
        let a = export(&store);
        let b = export_scan(&store);
        assert!(a.logically_equal(&b));
        assert!(doc.logically_equal(&b));
    }

    #[test]
    fn export_scan_reads_sequentially() {
        let doc = rich_doc();
        let mut dev = MemDevice::new(256);
        let cfg = ImportConfig {
            page_size: 256,
            placement: Placement::Shuffled { seed: 12 },
        };
        let (meta, _) = import_into(&mut dev, &doc, &cfg).unwrap();
        let store = TreeStore::open(
            Box::new(dev),
            meta,
            BufferParams {
                capacity: 4096,
                ..Default::default()
            },
            Rc::new(SimClock::new()),
        );
        store.buffer.device_mut().set_trace(true);
        let _ = export_scan(&store);
        let trace = store.buffer.device_mut().access_trace().to_vec();
        let expect: Vec<u32> = store.meta.page_range().collect();
        assert_eq!(trace, expect, "one pass, physical order");
    }

    #[test]
    fn roundtrip_wide_fanout() {
        let mut d = Document::new("r");
        for _ in 0..800 {
            d.add_element(d.root(), "c");
        }
        roundtrip(&d, 256, Placement::Shuffled { seed: 1 });
    }
}
