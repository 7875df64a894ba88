//! Update-subsystem tests: stored-tree mutations mirrored against the
//! logical document, structural invariants after updates, and error cases.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_storage::{BufferParams, MemDevice, SimClock};
use pathix_tree::export::export;
use pathix_tree::{
    import_into, ImportConfig, InsertPos, NewNode, NodeId, Placement, TreeStore, TreeUpdater,
    UpdateError,
};
use pathix_xml::Document;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::rc::Rc;

fn store_for(doc: &Document, page_size: usize) -> TreeStore {
    let mut dev = MemDevice::new(page_size);
    let (meta, _) = import_into(
        &mut dev,
        doc,
        &ImportConfig {
            page_size,
            placement: Placement::Sequential,
        },
    )
    .unwrap();
    TreeStore::open(
        Box::new(dev),
        meta,
        BufferParams { capacity: 64 },
        Rc::new(SimClock::new()),
    )
}

/// Maps order keys to stored NodeIds (valid while no updates intervene).
fn by_order(store: &TreeStore) -> std::collections::BTreeMap<u64, NodeId> {
    let mut map = std::collections::BTreeMap::new();
    for p in store.meta.page_range() {
        let c = store.fix(p);
        for (slot, n) in c.nodes.iter().enumerate() {
            if n.kind.is_core() {
                map.insert(n.order, NodeId::new(p, slot as u16));
            }
        }
    }
    map
}

#[test]
fn insert_first_child_roundtrips() {
    let mut doc = Document::new("r");
    let a = doc.add_element(doc.root(), "a");
    doc.add_element(a, "b");
    let mut store = store_for(&doc, 1024);
    // Mirror: insert <n/> as first child of <a>.
    let orders = by_order(&store);
    let ranks = doc.preorder_ranks();
    let a_id = orders[&pathix_tree::node::order_key(ranks[a.0 as usize])];
    TreeUpdater::new(&mut store)
        .insert(InsertPos::FirstChildOf(a_id), NewNode::Element("n".into()))
        .unwrap();
    doc.insert_element_first(a, "n");
    assert!(doc.logically_equal(&export(&store)));
    assert_eq!(store.meta.node_count, doc.len() as u64);
}

#[test]
fn insert_after_roundtrips() {
    let mut doc = Document::new("r");
    let a = doc.add_element(doc.root(), "a");
    doc.add_text(a, "payload");
    doc.add_element(doc.root(), "c");
    let mut store = store_for(&doc, 1024);
    let orders = by_order(&store);
    let ranks = doc.preorder_ranks();
    let a_id = orders[&pathix_tree::node::order_key(ranks[a.0 as usize])];
    TreeUpdater::new(&mut store)
        .insert(InsertPos::After(a_id), NewNode::Element("mid".into()))
        .unwrap();
    doc.insert_element_after(a, "mid");
    assert!(doc.logically_equal(&export(&store)));
}

#[test]
fn insert_text_and_update_text() {
    let mut doc = Document::new("r");
    let a = doc.add_element(doc.root(), "a");
    let mut store = store_for(&doc, 1024);
    let orders = by_order(&store);
    let ranks = doc.preorder_ranks();
    let a_id = orders[&pathix_tree::node::order_key(ranks[a.0 as usize])];
    let t_id = TreeUpdater::new(&mut store)
        .insert(InsertPos::FirstChildOf(a_id), NewNode::Text("hello".into()))
        .unwrap();
    let t = doc.insert_text_first(a, "hello");
    assert!(doc.logically_equal(&export(&store)));

    TreeUpdater::new(&mut store)
        .update_text(t_id, "goodbye world")
        .unwrap();
    doc.set_text(t, "goodbye world");
    assert!(doc.logically_equal(&export(&store)));
}

#[test]
fn delete_local_subtree() {
    let mut doc = Document::new("r");
    let a = doc.add_element(doc.root(), "a");
    let b = doc.add_element(a, "b");
    doc.add_text(b, "t");
    doc.add_element(doc.root(), "c");
    let mut store = store_for(&doc, 2048);
    let orders = by_order(&store);
    let ranks = doc.preorder_ranks();
    let a_id = orders[&pathix_tree::node::order_key(ranks[a.0 as usize])];
    TreeUpdater::new(&mut store).delete(a_id).unwrap();
    doc.detach(a);
    assert!(doc.logically_equal(&export(&store)));
    assert_eq!(store.meta.node_count, 2); // r and c
}

#[test]
fn delete_cross_cluster_subtree_cascades_borders() {
    // Small pages force the subtree across many clusters.
    let mut doc = Document::new("r");
    let big = doc.add_element(doc.root(), "big");
    for _ in 0..40 {
        let x = doc.add_element(big, "x");
        doc.add_text(x, "some longer payload to force splits");
    }
    doc.add_element(doc.root(), "tail");
    let mut store = store_for(&doc, 256);
    assert!(store.meta.page_count > 3);
    let orders = by_order(&store);
    let ranks = doc.preorder_ranks();
    let big_id = orders[&pathix_tree::node::order_key(ranks[big.0 as usize])];
    TreeUpdater::new(&mut store).delete(big_id).unwrap();
    doc.detach(big);
    assert!(doc.logically_equal(&export(&store)));
    // All remote records became tombstones; remaining cores = r + tail.
    assert_eq!(store.meta.node_count, 2);
}

#[test]
fn insert_overflow_allocates_new_page() {
    // Fill a page, then insert into it: the new node must go behind a
    // border pair on a fresh page.
    let mut doc = Document::new("r");
    for _ in 0..10 {
        let a = doc.add_element(doc.root(), "a");
        doc.add_text(a, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
    }
    let mut store = store_for(&doc, 512);
    let pages_before = store.meta.page_count;
    let orders = by_order(&store);
    let ranks = doc.preorder_ranks();
    // Insert many children under the root until a page overflows.
    let root_id = store.meta.root;
    let _ = ranks;
    let _ = orders;
    let mut grew = false;
    for i in 0..30 {
        let pos = InsertPos::FirstChildOf(root_id);
        TreeUpdater::new(&mut store)
            .insert(pos, NewNode::Element(format!("n{i}")))
            .unwrap_or_else(|e| panic!("insert {i}: {e}"));
        doc.insert_element_first(doc.root(), &format!("n{i}"));
        if store.meta.page_count > pages_before {
            grew = true;
            break;
        }
    }
    assert!(grew, "an overflow page must eventually be allocated");
    assert!(doc.logically_equal(&export(&store)));
}

#[test]
fn order_key_space_exhausts_gracefully() {
    let mut doc = Document::new("r");
    doc.add_element(doc.root(), "a");
    let mut store = store_for(&doc, 1 << 15);
    // Repeated first-child inserts halve the same gap: must eventually
    // fail with OrderKeyExhausted rather than corrupt document order.
    let root_id = store.meta.root;
    let mut failed = None;
    for i in 0..64 {
        match TreeUpdater::new(&mut store).insert(
            InsertPos::FirstChildOf(root_id),
            NewNode::Element("z".into()),
        ) {
            Ok(_) => {
                let _ = doc.insert_element_first(doc.root(), "z");
            }
            Err(e) => {
                failed = Some((i, e));
                break;
            }
        }
    }
    let (i, e) = failed.expect("gap must exhaust");
    assert_eq!(e, UpdateError::OrderKeyExhausted);
    assert!(i >= 10, "gap of 2^16 allows ≥ 10 halvings, got {i}");
    assert!(doc.logically_equal(&export(&store)));
}

#[test]
fn invalid_targets_are_rejected() {
    let mut doc = Document::new("r");
    let a = doc.add_element(doc.root(), "a");
    doc.add_text(a, "t");
    let mut store = store_for(&doc, 1024);
    let root = store.meta.root;
    let mut up = TreeUpdater::new(&mut store);
    assert!(matches!(
        up.delete(root),
        Err(UpdateError::InvalidTarget(_))
    ));
    assert!(matches!(
        up.insert(InsertPos::After(root), NewNode::Element("x".into())),
        Err(UpdateError::InvalidTarget(_))
    ));
    assert!(matches!(
        up.update_text(root, "nope"),
        Err(UpdateError::InvalidTarget(_))
    ));
}

/// The workhorse: random interleaved inserts/deletes mirrored on the
/// logical document; export must match after every batch, and queries over
/// the mutated store must match the reference evaluator.
#[test]
fn randomized_mutations_stay_equivalent() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for round in 0..6 {
        let mut doc = Document::new("r");
        for _ in 0..20 {
            let a = doc.add_element(doc.root(), "a");
            doc.add_text(a, "seed payload");
        }
        let mut store = store_for(&doc, 512);
        for step in 0..40 {
            // Pair document nodes with stored ids positionally: both the
            // document walk and the BTreeMap iteration are in document
            // order (keys diverge from preorder ranks after mutations).
            let orders = by_order(&store);
            let nodes: Vec<(pathix_xml::NodeRef, NodeId)> = doc
                .descendants_or_self(doc.root())
                .zip(orders.values().copied())
                .collect();
            assert_eq!(nodes.len(), orders.len(), "store/doc node count drift");
            let pick = nodes[rng.random_range(0..nodes.len())];
            let op = rng.random_range(0..10);
            let mut up = TreeUpdater::new(&mut store);
            match op {
                0..=3 => {
                    // Insert element first-child under an element.
                    if doc.is_element(pick.0) {
                        let tag = format!("t{}", rng.random_range(0..4));
                        if up
                            .insert(
                                InsertPos::FirstChildOf(pick.1),
                                NewNode::Element(tag.clone()),
                            )
                            .is_ok()
                        {
                            doc.insert_element_first(pick.0, &tag);
                        }
                    }
                }
                4..=6 => {
                    // Insert text after a non-root node.
                    if pick.0 != doc.root() {
                        let t = format!("txt{step}");
                        if up
                            .insert(InsertPos::After(pick.1), NewNode::Text(t.clone()))
                            .is_ok()
                        {
                            doc.insert_text_after(pick.0, &t);
                        }
                    }
                }
                _ => {
                    // Delete a non-root subtree.
                    if pick.0 != doc.root() && up.delete(pick.1).is_ok() {
                        doc.detach(pick.0);
                    }
                }
            }
        }
        let exported = export(&store);
        assert!(
            doc.logically_equal(&exported),
            "round {round}: export mismatch after mutations"
        );
        assert_eq!(store.meta.node_count, {
            doc.descendants_or_self(doc.root()).count() as u64
        });
    }
}

/// `make_room` moves payload-carrying leaves — attributed elements and long
/// texts — to overflow pages; their attribute and text bytes must move with
/// them. Seeded inserts and text rewrites at a small page size, mirrored on
/// the logical document, until a relocated attributed leaf shows up behind a
/// border.
#[test]
fn relocated_leaves_keep_their_payload() {
    let mut doc = Document::new("r");
    for i in 0..16 {
        let item = doc.add_element(doc.root(), "item");
        doc.set_attr(item, "id", &format!("item{i}"));
        let flag = doc.add_element(item, "flag");
        doc.set_attr(flag, "kind", &"k".repeat(10 + i % 7 * 5));
        doc.set_attr(flag, "note", "an attribute value long enough to move");
        let desc = doc.add_element(item, "desc");
        doc.add_text(desc, &"long text leaf ".repeat(3 + i % 4));
    }
    let mut store = store_for(&doc, 512);
    let imported = store.meta.page_range();
    let mut rng = StdRng::seed_from_u64(0x5EA1);
    let mut relocated = false;
    for round in 0..60 {
        for _ in 0..4 {
            let orders = by_order(&store);
            let nodes: Vec<(pathix_xml::NodeRef, NodeId)> = doc
                .descendants_or_self(doc.root())
                .zip(orders.values().copied())
                .collect();
            let (dnode, sid) = nodes[rng.random_range(0..nodes.len())];
            let mut up = TreeUpdater::new(&mut store);
            if doc.text(dnode).is_some() {
                let t = "grown text ".repeat(rng.random_range(1..12));
                if up.update_text(sid, &t).is_ok() {
                    doc.set_text(dnode, &t);
                }
            } else if dnode != doc.root() {
                let t = format!("inserted in round {round}");
                if up
                    .insert(InsertPos::After(sid), NewNode::Text(t.clone()))
                    .is_ok()
                {
                    doc.insert_text_after(dnode, &t);
                }
            }
        }
        assert!(
            doc.logically_equal(&export(&store)),
            "round {round}: export mismatch"
        );
        relocated = store.meta.page_range().skip(imported.len()).any(|p| {
            let c = store.fix(p);
            c.nodes.iter().any(|n| {
                let behind_border = n
                    .parent
                    .is_some_and(|up| c.node(up).kind.target().is_some());
                behind_border && c.attrs(n).next().is_some()
            })
        });
        if relocated {
            break;
        }
    }
    assert!(
        store.meta.page_count > imported.len() as u32,
        "no overflow page"
    );
    assert!(relocated, "no attributed leaf was relocated");
}

/// Live `BorderDown` records over the document's pages: one per
/// inter-cluster edge.
fn live_border_downs(store: &TreeStore) -> u64 {
    store
        .meta
        .page_range()
        .map(|p| {
            let c = store.fix(p);
            let downs = c
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, pathix_tree::NodeKind::BorderDown { .. }));
            downs.count() as u64
        })
        .sum()
}

/// `TreeMeta::border_edges` follows the updates: a seeded script of long
/// text inserts (which overflow onto fresh pages), element inserts into
/// full pages (which force `make_room` to relocate leaves first) and
/// subtree deletes keeps it equal to a fresh count of the live border
/// pairs after every commit.
#[test]
fn updates_keep_border_edges_current() {
    let mut doc = Document::new("r");
    for i in 0..24 {
        let item = doc.add_element(doc.root(), "item");
        let desc = doc.add_element(item, "desc");
        doc.add_text(desc, &"long text leaf ".repeat(2 + i % 5));
    }
    let mut store = store_for(&doc, 512);
    assert_eq!(store.meta.border_edges, live_border_downs(&store));
    let mut rng = StdRng::seed_from_u64(0x00B0_4DE5);
    let (mut overflows, mut relocations, mut drops) = (0, 0, 0);
    for step in 0..150 {
        // Any core node but the root, which comes first in document order.
        let nodes: Vec<NodeId> = by_order(&store).into_values().skip(1).collect();
        let pick = nodes[rng.random_range(0..nodes.len())];
        let is_element = matches!(
            store.fix(pick.page).node(pick.slot).kind,
            pathix_tree::NodeKind::Element { .. }
        );
        let before = store.meta.border_edges;
        let mut up = TreeUpdater::new(&mut store);
        let _ = match rng.random_range(0..10) {
            0..=3 => up
                .insert(
                    InsertPos::After(pick),
                    NewNode::Text(format!("inserted text number {step}")),
                )
                .map(drop),
            4..=7 if is_element => up
                .insert(InsertPos::FirstChildOf(pick), NewNode::Element("e".into()))
                .map(drop),
            _ => up.delete(pick),
        };
        up.commit();
        let after = store.meta.border_edges;
        assert_eq!(after, live_border_downs(&store), "step {step}");
        match after.cmp(&before) {
            std::cmp::Ordering::Greater if after - before > 1 => relocations += 1,
            std::cmp::Ordering::Greater => overflows += 1,
            std::cmp::Ordering::Less => drops += 1,
            std::cmp::Ordering::Equal => {}
        }
    }
    assert!(overflows > 0, "no insert overflowed onto a fresh page");
    assert!(relocations > 0, "no insert relocated leaves");
    assert!(drops > 0, "no delete removed a border pair");
}
