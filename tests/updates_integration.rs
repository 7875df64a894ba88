//! End-to-end: queries over *updated* stores. This is the scenario the
//! paper's requirement 2 exists for — the scan-based competitors cannot
//! maintain their preorder numberings under updates, while pathix keeps
//! every plan correct after arbitrary mutations.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::{Database, DatabaseOptions, DeviceKind, Method, PlanConfig};
use pathix_tree::{InsertPos, NewNode, NodeId, Placement};
use pathix_xml::Document;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn fresh_db(doc: &Document) -> Database {
    Database::from_document(
        doc,
        &DatabaseOptions {
            page_size: 512,
            placement: Placement::Sequential,
            buffer_pages: 16,
            device: DeviceKind::Mem,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Pairs document nodes with stored ids positionally (both walks are in
/// document order).
fn paired(db: &Database, doc: &Document) -> Vec<(pathix_xml::NodeRef, NodeId)> {
    let mut by_order = std::collections::BTreeMap::new();
    for p in db.store().meta.page_range() {
        let c = db.store().fix(p);
        for (slot, n) in c.nodes.iter().enumerate() {
            if n.kind.is_core() {
                by_order.insert(n.order, NodeId::new(p, slot as u16));
            }
        }
    }
    doc.descendants_or_self(doc.root())
        .zip(by_order.into_values())
        .collect()
}

#[test]
fn queries_stay_correct_after_random_updates() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut doc = Document::new("site");
    for i in 0..15 {
        let item = doc.add_element(doc.root(), "item");
        let name = doc.add_element(item, "name");
        doc.add_text(name, &format!("thing {i}"));
        if i % 3 == 0 {
            let d = doc.add_element(item, "description");
            doc.add_element(d, "keyword");
        }
    }
    let mut db = fresh_db(&doc);

    // 60 random mutations, mirrored on the logical document.
    for step in 0..60 {
        let nodes = paired(&db, &doc);
        assert_eq!(
            nodes.len(),
            doc.descendants_or_self(doc.root()).count(),
            "node-count drift at step {step}"
        );
        let (dnode, sid) = nodes[rng.random_range(0..nodes.len())];
        match rng.random_range(0..10) {
            0..=4 => {
                if doc.is_element(dnode) {
                    let tag = ["keyword", "name", "extra"][rng.random_range(0..3usize)];
                    if db
                        .updater()
                        .insert(InsertPos::FirstChildOf(sid), NewNode::Element(tag.into()))
                        .is_ok()
                    {
                        doc.insert_element_first(dnode, tag);
                    }
                }
            }
            5..=7 => {
                if dnode != doc.root() {
                    let text = format!("inserted {step}");
                    if db
                        .updater()
                        .insert(InsertPos::After(sid), NewNode::Text(text.clone()))
                        .is_ok()
                    {
                        doc.insert_text_after(dnode, &text);
                    }
                }
            }
            _ => {
                if dnode != doc.root() && db.updater().delete(sid).is_ok() {
                    doc.detach(dnode);
                }
            }
        }
    }

    // Every plan still matches the reference on the mutated document.
    let ranks = doc.preorder_ranks();
    for q in [
        "//keyword",
        "/site/item/name",
        "//name/text()",
        "//item//keyword",
    ] {
        let path = pathix_xpath::parse_path(q).unwrap().rooted();
        let want = pathix_xpath::eval_path(&doc, doc.root(), &path.normalize()).len();
        let _ = &ranks;
        for m in [Method::Simple, Method::xschedule(), Method::XScan] {
            let mut cfg = PlanConfig::new(m);
            cfg.sort = true;
            let run = db.run(q, cfg).unwrap();
            assert_eq!(run.nodes.len(), want, "{q} via {m:?} after updates");
            // Document order is preserved by the gapped keys.
            assert!(run.nodes.windows(2).all(|w| w[0].1 < w[1].1));
        }
    }
    // And the full export still mirrors the logical document.
    assert!(doc.logically_equal(&db.export()));
    assert!(doc.logically_equal(&db.export_scan()));
}

#[test]
fn updates_fragment_the_layout() {
    // The paper's premise, measured: updates allocate overflow pages at
    // the end of the file, away from their logical neighbours.
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.02));
    let mut db = Database::from_document(
        &doc,
        &DatabaseOptions {
            page_size: 2048,
            placement: Placement::Sequential,
            buffer_pages: 16,
            device: DeviceKind::Mem,
            ..Default::default()
        },
    )
    .unwrap();
    let pages_before = db.pages();
    let mut rng = StdRng::seed_from_u64(7);
    let mut inserted = 0;
    while inserted < 300 {
        let range = db.store().meta.page_range();
        let page = rng.random_range(range.start..range.end);
        let anchors: Vec<u16> = {
            let c = db.store().fix(page);
            c.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.kind.is_core() && n.parent.is_some())
                .map(|(i, _)| i as u16)
                .collect()
        };
        if anchors.is_empty() {
            continue;
        }
        let slot = anchors[rng.random_range(0..anchors.len())];
        if db
            .updater()
            .insert(
                InsertPos::After(NodeId::new(page, slot)),
                NewNode::Text("added later".into()),
            )
            .is_ok()
        {
            inserted += 1;
        }
    }
    assert!(
        db.pages() > pages_before,
        "updates must allocate overflow pages"
    );
    // Still answers correctly.
    let run = db.run("count(//item)", Method::XScan).unwrap();
    let want = pathix_xpath::eval_query(
        &doc,
        doc.root(),
        &pathix_xpath::parse_query("count(//item)").unwrap().rooted(),
    )
    .as_number();
    assert_eq!(run.value, want);
}
