//! Format pin: every stored page decodes to a cluster that re-encodes to the
//! very same sealed image. A decoded cluster indexes its page in place, so
//! this is the check that decoding loses nothing the page format carries —
//! attributes, text, borders, tombstones — on an imported XMark document
//! and again after a seeded update script has rewritten, relocated,
//! overflowed and deleted records.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_storage::{seal_page, BufferParams, MemDevice, SimClock};
use pathix_tree::node::{decode_cluster, encode_cluster};
use pathix_tree::{
    import_into, ImportConfig, InsertPos, NewNode, Node, NodeId, NodeKind, Placement, TreeStore,
    TreeUpdater,
};
use pathix_xmlgen::{generate, GenConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::rc::Rc;

const PAGE: usize = 8192;

fn xmark_store() -> TreeStore {
    let doc = generate(&GenConfig::at_scale(0.1));
    let mut dev = MemDevice::new(PAGE);
    let cfg = ImportConfig {
        page_size: PAGE,
        placement: Placement::Sequential,
    };
    let (meta, _) = import_into(&mut dev, &doc, &cfg).unwrap();
    TreeStore::open(
        Box::new(dev),
        meta,
        BufferParams::default(),
        Rc::new(SimClock::new()),
    )
}

/// Decodes and re-encodes every page of the document, comparing the sealed
/// result with the stored image byte for byte. Returns how many records of
/// each interesting kind the pages hold: (attributed elements, text,
/// borders, tombstones).
fn assert_pages_reencode(store: &TreeStore) -> [usize; 4] {
    let clock = SimClock::new();
    let mut seen = [0; 4];
    for p in store.meta.page_range() {
        let image = store.buffer.device_mut().read_sync(p, &clock).unwrap();
        let cluster = decode_cluster(p, &image, &clock).unwrap();
        let mut again = encode_cluster(&cluster, PAGE);
        seal_page(&mut again);
        assert!(again[..] == image[..], "page {p} re-encodes differently");
        for n in &cluster.nodes {
            let i = match n.kind {
                NodeKind::Element { .. } if cluster.attrs(n).next().is_some() => 0,
                NodeKind::Text(_) => 1,
                NodeKind::BorderDown { .. } | NodeKind::BorderUp { .. } => 2,
                NodeKind::Free => 3,
                NodeKind::Element { .. } => continue,
            };
            seen[i] += 1;
        }
    }
    seen
}

/// A seeded node of the document matching `want`.
fn pick(store: &TreeStore, rng: &mut StdRng, want: impl Fn(&Node) -> bool) -> NodeId {
    loop {
        let page = rng.random_range(store.meta.page_range());
        let cluster = store.fix(page);
        let slots: Vec<u16> = (0..cluster.len() as u16)
            .filter(|&s| want(cluster.node(s)))
            .collect();
        if !slots.is_empty() {
            return NodeId::new(page, slots[rng.random_range(0..slots.len())]);
        }
    }
}

fn is_text(n: &Node) -> bool {
    matches!(n.kind, NodeKind::Text(_))
}

fn is_inner_core(n: &Node) -> bool {
    n.kind.is_core() && n.parent.is_some()
}

#[test]
fn imported_pages_reencode_to_their_image() {
    let [attributed, texts, borders, _] = assert_pages_reencode(&xmark_store());
    assert!(attributed > 0 && texts > 0 && borders > 0);
}

#[test]
fn updated_pages_reencode_to_their_image() {
    let mut store = xmark_store();
    let mut rng = StdRng::seed_from_u64(0xF0A7);
    let imported = store.meta.page_count;

    // Rewritten text records, shorter and longer than before.
    for _ in 0..40 {
        let t = pick(&store, &mut rng, is_text);
        let text = "rewritten ".repeat(rng.random_range(0..20));
        let _ = TreeUpdater::new(&mut store).update_text(t, &text);
    }

    // Inserts until one overflows its page onto a fresh one.
    for i in 0.. {
        assert!(i < 2000, "no insert overflowed");
        let at = pick(&store, &mut rng, is_inner_core);
        let what = NewNode::Text("an inserted text record ".repeat(4));
        let _ = TreeUpdater::new(&mut store).insert(InsertPos::After(at), what);
        if store.meta.page_count > imported {
            break;
        }
    }

    // Fill one page to the last byte through a text record, then insert
    // next to it: not even a border proxy fits, so `make_room` relocates
    // leaves (the grown text first) onto an overflow page.
    let t = pick(&store, &mut rng, is_text);
    let (mut lo, mut hi) = (0, PAGE);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        match TreeUpdater::new(&mut store).update_text(t, &"f".repeat(mid)) {
            Ok(()) => lo = mid,
            Err(_) => hi = mid,
        }
    }
    TreeUpdater::new(&mut store)
        .update_text(t, &"f".repeat(lo))
        .unwrap();
    let before = store.meta.page_count;
    TreeUpdater::new(&mut store)
        .insert(InsertPos::After(t), NewNode::Text("next to it".into()))
        .unwrap();
    assert_eq!(
        store.meta.page_count,
        before + 2,
        "an overflow page for the relocated leaves and one for the insert"
    );
    assert!(matches!(
        store.fix(t.page).node(t.slot).kind,
        NodeKind::BorderDown { .. }
    ));

    // Deletes leave tombstones.
    for _ in 0..30 {
        let victim = pick(&store, &mut rng, is_inner_core);
        TreeUpdater::new(&mut store).delete(victim).unwrap();
    }

    let [attributed, texts, borders, tombstones] = assert_pages_reencode(&store);
    assert!(attributed > 0 && texts > 0 && borders > 0 && tombstones > 0);
}
