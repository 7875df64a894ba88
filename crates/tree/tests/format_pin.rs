//! Format pin, on an imported XMark document and again after a seeded
//! update script has rewritten, relocated, overflowed and deleted records:
//!
//! - every stored page decodes to a cluster that re-encodes to the very same
//!   sealed image. A decoded cluster indexes its page in place, so this is
//!   the check that decoding loses nothing the page format carries —
//!   attributes, text, borders, tombstones;
//! - a digest of every page image equals a golden value. Round-tripping
//!   alone passes an encoder change that moves import and re-encode alike;
//!   the digest fails if any stored bit moves. A deliberate format change
//!   updates the golden values (the failure prints the new ones).
//!
//! Import is also pinned under both shuffled placements, whose border
//! records name pages that depend on the permutation, and on 2 KiB pages,
//! which hold many scrap-bin continuations and border pairs.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_storage::{seal_page, BufferParams, DiskProfile, SimClock, SimDisk};
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

/// (pages, FNV-1a digest of every sealed page image in page order) of the
/// imported document.
const GOLDEN_IMPORT: (u32, u64) = (111, 0xd07c_3ae7_2b9f_7f26);
/// The same after the update script.
const GOLDEN_UPDATED: (u32, u64) = (114, 0xbd75_34f7_f1e7_f5df);
/// The import under `ChunkShuffled { chunk: 4 }`.
const GOLDEN_CHUNK_4: (u32, u64) = (111, 0x033e_fb66_b157_31ec);
/// The import under `ChunkShuffled { chunk: 1 }`.
const GOLDEN_CHUNK_1: (u32, u64) = (111, 0x8d91_c4b1_28fd_e880);
/// The sequential import on 2 KiB pages.
const GOLDEN_2K: (u32, u64) = (482, 0xbccb_c445_d316_94e5);

/// The shuffle seed of the shuffled placements.
const SEED: u64 = 0xA6E;

fn xmark_store() -> TreeStore {
    store_of(PAGE, Placement::Sequential)
}

/// The SF 0.1 XMark document imported onto `page_size`-byte pages.
fn store_of(page_size: usize, placement: Placement) -> TreeStore {
    let doc = generate(&GenConfig::at_scale(0.1));
    let mut dev = SimDisk::with_profile(page_size, DiskProfile::instant());
    let cfg = ImportConfig {
        page_size,
        placement,
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
/// result with the stored image byte for byte, and checks the digest of all
/// images against `golden`. Returns how many records of each interesting
/// kind the pages hold: (attributed elements, text, borders, tombstones).
fn assert_pages_pinned(store: &TreeStore, golden: (u32, u64)) -> [usize; 4] {
    let page_size = store.buffer.device_mut().page_size();
    let clock = SimClock::new();
    let mut seen = [0; 4];
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for p in store.meta.page_range() {
        let image = store.buffer.device_mut().read_sync(p, &clock).unwrap();
        for &b in image.iter() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let cluster = decode_cluster(p, &image, &clock).unwrap();
        let mut again = encode_cluster(&cluster, page_size);
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
    let pages = store.meta.page_count;
    assert!(
        (pages, digest) == golden,
        "stored bits moved: now ({pages}, {digest:#018x})"
    );
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
    let [attributed, texts, borders, _] = assert_pages_pinned(&xmark_store(), GOLDEN_IMPORT);
    assert!(attributed > 0 && texts > 0 && borders > 0);
}

#[test]
fn shuffled_imports_reencode_to_their_image() {
    for (chunk, golden) in [(4, GOLDEN_CHUNK_4), (1, GOLDEN_CHUNK_1)] {
        let placement = Placement::ChunkShuffled { chunk, seed: SEED };
        let [_, _, borders, _] = assert_pages_pinned(&store_of(PAGE, placement), golden);
        assert!(borders > 0);
    }
}

#[test]
fn small_page_import_reencodes_to_its_image() {
    let store = store_of(2048, Placement::Sequential);
    let [_, _, borders, _] = assert_pages_pinned(&store, GOLDEN_2K);
    assert!(
        borders >= 2 * (store.meta.page_count as usize - 1),
        "a border pair per page"
    );
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

    let [attributed, texts, borders, tombstones] = assert_pages_pinned(&store, GOLDEN_UPDATED);
    assert!(attributed > 0 && texts > 0 && borders > 0 && tombstones > 0);
}
