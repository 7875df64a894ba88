//! A page whose checksum verifies but whose records do not decode — a
//! crafted file, or an updater bug sealed after the damage — fails the
//! queries that read it with a typed, unretried I/O error, and only those:
//! queries that never touch the page still return the reference result.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::storage::DiskProfile;
use pathix::storage::{seal_page, verify_page, DecodeError, IoErrorKind, SlottedPageReader};
use pathix::{Database, DatabaseOptions, DbError, ExecError, Method, PlanConfig};
use pathix_xpath::{eval_path, parse_path};
use std::collections::BTreeSet;

/// Reads every page of the document, whatever the method.
const AFFECTED: &str = "//keyword";

/// Read only the pages their navigation reaches (so not with XScan, which
/// scans every page).
const UNAFFECTED: [&str; 3] = [
    "/site/people/person/name",
    "/site/categories/category/name",
    "/site/catgraph/edge",
];

fn sorted(method: Method) -> PlanConfig {
    let mut cfg = PlanConfig::new(method);
    cfg.sort = true;
    cfg
}

#[test]
fn undecodable_page_fails_its_queries_once_and_no_others() {
    let doc = pathix::xmlgen::generate(&pathix::xmlgen::GenConfig::at_scale(0.008));
    let opts = DatabaseOptions {
        page_size: 1024,
        buffer_pages: 8,
        profile: DiskProfile::instant(),
        ..Default::default()
    };
    let db = Database::from_document(&doc, &opts).unwrap();
    let navigating = [Method::Simple, Method::xschedule()];

    // A page no unaffected query reads.
    db.trace_device(true);
    for (path, method) in UNAFFECTED.iter().flat_map(|p| navigating.map(|m| (p, m))) {
        db.clear_buffers();
        db.run(path, sorted(method)).unwrap();
    }
    let read: BTreeSet<u32> = db.device_trace().into_iter().collect();
    let victim = db
        .store()
        .meta
        .page_range()
        .rev()
        .find(|p| !read.contains(p))
        .unwrap();

    // Point its first record's parent link past the page's records, and
    // re-seal the image: the checksum verifies, decode does not.
    let store = db.store();
    let image = store.buffer.device_mut().read_sync(victim, store.clock());
    let mut image = image.unwrap().to_vec();
    let at = SlottedPageReader::new(&image)
        .record_range(0)
        .unwrap()
        .start;
    assert_ne!(image[at], 4, "record 0 is not a tombstone");
    image[at + 1..at + 3].copy_from_slice(&u16::MAX.to_le_bytes());
    seal_page(&mut image);
    assert!(verify_page(&image));
    store.buffer.device_mut().write_page(victim, image);

    let undecodable = IoErrorKind::Undecodable(DecodeError::Link {
        slot: 0,
        link: u16::MAX - 1,
    });
    for method in [Method::Simple, Method::xschedule(), Method::XScan] {
        db.clear_buffers();
        match db.run(AFFECTED, sorted(method)) {
            Err(DbError::Exec(ExecError::Io {
                page,
                kind,
                attempts,
            })) => {
                assert_eq!((page, kind), (victim, undecodable), "{method:?}");
                assert_eq!(attempts, 1, "{method:?}: decode is never retried");
            }
            other => panic!("{method:?}: {AFFECTED} gave {other:?}"),
        }
        assert!(store.take_io_error().is_none(), "the executor took it");
        assert_eq!(store.buffer.device_stats().retries, 0);
        assert!(!store.buffer.is_resident(victim));
    }

    let ranks = doc.preorder_ranks();
    for (path, method) in UNAFFECTED.iter().flat_map(|p| navigating.map(|m| (p, m))) {
        db.clear_buffers();
        let run = db.run(path, sorted(method)).unwrap();
        let got: Vec<u64> = run.nodes.iter().map(|&(_, order)| order).collect();
        let want: Vec<u64> = eval_path(&doc, doc.root(), &parse_path(path).unwrap().rooted())
            .iter()
            .map(|n| pathix::tree::node::order_key(ranks[n.0 as usize]))
            .collect();
        assert!(!want.is_empty(), "{path}");
        assert_eq!(got, want, "{path} ({method:?})");
    }
}
