//! A page whose checksum verifies but whose records do not decode — a
//! crafted file, or an updater bug sealed after the damage — fails the
//! queries that read it with a typed, unretried I/O error, and only those:
//! queries that never touch the page still return the reference result.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

mod support;

use pathix::storage::{seal_page, verify_page, DecodeError, IoErrorKind, SlottedPageReader};
use pathix::{Database, DbError, ExecError, Method};
use pathix_xpath::parse_path;
use std::collections::BTreeSet;
use support::{doc, keys, mem_opts, reference, sorted};

/// Reads every page of the document, whatever the method.
const AFFECTED: &str = "//keyword";

/// Read only the pages their navigation reaches (so not with XScan, which
/// scans every page).
const UNAFFECTED: [&str; 3] = [
    "/site/people/person/name",
    "/site/categories/category/name",
    "/site/catgraph/edge",
];

#[test]
fn undecodable_page_fails_its_queries_once_and_no_others() {
    let db = Database::from_document(doc(), &mem_opts()).unwrap();
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

    for (path, method) in UNAFFECTED.iter().flat_map(|p| navigating.map(|m| (p, m))) {
        db.clear_buffers();
        let run = db.run(path, sorted(method)).unwrap();
        let want = reference(doc(), &parse_path(path).unwrap().rooted());
        assert!(!want.is_empty(), "{path}");
        assert_eq!(keys(&run.nodes), want, "{path} ({method:?})");
    }
}
