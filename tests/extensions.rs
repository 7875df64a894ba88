//! Integration tests for the paper-outlook extensions (§7): the multi-path
//! shared scan, the cost-model optimizer and scan-based export. That the
//! shared scan and concurrent execution answer as each plan alone does is
//! `tests/oracle.rs`'s interleaved and pooled execution paths.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

mod support;

use pathix::{Batch, Database, DatabaseOptions, Method, PlanConfig};
use pathix_tree::Placement;
use support::{doc, mem_opts};

/// A fragmented store of the small XMark document.
fn shuffled_db() -> Database {
    let opts = DatabaseOptions {
        placement: Placement::ChunkShuffled { chunk: 1, seed: 3 },
        ..mem_opts()
    };
    Database::from_document(doc(), &opts).unwrap()
}

#[test]
fn shared_scan_reads_document_once() {
    let db = shuffled_db();
    db.trace_device(true);
    db.clear_buffers();
    db.reset_device_stats();
    let _ = db
        .run_batch(
            &[
                ("/site//description", Method::XScan),
                ("/site//email", Method::XScan),
            ],
            &PlanConfig::new(Method::XScan),
            Batch::Interleaved,
        )
        .unwrap();
    let expected: Vec<u32> = db.store().meta.page_range().collect();
    assert_eq!(db.device_trace(), expected);
}

#[test]
fn optimizer_recommendations_and_auto_run() {
    // The optimizer prices I/O with the default disk profile.
    let db = Database::from_xmark(
        0.1,
        &DatabaseOptions {
            page_size: 2048,
            placement: Placement::ChunkShuffled { chunk: 1, seed: 77 },
            buffer_pages: 24,
            ..Default::default()
        },
    )
    .unwrap();
    // Low selectivity → scan; deep selective chain → schedule.
    let q7_est = db.estimate("/site//description").unwrap();
    assert_eq!(q7_est.recommend().label(), "XScan");
    let q15_est = db
        .estimate(
            "/site/closed_auctions/closed_auction/annotation/description/parlist\
             /listitem/parlist/listitem/text/emph/keyword",
        )
        .unwrap();
    assert_eq!(q15_est.recommend().label(), "XSchedule");
    // A query is estimated by its first path: `--method auto` picks that plan.
    let auto = db.estimate("count(/site//description)").unwrap();
    assert_eq!(auto.recommend().label(), "XScan");
}

#[test]
fn export_scan_roundtrips_and_matches_walk() {
    let db = shuffled_db();
    let walked = db.export();
    let scanned = db.export_scan();
    assert!(doc().logically_equal(&walked));
    assert!(doc().logically_equal(&scanned));
    // And the serialized forms are identical.
    assert_eq!(
        pathix_xml::serialize(&walked),
        pathix_xml::serialize(&scanned)
    );
}
