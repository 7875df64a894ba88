//! Integration tests for the paper-outlook extensions (§7): multi-path
//! shared scan, the cost-model optimizer, concurrent execution, and
//! scan-based export.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::storage::DiskProfile;
use pathix::{Batch, Database, DatabaseOptions, Method, PlanConfig};
use pathix_tree::Placement;
use pathix_xpath::{eval_path, parse_path};

/// A database on the default disk profile, which the optimizer prices
/// I/O with.
fn db(scale: f64) -> Database {
    Database::from_document(
        &pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(scale)),
        &DatabaseOptions {
            page_size: 2048,
            placement: Placement::Shuffled { seed: 77 },
            buffer_pages: 24,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn shared_scan_agrees_with_independent_plans() {
    let db = db(0.04);
    let paths = [
        "/site//description",
        "/site//annotation",
        "/site//email",
        "/site/regions//item",
    ];
    let mut cfg = PlanConfig::new(Method::XScan);
    cfg.sort = true;
    let work = paths.map(|p| (p, Method::XScan));
    let multi = db.run_batch(&work, &cfg, Batch::Interleaved).unwrap();
    for (run, p) in multi.runs.iter().zip(paths) {
        let single = db.run(p, cfg).unwrap();
        assert_eq!(run.as_ref().unwrap().nodes, single.nodes, "path {p}");
    }
    // One scan total.
    assert_eq!(multi.runs.len(), paths.len());
}

#[test]
fn shared_scan_reads_document_once() {
    let db = db(0.04);
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
fn concurrent_execution_matches_solo_results() {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.03));
    let db = Database::from_document(
        &doc,
        &DatabaseOptions {
            page_size: 2048,
            placement: Placement::Shuffled { seed: 9 },
            buffer_pages: 16,
            profile: DiskProfile::instant(),
        },
    )
    .unwrap();
    let ranks = doc.preorder_ranks();
    let work: Vec<(&str, Method)> = vec![
        ("/site/regions//item", Method::Simple),
        ("/site//email", Method::xschedule()),
        ("//keyword", Method::XScan),
    ];
    let mut cfg = PlanConfig::new(Method::Simple);
    cfg.sort = true;
    let runs = db.run_batch(&work, &cfg, Batch::Interleaved).unwrap().runs;
    for (i, (p, _)) in work.iter().enumerate() {
        let path = parse_path(p).unwrap().rooted().normalize();
        let want: Vec<u64> = eval_path(&doc, doc.root(), &path)
            .iter()
            .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
            .collect();
        let got: Vec<u64> = runs[i]
            .as_ref()
            .unwrap()
            .nodes
            .iter()
            .map(|&(_, o)| o)
            .collect();
        assert_eq!(got, want, "{p} under concurrency");
    }
}

#[test]
fn optimizer_recommendations_and_auto_run() {
    let db = db(0.1);
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
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.02));
    let db = Database::from_document(
        &doc,
        &DatabaseOptions {
            page_size: 2048,
            placement: Placement::Shuffled { seed: 3 },
            buffer_pages: 8,
            profile: DiskProfile::instant(),
        },
    )
    .unwrap();
    let walked = db.export();
    let scanned = db.export_scan();
    assert!(doc.logically_equal(&walked));
    assert!(doc.logically_equal(&scanned));
    // And the serialized forms are identical.
    assert_eq!(
        pathix_xml::serialize(&walked),
        pathix_xml::serialize(&scanned)
    );
}
