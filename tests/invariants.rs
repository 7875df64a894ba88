//! Structural invariants of the physical algebra (DESIGN.md §6):
//! single-visit guarantees, I/O confinement, duplicate-freedom, and device
//! model sanity.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::{Database, DatabaseOptions, DeviceKind, Method, PlanConfig};
use pathix_storage::Device;
use pathix_storage::{QueuePolicy, SimClock, SimDisk};
use pathix_tree::Placement;

fn db(scale: f64, placement: Placement) -> Database {
    Database::from_document(
        &pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(scale)),
        &DatabaseOptions {
            page_size: 2048,
            placement,
            buffer_pages: 16,
            device: DeviceKind::Mem,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Invariant 3a: `XScan` fixes every document page exactly once, in
/// physical order.
#[test]
fn xscan_single_visit_in_physical_order() {
    let db = db(0.04, Placement::Shuffled { seed: 5 });
    db.trace_device(true);
    db.clear_buffers();
    db.reset_device_stats();
    let _ = db.run("count(//description)", Method::XScan).unwrap();
    let trace = db.device_trace();
    let expected: Vec<u32> = db.store().meta.page_range().collect();
    assert_eq!(trace, expected);
}

/// Invariant 3b: with speculation, `XSchedule` never reads a cluster
/// twice.
#[test]
fn speculative_xschedule_never_rereads() {
    let db = db(0.04, Placement::Shuffled { seed: 6 });
    db.trace_device(true);
    for q in [
        "count(//item/..//name)",
        "count(//listitem//keyword/ancestor::text)",
    ] {
        db.clear_buffers();
        db.reset_device_stats();
        let _ = db
            .run(
                q,
                Method::XSchedule {
                    k: 100,
                    speculative: true,
                },
            )
            .unwrap();
        let trace = db.device_trace();
        let mut dedup = trace.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            trace.len(),
            dedup.len(),
            "cluster re-read under speculation: {q}"
        );
    }
}

/// Invariant 4: outside fallback mode, only the I/O operator reads pages —
/// the XStep operator works purely on pinned clusters. Detectable via fix
/// counts: every buffer fix in an XScan plan happens for the scan itself.
#[test]
fn xscan_fix_count_equals_page_count() {
    let db = db(0.04, Placement::Sequential);
    db.clear_buffers();
    db.reset_device_stats();
    let _ = db.run("count(//email)", Method::XScan).unwrap();
    let stats = db.store().buffer.stats();
    assert_eq!(stats.fixes, db.pages() as u64);
    assert_eq!(stats.misses, db.pages() as u64);
    assert_eq!(stats.hits, 0, "XStep must not re-fix pages");
}

/// Invariant 5: result streams are duplicate-free even for paths that
/// generate massive intermediate duplication.
#[test]
fn duplicate_heavy_path_is_deduplicated() {
    let db = db(0.03, Placement::Shuffled { seed: 8 });
    // ancestor-or-self from every node: each ancestor reached many times.
    let mut cfg = PlanConfig::new(Method::XScan);
    cfg.sort = true;
    let run = db.run("//keyword/ancestor-or-self::*", cfg).unwrap();
    let mut ids: Vec<_> = run.nodes.iter().map(|&(id, _)| id).collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicates in final result");
    assert!(n > 0);
}

/// Invariant 7a: SSTF never produces a larger total seek distance than
/// FIFO for the same batch.
#[test]
fn sstf_no_worse_than_fifo() {
    for seed in 0..10u64 {
        let pages: Vec<u32> = (0..40)
            .map(|i| ((seed + 1) * 2_654_435_761u64.wrapping_mul(i + 1) % 500) as u32)
            .collect();
        let run = |policy: QueuePolicy| {
            let mut d = SimDisk::new(64);
            for _ in 0..500 {
                d.append_page(vec![0]);
            }
            d.set_policy(policy);
            let clock = SimClock::new();
            for &p in &pages {
                d.submit(p, &clock);
            }
            while d.poll(&clock, true).is_some() {}
            d.stats().seek_distance_pages
        };
        assert!(run(QueuePolicy::ShortestSeekFirst) <= run(QueuePolicy::Fifo));
    }
}

/// Invariant 7b: a sequential scan of all pages costs no more than any
/// other visiting order of the same pages.
#[test]
fn sequential_scan_is_cheapest_order() {
    let n = 200u32;
    let orders: Vec<Vec<u32>> = vec![
        (0..n).collect(),
        (0..n).rev().collect(),
        (0..n).map(|i| (i * 7) % n).collect(),
    ];
    let mut costs = Vec::new();
    for order in &orders {
        let mut d = SimDisk::new(64);
        for _ in 0..n {
            d.append_page(vec![0]);
        }
        let clock = SimClock::new();
        for &p in order {
            d.read_sync(p, &clock).expect("fault-free device");
        }
        costs.push(clock.now_ns());
    }
    assert!(costs[0] <= costs[1]);
    assert!(costs[0] <= costs[2]);
}

/// The `//` optimization produces the same results with and without:
/// plans always normalize, but a leading `descendant-or-self::node()` that
/// no child step follows survives it and arms XScan's §5.4.5.4 shortcut,
/// while `//keyword` collapses into one `descendant` step. Both answer as
/// the reference evaluator does.
#[test]
fn slash_slash_optimization_equivalent() {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.03));
    let db = Database::from_document(
        &doc,
        &DatabaseOptions {
            page_size: 2048,
            placement: Placement::Shuffled { seed: 2 },
            buffer_pages: 16,
            device: DeviceKind::Mem,
            ..Default::default()
        },
    )
    .unwrap();
    let mut cfg = PlanConfig::new(Method::XScan);
    cfg.sort = true;
    let keys = |q: &str| -> Vec<u64> {
        let run = db.run(q, cfg).unwrap();
        run.nodes.iter().map(|&(_, order)| order).collect()
    };
    let shortcut = "/descendant-or-self::node()/descendant::keyword";
    let ranks = doc.preorder_ranks();
    let path = pathix_xpath::parse_path(shortcut).unwrap();
    let want: Vec<u64> = pathix_xpath::eval_path(&doc, doc.root(), &path)
        .iter()
        .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
        .collect();
    assert!(!want.is_empty());
    assert_eq!(keys(shortcut), want);
    assert_eq!(keys("//keyword"), want);
}
