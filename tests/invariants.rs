//! Structural invariants of the physical algebra (DESIGN.md §6):
//! single-visit guarantees, I/O confinement, duplicate-freedom, and device
//! model sanity.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

mod support;

use pathix::{Database, DatabaseOptions, Method, PlanConfig};
use pathix_storage::{Device, DiskProfile, QueuePolicy, SimClock, SimDisk};
use pathix_tree::Placement;

/// The small XMark document under `placement`.
fn db(placement: Placement) -> Database {
    let opts = DatabaseOptions {
        placement,
        ..support::mem_opts()
    };
    Database::from_document(support::doc(), &opts).unwrap()
}

/// Invariant 3a: `XScan` fixes every document page exactly once, in
/// physical order.
#[test]
fn xscan_single_visit_in_physical_order() {
    let db = db(Placement::ChunkShuffled { chunk: 1, seed: 5 });
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
    let db = db(Placement::ChunkShuffled { chunk: 1, seed: 6 });
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
    let db = db(Placement::Sequential);
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
    let db = db(Placement::ChunkShuffled { chunk: 1, seed: 8 });
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
/// FIFO for the same batch. The head starts parked at page 0, so every
/// page lies at or above it and SSTF serves the batch in one ascending
/// sweep (see `sim_disk::tests::sstf_can_lose_to_fifo` for a head that is
/// not parked).
#[test]
fn sstf_no_worse_than_fifo() {
    for seed in 0..10u64 {
        let pages: Vec<u32> = (0..40)
            .map(|i| ((seed + 1) * 2_654_435_761u64.wrapping_mul(i + 1) % 500) as u32)
            .collect();
        let run = |policy: QueuePolicy| {
            let mut d = SimDisk::with_profile(
                64,
                DiskProfile {
                    policy,
                    ..DiskProfile::default()
                },
            );
            for _ in 0..500 {
                d.append_page(vec![0]);
            }
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
