//! End-to-end checks of the parallel batch executor (`Database::run_batch`
//! with `Batch::Parallel`): for any worker count and any method mix,
//! parallel results are bit-identical to sequential one-at-a-time
//! execution, the batch reads through the shared page cache, and the
//! per-plan report deltas sum to the combined batch report.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::storage::DiskProfile;
use pathix::{Batch, Database, DatabaseOptions, Method, PlanConfig};

const PATHS: [&str; 6] = [
    "/site/regions//item",
    "/site/people//email",
    "/site/open_auctions//description",
    "/site/closed_auctions//annotation",
    "/site/closed_auctions/closed_auction/annotation/description/parlist\
     /listitem/parlist/listitem/text/emph/keyword",
    "//keyword",
];

fn corpus() -> Vec<(&'static str, Method)> {
    let mut work = Vec::new();
    for m in [Method::Simple, Method::xschedule(), Method::XScan] {
        for p in PATHS {
            work.push((p, m));
        }
    }
    work
}

fn sorted_cfg() -> PlanConfig {
    let mut cfg = PlanConfig::new(Method::Simple);
    cfg.sort = true;
    cfg
}

/// The determinism contract: for every worker count, the parallel batch
/// returns exactly what sequential one-at-a-time execution returns, in
/// batch order, for all three methods.
#[test]
fn parallel_is_bit_identical_to_sequential_for_any_worker_count() {
    let db = Database::from_xmark(0.012, &DatabaseOptions::default()).unwrap();
    let work = corpus();
    let cfg = sorted_cfg();

    let reference: Vec<_> = work
        .iter()
        .map(|(p, m)| db.run(p, PlanConfig { method: *m, ..cfg }).unwrap().nodes)
        .collect();
    // The corpus is non-trivial: every path matches something.
    assert!(reference.iter().all(|nodes| !nodes.is_empty()));

    for workers in [1, 2, 3, 8] {
        let batch = db
            .run_batch(&work, &cfg, Batch::Parallel { workers })
            .unwrap();
        assert_eq!(batch.runs.len(), reference.len());
        for (i, (run, want)) in batch.runs.iter().zip(&reference).enumerate() {
            let run = run.as_ref().expect("fault-free batch item succeeds");
            assert_eq!(
                &run.nodes, want,
                "item {i} diverged at {workers} workers (path {:?}, method {:?})",
                work[i].0, work[i].1
            );
        }
    }
}

/// The shared page cache sits on the parallel batch's read path: the batch
/// misses in it and the device under it reads. That a hit hands out the
/// loaded `Arc<[u8]>` itself, never a copy, is checked by
/// `shared_cache.rs::adapter_serves_second_read_from_cache` (`Arc::ptr_eq`).
#[test]
fn parallel_batch_reads_through_shared_cache() {
    let db = Database::from_xmark(0.012, &DatabaseOptions::default()).unwrap();
    let batch = db
        .run_batch(&corpus(), &sorted_cfg(), Batch::Parallel { workers: 4 })
        .unwrap();
    // The cache actually served the batch: every physical read went
    // through it as a miss, and reads happened.
    assert!(batch.cache.misses > 0);
    assert!(batch.report.device.reads > 0);
}

/// Per-plan report deltas attribute the batch cost exactly: summing them
/// reproduces the combined report's physical-read total.
#[test]
fn per_plan_reports_sum_to_combined() {
    let db = Database::from_xmark(0.012, &DatabaseOptions::default()).unwrap();
    let batch = db
        .run_batch(&corpus(), &sorted_cfg(), Batch::Parallel { workers: 3 })
        .unwrap();
    let read_sum: u64 = batch
        .runs
        .iter()
        .flatten()
        .map(|r| r.report.device.reads)
        .sum();
    assert_eq!(read_sum, batch.report.device.reads);
    for run in &batch.runs {
        assert!(!run
            .as_ref()
            .expect("item succeeds")
            .report
            .method
            .is_empty());
    }
}

/// A database on the instant profile parallelizes too (forks share page
/// images by refcount), and worker counts beyond the batch size are
/// harmless.
#[test]
fn mem_device_and_excess_workers() {
    let opts = DatabaseOptions {
        profile: DiskProfile::instant(),
        ..Default::default()
    };
    let db = Database::from_xmark(0.012, &opts).unwrap();
    let work = [("/site/regions//item", Method::xschedule())];
    let cfg = sorted_cfg();
    let want = db.run(
        work[0].0,
        PlanConfig {
            method: work[0].1,
            ..cfg
        },
    );
    let batch = db
        .run_batch(&work, &cfg, Batch::Parallel { workers: 16 })
        .unwrap();
    assert_eq!(batch.runs.len(), 1);
    let run = batch.runs[0].as_ref().expect("item succeeds");
    assert_eq!(run.nodes, want.unwrap().nodes);
}
