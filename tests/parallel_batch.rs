//! End-to-end checks of the parallel batch executor (`Database::run_batch`
//! with `Batch::Parallel`): the batch reads through the shared page cache,
//! and the per-plan report deltas sum to the combined batch report. That
//! its answers are the reference evaluator's for any worker count is
//! `tests/oracle.rs`'s pooled execution paths.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

mod support;

use pathix::{Batch, Database, Method};
use support::{corpus, doc, mem_opts, sorted};

/// The shared page cache sits on the parallel batch's read path: the batch
/// misses in it and the device under it reads. That a hit hands out the
/// loaded `Arc<[u8]>` itself, never a copy, is checked by
/// `shared_cache.rs::adapter_serves_second_read_from_cache` (`Arc::ptr_eq`).
#[test]
fn parallel_batch_reads_through_shared_cache() {
    let db = Database::from_document(doc(), &mem_opts()).unwrap();
    let batch = db
        .run_batch(
            &corpus(),
            &sorted(Method::Simple),
            Batch::Parallel { workers: 4 },
        )
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
    let db = Database::from_document(doc(), &mem_opts()).unwrap();
    let batch = db
        .run_batch(
            &corpus(),
            &sorted(Method::Simple),
            Batch::Parallel { workers: 3 },
        )
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
