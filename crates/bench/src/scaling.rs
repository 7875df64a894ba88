//! Thread-scaling harness (`BENCH_PR3`): wall-clock throughput of the
//! parallel batch executor over 1/2/4/8 workers, on the mixed
//! Q6'/Q7/Q15-style batch of [`corpus::batch_work`].
//!
//! Everything else in this repository measures *simulated* time; like the
//! throughput harness this one measures the wall clock. The simulated disk
//! costs zero real time, so to make batch execution genuinely I/O-bound in
//! wall-clock terms each worker's device fork is wrapped in a
//! [`PacedDevice`](corpus::PacedDevice) that realizes device latency as
//! real `thread::sleep`: a fixed service time per *physical* read (a
//! constant-latency device, like flash). A fixed per-read cost — rather
//! than the fork's own simulated latency — keeps the realized cost
//! independent of how the batch happens to be split across forks:
//! per-worker forks each have their own disk arm, so splitting one access
//! sequence across them would otherwise inflate seek costs as a pure
//! artifact of the worker count. This reproduces the physics the paper's §7
//! outlook appeals to: a worker blocked on the device leaves the CPU to the
//! other workers, so overlapping I/O waits — not core-count — is what lets
//! batch throughput scale. The shared page cache compounds it: a page any
//! worker has physically read costs the others neither sleep nor device
//! traffic.
//!
//! Checks: every row's parallel results are bit-identical to sequential
//! one-at-a-time execution, and the shared-cache read path performs zero
//! page copies. The 4-worker speedup is reported, not checked.

use crate::artifact::{timed, Artifact, Cell, Table};
use crate::{build_db_with, corpus};
use pathix_core::execute_batch_parallel;
use pathix_storage::SharedPageCache;
use std::sync::Arc;

/// Worker counts swept by the full harness.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Realized service time per physical page read, in real nanoseconds.
/// Chosen so realized device latency dominates per-item CPU time — the
/// regime the paper's batch-of-queries outlook (§7) assumes — while keeping
/// the full sweep well under a second of wall clock.
pub const PACE_READ_NS: u64 = 700_000;

/// Runs the scaling harness. Full: SF 0.1, 1/2/4/8 workers, paced reads.
/// Fast: SF 0.02, 1/2 workers, instant profile, no pacing.
pub fn run(fast: bool) -> Artifact {
    let (scale, worker_counts, pace_ns): (f64, &[usize], u64) = if fast {
        (0.02, &[1, 2], 0)
    } else {
        (0.1, &WORKER_COUNTS, PACE_READ_NS)
    };
    let db = build_db_with(scale, &corpus::options(fast));
    let reference = corpus::oracle(&db);
    let work = corpus::parsed_work();
    let cfg = corpus::sorted_cfg();

    let mut rows = Vec::new();
    let (mut all_identical, mut zero_copy, mut base_ms, mut speedup_4w) = (true, true, 0.0, 0.0);
    for &workers in worker_counts {
        let cache = Arc::new(SharedPageCache::new());
        let seeds = corpus::worker_seeds(&db, workers, pace_ns, Some(&cache));
        let (batch, wall_ms) = timed(|| execute_batch_parallel(seeds, &work, &cfg));
        let wall_ms = wall_ms.max(1e-6);
        if base_ms == 0.0 {
            base_ms = wall_ms;
        }
        let speedup = base_ms / wall_ms;
        if workers == 4 {
            speedup_4w = speedup;
        }
        let identical = batch.runs.len() == reference.len()
            && batch
                .runs
                .iter()
                .zip(&reference)
                .all(|(run, want)| run.as_ref().is_ok_and(|r| r.nodes == want.nodes));
        let dev = batch.report.device;
        let cache = cache.stats();
        all_identical &= identical;
        zero_copy &= dev.page_copies == 0;
        rows.push(vec![
            Cell::int("workers", workers as u64),
            Cell::int("items", work.len() as u64),
            Cell::real("wall_ms", wall_ms, 1).varies(),
            Cell::real("items_per_s", work.len() as f64 * 1e3 / wall_ms, 2).varies(),
            Cell::real("speedup_vs_1w", speedup, 2).varies(),
            Cell::check("results_identical", identical),
            Cell::int("page_copies", dev.page_copies),
            // Which worker loads a page first is thread scheduling.
            Cell::int("device_reads", dev.reads).varies(),
            Cell::int("cache_hits", cache.hits).varies(),
            Cell::int("cache_misses", cache.misses).varies(),
            Cell::int("single_flight_waits", cache.single_flight_waits).varies(),
        ]);
    }
    Artifact {
        name: "BENCH_PR3",
        description: "wall-clock batch throughput of the parallel worker-pool executor over a shared sharded page cache; device latency realized as a fixed real sleep per physical read so the batch is I/O-bound in wall-clock terms",
        params: vec![
            Cell::param("engine_scale_factor", scale),
            Cell::int("pace_read_ns", pace_ns),
            Cell::text("batch", "Q6'/Q7/Q15-style paths x Simple/XSchedule/XScan"),
        ],
        tables: vec![Table {
            name: "thread_scaling",
            rows,
        }],
        summary: vec![
            Cell::check("results_identical", all_identical),
            Cell::check("zero_copy_read_path", zero_copy),
            Cell::real("speedup_at_4_workers", speedup_4w, 2).varies(),
            Cell::flag("acceptance_speedup_4w_ge_2", speedup_4w >= 2.0).varies(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::num;

    #[test]
    fn fast_sweep_is_identical_and_zero_copy() {
        let a = run(true);
        assert_eq!(a.failed_checks(), Vec::<String>::new());
        let rows = &a.tables[0].rows;
        assert_eq!(rows.len(), 2);
        // The cache sits on the read path: every physical read went through
        // it. (Cross-worker *hits* are scheduling-dependent — on one core
        // with an instant profile a single worker may drain the whole batch
        // before the second is scheduled — so none are asserted here; the
        // paced full sweep is where sharing shows.)
        for row in rows {
            assert!(num(row, "device_reads") > 0.0);
            assert!(num(row, "cache_misses") > 0.0);
        }
    }

    #[test]
    fn emit_json_is_wellformed_enough() {
        let json = run(true).to_json();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"results_identical\": true"));
        assert!(json.contains("\"zero_copy_read_path\": true"));
    }
}
