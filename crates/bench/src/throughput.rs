//! Wall-clock throughput harness (`BENCH_PR2`): measures what the
//! *substrate itself* costs, as opposed to the simulated times every other
//! experiment reports.
//!
//! Two measurements:
//!
//! 1. **Queue microbench** — [`drain`] one pending set through the indexed
//!    [`SimDisk`] command queue and through the original alloc-and-sort
//!    scheduler ([`ReferenceDisk`]), at several visible-window depths. Both
//!    sides simulate the identical workload (same LCG page sequence, same
//!    cost model); the `outcomes_agree` check requires their simulated
//!    outcomes to match before the wall-clock ratio counts.
//! 2. **Engine sweep** — run a benchmark query end-to-end for
//!    Simple/XSchedule/XScan at each device queue depth, reporting real
//!    pages/s and result-nodes/s (wall clock, not simulated ns), plus the
//!    page-copy counter that the `zero_copy_read_path` check keeps at zero.

use crate::artifact::{timed, Artifact, Cell, Table};
use crate::{build_db_with, corpus, Q6};
use pathix::{Method, PlanConfig};
use pathix_storage::{Device, DiskProfile, ReferenceDisk, SimClock, SimDisk};

/// Device queue depths swept by both measurements (fast mode: the first 3).
pub const DEPTHS: [usize; 5] = [1, 8, 32, 128, 512];

const LCG_MUL: u64 = 6364136223846793005;
const LCG_ADD: u64 = 1442695040888963407;

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
    *x >> 33
}

/// The microbench disk profile: default costs, `depth`-deep visible window.
pub fn micro_profile(depth: usize) -> DiskProfile {
    DiskProfile {
        queue_depth: depth,
        ..DiskProfile::default()
    }
}

/// Appends `n` pages to the empty device `d`, submits `n` pseudo-random
/// reads at time 0 and drains them. Returns `(final_now_ns, busy_ns)`.
pub fn drain(d: &mut dyn Device, n: usize) -> (u64, u64) {
    for _ in 0..n {
        d.append_page(Vec::new());
    }
    let clock = SimClock::new();
    let mut x = 0x2545F4914F6CDD1Du64;
    for _ in 0..n {
        d.submit(lcg(&mut x) as u32 % n as u32, &clock);
    }
    while d.poll(&clock, true).is_some() {}
    (clock.now_ns(), d.stats().busy_ns)
}

fn queue_row(pending: usize, depth: usize) -> Vec<Cell> {
    let profile = micro_profile(depth);
    let (naive, naive_ms) = timed(|| drain(&mut ReferenceDisk::with_profile(64, profile), pending));
    let (indexed, indexed_ms) = timed(|| drain(&mut SimDisk::with_profile(64, profile), pending));
    vec![
        Cell::int("depth", depth as u64),
        Cell::int("pending", pending as u64),
        Cell::real("naive_ms", naive_ms, 3).varies(),
        Cell::real("indexed_ms", indexed_ms, 3).varies(),
        Cell::real("speedup", naive_ms / indexed_ms.max(1e-9), 2).varies(),
        Cell::check("outcomes_agree", naive == indexed),
    ]
}

/// Runs the throughput harness. Full: 4096 pending at every depth, engine
/// at SF 0.25 on the default disk. Fast: 512 pending at depths 1/8/32,
/// engine at SF 0.02 on the instant profile.
pub fn run(fast: bool) -> Artifact {
    let (pending, depths, scale) = if fast {
        (512, &DEPTHS[..3], 0.02)
    } else {
        (4096, &DEPTHS[..], 0.25)
    };
    let queue = depths.iter().map(|&d| queue_row(pending, d)).collect();
    let mut engine = Vec::new();
    let mut zero_copy = true;
    for &depth in depths {
        let mut opts = corpus::options(fast);
        opts.profile.queue_depth = depth;
        let db = build_db_with(scale, &opts);
        let methods = [
            Method::Simple,
            Method::XSchedule {
                k: depth.max(1),
                speculative: false,
            },
            Method::XScan,
        ];
        for m in methods {
            db.clear_buffers();
            db.reset_device_stats();
            let (run, wall_ms) = timed(|| db.run(Q6, PlanConfig::new(m)));
            let run = run.expect("throughput query runs");
            let wall_s = (wall_ms / 1e3).max(1e-9);
            let dev = run.report.device;
            zero_copy &= dev.page_copies == 0;
            engine.push(vec![
                Cell::text("method", m.label()),
                Cell::int("depth", depth as u64),
                Cell::real("wall_ms", wall_ms, 3).varies(),
                Cell::int("pages_read", dev.reads),
                Cell::real("pages_per_s", dev.reads as f64 / wall_s, 0).varies(),
                Cell::int("result_nodes", run.value),
                Cell::real("nodes_per_s", run.value as f64 / wall_s, 0).varies(),
                Cell::real("sim_total_s", run.report.total_secs(), 4),
                Cell::int("page_copies", dev.page_copies),
            ]);
        }
    }
    Artifact {
        name: "BENCH_PR2",
        description: "wall-clock throughput of the reordering substrate: indexed command queue vs naive alloc+sort, and end-to-end engine rates per device queue depth",
        params: vec![Cell::param("engine_scale_factor", scale)],
        tables: vec![
            Table {
                name: "queue_microbench",
                rows: queue,
            },
            Table {
                name: "engine_throughput",
                rows: engine,
            },
        ],
        summary: vec![Cell::check("zero_copy_read_path", zero_copy)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::num;

    #[test]
    fn naive_and_indexed_agree_on_simulated_outcome() {
        for depth in [1, 7, 0] {
            let profile = micro_profile(depth);
            assert_eq!(
                drain(&mut ReferenceDisk::with_profile(64, profile), 300),
                drain(&mut SimDisk::with_profile(64, profile), 300)
            );
        }
    }

    #[test]
    fn micro_sweep_rows_are_consistent() {
        let a = run(true);
        assert_eq!(a.failed_checks(), Vec::<String>::new());
        assert_eq!(a.checks().len(), 3 + 1);
        for row in &a.tables[0].rows {
            assert!(num(row, "indexed_ms") > 0.0);
        }
        assert_eq!(a.tables[1].rows.len(), 3 * 3);
    }

    #[test]
    fn emit_json_is_wellformed_enough() {
        let a = run(true);
        let json = a.to_json();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        let rows: usize = a.tables.iter().map(|t| t.rows.len()).sum();
        assert_eq!(json.matches("\"depth\"").count(), rows);
        assert!(json.contains("\"zero_copy_read_path\": true"));
    }
}
