//! Wall-clock throughput harness (`BENCH_PR2`): measures what the
//! *substrate itself* costs, as opposed to the simulated times every other
//! experiment reports.
//!
//! **Engine sweep** — run a benchmark query end-to-end for
//! Simple/XSchedule/XScan at each device queue depth, reporting real
//! pages/s and result-nodes/s (wall clock, not simulated ns), plus the
//! page-copy counter that the `zero_copy_read_path` check keeps at zero.
//! The command queue's own cost is perfbench's `sim_disk.pick_ns`, and its
//! equivalence with the original scheduler is proved by the property tests
//! in `pathix-storage`'s `sim_disk.rs`.

use crate::artifact::{timed, Artifact, Cell, Table};
use crate::{build_db_with, corpus, Q6};
use pathix::{Method, PlanConfig};

/// Device queue depths swept (fast mode: the first 3).
pub const DEPTHS: [usize; 5] = [1, 8, 32, 128, 512];

/// Runs the throughput harness. Full: every depth, SF 0.25 on the default
/// disk. Fast: depths 1/8/32, SF 0.02 on the instant profile.
pub fn run(fast: bool) -> Artifact {
    let (depths, scale) = if fast {
        (&DEPTHS[..3], 0.02)
    } else {
        (&DEPTHS[..], 0.25)
    };
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
        description: "wall-clock throughput of the reordering substrate: end-to-end engine rates per device queue depth",
        params: vec![Cell::param("engine_scale_factor", scale)],
        tables: vec![Table {
            name: "engine_throughput",
            rows: engine,
        }],
        summary: vec![Cell::check("zero_copy_read_path", zero_copy)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::num;

    #[test]
    fn micro_sweep_rows_are_consistent() {
        let a = run(true);
        assert_eq!(a.failed_checks(), Vec::<String>::new());
        assert_eq!(a.checks().len(), 1);
        assert_eq!(a.tables[0].rows.len(), 3 * 3);
        for row in &a.tables[0].rows {
            assert!(num(row, "wall_ms") > 0.0);
        }
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
