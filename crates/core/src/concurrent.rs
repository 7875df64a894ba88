//! Interleaved execution of several plans over one device — the paper's
//! outlook: "We also expect concurrent queries to strongly benefit from
//! asynchronous I/O, as scheduling decisions can be made based on more
//! pending requests" (§7), and the converse warning it cites for the
//! Assembly operator: concurrently active scan-based plans interfere and
//! cause extra disk-arm movement.
//!
//! The executor round-robins `next()` across the plans, so their I/O
//! requests arrive at the shared device interleaved. Synchronous plans
//! (Simple) ping-pong the head between working sets; asynchronous plans
//! (XSchedule) pool everything in the device queue, which reorders across
//! *both* queries.

use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::ops::Operator;
use crate::plan::{build_plan, exec_report, io_abort, result_node, Meter, Method, PlanConfig};
use crate::report::ExecReport;
use pathix_tree::{NodeId, TreeStore};
use pathix_xpath::LocationPath;

/// Result of one plan in a concurrent batch.
#[derive(Debug, Clone)]
pub struct ConcurrentRun {
    /// Result nodes of this plan.
    pub nodes: Vec<(NodeId, u64)>,
    /// The plan's method label.
    pub method: String,
    /// This plan's own share of the batch cost: clock/buffer/device deltas
    /// accumulated around its `next()` turns plus its private algebra
    /// counters. Summing the per-plan reports reproduces the combined
    /// batch report's I/O and time totals.
    pub report: ExecReport,
}

/// Runs all `(path, method)` pairs concurrently (interleaved on the shared
/// simulated device) and reports the combined cost.
///
/// Fails with [`ExecError::UnexpectedEnd`] if any plan breaks the output
/// contract (a bug in the operator tree, never the caller's input).
pub fn execute_interleaved(
    store: &TreeStore,
    work: &[(LocationPath, Method)],
    cfg: &PlanConfig,
) -> Result<(Vec<ConcurrentRun>, ExecReport), ExecError> {
    // A recorded I/O error from an earlier aborted run must not bleed in.
    store.clear_io_error();
    let meter = Meter::start(store);

    struct Slot<'a> {
        plan: Box<dyn Operator>,
        cx: ExecCtx<'a>,
        nodes: Vec<(NodeId, u64)>,
        method: Method,
        done: bool,
        /// Accumulated clock/buffer/device deltas attributed to this plan.
        acc: ExecReport,
    }

    let mut slots: Vec<Slot<'_>> = work
        .iter()
        .map(|(path, method)| Slot {
            cx: ExecCtx::new(store, cfg.costs, cfg.mem_limit),
            plan: build_plan(store, &cfg.prepare(path), vec![store.meta.root], *method),
            nodes: Vec::new(),
            method: *method,
            done: false,
            acc: ExecReport::default(),
        })
        .collect();

    // Round-robin until every plan is exhausted. One `next()` per turn
    // interleaves the plans' I/O at instance granularity.
    loop {
        let mut progressed = false;
        for slot in &mut slots {
            if slot.done {
                continue;
            }
            // Bracket this plan's turn so its share of clock/buffer/device
            // activity can be attributed to it.
            let turn = Meter::start(store);
            match slot.plan.next(&slot.cx) {
                Some(p) => {
                    progressed = true;
                    match result_node(store, &p.nr, "execute_interleaved")? {
                        Some(node) => slot.nodes.push(node),
                        None => slot.done = true, // error recorded; abort below
                    }
                }
                None => slot.done = true,
            }
            slot.acc.absorb(&turn.delta(store));
        }
        if !progressed || store.io_failed() {
            break;
        }
    }

    // Clean abort of the whole interleaved batch: the shared device is the
    // failure domain here (unlike the forked per-worker devices of
    // `execute_batch_parallel`, which contain failures per item).
    io_abort(store, store.take_io_error())?;

    let mut runs = Vec::with_capacity(slots.len());
    for mut slot in slots {
        if matches!(slot.method, Method::Simple) {
            // The Simple method needs its final duplicate elimination.
            let mut seen = std::collections::HashSet::new();
            slot.nodes.retain(|(id, _)| seen.insert(*id));
        }
        if cfg.sort {
            slot.nodes.sort_by_key(|&(_, o)| o);
        }
        let method = slot.method.label();
        runs.push(ConcurrentRun {
            report: exec_report(&slot.cx, method, slot.nodes.len(), slot.acc),
            nodes: slot.nodes,
            method: method.to_owned(),
        });
    }
    let report = ExecReport {
        method: "interleaved".to_owned(),
        results: runs.iter().map(|r| r.nodes.len() as u64).sum(),
        ..meter.delta(store)
    };
    Ok((runs, report))
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::ops::testutil::{mem_store, sample_doc};
    use pathix_tree::Placement;
    use pathix_xpath::parse_path;

    #[test]
    fn interleaved_plans_all_correct() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 17 });
        let ranks = doc.preorder_ranks();
        let work = vec![
            (parse_path("/regions//item").unwrap(), Method::Simple),
            (parse_path("//email").unwrap(), Method::xschedule()),
            (parse_path("//name").unwrap(), Method::XScan),
        ];
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let (runs, report) = execute_interleaved(&store, &work, &cfg).expect("plans execute");
        assert_eq!(runs.len(), 3);
        for (i, (path, _)) in work.iter().enumerate() {
            let want: Vec<u64> = pathix_xpath::eval_path(&doc, doc.root(), &path.normalize())
                .iter()
                .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
                .collect();
            let got: Vec<u64> = runs[i].nodes.iter().map(|&(_, o)| o).collect();
            assert_eq!(got, want, "plan {i} diverged under interleaving");
        }
        assert!(report.results > 0);
    }

    #[test]
    fn two_schedules_share_the_device_queue() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 3 });
        let work = vec![
            (parse_path("//item").unwrap(), Method::xschedule()),
            (parse_path("//email").unwrap(), Method::xschedule()),
        ];
        let (runs, _) = execute_interleaved(&store, &work, &PlanConfig::new(Method::Simple))
            .expect("plans execute");
        assert!(!runs[0].nodes.is_empty());
        assert!(!runs[1].nodes.is_empty());
    }

    #[test]
    fn per_plan_reports_sum_to_combined() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 23 });
        let work = vec![
            (parse_path("//item").unwrap(), Method::Simple),
            (parse_path("//email").unwrap(), Method::xschedule()),
            (parse_path("//name").unwrap(), Method::XScan),
        ];
        let (runs, combined) = execute_interleaved(&store, &work, &PlanConfig::new(Method::Simple))
            .expect("plans execute");
        // Every read and every simulated nanosecond of the batch happens
        // inside some plan's bracketed turn, so the per-plan deltas must
        // sum exactly to the combined report.
        let reads: u64 = runs.iter().map(|r| r.report.device.reads).sum();
        let total_ns: u64 = runs.iter().map(|r| r.report.time.total_ns).sum();
        let fixes: u64 = runs.iter().map(|r| r.report.buffer.fixes).sum();
        assert_eq!(reads, combined.device.reads);
        assert_eq!(total_ns, combined.time.total_ns);
        assert_eq!(fixes, combined.buffer.fixes);
        for run in &runs {
            assert_eq!(run.report.results, run.nodes.len() as u64);
            assert_eq!(run.report.method, run.method);
            assert!(run.report.instances > 0, "{} did no work?", run.method);
        }
    }
}
