//! Evaluation of **multiple location paths with a single I/O operator** —
//! the first extension sketched in the paper's outlook (§7): "Our method
//! can be easily extended to evaluate multiple location paths with a single
//! I/O-performing operator."
//!
//! One sequential scan drives any number of per-path `XStep* → XAssembly`
//! chains: for every cluster the scan visits, each path receives its
//! context instances and its own speculative instances, and its assembly is
//! drained. A query like XMark Q7 (three `count()`s) therefore reads the
//! document **once** instead of three times.

use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::instance::Pi;
use crate::ops::{Operator, XAssembly, XStep};
use crate::plan::{
    exec_report, io_abort, result_node, scan_all_reachable_step, stack_steps, Meter, PlanConfig,
};
use crate::report::ExecReport;
use pathix_tree::{NodeId, TreeStore};
use pathix_xpath::LocationPath;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Pull operator over a queue that the scan loop pushes into.
struct QueueSource(Rc<RefCell<VecDeque<Pi>>>);

impl Operator for QueueSource {
    fn next(&mut self, _cx: &ExecCtx<'_>) -> Option<Pi> {
        self.0.borrow_mut().pop_front()
    }
}

struct PathPipeline {
    len: u16,
    queue: Rc<RefCell<VecDeque<Pi>>>,
    top: XAssembly,
    results: Vec<(NodeId, u64)>,
}

impl PathPipeline {
    /// Collects every result the assembly can produce right now, under the
    /// plan output contract.
    fn drain(&mut self, cx: &ExecCtx<'_>) -> Result<(), ExecError> {
        while let Some(p) = self.top.next(cx) {
            match result_node(cx.store, &p.nr, "execute_paths_shared_scan")? {
                Some(node) => self.results.push(node),
                None => break, // error recorded; surfaced after the scan
            }
        }
        Ok(())
    }
}

/// Result of a shared-scan multi-path run.
#[derive(Debug, Clone)]
pub struct MultiPathRun {
    /// Per-path result nodes (document order if `sort` was requested).
    pub per_path: Vec<Vec<(NodeId, u64)>>,
    /// Aggregate measurements of the single shared run.
    pub report: ExecReport,
}

impl MultiPathRun {
    /// Result cardinalities per path.
    pub fn counts(&self) -> Vec<u64> {
        self.per_path.iter().map(|v| v.len() as u64).collect()
    }
}

/// Evaluates all `paths` from the document root with **one** sequential
/// scan.
///
/// Notes:
/// * paths are normalized if `cfg.normalize` is set;
/// * `cfg.mem_limit` is not supported here (fallback would need a second
///   scan per path) — it is ignored;
/// * `cfg.method` is ignored: the I/O operator is always the shared scan.
///
/// Fails with [`ExecError::UnexpectedEnd`] if an assembly breaks the plan
/// output contract, and with [`ExecError::Io`] on an unrecovered read.
pub fn execute_paths_shared_scan(
    store: &TreeStore,
    paths: &[LocationPath],
    cfg: &PlanConfig,
) -> Result<MultiPathRun, ExecError> {
    store.clear_io_error();
    let cx = ExecCtx::new(store, cfg.costs, None);
    let meter = Meter::start(store);

    let root = store.meta.root;
    let mut pipelines: Vec<PathPipeline> = paths
        .iter()
        .map(|p| {
            let path = cfg.prepare(p);
            let len = path.steps.len() as u16;
            let queue = Rc::new(RefCell::new(VecDeque::new()));
            let source = Box::new(QueueSource(Rc::clone(&queue)));
            let steps = stack_steps(store, &path, source, XStep::new);
            PathPipeline {
                len,
                queue,
                top: XAssembly::new(steps, len, None, scan_all_reachable_step(&path)),
                results: Vec::new(),
            }
        })
        .collect();

    for page in store.meta.page_range() {
        // An unrecovered read error aborts the whole shared scan: the
        // recorded error is surfaced below, after the pipelines drain.
        let Some(cluster) = store.checked_fix(page) else {
            break;
        };
        let is_root_page = page == root.page;
        let border_slots: Vec<u16> = cluster.border_slots().collect();
        for pl in &mut pipelines {
            {
                let mut q = pl.queue.borrow_mut();
                if is_root_page {
                    cx.charge_instance();
                    let order = cluster.node(root.slot).order;
                    q.push_back(Pi::swizzled_context(cluster.clone(), root.slot, order));
                }
                for &b in &border_slots {
                    for i in 0..pl.len {
                        cx.charge_instance();
                        cx.stats
                            .speculative_generated
                            .set(cx.stats.speculative_generated.get() + 1);
                        q.push_back(Pi::speculative(i, cluster.clone(), b));
                    }
                }
            }
            // Drain this path's assembly for the instances just pushed.
            pl.drain(&cx)?;
        }
    }

    let mut per_path = Vec::with_capacity(pipelines.len());
    for mut pl in pipelines {
        // Final drain: late firings are already handled inside next(), but
        // be thorough in case the last cluster produced cascades.
        pl.drain(&cx)?;
        // Zero-step path: the result is the context itself.
        if pl.len == 0 && pl.results.is_empty() {
            if let Some(cluster) = store.checked_fix(root.page) {
                pl.results.push((root, cluster.node(root.slot).order));
            }
        }
        if cfg.sort {
            pl.results.sort_by_key(|&(_, o)| o);
        }
        per_path.push(pl.results);
    }

    io_abort(store, store.take_io_error())?;
    let results = per_path.iter().map(Vec::len).sum();
    let report = exec_report(&cx, "SharedScan", results, meter.delta(store));
    Ok(MultiPathRun { per_path, report })
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::ops::testutil::{mem_store, sample_doc};
    use pathix_tree::Placement;
    use pathix_xpath::parse_path;

    fn reference(doc: &pathix_xml::Document, path: &LocationPath) -> Vec<u64> {
        let ranks = doc.preorder_ranks();
        pathix_xpath::eval_path(doc, doc.root(), path)
            .iter()
            .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
            .collect()
    }

    #[test]
    fn shared_scan_matches_reference_per_path() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 21 });
        let paths: Vec<LocationPath> = ["/regions//item", "//email", "//name/text()", "//item/.."]
            .iter()
            .map(|p| parse_path(p).unwrap())
            .collect();
        let mut cfg = PlanConfig::new(crate::plan::Method::XScan);
        cfg.sort = true;
        let run = execute_paths_shared_scan(&store, &paths, &cfg).expect("fault-free scan");
        assert_eq!(run.per_path.len(), paths.len());
        for (i, path) in paths.iter().enumerate() {
            let got: Vec<u64> = run.per_path[i].iter().map(|&(_, o)| o).collect();
            let want = reference(&doc, &path.normalize());
            assert_eq!(got, want, "path {path}");
        }
    }

    #[test]
    fn single_scan_for_many_paths() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let paths: Vec<LocationPath> = ["/regions//item", "//email", "//description"]
            .iter()
            .map(|p| parse_path(p).unwrap())
            .collect();
        let cfg = PlanConfig::new(crate::plan::Method::XScan);
        let run = execute_paths_shared_scan(&store, &paths, &cfg).expect("fault-free scan");
        assert_eq!(
            run.report.device.reads, store.meta.page_count as u64,
            "one scan, not one per path"
        );
    }

    #[test]
    fn empty_path_list() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let run =
            execute_paths_shared_scan(&store, &[], &PlanConfig::new(crate::plan::Method::XScan))
                .expect("fault-free scan");
        assert!(run.per_path.is_empty());
        assert_eq!(run.counts(), Vec::<u64>::new());
    }

    #[test]
    fn zero_step_path_yields_context() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let run = execute_paths_shared_scan(
            &store,
            &[parse_path("/").unwrap()],
            &PlanConfig::new(crate::plan::Method::XScan),
        )
        .expect("fault-free scan");
        assert_eq!(run.per_path[0].len(), 1);
        assert_eq!(run.per_path[0][0].0, store.meta.root);
    }
}
