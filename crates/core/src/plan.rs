//! Plan compilation and execution: a location path plus a [`Method`]
//! becomes an operator tree, which is run to exhaustion and measured.
//!
//! This is the role of the paper's algebraic XPath compiler (§6.1), reduced
//! to the three plan shapes the evaluation compares:
//!
//! * **Simple** — `ContextSource → UnnestMap* → DupElim`,
//! * **XSchedule** — `ContextSource → XSchedule → XStep* → XAssembly`
//!   (with the `Q` feedback edge),
//! * **XScan** — `ContextSource → XScan → XStep* → XAssembly`.

use crate::context::{CostParams, ExecCtx};
use crate::error::ExecError;
use crate::governor::{MemLedger, QueryBudget};
use crate::instance::REnd;
use crate::ops::{
    ContextSource, Operator, SchedShared, UnnestMap, XAssembly, XScan, XSchedule, XStep,
};
use crate::report::ExecReport;
use pathix_storage::{BufferStats, DeviceStats, IoError, TimeBreakdown};
use pathix_tree::{IdSet, NodeId, ResolvedTest, TreeStore};
use pathix_xpath::{Axis, LocationPath, NodeTest, Query};
use std::cell::RefCell;
use std::rc::Rc;

/// Which physical plan to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The baseline nested-loop method (§5.1).
    Simple,
    /// Asynchronous scheduling of cluster accesses (§5.3.4 / §5.4.4).
    XSchedule {
        /// Desired minimum queue size `k` (paper default 100).
        k: usize,
        /// Generate speculative instances to avoid cluster revisits.
        speculative: bool,
    },
    /// One sequential scan over all clusters (§5.4.3).
    XScan,
}

impl Method {
    /// The paper's default XSchedule configuration (`k = 100`,
    /// `speculative = false` — the configuration benchmarked in §6.2).
    pub fn xschedule() -> Self {
        Method::XSchedule {
            k: 100,
            speculative: false,
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Simple => "Simple",
            Method::XSchedule { .. } => "XSchedule",
            Method::XScan => "XScan",
        }
    }
}

/// Plan options.
#[derive(Debug, Clone, Copy)]
pub struct PlanConfig {
    /// Physical method.
    pub method: Method,
    /// Cost model.
    pub costs: CostParams,
    /// `S` memory limit (instances) before fallback; `None` = unlimited.
    pub mem_limit: Option<usize>,
    /// Sort results into document order (§5.5). Counts and aggregates do
    /// not need it.
    pub sort: bool,
    /// Apply `//`-collapsing normalization before planning.
    pub normalize: bool,
}

impl PlanConfig {
    /// Default configuration for a method.
    pub fn new(method: Method) -> Self {
        Self {
            method,
            costs: CostParams::default(),
            mem_limit: None,
            sort: false,
            normalize: true,
        }
    }

    /// `path` as the plans see it: `//`-collapsed if `normalize` is set.
    pub(crate) fn prepare(&self, path: &LocationPath) -> LocationPath {
        if self.normalize {
            path.normalize()
        } else {
            path.clone()
        }
    }
}

/// A bare method means its default configuration ([`PlanConfig::new`]).
impl From<Method> for PlanConfig {
    fn from(method: Method) -> Self {
        Self::new(method)
    }
}

/// Result of one path execution.
#[derive(Debug, Clone)]
pub struct PathRun {
    /// Distinct result nodes with their document-order keys. Sorted by
    /// document order if the plan was configured with `sort`.
    pub nodes: Vec<(NodeId, u64)>,
    /// Measurements.
    pub report: ExecReport,
}

/// Result of a query (count / sum-of-counts / node set).
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Numeric value (count) — for node-set queries, the result size.
    pub value: u64,
    /// Result nodes for plain path queries (empty for counts).
    pub nodes: Vec<(NodeId, u64)>,
    /// Aggregated measurements over all paths of the query.
    pub report: ExecReport,
}

/// CPU cost charged per comparison when sorting results into document
/// order.
const SORT_CMP_NS: u64 = 30;

/// §5.4.5.4: with a full scan of a path starting at the document root with
/// `descendant-or-self::node()`, every end at step 1 may be treated as
/// reachable. This is sound for *core* ends always, but speculative left
/// ends are **borders**, and a border at step 1 is only guaranteed to be
/// crossed when step 2 is a downward axis (a sideways axis such as
/// `following-sibling` never crosses an edge that has no context on its
/// near side). Restrict the shortcut accordingly.
pub(crate) fn scan_all_reachable_step(path: &LocationPath) -> Option<u16> {
    let first = path.steps.first()?;
    let starts_dos = first.axis == Axis::DescendantOrSelf && first.test == NodeTest::AnyNode;
    let second_ok = path.steps.get(1).is_none_or(|s| s.axis.is_downward());
    (starts_dos && second_ok).then_some(1)
}

/// Stacks one `step_op` operator (`UnnestMap` or `XStep`) per location
/// step on `op`.
pub(crate) fn stack_steps<S: Operator + 'static>(
    store: &TreeStore,
    path: &LocationPath,
    mut op: Box<dyn Operator>,
    step_op: fn(Box<dyn Operator>, u16, Axis, ResolvedTest) -> S,
) -> Box<dyn Operator> {
    for (idx, step) in path.steps.iter().enumerate() {
        let test = ResolvedTest::resolve(&step.test, &store.meta.symbols);
        op = Box::new(step_op(op, idx as u16 + 1, step.axis, test));
    }
    op
}

/// Builds the operator tree for a (normalized) path.
pub(crate) fn build_plan(
    store: &TreeStore,
    path: &LocationPath,
    contexts: Vec<NodeId>,
    method: Method,
) -> Box<dyn Operator> {
    let len = path.steps.len() as u16;
    let source: Box<dyn Operator> = Box::new(ContextSource::new(contexts.clone()));
    match method {
        Method::Simple => stack_steps(store, path, source, UnnestMap::new),
        Method::XSchedule { k, speculative } => {
            let shared = Rc::new(RefCell::new(SchedShared::default()));
            let sched = XSchedule::new(source, Rc::clone(&shared), k, speculative, len);
            let steps = stack_steps(store, path, Box::new(sched), XStep::new);
            Box::new(XAssembly::new(steps, len, Some(shared), None))
        }
        Method::XScan => {
            let pages = store.meta.page_range().collect();
            let scan = XScan::new(source, pages, len);
            let steps = stack_steps(store, path, Box::new(scan), XStep::new);
            let all_reachable =
                scan_all_reachable_step(path).filter(|_| contexts == [store.meta.root]);
            Box::new(XAssembly::new(steps, len, None, all_reachable))
        }
    }
}

/// Executes `path` from `contexts` with the given configuration.
///
/// Fails with [`ExecError::UnexpectedEnd`] if an operator breaks the plan
/// output contract (a bug in the operator tree, never the caller's input).
pub fn execute_path_from(
    store: &TreeStore,
    path: &LocationPath,
    contexts: Vec<NodeId>,
    cfg: &PlanConfig,
) -> Result<PathRun, ExecError> {
    run_path(store, path, contexts, cfg, None, None)
}

/// Snapshot of the clock, buffer and device counters at the start of a
/// measured interval.
pub(crate) struct Meter {
    time: TimeBreakdown,
    buffer: BufferStats,
    device: DeviceStats,
}

impl Meter {
    pub(crate) fn start(store: &TreeStore) -> Self {
        Self {
            time: store.clock().breakdown(),
            buffer: store.buffer.stats(),
            device: store.buffer.device_stats(),
        }
    }

    /// The time/buffer/device delta since [`Self::start`], as a report
    /// whose other fields are empty.
    pub(crate) fn delta(&self, store: &TreeStore) -> ExecReport {
        ExecReport {
            time: store.clock().breakdown() - self.time,
            buffer: store.buffer.stats() - self.buffer,
            device: store.buffer.device_stats() - self.device,
            ..ExecReport::default()
        }
    }
}

/// The plan output contract: a result leaves a plan as a `Done` end
/// (XAssembly), a swizzled `Core` end, or a raw `Cold` context (zero-step
/// Simple plans). Returns the result's `(node, order)`, or `None` when a
/// `Cold` end's cluster could not be read (the store recorded the error and
/// the caller winds down). Any other end is a bug in the operator tree,
/// reported as [`ExecError::UnexpectedEnd`] by `executor`.
pub(crate) fn result_node(
    store: &TreeStore,
    end: &REnd,
    executor: &'static str,
) -> Result<Option<(NodeId, u64)>, ExecError> {
    Ok(match end {
        REnd::Done { id, order } => Some((*id, *order)),
        REnd::Core {
            cluster,
            slot,
            order,
        } => Some((cluster.id(*slot), *order)),
        REnd::Cold { id, .. } => store
            .checked_fix(id.page)
            .map(|cluster| (*id, cluster.node(id.slot).order)),
        other => return Err(ExecError::unexpected_end(executor, other)),
    })
}

/// Completes `io`, a [`Meter`] delta, with the algebra counters of `cx`.
pub(crate) fn exec_report(
    cx: &ExecCtx<'_>,
    method: &str,
    results: usize,
    io: ExecReport,
) -> ExecReport {
    let (nav, stats) = (&cx.nav_counters, &cx.stats);
    ExecReport {
        method: method.to_owned(),
        nodes_visited: nav.nodes_visited.get(),
        node_tests: nav.node_tests.get(),
        borders: nav.borders.get(),
        instances: stats.instances.get(),
        results: results as u64,
        r_inserts: stats.r_inserts.get(),
        s_inserts: stats.s_inserts.get(),
        s_peak: stats.s_peak.get(),
        q_pushes: stats.q_pushes.get(),
        speculative_generated: stats.speculative_generated.get(),
        fallback: stats.fallback_entered.get(),
        degraded: cx.governor_degraded(),
        ..io
    }
}

/// Clean abort on the store's `recorded` read failure, if any: discards
/// the asynchronous reads still queued, so the next run starts from an idle
/// device, and surfaces the failure as a value.
pub(crate) fn io_abort(store: &TreeStore, recorded: Option<IoError>) -> Result<(), ExecError> {
    let Some(e) = recorded else { return Ok(()) };
    store.buffer.drain_inflight();
    Err(ExecError::Io {
        page: e.page,
        attempts: e.attempts,
    })
}

/// The single-path executor. With a `budget`, the soft deadline degrades the
/// plan into §5.4.6 fallback mode, the hard deadline (or the budget's
/// cancel token) aborts it with a typed error, and S-set growth is charged
/// to `ledger`, if one is given (batch-wide memory pressure degrades the
/// query instead of growing S). An unlimited budget without a ledger
/// behaves exactly like no budget.
pub(crate) fn run_path(
    store: &TreeStore,
    path: &LocationPath,
    contexts: Vec<NodeId>,
    cfg: &PlanConfig,
    budget: Option<&QueryBudget>,
    ledger: Option<&MemLedger>,
) -> Result<PathRun, ExecError> {
    let path = cfg.prepare(path);
    // A recorded I/O error from an earlier aborted run must not bleed in.
    store.clear_io_error();
    let cx = match budget {
        None => ExecCtx::new(store, cfg.costs, cfg.mem_limit),
        Some(b) => ExecCtx::with_budget(store, cfg.costs, cfg.mem_limit, b, ledger.cloned()),
    };
    let meter = Meter::start(store);

    let mut plan = build_plan(store, &path, contexts, cfg.method);
    let mut nodes: Vec<(NodeId, u64)> = Vec::new();
    let mut dedup: IdSet<NodeId> = IdSet::default();
    let mut contract = Ok(());
    let simple = matches!(cfg.method, Method::Simple);
    while let Some(p) = plan.next(&cx) {
        let (id, order) = match result_node(store, &p.nr, "execute_path_from") {
            Ok(Some(node)) => node,
            Ok(None) => break, // error recorded; abort below
            Err(e) => {
                contract = Err(e);
                break;
            }
        };
        if simple {
            // Final duplicate elimination of the Simple method (§5.1).
            cx.charge_set_op();
            if !dedup.insert(id) {
                continue;
            }
        }
        nodes.push((id, order));
    }
    drop(plan);

    let recorded_io = store.take_io_error();
    if let Some(abort) = cx.governor_verdict(recorded_io.as_ref()) {
        return Err(abort);
    }
    contract?;
    io_abort(store, recorded_io)?;

    if cfg.sort {
        // §5.5: reordered evaluation needs a final sort into document order.
        let n = nodes.len() as u64;
        if n > 1 {
            store
                .clock()
                .charge_cpu(SORT_CMP_NS * n * (64 - n.leading_zeros() as u64));
        }
        nodes.sort_by_key(|&(_, order)| order);
    }

    let report = exec_report(&cx, cfg.method.label(), nodes.len(), meter.delta(store));
    Ok(PathRun { nodes, report })
}

/// Executes `path` from the document root.
pub fn execute_path(
    store: &TreeStore,
    path: &LocationPath,
    cfg: &PlanConfig,
) -> Result<PathRun, ExecError> {
    execute_path_from(store, path, vec![store.meta.root], cfg)
}

/// Executes a query (path, count, or sum of counts) from the document root.
pub fn execute_query(
    store: &TreeStore,
    query: &Query,
    cfg: &PlanConfig,
) -> Result<QueryRun, ExecError> {
    match query {
        Query::Path(p) | Query::Count(p) => {
            // Counting never needs document order (§5.5).
            let count = matches!(query, Query::Count(_));
            let mut c = *cfg;
            c.sort = cfg.sort && !count;
            let run = execute_path(store, p, &c)?;
            Ok(QueryRun {
                value: run.nodes.len() as u64,
                nodes: if count { Vec::new() } else { run.nodes },
                report: run.report,
            })
        }
        Query::Sum(qs) => {
            let mut value = 0u64;
            let mut report = ExecReport {
                method: cfg.method.label().to_owned(),
                ..Default::default()
            };
            for q in qs {
                let r = execute_query(store, q, cfg)?;
                value += r.value;
                report.absorb(&r.report);
            }
            Ok(QueryRun {
                value,
                nodes: Vec::new(),
                report,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::ops::testutil::{mem_store, sample_doc};
    use pathix_tree::Placement;
    use pathix_xpath::{parse_path, parse_query};
    use std::sync::Arc;

    fn all_methods() -> [Method; 4] {
        [
            Method::Simple,
            Method::xschedule(),
            Method::XSchedule {
                k: 10,
                speculative: true,
            },
            Method::XScan,
        ]
    }

    fn reference(doc: &pathix_xml::Document, path: &str) -> Vec<u64> {
        let ranks = doc.preorder_ranks();
        pathix_xpath::eval_path(doc, doc.root(), &parse_path(path).unwrap())
            .iter()
            .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
            .collect()
    }

    #[test]
    fn all_methods_agree_with_reference() {
        let doc = sample_doc();
        for placement in [
            Placement::Sequential,
            Placement::Shuffled { seed: 11 },
            Placement::Strided { stride: 3 },
        ] {
            for path in [
                "/regions//item",
                "//email",
                "/regions/eu/item/name",
                "//item/..",
                "//name/text()",
                "//item/ancestor-or-self::*",
            ] {
                let want = reference(&doc, path);
                for method in all_methods() {
                    let store = mem_store(&doc, 256, placement);
                    let mut cfg = PlanConfig::new(method);
                    cfg.sort = true;
                    let run = execute_path(&store, &parse_path(path).unwrap(), &cfg)
                        .expect("plan executes");
                    let got: Vec<u64> = run.nodes.iter().map(|&(_, o)| o).collect();
                    assert_eq!(
                        got, want,
                        "mismatch: path {path}, method {method:?}, {placement:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn results_are_duplicate_free_and_sorted() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 7 });
        let mut cfg = PlanConfig::new(Method::XScan);
        cfg.sort = true;
        let run =
            execute_path(&store, &parse_path("//item").unwrap(), &cfg).expect("plan executes");
        let orders: Vec<u64> = run.nodes.iter().map(|&(_, o)| o).collect();
        let mut sorted = orders.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(orders, sorted);
    }

    #[test]
    fn count_query_sums() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let q = parse_query("count(//item)+count(//email)").unwrap();
        let cfg = PlanConfig::new(Method::xschedule());
        let run = execute_query(&store, &q, &cfg).expect("query executes");
        let want = pathix_xpath::eval_query(&doc, doc.root(), &q).as_number();
        assert_eq!(run.value, want);
        assert_eq!(run.report.method, "XSchedule");
    }

    #[test]
    fn empty_path_returns_context() {
        let doc = sample_doc();
        for method in all_methods() {
            let store = mem_store(&doc, 256, Placement::Sequential);
            let run = execute_path(&store, &parse_path("/").unwrap(), &PlanConfig::new(method))
                .expect("plan executes");
            assert_eq!(run.nodes.len(), 1, "{method:?}");
            assert_eq!(run.nodes[0].0, store.meta.root);
        }
    }

    #[test]
    fn xscan_reads_every_page_once_methods_differ_in_io() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 3 });
        let pages = store.meta.page_count as u64;
        let run = execute_path(
            &store,
            &parse_path("//email").unwrap(),
            &PlanConfig::new(Method::XScan),
        )
        .expect("plan executes");
        assert_eq!(run.report.device.reads, pages, "XScan reads each page once");
        // A fresh store for the Simple method (cold buffer).
        let store2 = mem_store(&doc, 256, Placement::Shuffled { seed: 3 });
        let run2 = execute_path(
            &store2,
            &parse_path("//email").unwrap(),
            &PlanConfig::new(Method::Simple),
        )
        .expect("plan executes");
        assert_eq!(run.nodes.len(), run2.nodes.len());
    }

    #[test]
    fn result_node_accepts_exactly_the_output_contract() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let root = store.meta.root;
        let cluster = store.checked_fix(root.page).expect("root page reads");
        let order = cluster.node(root.slot).order;
        let accepted = [
            REnd::Done { id: root, order },
            REnd::Core {
                cluster: Arc::clone(&cluster),
                slot: root.slot,
                order,
            },
            REnd::Cold {
                id: root,
                resume: false,
            },
        ];
        for end in &accepted {
            assert_eq!(
                result_node(&store, end, "test"),
                Ok(Some((root, order))),
                "{end:?}"
            );
        }
        let rejected = [
            REnd::Entry {
                cluster,
                slot: root.slot,
            },
            REnd::Border {
                proxy: root,
                target: root,
            },
        ];
        for end in &rejected {
            assert!(
                matches!(
                    result_node(&store, end, "test"),
                    Err(ExecError::UnexpectedEnd {
                        executor: "test",
                        ..
                    })
                ),
                "{end:?}"
            );
        }
    }

    #[test]
    fn fallback_still_correct() {
        let doc = sample_doc();
        let want = reference(&doc, "//item");
        for method in [Method::xschedule(), Method::XScan] {
            let store = mem_store(&doc, 256, Placement::Shuffled { seed: 5 });
            let mut cfg = PlanConfig::new(method);
            cfg.mem_limit = Some(1); // force fallback almost immediately
            cfg.sort = true;
            let run =
                execute_path(&store, &parse_path("//item").unwrap(), &cfg).expect("plan executes");
            let got: Vec<u64> = run.nodes.iter().map(|&(_, o)| o).collect();
            assert_eq!(got, want, "fallback correctness for {method:?}");
        }
    }

    #[test]
    fn fallback_flag_reported() {
        // A shuffled layout scans some clusters before the cluster of the
        // context node, so speculative instances must be parked in S —
        // with a zero memory limit the first parked instance flips the
        // plan into fallback mode.
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 2 });
        let mut cfg = PlanConfig::new(Method::XScan);
        cfg.mem_limit = Some(0);
        let run =
            execute_path(&store, &parse_path("//item").unwrap(), &cfg).expect("plan executes");
        assert!(run.report.fallback);
    }

    #[test]
    fn speculative_xschedule_visits_each_cluster_once() {
        // With speculative on, re-entrant paths must not re-read clusters:
        // device reads ≤ number of pages.
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 13 });
        let cfg = PlanConfig::new(Method::XSchedule {
            k: 100,
            speculative: true,
        });
        let run = execute_path(&store, &parse_path("//item/..//name").unwrap(), &cfg)
            .expect("plan executes");
        assert!(
            run.report.device.reads <= store.meta.page_count as u64,
            "speculative XSchedule must not reread clusters: {} reads vs {} pages",
            run.report.device.reads,
            store.meta.page_count
        );
        assert!(run.report.speculative_generated > 0);
    }
}
