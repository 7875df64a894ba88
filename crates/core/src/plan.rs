//! Plan compilation and execution: a location path plus a [`Method`]
//! becomes an operator tree, which is run to exhaustion and measured.
//!
//! This is the role of the paper's algebraic XPath compiler (§6.1), reduced
//! to the three plan shapes the evaluation compares:
//!
//! * **Simple** — `ContextSource → UnnestMap* → DupElim`,
//! * **XSchedule** — `ContextSource → XSchedule → XStep → XAssembly`
//!   (with the `Q` feedback edge),
//! * **XScan** — `ContextSource → XScan → XStep → XAssembly`,
//!
//! where the one `XStep` plays every location step of the path.
//!
//! One driver runs every plan: alone ([`execute_path`]), interleaved with
//! others on one device ([`execute_interleaved`]), or as one of several
//! `XStep → XAssembly` plans fed by a single scan
//! ([`execute_paths_shared_scan`]).

use crate::batch::BatchRun;
use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::governor::QueryBudget;
use crate::instance::{Pi, REnd};
use crate::ops::{
    ClusterEmit, ContextSource, Operator, SchedShared, UnnestMap, XAssembly, XScan, XSchedule,
    XStep,
};
use crate::report::ExecReport;
use pathix_storage::cost::SORT_CMP_NS;
use pathix_storage::{BufferStats, DeviceStats, IoError, TimeBreakdown};
use pathix_tree::{IdSet, NodeId, ResolvedTest, TreeStore};
use pathix_xpath::{Axis, LocationPath, NodeTest, Query};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

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

/// §5.4.5.4: with a full scan of a path starting at the document root with
/// `descendant-or-self::node()`, every end at step 1 may be treated as
/// reachable. This is sound for *core* ends always, but speculative left
/// ends are **borders**, and a border at step 1 is only guaranteed to be
/// crossed when step 2 is a downward axis (a sideways axis such as
/// `following-sibling` never crosses an edge that has no context on its
/// near side). Restrict the shortcut accordingly.
fn scan_all_reachable_step(path: &LocationPath) -> Option<u16> {
    let first = path.steps.first()?;
    let starts_dos = first.axis == Axis::DescendantOrSelf && first.test == NodeTest::AnyNode;
    let second_ok = path.steps.get(1).is_none_or(|s| s.axis.is_downward());
    (starts_dos && second_ok).then_some(1)
}

/// The path's steps as `axis::test` with the test resolved against the
/// document's alphabet, step 1 first.
fn resolve_steps(store: &TreeStore, path: &LocationPath) -> Vec<(Axis, ResolvedTest)> {
    let symbols = &store.meta.symbols;
    let resolve =
        |step: &pathix_xpath::Step| (step.axis, ResolvedTest::resolve(&step.test, symbols));
    path.steps.iter().map(resolve).collect()
}

/// The Simple method's nested loops: one `UnnestMap` per location step,
/// stacked on `op`.
fn stack_steps(
    store: &TreeStore,
    path: &LocationPath,
    mut op: Box<dyn Operator>,
) -> Box<dyn Operator> {
    for ((axis, test), i) in resolve_steps(store, path).into_iter().zip(1..) {
        op = Box::new(UnnestMap::new(op, i, axis, test));
    }
    op
}

/// Builds the operator tree for a (normalized) path from the document root.
fn build_plan(store: &TreeStore, path: &LocationPath, method: Method) -> Box<dyn Operator> {
    let len = path.steps.len() as u16;
    let source: Box<dyn Operator> = Box::new(ContextSource::new(vec![store.meta.root]));
    match method {
        Method::Simple => stack_steps(store, path, source),
        Method::XSchedule { k, speculative } => {
            let shared = Rc::new(RefCell::new(SchedShared::default()));
            let sched = XSchedule::new(source, Rc::clone(&shared), k, speculative, len);
            let steps = XStep::new(Box::new(sched), resolve_steps(store, path));
            Box::new(XAssembly::new(Box::new(steps), len, Some(shared), None))
        }
        Method::XScan => {
            let pages = store.meta.page_range().collect();
            let scan = XScan::new(source, pages, len);
            let steps = XStep::new(Box::new(scan), resolve_steps(store, path));
            let all_reachable = scan_all_reachable_step(path);
            Box::new(XAssembly::new(Box::new(steps), len, None, all_reachable))
        }
    }
}

/// Snapshot of the clock, buffer and device counters at the start of a
/// measured interval.
struct Meter {
    time: TimeBreakdown,
    buffer: BufferStats,
    device: DeviceStats,
}

impl Meter {
    fn start(store: &TreeStore) -> Self {
        Self {
            time: store.clock().breakdown(),
            buffer: store.buffer.stats(),
            device: store.buffer.device_stats(),
        }
    }

    /// The time/buffer/device delta since [`Self::start`], as a report
    /// whose other fields are empty.
    fn delta(&self, store: &TreeStore) -> ExecReport {
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
/// reported as [`ExecError::UnexpectedEnd`].
fn result_node(store: &TreeStore, end: &REnd) -> Result<Option<(NodeId, u64)>, ExecError> {
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
        other => return Err(ExecError::unexpected_end(other)),
    })
}

/// Clean abort on the store's `recorded` read failure, if any: discards
/// the asynchronous reads still queued, so the next run starts from an idle
/// device, and surfaces the failure as a value.
fn io_abort(store: &TreeStore, recorded: Option<IoError>) -> Result<(), ExecError> {
    let Some(e) = recorded else { return Ok(()) };
    store.buffer.drain_inflight();
    Err(ExecError::Io {
        page: e.page,
        kind: e.kind,
        attempts: e.attempts,
    })
}

/// One plan in execution. Every executor drives its plans through this
/// one type: [`Driver::start`] builds the context, [`Driver::pull`] takes
/// one result at a time, and [`Driver::finish`] settles the run.
/// [`run_path`] drives one plan to exhaustion; [`execute_interleaved`] and
/// [`execute_paths_shared_scan`] drive several on one store, so a plan
/// costs the same whichever executor runs it.
struct Driver<'a> {
    cx: ExecCtx<'a>,
    plan: Box<dyn Operator>,
    cfg: PlanConfig,
    nodes: Vec<(NodeId, u64)>,
    /// Results pulled so far, for Simple's final duplicate elimination.
    seen: IdSet<NodeId>,
    /// A broken plan output contract, surfaced by [`Driver::finish`].
    contract: Result<(), ExecError>,
}

impl<'a> Driver<'a> {
    /// Starts `plan` under a fresh context for `cfg`, governed by `budget`
    /// if one is given.
    fn start(
        store: &'a TreeStore,
        cfg: &PlanConfig,
        budget: Option<&QueryBudget>,
        plan: Box<dyn Operator>,
    ) -> Self {
        let cx = match budget {
            None => ExecCtx::new(store, cfg.mem_limit),
            Some(b) => ExecCtx::with_budget(store, cfg.mem_limit, b),
        };
        Self {
            cx,
            plan,
            cfg: *cfg,
            nodes: Vec::new(),
            seen: IdSet::default(),
            contract: Ok(()),
        }
    }

    /// Pulls one output of the plan. False once the plan is exhausted (for
    /// now: a plan on a queue source resumes when the queue refills), or
    /// when it must wind down on a recorded read error or a broken output
    /// contract.
    fn pull(&mut self) -> bool {
        let Some(p) = self.plan.next(&self.cx) else {
            return false;
        };
        let (id, order) = match result_node(self.cx.store, &p.nr) {
            Ok(Some(node)) => node,
            Ok(None) => return false, // error recorded; surfaced by the caller
            Err(e) => {
                self.contract = Err(e);
                return false;
            }
        };
        if matches!(self.cfg.method, Method::Simple) {
            // Final duplicate elimination of the Simple method (§5.1).
            self.cx.charge_set_op();
            if !self.seen.insert(id) {
                return true;
            }
        }
        self.nodes.push((id, order));
        true
    }

    /// Settles the run: the governor's verdict, then a broken contract,
    /// then a recorded read error fail it. Otherwise the results are sorted
    /// into document order if the plan asked for it (§5.5, charged
    /// `SORT_CMP_NS·n·log n`) and reported over `io()`, the clock, buffer
    /// and device delta the caller measures after the sort.
    fn finish(mut self, io: impl FnOnce() -> ExecReport) -> Result<PathRun, ExecError> {
        drop(self.plan);
        let (cx, store) = (&self.cx, self.cx.store);
        let recorded_io = store.take_io_error();
        if let Some(abort) = cx.governor_verdict(recorded_io.as_ref()) {
            return Err(abort);
        }
        self.contract?;
        io_abort(store, recorded_io)?;
        let n = self.nodes.len() as u64;
        if self.cfg.sort {
            if n > 1 {
                store
                    .clock()
                    .charge_cpu(SORT_CMP_NS * n * (64 - n.leading_zeros() as u64));
            }
            self.nodes.sort_by_key(|&(_, order)| order);
        }
        let (nav, stats) = (&cx.nav_counters, &cx.stats);
        let report = ExecReport {
            method: self.cfg.method.label().to_owned(),
            nodes_visited: nav.nodes_visited.get(),
            node_tests: nav.node_tests.get(),
            borders: nav.borders.get(),
            instances: stats.instances.get(),
            results: n,
            r_inserts: stats.r_inserts.get(),
            s_inserts: stats.s_inserts.get(),
            s_peak: stats.s_peak.get(),
            q_pushes: stats.q_pushes.get(),
            speculative_generated: stats.speculative_generated.get(),
            fallback: stats.fallback_entered.get(),
            degraded: cx.governor_degraded(),
            ..io()
        };
        Ok(PathRun {
            nodes: self.nodes,
            report,
        })
    }
}

/// The single-path executor. With a `budget`, the soft deadline degrades the
/// plan into §5.4.6 fallback mode and the hard deadline (or the budget's
/// cancel token) aborts it with a typed error. An unlimited budget behaves
/// exactly like no budget.
pub(crate) fn run_path(
    store: &TreeStore,
    path: &LocationPath,
    cfg: &PlanConfig,
    budget: Option<&QueryBudget>,
) -> Result<PathRun, ExecError> {
    // A recorded I/O error from an earlier aborted run must not bleed in.
    store.clear_io_error();
    let plan = build_plan(store, &cfg.prepare(path), cfg.method);
    let mut driver = Driver::start(store, cfg, budget, plan);
    let meter = Meter::start(store);
    while driver.pull() {}
    driver.finish(|| meter.delta(store))
}

/// Runs every `(path, method)` item of `work` from the document root,
/// interleaved on `store`'s one device — the paper's outlook: "We also
/// expect concurrent queries to strongly benefit from asynchronous I/O, as
/// scheduling decisions can be made based on more pending requests" (§7),
/// and the converse warning it cites for the Assembly operator: concurrently
/// active scan-based plans interfere and cause extra disk-arm movement.
///
/// The plans take turns, one pull each, so their I/O requests reach the
/// device interleaved. Synchronous plans (Simple) ping-pong the head
/// between working sets; asynchronous plans (XSchedule) pool everything in
/// the device queue, which reorders across all of them.
///
/// Each item is charged exactly as [`execute_path`] charges it alone, and
/// its report's clock, buffer and device deltas are those of its own turns,
/// so the items' deltas sum to [`BatchRun::report`], the store's delta over
/// the batch. The device is the failure domain: an unrecovered read fails
/// the whole batch with [`ExecError::Io`]. An item that breaks the plan
/// output contract fails alone with [`ExecError::UnexpectedEnd`].
pub fn execute_interleaved(
    store: &TreeStore,
    work: &[(LocationPath, Method)],
    cfg: &PlanConfig,
) -> Result<BatchRun, ExecError> {
    store.clear_io_error();
    let meter = Meter::start(store);
    // (driver, its turns' deltas, still producing)
    let mut slots: Vec<_> = work
        .iter()
        .map(|&(ref path, method)| {
            let cfg = PlanConfig { method, ..*cfg };
            let plan = build_plan(store, &cfg.prepare(path), method);
            let driver = Driver::start(store, &cfg, None, plan);
            (driver, ExecReport::default(), true)
        })
        .collect();
    let mut live = true;
    while live && !store.io_failed() {
        live = false;
        for (driver, io, more) in slots.iter_mut().filter(|slot| slot.2) {
            let turn = Meter::start(store);
            *more = driver.pull();
            io.absorb(&turn.delta(store));
            live |= *more;
        }
    }
    io_abort(store, store.take_io_error())?;
    let runs: Vec<_> = slots
        .into_iter()
        .map(|(driver, mut io, _)| {
            let turn = Meter::start(store);
            driver.finish(|| {
                io.absorb(&turn.delta(store));
                io
            })
        })
        .collect();
    let report = ExecReport {
        method: "interleaved".to_owned(),
        results: runs.iter().flatten().map(|r| r.nodes.len() as u64).sum(),
        ..meter.delta(store)
    };
    Ok(BatchRun::new(runs, report))
}

/// Pull operator over the cluster that the shared scan's page loop has
/// just scanned for its path.
struct EmitSource(Rc<RefCell<ClusterEmit>>);

impl Operator for EmitSource {
    fn next(&mut self, _cx: &ExecCtx<'_>) -> Option<Pi> {
        self.0.borrow_mut().next()
    }
}

/// Evaluates every path of `paths` from the document root with **one**
/// sequential scan — the paper's outlook: "Our method can be easily
/// extended to evaluate multiple location paths with a single
/// I/O-performing operator" (§7). A query like XMark Q7 (three `count()`s)
/// reads the document once instead of three times.
///
/// Each path is an `XStep → XAssembly` plan over the scanned cluster. For
/// every cluster the scan visits, each path's plan is handed what
/// [`XScan`] would emit for it there, and is drained. Every path runs as
/// `XScan` under `cfg`, except that `cfg.mem_limit` is ignored (fallback
/// would need a second scan per path).
///
/// The scan's clock, buffer and device delta is reported once, in
/// [`BatchRun::report`], together with the sum of the paths' algebra
/// counters; an item's own report carries only its algebra counters. An
/// unrecovered read fails the whole batch with [`ExecError::Io`]; a path
/// that breaks the plan output contract fails alone with
/// [`ExecError::UnexpectedEnd`].
pub fn execute_paths_shared_scan(
    store: &TreeStore,
    paths: &[LocationPath],
    cfg: &PlanConfig,
) -> Result<BatchRun, ExecError> {
    let mut cfg = *cfg;
    (cfg.method, cfg.mem_limit) = (Method::XScan, None);
    store.clear_io_error();
    let meter = Meter::start(store);
    // (driver, the cluster it reads, its step count)
    let mut slots: Vec<_> = paths
        .iter()
        .map(|path| {
            let path = cfg.prepare(path);
            let len = path.steps.len() as u16;
            let feed = Rc::new(RefCell::new(ClusterEmit::default()));
            let source = Box::new(EmitSource(Rc::clone(&feed)));
            let steps = Box::new(XStep::new(source, resolve_steps(store, &path)));
            let plan = XAssembly::new(steps, len, None, scan_all_reachable_step(&path));
            (Driver::start(store, &cfg, None, Box::new(plan)), feed, len)
        })
        .collect();
    let root = store.meta.root;
    for page in store.meta.page_range() {
        // An unrecovered read ends the scan; the batch fails below.
        let Some(cluster) = store.checked_fix(page) else {
            break;
        };
        let context = (page == root.page).then_some(root);
        for (driver, feed, len) in &mut slots {
            let contexts = context.into_iter().collect();
            *feed.borrow_mut() = ClusterEmit::new(&driver.cx, Arc::clone(&cluster), contexts, *len);
            while driver.pull() {}
        }
    }
    io_abort(store, store.take_io_error())?;
    let runs: Vec<_> = slots
        .into_iter()
        .map(|(driver, ..)| driver.finish(ExecReport::default))
        .collect();
    let mut report = ExecReport {
        method: "SharedScan".to_owned(),
        ..meter.delta(store)
    };
    for run in runs.iter().flatten() {
        report.absorb(&run.report);
    }
    Ok(BatchRun::new(runs, report))
}

/// Executes `path` from the document root.
///
/// Fails with [`ExecError::UnexpectedEnd`] if an operator breaks the plan
/// output contract (a bug in the operator tree, never the caller's input).
pub fn execute_path(
    store: &TreeStore,
    path: &LocationPath,
    cfg: &PlanConfig,
) -> Result<PathRun, ExecError> {
    run_path(store, path, cfg, None)
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
            assert_eq!(result_node(&store, end), Ok(Some((root, order))), "{end:?}");
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
                    result_node(&store, end),
                    Err(ExecError::UnexpectedEnd { .. })
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

    /// A one-item interleaved batch is charged exactly like its plan run
    /// alone: Simple's final dedup and the document-order sort cost the
    /// same CPU in both, so nodes and every report field agree.
    #[test]
    fn one_item_interleaved_batch_equals_execute_path() {
        let doc = sample_doc();
        let mut sorted = PlanConfig::new(Method::xschedule());
        sorted.sort = true;
        for (path, cfg) in [
            ("//item/..", PlanConfig::new(Method::Simple)),
            ("/regions//item/name", sorted),
        ] {
            let path = parse_path(path).unwrap();
            let placement = Placement::Shuffled { seed: 5 };
            let solo = execute_path(&mem_store(&doc, 256, placement), &path, &cfg).unwrap();
            let store = mem_store(&doc, 256, placement);
            let batch = execute_interleaved(&store, &[(path, cfg.method)], &cfg).unwrap();
            let run = batch.runs[0].as_ref().unwrap();
            assert_eq!(run.nodes, solo.nodes, "{cfg:?}");
            assert_eq!(format!("{:?}", run.report), format!("{:?}", solo.report));
        }
        // The Simple plan pulls one parent per item, so its dedup ran.
        let items = reference(&doc, "//item").len();
        assert!(reference(&doc, "//item/..").len() < items);
    }

    #[test]
    fn interleaved_plans_all_correct() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 17 });
        let work = vec![
            (parse_path("/regions//item").unwrap(), Method::Simple),
            (parse_path("//email").unwrap(), Method::xschedule()),
            (parse_path("//name").unwrap(), Method::XScan),
        ];
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let batch = execute_interleaved(&store, &work, &cfg).expect("plans execute");
        assert_eq!(batch.runs.len(), 3);
        for (i, (path, _)) in work.iter().enumerate() {
            let want = reference(&doc, &path.to_string());
            let run = batch.runs[i].as_ref().expect("plan succeeds");
            let got: Vec<u64> = run.nodes.iter().map(|&(_, o)| o).collect();
            assert_eq!(got, want, "plan {i} diverged under interleaving");
        }
        assert!(batch.report.results > 0);
    }

    #[test]
    fn two_schedules_share_the_device_queue() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 3 });
        let work = vec![
            (parse_path("//item").unwrap(), Method::xschedule()),
            (parse_path("//email").unwrap(), Method::xschedule()),
        ];
        let batch = execute_interleaved(&store, &work, &PlanConfig::new(Method::Simple))
            .expect("plans execute");
        for run in &batch.runs {
            assert!(!run.as_ref().expect("plan succeeds").nodes.is_empty());
        }
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
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let batch = execute_interleaved(&store, &work, &cfg).expect("plans execute");
        let runs: Vec<&PathRun> = batch.runs.iter().map(|r| r.as_ref().unwrap()).collect();
        // Every read and every simulated nanosecond of the batch, the final
        // sorts included, happens inside some plan's bracketed turn, so the
        // per-plan deltas must sum exactly to the combined report.
        let combined = &batch.report;
        let reads: u64 = runs.iter().map(|r| r.report.device.reads).sum();
        let total_ns: u64 = runs.iter().map(|r| r.report.time.total_ns).sum();
        let fixes: u64 = runs.iter().map(|r| r.report.buffer.fixes).sum();
        assert_eq!(reads, combined.device.reads);
        assert_eq!(total_ns, combined.time.total_ns);
        assert_eq!(fixes, combined.buffer.fixes);
        for (run, (_, method)) in runs.iter().zip(&work) {
            assert_eq!(run.report.results, run.nodes.len() as u64);
            assert_eq!(run.report.method, method.label());
            assert!(
                run.report.instances > 0,
                "{} did no work?",
                run.report.method
            );
        }
    }

    fn shared_scan(store: &TreeStore, paths: &[&str], cfg: &PlanConfig) -> BatchRun {
        let paths: Vec<LocationPath> = paths.iter().map(|p| parse_path(p).unwrap()).collect();
        execute_paths_shared_scan(store, &paths, cfg).expect("fault-free scan")
    }

    #[test]
    fn shared_scan_matches_reference_per_path() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 21 });
        let paths = ["/regions//item", "//email", "//name/text()", "//item/.."];
        let mut cfg = PlanConfig::new(Method::XScan);
        cfg.sort = true;
        let batch = shared_scan(&store, &paths, &cfg);
        assert_eq!(batch.runs.len(), paths.len());
        for (run, path) in batch.runs.iter().zip(paths) {
            let got: Vec<u64> = run
                .as_ref()
                .unwrap()
                .nodes
                .iter()
                .map(|&(_, o)| o)
                .collect();
            assert_eq!(got, reference(&doc, path), "path {path}");
        }
    }

    #[test]
    fn single_scan_for_many_paths() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let paths = ["/regions//item", "//email", "//description"];
        let batch = shared_scan(&store, &paths, &PlanConfig::new(Method::XScan));
        assert_eq!(
            batch.report.device.reads, store.meta.page_count as u64,
            "one scan, not one per path"
        );
    }

    #[test]
    fn empty_path_list() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let batch = shared_scan(&store, &[], &PlanConfig::new(Method::XScan));
        assert!(batch.runs.is_empty());
        assert_eq!(batch.report.results, 0);
    }

    #[test]
    fn zero_step_path_yields_context() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let batch = shared_scan(&store, &["/"], &PlanConfig::new(Method::XScan));
        let run = batch.runs[0].as_ref().unwrap();
        assert_eq!(run.nodes.len(), 1);
        assert_eq!(run.nodes[0].0, store.meta.root);
    }
}
