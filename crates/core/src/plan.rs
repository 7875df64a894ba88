//! Plan compilation and execution: a location path plus a [`Method`]
//! becomes an operator tree, which is run to exhaustion and measured.
//!
//! This is the role of the paper's algebraic XPath compiler (§6.1), reduced
//! to the three plan shapes the evaluation compares:
//!
//! * **Simple** — `ContextSource → XStep → DupElim`,
//! * **XSchedule** — `ContextSource → XSchedule → XStep → XAssembly`
//!   (with the `Q` feedback edge),
//! * **XScan** — `ContextSource → XScan → XStep → XAssembly`,
//!
//! where the one `XStep` plays every location step of the path. A Simple
//! plan's ends are never swizzled, so its `XStep` runs the nested
//! Unnest-Map loops of §5.1 (a `FullCursor` per step, synchronous I/O at
//! every border), and `DupElim` is the driver's final duplicate
//! elimination.
//!
//! One driver runs every plan, alone ([`execute_path`]) or interleaved with
//! others on one device ([`execute_interleaved`]), where the XScan plans
//! read one shared scan.

use crate::batch::BatchRun;
use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::governor::QueryBudget;
use crate::instance::REnd;
use crate::ops::{
    ContextSource, Operator, ScanCursor, SchedShared, XAssembly, XScan, XSchedule, XStep,
};
use crate::report::ExecReport;
use pathix_storage::cost::SORT_CMP_NS;
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
    /// `S` memory limit (instances) before fallback; `None` = unlimited.
    pub mem_limit: Option<usize>,
    /// Sort results into document order (§5.5). Counts and aggregates do
    /// not need it.
    pub sort: bool,
}

impl PlanConfig {
    /// Default configuration for a method.
    pub fn new(method: Method) -> Self {
        Self {
            method,
            mem_limit: None,
            sort: false,
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

/// An operator tree, run by pulling its root.
type Plan = Box<dyn Operator>;

/// Builds the operator tree for `path` from the document root, after the
/// `//`-collapse of [`LocationPath::normalize`] (the path
/// [`crate::Optimizer::estimate`] costs). An XScan plan reads `scan`'s
/// pages.
fn build_plan(store: &TreeStore, path: &LocationPath, method: Method, scan: &ScanCursor) -> Plan {
    let path = &path.normalize();
    let len = path.steps.len() as u16;
    let source: Plan = Box::new(ContextSource::new(vec![store.meta.root]));
    match method {
        Method::Simple => Box::new(XStep::new(source, resolve_steps(store, path))),
        Method::XSchedule { k, speculative } => {
            let shared = Rc::new(RefCell::new(SchedShared::default()));
            let sched = XSchedule::new(source, Rc::clone(&shared), k, speculative, len);
            let steps = XStep::new(Box::new(sched), resolve_steps(store, path));
            Box::new(XAssembly::new(Box::new(steps), len, Some(shared), None))
        }
        Method::XScan => {
            let scan = XScan::new(source, scan, len);
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
/// one result at a time, and [`Driver::finish`] settles the run. So a plan
/// costs the same whether [`run_path`] or [`execute_interleaved`] runs it.
struct Driver<'a> {
    cx: ExecCtx<'a>,
    /// Dropped once it breaks the output contract, so no scan waits for it.
    plan: Option<Plan>,
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
        plan: Plan,
    ) -> Self {
        let cx = match budget {
            None => ExecCtx::new(store, cfg.mem_limit),
            Some(b) => ExecCtx::with_budget(store, cfg.mem_limit, b),
        };
        Self {
            cx,
            plan: Some(plan),
            cfg: *cfg,
            nodes: Vec::new(),
            seen: IdSet::default(),
            contract: Ok(()),
        }
    }

    /// Pulls one output of the plan. False once it is exhausted for now (an
    /// XScan plan waits for the other readers of its scan), or must wind
    /// down on a recorded read error or a broken output contract.
    fn pull(&mut self) -> bool {
        let Some(p) = self.plan.as_mut().and_then(|plan| plan.next(&self.cx)) else {
            return false;
        };
        let (id, order) = match result_node(self.cx.store, &p.nr) {
            Ok(Some(node)) => node,
            Ok(None) => return false, // error recorded; surfaced by the caller
            Err(e) => {
                self.contract = Err(e);
                self.plan = None;
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
        self.plan = None;
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
            fallback: cx.in_fallback(),
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
/// plan into §5.4.6 fallback mode and the hard deadline aborts it with a
/// typed error. An unlimited budget behaves
/// exactly like no budget.
pub(crate) fn run_path(
    store: &TreeStore,
    path: &LocationPath,
    cfg: &PlanConfig,
    budget: Option<&QueryBudget>,
) -> Result<PathRun, ExecError> {
    // A recorded I/O error from an earlier aborted run must not bleed in.
    store.clear_io_error();
    let scan = ScanCursor::new(store.meta.page_range());
    let plan = build_plan(store, path, cfg.method, &scan);
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
/// The XScan items read one [`ScanCursor`], "a single I/O-performing
/// operator" for several paths (§7): XMark Q7's three paths read the
/// document once, not three times. An item whose `S` outgrows `mem_limit`
/// leaves the scan for its §5.4.6 fallback; the others scan on.
///
/// Each item is charged exactly as [`execute_path`] charges it alone, and
/// its report's clock, buffer and device deltas are those of its own turns
/// (a shared page read falls to the turn that makes it). [`BatchRun::report`]
/// sums the successful items, as for every batch; with none failed, its
/// deltas are the store's over the batch.
/// The device is the failure domain: an unrecovered read fails the whole
/// batch with [`ExecError::Io`]. An item that breaks the plan output
/// contract fails alone with [`ExecError::UnexpectedEnd`].
pub fn execute_interleaved(
    store: &TreeStore,
    work: &[(LocationPath, Method)],
    cfg: &PlanConfig,
) -> Result<BatchRun, ExecError> {
    store.clear_io_error();
    let scan = ScanCursor::new(store.meta.page_range());
    // (driver, its turns' deltas)
    let mut slots: Vec<_> = work
        .iter()
        .map(|&(ref path, method)| {
            let cfg = PlanConfig { method, ..*cfg };
            let plan = build_plan(store, path, method, &scan);
            let driver = Driver::start(store, &cfg, None, plan);
            (driver, ExecReport::default())
        })
        .collect();
    // Rounds until no plan produced and no scan reader waits.
    let mut live = true;
    while live && !store.io_failed() {
        live = scan.open();
        for (driver, io) in &mut slots {
            let turn = Meter::start(store);
            live |= driver.pull();
            io.absorb(&turn.delta(store));
        }
    }
    io_abort(store, store.take_io_error())?;
    let runs: Vec<_> = slots
        .into_iter()
        .map(|(driver, mut io)| {
            let turn = Meter::start(store);
            driver.finish(|| {
                io.absorb(&turn.delta(store));
                io
            })
        })
        .collect();
    Ok(BatchRun::new(runs, "interleaved"))
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
    use pathix_tree::{ClusterPin, Placement};
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

    /// Plans always normalize, and normalization keeps a leading
    /// `descendant-or-self::node()` that no child step follows, so such a
    /// path still arms XScan's §5.4.5.4 shortcut; `//x` collapses into one
    /// `descendant` step and does not.
    #[test]
    fn dos_shortcut_survives_normalization() {
        let armed = |p: &str| scan_all_reachable_step(&parse_path(p).unwrap().normalize());
        assert_eq!(
            armed("/descendant-or-self::node()/descendant::keyword"),
            Some(1)
        );
        assert_eq!(armed("//keyword"), None);
    }

    #[test]
    fn all_methods_agree_with_reference() {
        let doc = sample_doc();
        for placement in [
            Placement::Sequential,
            Placement::ChunkShuffled { chunk: 1, seed: 11 },
            Placement::ChunkShuffled { chunk: 3, seed: 11 },
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
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 7 });
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
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 3 });
        let pages = store.meta.page_count as u64;
        let run = execute_path(
            &store,
            &parse_path("//email").unwrap(),
            &PlanConfig::new(Method::XScan),
        )
        .expect("plan executes");
        assert_eq!(run.report.device.reads, pages, "XScan reads each page once");
        // A fresh store for the Simple method (cold buffer).
        let store2 = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 3 });
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
        let cluster = ClusterPin::new(store.checked_fix(root.page).expect("root page reads"));
        let order = cluster.node(root.slot).order;
        let accepted = [
            REnd::Done { id: root, order },
            REnd::Core {
                cluster: cluster.clone(),
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
            let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 5 });
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
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 2 });
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
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 13 });
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
            let placement = Placement::ChunkShuffled { chunk: 1, seed: 5 };
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

        // The XScan items of a batch share one scan, yet each is charged
        // like its path alone, next to an XSchedule item.
        let placement = Placement::ChunkShuffled { chunk: 1, seed: 5 };
        let paths = ["/regions//item", "//email", "//name/text()", "//item/.."];
        let mut work: Vec<_> = paths
            .iter()
            .map(|p| (parse_path(p).unwrap(), Method::XScan))
            .collect();
        work.push((
            parse_path("/regions//item/name").unwrap(),
            Method::xschedule(),
        ));
        let counters = |r: &ExecReport| {
            [
                r.instances,
                r.r_inserts,
                r.s_inserts,
                r.s_peak,
                r.speculative_generated,
                r.nodes_visited,
                r.node_tests,
                r.borders,
            ]
        };
        for page_size in [256, 512] {
            let store = mem_store(&doc, page_size, placement);
            let batch = execute_interleaved(&store, &work, &sorted).unwrap();
            assert_eq!(batch.report.device.reads, u64::from(store.meta.page_count));
            for ((path, method), run) in work.iter().zip(&batch.runs) {
                let cfg = PlanConfig {
                    method: *method,
                    ..sorted
                };
                let solo = execute_path(&mem_store(&doc, page_size, placement), path, &cfg);
                let (run, solo) = (run.as_ref().unwrap(), solo.unwrap());
                assert_eq!(run.nodes, solo.nodes, "{path} at {page_size} B");
                let (got, want) = (counters(&run.report), counters(&solo.report));
                assert_eq!(got, want, "{path} at {page_size} B");
            }
        }
    }

    #[test]
    fn interleaved_plans_all_correct() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 17 });
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
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 3 });
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

    /// The batch report sums its items, like every batch report, and its
    /// time, buffer and device deltas are the store's over the call:
    /// every read and every simulated nanosecond of the batch, the final
    /// sorts included, happens inside some plan's bracketed turn.
    #[test]
    fn per_plan_reports_sum_to_combined() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 23 });
        let work = vec![
            (parse_path("//item").unwrap(), Method::Simple),
            (parse_path("//email").unwrap(), Method::xschedule()),
            (parse_path("//name").unwrap(), Method::XScan),
        ];
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let before = (
            store.clock().breakdown(),
            store.buffer.stats(),
            store.buffer.device_stats(),
        );
        let batch = execute_interleaved(&store, &work, &cfg).expect("plans execute");
        let combined = &batch.report;
        assert_eq!(combined.time, store.clock().breakdown() - before.0);
        assert_eq!(combined.buffer, store.buffer.stats() - before.1);
        assert_eq!(combined.device, store.buffer.device_stats() - before.2);
        let runs: Vec<&PathRun> = batch.runs.iter().map(|r| r.as_ref().unwrap()).collect();
        let sum =
            |field: fn(&ExecReport) -> u64| -> u64 { runs.iter().map(|r| field(&r.report)).sum() };
        for (name, got, want) in [
            ("instances", combined.instances, sum(|r| r.instances)),
            (
                "nodes_visited",
                combined.nodes_visited,
                sum(|r| r.nodes_visited),
            ),
            ("r_inserts", combined.r_inserts, sum(|r| r.r_inserts)),
            ("results", combined.results, sum(|r| r.results)),
        ] {
            assert!(want > 0, "{name}: no item did any work");
            assert_eq!(got, want, "{name}");
        }
        let s_peak = runs.iter().map(|r| r.report.s_peak).max();
        assert_eq!(Some(combined.s_peak), s_peak);
        assert_eq!(combined.method, "interleaved");
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

    /// One interleaved batch of an XScan item per path.
    fn shared_scan(store: &TreeStore, paths: &[&str], cfg: &PlanConfig) -> BatchRun {
        let work: Vec<_> = paths
            .iter()
            .map(|p| (parse_path(p).unwrap(), Method::XScan))
            .collect();
        execute_interleaved(store, &work, cfg).expect("fault-free scan")
    }

    #[test]
    fn shared_scan_matches_reference_per_path() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 21 });
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
        assert_eq!(batch.report.device.reads, 0);
    }

    #[test]
    fn zero_step_path_yields_context() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let batch = shared_scan(&store, &["/", "//email"], &PlanConfig::new(Method::XScan));
        let run = batch.runs[0].as_ref().unwrap();
        assert_eq!(run.nodes.len(), 1);
        assert_eq!(run.nodes[0].0, store.meta.root);
    }
}
