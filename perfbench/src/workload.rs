//! The three workloads: set-up, one cycle of closed-loop work, and the
//! answer checks.
//!
//! Every workload is a closed loop with one client: the next operation is
//! started when the previous one returns. Work is grouped into *cycles*, the
//! unit that repeats exactly: each cycle opens a fresh engine session over
//! a fork of the freshly imported device (page images are shared, writes
//! stay private to the fork), so updates never accumulate across cycles
//! and every cycle of `cold` and `warm_rw` performs the same simulated work.
//!
//! * `cold` — XMark Tab. 2's Q6', Q7 and Q15, each under Simple,
//!   XSchedule (k = 100) and XScan, every query from an empty buffer, at
//!   scale 1 with a 100-page buffer. Each pass ends with
//!   [`UPDATES_PER_PASS`] update transactions.
//! * `warm_rw` — scale 0.25 in a 1000-page buffer that is filled once per
//!   cycle and never cleared; [`WARM_PATHS`] under all three methods, with
//!   one update transaction after every [`QUERIES_PER_UPDATE`] queries.
//! * `batch` — the 15 `(path, method)` items of [`BATCH_PATHS`] × methods,
//!   [`PARALLEL_CALLS`] times through `execute_batch_parallel`, each over a
//!   fresh shared page cache, then once through `execute_batch_governed`
//!   with a soft deadline at the items' median simulated time, on
//!   [`WORKERS`] workers. Two parallel calls to one governed call put the
//!   median call latency among the parallel calls and the 90th percentile
//!   among the governed ones. Each pass ends with [`UPDATES_PER_PASS`]
//!   update transactions.
//!
//! An update transaction deletes the text leaf the previous transaction of
//! the session inserted, inserts one new text leaf after a seeded anchor
//! node, and commits through the session's write-ahead log (one flush per
//! commit). Text leaves change no element-path answer, so the oracle stays
//! valid, and the document keeps its size.

use crate::trace::{self, TracedDevice, Tracer};
use pathix::core::report::{buffer_delta, device_delta};
use pathix::core::{
    execute_batch_governed, execute_batch_parallel, execute_query, AdmissionConfig, ExecReport,
    GovernorReport, Method, PlanConfig, QueryBudget, WorkerSeed,
};
use pathix::storage::{
    BufferParams, Device, DiskProfile, PageId, SharedCacheDevice, SharedPageCache,
    SharedPageCacheStats, SimClock, SimDisk, WriteAheadLog,
};
use pathix::tree::node::order_key;
use pathix::tree::{
    import_into, ImportConfig, ImportReport, InsertPos, NewNode, NodeId, Placement, TreeMeta,
    TreeStore, TreeUpdater,
};
use pathix::xpath::eval::QueryValue;
use pathix::xpath::{parse_path, parse_query, LocationPath};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Page size of every workload's database.
pub const PAGE_SIZE: usize = 8192;
/// Worker threads of the `batch` workload.
pub const WORKERS: usize = 2;
/// Update transactions at the end of each `cold` and `batch` pass.
pub const UPDATES_PER_PASS: usize = 60;
/// `warm_rw` runs one update transaction after this many queries.
pub const QUERIES_PER_UPDATE: usize = 2;
/// Passes of `warm_rw` per cycle (per fresh session).
pub const WARM_PASSES: usize = 6;
/// Parallel batch calls per `batch` pass, before the governed call.
pub const PARALLEL_CALLS: usize = 2;
/// Text of every inserted leaf.
const PAYLOAD: &str = "benchmark update payload";

/// XMark Q6' (paper Tab. 2).
pub const Q6: &str = "count(/site/regions//item)";
/// XMark Q7: prose counts.
pub const Q7: &str = "count(/site//description)+count(/site//annotation)+count(/site//email)";
/// XMark Q15: the deep, highly selective chain.
pub const Q15: &str = "/site/closed_auctions/closed_auction/annotation/description/parlist\
                       /listitem/parlist/listitem/text/emph/keyword";

/// The `warm_rw` path set: child, descendant, ancestor, parent,
/// following-sibling and wildcard steps, all with element results.
pub const WARM_PATHS: [&str; 6] = [
    "//keyword/ancestor::item",
    "//open_auction/bidder/following-sibling::bidder",
    "//listitem/parent::parlist",
    "/site/regions/*/item/name",
    "/site/open_auctions/open_auction/bidder/increase",
    "/site/closed_auctions/closed_auction/annotation//keyword",
];

/// The `batch` paths: the paper's three query shapes, the Q6'/Q7 shapes
/// scoped to one top-level subtree each.
pub const BATCH_PATHS: [&str; 5] = [
    "/site/regions//item",
    "/site/people//email",
    "/site/open_auctions//description",
    "/site/closed_auctions//annotation",
    "/site/closed_auctions/closed_auction/annotation/description/parlist\
     /listitem/parlist/listitem/text/emph/keyword",
];

/// The three compared plans, in the paper's order.
pub fn methods() -> [Method; 3] {
    [Method::Simple, Method::xschedule(), Method::XScan]
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper regime: cold buffer, document 11× the buffer.
    Cold,
    /// Document fits the buffer; reads interleaved with update transactions.
    WarmRw,
    /// Parallel and governed batch execution on worker threads.
    Batch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Cold, Workload::WarmRw, Workload::Batch];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::WarmRw => "warm_rw",
            Workload::Batch => "batch",
        }
    }

    /// XMark scaling factor.
    pub fn default_scale(self) -> f64 {
        match self {
            Workload::Cold | Workload::Batch => 1.0,
            Workload::WarmRw => 0.25,
        }
    }

    /// Buffer capacity in pages.
    pub fn buffer_pages(self) -> usize {
        match self {
            Workload::Cold | Workload::Batch => 100,
            Workload::WarmRw => 1000,
        }
    }

    /// Passes per cycle.
    pub fn passes_per_cycle(self) -> usize {
        match self {
            Workload::WarmRw => WARM_PASSES,
            Workload::Cold | Workload::Batch => 1,
        }
    }

    /// Whether simulated time and counts repeat exactly. `batch` shares a
    /// page cache between threads, so its hits depend on interleaving.
    pub fn deterministic(self) -> bool {
        !matches!(self, Workload::Batch)
    }
}

/// SplitMix64: the update script's generator and the seed mixer.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent seed for one purpose from the workload seed.
fn derive(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// The expected answer of one query, from the reference evaluator.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expected {
    /// `count(...)` or a sum of counts.
    Count(u64),
    /// Result nodes as document-order keys, in document order.
    Orders(Vec<u64>),
}

/// One `(query text, method)` operation of `cold` or `warm_rw`.
struct QueryItem {
    text: &'static str,
    method: Method,
    expect: Expected,
}

/// Everything the `batch` workload prepares at set-up.
struct BatchPlan {
    work: Vec<(&'static str, Method)>,
    /// Sequential one-at-a-time results of each item, checked against the
    /// reference evaluator at set-up.
    sequential: Vec<Vec<(NodeId, u64)>>,
    /// Soft deadline at the items' median simulated time; a hard deadline
    /// no item reaches.
    budgets: Vec<QueryBudget>,
}

/// Wall-clock cost of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// XMark generation, s.
    pub generate_s: f64,
    /// Import into the simulated disk, s.
    pub import_s: f64,
    /// Filling the buffer (`warm_rw` only), s.
    pub warmup_s: f64,
}

impl SetupTimes {
    /// The benchmark's set-up time: generate + import + warm-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.import_s + self.warmup_s
    }
}

/// One cycle's measurements.
#[derive(Debug, Default, Clone)]
pub struct Cycle {
    /// Passes in the cycle.
    pub passes: u64,
    /// Wall latency of each query (each batch call on `batch`), ns.
    pub query_ns: Vec<u64>,
    /// Wall latency of each update transaction, ns.
    pub update_ns: Vec<u64>,
    /// Completed operations: queries (batch items on `batch`) plus update
    /// transactions.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, sheds and wrong answers.
    pub failed: u64,
    /// Human-readable description of the first failure.
    pub first_failure: Option<String>,
    /// Sum of the operations' engine reports (update transactions as
    /// deltas of the session's clock, buffer and device).
    pub report: ExecReport,
    /// Governor tallies of the governed batch calls.
    pub governor: GovernorReport,
    /// Shared page cache counters of the parallel batch calls.
    pub cache: SharedPageCacheStats,
    /// Write-ahead-log records written.
    pub wal_records: u64,
}

impl Cycle {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// Simulated ns per pass.
    pub fn sim_ns_per_pass(&self) -> f64 {
        self.report.time.total_ns as f64 / self.passes.max(1) as f64
    }

    /// Every simulated quantity of the cycle: simulated time and all
    /// counts. On a deterministic workload it repeats exactly.
    pub fn fingerprint(&self) -> Vec<u64> {
        let r = &self.report;
        vec![
            r.time.total_ns,
            r.time.cpu_ns,
            r.time.io_wait_ns,
            r.buffer.fixes,
            r.buffer.hits,
            r.buffer.misses,
            r.buffer.evictions,
            r.buffer.prefetches,
            r.device.reads,
            r.device.random_reads,
            r.device.seek_distance_pages,
            r.nodes_visited,
            r.node_tests,
            r.borders,
            r.instances,
            r.results,
            r.r_inserts,
            r.s_inserts,
            r.s_peak,
            r.q_pushes,
            r.speculative_generated,
            self.governor.degraded,
            self.governor.shed,
            self.governor.deadline_aborted,
            self.wal_records,
            self.attempted,
            self.failed,
        ]
    }

    /// Folds `other`'s counts into `self` (latencies stay per cycle).
    pub fn absorb(&mut self, other: Cycle) {
        self.passes += other.passes;
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.report.absorb(&other.report);
        self.governor.admitted += other.governor.admitted;
        self.governor.shed += other.governor.shed;
        self.governor.degraded += other.governor.degraded;
        self.governor.deadline_aborted += other.governor.deadline_aborted;
        self.governor.canceled += other.governor.canceled;
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.single_flight_waits += other.cache.single_flight_waits;
        self.cache.inserts += other.cache.inserts;
        self.cache.failed_loads += other.cache.failed_loads;
        self.wal_records += other.wal_records;
    }
}

/// An imported database plus the workload's prepared operations.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    update_seed: u64,
    pristine: SimDisk,
    meta: TreeMeta,
    /// Import statistics.
    pub import: ImportReport,
    params: BufferParams,
    queries: Vec<QueryItem>,
    batch: Option<BatchPlan>,
    /// Wall-clock cost of this set-up.
    pub times: SetupTimes,
}

fn expected(value: QueryValue, ranks: &[u64]) -> Expected {
    match value {
        QueryValue::Number(n) => Expected::Count(n),
        QueryValue::Nodes(nodes) => Expected::Orders(
            nodes
                .iter()
                .map(|n| order_key(ranks.get(n.0 as usize).copied().unwrap_or(u64::MAX)))
                .collect(),
        ),
    }
}

fn plan_config(method: Method) -> PlanConfig {
    let mut cfg = PlanConfig::new(method);
    cfg.sort = true;
    cfg
}

/// The session's device: a fork of the imported device, traced if asked.
fn fork(disk: &SimDisk, tracer: Option<&Arc<Tracer>>, tid: u32) -> Box<dyn Device + Send> {
    let fork = disk.try_fork().expect("the simulated disk forks");
    match tracer {
        Some(t) => Box::new(TracedDevice::new(fork, Arc::clone(t), tid)),
        None => fork,
    }
}

impl Bench {
    /// Generates the workload's document from `seed`, imports it, computes
    /// every expected answer with the reference evaluator, and (on
    /// `warm_rw`) times one buffer fill. The XMark generator seed, the
    /// placement seed and the update script all derive from `seed`.
    pub fn setup(
        workload: Workload,
        seed: u64,
        scale: f64,
        tracer: Option<&Tracer>,
    ) -> Result<Self, String> {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let doc = {
            let _s = trace::span(tracer, "xmlgen.generate");
            let cfg = pathix::xmlgen::GenConfig::at_scale(scale).with_seed(derive(seed, 1));
            pathix::xmlgen::generate(&cfg)
        };
        times.generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut pristine = SimDisk::with_profile(PAGE_SIZE, DiskProfile::default());
        let (meta, import) = {
            let _s = trace::span(tracer, "tree.import");
            let cfg = ImportConfig {
                page_size: PAGE_SIZE,
                placement: Placement::ChunkShuffled {
                    chunk: 4,
                    seed: derive(seed, 2),
                },
            };
            import_into(&mut pristine, &doc, &cfg).map_err(|e| format!("import: {e:?}"))?
        };
        times.import_s = t.elapsed().as_secs_f64();

        // Expected answers, outside every timed region.
        let ranks = doc.preorder_ranks();
        let oracle = |text: &str| -> Result<Expected, String> {
            let q = parse_query(text).map_err(|e| format!("{text}: {e}"))?;
            Ok(expected(
                pathix::xpath::eval_query(&doc, doc.root(), &q.rooted()),
                &ranks,
            ))
        };
        let texts: Vec<&'static str> = match workload {
            Workload::Cold => vec![Q6, Q7, Q15],
            Workload::WarmRw => WARM_PATHS.to_vec(),
            Workload::Batch => Vec::new(),
        };
        let mut queries = Vec::new();
        for text in texts {
            let expect = oracle(text)?;
            for method in methods() {
                queries.push(QueryItem {
                    text,
                    method,
                    expect: expect.clone(),
                });
            }
        }
        let params = BufferParams {
            capacity: workload.buffer_pages(),
            ..Default::default()
        };
        let mut bench = Self {
            workload,
            update_seed: derive(seed, 3),
            pristine,
            meta,
            import,
            params,
            queries,
            batch: None,
            times,
        };
        if workload == Workload::Batch {
            let work: Vec<(&'static str, Method)> = methods()
                .into_iter()
                .flat_map(|m| BATCH_PATHS.iter().map(move |&p| (p, m)))
                .collect();
            let mut oracles = Vec::with_capacity(work.len());
            for (p, _) in &work {
                oracles.push(oracle(p)?);
            }
            bench.batch = Some(bench.prepare_batch(work, &oracles)?);
        }
        drop(doc);

        if workload == Workload::WarmRw {
            let t = Instant::now();
            drop(bench.session(None));
            bench.times.warmup_s = t.elapsed().as_secs_f64();
        }
        Ok(bench)
    }

    /// Runs every batch item sequentially (the reference the parallel runs
    /// are compared with) and once governed without limits, to place the
    /// soft deadline at the items' median simulated time.
    fn prepare_batch(
        &self,
        work: Vec<(&'static str, Method)>,
        oracles: &[Expected],
    ) -> Result<BatchPlan, String> {
        let store = self.store(self.params.capacity);
        let mut sequential = Vec::with_capacity(work.len());
        for ((text, method), want) in work.iter().zip(oracles) {
            let q = parse_query(text).map_err(|e| format!("{text}: {e}"))?;
            let run = execute_query(&store, &q.rooted(), &plan_config(*method))
                .map_err(|e| format!("{text}: {e}"))?;
            let orders: Vec<u64> = run.nodes.iter().map(|&(_, o)| o).collect();
            if Expected::Orders(orders) != *want {
                return Err(format!(
                    "{text} ({}): sequential run disagrees with the reference evaluator",
                    method.label()
                ));
            }
            sequential.push(run.nodes);
        }
        let parsed = parse_work(&work)?;
        let seeds = (0..WORKERS)
            .map(|_| self.worker_seed(self.fork()))
            .collect();
        let calib = execute_batch_governed(
            seeds,
            &parsed,
            &plan_config(Method::Simple),
            &[],
            &AdmissionConfig::unlimited(),
        );
        let mut sims = Vec::with_capacity(work.len());
        for (run, (text, _)) in calib.runs.iter().zip(&work) {
            let run = run.as_ref().map_err(|e| format!("{text}: {e}"))?;
            sims.push(run.report.time.total_ns);
        }
        sims.sort_unstable();
        let soft = sims.get(sims.len() / 2).copied().unwrap_or(0);
        let hard = sims
            .last()
            .copied()
            .unwrap_or(0)
            .saturating_mul(1000)
            .max(1);
        let budgets = work
            .iter()
            .map(|_| QueryBudget::with_deadline(soft, hard))
            .collect();
        Ok(BatchPlan {
            work,
            sequential,
            budgets,
        })
    }

    /// Pages the imported document occupies.
    pub fn pages(&self) -> u32 {
        self.meta.page_count
    }

    /// The imported document's page range.
    pub fn page_range(&self) -> std::ops::Range<PageId> {
        self.meta.page_range()
    }

    /// An untraced fork of the imported device.
    pub fn fork(&self) -> Box<dyn Device + Send> {
        fork(&self.pristine, None, 0)
    }

    /// A store over an untraced fork with `capacity` buffer frames.
    pub fn store(&self, capacity: usize) -> TreeStore {
        TreeStore::open(
            self.fork(),
            self.meta.clone(),
            BufferParams {
                capacity,
                ..self.params
            },
            Rc::new(SimClock::new()),
        )
    }

    /// A worker seed over `device` (the parallel executor's unit of work
    /// distribution).
    pub fn worker_seed(&self, device: Box<dyn Device + Send>) -> WorkerSeed {
        WorkerSeed {
            device,
            meta: self.meta.clone(),
            params: self.params,
        }
    }

    /// Opens a fresh session: a new store over a fork of the imported
    /// device with a write-ahead log attached; on `warm_rw` every page of
    /// the document is fixed once, filling the buffer.
    fn session(&self, tracer: Option<&Arc<Tracer>>) -> Session {
        let mut store = TreeStore::open(
            fork(&self.pristine, tracer, 0),
            self.meta.clone(),
            self.params,
            Rc::new(SimClock::new()),
        );
        store.attach_wal(Rc::new(RefCell::new(WriteAheadLog::new())));
        if self.workload == Workload::WarmRw {
            for page in self.meta.page_range() {
                drop(store.fix(page));
            }
        }
        Session {
            store,
            live: None,
            rng: Rng::new(self.update_seed),
            anchors: self.meta.page_range(),
        }
    }

    /// Runs one cycle. With a tracer, every layer boundary the benchmark
    /// crosses records a span and the devices are wrapped in
    /// [`TracedDevice`].
    pub fn cycle(&self, tracer: Option<&Arc<Tracer>>) -> Cycle {
        let mut c = Cycle {
            passes: self.workload.passes_per_cycle() as u64,
            ..Default::default()
        };
        let mut session = self.session(tracer);
        match self.workload {
            Workload::Cold => {
                for item in &self.queries {
                    session.store.buffer.reset();
                    self.query(&session, item, tracer, &mut c);
                }
                for _ in 0..UPDATES_PER_PASS {
                    session.update(tracer, &mut c);
                }
            }
            Workload::WarmRw => {
                for _ in 0..WARM_PASSES {
                    for (i, item) in self.queries.iter().enumerate() {
                        self.query(&session, item, tracer, &mut c);
                        if (i + 1) % QUERIES_PER_UPDATE == 0 {
                            session.update(tracer, &mut c);
                        }
                    }
                }
            }
            Workload::Batch => {
                for _ in 0..PARALLEL_CALLS {
                    self.batch_call(false, tracer, &mut c);
                }
                self.batch_call(true, tracer, &mut c);
                for _ in 0..UPDATES_PER_PASS {
                    session.update(tracer, &mut c);
                }
            }
        }
        c
    }

    fn query(
        &self,
        session: &Session,
        item: &QueryItem,
        tracer: Option<&Arc<Tracer>>,
        c: &mut Cycle,
    ) {
        let tracer = tracer.map(Arc::as_ref);
        let op = trace::op(tracer, "query");
        let t = Instant::now();
        let parsed = {
            let _s = trace::span(tracer, "xpath.parse");
            parse_query(item.text).map(|q| q.rooted())
        };
        let out = parsed.map_err(|e| e.to_string()).and_then(|q| {
            let _s = trace::span(tracer, "plan.execute");
            execute_query(&session.store, &q, &plan_config(item.method)).map_err(|e| e.to_string())
        });
        let ns = elapsed_ns(t);
        drop(op);
        c.query_ns.push(ns);
        c.attempted += 1;
        match out {
            Ok(run) => {
                c.ops += 1;
                c.report.absorb(&run.report);
                let got = match &item.expect {
                    Expected::Count(_) => Expected::Count(run.value),
                    Expected::Orders(_) => {
                        Expected::Orders(run.nodes.iter().map(|&(_, o)| o).collect())
                    }
                };
                if got != item.expect {
                    c.fail(format!(
                        "{} ({}): wrong answer",
                        item.text,
                        item.method.label()
                    ));
                }
            }
            Err(e) => c.fail(format!("{} ({}): {e}", item.text, item.method.label())),
        }
    }

    /// Parses the batch's paths, as a client submitting text would.
    fn parse_batch(&self, tracer: Option<&Tracer>) -> Result<Vec<(LocationPath, Method)>, String> {
        let _s = trace::span(tracer, "xpath.parse");
        parse_work(self.batch.as_ref().map_or(&[][..], |b| &b.work[..]))
    }

    /// One batch call, timed as one operation. The parallel executor runs
    /// over a fresh shared page cache; the governed one runs each item from
    /// a cold buffer under the soft deadline at the median item, with
    /// admission that admits everything. Each item is compared with its
    /// sequential run.
    fn batch_call(&self, governed: bool, tracer: Option<&Arc<Tracer>>, c: &mut Cycle) {
        let Some(plan) = &self.batch else { return };
        let t_ref = tracer.map(Arc::as_ref);
        let label = if governed {
            "batch.governed"
        } else {
            "batch.parallel"
        };
        let op = trace::op(t_ref, label);
        let t = Instant::now();
        let cache = (!governed).then(|| Arc::new(SharedPageCache::new()));
        let out = self.parse_batch(t_ref).map(|work| {
            let seeds = {
                let _s = trace::span(t_ref, "server.seed");
                (0..WORKERS)
                    .map(|w| {
                        let dev = fork(&self.pristine, tracer, 1 + w as u32);
                        self.worker_seed(match &cache {
                            Some(cache) => Box::new(SharedCacheDevice::new(dev, Arc::clone(cache))),
                            None => dev,
                        })
                    })
                    .collect()
            };
            let _s = trace::span(t_ref, "server.execute");
            let cfg = plan_config(Method::Simple);
            if governed {
                let b = execute_batch_governed(
                    seeds,
                    &work,
                    &cfg,
                    &plan.budgets,
                    &AdmissionConfig::unlimited(),
                );
                let counts = Cycle {
                    report: b.report,
                    governor: b.governor,
                    ..Default::default()
                };
                (b.runs, counts)
            } else {
                let b = execute_batch_parallel(seeds, &work, &cfg);
                let counts = Cycle {
                    report: b.report,
                    cache: cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
                    ..Default::default()
                };
                (b.runs, counts)
            }
        });
        let ns = elapsed_ns(t);
        drop(op);
        c.query_ns.push(ns);
        c.attempted += plan.work.len() as u64;
        match out {
            Ok((runs, counts)) => {
                c.absorb(counts);
                check_batch(plan, &runs, label, c);
            }
            Err(e) => {
                for _ in &plan.work {
                    c.fail(e.clone());
                }
            }
        }
    }
}

fn parse_work(work: &[(&'static str, Method)]) -> Result<Vec<(LocationPath, Method)>, String> {
    work.iter()
        .map(|&(p, m)| {
            parse_path(p)
                .map(|x| (x.rooted(), m))
                .map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

/// Counts each batch item: an error (a shed included) or a node list that
/// differs from the item's sequential run is a failure.
fn check_batch(
    plan: &BatchPlan,
    runs: &[Result<pathix::core::ConcurrentRun, pathix::core::ExecError>],
    label: &str,
    c: &mut Cycle,
) {
    for (i, (text, method)) in plan.work.iter().enumerate() {
        match runs.get(i) {
            Some(Ok(run)) if Some(&run.nodes) == plan.sequential.get(i) => c.ops += 1,
            Some(Ok(_)) => c.fail(format!("{label} {text} ({}): wrong answer", method.label())),
            Some(Err(e)) => c.fail(format!("{label} {text} ({}): {e}", method.label())),
            None => c.fail(format!("{label} {text} ({}): missing", method.label())),
        }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One cycle's engine: a store over a private device fork, its WAL, and
/// the update script's state.
struct Session {
    store: TreeStore,
    /// The leaf the previous transaction inserted.
    live: Option<NodeId>,
    rng: Rng,
    /// Pages anchors are drawn from: the document as imported.
    anchors: std::ops::Range<PageId>,
}

impl Session {
    /// One update transaction, timed and folded into `c`.
    fn update(&mut self, tracer: Option<&Arc<Tracer>>, c: &mut Cycle) {
        let tracer = tracer.map(Arc::as_ref);
        let clock0 = self.store.clock().breakdown();
        let buf0 = self.store.buffer.stats();
        let dev0 = self.store.buffer.device_stats();
        let wal0 = self.wal_records();
        let op = trace::op(tracer, "update");
        let t = Instant::now();
        let out = self.transaction(tracer);
        let ns = elapsed_ns(t);
        drop(op);
        c.update_ns.push(ns);
        c.attempted += 1;
        c.absorb(Cycle {
            report: ExecReport {
                time: self.store.clock().breakdown().since(&clock0),
                buffer: buffer_delta(self.store.buffer.stats(), buf0),
                device: device_delta(self.store.buffer.device_stats(), dev0),
                ..Default::default()
            },
            wal_records: self.wal_records() - wal0,
            ..Default::default()
        });
        match out {
            Ok(()) => c.ops += 1,
            Err(e) => c.fail(format!("update: {e}")),
        }
    }

    fn wal_records(&self) -> u64 {
        self.store
            .wal
            .as_ref()
            .map_or(0, |w| w.borrow().len().0 as u64)
    }

    /// Deletes the previous transaction's leaf, inserts a new text leaf
    /// after a seeded anchor, and commits.
    fn transaction(&mut self, tracer: Option<&Tracer>) -> Result<(), String> {
        if let Some(prev) = self.live.take() {
            let _s = trace::span(tracer, "update.delete");
            TreeUpdater::new(&mut self.store)
                .delete(prev)
                .map_err(|e| format!("delete: {e}"))?;
        }
        let anchor = self.anchor()?;
        let id = {
            let _s = trace::span(tracer, "update.insert");
            TreeUpdater::new(&mut self.store)
                .insert(InsertPos::After(anchor), NewNode::Text(PAYLOAD.to_owned()))
                .map_err(|e| format!("insert: {e}"))?
        };
        {
            let _s = trace::span(tracer, "wal.commit");
            TreeUpdater::new(&mut self.store).commit();
        }
        self.live = Some(id);
        Ok(())
    }

    /// A seeded core node that has a parent, on a page of the document as
    /// imported. The cluster is released before the caller updates.
    fn anchor(&mut self) -> Result<NodeId, String> {
        let pages = self.anchors.len().max(1);
        for _ in 0..64 {
            let page = self.anchors.start + self.rng.below(pages) as PageId;
            let slots: Vec<u16> = {
                let cluster = self.store.fix(page);
                cluster
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| n.kind.is_core() && n.parent.is_some())
                    .map(|(i, _)| i as u16)
                    .collect()
            };
            if !slots.is_empty() {
                let slot = slots[self.rng.below(slots.len())];
                return Ok(NodeId::new(page, slot));
            }
        }
        Err("no anchor node found".to_owned())
    }
}
