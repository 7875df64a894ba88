//! High-level facade: build a clustered store from a document and run
//! queries with any of the paper's three physical methods.

use pathix_core::plan::execute_path_from;
use pathix_core::{
    execute_batch_governed, execute_batch_parallel, execute_interleaved, execute_path,
    execute_paths_shared_scan, execute_query, AdmissionConfig, BatchRun, ConcurrentRun, ExecError,
    ExecReport, GovernorReport, Method, MultiPathRun, Optimizer, PathRun, PlanConfig, PlanEstimate,
    QueryBudget, QueryRun, WorkerSeed,
};
use pathix_storage::{
    BufferParams, Device, DiskProfile, FaultDevice, FaultPlan, MemDevice, QueuePolicy,
    SharedCacheDevice, SharedPageCache, SharedPageCacheStats, SimClock, SimDisk,
};
use pathix_tree::{import_into, ImportConfig, ImportReport, NodeId, Placement, TreeStore};
use pathix_xml::Document;
use pathix_xpath::{parse_path, parse_query, LocationPath, PathParseError};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Which device backs the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Simulated disk with the default 2005-era profile (the benchmark
    /// substrate).
    SimDisk,
    /// Simulated disk that never reorders its command queue (ablations).
    SimDiskFifo,
    /// Zero-latency in-memory device (tests, logic-only runs).
    Mem,
}

/// Database construction options.
#[derive(Debug, Clone, Copy)]
pub struct DatabaseOptions {
    /// Page size in bytes.
    pub page_size: usize,
    /// Physical placement of clusters.
    pub placement: Placement,
    /// Buffer capacity in pages.
    pub buffer_pages: usize,
    /// Backing device.
    pub device: DeviceKind,
    /// Disk cost profile (for the simulated devices).
    pub profile: DiskProfile,
}

impl Default for DatabaseOptions {
    fn default() -> Self {
        Self {
            page_size: 8192,
            // A moderately aged database: DFS runs of 16 clusters stay
            // sequential, chunks are permuted (see DESIGN.md).
            placement: Placement::ChunkShuffled {
                chunk: 16,
                seed: 0xA6E,
            },
            buffer_pages: 1000, // the paper's Natix configuration
            device: DeviceKind::SimDisk,
            profile: DiskProfile::default(),
        }
    }
}

/// Facade errors.
#[derive(Debug)]
pub enum DbError {
    /// Query/path text did not parse.
    Parse(PathParseError),
    /// The document could not be stored (e.g. an oversized record).
    Import(pathix_tree::import::ImportError),
    /// A physical plan broke its output contract during execution.
    Exec(ExecError),
    /// The operation is not available on this database's device (e.g.
    /// parallel execution over a device that cannot be forked).
    Unsupported(&'static str),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::Import(e) => write!(f, "{e}"),
            DbError::Exec(e) => write!(f, "{e}"),
            DbError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<PathParseError> for DbError {
    fn from(e: PathParseError) -> Self {
        DbError::Parse(e)
    }
}

impl From<pathix_tree::import::ImportError> for DbError {
    fn from(e: pathix_tree::import::ImportError) -> Self {
        DbError::Import(e)
    }
}

impl From<ExecError> for DbError {
    fn from(e: ExecError) -> Self {
        DbError::Exec(e)
    }
}

/// Result of a parallel batch run (see [`Database::run_parallel`] and
/// [`Database::run_parallel_governed`]).
#[derive(Debug)]
pub struct ParallelRun {
    /// One result per work item, in batch order. Failures are contained
    /// per item: a query hitting an unrecoverable page read fails alone
    /// with [`ExecError::Io`] while the rest of the batch completes. Shed
    /// items carry [`ExecError::Overloaded`]; deadline-aborted items carry
    /// [`ExecError::DeadlineExceeded`]; canceled items
    /// [`ExecError::Canceled`].
    pub runs: Vec<Result<ConcurrentRun, ExecError>>,
    /// Sum of the successful per-item reports (aggregate simulated work,
    /// not elapsed wall time — workers run concurrently).
    pub report: ExecReport,
    /// Batch-level governor tallies (admitted / shed / degraded / …).
    pub governor: GovernorReport,
    /// Shared page cache counters for the whole batch (zero for a governed
    /// batch, whose workers share no cache).
    pub cache: SharedPageCacheStats,
}

impl ParallelRun {
    fn new(batch: BatchRun, cache: SharedPageCacheStats) -> Self {
        Self {
            runs: batch.runs,
            report: batch.report,
            governor: batch.governor,
            cache,
        }
    }
}

/// Parses `(path, method)` work items, rooting each path.
fn parse_work(work: &[(&str, Method)]) -> Result<Vec<(LocationPath, Method)>, DbError> {
    work.iter()
        .map(|(p, m)| Ok((parse_path(p)?.rooted(), *m)))
        .collect()
}

/// A stored document plus everything needed to query it.
pub struct Database {
    store: TreeStore,
    import_report: ImportReport,
}

impl Database {
    fn fresh_device(opts: &DatabaseOptions) -> Box<dyn Device + Send> {
        match opts.device {
            DeviceKind::SimDisk => Box::new(SimDisk::with_profile(opts.page_size, opts.profile)),
            DeviceKind::SimDiskFifo => {
                let mut d = SimDisk::with_profile(opts.page_size, opts.profile);
                d.set_policy(QueuePolicy::Fifo);
                Box::new(d)
            }
            DeviceKind::Mem => Box::new(MemDevice::new(opts.page_size)),
        }
    }

    /// Imports `doc` into a fresh device.
    pub fn from_document(doc: &Document, opts: &DatabaseOptions) -> Result<Self, DbError> {
        Self::import(doc, opts, None)
    }

    /// Imports `doc` into a fresh device wrapped in a fault-injection
    /// layer ([`pathix_storage::FaultDevice`]) driven by `plan`. The
    /// import itself writes to the clean inner device; the plan afflicts
    /// query-time reads only. Forks taken for [`Self::run_parallel`]
    /// share the plan (one global occurrence count), so a fault schedule
    /// means the same thing in sequential and parallel runs.
    pub fn from_document_with_faults(
        doc: &Document,
        opts: &DatabaseOptions,
        plan: FaultPlan,
    ) -> Result<Self, DbError> {
        Self::import(doc, opts, Some(plan))
    }

    fn import(
        doc: &Document,
        opts: &DatabaseOptions,
        faults: Option<FaultPlan>,
    ) -> Result<Self, DbError> {
        let mut device = Self::fresh_device(opts);
        let cfg = ImportConfig {
            page_size: opts.page_size,
            placement: opts.placement,
        };
        let (meta, import_report) = import_into(device.as_mut(), doc, &cfg)?;
        let device: Box<dyn Device> = match faults {
            Some(plan) => Box::new(FaultDevice::new(device, plan)),
            None => device,
        };
        let params = BufferParams {
            capacity: opts.buffer_pages,
            ..Default::default()
        };
        Ok(Self {
            store: TreeStore::open(device, meta, params, Rc::new(SimClock::new())),
            import_report,
        })
    }

    /// Parses XML text and imports it.
    pub fn from_xml(xml: &str, opts: &DatabaseOptions) -> Result<Self, DbError> {
        let doc = pathix_xml::parse(xml).map_err(|e| {
            DbError::Parse(PathParseError {
                offset: e.offset,
                message: format!("XML: {}", e.message),
            })
        })?;
        Self::from_document(&doc, opts)
    }

    /// Generates an XMark-shaped document at `scale` and imports it.
    pub fn from_xmark(scale: f64, opts: &DatabaseOptions) -> Result<Self, DbError> {
        let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(scale));
        Self::from_document(&doc, opts)
    }

    /// The underlying store (direct access for advanced use).
    pub fn store(&self) -> &TreeStore {
        &self.store
    }

    /// Statistics of the initial import.
    pub fn import_report(&self) -> ImportReport {
        self.import_report
    }

    /// Number of pages the document occupies.
    pub fn pages(&self) -> u32 {
        self.store.meta.page_count
    }

    /// Runs a query string (`/a/b`, `count(...)`, sums of counts) with the
    /// given method and default plan options.
    pub fn run(&self, query: &str, method: Method) -> Result<QueryRun, DbError> {
        self.run_with(query, &PlanConfig::new(method))
    }

    /// Runs a query string with full plan configuration.
    pub fn run_with(&self, query: &str, cfg: &PlanConfig) -> Result<QueryRun, DbError> {
        let q = parse_query(query)?.rooted();
        Ok(execute_query(&self.store, &q, cfg)?)
    }

    /// Runs a bare location path, returning the result nodes.
    pub fn run_path(&self, path: &str, cfg: &PlanConfig) -> Result<PathRun, DbError> {
        let p = parse_path(path)?.rooted();
        Ok(execute_path(&self.store, &p, cfg)?)
    }

    /// Runs a location path from explicit context nodes.
    pub fn run_path_from(
        &self,
        path: &str,
        contexts: Vec<NodeId>,
        cfg: &PlanConfig,
    ) -> Result<PathRun, DbError> {
        let p = parse_path(path)?;
        Ok(execute_path_from(&self.store, &p, contexts, cfg)?)
    }

    /// Evaluates several location paths with **one** shared sequential scan
    /// (the paper's multi-path extension). Paths are rooted like `run`.
    pub fn run_multi(&self, paths: &[&str], cfg: &PlanConfig) -> Result<MultiPathRun, DbError> {
        let parsed: Vec<LocationPath> = paths
            .iter()
            .map(|p| Ok(parse_path(p)?.rooted()))
            .collect::<Result<_, DbError>>()?;
        Ok(execute_paths_shared_scan(&self.store, &parsed, cfg)?)
    }

    /// Runs several `(path, method)` plans concurrently, interleaved on the
    /// shared device.
    pub fn run_concurrent(
        &self,
        work: &[(&str, Method)],
        cfg: &PlanConfig,
    ) -> Result<(Vec<ConcurrentRun>, ExecReport), DbError> {
        Ok(execute_interleaved(&self.store, &parse_work(work)?, cfg)?)
    }

    /// One private fork of this database's device per worker (at least
    /// one), stacked over `cache` if one is given.
    fn worker_seeds(
        &self,
        workers: usize,
        cache: Option<&Arc<SharedPageCache>>,
    ) -> Result<Vec<WorkerSeed>, DbError> {
        (0..workers.max(1))
            .map(|_| {
                let fork = self
                    .store
                    .buffer
                    .device_mut()
                    .try_fork()
                    .ok_or(DbError::Unsupported("this device cannot be forked"))?;
                Ok(WorkerSeed {
                    device: match cache {
                        Some(cache) => Box::new(SharedCacheDevice::new(fork, Arc::clone(cache))),
                        None => fork,
                    },
                    meta: self.store.meta.clone(),
                    params: self.store.buffer.params(),
                })
            })
            .collect()
    }

    /// Runs several `(path, method)` plans in parallel on `workers` OS
    /// threads over a shared page cache (see `pathix_core::server`). Each
    /// worker owns a private fork of this database's device, so the main
    /// store is untouched: its clock, buffer, and statistics do not move.
    ///
    /// Results are in batch order and bit-identical to running each plan
    /// sequentially. Fails with [`DbError::Unsupported`] if the device
    /// cannot be forked (e.g. a file-backed device).
    pub fn run_parallel(
        &self,
        work: &[(&str, Method)],
        cfg: &PlanConfig,
        workers: usize,
    ) -> Result<ParallelRun, DbError> {
        let work = parse_work(work)?;
        let cache = Arc::new(SharedPageCache::new());
        let batch = execute_batch_parallel(self.worker_seeds(workers, Some(&cache))?, &work, cfg);
        Ok(ParallelRun::new(batch, cache.stats()))
    }

    /// Runs a governed parallel batch: each work item carries a
    /// [`QueryBudget`] (deadline / memory / cancel), and the batch as a
    /// whole is subject to admission control (`admission`). Budgets are
    /// matched to work items by batch index; missing entries mean
    /// "unlimited".
    ///
    /// Unlike [`Self::run_parallel`], workers do **not** share a page
    /// cache: every item starts on a cold private buffer so that its
    /// simulated timeline — and therefore its deadline outcome — is a
    /// pure function of the item itself, not of scheduling luck.
    pub fn run_parallel_governed(
        &self,
        work: &[(&str, Method)],
        cfg: &PlanConfig,
        workers: usize,
        budgets: &[QueryBudget],
        admission: &AdmissionConfig,
    ) -> Result<ParallelRun, DbError> {
        let work = parse_work(work)?;
        let seeds = self.worker_seeds(workers, None)?;
        let batch = execute_batch_governed(seeds, &work, cfg, budgets, admission);
        Ok(ParallelRun::new(batch, SharedPageCacheStats::default()))
    }

    fn optimizer(&self) -> Optimizer<'_> {
        let mut opt = Optimizer::new(&self.store.meta, pathix_storage::DiskProfile::default());
        // Two border nodes per inter-cluster edge, spread over the pages.
        opt.borders_per_cluster = (2.0 * self.import_report.border_edges as f64
            / self.store.meta.page_count.max(1) as f64)
            .max(0.5);
        opt
    }

    /// Cost-model estimate for a path (the outlook's optimizer): per-plan
    /// cost predictions and the recommended I/O operator.
    pub fn estimate(&self, path: &str) -> Result<PlanEstimate, DbError> {
        let p = parse_path(path)?.rooted();
        Ok(self.optimizer().estimate(&p))
    }

    /// Runs a query with the method the cost model recommends for its
    /// (first) path.
    pub fn run_auto(&self, query: &str) -> Result<(Method, QueryRun), DbError> {
        let q = parse_query(query)?.rooted();
        let opt = self.optimizer();
        let method = q
            .paths()
            .first()
            .map(|p| opt.choose(p))
            .unwrap_or(Method::xschedule());
        let run = execute_query(&self.store, &q, &PlanConfig::new(method))?;
        Ok((method, run))
    }

    /// Mutating handle for in-place updates (inserts, deletes, text
    /// updates). Drop all `Arc<Cluster>` handles before updating.
    pub fn updater(&mut self) -> pathix_tree::TreeUpdater<'_> {
        pathix_tree::TreeUpdater::new(&mut self.store)
    }

    /// Attaches a write-ahead log: subsequent updates log page after-images
    /// before writing; `TreeUpdater::commit()` flushes it.
    pub fn store_mut_attach_wal(
        &mut self,
        wal: std::rc::Rc<std::cell::RefCell<pathix_storage::WriteAheadLog>>,
    ) {
        self.store.attach_wal(wal);
    }

    /// Reconstructs the logical document (structural walk).
    pub fn export(&self) -> pathix_xml::Document {
        pathix_tree::export::export(&self.store)
    }

    /// Reconstructs the logical document with one sequential scan.
    pub fn export_scan(&self) -> pathix_xml::Document {
        pathix_tree::export::export_scan(&self.store)
    }

    /// Clears the buffer pool (cold-start the next query). Device
    /// statistics and the clock are left running.
    pub fn clear_buffers(&self) {
        self.store.buffer.reset();
    }

    /// Resets device statistics and access trace.
    pub fn reset_device_stats(&self) {
        self.store.buffer.device_mut().reset_stats();
    }

    /// Enables device access tracing (see Example 1 reproduction).
    pub fn trace_device(&self, enabled: bool) {
        self.store.buffer.device_mut().set_trace(enabled);
    }

    /// The recorded page access order since the last stats reset.
    pub fn device_trace(&self) -> Vec<u32> {
        self.store.buffer.device_mut().access_trace().to_vec()
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn mem_opts() -> DatabaseOptions {
        DatabaseOptions {
            page_size: 2048,
            device: DeviceKind::Mem,
            buffer_pages: 64,
            ..Default::default()
        }
    }

    #[test]
    fn xmark_counts_agree_across_methods() {
        let db = Database::from_xmark(0.02, &mem_opts()).unwrap();
        let q = "count(/site/regions//item)";
        let a = db.run(q, Method::Simple).unwrap().value;
        let b = db.run(q, Method::xschedule()).unwrap().value;
        let c = db.run(q, Method::XScan).unwrap().value;
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(a > 0);
    }

    #[test]
    fn from_xml_roundtrip_query() {
        let db = Database::from_xml("<a><b/><b/><c><b/></c></a>", &mem_opts()).unwrap();
        let run = db.run("count(//b)", Method::XScan).unwrap();
        assert_eq!(run.value, 3);
    }

    #[test]
    fn parse_error_surfaces() {
        let db = Database::from_xml("<a/>", &mem_opts()).unwrap();
        assert!(matches!(
            db.run("junk", Method::Simple),
            Err(DbError::Parse(_))
        ));
    }

    #[test]
    fn transient_faults_heal_invisibly() {
        use pathix_storage::{FaultKind, FaultRule};
        let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.02));
        let clean = Database::from_document(&doc, &mem_opts()).unwrap();
        let want = clean.run("count(//email)", Method::Simple).unwrap().value;
        let plan = FaultPlan::new(
            0xFA117,
            vec![FaultRule::new(None, FaultKind::TransientRead).times(3)],
        );
        let db = Database::from_document_with_faults(&doc, &mem_opts(), plan).unwrap();
        let run = db.run("count(//email)", Method::Simple).unwrap();
        assert_eq!(run.value, want, "retried reads must not change results");
        assert!(run.report.device.retries >= 3, "retries are counted");
    }

    #[test]
    fn permanent_fault_surfaces_as_io_error() {
        use pathix_storage::{FaultKind, FaultRule};
        let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.02));
        let plan = FaultPlan::new(
            1,
            vec![FaultRule::new(None, FaultKind::PermanentRead).times(u32::MAX)],
        );
        let db = Database::from_document_with_faults(&doc, &mem_opts(), plan).unwrap();
        match db.run("count(//email)", Method::xschedule()) {
            Err(DbError::Exec(ExecError::Io { attempts, .. })) => {
                assert!(attempts >= 1);
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
        // The engine stays usable: a clean plan resets the error channel.
        assert!(db.store().take_io_error().is_none(), "error was consumed");
    }

    #[test]
    fn corrupt_page_detected_by_checksum() {
        use pathix_storage::{FaultKind, FaultRule};
        let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.02));
        let plan = FaultPlan::new(
            7,
            vec![FaultRule::new(None, FaultKind::CorruptRead).times(u32::MAX)],
        );
        let db = Database::from_document_with_faults(&doc, &mem_opts(), plan).unwrap();
        match db.run("count(//email)", Method::Simple) {
            Err(DbError::Exec(ExecError::Io { .. })) => {}
            other => panic!("torn pages must not decode, got {other:?}"),
        }
    }

    #[test]
    fn shared_scan_aborts_cleanly_on_permanent_fault() {
        use pathix_storage::{FaultKind, FaultRule};
        let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.02));
        let plan = FaultPlan::new(
            3,
            vec![FaultRule::new(None, FaultKind::PermanentRead)
                .after(4)
                .times(u32::MAX)],
        );
        let db = Database::from_document_with_faults(&doc, &mem_opts(), plan).unwrap();
        let cfg = PlanConfig::new(Method::XScan);
        match db.run_multi(&["/site//email", "//keyword"], &cfg) {
            Err(DbError::Exec(ExecError::Io { attempts, .. })) => assert!(attempts >= 1),
            other => panic!("expected an I/O abort, got {other:?}"),
        }
        assert!(db.store().take_io_error().is_none(), "error was consumed");
    }

    #[test]
    fn sim_disk_accumulates_time() {
        let opts = DatabaseOptions {
            page_size: 2048,
            buffer_pages: 8,
            ..Default::default()
        };
        let db = Database::from_xmark(0.02, &opts).unwrap();
        let run = db.run("count(//email)", Method::Simple).unwrap();
        assert!(run.report.time.total_ns > 0);
        assert!(run.report.time.io_wait_ns > 0);
    }
}
