//! High-level facade: build a clustered store from a document and run
//! queries with any of the paper's three physical methods.

use pathix_core::{
    execute_batch_governed, execute_batch_parallel, execute_interleaved, execute_paths_shared_scan,
    execute_query, AdmissionConfig, BatchRun, ExecError, Method, Optimizer, PlanConfig,
    PlanEstimate, QueryBudget, QueryRun, WorkerSeed,
};
use pathix_storage::{
    BufferParams, Device, DiskProfile, FaultDevice, FaultPlan, MemDevice, QueuePolicy,
    SharedCacheDevice, SharedPageCache, SimClock, SimDisk,
};
use pathix_tree::{import_into, ImportConfig, ImportReport, Placement, TreeStore};
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

/// How [`Database::run_batch`] runs a batch of `(path, method)` items.
/// Every mode returns the same [`BatchRun`] and per-item results equal to
/// running each item alone with [`Database::run`].
#[derive(Debug, Clone, Copy)]
pub enum Batch<'a> {
    /// The plans take turns on this database's device, so their requests
    /// meet in one device queue (the paper's §7 outlook). `report` is the
    /// store's delta over the batch; an unrecovered read fails the batch.
    Interleaved,
    /// One sequential scan feeds every path ("a single I/O-performing
    /// operator", §7). Every item must be an XScan item, and `mem_limit` is
    /// ignored. `report` is the store's delta over the batch, with the
    /// paths' algebra counters; an unrecovered read fails the batch.
    SharedScan,
    /// A pool of `workers` OS threads (at least one), each over a private
    /// fork of this database's device, all reading through one shared
    /// page cache whose counters land in [`BatchRun::cache`]. Items fail
    /// alone; `report` sums the successful ones.
    Parallel {
        /// Worker threads.
        workers: usize,
    },
    /// The worker pool under governance: no shared cache, every item starts
    /// cold so its simulated timeline (and so its deadline outcome) is a
    /// pure function of the item, per-item `budgets` (matched by index;
    /// missing entries are unlimited) and `admission` control.
    Governed {
        /// Worker threads.
        workers: usize,
        /// Per-item budgets, by batch index.
        budgets: &'a [QueryBudget],
        /// Admission control: items past its prefix are shed.
        admission: AdmissionConfig,
    },
}

/// A stored document plus everything needed to query it.
pub struct Database {
    store: TreeStore,
    import_report: ImportReport,
    /// The disk profile the device was built with; the optimizer prices
    /// I/O with it.
    profile: DiskProfile,
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
    /// query-time reads only. Forks taken for a worker-pool [`Self::run_batch`]
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
            profile: opts.profile,
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

    /// Runs a query — a location path (`/a/b`), `count(path)`, or a sum of
    /// counts — from the document root. `cfg` is a full [`PlanConfig`] or
    /// just a [`Method`] with default plan options. For a path query,
    /// `nodes` holds the result nodes and `value` their number.
    pub fn run(&self, query: &str, cfg: impl Into<PlanConfig>) -> Result<QueryRun, DbError> {
        let q = parse_query(query)?.rooted();
        Ok(execute_query(&self.store, &q, &cfg.into())?)
    }

    /// One private fork of this database's device per worker (at least
    /// one), stacked over `cache` if one is given.
    fn worker_seeds(
        &self,
        workers: usize,
        cache: Option<&Arc<SharedPageCache>>,
    ) -> Result<Vec<WorkerSeed>, DbError> {
        let store = &self.store;
        (0..workers.max(1))
            .map(|_| {
                let fork = store.buffer.device_mut().try_fork();
                let fork = fork.ok_or(DbError::Unsupported("this device cannot be forked"))?;
                Ok(WorkerSeed {
                    device: match cache {
                        Some(cache) => Box::new(SharedCacheDevice::new(fork, Arc::clone(cache))),
                        None => fork,
                    },
                    meta: store.meta.clone(),
                    params: store.buffer.params(),
                })
            })
            .collect()
    }

    /// Runs a batch of `(path, method)` items from the document root, in
    /// the given [`Batch`] mode. Paths are rooted like [`Self::run`], and
    /// results come back in batch order. The worker-pool modes leave this
    /// database's clock, buffer and statistics untouched.
    ///
    /// Fails with [`DbError::Unsupported`] for a pool mode over a device
    /// that cannot be forked and for a shared scan with a non-XScan item,
    /// and with [`DbError::Exec`] when a one-device batch hits an
    /// unrecovered read.
    pub fn run_batch(
        &self,
        work: &[(&str, Method)],
        cfg: &PlanConfig,
        batch: Batch<'_>,
    ) -> Result<BatchRun, DbError> {
        let work: Vec<(LocationPath, Method)> = work
            .iter()
            .map(|(p, m)| Ok((parse_path(p)?.rooted(), *m)))
            .collect::<Result<_, DbError>>()?;
        Ok(match batch {
            Batch::Interleaved => execute_interleaved(&self.store, &work, cfg)?,
            Batch::SharedScan => {
                if work.iter().any(|(_, m)| *m != Method::XScan) {
                    return Err(DbError::Unsupported("a shared scan of a non-XScan item"));
                }
                let paths: Vec<LocationPath> = work.into_iter().map(|(p, _)| p).collect();
                execute_paths_shared_scan(&self.store, &paths, cfg)?
            }
            Batch::Parallel { workers } => {
                let cache = Arc::new(SharedPageCache::new());
                let seeds = self.worker_seeds(workers, Some(&cache))?;
                let mut batch = execute_batch_parallel(seeds, &work, cfg);
                batch.cache = cache.stats();
                batch
            }
            Batch::Governed {
                workers,
                budgets,
                admission,
            } => {
                let seeds = self.worker_seeds(workers, None)?;
                execute_batch_governed(seeds, &work, cfg, budgets, &admission)
            }
        })
    }

    fn optimizer(&self) -> Optimizer<'_> {
        let mut opt = Optimizer::new(&self.store.meta, self.profile);
        // Two border nodes per inter-cluster edge, spread over the pages.
        opt.borders_per_cluster = (2.0 * self.import_report.border_edges as f64
            / self.store.meta.page_count.max(1) as f64)
            .max(0.5);
        opt
    }

    /// Cost-model estimate for a query's first location path (the
    /// outlook's optimizer): per-plan cost predictions and the recommended
    /// I/O operator.
    pub fn estimate(&self, query: &str) -> Result<PlanEstimate, DbError> {
        let q = parse_query(query)?.rooted();
        match q.paths().first() {
            Some(p) => Ok(self.optimizer().estimate(p)),
            None => Err(DbError::Unsupported("a query without a location path")),
        }
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
    use pathix_storage::{FaultKind, FaultRule};

    fn mem_opts() -> DatabaseOptions {
        DatabaseOptions {
            page_size: 2048,
            device: DeviceKind::Mem,
            buffer_pages: 64,
            ..Default::default()
        }
    }

    /// The SF 0.02 XMark database of `from_xmark`, read through `rule`.
    fn faulty_db(seed: u64, rule: FaultRule) -> Database {
        let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.02));
        let plan = FaultPlan::new(seed, vec![rule]);
        Database::from_document_with_faults(&doc, &mem_opts(), plan).unwrap()
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
        let clean = Database::from_xmark(0.02, &mem_opts()).unwrap();
        let want = clean.run("count(//email)", Method::Simple).unwrap().value;
        let db = faulty_db(
            0xFA117,
            FaultRule::new(None, FaultKind::TransientRead).times(3),
        );
        let run = db.run("count(//email)", Method::Simple).unwrap();
        assert_eq!(run.value, want, "retried reads must not change results");
        assert!(run.report.device.retries >= 3, "retries are counted");
    }

    #[test]
    fn permanent_fault_surfaces_as_io_error() {
        let db = faulty_db(
            1,
            FaultRule::new(None, FaultKind::PermanentRead).times(u32::MAX),
        );
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
        let db = faulty_db(
            7,
            FaultRule::new(None, FaultKind::CorruptRead).times(u32::MAX),
        );
        match db.run("count(//email)", Method::Simple) {
            Err(DbError::Exec(ExecError::Io { .. })) => {}
            other => panic!("torn pages must not decode, got {other:?}"),
        }
    }

    #[test]
    fn shared_scan_aborts_cleanly_on_permanent_fault() {
        let rule = FaultRule::new(None, FaultKind::PermanentRead).after(4);
        let db = faulty_db(3, rule.times(u32::MAX));
        let cfg = PlanConfig::new(Method::XScan);
        let work = [
            ("/site//email", Method::XScan),
            ("//keyword", Method::XScan),
        ];
        match db.run_batch(&work, &cfg, Batch::SharedScan) {
            Err(DbError::Exec(ExecError::Io { attempts, .. })) => assert!(attempts >= 1),
            other => panic!("expected an I/O abort, got {other:?}"),
        }
        assert!(db.store().take_io_error().is_none(), "error was consumed");
    }

    #[test]
    fn shared_scan_rejects_a_non_xscan_item() {
        let db = Database::from_xmark(0.02, &mem_opts()).unwrap();
        let work = [("//email", Method::XScan), ("//keyword", Method::Simple)];
        let cfg = PlanConfig::new(Method::XScan);
        assert!(matches!(
            db.run_batch(&work, &cfg, Batch::SharedScan),
            Err(DbError::Unsupported(_))
        ));
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

    #[test]
    fn optimizer_prices_io_with_the_database_disk() {
        let estimate = |profile| {
            let opts = DatabaseOptions {
                profile,
                ..Default::default()
            };
            let db = Database::from_xmark(0.02, &opts).unwrap();
            db.estimate("/site//description").unwrap()
        };
        let (disk, instant) = (
            estimate(DiskProfile::default()),
            estimate(DiskProfile::instant()),
        );
        assert!(instant.simple_ns < disk.simple_ns);
        assert!(instant.xschedule_ns < disk.xschedule_ns);
        assert!(instant.xscan_ns < disk.xscan_ns);
    }
}
