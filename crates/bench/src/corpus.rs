//! The corpus the substrate harnesses share: the mixed Q6'/Q7/Q15 batch,
//! its sequential oracle, and per-worker device seeds.

use crate::bench_options;
use pathix::xpath::{parse_path, LocationPath};
use pathix::{Database, DatabaseOptions, Method, PlanConfig, QueryRun};
use pathix_core::WorkerSeed;
use pathix_storage::{
    Completion, Device, DiskProfile, IoError, PageId, SharedCacheDevice, SharedPageCache, SimClock,
};
use std::sync::Arc;

/// The mixed batch: the paper's three query shapes as location paths (the
/// batch executor runs paths, not aggregates), each under every method.
/// The Q6'/Q7-style paths are scoped to the document's four top-level
/// subtrees — as a multi-client batch would be — so concurrent workers
/// fault largely disjoint page sets instead of colliding in lockstep on
/// the same single-flight loads.
pub fn batch_paths() -> Vec<&'static str> {
    vec![
        // Q6' shape, regions subtree.
        "/site/regions//item",
        // Q7 shapes (descendant prose counts), one subtree each.
        "/site/people//email",
        "/site/open_auctions//description",
        "/site/closed_auctions//annotation",
        // Q15 shape: the deep, highly selective chain.
        "/site/closed_auctions/closed_auction/annotation/description/parlist\
         /listitem/parlist/listitem/text/emph/keyword",
    ]
}

/// `(path, method)` work items: every batch path under every method, so the
/// pool mixes scan-bound, schedule-bound, and random-I/O-bound work.
pub fn batch_work() -> Vec<(&'static str, Method)> {
    let mut work = Vec::new();
    for m in [Method::Simple, Method::xschedule(), Method::XScan] {
        for p in batch_paths() {
            work.push((p, m));
        }
    }
    work
}

/// `batch_work()` as the batch executors take it: rooted location paths.
pub fn parsed_work() -> Vec<(LocationPath, Method)> {
    batch_work()
        .into_iter()
        .map(|(p, m)| (parse_path(p).expect("batch path parses").rooted(), m))
        .collect()
}

/// The bench database options; `fast` swaps in the instant disk profile,
/// so a smoke run's wall time is pure engine overhead.
pub fn options(fast: bool) -> DatabaseOptions {
    let mut opts = bench_options();
    if fast {
        opts.profile = DiskProfile::instant();
    }
    opts
}

/// The plan configuration every batch item runs under: results sorted into
/// document order, so runs compare node for node.
pub fn sorted_cfg() -> PlanConfig {
    let mut cfg = PlanConfig::new(Method::Simple);
    cfg.sort = true;
    cfg
}

/// The oracle: every `batch_work()` item run alone on `db`, each from a
/// cold buffer.
pub fn oracle(db: &Database) -> Vec<QueryRun> {
    batch_work()
        .into_iter()
        .map(|(p, method)| {
            db.clear_buffers();
            let cfg = PlanConfig {
                method,
                ..sorted_cfg()
            };
            db.run(p, cfg).expect("oracle run")
        })
        .collect()
}

/// One seed per worker, each on its own fork of `db`'s device, paced at
/// `pace_ns` real nanoseconds per physical read (0: no sleep) and stacked
/// under the shared `cache` if one is given.
pub fn worker_seeds(
    db: &Database,
    workers: usize,
    pace_ns: u64,
    cache: Option<&Arc<SharedPageCache>>,
) -> Vec<WorkerSeed> {
    (0..workers)
        .map(|_| {
            let mut device = db
                .store()
                .buffer
                .device_mut()
                .try_fork()
                .expect("the simulated disk forks");
            if pace_ns > 0 {
                device = Box::new(PacedDevice::new(device, pace_ns));
            }
            if let Some(cache) = cache {
                device = Box::new(SharedCacheDevice::new(device, Arc::clone(cache)));
            }
            WorkerSeed {
                device,
                meta: db.store().meta.clone(),
                params: db.store().buffer.params(),
            }
        })
        .collect()
}

/// Realizes device latency as real wall-clock sleep: a fixed `read_ns` per
/// physical read served by the inner device. Simulated outcomes (clock,
/// stats, bytes) are completely untouched — the wrapper only burns real
/// time, so R2 determinism of everything simulated is preserved by
/// construction.
pub struct PacedDevice {
    inner: Box<dyn Device + Send>,
    read_ns: u64,
}

impl PacedDevice {
    /// Wraps `inner`, sleeping `read_ns` real time per physical read.
    pub fn new(inner: Box<dyn Device + Send>, read_ns: u64) -> Self {
        Self { inner, read_ns }
    }

    fn pace(&self) {
        std::thread::sleep(std::time::Duration::from_nanos(self.read_ns));
    }
}

impl Device for PacedDevice {
    fn inner(&self) -> Option<&dyn Device> {
        Some(&*self.inner)
    }

    fn inner_mut(&mut self) -> Option<&mut dyn Device> {
        Some(&mut *self.inner)
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        let bytes = self.inner.read_sync(page, clock);
        if bytes.is_ok() {
            self.pace();
        }
        bytes
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        let c = self.inner.poll(clock, block);
        if c.is_some() {
            self.pace();
        }
        c
    }
}
