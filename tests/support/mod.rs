//! Fixtures shared by the integration suites: one small XMark document with
//! its instant-profile options and work corpus, the reference evaluator's
//! answers that every execution path is held to, and worker seeds for the
//! batch executors.

// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use pathix::core::{Method, PlanConfig, WorkerSeed};
use pathix::storage::{DiskProfile, SharedCacheDevice, SharedPageCache};
use pathix::tree::node::order_key;
use pathix::tree::NodeId;
use pathix::xml::Document;
use pathix::xpath::{eval_path, parse_path, LocationPath};
use pathix::{Database, DatabaseOptions};
use std::sync::{Arc, OnceLock};

/// The paths of the work corpus.
pub const PATHS: [&str; 3] = ["/site/people//email", "/site/regions//item", "//keyword"];

/// One small XMark document (SF 0.008), generated once per test binary.
pub fn doc() -> &'static Document {
    static DOC: OnceLock<Document> = OnceLock::new();
    DOC.get_or_init(|| pathix::xmlgen::generate(&pathix::xmlgen::GenConfig::at_scale(0.008)))
}

/// 1 KiB pages, an 8-page buffer and the default placement, on the
/// instant disk profile.
pub fn mem_opts() -> DatabaseOptions {
    DatabaseOptions {
        page_size: 1024,
        buffer_pages: 8,
        profile: DiskProfile::instant(),
        ..Default::default()
    }
}

/// [`PATHS`] under each method, Simple first.
pub fn corpus() -> Vec<(&'static str, Method)> {
    let mut work = Vec::new();
    for m in [Method::Simple, Method::xschedule(), Method::XScan] {
        for p in PATHS {
            work.push((p, m));
        }
    }
    work
}

/// `method` with its results sorted into document order.
pub fn sorted(method: Method) -> PlanConfig {
    PlanConfig {
        sort: true,
        ..PlanConfig::new(method)
    }
}

/// The document-order keys of a run's result nodes.
pub fn keys(nodes: &[(NodeId, u64)]) -> Vec<u64> {
    nodes.iter().map(|&(_, order)| order).collect()
}

/// The reference evaluator's answer to `path` from `doc`'s root element:
/// document-order keys, in document order.
pub fn reference(doc: &Document, path: &LocationPath) -> Vec<u64> {
    let ranks = doc.preorder_ranks();
    eval_path(doc, doc.root(), path)
        .iter()
        .map(|n| order_key(ranks[n.0 as usize]))
        .collect()
}

/// The reference answers to [`corpus`] on [`doc`], plus the page range of
/// its import under [`mem_opts`] (placement is deterministic, so every
/// import has it), from which fault schedules draw their pages.
pub struct Oracle {
    /// Per corpus item, the reference keys of its rooted path.
    pub keys: Vec<Vec<u64>>,
    /// First page of the document.
    pub base_page: u32,
    /// Number of pages the document occupies.
    pub page_count: u32,
}

/// The [`Oracle`], computed once per test binary.
pub fn oracle() -> &'static Oracle {
    static ORACLE: OnceLock<Oracle> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let keys: Vec<_> = corpus()
            .iter()
            .map(|(p, _)| reference(doc(), &parse_path(p).expect("corpus path").rooted()))
            .collect();
        assert!(keys.iter().all(|k| !k.is_empty()), "every path matches");
        let db = Database::from_document(doc(), &mem_opts()).expect("clean import");
        Oracle {
            keys,
            base_page: db.store().meta.base_page,
            page_count: db.store().meta.page_count,
        }
    })
}

/// One private device fork per worker, with `db`'s metadata and buffer
/// parameters.
pub fn plain_seeds(db: &Database, workers: usize) -> Vec<WorkerSeed> {
    let store = db.store();
    (0..workers)
        .map(|_| WorkerSeed {
            device: store.buffer.device_mut().try_fork().expect("forkable"),
            meta: store.meta.clone(),
            params: store.buffer.params(),
        })
        .collect()
}

/// [`plain_seeds`] reading through one shared page cache.
pub fn cached_seeds(db: &Database, workers: usize) -> Vec<WorkerSeed> {
    let cache = Arc::new(SharedPageCache::new());
    plain_seeds(db, workers)
        .into_iter()
        .map(|seed| WorkerSeed {
            device: Box::new(SharedCacheDevice::new(seed.device, Arc::clone(&cache))),
            ..seed
        })
        .collect()
}
