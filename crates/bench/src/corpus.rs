//! The corpus the substrate harnesses share: the mixed Q6'/Q7/Q15 batch
//! and its sequential oracle.

use crate::bench_options;
use pathix::storage::DiskProfile;
use pathix::{Database, DatabaseOptions, Method, PlanConfig, QueryRun};

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

/// The bench database options; `fast` swaps in the instant disk profile.
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
