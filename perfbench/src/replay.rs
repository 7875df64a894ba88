//! Per-call timings replayed on a workload's own pages, through public
//! functions only: `verify_page`, `decode_cluster`, `TreeStore::fix` hit
//! and miss, a `StepCursor` per axis, a `SharedPageCache` hit, `SimDisk`
//! submit/poll at a given queue depth, and building the batch executor's
//! worker seeds. Each timing repeats its calls until a minimum wall time
//! has passed and reports the mean per call.

use crate::workload::{Bench, Rng, WORKERS};
use pathix::storage::{
    verify_page, IoError, IoErrorKind, PageId, SharedCacheDevice, SharedPageCache, SimClock,
};
use pathix::tree::node::decode_cluster;
use pathix::tree::{Entry, NavCharge, NavCounters, NavParams, ResolvedTest, StepCursor, StepItem};
use pathix::xpath::Axis;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum wall time of each timing.
const MIN_TIME: Duration = Duration::from_millis(40);
/// Clusters sampled per navigation timing.
const NAV_CLUSTERS: usize = 64;

/// The axes timed per node yielded, with their metric names.
pub const NAV_AXES: [(Axis, &str); 5] = [
    (Axis::Child, "nav.child_ns"),
    (Axis::Descendant, "nav.descendant_ns"),
    (Axis::Ancestor, "nav.ancestor_ns"),
    (Axis::Parent, "nav.parent_ns"),
    (Axis::FollowingSibling, "nav.following_sibling_ns"),
];

/// Per-call wall times, ns unless named otherwise.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// `verify_page` per page.
    pub verify_ns: f64,
    /// `decode_cluster` per page.
    pub decode_ns: f64,
    /// `TreeStore::fix` of a resident page.
    pub fix_hit_ns: f64,
    /// `TreeStore::fix` of a page not in the buffer.
    pub fix_miss_ns: f64,
    /// `StepCursor` per node yielded, per axis of [`NAV_AXES`].
    pub nav_ns: Vec<f64>,
    /// `SharedPageCache::get_or_load` of a cached page.
    pub cache_hit_ns: f64,
    /// One `SimDisk` poll plus one submit, at the replayed queue depth.
    pub pick_ns: f64,
    /// Building the batch executor's worker seeds, ms.
    pub seed_ms: f64,
}

/// Mean wall ns per call: repeats `round` (which returns the calls it
/// made) until [`MIN_TIME`] has passed.
fn per_call_ns(mut round: impl FnMut() -> u64) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t.elapsed() < MIN_TIME {
        calls += round();
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Replays every per-call timing on `bench`'s pages. `queue_depth` is the
/// mean device queue depth the traced run observed.
pub fn replay(bench: &Bench, queue_depth: f64) -> Replay {
    let range = bench.page_range();
    let clock = SimClock::new();
    let mut disk = bench.fork();
    let pages: Vec<(PageId, Arc<[u8]>)> = range
        .clone()
        .map(|p| {
            (
                p,
                disk.read_sync(p, &clock).expect("simulated reads succeed"),
            )
        })
        .collect();
    let n = pages.len() as u64;

    let verify_ns = per_call_ns(|| {
        for (_, bytes) in &pages {
            black_box(verify_page(black_box(bytes)));
        }
        n
    });
    let decode_ns = per_call_ns(|| {
        for (p, bytes) in &pages {
            black_box(decode_cluster(*p, black_box(bytes), &clock));
        }
        n
    });

    let store = bench.store(pages.len() + 16);
    for p in range.clone() {
        drop(store.fix(p));
    }
    let fix_hit_ns = per_call_ns(|| {
        for p in range.clone() {
            black_box(store.fix(black_box(p)));
        }
        n
    });
    let fix_miss_ns = per_call_ns(|| {
        store.buffer.reset();
        for p in range.clone() {
            black_box(store.fix(black_box(p)));
        }
        n
    });

    let stride = (pages.len() / NAV_CLUSTERS).max(1);
    let clusters: Vec<_> = range
        .clone()
        .step_by(stride)
        .map(|p| store.fix(p))
        .collect();
    let counters = NavCounters::default();
    let charge = NavCharge {
        clock: &clock,
        params: NavParams::default(),
        counters: &counters,
    };
    let nav_ns = NAV_AXES
        .iter()
        .map(|&(axis, _)| {
            per_call_ns(|| {
                let mut yielded = 0u64;
                for cluster in &clusters {
                    for (slot, node) in cluster.nodes.iter().enumerate() {
                        if !node.kind.is_core() {
                            continue;
                        }
                        let mut cursor = StepCursor::new(
                            Arc::clone(cluster),
                            Entry::Fresh(slot as u16),
                            axis,
                            ResolvedTest::AnyNode,
                        );
                        while let Some(item) = cursor.next(&charge) {
                            if matches!(item, StepItem::Match { .. }) {
                                yielded += 1;
                            }
                            black_box(item);
                        }
                    }
                }
                yielded.max(1)
            })
        })
        .collect();
    drop(clusters);

    let cache = SharedPageCache::new();
    for (p, bytes) in &pages {
        cache.publish(*p, Arc::clone(bytes));
    }
    let cache_hit_ns = per_call_ns(|| {
        for (p, _) in &pages {
            let page = *p;
            let hit = cache.get_or_load(black_box(page), || {
                Err(IoError::new(page, IoErrorKind::Permanent))
            });
            black_box(hit.ok());
        }
        n
    });

    let pick_depth = (queue_depth.round() as usize).max(1);
    let mut rng = Rng::new(u64::from(range.start) ^ 0x5EED);
    let width = range.len().max(1);
    let mut random_page = move || range.start + rng.below(width) as PageId;
    let mut disk = bench.fork();
    for _ in 0..pick_depth {
        disk.submit(random_page(), &clock);
    }
    let pick_ns = per_call_ns(|| {
        for _ in 0..256 {
            black_box(disk.poll(&clock, true));
            disk.submit(random_page(), &clock);
        }
        256
    });

    let seed_ms = per_call_ns(|| {
        let cache = Arc::new(SharedPageCache::new());
        let seeds: Vec<_> = (0..WORKERS)
            .map(|_| {
                bench.worker_seed(Box::new(SharedCacheDevice::new(
                    bench.fork(),
                    Arc::clone(&cache),
                )))
            })
            .collect();
        black_box(seeds);
        1
    }) / 1e6;

    Replay {
        verify_ns,
        decode_ns,
        fix_hit_ns,
        fix_miss_ns,
        nav_ns,
        cache_hit_ns,
        pick_ns,
        seed_ms,
    }
}
