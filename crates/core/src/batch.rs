//! Batch query execution: the batch result type every batch executor
//! returns, and the worker pool over per-worker stores.
//!
//! The paper's outlook (§7) expects concurrent queries to "strongly benefit
//! from asynchronous I/O". [`crate::plan::execute_interleaved`] realizes
//! that on one thread by interleaving plans over one device queue, with
//! their XScans reading one shared scan. This module adds the orthogonal
//! axis: running *independent* `(path, method)` queries on multiple OS
//! threads at once.
//!
//! The engine's operator hot path is deliberately single-threaded
//! (`Rc`/`RefCell`/`Cell` throughout `ExecCtx`, `BufferManager`, and
//! `SimClock`), and stays that way: **each worker owns a full private
//! engine** — its own `TreeStore`, buffer manager, and simulated clock —
//! opened over a private fork of the storage device
//! ([`pathix_storage::Device::try_fork`]). Workers share *pages*, not
//! state: stacking a [`pathix_storage::SharedCacheDevice`] over each fork
//! makes a page physically read by one worker a refcount-bump hit for all
//! others, with single-flight de-duplication of concurrent misses.
//!
//! Work distribution is dynamic and longest-first: the items are ranked
//! once by the optimizer's estimate of their CPU cost under their own
//! method (largest first, ties in batch order), and workers claim the next
//! unclaimed item of that ranking via an atomic cursor. A worker's real
//! time is engine CPU — simulated I/O wait costs no wall time — so the
//! straggler starts first and the cheap items fill in around it instead of
//! one worker running dry while another finishes it. Results are written
//! into per-item slots, so the output order is the batch order regardless
//! of which worker ran what — combined with result sets depending only on
//! page *contents* (never on timing), a parallel batch returns
//! bit-identical results to sequential one-at-a-time execution.
//!
//! Lint rule R5 confines concurrency primitives (`std::thread`, locks,
//! atomics) to this file and the two storage files that share state across
//! threads (the shared page cache and the fault plan); the operators never
//! see them.

use crate::error::ExecError;
use crate::governor::{GovernorReport, QueryBudget};
use crate::optimizer::Optimizer;
use crate::plan::{run_path, Method, PathRun, PlanConfig};
use crate::report::ExecReport;
use pathix_storage::{lock, BufferParams, Device, DiskProfile, SharedPageCacheStats, SimClock};
use pathix_tree::{TreeMeta, TreeStore};
use pathix_xpath::LocationPath;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Alias of [`PathRun`], kept because perfbench names it; nothing else does.
pub type ConcurrentRun = PathRun;

/// Everything a worker needs to open its private engine: a `Send` device
/// fork plus the (cheaply cloned) document metadata and buffer parameters.
/// The `TreeStore` itself is built *inside* the worker thread — it is
/// `Rc`-based and never crosses a thread boundary.
pub struct WorkerSeed {
    /// Private device for this worker (a [`Device::try_fork`] of the base
    /// device, usually wrapped in a `SharedCacheDevice`).
    pub device: Box<dyn Device + Send>,
    /// Document metadata (root, symbols, page range).
    pub meta: TreeMeta,
    /// Buffer-manager configuration for the worker's private buffer.
    pub params: BufferParams,
}

/// Result of a batch, whichever executor ran it.
#[derive(Debug)]
pub struct BatchRun {
    /// One result per work item, in batch order (independent of which
    /// worker executed it). In the worker pool an item fails alone, with
    /// [`ExecError::Io`] for an unrecovered page read or
    /// [`ExecError::WorkerLost`] if its worker died before publishing a
    /// result; under governance, shed items carry [`ExecError::Overloaded`]
    /// and aborted ones [`ExecError::DeadlineExceeded`]. The interleaved
    /// executor fails as a whole on an unrecovered read instead, so its
    /// items fail only by breaking the plan output contract.
    pub runs: Vec<Result<PathRun, ExecError>>,
    /// The batch's cost, whichever executor ran it: the sum of the
    /// *successful* items' reports ([`ExecReport::absorb`]), labelled with
    /// the executor. Interleaved items' clock, buffer and device deltas are
    /// those of their own turns, so with no failed item `time` is the
    /// store's elapsed simulated time over the batch. In the worker pool
    /// the simulated clocks run concurrently, so `time` is total *work*
    /// across all workers, not elapsed time; wall-clock elapsed time is
    /// perfbench's concern, not the engine's (R2 determinism).
    pub report: ExecReport,
    /// Batch-level governor tally. Without governance every item counts
    /// as admitted and nothing is shed, degraded or aborted.
    pub governor: GovernorReport,
    /// Counters of the page cache the workers shared. The executors cannot
    /// see a cache inside their seeds' devices and leave this zero; the
    /// facade's parallel batch, which builds the cache, fills it in.
    pub cache: SharedPageCacheStats,
}

impl BatchRun {
    /// Wraps per-item `runs` of the executor `label`: sums the successful
    /// items into the batch report and tallies their governor outcomes.
    pub(crate) fn new(runs: Vec<Result<PathRun, ExecError>>, label: &str) -> Self {
        let mut report = ExecReport {
            method: label.to_owned(),
            ..Default::default()
        };
        let mut governor = GovernorReport::default();
        for run in &runs {
            match run {
                Err(ExecError::Overloaded) => {
                    governor.shed += 1;
                    continue;
                }
                Ok(r) => {
                    report.absorb(&r.report);
                    governor.degraded += u64::from(r.report.degraded);
                }
                Err(ExecError::DeadlineExceeded { .. }) => governor.deadline_aborted += 1,
                Err(_) => {}
            }
            governor.admitted += 1;
        }
        Self {
            runs,
            report,
            governor,
            cache: SharedPageCacheStats::default(),
        }
    }

    /// Number of items that failed.
    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| r.is_err()).count()
    }
}

/// Executes every `(path, method)` item of `work` across `seeds.len()`
/// worker threads and returns per-item results in batch order.
///
/// Each result is produced by [`crate::plan::execute_path`] on the
/// worker's private store, so per-item nodes and reports have exactly the
/// same shape as sequential execution. A panicking item is caught on its
/// worker thread and recorded as [`ExecError::WorkerLost`]; the worker then
/// resets its private engine state and keeps claiming items, so a single
/// poisoned query costs exactly one batch slot. With no seeds there is no
/// worker to run anything: every item fails with [`ExecError::WorkerLost`].
pub fn execute_batch_parallel(
    seeds: Vec<WorkerSeed>,
    work: &[(LocationPath, Method)],
    cfg: &PlanConfig,
) -> BatchRun {
    run_batch(seeds, work, cfg, None, "parallel")
}

/// Admission control for [`execute_batch_governed`]. There is no separate
/// concurrency cap: the worker count is one, so a batch runs at most
/// `seeds.len()` items at once.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionConfig {
    /// Total queries admitted per batch; items beyond this prefix are shed
    /// with [`ExecError::Overloaded`] — deterministically by batch order,
    /// before any execution. `None` = admit everything.
    pub max_admitted: Option<usize>,
}

impl AdmissionConfig {
    /// Everything admitted: nothing is shed.
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// [`execute_batch_parallel`] with per-item [`QueryBudget`]s and an
/// admission controller.
///
/// Differences from the ungoverned executor, all in the name of
/// *deterministic overload behavior*:
///
/// * **Shedding is a batch-order prefix.** Items past
///   `admission.max_admitted` fail with [`ExecError::Overloaded`] before
///   any execution — never a function of thread timing.
/// * **Admitted items run cold.** Each item starts from a reset private
///   buffer, so its simulated timeline — and therefore its outcome — is a
///   pure function of `(path, method, budget)`, not of which items a worker
///   ran before it or of how many workers there are. (Throughput-oriented
///   batches that want cross-item cache reuse use `execute_batch_parallel`.)
///
/// `budgets` pairs with `work` by index; missing entries mean
/// [`QueryBudget::unlimited`]. With no seeds every item fails with
/// [`ExecError::WorkerLost`], as in [`execute_batch_parallel`].
pub fn execute_batch_governed(
    seeds: Vec<WorkerSeed>,
    work: &[(LocationPath, Method)],
    cfg: &PlanConfig,
    budgets: &[QueryBudget],
    admission: &AdmissionConfig,
) -> BatchRun {
    run_batch(seeds, work, cfg, Some((budgets, admission)), "governed")
}

/// The governed executor's per-item budgets and admission control, shared
/// by all its workers.
type Governance<'a> = (&'a [QueryBudget], &'a AdmissionConfig);

/// The worker loop behind both entry points: `seeds.len()` scoped threads
/// claim items in [`claim_order`] off an atomic cursor and publish into
/// per-item slots.
fn run_batch(
    seeds: Vec<WorkerSeed>,
    work: &[(LocationPath, Method)],
    cfg: &PlanConfig,
    governance: Option<Governance<'_>>,
    label: &str,
) -> BatchRun {
    let order = seeds
        .first()
        .map(|seed| claim_order(&seed.meta, work))
        .unwrap_or_default();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![None; work.len()]);

    std::thread::scope(|scope| {
        for seed in seeds {
            let (order, next, results) = (&order, &next, &results);
            scope.spawn(move || {
                // The whole single-threaded engine stack is private to this
                // thread: fresh clock, fresh buffer, private device fork.
                // If even opening the store panics, the catch below turns
                // the thread into a no-op and the None→WorkerLost mapping
                // at the bottom covers anything it would have claimed.
                let body = AssertUnwindSafe(|| {
                    let store = TreeStore::open(
                        seed.device,
                        seed.meta,
                        seed.params,
                        Rc::new(SimClock::new()),
                    );
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let Some((path, method)) = work.get(i) else {
                            break;
                        };
                        let out = run_item(&store, i, path, *method, cfg, governance);
                        if let Some(slot) = lock(results).get_mut(i) {
                            *slot = Some(out);
                        }
                    }
                });
                let _ = catch_unwind(body);
            });
        }
    });

    let runs: Vec<_> = results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or(Err(ExecError::WorkerLost { item: i })))
        .collect();
    BatchRun::new(runs, label)
}

/// The order the workers claim `work` in: batch indices by the optimizer's
/// estimate of each item's CPU cost under its own method, largest first,
/// ties in batch order. Only the CPU part of the estimate is read, so the
/// disk profile the optimizer is built with does not matter.
fn claim_order(meta: &TreeMeta, work: &[(LocationPath, Method)]) -> Vec<usize> {
    let optimizer = Optimizer::new(meta, DiskProfile::default());
    let mut ranked: Vec<(f64, usize)> = work
        .iter()
        .enumerate()
        .map(|(i, (path, method))| (optimizer.estimate(path).cpu_ns(*method), i))
        .collect();
    // A stable sort: equal estimates keep their batch order.
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    ranked.into_iter().map(|(_, i)| i).collect()
}

/// Runs batch item `i` on a worker's private `store`, containing a panic to
/// this item's slot.
fn run_item(
    store: &TreeStore,
    i: usize,
    path: &LocationPath,
    method: Method,
    cfg: &PlanConfig,
    gov: Option<Governance<'_>>,
) -> Result<PathRun, ExecError> {
    let budget = match gov {
        None => None,
        // Deterministic load shedding: the overflow of the admission
        // prefix, independent of timing.
        Some((_, admission)) if admission.max_admitted.is_some_and(|cap| i >= cap) => {
            return Err(ExecError::Overloaded)
        }
        Some((budgets, _)) => {
            // Cold start (see `execute_batch_governed`): the item's
            // sim-timeline must not depend on claim order — cold buffer,
            // and the device head re-parked so seek costs don't inherit
            // the previous item's final position.
            store.buffer.reset();
            store.buffer.device_mut().park();
            Some(budgets.get(i).cloned().unwrap_or_default())
        }
    };
    let item_cfg = PlanConfig { method, ..*cfg };
    let item = AssertUnwindSafe(|| run_path(store, path, &item_cfg, budget.as_ref()));
    catch_unwind(item).unwrap_or_else(|_| {
        // The item unwound mid-plan. Scrub the engine state it may have
        // left behind so the next item starts clean, and charge the loss
        // to this slot only.
        store.buffer.drain_inflight();
        store.buffer.set_io_deadline(None);
        store.clear_io_error();
        Err(ExecError::WorkerLost { item: i })
    })
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::ops::testutil::{mem_store, sample_doc};
    use crate::plan::execute_path;
    use pathix_storage::{IoError, PageId, SharedCacheDevice, SharedPageCache};
    use pathix_tree::Placement;
    use pathix_xpath::parse_path;
    use std::sync::Arc;

    /// Plain forks stacked over one shared page cache.
    fn seeds_for(store: &TreeStore, workers: usize) -> Vec<WorkerSeed> {
        let cache = Arc::new(SharedPageCache::new());
        let share = |s: WorkerSeed| WorkerSeed {
            device: Box::new(SharedCacheDevice::new(s.device, Arc::clone(&cache))),
            ..s
        };
        plain_seeds(store, workers).into_iter().map(share).collect()
    }

    #[test]
    fn parallel_matches_sequential_and_batch_order() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 41 });
        let work = vec![
            (parse_path("//item").unwrap(), Method::Simple),
            (parse_path("//email").unwrap(), Method::xschedule()),
            (parse_path("//name").unwrap(), Method::XScan),
            (parse_path("/regions//item").unwrap(), Method::xschedule()),
        ];
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let batch = execute_batch_parallel(seeds_for(&store, 3), &work, &cfg);
        assert_eq!(batch.runs.len(), work.len());
        assert_eq!(batch.failed(), 0);
        for (i, (path, method)) in work.iter().enumerate() {
            let item_cfg = PlanConfig {
                method: *method,
                ..cfg
            };
            let seq = execute_path(&store, path, &item_cfg).expect("sequential executes");
            let run = batch.runs[i].as_ref().expect("item succeeds");
            assert_eq!(run.nodes, seq.nodes, "item {i} diverged");
            assert_eq!(run.report.method, method.label());
        }
        assert_eq!(
            batch.report.results,
            batch
                .runs
                .iter()
                .flatten()
                .map(|r| r.nodes.len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn claim_order_puts_the_costliest_cpu_estimate_first() {
        let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.05));
        let store = mem_store(&doc, 8192, Placement::Sequential);
        let rooted = |p: &str| parse_path(p).unwrap().rooted();
        let deep = "/site/closed_auctions/closed_auction/annotation/description/parlist\
                    /listitem/parlist/listitem/text/emph/keyword";
        let work = vec![
            (rooted("/site/regions"), Method::Simple),
            (rooted("/site/people"), Method::xschedule()),
            (rooted("/site/regions"), Method::Simple),
            (rooted(deep), Method::XScan),
            // Simple and XSchedule share the navigational CPU estimate.
            (rooted("/site/people"), Method::Simple),
        ];
        let order = claim_order(&store.meta, &work);

        let mut indices = order.clone();
        indices.sort_unstable();
        assert_eq!(
            indices,
            (0..work.len()).collect::<Vec<_>>(),
            "a permutation"
        );
        assert_eq!(order[0], 3, "the deep XScan item goes first: {order:?}");

        let optimizer = Optimizer::new(&store.meta, DiskProfile::default());
        let cpu = |i: usize| optimizer.estimate(&work[i].0).cpu_ns(work[i].1);
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(cpu(a) >= cpu(b), "estimates do not increase: {order:?}");
            if cpu(a) == cpu(b) {
                assert!(a < b, "ties keep batch order: {order:?}");
            }
        }
        let pos = |i: usize| order.iter().position(|&j| j == i).unwrap();
        assert!(pos(0) < pos(2) && pos(1) < pos(4), "{order:?}");
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let work = vec![(parse_path("//email").unwrap(), Method::XScan)];
        let cfg = PlanConfig::new(Method::XScan);
        let batch = execute_batch_parallel(seeds_for(&store, 8), &work, &cfg);
        assert_eq!(batch.runs.len(), 1);
        assert!(!batch.runs[0]
            .as_ref()
            .expect("item succeeds")
            .nodes
            .is_empty());
    }

    #[test]
    fn empty_batch_is_empty() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let batch =
            execute_batch_parallel(seeds_for(&store, 2), &[], &PlanConfig::new(Method::XScan));
        assert!(batch.runs.is_empty());
        assert_eq!(batch.report.results, 0);
    }

    #[test]
    fn zero_workers_lose_every_item_without_panicking() {
        let work = governed_work();
        let cfg = PlanConfig::new(Method::XScan);
        let parallel = execute_batch_parallel(vec![], &work, &cfg);
        let governed =
            execute_batch_governed(vec![], &work, &cfg, &[], &AdmissionConfig::unlimited());
        for batch in [parallel, governed] {
            assert_eq!(batch.runs.len(), work.len());
            for (i, run) in batch.runs.iter().enumerate() {
                assert!(matches!(run, Err(ExecError::WorkerLost { item }) if *item == i));
            }
            assert_eq!(batch.report.results, 0);
        }
    }

    /// Panics on the n-th `read_sync` (0-based), then behaves normally —
    /// simulates a worker being lost mid-item.
    struct PanicOnRead {
        inner: Box<dyn Device + Send>,
        panic_at: u64,
        reads: u64,
    }

    impl Device for PanicOnRead {
        fn inner(&self) -> Option<&dyn Device> {
            Some(&*self.inner)
        }
        fn inner_mut(&mut self) -> Option<&mut dyn Device> {
            Some(&mut *self.inner)
        }
        fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
            let n = self.reads;
            self.reads += 1;
            assert!(n != self.panic_at, "injected worker loss");
            self.inner.read_sync(page, clock)
        }
    }

    #[test]
    fn lost_worker_costs_exactly_one_item() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 7 });
        // One worker whose device panics on its very first read: item 0 is
        // lost, the worker recovers (scrubbed engine state) and runs the
        // remaining items over the now-healthy device.
        let doomed = |s: WorkerSeed| WorkerSeed {
            device: Box::new(PanicOnRead {
                inner: s.device,
                panic_at: 0,
                reads: 0,
            }),
            ..s
        };
        let seeds = plain_seeds(&store, 1).into_iter().map(doomed).collect();
        let work = vec![
            (parse_path("//item").unwrap(), Method::Simple),
            (parse_path("//email").unwrap(), Method::Simple),
        ];
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let batch = execute_batch_parallel(seeds, &work, &cfg);
        assert_eq!(batch.runs.len(), 2);
        assert_eq!(batch.failed(), 1, "exactly the afflicted item fails");
        assert!(
            matches!(batch.runs[0], Err(ExecError::WorkerLost { item: 0 })),
            "got {:?}",
            batch.runs[0].as_ref().map(|r| &r.report.method)
        );
        let survivor = batch.runs[1].as_ref().expect("item 1 unaffected");
        let seq = execute_path(&store, &work[1].0, &cfg).expect("sequential executes");
        assert_eq!(survivor.nodes, seq.nodes, "survivor result intact");
    }

    /// Plain forks, no shared cache: the governed executor's per-item
    /// outcomes must be a pure function of `(path, method, budget)`.
    fn plain_seeds(store: &TreeStore, workers: usize) -> Vec<WorkerSeed> {
        (0..workers)
            .map(|_| WorkerSeed {
                device: store.buffer.device_mut().try_fork().expect("SimDisk forks"),
                meta: store.meta.clone(),
                params: store.buffer.params(),
            })
            .collect()
    }

    fn governed_work() -> Vec<(LocationPath, Method)> {
        vec![
            (parse_path("//item").unwrap(), Method::Simple),
            (parse_path("//email").unwrap(), Method::xschedule()),
            (parse_path("//name").unwrap(), Method::XScan),
            (parse_path("/regions//item").unwrap(), Method::xschedule()),
        ]
    }

    #[test]
    fn unlimited_budgets_match_ungoverned_batch() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 41 });
        let work = governed_work();
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let governed = execute_batch_governed(
            plain_seeds(&store, 2),
            &work,
            &cfg,
            &[],
            &AdmissionConfig::unlimited(),
        );
        let plain = execute_batch_parallel(plain_seeds(&store, 2), &work, &cfg);
        assert_eq!(governed.runs.len(), plain.runs.len());
        for (g, p) in governed.runs.iter().zip(&plain.runs) {
            assert_eq!(
                g.as_ref().expect("governed item succeeds").nodes,
                p.as_ref().expect("plain item succeeds").nodes
            );
        }
        assert_eq!(governed.governor.admitted, work.len() as u64);
        assert_eq!(governed.governor.shed, 0);
        assert_eq!(governed.governor.degraded, 0);
    }

    #[test]
    fn admission_sheds_a_deterministic_prefix_overflow() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 41 });
        let work = governed_work();
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let admission = AdmissionConfig {
            max_admitted: Some(2),
        };
        for _ in 0..3 {
            let batch =
                execute_batch_governed(plain_seeds(&store, 3), &work, &cfg, &[], &admission);
            assert!(batch.runs[0].is_ok());
            assert!(batch.runs[1].is_ok());
            assert!(matches!(batch.runs[2], Err(ExecError::Overloaded)));
            assert!(matches!(batch.runs[3], Err(ExecError::Overloaded)));
            assert_eq!(batch.governor.admitted, 2);
            assert_eq!(batch.governor.shed, 2);
        }
    }

    #[test]
    fn tight_hard_deadline_aborts_with_elapsed() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::ChunkShuffled { chunk: 1, seed: 41 });
        let work = governed_work();
        let cfg = PlanConfig::new(Method::Simple);
        // 1 sim-ns hard deadline: every admitted item aborts.
        let budgets: Vec<QueryBudget> = work
            .iter()
            .map(|_| QueryBudget::with_deadline(0, 1))
            .collect();
        let batch = execute_batch_governed(
            plain_seeds(&store, 2),
            &work,
            &cfg,
            &budgets,
            &AdmissionConfig::unlimited(),
        );
        for run in &batch.runs {
            match run {
                Err(ExecError::DeadlineExceeded { elapsed, .. }) => {
                    assert!(*elapsed >= 1, "abort happened after the deadline");
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        assert_eq!(batch.governor.deadline_aborted, work.len() as u64);
        assert_eq!(batch.governor.admitted, work.len() as u64);
    }
}
