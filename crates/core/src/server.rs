//! Parallel batch query execution: a worker pool over per-worker stores.
//!
//! The paper's outlook (§7) expects concurrent queries to "strongly benefit
//! from asynchronous I/O" — [`crate::concurrent`] realizes that on one
//! thread by interleaving plans over one device queue; this module adds the
//! orthogonal axis: running *independent* `(path, method)` queries on
//! multiple OS threads at once.
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
//! Work distribution is dynamic: workers claim the next unclaimed batch
//! item via an atomic cursor, so a worker stuck on an expensive query does
//! not strand cheap ones behind it. Results are written into per-item
//! slots, so the output order is the batch order regardless of which worker
//! ran what — combined with result sets depending only on page *contents*
//! (never on timing), a parallel batch returns bit-identical results to
//! sequential one-at-a-time execution.
//!
//! Concurrency primitives (`std::thread`, `parking_lot`, atomics) are
//! confined to this file by lint rule R5; the operators never see them.

use crate::concurrent::ConcurrentRun;
use crate::error::ExecError;
use crate::governor::{GovernorReport, MemLedger, QueryBudget};
use crate::plan::{run_path, Method, PlanConfig};
use crate::report::ExecReport;
use parking_lot::{Condvar, Mutex};
use pathix_storage::{BufferParams, Device, SimClock};
use pathix_tree::{TreeMeta, TreeStore};
use pathix_xpath::LocationPath;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Result of a parallel batch. Failures are contained per item: one query
/// hitting a bad page (or losing its worker) does not void the rest of the
/// batch, because every worker runs over a private device fork — the
/// failure domain is the item, not the batch.
pub struct BatchRun {
    /// One result per work item, in batch order (independent of which
    /// worker executed it). An item fails alone, with [`ExecError::Io`]
    /// for an unrecovered page read or [`ExecError::WorkerLost`] if its
    /// worker died before publishing a result. Under governance, shed
    /// items carry [`ExecError::Overloaded`] and aborted ones
    /// [`ExecError::DeadlineExceeded`] / [`ExecError::Canceled`].
    pub runs: Vec<Result<ConcurrentRun, ExecError>>,
    /// Sum of the *successful* per-item reports. `time` is aggregate
    /// simulated time across all workers (simulated clocks run
    /// concurrently, so this is total *work*, not elapsed time);
    /// wall-clock elapsed time is the harness's concern, not the
    /// engine's (R2 determinism).
    pub report: ExecReport,
    /// Batch-level governor tally. Without governance every item counts
    /// as admitted and nothing is shed, degraded or aborted.
    pub governor: GovernorReport,
}

impl BatchRun {
    /// Number of items that failed.
    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| r.is_err()).count()
    }
}

/// Executes every `(path, method)` item of `work` across `seeds.len()`
/// worker threads and returns per-item results in batch order.
///
/// Each result is produced by [`crate::plan::execute_path_from`] on the
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

/// Admission-control knobs for [`execute_batch_governed`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionConfig {
    /// Admitted queries allowed to *execute* concurrently (a semaphore over
    /// the worker pool). `0` = no cap beyond the worker count.
    pub max_in_flight: usize,
    /// Total queries admitted per batch; items beyond this prefix are shed
    /// with [`ExecError::Overloaded`] — deterministically by batch order,
    /// before any execution. `None` = admit everything.
    pub max_admitted: Option<usize>,
    /// Byte cap of the shared S-set [`MemLedger`]. Pressure *degrades*
    /// queries (fallback mode), it never sheds them. `None` = no ledger.
    pub ledger_cap_bytes: Option<u64>,
}

impl AdmissionConfig {
    /// Everything admitted, no concurrency cap, no ledger — governance off.
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// Counting semaphore over a [`Mutex`]/[`Condvar`] pair: caps how many
/// admitted queries execute at once. Confined to this file like every other
/// concurrency primitive (lint rule R5).
struct Gate {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new(permits: usize) -> Self {
        Self {
            permits: Mutex::new(permits.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> GatePermit<'_> {
        let mut permits = self.permits.lock();
        while *permits == 0 {
            permits = self.cv.wait(permits);
        }
        *permits -= 1;
        GatePermit(self)
    }
}

/// RAII permit: releasing wakes one waiter.
struct GatePermit<'a>(&'a Gate);

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        *self.0.permits.lock() += 1;
        self.0.cv.notify_one();
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
///   buffer, so its simulated timeline — and therefore its deadline
///   outcome — is a pure function of `(path, method, budget)`, not of
///   which items a worker ran before it. (Throughput-oriented batches that
///   want cross-item cache reuse use `execute_batch_parallel`.)
/// * **S-set growth is accounted** against a shared [`MemLedger`] sized by
///   `admission.ledger_cap_bytes`; pressure degrades queries into fallback
///   mode instead of failing them.
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
    let in_flight = match admission.max_in_flight {
        0 => seeds.len(),
        cap => cap,
    };
    let governance = Governance {
        budgets,
        admitted: admission.max_admitted.unwrap_or(usize::MAX),
        gate: Gate::new(in_flight),
        ledger: admission.ledger_cap_bytes.map(MemLedger::new),
    };
    run_batch(seeds, work, cfg, Some(governance), "governed")
}

/// The governed executor's front door, shared by all its workers.
struct Governance<'a> {
    budgets: &'a [QueryBudget],
    /// Length of the admitted batch prefix; later items are shed.
    admitted: usize,
    /// The in-flight cap.
    gate: Gate,
    ledger: Option<MemLedger>,
}

/// The worker loop behind both entry points: `seeds.len()` scoped threads
/// claim items off an atomic cursor and publish into per-item slots.
fn run_batch(
    seeds: Vec<WorkerSeed>,
    work: &[(LocationPath, Method)],
    cfg: &PlanConfig,
    governance: Option<Governance<'_>>,
    label: &str,
) -> BatchRun {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![None; work.len()]);

    std::thread::scope(|scope| {
        for seed in seeds {
            let (next, results, gov) = (&next, &results, governance.as_ref());
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
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((path, method)) = work.get(i) else {
                            break;
                        };
                        let out = run_item(&store, i, path, *method, cfg, gov);
                        if let Some(slot) = results.lock().get_mut(i) {
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
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or(Err(ExecError::WorkerLost { item: i })))
        .collect();
    let mut report = ExecReport {
        method: label.to_owned(),
        ..Default::default()
    };
    let ledger = governance.as_ref().and_then(|g| g.ledger.as_ref());
    let mut governor = GovernorReport {
        peak_ledger_bytes: ledger.map_or(0, MemLedger::peak),
        ..Default::default()
    };
    for run in &runs {
        match run {
            Err(ExecError::Overloaded) => {
                governor.shed += 1;
                continue;
            }
            Ok(r) => {
                governor.degraded += u64::from(r.report.degraded);
                report.absorb(&r.report);
            }
            Err(ExecError::DeadlineExceeded { .. }) => governor.deadline_aborted += 1,
            Err(ExecError::Canceled) => governor.canceled += 1,
            Err(_) => {}
        }
        governor.admitted += 1;
    }
    BatchRun {
        runs,
        report,
        governor,
    }
}

/// Runs batch item `i` on a worker's private `store`, containing a panic to
/// this item's slot.
fn run_item(
    store: &TreeStore,
    i: usize,
    path: &LocationPath,
    method: Method,
    cfg: &PlanConfig,
    gov: Option<&Governance<'_>>,
) -> Result<ConcurrentRun, ExecError> {
    let governed = match gov {
        None => None,
        // Deterministic load shedding: the overflow of the admission
        // prefix, independent of timing.
        Some(g) if i >= g.admitted => return Err(ExecError::Overloaded),
        Some(g) => {
            let budget = g.budgets.get(i).cloned().unwrap_or_default();
            // In-flight cap: hold a permit for the whole execution of this
            // admitted item.
            let permit = g.gate.acquire();
            // Cold start (see `execute_batch_governed`): the item's
            // sim-timeline must not depend on claim order — cold buffer,
            // and the device head re-parked so seek costs don't inherit
            // the previous item's final position.
            store.buffer.reset();
            store.buffer.device_mut().park();
            Some((budget, permit))
        }
    };
    let budget = governed.as_ref().map(|(budget, _)| budget);
    let ledger = gov.and_then(|g| g.ledger.as_ref());
    let item_cfg = PlanConfig { method, ..*cfg };
    let item = AssertUnwindSafe(|| {
        let run = run_path(
            store,
            path,
            vec![store.meta.root],
            &item_cfg,
            budget,
            ledger,
        )?;
        Ok(ConcurrentRun {
            nodes: run.nodes,
            method: method.label().to_owned(),
            report: run.report,
        })
    });
    catch_unwind(item).unwrap_or_else(|_| {
        // The item unwound mid-plan. Scrub the engine state it may have
        // left behind so the next item starts clean, and charge the loss
        // to this slot only.
        store.buffer.drain_inflight();
        store.buffer.set_io_deadline(None);
        store.buffer.set_interrupted(false);
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
    use pathix_storage::{SharedCacheDevice, SharedPageCache};
    use pathix_tree::Placement;
    use pathix_xpath::parse_path;
    use std::sync::Arc;

    fn seeds_for(store: &TreeStore, workers: usize) -> Vec<WorkerSeed> {
        let cache = Arc::new(SharedPageCache::new());
        (0..workers)
            .map(|_| {
                let fork = store
                    .buffer
                    .device_mut()
                    .try_fork()
                    .expect("MemDevice forks");
                WorkerSeed {
                    device: Box::new(SharedCacheDevice::new(fork, Arc::clone(&cache))),
                    meta: store.meta.clone(),
                    params: store.buffer.params(),
                }
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_and_batch_order() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 41 });
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
            let mut item_cfg = cfg;
            item_cfg.method = *method;
            let seq =
                crate::plan::execute_path_from(&store, path, vec![store.meta.root], &item_cfg)
                    .expect("sequential executes");
            let run = batch.runs[i].as_ref().expect("item succeeds");
            assert_eq!(run.nodes, seq.nodes, "item {i} diverged");
            assert_eq!(run.method, method.label());
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
        fn num_pages(&self) -> u32 {
            self.inner.num_pages()
        }
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_sync(
            &mut self,
            page: pathix_storage::PageId,
            clock: &SimClock,
        ) -> Result<std::sync::Arc<[u8]>, pathix_storage::IoError> {
            let n = self.reads;
            self.reads += 1;
            assert!(n != self.panic_at, "injected worker loss");
            self.inner.read_sync(page, clock)
        }
        fn submit(&mut self, page: pathix_storage::PageId, clock: &SimClock) {
            self.inner.submit(page, clock)
        }
        fn poll(&mut self, clock: &SimClock, block: bool) -> Option<pathix_storage::Completion> {
            self.inner.poll(clock, block)
        }
        fn in_flight(&self) -> usize {
            self.inner.in_flight()
        }
        fn append_page(&mut self, bytes: Vec<u8>) -> pathix_storage::PageId {
            self.inner.append_page(bytes)
        }
        fn write_page(&mut self, page: pathix_storage::PageId, bytes: Vec<u8>) {
            self.inner.write_page(page, bytes)
        }
        fn stats(&self) -> pathix_storage::DeviceStats {
            self.inner.stats()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats()
        }
    }

    #[test]
    fn lost_worker_costs_exactly_one_item() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 7 });
        // One worker whose device panics on its very first read: item 0 is
        // lost, the worker recovers (scrubbed engine state) and runs the
        // remaining items over the now-healthy device.
        let fork = store
            .buffer
            .device_mut()
            .try_fork()
            .expect("MemDevice forks");
        let seeds = vec![WorkerSeed {
            device: Box::new(PanicOnRead {
                inner: fork,
                panic_at: 0,
                reads: 0,
            }),
            meta: store.meta.clone(),
            params: store.buffer.params(),
        }];
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
            batch.runs[0].as_ref().map(|r| &r.method)
        );
        let survivor = batch.runs[1].as_ref().expect("item 1 unaffected");
        let mut item_cfg = cfg;
        item_cfg.method = Method::Simple;
        let seq =
            crate::plan::execute_path_from(&store, &work[1].0, vec![store.meta.root], &item_cfg)
                .expect("sequential executes");
        assert_eq!(survivor.nodes, seq.nodes, "survivor result intact");
    }

    /// Plain forks, no shared cache: the governed executor's per-item
    /// outcomes must be a pure function of `(path, method, budget)`.
    fn plain_seeds(store: &TreeStore, workers: usize) -> Vec<WorkerSeed> {
        (0..workers)
            .map(|_| WorkerSeed {
                device: store
                    .buffer
                    .device_mut()
                    .try_fork()
                    .expect("MemDevice forks"),
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
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 41 });
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
        assert_eq!(governed.governor.peak_ledger_bytes, 0);
    }

    #[test]
    fn admission_sheds_a_deterministic_prefix_overflow() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 41 });
        let work = governed_work();
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let admission = AdmissionConfig {
            max_admitted: Some(2),
            max_in_flight: 1,
            ledger_cap_bytes: None,
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
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 41 });
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

    #[test]
    fn pre_canceled_budget_yields_canceled() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let work = vec![(parse_path("//item").unwrap(), Method::xschedule())];
        let budget = QueryBudget::unlimited();
        budget.cancel.cancel();
        let batch = execute_batch_governed(
            plain_seeds(&store, 1),
            &work,
            &PlanConfig::new(Method::Simple),
            &[budget],
            &AdmissionConfig::unlimited(),
        );
        assert!(matches!(batch.runs[0], Err(ExecError::Canceled)));
        assert_eq!(batch.governor.canceled, 1);
    }

    #[test]
    fn ledger_pressure_degrades_but_answers_stay_correct() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 5 });
        // Shuffled placement parks speculative instances in S; a tiny
        // ledger forces both items into fallback on their first S insert.
        let work = vec![
            (parse_path("//item").unwrap(), Method::XScan),
            (
                parse_path("//item/..//name").unwrap(),
                Method::XSchedule {
                    k: 10,
                    speculative: true,
                },
            ),
        ];
        let mut cfg = PlanConfig::new(Method::XScan);
        cfg.sort = true;
        let admission = AdmissionConfig {
            ledger_cap_bytes: Some(1),
            ..AdmissionConfig::unlimited()
        };
        let batch = execute_batch_governed(plain_seeds(&store, 2), &work, &cfg, &[], &admission);
        assert_eq!(batch.governor.degraded, 2, "both items degraded");
        for (i, (path, method)) in work.iter().enumerate() {
            let run = batch.runs[i].as_ref().expect("degraded items answer");
            assert!(run.report.degraded);
            let mut item_cfg = cfg;
            item_cfg.method = *method;
            let seq =
                crate::plan::execute_path_from(&store, path, vec![store.meta.root], &item_cfg)
                    .expect("sequential executes");
            assert_eq!(run.nodes, seq.nodes, "degraded answers stay correct");
        }
    }
}
