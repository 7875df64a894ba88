//! A thread-safe, sharded page-image cache shared by concurrent workers.
//!
//! The paper's outlook (§7) predicts that concurrent queries "strongly
//! benefit from asynchronous I/O, as scheduling decisions can be made based
//! on more pending requests". The first step towards that is making sure a
//! page physically read for one query is *free* for every other in-flight
//! query: [`SharedPageCache`] keeps `PageId → Arc<[u8]>` page images behind
//! lock-striped shards, so a hit is a shard-mutex acquire plus a reference
//! count bump — never a page copy (a hit returns the very `Arc<[u8]>` the
//! first reader loaded).
//!
//! Misses use **single-flight** loading: the first worker to miss a page
//! installs a flight entry and performs the device read while holding the
//! flight's lock; any other worker that misses the same page in the meantime
//! blocks on that lock and receives the freshly loaded image without issuing
//! a second physical read. Waits are counted in
//! [`SharedPageCacheStats::single_flight_waits`].
//!
//! A loader that **fails** (its device read errors) or **dies** (panics and
//! unwinds mid-miss) never strands its waiters: the flight slot is a
//! tri-state (`FlightOutcome`) and anything other than a published image
//! is observed by waiters as a *retryable miss* — they retire the dead
//! flight and loop back to become the loader themselves. Failed loads are
//! never cached, so one worker's transient fault cannot poison the page for
//! everyone else.
//!
//! [`SharedCacheDevice`] stacks the cache on top of any [`Device`] that can
//! be forked ([`Device::try_fork`]), producing a `Send` device that each
//! worker's private `TreeStore`/`BufferManager` can own. Everything above
//! the device boundary stays single-threaded (`Rc`/`RefCell`), exactly as
//! before — concurrency lives only below it.

use crate::checksum::verify_page;
use crate::clock::SimClock;
use crate::cost::CACHE_PROBE_NS;
use crate::device::{Completion, Device, IoError, IoErrorKind, PageId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of lock stripes. Power of two so shard selection is a mask.
const SHARD_COUNT: usize = 16;

/// Snapshot of cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedPageCacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that had to go to the underlying device.
    pub misses: u64,
    /// Times a worker blocked on another worker's in-progress load of the
    /// same page instead of issuing a duplicate physical read.
    pub single_flight_waits: u64,
    /// Page images inserted (loads + async publishes).
    pub inserts: u64,
    /// Single-flight loads that ended in an error or a dead loader; each one
    /// left waiters with a retryable miss instead of a cached image.
    pub failed_loads: u64,
}

/// What a waiter finds in a flight slot once the loader releases it.
#[derive(Default)]
enum FlightOutcome {
    /// The loader unwound (panicked) without ever publishing — the slot
    /// still holds its initial value. Waiters treat this as a retryable
    /// miss (a poisoned flight, not a poisoned page).
    #[default]
    Pending,
    /// The load succeeded; the image is also in the page map.
    Ready(Arc<[u8]>),
    /// The loader's device read failed. The error is *not* cached (it goes
    /// to the loader alone): waiters retire the flight and retry the load
    /// themselves, so the outcome carries no payload.
    Failed,
}

/// Locks `mutex`, taking the guard back if a panicking holder poisoned it.
/// The one lock entry point of the concurrency zone (lint R5): the shared
/// page cache, the fault plan and the batch executor. Every critical
/// section there leaves its data consistent, and a loader that dies
/// mid-miss leaves its flight `Pending` for a waiter to retire, so one
/// panicking thread never strands the others.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An in-progress single-flight load. The loader holds `slot`'s lock for the
/// whole device read; waiters block on [`lock`] and inspect the outcome.
#[derive(Default)]
struct Flight {
    slot: Mutex<FlightOutcome>,
}

#[derive(Default)]
struct Shard {
    pages: HashMap<PageId, Arc<[u8]>>,
    flights: HashMap<PageId, Arc<Flight>>,
}

/// Sharded, lock-striped `PageId → Arc<[u8]>` cache with single-flight miss
/// handling. Unbounded: it holds at most one image per distinct page of the
/// database, which is exactly the working set a batch touches.
pub struct SharedPageCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    single_flight_waits: AtomicU64,
    inserts: AtomicU64,
    failed_loads: AtomicU64,
}

impl Default for SharedPageCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedPageCache {
    /// Creates an empty cache with `SHARD_COUNT` stripes.
    pub fn new() -> Self {
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        for _ in 0..SHARD_COUNT {
            shards.push(Mutex::new(Shard::default()));
        }
        Self {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            single_flight_waits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            failed_loads: AtomicU64::new(0),
        }
    }

    fn shard(&self, page: PageId) -> &Mutex<Shard> {
        // SHARD_COUNT is a non-zero constant, and the vec is built to match.
        let idx = page as usize & (SHARD_COUNT - 1);
        match self.shards.get(idx) {
            Some(s) => s,
            // Unreachable by construction; fall back to the first stripe.
            None => &self.shards[0], // lint:allow(shards has SHARD_COUNT > 0 entries by construction)
        }
    }

    /// Probes the cache without loading. Counts a hit or a miss.
    pub fn probe(&self, page: PageId) -> Option<Arc<[u8]>> {
        let shard = lock(self.shard(page));
        match shard.pages.get(&page) {
            Some(b) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(b))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Returns the cached image for `page`, or invokes `load` exactly once
    /// across all concurrent callers to fetch it (single-flight).
    ///
    /// A failing load is returned to the loader only and never cached:
    /// waiters blocked on the flight observe `FlightOutcome::Failed` (or
    /// `FlightOutcome::Pending`, if the loader unwound) as a retryable
    /// miss, retire the dead flight, and loop back to load the page
    /// themselves.
    pub fn get_or_load<F>(&self, page: PageId, mut load: F) -> Result<Arc<[u8]>, IoError>
    where
        F: FnMut() -> Result<Arc<[u8]>, IoError>,
    {
        loop {
            let mut shard = lock(self.shard(page));
            if let Some(b) = shard.pages.get(&page) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(b));
            }
            if let Some(f) = shard.flights.get(&page).map(Arc::clone) {
                // Another worker is loading this page right now. Drop the
                // shard lock and block on the flight instead of reading.
                drop(shard);
                self.single_flight_waits.fetch_add(1, Ordering::Relaxed);
                if let FlightOutcome::Ready(b) = &*lock(&f.slot) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(b));
                }
                // The loader failed or unwound without publishing. Retire
                // its stale flight (if still present) and retry from the
                // top — this worker becomes the next loader.
                let mut shard = lock(self.shard(page));
                let stale = shard
                    .flights
                    .get(&page)
                    .is_some_and(|cur| Arc::ptr_eq(cur, &f));
                if stale {
                    shard.flights.remove(&page);
                }
                continue;
            }
            // We are the loader. Lock the flight slot *before* making the
            // flight visible, so waiters can never observe an unresolved
            // slot while the load is still in progress.
            let f = Arc::new(Flight::default());
            let mut slot = lock(&f.slot);
            shard.flights.insert(page, Arc::clone(&f));
            drop(shard);
            self.misses.fetch_add(1, Ordering::Relaxed);
            // If `load` panics, the slot stays Pending and the flight is
            // retired by the first waiter that observes it (`lock` takes
            // the guard back from the poisoned mutex).
            match load() {
                Ok(bytes) => {
                    *slot = FlightOutcome::Ready(Arc::clone(&bytes));
                    let mut shard = lock(self.shard(page));
                    shard.pages.insert(page, Arc::clone(&bytes));
                    shard.flights.remove(&page);
                    self.inserts.fetch_add(1, Ordering::Relaxed);
                    drop(shard);
                    drop(slot);
                    return Ok(bytes);
                }
                Err(e) => {
                    *slot = FlightOutcome::Failed;
                    let mut shard = lock(self.shard(page));
                    let stale = shard
                        .flights
                        .get(&page)
                        .is_some_and(|cur| Arc::ptr_eq(cur, &f));
                    if stale {
                        shard.flights.remove(&page);
                    }
                    self.failed_loads.fetch_add(1, Ordering::Relaxed);
                    drop(shard);
                    drop(slot);
                    return Err(e);
                }
            }
        }
    }

    /// Inserts a page image loaded outside the single-flight path (e.g. an
    /// asynchronous completion polled from the underlying device).
    pub fn publish(&self, page: PageId, bytes: Arc<[u8]>) {
        let mut shard = lock(self.shard(page));
        if shard.pages.insert(page, bytes).is_none() {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops the cached image for `page` (after a write).
    pub fn invalidate(&self, page: PageId) {
        lock(self.shard(page)).pages.remove(&page);
    }

    /// Number of distinct pages currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).pages.len()).sum()
    }

    /// True when no pages are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> SharedPageCacheStats {
        SharedPageCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            single_flight_waits: self.single_flight_waits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            failed_loads: self.failed_loads.load(Ordering::Relaxed),
        }
    }
}

/// A `Send` device adapter that consults a [`SharedPageCache`] before its
/// inner device. Each parallel worker owns one adapter (wrapping a private
/// [`Device::try_fork`] of the base device) while all adapters share the
/// cache, so a page read by any worker costs every other worker a refcount
/// bump. Device statistics ([`DeviceStats`](crate::DeviceStats)) are forwarded from the inner
/// device and therefore count *physical* accesses only; cache traffic is
/// reported separately via [`SharedPageCache::stats`].
pub struct SharedCacheDevice {
    inner: Box<dyn Device + Send>,
    cache: Arc<SharedPageCache>,
    /// Async submissions answered by the cache, waiting to be polled.
    ready: VecDeque<Completion>,
}

impl SharedCacheDevice {
    /// Stacks `cache` on top of `inner`.
    pub fn new(inner: Box<dyn Device + Send>, cache: Arc<SharedPageCache>) -> Self {
        Self {
            inner,
            cache,
            ready: VecDeque::new(),
        }
    }

    /// The shared cache this adapter consults.
    pub fn cache(&self) -> &Arc<SharedPageCache> {
        &self.cache
    }
}

impl Device for SharedCacheDevice {
    fn inner(&self) -> Option<&dyn Device> {
        Some(&*self.inner)
    }

    fn inner_mut(&mut self) -> Option<&mut dyn Device> {
        Some(&mut *self.inner)
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        clock.charge_cpu(CACHE_PROBE_NS);
        let inner = &mut self.inner;
        self.cache.get_or_load(page, || {
            let bytes = inner.read_sync(page, clock)?;
            // Verify on the miss path, *before* the image can be published
            // to other workers: a torn read never enters the shared cache.
            if verify_page(&bytes) {
                Ok(bytes)
            } else {
                Err(IoError::new(page, IoErrorKind::Corrupt))
            }
        })
    }

    fn submit(&mut self, page: PageId, clock: &SimClock) {
        clock.charge_cpu(CACHE_PROBE_NS);
        match self.cache.probe(page) {
            Some(bytes) => self
                .ready
                .push_back(Completion::ok(page, bytes, clock.now_ns())),
            None => self.inner.submit(page, clock),
        }
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        if let Some(c) = self.ready.pop_front() {
            return Some(c);
        }
        let mut c = self.inner.poll(clock, block)?;
        match &c.result {
            Ok(bytes) if verify_page(bytes) => {
                self.cache.publish(c.page, Arc::clone(bytes));
            }
            Ok(_) => {
                // Torn image off the async path: surface it as a checksum
                // error instead of publishing garbage.
                c.result = Err(IoError::new(c.page, IoErrorKind::Corrupt));
            }
            Err(_) => {}
        }
        Some(c)
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight() + self.ready.len()
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        self.cache.invalidate(page);
        self.inner.write_page(page, bytes);
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::mem_device::MemDevice;

    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}

    #[test]
    fn cache_and_adapter_cross_threads() {
        assert_send_sync::<SharedPageCache>();
        assert_send::<SharedCacheDevice>();
    }

    fn mem_with_pages(n: u8) -> MemDevice {
        crate::device::tests::with_pages(MemDevice::new(32), n)
    }

    #[test]
    fn get_or_load_loads_once() {
        let cache = SharedPageCache::new();
        let mut loads = 0u32;
        let a = cache
            .get_or_load(7, || {
                loads += 1;
                Ok(Arc::from(vec![42u8; 4]))
            })
            .unwrap();
        let b = cache
            .get_or_load(7, || {
                loads += 1;
                Ok(Arc::from(vec![0u8; 4]))
            })
            .unwrap();
        assert_eq!(loads, 1);
        assert!(Arc::ptr_eq(&a, &b), "hit must be a refcount clone");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn failed_load_is_not_cached_and_retries() {
        use crate::device::IoErrorKind;
        let cache = SharedPageCache::new();
        let err = cache.get_or_load(3, || Err(IoError::new(3, IoErrorKind::Transient)));
        assert_eq!(err.unwrap_err().kind, IoErrorKind::Transient);
        assert_eq!(cache.stats().failed_loads, 1);
        assert!(cache.is_empty(), "errors must not be cached");
        // The flight was retired with the error, so the next caller loads.
        let ok = cache
            .get_or_load(3, || Ok(Arc::from(vec![5u8; 4])))
            .unwrap();
        assert_eq!(ok[0], 5);
        assert_eq!(cache.stats().inserts, 1);
    }

    #[test]
    fn panicking_loader_does_not_strand_waiters() {
        use std::sync::mpsc;
        let cache = Arc::new(SharedPageCache::new());
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let loader_cache = Arc::clone(&cache);
            let loader = s.spawn(move || {
                let _ = loader_cache.get_or_load(9, || {
                    started_tx.send(()).ok();
                    release_rx.recv().ok();
                    panic!("simulated loader death mid-miss");
                });
            });
            // The loader signals from inside its load closure, i.e. after it
            // installed and locked the flight.
            started_rx.recv().unwrap();
            let waiter_cache = Arc::clone(&cache);
            let waiter = s.spawn(move || {
                waiter_cache
                    .get_or_load(9, || Ok(Arc::from(vec![7u8; 4])))
                    .unwrap()
            });
            // The flight cannot resolve until the loader dies; make sure the
            // waiter is actually blocked on it first.
            while cache.stats().single_flight_waits == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            release_tx.send(()).unwrap();
            assert!(loader.join().is_err(), "loader must have panicked");
            // The waiter observes the poisoned (Pending) flight as a
            // retryable miss, retires it, and loads the page itself.
            let bytes = waiter.join().unwrap();
            assert_eq!(bytes[0], 7);
        });
        let s = cache.stats();
        assert_eq!(s.inserts, 1, "exactly the waiter's load was published");
        assert!(s.single_flight_waits >= 1);
    }

    #[test]
    fn adapter_serves_second_read_from_cache() {
        let cache = Arc::new(SharedPageCache::new());
        let mut d1 = SharedCacheDevice::new(Box::new(mem_with_pages(4)), Arc::clone(&cache));
        let mut d2 = SharedCacheDevice::new(Box::new(mem_with_pages(4)), Arc::clone(&cache));
        let clock = SimClock::new();
        let a = d1.read_sync(2, &clock).unwrap();
        let b = d2.read_sync(2, &clock).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Only the first adapter touched its physical device.
        assert_eq!(d1.stats().reads, 1);
        assert_eq!(d2.stats().reads, 0);
    }

    #[test]
    fn async_path_publishes_and_hits() {
        let cache = Arc::new(SharedPageCache::new());
        let mut d1 = SharedCacheDevice::new(Box::new(mem_with_pages(4)), Arc::clone(&cache));
        let mut d2 = SharedCacheDevice::new(Box::new(mem_with_pages(4)), Arc::clone(&cache));
        let clock = SimClock::new();
        d1.submit(1, &clock);
        let c = d1.poll(&clock, true).unwrap();
        assert_eq!(c.page, 1);
        // The polled completion was published; d2's submit is a cache hit.
        d2.submit(1, &clock);
        assert_eq!(d2.in_flight(), 1);
        let c2 = d2.poll(&clock, true).unwrap();
        assert!(Arc::ptr_eq(&c.result.unwrap(), &c2.result.unwrap()));
        assert_eq!(d2.stats().reads, 0);
    }

    #[test]
    fn write_invalidates() {
        let cache = Arc::new(SharedPageCache::new());
        let mut d = SharedCacheDevice::new(Box::new(mem_with_pages(4)), Arc::clone(&cache));
        let clock = SimClock::new();
        let old = d.read_sync(3, &clock).unwrap();
        d.write_page(3, vec![9; 4]);
        let new = d.read_sync(3, &clock).unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(new[0], 9);
    }

    #[test]
    fn single_flight_blocks_second_reader() {
        use std::sync::mpsc;

        // A device whose reads park until released, so a second reader
        // provably overlaps the first one's load window.
        struct SlowDevice {
            inner: MemDevice,
            started: mpsc::Sender<()>,
            release: mpsc::Receiver<()>,
            reads: Arc<AtomicU64>,
        }
        impl Device for SlowDevice {
            fn inner(&self) -> Option<&dyn Device> {
                Some(&self.inner)
            }
            fn inner_mut(&mut self) -> Option<&mut dyn Device> {
                Some(&mut self.inner)
            }
            fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
                self.started.send(()).ok();
                self.release.recv().ok();
                self.reads.fetch_add(1, Ordering::SeqCst);
                self.inner.read_sync(page, clock)
            }
        }

        let cache = Arc::new(SharedPageCache::new());
        let physical_reads = Arc::new(AtomicU64::new(0));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let slow = SlowDevice {
            inner: mem_with_pages(2),
            started: started_tx,
            release: release_rx,
            reads: Arc::clone(&physical_reads),
        };
        let mut d1 = SharedCacheDevice::new(Box::new(slow), Arc::clone(&cache));
        let mut d2 = SharedCacheDevice::new(Box::new(mem_with_pages(2)), Arc::clone(&cache));

        std::thread::scope(|s| {
            let h1 = s.spawn(move || {
                let clock = SimClock::new();
                d1.read_sync(0, &clock).unwrap()
            });
            // The loader signals from *inside* its device read, i.e. after
            // it has installed and locked the flight — so the second reader
            // is guaranteed to find the flight, not an empty cache.
            started_rx.recv().unwrap();
            let h2 = s.spawn(move || {
                let clock = SimClock::new();
                d2.read_sync(0, &clock).unwrap()
            });
            // The flight cannot resolve until we release the loader, so the
            // waiter is guaranteed to register; spin until it has.
            while cache.stats().single_flight_waits == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            release_tx.send(()).unwrap();
            let a = h1.join().unwrap();
            let b = h2.join().unwrap();
            assert!(Arc::ptr_eq(&a, &b));
        });

        // d1 is the only adapter whose device was touched; d2 was served by
        // the single-flight path, never by its own device.
        assert_eq!(physical_reads.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!(s.inserts, 1);
        assert!(
            s.single_flight_waits >= 1,
            "waiter must have blocked: {s:?}"
        );
    }
}
