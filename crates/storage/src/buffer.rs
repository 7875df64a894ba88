//! Buffer manager caching *decoded* page representations.
//!
//! Natix-style XML engines keep two representations of a page: the on-disk
//! byte image and a decoded main-memory object ("dual buffering", Kemper &
//! Kossmann). pathix caches the decoded object: on a miss the page bytes are
//! fetched from the device and passed through a [`PageDecoder`], and the cost
//! of that representation change is charged to the clock by the decoder.
//! The decoder receives the verified image as the `Arc<[u8]>` the device
//! handed out, so the decoded object only has to be *addressable*, not
//! copied out of the page: the tree's decoded cluster is a record index
//! (40 B per record, one allocation) over the retained image, whose text
//! and attribute payloads stay in place. That took `decode_cluster` from a
//! median ~10.5 µs to ~3.7 µs per 8 KiB page of ~143 records (perfbench
//! `cold --trace 1`, `decode.cluster_ns`, 2-core Xeon). A frame's own heap
//! went from 143 × 48 B nodes plus ~70 separately allocated payload strings
//! (~4 KB) to one vector of 143 × 40 B nodes and a reference to the image,
//! which the simulated disk holds anyway.
//!
//! *Fixing* a resident page still costs a page-table lookup plus latch
//! ([`FIX_HIT_NS`]) — the "swizzling" cost the paper minimizes by passing
//! direct pointers from step to step. The page table is a vector
//! indexed by page number, not a hash map: page ids are dense device
//! offsets, so a hit is an index. Callers hold a decoded page as
//! an `Arc`, which doubles as the pin: frames with outstanding references are
//! never evicted. Eviction uses the CLOCK (second chance) policy.
//!
//! The buffer is also where I/O faults are **absorbed or surfaced**: every
//! page image is checksum-verified before it is decoded, and failed reads
//! are retried up to [`MAX_READ_ATTEMPTS`] times with deterministic
//! exponential sim-clock backoff from [`RETRY_BACKOFF_NS`]. Transient
//! errors heal invisibly — the only trace is
//! [`DeviceStats::retries`] — while permanent errors (or an exhausted
//! attempt budget) surface from [`BufferManager::try_fix`] as a typed
//! [`IoError`] carrying the final attempt count.
//!
//! **The miss path**, in order: read (retried as above), verify the CRC
//! trailer, decode, insert. Decode is the last step that can fail: a
//! verified image that does not decode — a bad record sealed by a crafted
//! file or an updater bug — is [`IoErrorKind::Undecodable`] with one
//! attempt. It is never retried, because decode is deterministic and a
//! reread would fail the same way, and it is never cached. A prefetch
//! completion that does not decode is dropped like a torn one; the demand
//! fix re-reads the page and reports the error. The tree's decoder leaves
//! text and attribute payloads unchecked until they are read, so a miss
//! pays for the record index only: per 8 KiB page, CRC ~3.6 µs and decode
//! ~3.2 µs, `fix_miss_ns` ~8.4 µs against ~12.1 µs before (perfbench `cold
//! --trace 1`, 2-core Xeon).

use crate::checksum::verify_page;
use crate::clock::SimClock;
use crate::cost::{FIX_HIT_NS, MISS_OVERHEAD_NS, RETRY_BACKOFF_NS};
use crate::device::{Device, DeviceStats, IoError, IoErrorKind, PageId};
use crate::slotted::DecodeError;
use std::cell::{Cell, RefCell, RefMut};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

/// Read attempts per fix, the first try included, for retryable failures
/// (transient errors and checksum mismatches).
pub const MAX_READ_ATTEMPTS: u32 = 4;

/// Backoff charged to the clock as I/O wait before attempt `next_attempt`
/// (2-based; attempt 1 is the initial try and never waits):
/// [`RETRY_BACKOFF_NS`], doubling per retry.
fn backoff_ns(next_attempt: u32) -> u64 {
    RETRY_BACKOFF_NS << (next_attempt.saturating_sub(2)).min(16)
}

/// Turns a verified page image into the cached in-memory representation.
pub trait PageDecoder<T> {
    /// Decodes `bytes` of `page`, charging representation-change CPU cost to
    /// `clock`, or reports why the image does not decode. `bytes` is the
    /// allocation the device handed out: a decoder may keep it (an `Arc`
    /// bump) instead of copying what it needs.
    fn decode(&self, page: PageId, bytes: &Arc<[u8]>, clock: &SimClock) -> Result<T, DecodeError>;
}

impl<T, F> PageDecoder<T> for F
where
    F: Fn(PageId, &Arc<[u8]>, &SimClock) -> Result<T, DecodeError>,
{
    fn decode(&self, page: PageId, bytes: &Arc<[u8]>, clock: &SimClock) -> Result<T, DecodeError> {
        self(page, bytes, clock)
    }
}

/// Buffer-manager tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct BufferParams {
    /// Number of page frames.
    pub capacity: usize,
}

impl Default for BufferParams {
    fn default() -> Self {
        Self {
            capacity: 1000, // the paper's Natix configuration
        }
    }
}

/// Cumulative buffer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Total fix calls.
    pub fixes: u64,
    /// Fixes served from the buffer.
    pub hits: u64,
    /// Fixes that required a device read.
    pub misses: u64,
    /// Pages decoded after asynchronous completion.
    pub async_loads: u64,
    /// Frames evicted.
    pub evictions: u64,
    /// Prefetch requests submitted to the device.
    pub prefetches: u64,
    /// Times the buffer had to exceed its configured capacity because every
    /// frame was pinned.
    pub capacity_overflows: u64,
}

crate::clock::counter_algebra!(BufferStats {
    fixes,
    hits,
    misses,
    async_loads,
    evictions,
    prefetches,
    capacity_overflows,
});

impl BufferStats {
    /// Buffer hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.fixes == 0 {
            0.0
        } else {
            self.hits as f64 / self.fixes as f64
        }
    }
}

struct Frame<T> {
    page: PageId,
    data: Arc<T>,
    referenced: bool,
}

struct FrameTable<T> {
    /// The page table: the frame slot of each resident page, indexed by
    /// page number (page ids are dense device offsets); grown on insert.
    at: Vec<Option<usize>>,
    slots: Vec<Option<Frame<T>>>,
    hand: usize,
}

impl<T> FrameTable<T> {
    fn new() -> Self {
        Self {
            at: Vec::new(),
            slots: Vec::new(),
            hand: 0,
        }
    }

    fn slot_of(&self, page: PageId) -> Option<usize> {
        *self.at.get(page as usize)?
    }

    fn get(&mut self, page: PageId) -> Option<Arc<T>> {
        let i = self.slot_of(page)?;
        // A mapped slot always holds a frame; if the table is ever
        // inconsistent, report a miss instead of panicking — the caller
        // re-reads the page.
        let f = self.slots.get_mut(i)?.as_mut()?;
        f.referenced = true;
        Some(Arc::clone(&f.data))
    }

    fn resident(&self, page: PageId) -> bool {
        self.slot_of(page).is_some()
    }

    /// Points `page`'s page-table entry at `slot` (`None`: not resident).
    fn map(&mut self, page: PageId, slot: Option<usize>) {
        let i = page as usize;
        self.at.resize(self.at.len().max(i + 1), None);
        if let Some(e) = self.at.get_mut(i) {
            *e = slot;
        }
    }

    /// Finds a victim slot via CLOCK sweep; `None` if every frame is pinned.
    fn find_victim(&mut self) -> Option<usize> {
        let n = self.slots.len();
        if n == 0 {
            return None;
        }
        for _ in 0..2 * n {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            let slot = self.slots.get_mut(i)?;
            let Some(f) = slot.as_mut() else {
                return Some(i);
            };
            if Arc::strong_count(&f.data) > 1 {
                continue; // pinned
            }
            if f.referenced {
                f.referenced = false;
            } else {
                return Some(i);
            }
        }
        None
    }

    fn insert(&mut self, page: PageId, data: Arc<T>, capacity: usize) -> InsertOutcome {
        debug_assert!(!self.resident(page), "page already resident");
        let mut outcome = InsertOutcome::default();
        let frame = Frame {
            page,
            data,
            referenced: true,
        };
        let victim = if self.slots.len() < capacity {
            None
        } else {
            self.find_victim()
        };
        let slot = match victim.and_then(|i| self.slots.get_mut(i).map(|s| (i, s))) {
            Some((i, s)) => {
                if let Some(old) = s.replace(frame) {
                    outcome.evicted = true;
                    self.map(old.page, None);
                }
                i
            }
            None => {
                outcome.overflowed = self.slots.len() >= capacity;
                self.slots.push(Some(frame));
                self.slots.len() - 1
            }
        };
        self.map(page, Some(slot));
        outcome
    }

    /// Drops `page`'s frame, if resident; false if it is pinned.
    fn remove(&mut self, page: PageId) -> bool {
        let pinned = |f: &Frame<T>| Arc::strong_count(&f.data) > 1;
        if let Some(slot) = self.slot_of(page).and_then(|i| self.slots.get_mut(i)) {
            if slot.as_ref().is_some_and(pinned) {
                return false;
            }
            *slot = None;
            self.map(page, None);
        }
        true
    }

    fn clear(&mut self) {
        self.at.clear();
        self.slots.clear();
        self.hand = 0;
    }

    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

#[derive(Default)]
struct InsertOutcome {
    evicted: bool,
    overflowed: bool,
}

/// The buffer manager. `T` is the decoded page type, `D` its decoder.
pub struct BufferManager<T, D> {
    device: RefCell<Box<dyn Device>>,
    decoder: D,
    params: BufferParams,
    frames: RefCell<FrameTable<T>>,
    submitted: RefCell<HashSet<PageId>>,
    clock: Rc<SimClock>,
    stats: RefCell<BufferStats>,
    /// Read retries performed by [`Self::try_fix`]; folded into
    /// [`DeviceStats::retries`] by [`Self::device_stats`].
    retries: Cell<u64>,
    /// Governor gate: absolute sim-time after which misses are refused and
    /// retry backoff is not allowed to start (the hard query deadline).
    io_deadline: Cell<Option<u64>>,
}

impl<T, D: PageDecoder<T>> BufferManager<T, D> {
    /// Creates a buffer manager over `device`.
    pub fn new(
        device: Box<dyn Device>,
        decoder: D,
        params: BufferParams,
        clock: Rc<SimClock>,
    ) -> Self {
        Self {
            device: RefCell::new(device),
            decoder,
            params,
            frames: RefCell::new(FrameTable::new()),
            submitted: RefCell::new(HashSet::new()),
            clock,
            stats: RefCell::new(BufferStats::default()),
            retries: Cell::new(0),
            io_deadline: Cell::new(None),
        }
    }

    /// Sets (or clears, with `None`) the absolute sim-time I/O deadline:
    /// past it, misses are refused with [`IoErrorKind::Interrupted`], and a
    /// retry whose backoff would cross it is not taken — backoff sleeps are
    /// charged against the query's clock budget instead of being invisible
    /// to it.
    pub fn set_io_deadline(&self, deadline_ns: Option<u64>) {
        self.io_deadline.set(deadline_ns);
    }

    /// The governor gate: `Some(error)` if a device access for `page` must
    /// be refused right now (past the I/O deadline).
    fn io_gate(&self, page: PageId) -> Option<IoError> {
        self.io_deadline
            .get()
            .is_some_and(|dl| self.clock.now_ns() >= dl)
            .then(|| IoError::new(page, IoErrorKind::Interrupted))
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current parameters.
    pub fn params(&self) -> BufferParams {
        self.params
    }

    /// Mutable access to the underlying device (for database construction
    /// and statistics control).
    pub fn device_mut(&self) -> RefMut<'_, Box<dyn Device>> {
        self.device.borrow_mut()
    }

    /// Number of pages on the device.
    pub fn num_pages(&self) -> u32 {
        self.device.borrow().num_pages()
    }

    /// Fixes a page, loading and decoding it if necessary.
    ///
    /// Infallible wrapper over [`Self::try_fix`] for contexts with no error
    /// channel (database construction, export, tests): an unrecoverable
    /// read error becomes a panic. The query path uses
    /// `TreeStore::checked_fix`, which routes errors into `ExecError::Io`.
    pub fn fix(&self, page: PageId) -> Arc<T> {
        match self.try_fix(page) {
            Ok(data) => data,
            // lint:allow(infallible wrapper; the query hot path uses try_fix via TreeStore::checked_fix)
            Err(e) => panic!("unrecoverable I/O error: {e}"),
        }
    }

    /// Fixes a page, loading and decoding it if necessary.
    ///
    /// If the page was prefetched, blocks only until its asynchronous read
    /// completes (absorbing other completions along the way). Failed reads
    /// are retried up to [`MAX_READ_ATTEMPTS`] times; a permanent error or an
    /// exhausted attempt budget is returned as [`IoError`] with the final
    /// attempt count filled in.
    pub fn try_fix(&self, page: PageId) -> Result<Arc<T>, IoError> {
        self.clock.charge_cpu(FIX_HIT_NS);
        self.stats.borrow_mut().fixes += 1;
        if let Some(data) = self.frames.borrow_mut().get(page) {
            self.stats.borrow_mut().hits += 1;
            return Ok(data);
        }
        // Hits above are free; anything below touches the device and is
        // refused once the query is past its I/O deadline.
        if let Some(e) = self.io_gate(page) {
            return Err(e);
        }
        // Was it prefetched? Then drain completions until it arrives. A
        // failed or torn completion (for this or any other page) is dropped
        // here and the read falls through to the synchronous retry path.
        if self.submitted.borrow().contains(&page) {
            loop {
                let Some(c) = self.device.borrow_mut().poll(&self.clock, true) else {
                    // The device reports nothing in flight despite the
                    // submission record (lost request): forget it and fall
                    // back to the synchronous read below.
                    self.submitted.borrow_mut().remove(&page);
                    break;
                };
                let done = c.page == page;
                match c.result {
                    Ok(bytes) if verify_page(&bytes) => {
                        let data = self.install_completion(c.page, &bytes);
                        if done {
                            self.stats.borrow_mut().misses += 1;
                            return data.map_err(|e| undecodable(page, e));
                        }
                    }
                    _ => {
                        self.submitted.borrow_mut().remove(&c.page);
                        if done {
                            break; // retry synchronously below
                        }
                    }
                }
            }
        }
        // Cold miss: synchronous read with bounded retry.
        self.stats.borrow_mut().misses += 1;
        self.clock.charge_cpu(MISS_OVERHEAD_NS);
        let mut attempt = 1u32;
        let bytes = loop {
            let read = self.device.borrow_mut().read_sync(page, &self.clock);
            let mut e = match read {
                Ok(bytes) if verify_page(&bytes) => break bytes,
                Ok(_) => IoError::new(page, IoErrorKind::Corrupt),
                Err(e) => e,
            };
            // Retry backoff counts against the query's deadline: a wait
            // that would end past the I/O deadline is not taken, so a
            // deadlined query cannot spend unbounded sim-time retrying.
            let wakes_at = self.clock.now_ns() + backoff_ns(attempt + 1);
            let in_budget = self.io_deadline.get().is_none_or(|dl| wakes_at < dl);
            if !(e.retryable() && attempt < MAX_READ_ATTEMPTS && in_budget) {
                e.attempts = attempt;
                return Err(e);
            }
            attempt += 1;
            self.retries.set(self.retries.get() + 1);
            self.clock.wait_until(wakes_at);
        };
        let data = self.decoder.decode(page, &bytes, &self.clock);
        let data = Arc::new(data.map_err(|e| undecodable(page, e))?);
        self.insert(page, Arc::clone(&data));
        Ok(data)
    }

    /// Submits an asynchronous read for `page` unless it is already resident
    /// or in flight.
    pub fn prefetch(&self, page: PageId) {
        if self.frames.borrow().resident(page) || self.submitted.borrow().contains(&page) {
            return;
        }
        // A query past its deadline must stop issuing I/O: drop the
        // prefetch silently, like an already-in-flight page.
        if self.io_gate(page).is_some() {
            return;
        }
        self.stats.borrow_mut().prefetches += 1;
        self.submitted.borrow_mut().insert(page);
        self.device.borrow_mut().submit(page, &self.clock);
    }

    /// Retrieves one prefetched page that has completed, decoding and caching
    /// it. With `block = true` waits for a completion; returns `None` when
    /// nothing (further) is in flight.
    ///
    /// Failed, torn or undecodable completions are dropped, not installed:
    /// the page is simply no longer in flight, and the eventual demand fix
    /// re-reads it through the retry path and reports the error.
    pub fn fix_any_prefetched(&self, block: bool) -> Option<(PageId, Arc<T>)> {
        loop {
            let c = self.device.borrow_mut().poll(&self.clock, block)?;
            match c.result {
                Ok(bytes) if verify_page(&bytes) => {
                    if let Ok(data) = self.install_completion(c.page, &bytes) {
                        return Some((c.page, data));
                    }
                }
                _ => {
                    self.submitted.borrow_mut().remove(&c.page);
                }
            }
        }
    }

    /// Number of prefetches still in flight.
    pub fn in_flight(&self) -> usize {
        self.device.borrow().in_flight()
    }

    fn install_completion(&self, page: PageId, bytes: &Arc<[u8]>) -> Result<Arc<T>, DecodeError> {
        self.submitted.borrow_mut().remove(&page);
        self.stats.borrow_mut().async_loads += 1;
        self.clock.charge_cpu(MISS_OVERHEAD_NS);
        if let Some(existing) = self.frames.borrow_mut().get(page) {
            // Raced with a synchronous fix; keep the existing frame.
            return Ok(existing);
        }
        let data = Arc::new(self.decoder.decode(page, bytes, &self.clock)?);
        self.insert(page, Arc::clone(&data));
        Ok(data)
    }

    fn insert(&self, page: PageId, data: Arc<T>) {
        let capacity = self.params.capacity.max(1);
        let outcome = self.frames.borrow_mut().insert(page, data, capacity);
        let mut st = self.stats.borrow_mut();
        st.evictions += u64::from(outcome.evicted);
        st.capacity_overflows += u64::from(outcome.overflowed);
    }

    /// Drops `page` from the cache (after an in-place page update).
    ///
    /// # Panics
    /// Panics if the frame is pinned — mutating a page somebody still
    /// navigates would corrupt their view.
    pub fn invalidate(&self, page: PageId) {
        let removed = self.frames.borrow_mut().remove(page);
        assert!(removed, "invalidating pinned page {page}");
    }

    /// True if `page` is currently cached.
    pub fn is_resident(&self, page: PageId) -> bool {
        self.frames.borrow().resident(page)
    }

    /// Number of cached pages.
    pub fn resident_pages(&self) -> usize {
        self.frames.borrow().len()
    }

    /// Buffer statistics.
    pub fn stats(&self) -> BufferStats {
        *self.stats.borrow()
    }

    /// Device statistics, with the buffer's retry count folded in.
    pub fn device_stats(&self) -> DeviceStats {
        let mut stats = self.device.borrow().stats();
        stats.retries += self.retries.get();
        stats
    }

    /// Resets device statistics together with the buffer's retry counter.
    pub fn reset_device_stats(&self) {
        self.device.borrow_mut().reset_stats();
        self.retries.set(0);
    }

    /// Drains every in-flight request, discarding the completions, and
    /// forgets all submission records. Used when a plan aborts on an I/O
    /// error: the schedule queue must be empty before the executor returns,
    /// so no completion is left to confuse a later run.
    pub fn drain_inflight(&self) {
        while self.in_flight() > 0 {
            if self.device.borrow_mut().poll(&self.clock, true).is_none() {
                break;
            }
        }
        self.submitted.borrow_mut().clear();
    }

    /// Clears the cache and resets buffer statistics (device stats are left
    /// untouched; use [`Self::reset_device_stats`] for those). Pending
    /// prefetches are drained and discarded.
    pub fn reset(&self) {
        self.drain_inflight();
        self.frames.borrow_mut().clear();
        *self.stats.borrow_mut() = BufferStats::default();
    }
}

/// The error for a verified image of `page` that does not decode. One
/// attempt: decode is deterministic, so the buffer never retries it.
fn undecodable(page: PageId, e: DecodeError) -> IoError {
    IoError::new(page, IoErrorKind::Undecodable(e))
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::checksum::seal_page;
    use crate::fault::{FaultDevice, FaultKind, FaultPlan, FaultRule};
    use crate::sim_disk::{DiskProfile, SimDisk};

    /// Decoder that records the first byte of the page.
    struct FirstByte;
    impl PageDecoder<u8> for FirstByte {
        fn decode(
            &self,
            _page: PageId,
            bytes: &Arc<[u8]>,
            clock: &SimClock,
        ) -> Result<u8, DecodeError> {
            clock.charge_cpu(10);
            Ok(bytes[0])
        }
    }

    fn mk_buffer(pages: u32, capacity: usize) -> BufferManager<u8, FirstByte> {
        let mut dev = SimDisk::with_profile(16, DiskProfile::instant());
        for i in 0..pages {
            dev.append_page(vec![i as u8]);
        }
        let clock = Rc::new(SimClock::new());
        BufferManager::new(Box::new(dev), FirstByte, BufferParams { capacity }, clock)
    }

    #[test]
    fn fix_hits_after_first_load() {
        let b = mk_buffer(4, 4);
        assert_eq!(*b.fix(2), 2);
        assert_eq!(*b.fix(2), 2);
        let s = b.stats();
        assert_eq!(s.fixes, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_happens_at_capacity() {
        let b = mk_buffer(10, 2);
        b.fix(0);
        b.fix(1);
        b.fix(2); // evicts one of 0/1
        assert_eq!(b.resident_pages(), 2);
        assert_eq!(b.stats().evictions, 1);
    }

    #[test]
    fn pinned_frames_survive_eviction() {
        let b = mk_buffer(10, 2);
        let pinned = b.fix(0);
        b.fix(1);
        b.fix(2);
        b.fix(3);
        // Page 0 is pinned by `pinned` and must still be resident.
        assert!(b.is_resident(0));
        assert_eq!(*pinned, 0);
    }

    #[test]
    fn all_pinned_overflows_capacity() {
        let b = mk_buffer(10, 2);
        let _p0 = b.fix(0);
        let _p1 = b.fix(1);
        let _p2 = b.fix(2);
        assert!(b.stats().capacity_overflows >= 1);
        assert_eq!(b.resident_pages(), 3);
    }

    #[test]
    fn prefetch_then_fix_uses_async_path() {
        let b = mk_buffer(10, 4);
        b.prefetch(5);
        assert_eq!(b.in_flight(), 1);
        assert_eq!(*b.fix(5), 5);
        let s = b.stats();
        assert_eq!(s.prefetches, 1);
        assert_eq!(s.async_loads, 1);
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn prefetch_resident_is_noop() {
        let b = mk_buffer(10, 4);
        b.fix(3);
        b.prefetch(3);
        assert_eq!(b.stats().prefetches, 0);
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn duplicate_prefetch_submits_once() {
        let b = mk_buffer(10, 4);
        b.prefetch(7);
        b.prefetch(7);
        assert_eq!(b.stats().prefetches, 1);
        assert_eq!(b.in_flight(), 1);
    }

    #[test]
    fn fix_any_prefetched_returns_each_once() {
        let b = mk_buffer(10, 8);
        b.prefetch(1);
        b.prefetch(4);
        let mut got = Vec::new();
        while let Some((p, v)) = b.fix_any_prefetched(true) {
            assert_eq!(p as u8, *v);
            got.push(p);
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 4]);
    }

    #[test]
    fn decode_cost_charged_once_per_load() {
        let b = mk_buffer(4, 4);
        let cpu0 = b.clock().cpu_ns();
        b.fix(0);
        b.fix(0);
        // 2 fixes, 1 miss, 1 decode (10 ns in the test decoder)
        assert_eq!(
            b.clock().cpu_ns() - cpu0,
            2 * FIX_HIT_NS + MISS_OVERHEAD_NS + 10
        );
    }

    #[test]
    fn invalidate_drops_unpinned_frame() {
        let b = mk_buffer(4, 4);
        b.fix(1);
        assert!(b.is_resident(1));
        b.invalidate(1);
        assert!(!b.is_resident(1));
        b.invalidate(2); // absent page: no-op
    }

    #[test]
    #[should_panic(expected = "pinned")]
    fn invalidate_pinned_panics() {
        let b = mk_buffer(4, 4);
        let _pin = b.fix(1);
        b.invalidate(1);
    }

    #[test]
    fn reset_clears_cache_and_stats() {
        let b = mk_buffer(6, 4);
        b.fix(0);
        b.prefetch(1);
        b.reset();
        assert_eq!(b.resident_pages(), 0);
        assert_eq!(b.stats(), BufferStats::default());
        assert_eq!(b.in_flight(), 0);
    }

    /// Keeps the page image it is handed instead of copying out of it.
    struct Keep;
    impl PageDecoder<Arc<[u8]>> for Keep {
        fn decode(
            &self,
            _page: PageId,
            bytes: &Arc<[u8]>,
            _clock: &SimClock,
        ) -> Result<Arc<[u8]>, DecodeError> {
            Ok(Arc::clone(bytes))
        }
    }

    #[test]
    fn fix_path_copies_no_page_bytes() {
        // The fix path serves the simulated disk's own page allocation: a
        // sync miss, a prefetch completion and a hit each hand back the
        // very `Arc<[u8]>` the disk holds, never a copy of its bytes.
        let mut disk = SimDisk::with_profile(32, DiskProfile::default());
        for i in 0..8u8 {
            disk.append_page(vec![i]);
        }
        let clock = Rc::new(SimClock::new());
        let b = BufferManager::new(Box::new(disk), Keep, BufferParams::default(), clock);
        let miss = b.fix(3);
        b.prefetch(5);
        let completed = b.fix(5);
        let hit = b.fix(3);
        // Fixing the in-flight page 5 counts as a miss served by its
        // completion.
        let stats = b.stats();
        assert_eq!((stats.misses, stats.async_loads, stats.hits), (2, 1, 1));
        for (page, served) in [(3, miss), (5, completed), (3, hit)] {
            let on_disk = b.device_mut().read_sync(page, b.clock()).unwrap();
            assert!(Arc::ptr_eq(&*served, &on_disk), "page {page} was copied");
        }
    }

    #[test]
    fn decoder_is_handed_the_device_allocation() {
        // A decoder may keep the page image instead of copying out of it:
        // on a sync miss and on a prefetch completion alike, what it is
        // handed is the device's own allocation.
        let mut dev = SimDisk::with_profile(16, DiskProfile::instant());
        for i in 0..4u8 {
            dev.append_page(vec![i]);
        }
        let clock = Rc::new(SimClock::new());
        let b = BufferManager::new(Box::new(dev), Keep, BufferParams::default(), clock);
        b.prefetch(2);
        for page in [1, 2] {
            let kept = b.fix(page);
            let read = b.device_mut().read_sync(page, b.clock()).unwrap();
            assert!(Arc::ptr_eq(&*kept, &read), "page {page} was copied");
        }
        assert_eq!(b.stats().async_loads, 1);
    }

    fn faulty_buffer(rules: Vec<FaultRule>) -> BufferManager<u8, FirstByte> {
        let mut dev = SimDisk::with_profile(32, DiskProfile::instant());
        for i in 0..6u8 {
            let mut page = vec![i; 32];
            seal_page(&mut page);
            dev.append_page(page);
        }
        let faulty = FaultDevice::new(dev, FaultPlan::new(0xFA11, rules));
        BufferManager::new(
            Box::new(faulty),
            FirstByte,
            BufferParams::default(),
            Rc::new(SimClock::new()),
        )
    }

    #[test]
    fn transient_faults_heal_via_retry() {
        let b = faulty_buffer(vec![
            FaultRule::new(Some(2), FaultKind::TransientRead).times(2)
        ]);
        let t0 = b.clock().now_ns();
        assert_eq!(*b.try_fix(2).unwrap(), 2, "retry must absorb the fault");
        assert_eq!(b.device_stats().retries, 2);
        assert!(b.clock().now_ns() > t0, "backoff charged to the clock");
        // Healed page is cached: no further device traffic.
        assert_eq!(*b.try_fix(2).unwrap(), 2);
        assert_eq!(b.device_stats().retries, 2);
    }

    #[test]
    fn permanent_faults_surface_without_retry() {
        let b = faulty_buffer(vec![
            FaultRule::new(Some(1), FaultKind::PermanentRead).times(u32::MAX)
        ]);
        let e = b.try_fix(1).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::Permanent);
        assert_eq!(e.attempts, 1, "permanent errors are never retried");
        assert_eq!(b.device_stats().retries, 0);
    }

    #[test]
    fn persistent_corruption_exhausts_attempts() {
        let b = faulty_buffer(vec![
            FaultRule::new(Some(3), FaultKind::CorruptRead).times(u32::MAX)
        ]);
        let e = b.try_fix(3).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::Corrupt);
        assert_eq!(e.attempts, MAX_READ_ATTEMPTS);
        assert_eq!(b.device_stats().retries, (MAX_READ_ATTEMPTS - 1) as u64);
        assert!(!b.is_resident(3), "corrupt image must never be decoded");
    }

    #[test]
    fn failed_prefetch_completion_is_dropped_then_refetched() {
        let b = faulty_buffer(vec![FaultRule::new(Some(4), FaultKind::TransientRead)]);
        b.prefetch(4);
        // The async completion carries the transient error; the demand fix
        // drops it and heals through the synchronous retry path.
        assert_eq!(*b.try_fix(4).unwrap(), 4);
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn undecodable_pages_fail_once_and_are_never_cached() {
        let mut dev = SimDisk::with_profile(16, DiskProfile::instant());
        for i in 0..4u8 {
            dev.append_page(vec![i]);
        }
        let decode = |_: PageId, bytes: &Arc<[u8]>, _: &SimClock| match bytes[0] {
            2 => Err(DecodeError::Utf8),
            b => Ok(b),
        };
        let clock = Rc::new(SimClock::new());
        let b = BufferManager::new(Box::new(dev), decode, BufferParams::default(), clock);
        let undecodable = IoErrorKind::Undecodable(DecodeError::Utf8);
        let e = b.try_fix(2).unwrap_err();
        assert_eq!((e.kind, e.attempts), (undecodable, 1));
        assert_eq!(b.device_stats().retries, 0, "decode is never retried");
        assert!(!b.is_resident(2));
        // A prefetched image fails the same way at its demand fix...
        b.prefetch(2);
        let e = b.try_fix(2).unwrap_err();
        assert_eq!((e.kind, e.attempts), (undecodable, 1));
        // ...and is dropped, not handed out, by `fix_any_prefetched`.
        b.prefetch(2);
        b.prefetch(3);
        let got: Vec<_> = std::iter::from_fn(|| b.fix_any_prefetched(true))
            .map(|(page, data)| (page, *data))
            .collect();
        assert_eq!(got, vec![(3, 3)]);
        assert_eq!(b.in_flight(), 0);
        assert!(!b.is_resident(2));
    }

    #[test]
    fn drain_inflight_discards_pending_reads() {
        let b = mk_buffer(8, 4);
        b.prefetch(1);
        b.prefetch(5);
        b.drain_inflight();
        assert_eq!(b.in_flight(), 0);
        assert!(!b.is_resident(1), "drained completions are not installed");
        assert_eq!(*b.fix(1), 1);
    }

    #[test]
    fn interrupt_gate_serves_hits_but_refuses_misses() {
        let b = mk_buffer(8, 4);
        b.fix(0);
        // A deadline already passed arms the gate at once.
        b.set_io_deadline(Some(b.clock().now_ns()));
        // Hits stay free: wind-down code may still walk cached pages.
        assert_eq!(*b.try_fix(0).unwrap(), 0);
        let e = b.try_fix(1).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::Interrupted);
        // Prefetches are dropped rather than submitted.
        b.prefetch(2);
        assert_eq!(b.in_flight(), 0);
        assert_eq!(b.stats().prefetches, 0);
        b.set_io_deadline(None);
        assert_eq!(*b.try_fix(1).unwrap(), 1);
    }

    #[test]
    fn io_deadline_refuses_misses_once_passed() {
        let b = mk_buffer(8, 4);
        // Wide enough that the per-fix CPU charge does not cross it.
        b.set_io_deadline(Some(b.clock().now_ns() + 1_000_000_000));
        assert_eq!(*b.try_fix(0).unwrap(), 0, "before the deadline: served");
        b.clock().wait_until(b.clock().now_ns() + 2_000_000_000);
        let e = b.try_fix(1).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::Interrupted);
        b.set_io_deadline(None);
        assert_eq!(*b.try_fix(1).unwrap(), 1);
    }

    #[test]
    fn retry_backoff_is_clamped_to_io_deadline() {
        // Persistent corruption: untimed, the retry loop spends all four
        // attempts. With a deadline tighter than the first backoff, the
        // error surfaces after a single attempt and no sim-time is burned
        // waiting past the deadline.
        let b = faulty_buffer(vec![
            FaultRule::new(Some(3), FaultKind::CorruptRead).times(u32::MAX)
        ]);
        let dl = b.clock().now_ns() + RETRY_BACKOFF_NS / 2;
        b.set_io_deadline(Some(dl));
        let e = b.try_fix(3).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::Corrupt);
        assert_eq!(e.attempts, 1, "backoff past the deadline is not taken");
        assert_eq!(b.device_stats().retries, 0);
        assert!(
            b.clock().now_ns() < dl + RETRY_BACKOFF_NS,
            "no backoff sleep may run past the deadline"
        );
    }

    #[test]
    fn works_over_sim_disk_with_time() {
        let mut disk = SimDisk::with_profile(32, DiskProfile::default());
        for i in 0..5u8 {
            disk.append_page(vec![i]);
        }
        let clock = Rc::new(SimClock::new());
        let b = BufferManager::new(
            Box::new(disk),
            FirstByte,
            BufferParams::default(),
            Rc::clone(&clock),
        );
        b.fix(3);
        assert!(clock.io_wait_ns() > 0, "sync miss must wait on the disk");
        let wait = clock.io_wait_ns();
        b.fix(3);
        assert_eq!(clock.io_wait_ns(), wait, "hit must not touch the disk");
    }
}
