//! The storage device abstraction: synchronous reads plus an asynchronous
//! submit/poll interface.
//!
//! The paper isolates all I/O for a location path in a single operator
//! (`XSchedule`/`XScan`) precisely so that requests can be *batched* and
//! handed to lower system layers, which reorder them based on physical
//! knowledge. [`Device::submit`] / [`Device::poll`] model that interface:
//! the caller queues any number of page requests and retrieves completions
//! in whatever order the device found cheapest.
//!
//! Reads can **fail**: both [`Device::read_sync`] and [`Completion`] carry
//! a `Result`, so an unreadable page surfaces as a typed [`IoError`] value
//! instead of a panic. The simulated disk is infallible by construction;
//! errors are introduced by the [`crate::fault`] decorator (and, above the
//! device, by checksum verification of page images).

use crate::clock::SimClock;
use crate::slotted::DecodeError;
use std::fmt;
use std::sync::Arc;

/// Identifier of a physical page on a device. Pages are numbered from zero in
/// physical (platter) order, so the distance between two `PageId`s is a proxy
/// for seek distance.
pub type PageId = u32;

/// How a page read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoErrorKind {
    /// The read failed but a retry may succeed (bus hiccup, dropped
    /// command). Absorbed by the buffer manager's retry policy.
    Transient,
    /// The read fails deterministically (bad sector). Never retried.
    Permanent,
    /// The page was read but its image failed checksum verification
    /// (torn write, bit rot). Retried — a transient corruption heals,
    /// persistent corruption exhausts the attempt budget.
    Corrupt,
    /// The read was refused above the device because the requesting query
    /// ran past its hard sim-time deadline (the buffer manager's governor
    /// gate; see `BufferManager::set_io_deadline`).
    /// Never retried — the query is winding down.
    Interrupted,
    /// The image verified but does not decode into records (a sealed page
    /// with a bad record: a crafted file or an updater bug). Never retried
    /// — decode is deterministic, so a reread fails the same way.
    Undecodable(DecodeError),
}

impl fmt::Display for IoErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoErrorKind::Transient => write!(f, "transient read error"),
            IoErrorKind::Permanent => write!(f, "permanent read error"),
            IoErrorKind::Corrupt => write!(f, "checksum mismatch"),
            IoErrorKind::Interrupted => write!(f, "read refused: query deadline"),
            IoErrorKind::Undecodable(e) => write!(f, "undecodable page: {e}"),
        }
    }
}

/// A failed page read, as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoError {
    /// The page whose read failed.
    pub page: PageId,
    /// Failure class (drives the retry decision).
    pub kind: IoErrorKind,
    /// Read attempts made when the error was surfaced. Devices report `1`;
    /// the buffer manager's retry loop overwrites it with the final count.
    pub attempts: u32,
}

impl IoError {
    /// A single-attempt device-level error.
    pub fn new(page: PageId, kind: IoErrorKind) -> Self {
        Self {
            page,
            kind,
            attempts: 1,
        }
    }

    /// True if a retry of the read is allowed to succeed.
    pub fn retryable(&self) -> bool {
        matches!(self.kind, IoErrorKind::Transient | IoErrorKind::Corrupt)
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "page {}: {} after {} attempt(s)",
            self.page, self.kind, self.attempts
        )
    }
}

impl std::error::Error for IoError {}

/// A completed asynchronous read.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The page that was read.
    pub page: PageId,
    /// Raw page bytes on success, shared with the device's own page store —
    /// cloning a `Completion` (or handing it to the buffer manager) bumps a
    /// reference count, it never copies the page image. On failure, the
    /// error describing why the page is unreadable.
    pub result: Result<Arc<[u8]>, IoError>,
    /// Simulated time at which the device finished (or failed) the read.
    pub finished_at_ns: u64,
}

impl Completion {
    /// A successful completion.
    pub fn ok(page: PageId, bytes: Arc<[u8]>, finished_at_ns: u64) -> Self {
        Self {
            page,
            result: Ok(bytes),
            finished_at_ns,
        }
    }

    /// A failed completion.
    pub fn err(page: PageId, error: IoError, finished_at_ns: u64) -> Self {
        Self {
            page,
            result: Err(error),
            finished_at_ns,
        }
    }
}

/// Cumulative device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Total page reads served (sync + async).
    pub reads: u64,
    /// Reads that were physically sequential (previous page + 1).
    pub sequential_reads: u64,
    /// Reads that required head movement.
    pub random_reads: u64,
    /// Sum of absolute head movement, in pages.
    pub seek_distance_pages: u64,
    /// Total simulated nanoseconds the device spent busy.
    pub busy_ns: u64,
    /// Read retries performed above the device by the buffer manager's
    /// retry policy (devices themselves report 0; the buffer folds its
    /// count in via `BufferManager::device_stats`).
    pub retries: u64,
}

crate::clock::counter_algebra!(DeviceStats {
    reads,
    sequential_reads,
    random_reads,
    seek_distance_pages,
    busy_ns,
    retries,
});

/// A block storage device holding fixed-size pages.
///
/// All methods take the shared [`SimClock`]; a device with a cost model
/// advances it when the caller blocks.
///
/// **Base devices and wrappers.** A base device ([`crate::SimDisk`], the
/// one outside tests; on [`crate::DiskProfile::instant`] it costs nothing)
/// stores pages and implements every method from `num_pages` to
/// `reset_stats`, plus whichever of the optional ones it supports. A
/// wrapper (a decorator stacked on another device) instead implements
/// [`Device::inner`] and [`Device::inner_mut`]:
/// every method except [`Device::try_fork`] then forwards to the wrapped
/// device by default, and the wrapper overrides only what it changes. A
/// wrapper that can be forked overrides `try_fork` to re-wrap its inner
/// device's fork. A device that implements neither the hooks nor the
/// methods has no pages: `read_sync` fails with [`IoErrorKind::Permanent`],
/// and submissions and writes are dropped.
pub trait Device {
    /// The device this one wraps, or `None` for a base device.
    fn inner(&self) -> Option<&dyn Device> {
        None
    }

    /// Mutable access to the wrapped device, or `None` for a base device.
    fn inner_mut(&mut self) -> Option<&mut dyn Device> {
        None
    }

    /// Number of pages on the device.
    fn num_pages(&self) -> u32 {
        self.inner().map_or(0, |d| d.num_pages())
    }

    /// Page size in bytes.
    fn page_size(&self) -> usize {
        self.inner().map_or(0, |d| d.page_size())
    }

    /// Reads a page synchronously, blocking the clock for the access cost.
    /// The returned bytes are shared with the device where possible
    /// (`&Arc<[u8]>` deref-coerces to `&[u8]` at call sites). Fails with a
    /// typed [`IoError`] when the page is unreadable, including a page at
    /// or beyond [`Device::num_pages`].
    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        match self.inner_mut() {
            Some(d) => d.read_sync(page, clock),
            None => Err(IoError::new(page, IoErrorKind::Permanent)),
        }
    }

    /// Submits an asynchronous read request. The device may serve queued
    /// requests in any order. A page at or beyond [`Device::num_pages`]
    /// comes back from [`Device::poll`] as a failed [`Completion`].
    fn submit(&mut self, page: PageId, clock: &SimClock) {
        if let Some(d) = self.inner_mut() {
            d.submit(page, clock);
        }
    }

    /// Retrieves one completed asynchronous read.
    ///
    /// With `block = true`, waits (advancing the clock) until a request
    /// completes; returns `None` only if no requests are pending.
    /// With `block = false`, returns `None` if nothing has completed by the
    /// current simulated time. A failed read still produces a
    /// [`Completion`] (carrying the error), so submitted requests are
    /// never silently lost.
    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        self.inner_mut()?.poll(clock, block)
    }

    /// Number of submitted but not yet retrieved requests (pending plus
    /// completed-but-unpolled).
    fn in_flight(&self) -> usize {
        self.inner().map_or(0, |d| d.in_flight())
    }

    /// Appends a page, returning its id. Used when building a database.
    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        match self.inner_mut() {
            Some(d) => d.append_page(bytes),
            None => 0,
        }
    }

    /// Overwrites an existing page.
    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        if let Some(d) = self.inner_mut() {
            d.write_page(page, bytes);
        }
    }

    /// Cumulative statistics.
    fn stats(&self) -> DeviceStats {
        self.inner()
            .map_or_else(DeviceStats::default, |d| d.stats())
    }

    /// Resets statistics (not contents or head position).
    fn reset_stats(&mut self) {
        if let Some(d) = self.inner_mut() {
            d.reset_stats();
        }
    }

    /// Returns the recorded page-access trace, if tracing is enabled, and
    /// an empty slice otherwise.
    fn access_trace(&self) -> &[PageId] {
        match self.inner() {
            Some(d) => d.access_trace(),
            None => &[],
        }
    }

    /// Enables or disables access-order tracing (used by the Example 1
    /// reproduction to show the page access order of each plan). Devices
    /// that do not trace ignore it.
    fn set_trace(&mut self, enabled: bool) {
        if let Some(d) = self.inner_mut() {
            d.set_trace(enabled);
        }
    }

    /// Restores the fork-fresh *physical* state — head parked, busy window
    /// cleared — without touching contents or statistics. The governed
    /// executor calls this at each item's cold start so an item's
    /// sim-timeline is a function of the item alone, never of whatever the
    /// worker served before it. Must only be called with no requests in
    /// flight. Devices with no positional state ignore it.
    fn park(&mut self) {
        if let Some(d) = self.inner_mut() {
            d.park();
        }
    }

    /// Forks an independent, `Send` view of the same stored pages for use by
    /// a parallel worker: page images are shared by reference count (zero
    /// copies), while queue state, head position, and statistics start
    /// fresh. Devices that cannot offer this (e.g. ones bound to external
    /// resources) return `None`, which is also the default — a wrapper's
    /// fork must be re-wrapped, so this one method never forwards.
    fn try_fork(&self) -> Option<Box<dyn Device + Send>> {
        None
    }
}

/// Boxed trait objects are devices too, so decorators generic over
/// `D: Device` (e.g. [`crate::fault::FaultDevice`]) can wrap the boxed
/// forks returned by [`Device::try_fork`]. The box adds no behaviour: its
/// fork is the boxed device's own fork, already boxed.
impl Device for Box<dyn Device + Send> {
    fn inner(&self) -> Option<&dyn Device> {
        Some(&**self)
    }

    fn inner_mut(&mut self) -> Option<&mut dyn Device> {
        Some(&mut **self)
    }

    fn try_fork(&self) -> Option<Box<dyn Device + Send>> {
        (**self).try_fork()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::{seal_page, FaultDevice, FaultPlan, SharedCacheDevice, SharedPageCache};
    use crate::{SimDisk, SnapshotDevice};

    /// `d` with `n` sealed pages appended; page `i` is filled with byte `i`.
    pub(crate) fn with_pages<D: Device>(mut d: D, n: u8) -> D {
        for i in 0..n {
            let mut page = vec![i; d.page_size()];
            seal_page(&mut page);
            d.append_page(page);
        }
        d
    }

    /// A read of page `num_pages()` fails with a typed permanent error on
    /// both the sync and the async path, and counts as no read.
    pub(crate) fn assert_out_of_range_read_fails(dev: &mut dyn Device) {
        let clock = SimClock::new();
        let page = dev.num_pages();
        let permanent = Err(IoError::new(page, IoErrorKind::Permanent));
        assert_eq!(dev.read_sync(page, &clock), permanent);
        dev.submit(page, &clock);
        assert_eq!(dev.in_flight(), 1);
        assert_eq!(dev.poll(&clock, true).map(|c| c.result), Some(permanent));
        assert_eq!((dev.in_flight(), dev.stats().reads), (0, 0));
    }

    /// `park` reaches the disk through every wrapper: after some reads, a
    /// parked stack reads page 0 at the device cost a fresh fork pays.
    #[test]
    fn park_reaches_the_disk_through_every_wrapper() {
        let disk = with_pages(SimDisk::new(64), 64);
        let clock = SimClock::new();
        let read_page_0 = |dev: &mut dyn Device| {
            let busy = dev.stats().busy_ns;
            dev.read_sync(0, &clock).unwrap();
            dev.stats().busy_ns - busy
        };
        let fresh = read_page_0(&mut disk.try_fork().unwrap());
        type Wrap = fn(Box<dyn Device + Send>) -> Box<dyn Device>;
        let wraps: [(&str, Wrap); 4] = [
            ("Box", |d| Box::new(d)),
            ("FaultDevice", |d| {
                Box::new(FaultDevice::new(d, FaultPlan::none()))
            }),
            ("SharedCacheDevice", |d| {
                Box::new(SharedCacheDevice::new(d, Arc::new(SharedPageCache::new())))
            }),
            ("SnapshotDevice", |d| Box::new(SnapshotDevice::new(d).0)),
        ];
        for (name, wrap) in wraps {
            let mut dev = wrap(disk.try_fork().unwrap());
            for page in [40, 9, 57] {
                dev.read_sync(page, &clock).unwrap();
            }
            dev.park();
            assert_eq!(read_page_0(&mut *dev), fresh, "{name}");
        }
    }

    #[test]
    fn io_error_display_and_retryability() {
        let e = IoError::new(7, IoErrorKind::Transient);
        assert!(e.retryable());
        assert!(e.to_string().contains("page 7"));
        let p = IoError::new(3, IoErrorKind::Permanent);
        assert!(!p.retryable());
        let c = IoError::new(9, IoErrorKind::Corrupt);
        assert!(c.retryable());
        assert!(c.to_string().contains("checksum"));
        let i = IoError::new(4, IoErrorKind::Interrupted);
        assert!(!i.retryable(), "a winding-down query must not retry");
        assert!(i.to_string().contains("refused"));
        let u = IoError::new(5, IoErrorKind::Undecodable(DecodeError::Utf8));
        assert!(
            !u.retryable(),
            "decode is deterministic: a reread fails again"
        );
        assert!(u
            .to_string()
            .contains("undecodable page: payload is not UTF-8"));
    }

    #[test]
    fn completion_constructors() {
        let bytes: Arc<[u8]> = Arc::from(vec![1u8, 2]);
        let ok = Completion::ok(1, Arc::clone(&bytes), 5);
        assert!(ok.result.is_ok());
        let err = Completion::err(2, IoError::new(2, IoErrorKind::Permanent), 6);
        assert_eq!(err.result, Err(IoError::new(2, IoErrorKind::Permanent)));
    }
}
