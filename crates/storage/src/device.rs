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
//! instead of a panic. The simulated and in-memory devices are infallible
//! by construction; errors are introduced by the [`crate::fault`] decorator
//! (and, above the device, by checksum verification of page images).

use crate::clock::SimClock;
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
    /// was canceled or ran past its hard sim-time deadline (the buffer
    /// manager's governor gate; see `BufferManager::set_interrupted`).
    /// Never retried — the query is winding down.
    Interrupted,
}

impl fmt::Display for IoErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoErrorKind::Transient => write!(f, "transient read error"),
            IoErrorKind::Permanent => write!(f, "permanent read error"),
            IoErrorKind::Corrupt => write!(f, "checksum mismatch"),
            IoErrorKind::Interrupted => write!(f, "read refused: query deadline/cancel"),
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
    /// Fresh page-image materializations (full-page byte copies) performed
    /// while serving reads. Simulated and in-memory devices serve reads by
    /// reference (`Arc` clone) and keep this at zero; real file-backed
    /// devices necessarily copy once per read from the kernel.
    pub page_copies: u64,
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
    page_copies,
    retries,
});

impl DeviceStats {
    /// Fraction of reads that were sequential, in `[0, 1]`.
    pub fn sequential_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.sequential_reads as f64 / self.reads as f64
        }
    }
}

/// A block storage device holding fixed-size pages.
///
/// All methods take the shared [`SimClock`]; simulated devices advance it
/// when the caller blocks, real devices charge measured wall time.
pub trait Device {
    /// Number of pages on the device.
    fn num_pages(&self) -> u32;

    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// Reads a page synchronously, blocking the clock for the access cost.
    /// The returned bytes are shared with the device where possible
    /// (`&Arc<[u8]>` deref-coerces to `&[u8]` at call sites). Fails with a
    /// typed [`IoError`] when the page is unreadable.
    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError>;

    /// Submits an asynchronous read request. The device may serve queued
    /// requests in any order.
    fn submit(&mut self, page: PageId, clock: &SimClock);

    /// Retrieves one completed asynchronous read.
    ///
    /// With `block = true`, waits (advancing the clock) until a request
    /// completes; returns `None` only if no requests are pending.
    /// With `block = false`, returns `None` if nothing has completed by the
    /// current simulated time. A failed read still produces a
    /// [`Completion`] (carrying the error), so submitted requests are
    /// never silently lost.
    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion>;

    /// Number of submitted but not yet retrieved requests (pending plus
    /// completed-but-unpolled).
    fn in_flight(&self) -> usize;

    /// Appends a page, returning its id. Used when building a database.
    fn append_page(&mut self, bytes: Vec<u8>) -> PageId;

    /// Overwrites an existing page.
    fn write_page(&mut self, page: PageId, bytes: Vec<u8>);

    /// Cumulative statistics.
    fn stats(&self) -> DeviceStats;

    /// Resets statistics (not contents or head position).
    fn reset_stats(&mut self);

    /// Returns the recorded page-access trace, if tracing is enabled.
    /// The default implementation returns an empty slice.
    fn access_trace(&self) -> &[PageId] {
        &[]
    }

    /// Enables or disables access-order tracing (used by the Example 1
    /// reproduction to show the page access order of each plan).
    fn set_trace(&mut self, _enabled: bool) {}

    /// Restores the fork-fresh *physical* state — head parked, busy window
    /// cleared — without touching contents or statistics. The governed
    /// executor calls this at each item's cold start so an item's
    /// sim-timeline is a function of the item alone, never of whatever the
    /// worker served before it. Must only be called with no requests in
    /// flight. Devices with no positional state need not override the
    /// default no-op.
    fn park(&mut self) {}

    /// Forks an independent, `Send` view of the same stored pages for use by
    /// a parallel worker: page images are shared by reference count (zero
    /// copies), while queue state, head position, and statistics start
    /// fresh. Devices that cannot offer this (e.g. ones bound to external
    /// resources) return `None`, which is also the default.
    fn try_fork(&self) -> Option<Box<dyn Device + Send>> {
        None
    }
}

/// Boxed trait objects are devices too, so decorators generic over
/// `D: Device` (e.g. [`crate::fault::FaultDevice`]) can wrap the boxed
/// forks returned by [`Device::try_fork`].
impl Device for Box<dyn Device + Send> {
    fn num_pages(&self) -> u32 {
        (**self).num_pages()
    }

    fn page_size(&self) -> usize {
        (**self).page_size()
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        (**self).read_sync(page, clock)
    }

    fn submit(&mut self, page: PageId, clock: &SimClock) {
        (**self).submit(page, clock);
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        (**self).poll(clock, block)
    }

    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        (**self).append_page(bytes)
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        (**self).write_page(page, bytes);
    }

    fn stats(&self) -> DeviceStats {
        (**self).stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats();
    }

    fn access_trace(&self) -> &[PageId] {
        (**self).access_trace()
    }

    fn set_trace(&mut self, enabled: bool) {
        (**self).set_trace(enabled);
    }

    fn try_fork(&self) -> Option<Box<dyn Device + Send>> {
        (**self).try_fork()
    }

    fn park(&mut self) {
        (**self).park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_fraction_empty() {
        assert_eq!(DeviceStats::default().sequential_fraction(), 0.0);
    }

    #[test]
    fn sequential_fraction_half() {
        let s = DeviceStats {
            reads: 4,
            sequential_reads: 2,
            random_reads: 2,
            ..Default::default()
        };
        assert!((s.sequential_fraction() - 0.5).abs() < 1e-12);
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
