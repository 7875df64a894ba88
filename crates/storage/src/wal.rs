//! Redo-only write-ahead logging and crash recovery.
//!
//! The paper's requirement 2 (§1) demands storage formats "that support
//! synchronization and recovery" — the property the scan-optimized
//! competitor formats lack. pathix's page-oriented updates make recovery
//! straightforward: every page write is logged as a full after-image
//! (physical redo, ARIES-lite without undo since updates are applied
//! atomically per page), and [`recover`] replays the durable prefix of the
//! log onto the device.
//!
//! [`SnapshotDevice`] wraps any device with snapshot/crash semantics so
//! tests can verify that *committed* updates survive a crash that wipes
//! all in-place page writes.

use crate::checksum::verify_page;
use crate::clock::SimClock;
use crate::device::{Completion, Device, IoError, PageId};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Log sequence number.
pub type Lsn = u64;

/// One redo record: the after-image of a page.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Sequence number.
    pub lsn: Lsn,
    /// Page the image belongs to.
    pub page: PageId,
    /// Full page after-image.
    pub image: Vec<u8>,
}

/// An append-only redo log.
///
/// `flush` marks the current tail durable — only flushed records survive a
/// crash (the WAL protocol: flush before acknowledging a commit).
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    records: Vec<WalRecord>,
    durable: usize,
    next_lsn: Lsn,
}

impl WriteAheadLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a page after-image, returning its LSN. Not yet durable.
    pub fn log_page(&mut self, page: PageId, image: Vec<u8>) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records.push(WalRecord { lsn, page, image });
        lsn
    }

    /// Makes everything logged so far durable.
    pub fn flush(&mut self) {
        self.durable = self.records.len();
    }

    /// Number of records logged / durable.
    pub fn len(&self) -> (usize, usize) {
        (self.records.len(), self.durable)
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The durable prefix (what a crash preserves).
    pub fn durable_records(&self) -> &[WalRecord] {
        &self.records[..self.durable]
    }

    /// Simulates the crash from the log's perspective: un-flushed records
    /// are lost.
    pub fn crash(&mut self) {
        self.records.truncate(self.durable);
        self.next_lsn = self.records.last().map(|r| r.lsn + 1).unwrap_or(0);
    }
}

/// Outcome of a [`recover`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Durable page images replayed onto the device.
    pub applied: usize,
    /// Durable records whose after-image failed checksum verification
    /// (rotted in the log) and were skipped instead of written back.
    pub skipped_corrupt: usize,
}

/// Replays the durable prefix of `wal` onto `device` (idempotent).
///
/// Every after-image is checksum-verified before it is written back: a
/// record that rotted in the log is skipped and counted in
/// [`RecoveryReport::skipped_corrupt`] rather than silently installing
/// garbage the navigation layer would then decode.
pub fn recover(device: &mut dyn Device, wal: &WriteAheadLog) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    for rec in wal.durable_records() {
        if !verify_page(&rec.image) {
            report.skipped_corrupt += 1;
            continue;
        }
        // Pages created after the snapshot may not exist yet.
        while device.num_pages() <= rec.page {
            device.append_page(Vec::new());
        }
        device.write_page(rec.page, rec.image.clone());
        report.applied += 1;
    }
    report
}

struct SnapshotInner {
    /// Baseline page images at snapshot time (shared with the device's own
    /// page store on simulated backends — taking a snapshot copies nothing).
    baseline: Option<Vec<Arc<[u8]>>>,
    crash_requested: bool,
}

/// Shared control handle for a [`SnapshotDevice`] (keep a clone before
/// boxing the device).
#[derive(Clone)]
pub struct SnapshotHandle {
    inner: Rc<RefCell<SnapshotInner>>,
}

/// Wraps a device with snapshot/crash semantics: `snapshot()` captures the
/// current page images; `crash()` discards every write since (modelling a
/// power failure before any in-place write reached stable storage).
pub struct SnapshotDevice<D: Device> {
    device: D,
    inner: Rc<RefCell<SnapshotInner>>,
}

impl<D: Device> SnapshotDevice<D> {
    /// Wraps `device`, returning the device and its control handle.
    pub fn new(device: D) -> (Self, SnapshotHandle) {
        let inner = Rc::new(RefCell::new(SnapshotInner {
            baseline: None,
            crash_requested: false,
        }));
        (
            Self {
                device,
                inner: Rc::clone(&inner),
            },
            SnapshotHandle { inner },
        )
    }
}

impl SnapshotHandle {
    /// Requests a snapshot at the device's next operation.
    pub fn snapshot(&self) {
        self.inner.borrow_mut().baseline = Some(Vec::new());
        self.inner.borrow_mut().crash_requested = false;
    }

    /// Requests a crash (restore to snapshot) at the next operation.
    pub fn crash(&self) {
        self.inner.borrow_mut().crash_requested = true;
    }
}

impl<D: Device> SnapshotDevice<D> {
    fn service_control(&mut self) {
        let mut inner = self.inner.borrow_mut();
        let needs_snapshot =
            matches!(&inner.baseline, Some(b) if b.is_empty()) && !inner.crash_requested;
        if needs_snapshot {
            // Take the snapshot now.
            let clock = SimClock::new();
            let page_size = self.device.page_size();
            let mut pages = Vec::with_capacity(self.device.num_pages() as usize);
            for p in 0..self.device.num_pages() {
                // An unreadable page snapshots as a zeroed image — the crash
                // model cares about writes, not about replaying device
                // faults at snapshot time.
                let image = self
                    .device
                    .read_sync(p, &clock)
                    .unwrap_or_else(|_| Arc::from(vec![0u8; page_size]));
                pages.push(image);
            }
            inner.baseline = Some(pages);
        }
        if inner.crash_requested {
            inner.crash_requested = false;
            let baseline = inner.baseline.clone().expect("crash needs a snapshot");
            drop(inner);
            // Restore: truncate/extend to the snapshot and rewrite images.
            for (p, image) in baseline.iter().enumerate() {
                self.device.write_page(p as PageId, image.to_vec());
            }
            // Pages appended after the snapshot keep existing but are
            // zeroed (a real file would be truncated; empty slotted pages
            // decode as empty clusters either way).
            for p in baseline.len() as u32..self.device.num_pages() {
                self.device.write_page(p, Vec::new());
            }
        }
    }
}

impl<D: Device> Device for SnapshotDevice<D> {
    fn inner(&self) -> Option<&dyn Device> {
        Some(&self.device)
    }

    fn inner_mut(&mut self) -> Option<&mut dyn Device> {
        Some(&mut self.device)
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        self.service_control();
        self.device.read_sync(page, clock)
    }

    fn submit(&mut self, page: PageId, clock: &SimClock) {
        self.service_control();
        self.device.submit(page, clock)
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        self.service_control();
        self.device.poll(clock, block)
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        self.service_control();
        self.device.append_page(bytes)
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        self.service_control();
        self.device.write_page(page, bytes)
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::mem_device::MemDevice;

    fn dev_with(n: u8) -> MemDevice {
        crate::device::tests::with_pages(MemDevice::new(16), n)
    }

    #[test]
    fn log_flush_and_durable_prefix() {
        let mut wal = WriteAheadLog::new();
        wal.log_page(0, vec![1]);
        wal.log_page(1, vec![2]);
        wal.flush();
        wal.log_page(2, vec![3]);
        assert_eq!(wal.len(), (3, 2));
        wal.crash();
        assert_eq!(wal.len(), (2, 2));
        assert_eq!(wal.durable_records().len(), 2);
        // LSNs continue after the crash point.
        let lsn = wal.log_page(5, vec![9]);
        assert_eq!(lsn, 2);
    }

    #[test]
    fn recover_replays_durable_images() {
        let mut device = dev_with(3);
        let mut wal = WriteAheadLog::new();
        wal.log_page(1, vec![42]);
        wal.log_page(4, vec![77]); // page beyond current end
        wal.flush();
        wal.log_page(2, vec![99]); // not durable
        let report = recover(&mut device, &wal);
        assert_eq!(report.applied, 2);
        assert_eq!(report.skipped_corrupt, 0);
        let clock = SimClock::new();
        assert_eq!(device.read_sync(1, &clock).unwrap()[0], 42);
        assert_eq!(device.read_sync(4, &clock).unwrap()[0], 77);
        assert_eq!(
            device.read_sync(2, &clock).unwrap()[0],
            2,
            "undurable write not applied"
        );
    }

    #[test]
    fn recover_skips_and_counts_corrupt_images() {
        use crate::checksum::seal_page;
        let mut device = dev_with(3);
        let mut wal = WriteAheadLog::new();
        let mut good = vec![42u8; 16];
        seal_page(&mut good);
        let mut rotted = vec![77u8; 16];
        seal_page(&mut rotted);
        rotted[3] ^= 0x10; // bit rot in the log after sealing
        wal.log_page(0, good);
        wal.log_page(1, rotted);
        wal.flush();
        let report = recover(&mut device, &wal);
        assert_eq!(
            report,
            RecoveryReport {
                applied: 1,
                skipped_corrupt: 1
            }
        );
        let clock = SimClock::new();
        assert_eq!(device.read_sync(0, &clock).unwrap()[0], 42);
        assert_eq!(
            device.read_sync(1, &clock).unwrap()[0],
            1,
            "corrupt image must not be written back"
        );
    }

    #[test]
    fn snapshot_crash_restores_baseline() {
        let (mut dev, handle) = SnapshotDevice::new(dev_with(2));
        handle.snapshot();
        let clock = SimClock::new();
        let _ = dev.read_sync(0, &clock); // snapshot taken lazily here
        dev.write_page(0, vec![200]);
        dev.append_page(vec![201]);
        handle.crash();
        assert_eq!(dev.read_sync(0, &clock).unwrap()[0], 0, "write rolled back");
        assert_eq!(
            dev.read_sync(2, &clock).unwrap()[0],
            0,
            "post-snapshot page zeroed"
        );
    }

    #[test]
    fn wal_plus_crash_equals_committed_state() {
        // The end-to-end protocol: log + write, flush at commit, crash,
        // recover — committed writes survive, uncommitted do not.
        let (dev, handle) = SnapshotDevice::new(dev_with(3));
        let mut dev: Box<dyn Device> = Box::new(dev);
        let clock = SimClock::new();
        let _ = dev.read_sync(0, &clock);
        handle.snapshot();
        let _ = dev.read_sync(0, &clock); // trigger snapshot capture

        let mut wal = WriteAheadLog::new();
        // Committed transaction.
        wal.log_page(0, vec![10]);
        dev.write_page(0, vec![10]);
        wal.log_page(1, vec![11]);
        dev.write_page(1, vec![11]);
        wal.flush(); // commit
                     // Uncommitted transaction.
        wal.log_page(2, vec![12]);
        dev.write_page(2, vec![12]);

        handle.crash();
        wal.crash();
        let _ = dev.read_sync(0, &clock); // apply crash
        assert_eq!(
            dev.read_sync(0, &clock).unwrap()[0],
            0,
            "all in-place writes lost"
        );

        let report = recover(dev.as_mut(), &wal);
        assert_eq!(report.applied, 2);
        assert_eq!(dev.read_sync(0, &clock).unwrap()[0], 10);
        assert_eq!(dev.read_sync(1, &clock).unwrap()[0], 11);
        assert_eq!(
            dev.read_sync(2, &clock).unwrap()[0],
            2,
            "uncommitted write gone"
        );
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut device = dev_with(2);
        let mut wal = WriteAheadLog::new();
        wal.log_page(0, vec![5]);
        wal.flush();
        recover(&mut device, &wal);
        recover(&mut device, &wal);
        let clock = SimClock::new();
        assert_eq!(device.read_sync(0, &clock).unwrap()[0], 5);
    }
}
