//! # pathix-storage
//!
//! Paged storage substrate for the pathix XPath engine: storage devices with
//! an explicit physical cost model, an asynchronous I/O interface, and a
//! buffer manager that caches *decoded* page representations.
//!
//! The paper ("Cost-Sensitive Reordering of Navigational Primitives",
//! SIGMOD 2005) evaluates on a real disk. This crate substitutes a
//! deterministic simulated disk ([`SimDisk`]) that preserves the three I/O
//! regimes that drive the paper's results:
//!
//! 1. **random synchronous reads** — every request pays seek + rotational
//!    latency + transfer,
//! 2. **asynchronous batched reads** — the device is free to reorder queued
//!    commands (shortest-seek-first, modelling SCSI TCQ/NCQ), shrinking
//!    total head movement,
//! 3. **sequential scans** — consecutive pages pay transfer cost only.
//!
//! [`MemDevice`] offers a zero-cost device for unit tests. No device reads
//! a wall clock or runs a thread of its own: every time this crate reports
//! is simulated.
//!
//! Time is tracked on a [`SimClock`] in nanoseconds, split into CPU time and
//! I/O wait so that the paper's Table 3 (total vs. CPU time) can be
//! regenerated. Every simulated CPU charge is a constant in [`cost`].

pub mod buffer;
pub mod checksum;
pub mod clock;
pub mod cost;
pub mod device;
pub mod fault;
pub mod mem_device;
#[cfg(test)]
mod reference_disk;
pub mod shared_cache;
pub mod sim_disk;
pub mod slotted;
pub mod wal;

pub use buffer::{BufferManager, BufferParams, BufferStats, PageDecoder};
pub use checksum::{crc32, is_sealed, seal_page, verify_page, CHECKSUM_LEN};
pub use clock::{SimClock, TimeBreakdown};
pub use device::{Completion, Device, DeviceStats, IoError, IoErrorKind, PageId};
pub use fault::{splitmix64, FaultDevice, FaultKind, FaultPlan, FaultRule, FaultStats};
pub use mem_device::MemDevice;
pub use shared_cache::{lock, SharedCacheDevice, SharedPageCache, SharedPageCacheStats};
pub use sim_disk::{DiskProfile, QueuePolicy, SimDisk};
pub use slotted::{DecodeError, SlottedPageBuilder, SlottedPageReader};
pub use wal::{
    recover, Lsn, RecoveryReport, SnapshotDevice, SnapshotHandle, WalRecord, WriteAheadLog,
};
