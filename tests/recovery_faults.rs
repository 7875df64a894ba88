//! Crash-recovery regression tests under **write-path** fault injection
//! (DESIGN.md §11): a WAL whose frame store tears or drops an append must
//! come back from a crash with the torn frame *skipped and reported* —
//! never replayed as garbage — and recovery itself must heal in-place page
//! writes that the platter lost or tore.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::storage::{
    recover, seal_page, verify_page, Device, DiskProfile, FaultDevice, FaultKind, FaultPlan,
    FaultRule, SimClock, SimDisk, WriteAheadLog,
};

const PAGE: usize = 64;

fn sealed(fill: u8) -> Vec<u8> {
    let mut v = vec![fill; PAGE];
    seal_page(&mut v);
    v
}

fn data_device(pages: u8) -> SimDisk {
    let mut d = SimDisk::with_profile(PAGE, DiskProfile::instant());
    for i in 0..pages {
        d.append_page(sealed(i));
    }
    d
}

/// The WAL-append fault: frames are persisted through a `FaultDevice`
/// acting as the log's frame store. A torn append stores a bit-flipped
/// frame; on recovery the frame fails verification and is skipped and
/// counted — the page it would have redone keeps its pre-crash image.
#[test]
fn torn_wal_append_is_skipped_and_reported() {
    // Frame store: appends 0 and 2 are clean, append 1 is stored torn.
    let plan = FaultPlan::new(0xF1A7, vec![FaultRule::new(Some(1), FaultKind::TornWrite)]);
    let mut log_store = FaultDevice::new(
        SimDisk::with_profile(PAGE, DiskProfile::instant()),
        plan.clone(),
    );
    let clock = SimClock::new();

    // Three committed page writes, each logged as a full after-image and
    // persisted to the frame store before the commit is acknowledged.
    let images = [sealed(10), sealed(11), sealed(12)];
    let mut wal = WriteAheadLog::new();
    for (page, image) in images.iter().enumerate() {
        let frame = log_store.append_page(image.clone());
        wal.log_page(
            page as u32,
            log_store.read_sync(frame, &clock).unwrap().to_vec(),
        );
    }
    wal.flush();
    assert_eq!(plan.stats().torn_writes, 1, "the schedule actually fired");

    // Crash: all in-place writes are lost; only the logged frames remain.
    let mut device = data_device(3);
    let report = recover(&mut device, &wal);
    assert_eq!(report.applied, 2);
    assert_eq!(
        report.skipped_corrupt, 1,
        "torn frame skipped, not replayed"
    );

    // Pages 0 and 2 carry the redone images; page 1 keeps its pre-crash
    // image instead of the garbage the torn frame would have installed.
    assert_eq!(device.read_sync(0, &clock).unwrap()[0], 10);
    assert_eq!(device.read_sync(2, &clock).unwrap()[0], 12);
    assert_eq!(device.read_sync(1, &clock).unwrap()[0], 1);
    assert!(verify_page(&device.read_sync(1, &clock).unwrap()));
}

/// A dropped WAL append leaves a zero-filled frame, which carries the
/// *unsealed* sentinel — it would verify trivially, so recovery cannot
/// tell it from a legitimate raw image. The commit protocol catches it
/// earlier instead: frames are read back and checked for a seal before
/// the commit is acknowledged, so the transaction is never made durable.
#[test]
fn dropped_wal_append_is_caught_by_commit_readback() {
    use pathix::storage::is_sealed;
    let plan = FaultPlan::new(
        0xD20,
        vec![FaultRule::new(Some(0), FaultKind::DroppedWrite)],
    );
    let mut log_store = FaultDevice::new(
        SimDisk::with_profile(PAGE, DiskProfile::instant()),
        plan.clone(),
    );
    let clock = SimClock::new();

    let mut wal = WriteAheadLog::new();
    let frame = log_store.append_page(sealed(55));
    let read_back = log_store.read_sync(frame, &clock).unwrap();
    assert_eq!(plan.stats().dropped_writes, 1);
    assert!(
        !is_sealed(&read_back),
        "read-back verification exposes the dropped append"
    );
    // The commit is refused: nothing durable, so the crash loses the
    // transaction cleanly instead of replaying a zeroed page image.
    wal.crash();
    let mut device = data_device(1);
    let report = recover(&mut device, &wal);
    assert_eq!((report.applied, report.skipped_corrupt), (0, 0));
    assert_eq!(device.read_sync(0, &clock).unwrap()[0], 0, "old image kept");
}

/// In-place write faults on the *data* device are exactly what the WAL
/// protocol exists for: the log holds clean after-images, so recovery
/// heals a dropped or torn page write back to the committed state.
#[test]
fn recovery_heals_dropped_and_torn_page_writes() {
    let plan = FaultPlan::new(
        0xEA1,
        vec![
            FaultRule::new(Some(0), FaultKind::DroppedWrite),
            FaultRule::new(Some(1), FaultKind::TornWrite),
        ],
    );
    let mut device = FaultDevice::new(data_device(2), plan.clone());
    let clock = SimClock::new();

    // Committed transaction: log first, then write in place. Page 0's
    // write is silently lost; page 1's lands torn.
    let images = [sealed(20), sealed(21)];
    let mut wal = WriteAheadLog::new();
    for (page, image) in images.iter().enumerate() {
        wal.log_page(page as u32, image.clone());
        device.write_page(page as u32, image.clone());
    }
    wal.flush();
    let stats = plan.stats();
    assert_eq!((stats.dropped_writes, stats.torn_writes), (1, 1));

    // The damage is real and detectable before recovery runs.
    assert_eq!(device.read_sync(0, &clock).unwrap()[0], 0, "write dropped");
    assert!(
        !verify_page(&device.read_sync(1, &clock).unwrap()),
        "write torn"
    );

    // Recovery replays the clean logged images over the damage. The fault
    // rules are spent, so the redo writes land intact.
    let report = recover(&mut device, &wal);
    assert_eq!((report.applied, report.skipped_corrupt), (2, 0));
    for (page, image) in images.iter().enumerate() {
        let got = device.read_sync(page as u32, &clock).unwrap();
        assert_eq!(
            &got[..],
            &image[..],
            "page {page} healed to committed state"
        );
        assert!(verify_page(&got));
    }
}
