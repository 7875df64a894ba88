//! End-to-end crash recovery over the stored tree: committed updates
//! survive a crash that wipes every in-place page write; uncommitted
//! updates vanish cleanly.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_storage::{
    recover, BufferParams, DiskProfile, SimClock, SimDisk, SnapshotDevice, WriteAheadLog,
};
use pathix_tree::export::export;
use pathix_tree::{
    import_into, ImportConfig, InsertPos, NewNode, Placement, TreeStore, TreeUpdater,
};
use pathix_xml::Document;
use std::cell::RefCell;
use std::rc::Rc;

fn build() -> (Document, TreeStore, pathix_storage::SnapshotHandle) {
    let mut doc = Document::new("r");
    for i in 0..10 {
        let a = doc.add_element(doc.root(), "a");
        doc.add_text(a, &format!("payload {i}"));
    }
    let mut dev = SimDisk::with_profile(512, DiskProfile::instant());
    let (meta, _) = import_into(
        &mut dev,
        &doc,
        &ImportConfig {
            page_size: 512,
            placement: Placement::Sequential,
        },
    )
    .unwrap();
    let (snap_dev, handle) = SnapshotDevice::new(dev);
    let store = TreeStore::open(
        Box::new(snap_dev),
        meta,
        BufferParams { capacity: 32 },
        Rc::new(SimClock::new()),
    );
    (doc, store, handle)
}

#[test]
fn committed_updates_survive_a_crash() {
    let (mut doc, mut store, handle) = build();
    // Trigger lazy snapshot capture, then attach the WAL.
    handle.snapshot();
    {
        let mut dev = store.buffer.device_mut();
        let clock = SimClock::new();
        let _ = dev.read_sync(0, &clock);
    }
    let wal = Rc::new(RefCell::new(WriteAheadLog::new()));
    store.attach_wal(Rc::clone(&wal));

    // Committed transaction: two inserts + commit.
    let root = store.meta.root;
    {
        let mut up = TreeUpdater::new(&mut store);
        up.insert(
            InsertPos::FirstChildOf(root),
            NewNode::Element("committed".into()),
        )
        .unwrap();
        up.commit();
    }
    doc.insert_element_first(doc.root(), "committed");
    let committed_snapshot = export(&store);
    assert!(doc.logically_equal(&committed_snapshot));

    // Uncommitted transaction: an insert without a commit.
    {
        let mut up = TreeUpdater::new(&mut store);
        up.insert(
            InsertPos::FirstChildOf(root),
            NewNode::Element("lost".into()),
        )
        .unwrap();
        // no commit
    }

    // Crash: all in-place writes gone; un-flushed WAL records gone.
    handle.crash();
    wal.borrow_mut().crash();
    store.buffer.reset();
    {
        let mut dev = store.buffer.device_mut();
        let clock = SimClock::new();
        let _ = dev.read_sync(0, &clock); // apply the crash
        let report = recover(dev.as_mut(), &wal.borrow());
        assert!(report.applied >= 1, "committed page images must replay");
        assert_eq!(report.skipped_corrupt, 0, "sealed WAL images must verify");
    }
    store.buffer.reset();

    // The store now reflects exactly the committed state.
    let after = export(&store);
    assert!(
        committed_snapshot.logically_equal(&after),
        "recovered state must equal the committed state"
    );
    // The uncommitted element is gone.
    let has_lost = after
        .descendants_or_self(after.root())
        .any(|n| after.tag_name(n) == Some("lost"));
    assert!(!has_lost);
}

#[test]
fn crash_without_any_commit_restores_import_state() {
    let (doc, mut store, handle) = build();
    handle.snapshot();
    {
        let mut dev = store.buffer.device_mut();
        let clock = SimClock::new();
        let _ = dev.read_sync(0, &clock);
    }
    let wal = Rc::new(RefCell::new(WriteAheadLog::new()));
    store.attach_wal(Rc::clone(&wal));
    let root = store.meta.root;
    {
        let mut up = TreeUpdater::new(&mut store);
        for i in 0..5 {
            let _ = up.insert(
                InsertPos::FirstChildOf(root),
                NewNode::Element(format!("x{i}")),
            );
        }
    }
    handle.crash();
    wal.borrow_mut().crash();
    store.buffer.reset();
    {
        let mut dev = store.buffer.device_mut();
        let clock = SimClock::new();
        let _ = dev.read_sync(0, &clock);
        assert_eq!(recover(dev.as_mut(), &wal.borrow()).applied, 0);
    }
    store.buffer.reset();
    assert!(doc.logically_equal(&export(&store)));
}
