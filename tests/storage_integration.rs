//! Storage-level integration: simulated-disk timing is deterministic, and
//! the clock/stats plumbing is consistent end to end.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::{Database, DatabaseOptions, DeviceKind, Method};
use pathix_tree::Placement;

/// Identical configuration ⇒ identical simulated timings, byte for byte.
#[test]
fn simulated_runs_are_deterministic() {
    let run_once = || {
        let db = Database::from_xmark(
            0.03,
            &DatabaseOptions {
                page_size: 4096,
                buffer_pages: 24,
                ..Default::default()
            },
        )
        .unwrap();
        db.clear_buffers();
        db.reset_device_stats();
        let r = db.run("count(//description)", Method::xschedule()).unwrap();
        (r.value, r.report.time, r.report.device, r.report.buffer)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "simulated time must be deterministic");
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

/// The FIFO-device ablation degrades (or at best equals) XSchedule.
#[test]
fn fifo_device_not_faster_for_xschedule() {
    let mk = |device| {
        Database::from_xmark(
            0.05,
            &DatabaseOptions {
                page_size: 4096,
                buffer_pages: 16,
                placement: Placement::Shuffled { seed: 2 },
                device,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let sstf = mk(DeviceKind::SimDisk);
    let fifo = mk(DeviceKind::SimDiskFifo);
    let q = "count(/site/regions//item)";
    let t_sstf = {
        sstf.clear_buffers();
        sstf.run(q, Method::xschedule())
            .unwrap()
            .report
            .total_secs()
    };
    let t_fifo = {
        fifo.clear_buffers();
        fifo.run(q, Method::xschedule())
            .unwrap()
            .report
            .total_secs()
    };
    assert!(
        t_sstf <= t_fifo * 1.001,
        "reordering device must not be slower: {t_sstf} vs {t_fifo}"
    );
}

/// Buffer capacity shrinks hit rates but never changes answers.
#[test]
fn buffer_capacity_sweep_consistent() {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.03));
    let mut last = None;
    let mut hit_rates = Vec::new();
    for pages in [4usize, 16, 64, 1024] {
        let db = Database::from_document(
            &doc,
            &DatabaseOptions {
                page_size: 4096,
                buffer_pages: pages,
                device: DeviceKind::Mem,
                placement: Placement::Shuffled { seed: 1 },
                ..Default::default()
            },
        )
        .unwrap();
        let run = db.run("count(//description)", Method::Simple).unwrap();
        if let Some(prev) = last {
            assert_eq!(run.value, prev);
        }
        last = Some(run.value);
        hit_rates.push(run.report.buffer.hit_rate());
    }
    assert!(
        hit_rates.windows(2).all(|w| w[0] <= w[1] + 1e-9),
        "hit rate should not decrease with capacity: {hit_rates:?}"
    );
}
