//! Property tests for the storage substrate: slotted-page round-trips and
//! simulated-disk scheduling invariants.

use pathix_storage::{
    Device, DiskProfile, QueuePolicy, SimClock, SimDisk, SlottedPageBuilder, SlottedPageReader,
};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// Any set of records that fits a page round-trips bit-exactly.
    #[test]
    fn slotted_page_roundtrip(records in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..40), 0..30
    )) {
        // At most 30 records of at most 39 bytes always fit 4096 bytes.
        let mut b = SlottedPageBuilder::new(4096, records.len());
        for r in &records {
            b.push_with(|page| page.extend_from_slice(r));
        }
        let bytes = b.finish();
        prop_assert_eq!(bytes.len(), 4096);
        let reader = SlottedPageReader::new(&bytes);
        prop_assert_eq!(reader.len(), records.len());
        for (i, want) in records.iter().enumerate() {
            prop_assert_eq!(reader.record(i as u16), &want[..]);
        }
    }

    /// Every submitted request completes exactly once, whatever the policy.
    #[test]
    fn all_submissions_complete(
        pages in prop::collection::vec(0u32..300, 1..60),
        policy in prop::sample::select(vec![QueuePolicy::Fifo, QueuePolicy::ShortestSeekFirst]),
    ) {
        let mut d = SimDisk::with_profile(32, DiskProfile { policy, ..DiskProfile::default() });
        for _ in 0..300 {
            d.append_page(vec![0]);
        }
        let clock = SimClock::new();
        for &p in &pages {
            d.submit(p, &clock);
        }
        let mut got = Vec::new();
        while let Some(c) = d.poll(&clock, true) {
            got.push(c.page);
        }
        let mut want = pages.clone();
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert_eq!(d.in_flight(), 0);
    }

    /// From a parked head, SSTF never seeks further than FIFO, and never
    /// has a larger batch makespan (completion of the last request).
    ///
    /// Both claims need the head parked at page 0 and distinct pages. Then
    /// every page lies at or above the head, SSTF serves the batch in one
    /// ascending sweep, and no other order seeks fewer pages. The makespan
    /// claim also needs no two pages adjacent: every read then seeks (but a
    /// first read of page 0), so both orders pay the same rotational charge
    /// at each step. `sim_disk::tests::sstf_can_lose_to_fifo` shows SSTF
    /// losing when either precondition fails.
    #[test]
    fn reordering_never_hurts_makespan(
        pages in prop::collection::vec(0u32..1000, 2..40),
    ) {
        let mut seen = HashSet::new();
        let distinct: Vec<u32> = pages.into_iter().filter(|&p| seen.insert(p)).collect();
        let spread: Vec<u32> = distinct.iter().map(|&p| 2 * p).collect();
        let run = |policy, pages: &[u32]| {
            let mut d = SimDisk::with_profile(32, DiskProfile { policy, ..DiskProfile::default() });
            for _ in 0..2000 {
                d.append_page(vec![0]);
            }
            let clock = SimClock::new();
            for &p in pages {
                d.submit(p, &clock);
            }
            while d.poll(&clock, true).is_some() {}
            (clock.now_ns(), d.stats().seek_distance_pages)
        };
        let (_, fifo_seek) = run(QueuePolicy::Fifo, &distinct);
        let (_, sstf_seek) = run(QueuePolicy::ShortestSeekFirst, &distinct);
        prop_assert!(sstf_seek <= fifo_seek, "sstf seeks {sstf_seek} > fifo {fifo_seek}");
        let (fifo, _) = run(QueuePolicy::Fifo, &spread);
        let (sstf, _) = run(QueuePolicy::ShortestSeekFirst, &spread);
        prop_assert!(sstf <= fifo, "sstf {sstf} > fifo {fifo}");
    }

    /// Simulated time is monotone and cost accounting consistent.
    #[test]
    fn clock_monotone_under_mixed_ops(
        ops in prop::collection::vec((0u32..100, any::<bool>()), 1..50),
    ) {
        let mut d = SimDisk::with_profile(32, DiskProfile::default());
        for _ in 0..100 {
            d.append_page(vec![0]);
        }
        let clock = SimClock::new();
        let mut last = 0;
        for &(page, asynch) in &ops {
            if asynch {
                d.submit(page, &clock);
            } else {
                let _ = d.read_sync(page, &clock);
            }
            prop_assert!(clock.now_ns() >= last);
            last = clock.now_ns();
        }
        while d.poll(&clock, true).is_some() {}
        prop_assert!(clock.now_ns() >= last);
        let b = clock.breakdown();
        prop_assert_eq!(b.total_ns, b.cpu_ns + b.io_wait_ns);
    }
}
