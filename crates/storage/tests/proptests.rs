//! Property tests for the storage substrate: slotted-page round-trips and
//! simulated-disk scheduling invariants.

use pathix_storage::{
    Device, DiskProfile, QueuePolicy, SimClock, SimDisk, SlottedPageBuilder, SlottedPageReader,
};
use proptest::prelude::*;

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
        let mut d = SimDisk::new(32);
        for _ in 0..300 {
            d.append_page(vec![0]);
        }
        d.set_policy(policy);
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

    /// Reordering policies never yield a larger total batch makespan than
    /// FIFO (completion of the last request).
    #[test]
    fn reordering_never_hurts_makespan(
        pages in prop::collection::vec(0u32..2000, 2..40),
    ) {
        let run = |policy: QueuePolicy| {
            let mut d = SimDisk::new(32);
            for _ in 0..2000 {
                d.append_page(vec![0]);
            }
            d.set_policy(policy);
            let clock = SimClock::new();
            for &p in &pages {
                d.submit(p, &clock);
            }
            while d.poll(&clock, true).is_some() {}
            clock.now_ns()
        };
        let fifo = run(QueuePolicy::Fifo);
        let sstf = run(QueuePolicy::ShortestSeekFirst);
        // SSTF greedily minimizes each next access; for a batch submitted at
        // t=0 with our monotone cost model it never loses to FIFO.
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
