//! An in-memory device with zero access cost — the "infinitely fast disk"
//! used by unit tests and by logic-only experiments where physical cost is
//! irrelevant.

use crate::clock::SimClock;
use crate::device::{Completion, Device, DeviceStats, IoError, IoErrorKind, PageId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Zero-latency in-memory page store.
///
/// Still keeps full statistics and an optional access trace, so tests can
/// assert *which* pages a plan touches without caring about time.
pub struct MemDevice {
    pages: Vec<Arc<[u8]>>,
    page_size: usize,
    queued: VecDeque<PageId>,
    stats: DeviceStats,
    trace: Option<Vec<PageId>>,
    last: Option<PageId>,
}

impl MemDevice {
    /// Creates an empty device.
    pub fn new(page_size: usize) -> Self {
        Self {
            pages: Vec::new(),
            page_size,
            queued: VecDeque::new(),
            stats: DeviceStats::default(),
            trace: None,
            last: None,
        }
    }

    fn account(&mut self, page: PageId) {
        self.stats.reads += 1;
        match self.last {
            Some(l) if page == l + 1 => self.stats.sequential_reads += 1,
            Some(l) => {
                self.stats.random_reads += 1;
                self.stats.seek_distance_pages += page.abs_diff(l + 1) as u64;
            }
            None => self.stats.random_reads += 1,
        }
        self.last = Some(page);
        if let Some(t) = self.trace.as_mut() {
            t.push(page);
        }
    }
}

impl Device for MemDevice {
    fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_sync(&mut self, page: PageId, _clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        let bytes = self
            .pages
            .get(page as usize)
            .map(Arc::clone)
            .ok_or(IoError::new(page, IoErrorKind::Permanent))?;
        self.account(page);
        Ok(bytes)
    }

    fn submit(&mut self, page: PageId, _clock: &SimClock) {
        self.queued.push_back(page);
    }

    fn poll(&mut self, clock: &SimClock, _block: bool) -> Option<Completion> {
        let page = self.queued.pop_front()?;
        let now = clock.now_ns();
        Some(match self.pages.get(page as usize).map(Arc::clone) {
            Some(bytes) => {
                self.account(page);
                Completion::ok(page, bytes, now)
            }
            None => Completion::err(page, IoError::new(page, IoErrorKind::Permanent), now),
        })
    }

    fn in_flight(&self) -> usize {
        self.queued.len()
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        assert!(bytes.len() <= self.page_size, "page overflow");
        let id = self.pages.len() as PageId;
        let mut b = bytes;
        b.resize(self.page_size, 0);
        self.pages.push(Arc::from(b));
        id
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        assert!(bytes.len() <= self.page_size, "page overflow");
        let mut b = bytes;
        b.resize(self.page_size, 0);
        self.pages[page as usize] = Arc::from(b);
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
    }

    fn access_trace(&self) -> &[PageId] {
        self.trace.as_deref().unwrap_or(&[])
    }

    fn set_trace(&mut self, enabled: bool) {
        if enabled {
            self.trace.get_or_insert_with(Vec::new);
        } else {
            self.trace = None;
        }
    }

    fn try_fork(&self) -> Option<Box<dyn Device + Send>> {
        let mut fork = MemDevice::new(self.page_size);
        // `Arc` clones: the fork shares every page image with the original.
        fork.pages = self.pages.clone();
        Some(Box::new(fork))
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn roundtrip() {
        let mut d = MemDevice::new(16);
        let a = d.append_page(vec![1, 2]);
        let b = d.append_page(vec![3]);
        let clock = SimClock::new();
        assert_eq!(&d.read_sync(a, &clock).unwrap()[..2], &[1, 2]);
        assert_eq!(d.read_sync(b, &clock).unwrap()[0], 3);
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(d.stats().reads, 2);
    }

    #[test]
    fn async_fifo() {
        let mut d = MemDevice::new(16);
        for i in 0..3u8 {
            d.append_page(vec![i]);
        }
        let clock = SimClock::new();
        d.submit(2, &clock);
        d.submit(0, &clock);
        assert_eq!(d.in_flight(), 2);
        assert_eq!(d.poll(&clock, true).unwrap().page, 2);
        assert_eq!(d.poll(&clock, true).unwrap().page, 0);
        assert!(d.poll(&clock, true).is_none());
    }

    #[test]
    fn sequential_accounting() {
        let mut d = MemDevice::new(16);
        for i in 0..4u8 {
            d.append_page(vec![i]);
        }
        let clock = SimClock::new();
        d.read_sync(0, &clock).unwrap();
        d.read_sync(1, &clock).unwrap();
        d.read_sync(3, &clock).unwrap();
        let s = d.stats();
        assert_eq!(s.sequential_reads, 1);
        assert_eq!(s.random_reads, 2);
        assert_eq!(s.seek_distance_pages, 1); // from head=2 to page 3
    }

    #[test]
    fn out_of_range_read_fails_typed() {
        let mut d = MemDevice::new(8);
        d.append_page(vec![1]);
        crate::device::tests::assert_out_of_range_read_fails(&mut d);
    }

    #[test]
    fn write_page_overwrites() {
        let mut d = MemDevice::new(8);
        let p = d.append_page(vec![1]);
        d.write_page(p, vec![9, 9]);
        let clock = SimClock::new();
        assert_eq!(&d.read_sync(p, &clock).unwrap()[..2], &[9, 9]);
    }
}
