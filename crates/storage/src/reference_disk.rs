//! The original alloc-and-sort command-queue scheduler, kept as a test
//! oracle (compiled only under `cfg(test)`).
//!
//! [`ReferenceDisk`] is the original [`SimDisk`](crate::SimDisk) queue:
//! `pick_next` allocates and sorts the whole pending set on every serve
//! (O(n log n) per pick), which is what the indexed command queue replaced.
//! The equivalence property tests in `sim_disk.rs` assert that served
//! order, simulated times and statistics are bit-identical between the two
//! schedulers under both policies.
//!
//! It honours the [`Device`] out-of-range contract: a read of a page
//! `>= num_pages()` fails with a permanent [`IoError`] on both the sync and
//! the async path.

use crate::clock::SimClock;
use crate::device::{Completion, Device, DeviceStats, IoError, IoErrorKind, PageId};
use crate::sim_disk::{DiskProfile, Pending, QueuePolicy};
use std::collections::VecDeque;
use std::sync::Arc;

/// The original alloc-and-sort simulated disk (same cost model as
/// [`SimDisk`](crate::SimDisk), O(n log n) per pick).
pub struct ReferenceDisk {
    pages: Vec<Arc<[u8]>>,
    page_size: usize,
    profile: DiskProfile,
    policy: QueuePolicy,
    head: PageId,
    busy_until_ns: u64,
    pending: Vec<Pending>,
    completed: VecDeque<Completion>,
    next_seq: u64,
    stats: DeviceStats,
}

impl ReferenceDisk {
    /// An empty disk with `page_size`-byte pages and the given cost profile.
    pub fn with_profile(page_size: usize, profile: DiskProfile) -> Self {
        Self {
            pages: Vec::new(),
            page_size,
            profile,
            policy: QueuePolicy::default(),
            head: 0,
            busy_until_ns: 0,
            pending: Vec::new(),
            completed: VecDeque::new(),
            next_seq: 0,
            stats: DeviceStats::default(),
        }
    }

    /// Sets the command-queue policy.
    pub fn set_policy(&mut self, policy: QueuePolicy) {
        self.policy = policy;
    }

    /// The original pick: allocate an index Vec, sort it by submission
    /// sequence, truncate to the visible window, then scan linearly.
    fn pick_next(&self) -> Option<usize> {
        let mut idx: Vec<usize> = (0..self.pending.len()).collect();
        idx.sort_by_key(|&i| self.pending[i].seq);
        idx.truncate(self.visible_queue());
        let page = |i: usize| self.pending[i].page;
        match self.policy {
            QueuePolicy::Fifo => idx.first().copied(),
            QueuePolicy::ShortestSeekFirst => idx
                .iter()
                .copied()
                .min_by_key(|&i| (page(i).abs_diff(self.head), page(i))),
        }
    }

    fn visible_queue(&self) -> usize {
        if self.profile.queue_depth == 0 {
            self.pending.len()
        } else {
            self.profile.queue_depth.min(self.pending.len())
        }
    }

    fn serve(&mut self, i: usize) -> Completion {
        let queued = self.visible_queue().saturating_sub(1);
        let req = self.pending.swap_remove(i);
        let start = self.busy_until_ns.max(req.submitted_at_ns);
        let cost = self
            .profile
            .access_cost_queued_ns(self.head, req.page, queued);
        let finished = start + cost;
        self.account_read(req.page, cost);
        self.head = req.page + 1;
        self.busy_until_ns = finished;
        // `submit` queues only in-range pages, and pages are never removed.
        let bytes = Arc::clone(&self.pages[req.page as usize]);
        Completion::ok(req.page, bytes, finished)
    }

    fn account_read(&mut self, page: PageId, cost: u64) {
        self.stats.reads += 1;
        if page == self.head {
            self.stats.sequential_reads += 1;
        } else {
            self.stats.random_reads += 1;
            self.stats.seek_distance_pages += page.abs_diff(self.head) as u64;
        }
        self.stats.busy_ns += cost;
    }

    fn advance(&mut self, now_ns: u64) {
        while let Some(i) = self.pick_next() {
            let req = self.pending[i];
            let start = self.busy_until_ns.max(req.submitted_at_ns);
            let queued = self.visible_queue().saturating_sub(1);
            let cost = self
                .profile
                .access_cost_queued_ns(self.head, req.page, queued);
            if start + cost > now_ns {
                break;
            }
            let c = self.serve(i);
            self.completed.push_back(c);
        }
    }

    fn padded(&self, bytes: Vec<u8>) -> Arc<[u8]> {
        let mut b = bytes;
        b.resize(self.page_size, 0);
        Arc::from(b)
    }
}

fn permanent(page: PageId) -> IoError {
    IoError::new(page, IoErrorKind::Permanent)
}

impl Device for ReferenceDisk {
    fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        let bytes = self
            .pages
            .get(page as usize)
            .cloned()
            .ok_or_else(|| permanent(page))?;
        self.advance(clock.now_ns());
        let start = self.busy_until_ns.max(clock.now_ns());
        let cost = self.profile.access_cost_ns(self.head, page);
        self.account_read(page, cost);
        self.head = page + 1;
        self.busy_until_ns = start + cost;
        clock.wait_until(start + cost);
        Ok(bytes)
    }

    fn submit(&mut self, page: PageId, clock: &SimClock) {
        self.advance(clock.now_ns());
        if page >= self.num_pages() {
            let failed = Completion::err(page, permanent(page), clock.now_ns());
            self.completed.push_back(failed);
            return;
        }
        self.pending.push(Pending {
            page,
            submitted_at_ns: clock.now_ns(),
            seq: self.next_seq,
        });
        self.next_seq += 1;
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        self.advance(clock.now_ns());
        if let Some(c) = self.completed.pop_front() {
            clock.wait_until(c.finished_at_ns);
            return Some(c);
        }
        if !block {
            return None;
        }
        let c = self.serve(self.pick_next()?);
        clock.wait_until(c.finished_at_ns);
        Some(c)
    }

    fn in_flight(&self) -> usize {
        self.pending.len() + self.completed.len()
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        let id = self.pages.len() as PageId;
        let page = self.padded(bytes);
        self.pages.push(page);
        id
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        self.pages[page as usize] = self.padded(bytes);
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::tests::{assert_out_of_range_read_fails, with_pages};

    #[test]
    fn out_of_range_read_fails_typed() {
        let disk = ReferenceDisk::with_profile(64, DiskProfile::default());
        assert_out_of_range_read_fails(&mut with_pages(disk, 3));
    }
}
