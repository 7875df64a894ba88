//! Deterministic simulated disk with seek/rotation/transfer cost model and a
//! reordering command queue.
//!
//! This is the substitution for the paper's physical test disk. The model
//! captures what matters for the paper's experiments:
//!
//! * a **synchronous random read** pays `seek(distance) + rotational latency
//!   + transfer`,
//! * a **sequential read** (previous page + 1) pays transfer only —
//!   the regime the `XScan` operator exploits,
//! * **queued asynchronous requests** are served in an order the *device*
//!   chooses (shortest-seek-first; FIFO for ablation A6), modelling the
//!   reordering performed by the OS scheduler and on-disk controllers
//!   (SCSI TCQ / SATA NCQ) that the `XSchedule` operator delegates to.
//!
//! The device runs "in the background": requests submitted while the CPU is
//! busy complete during that CPU time and do not stall the caller — this is
//! what makes asynchronous plans overlap computation and I/O.
//!
//! ## Command-queue complexity
//!
//! The pending set is an **incrementally maintained visible-window index**
//! (`CommandQueue`): picking the next command is O(1) for FIFO and
//! O(log w) for SSTF (w = visible window size), and serving a
//! command is O(log w) — no allocation and no re-sort per serve. The
//! original alloc-and-sort implementation survives as the test-only
//! `reference_disk::ReferenceDisk`; property tests in this file prove the
//! indexed queue serves the identical order at the identical simulated
//! times under both policies.
//!
//! Page contents are held as `Arc<[u8]>`: serving a read clones a
//! reference count, never the page image.

use crate::clock::SimClock;
use crate::device::{Completion, Device, DeviceStats, IoError, IoErrorKind, PageId};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// Physical cost parameters of the simulated disk, in nanoseconds.
///
/// Defaults approximate a 2005-era 7200 rpm drive with 8 KiB pages:
/// average full access ≈ 6–9 ms, sequential transfer ≈ 133 µs/page
/// (~60 MB/s).
#[derive(Debug, Clone, Copy)]
pub struct DiskProfile {
    /// Fixed cost of starting any head movement.
    pub seek_base_ns: u64,
    /// Seek cost coefficient: `seek = seek_base + coef * sqrt(distance)`.
    pub seek_sqrt_coef_ns: u64,
    /// Upper bound on seek time (full-stroke seek).
    pub seek_max_ns: u64,
    /// Average rotational latency paid on every non-sequential access.
    pub rotational_ns: u64,
    /// Per-page transfer time.
    pub transfer_ns: u64,
    /// Fixed command overhead per request (controller processing).
    pub command_overhead_ns: u64,
    /// Maximum number of queued commands visible to the reordering logic
    /// (models NCQ/TCQ queue depth). `0` means unlimited.
    pub queue_depth: usize,
    /// Order in which the visible queued commands are served.
    pub policy: QueuePolicy,
}

impl Default for DiskProfile {
    fn default() -> Self {
        Self {
            seek_base_ns: 800_000,       // 0.8 ms settle
            seek_sqrt_coef_ns: 72_000,   // ≈ 8 ms at distance 10_000 pages
            seek_max_ns: 9_000_000,      // 9 ms full stroke
            rotational_ns: 3_000_000,    // ~7200 rpm average
            transfer_ns: 133_000,        // 8 KiB at ~60 MB/s
            command_overhead_ns: 20_000, // 20 µs controller overhead
            queue_depth: 0,
            policy: QueuePolicy::ShortestSeekFirst,
        }
    }
}

impl DiskProfile {
    /// The zero-cost profile: every access takes no simulated time, so a
    /// [`SimDisk`] on it is the zero-cost device of tests and logic-only
    /// runs, still counting reads and recording the access trace. The
    /// queue stays unbounded and shortest-seek-first.
    pub fn instant() -> Self {
        Self {
            seek_base_ns: 0,
            seek_sqrt_coef_ns: 0,
            seek_max_ns: 0,
            rotational_ns: 0,
            transfer_ns: 0,
            command_overhead_ns: 0,
            ..Self::default()
        }
    }

    /// Cost of accessing `page` when the head sits at `head` (the position
    /// just past the previously read page).
    pub fn access_cost_ns(&self, head: PageId, page: PageId) -> u64 {
        self.access_cost_queued_ns(head, page, 0)
    }

    /// Cost of accessing `page` with `queued` other commands visible to the
    /// controller. Deep queues shrink the *expected rotational delay*: a
    /// controller doing shortest-positioning-time-first picks a request
    /// whose sector is about to pass under the head, so with `n` uniformly
    /// distributed queued requests the expected delay is ≈ `T_rot/(n+1)`
    /// — the mechanism behind SCSI TCQ / SATA NCQ gains the paper's
    /// `XSchedule` delegates to (§3.7).
    pub fn access_cost_queued_ns(&self, head: PageId, page: PageId, queued: usize) -> u64 {
        if page == head {
            // Physically sequential: no seek, no rotational delay.
            self.command_overhead_ns + self.transfer_ns
        } else {
            let dist = head.abs_diff(page) as u64;
            let seek = self
                .seek_max_ns
                .min(self.seek_base_ns + self.seek_sqrt_coef_ns * isqrt(dist));
            let rot = self.rotational_ns / (queued.min(15) as u64 + 1);
            self.command_overhead_ns + seek + rot + self.transfer_ns
        }
    }
}

/// Integer square root (floor).
fn isqrt(v: u64) -> u64 {
    if v < 2 {
        return v;
    }
    let mut x = (v as f64).sqrt() as u64;
    // Correct potential floating-point error (widen to u128: saturating
    // u64 arithmetic would loop forever near u64::MAX).
    while (x as u128) * (x as u128) > v as u128 {
        x -= 1;
    }
    while ((x + 1) as u128) * ((x + 1) as u128) <= v as u128 {
        x += 1;
    }
    x
}

/// Order in which the device serves queued commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// First-in first-out — no reordering (baseline for ablations).
    Fifo,
    /// Shortest seek time first: always serve the request closest to the
    /// current head position.
    ShortestSeekFirst,
}

/// One queued read command (shared with the test-only `reference_disk`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pending {
    pub(crate) page: PageId,
    pub(crate) submitted_at_ns: u64,
    pub(crate) seq: u64,
}

/// The reordering command queue: an incrementally maintained index over the
/// pending set.
///
/// Only the oldest `limit` submissions are *visible* to the reordering
/// logic, like a bounded hardware queue (NCQ/TCQ window). The visible
/// window is kept in two synchronized views plus an overflow list:
///
/// * `window` — `BTreeMap<(PageId, seq), submitted_at_ns>`: a position
///   index. The SSTF pick is a two-sided range scan from the
///   current head position: O(log w).
/// * `window_fifo` — the same window in submission order; the FIFO pick is
///   an amortized O(1) front peek. Commands served out of the middle are
///   marked in `served_out_of_order` and lazily dropped when they surface.
/// * `backlog` — submissions beyond the window, in submission order;
///   promoted front-first as serves free window slots.
///
/// Every operation is allocation-free after the containers warm up;
/// nothing is re-sorted, ever.
#[derive(Debug, Default)]
struct CommandQueue {
    window: BTreeMap<(PageId, u64), u64>,
    window_fifo: VecDeque<(u64, PageId)>,
    served_out_of_order: HashSet<u64>,
    backlog: VecDeque<Pending>,
    /// Visible-window capacity (`usize::MAX` = unbounded).
    limit: usize,
}

impl CommandQueue {
    fn new(queue_depth: usize) -> Self {
        Self {
            limit: if queue_depth == 0 {
                usize::MAX
            } else {
                queue_depth
            },
            ..Self::default()
        }
    }

    /// Total pending commands (visible + backlog).
    fn len(&self) -> usize {
        self.window.len() + self.backlog.len()
    }

    fn is_empty(&self) -> bool {
        self.window.is_empty() && self.backlog.is_empty()
    }

    /// Number of commands visible to the reordering/positioning logic —
    /// the single source of truth for the queue-depth window (used by the
    /// pick, by serve-time cost accounting, and by the stats).
    fn window_len(&self) -> usize {
        self.window.len()
    }

    fn push(&mut self, p: Pending) {
        // Invariant: a non-empty backlog implies a full window, so a new
        // submission (which has the largest seq) is visible iff a slot is
        // free.
        if self.window.len() < self.limit {
            self.window.insert((p.page, p.seq), p.submitted_at_ns);
            self.window_fifo.push_back((p.seq, p.page));
        } else {
            self.backlog.push_back(p);
        }
    }

    /// Removes a previously picked command and promotes the backlog front
    /// into the freed window slot.
    fn remove(&mut self, req: Pending) {
        if self.window.remove(&(req.page, req.seq)).is_some() {
            self.served_out_of_order.insert(req.seq);
            while self.window.len() < self.limit {
                let Some(p) = self.backlog.pop_front() else {
                    break;
                };
                self.window.insert((p.page, p.seq), p.submitted_at_ns);
                self.window_fifo.push_back((p.seq, p.page));
            }
        } else {
            // Degraded pick straight from an inconsistent backlog: drop it
            // there (seq-ordered, so a binary search locates it).
            let i = self.backlog.partition_point(|p| p.seq < req.seq);
            if self.backlog.get(i).is_some_and(|p| p.seq == req.seq) {
                self.backlog.remove(i);
            }
        }
    }

    /// Oldest visible command (FIFO head), amortized O(1).
    fn fifo_front(&mut self) -> Option<Pending> {
        while let Some(&(seq, page)) = self.window_fifo.front() {
            if self.served_out_of_order.remove(&seq) {
                self.window_fifo.pop_front();
                continue;
            }
            let submitted_at_ns = *self.window.get(&(page, seq))?;
            return Some(Pending {
                page,
                submitted_at_ns,
                seq,
            });
        }
        None
    }

    /// Oldest visible command for `page`, O(log w).
    fn first_of_page(&self, page: PageId) -> Option<Pending> {
        self.window.range((page, 0)..=(page, u64::MAX)).next().map(
            |(&(p, seq), &submitted_at_ns)| Pending {
                page: p,
                submitted_at_ns,
                seq,
            },
        )
    }

    /// Shortest-seek pick: nearest visible page to `head`, ties broken
    /// toward the smaller page, then the oldest submission for that page —
    /// exactly the reference oracle's `(distance, page)` ordering.
    fn sstf_pick(&self, head: PageId) -> Option<Pending> {
        let up = self
            .window
            .range((head, 0)..)
            .next()
            .map(|(&(p, seq), &at)| (p, seq, at));
        let down = self
            .window
            .range(..(head, 0))
            .next_back()
            .map(|(&(p, _), _)| p)
            .and_then(|p| self.first_of_page(p));
        match (up, down) {
            (Some((p, seq, at)), None) => Some(Pending {
                page: p,
                submitted_at_ns: at,
                seq,
            }),
            (None, Some(d)) => Some(d),
            (Some((p, seq, at)), Some(d)) => {
                // d.page < head <= p, so on a distance tie the smaller
                // page (down) wins.
                if p.abs_diff(head) < d.page.abs_diff(head) {
                    Some(Pending {
                        page: p,
                        submitted_at_ns: at,
                        seq,
                    })
                } else {
                    Some(d)
                }
            }
            (None, None) => None,
        }
    }

    /// Picks (without removing) the next command to serve under `policy`.
    /// A window inconsistency never panics: the pick degrades to the FIFO
    /// head, and as a last resort to the backlog front.
    fn pick(&mut self, policy: QueuePolicy, head: PageId) -> Option<Pending> {
        let choice = match policy {
            QueuePolicy::Fifo => self.fifo_front(),
            QueuePolicy::ShortestSeekFirst => self.sstf_pick(head).or_else(|| self.fifo_front()),
        };
        choice.or_else(|| self.backlog.front().copied())
    }
}

/// The simulated disk. Holds page contents in memory; all latency is
/// simulated on the shared [`SimClock`].
pub struct SimDisk {
    pages: Vec<Arc<[u8]>>,
    page_size: usize,
    profile: DiskProfile,
    /// Position just past the last page read (next sequential target).
    head: PageId,
    /// Simulated time until which the device is busy.
    busy_until_ns: u64,
    queue: CommandQueue,
    completed: VecDeque<Completion>,
    next_seq: u64,
    stats: DeviceStats,
    trace: Option<Vec<PageId>>,
}

impl SimDisk {
    /// Creates an empty disk with the given page size and default profile.
    pub fn new(page_size: usize) -> Self {
        Self::with_profile(page_size, DiskProfile::default())
    }

    /// Creates an empty disk with an explicit cost profile.
    pub fn with_profile(page_size: usize, profile: DiskProfile) -> Self {
        Self {
            pages: Vec::new(),
            page_size,
            profile,
            head: 0,
            busy_until_ns: 0,
            queue: CommandQueue::new(profile.queue_depth),
            completed: VecDeque::new(),
            next_seq: 0,
            stats: DeviceStats::default(),
            trace: None,
        }
    }

    /// The page image, by reference count — never by copy.
    fn page_bytes(&self, page: PageId) -> Arc<[u8]> {
        match self.pages.get(page as usize) {
            Some(b) => Arc::clone(b),
            // Out-of-range reads are rejected by `read_sync`/`submit`;
            // an inconsistent index degrades to a zeroed page.
            None => Arc::from(vec![0u8; self.page_size]),
        }
    }

    /// Number of pending commands visible to the reordering/positioning
    /// logic (bounded by the configured queue depth).
    fn window(&self) -> usize {
        self.queue.window_len()
    }

    /// Picks the next request to serve (without removing it).
    fn pick_next(&mut self) -> Option<Pending> {
        self.queue.pick(self.profile.policy, self.head)
    }

    /// Serves `req`, producing a completion.
    fn serve(&mut self, req: Pending) -> Completion {
        let queued = self.window().saturating_sub(1);
        self.queue.remove(req);
        let start = self.busy_until_ns.max(req.submitted_at_ns);
        let cost = self
            .profile
            .access_cost_queued_ns(self.head, req.page, queued);
        let finished = start + cost;
        self.account_read(req.page, cost);
        self.head = req.page + 1;
        self.busy_until_ns = finished;
        Completion::ok(req.page, self.page_bytes(req.page), finished)
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
        if let Some(t) = self.trace.as_mut() {
            t.push(page);
        }
    }

    /// Lets the device work in the background up to simulated time `now`:
    /// serves queued requests whose completion fits before `now`.
    fn advance(&mut self, now_ns: u64) {
        while let Some(req) = self.pick_next() {
            let start = self.busy_until_ns.max(req.submitted_at_ns);
            let queued = self.window().saturating_sub(1);
            let cost = self
                .profile
                .access_cost_queued_ns(self.head, req.page, queued);
            if start + cost > now_ns {
                break;
            }
            let c = self.serve(req);
            self.completed.push_back(c);
        }
    }

    /// Total simulated nanoseconds the device has been busy.
    pub fn busy_ns(&self) -> u64 {
        self.stats.busy_ns
    }
}

impl Device for SimDisk {
    fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        if page >= self.num_pages() {
            return Err(IoError::new(page, IoErrorKind::Permanent));
        }
        // Let any background async work that fits before `now` complete first.
        self.advance(clock.now_ns());
        let start = self.busy_until_ns.max(clock.now_ns());
        let cost = self.profile.access_cost_ns(self.head, page);
        self.account_read(page, cost);
        self.head = page + 1;
        self.busy_until_ns = start + cost;
        clock.wait_until(start + cost);
        Ok(self.page_bytes(page))
    }

    fn submit(&mut self, page: PageId, clock: &SimClock) {
        self.advance(clock.now_ns());
        if page >= self.num_pages() {
            // Rejected without touching the platter; `poll` reports it.
            let error = IoError::new(page, IoErrorKind::Permanent);
            self.completed
                .push_back(Completion::err(page, error, clock.now_ns()));
            return;
        }
        self.queue.push(Pending {
            page,
            submitted_at_ns: clock.now_ns(),
            seq: self.next_seq,
        });
        self.next_seq += 1;
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        self.advance(clock.now_ns());
        if let Some(c) = self.completed.pop_front() {
            // Completion may lie in the past (overlapped with CPU work);
            // wait_until is a no-op then.
            clock.wait_until(c.finished_at_ns);
            return Some(c);
        }
        if !block {
            return None;
        }
        let req = self.pick_next()?;
        let c = self.serve(req);
        clock.wait_until(c.finished_at_ns);
        Some(c)
    }

    fn in_flight(&self) -> usize {
        self.queue.len() + self.completed.len()
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        assert!(
            bytes.len() <= self.page_size,
            "page overflow: {} > {}",
            bytes.len(),
            self.page_size
        );
        let id = self.pages.len() as PageId;
        let mut b = bytes;
        b.resize(self.page_size, 0);
        self.pages.push(Arc::from(b));
        id
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        assert!(
            (page as usize) < self.pages.len(),
            "page {page} out of range"
        );
        assert!(bytes.len() <= self.page_size);
        let mut b = bytes;
        b.resize(self.page_size, 0);
        if let Some(slot) = self.pages.get_mut(page as usize) {
            *slot = Arc::from(b);
        }
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
        let mut fork = SimDisk::with_profile(self.page_size, self.profile);
        // `Arc` clones: the fork shares every page image with the original
        // but models its own head, queue, and busy state.
        fork.pages = self.pages.clone();
        Some(Box::new(fork))
    }

    /// Moves the head back to page 0 and clears the busy window.
    fn park(&mut self) {
        assert!(
            self.queue.is_empty() && self.completed.is_empty(),
            "cannot park the head with requests in flight"
        );
        self.head = 0;
        self.busy_until_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn disk_with_pages(n: u32) -> SimDisk {
        disk_with_policy(n, QueuePolicy::ShortestSeekFirst)
    }

    #[test]
    fn isqrt_exact_and_floor() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(2), 1);
        assert_eq!(isqrt(4), 2);
        assert_eq!(isqrt(15), 3);
        assert_eq!(isqrt(16), 4);
        assert_eq!(isqrt(10_000), 100);
        assert_eq!(isqrt(u64::MAX), 4294967295);
    }

    #[test]
    fn out_of_range_read_fails_typed() {
        crate::device::tests::assert_out_of_range_read_fails(&mut disk_with_pages(3));
    }

    #[test]
    fn sequential_reads_cost_transfer_only() {
        let mut d = disk_with_pages(10);
        let clock = SimClock::new();
        d.read_sync(0, &clock).unwrap();
        let t0 = clock.now_ns();
        d.read_sync(1, &clock).unwrap();
        let p = DiskProfile::default();
        assert_eq!(clock.now_ns() - t0, p.command_overhead_ns + p.transfer_ns);
        // Page 0 from the parked head *and* page 1 are both sequential.
        assert_eq!(d.stats().sequential_reads, 2);
        // Page 3 seeks one page from the head just past page 1.
        d.read_sync(3, &clock).unwrap();
        let s = d.stats();
        assert_eq!((s.sequential_reads, s.random_reads), (2, 1));
        assert_eq!(s.seek_distance_pages, 1);
    }

    #[test]
    fn random_read_costs_more_than_sequential() {
        let mut d = disk_with_pages(100);
        let clock = SimClock::new();
        d.read_sync(0, &clock).unwrap();
        let t0 = clock.now_ns();
        d.read_sync(50, &clock).unwrap();
        let random_cost = clock.now_ns() - t0;
        let t1 = clock.now_ns();
        d.read_sync(51, &clock).unwrap();
        let seq_cost = clock.now_ns() - t1;
        assert!(random_cost > 10 * seq_cost);
    }

    #[test]
    fn seek_cost_grows_with_distance_but_capped() {
        let p = DiskProfile::default();
        let near = p.access_cost_ns(0, 2);
        let far = p.access_cost_ns(0, 5_000);
        let very_far = p.access_cost_ns(0, 4_000_000_000);
        assert!(near < far);
        assert!(far <= very_far);
        assert!(
            very_far <= p.seek_max_ns + p.rotational_ns + p.transfer_ns + p.command_overhead_ns
        );
    }

    /// A disk of `n` pages on the default profile with `policy`.
    fn disk_with_policy(n: u32, policy: QueuePolicy) -> SimDisk {
        let mut d = SimDisk::with_profile(
            64,
            DiskProfile {
                policy,
                ..DiskProfile::default()
            },
        );
        for i in 0..n {
            d.append_page(vec![i as u8; 8]);
        }
        d
    }

    /// Submits `pages` as one batch, drains it and returns the served
    /// order, the batch's simulated time and its seek distance.
    fn drain_batch(
        d: &mut dyn Device,
        clock: &SimClock,
        pages: &[PageId],
    ) -> (Vec<PageId>, u64, u64) {
        let (t0, seek0) = (clock.now_ns(), d.stats().seek_distance_pages);
        for &p in pages {
            d.submit(p, clock);
        }
        let order = std::iter::from_fn(|| d.poll(clock, true).map(|c| c.page)).collect();
        let seek = d.stats().seek_distance_pages - seek0;
        (order, clock.now_ns() - t0, seek)
    }

    #[test]
    fn async_reordering_beats_fifo_on_total_time() {
        // Submit pages far apart in FIFO-hostile order; SSTF should finish
        // the batch strictly earlier than FIFO, which serves them in
        // submission order.
        let pages = [900u32, 10, 950, 20, 990, 30];
        let run = |policy| {
            drain_batch(
                &mut disk_with_policy(1000, policy),
                &SimClock::new(),
                &pages,
            )
        };
        let (order_fifo, t_fifo, dist_fifo) = run(QueuePolicy::Fifo);
        let (order_sstf, t_sstf, dist_sstf) = run(QueuePolicy::ShortestSeekFirst);
        assert_eq!(order_fifo, pages);
        assert_eq!(order_sstf, [10, 20, 30, 900, 950, 990]);
        assert!(dist_sstf < dist_fifo);
        assert!(t_sstf < t_fifo);
    }

    /// SSTF is greedy, not optimal. With the head at page 10, FIFO serves
    /// `[4, 8, 11, 13, 21]` in 19 seek pages while SSTF runs 11, 13, 8, 4,
    /// 21 in 29, and takes longer. From the parked head SSTF never seeks
    /// further, but adjacent pages can still cost it time: on `[28, 6, 7]`
    /// it reads 7 sequentially while the queue is deep and pays the full
    /// rotational delay on 28 last, where FIFO pays it at 6.
    #[test]
    fn sstf_can_lose_to_fifo() {
        let run = |policy, head_at: Option<PageId>, pages: &[PageId]| {
            let mut d = disk_with_policy(64, policy);
            let clock = SimClock::new();
            if let Some(page) = head_at {
                d.read_sync(page - 1, &clock).unwrap();
            }
            drain_batch(&mut d, &clock, pages)
        };
        let pages = [4u32, 8, 11, 13, 21];
        let (order_fifo, t_fifo, dist_fifo) = run(QueuePolicy::Fifo, Some(10), &pages);
        let (order_sstf, t_sstf, dist_sstf) = run(QueuePolicy::ShortestSeekFirst, Some(10), &pages);
        assert_eq!(order_fifo, pages);
        assert_eq!(order_sstf, [11, 13, 8, 4, 21]);
        assert_eq!((dist_fifo, dist_sstf), (19, 29));
        assert!(t_sstf > t_fifo, "sstf {t_sstf} <= fifo {t_fifo}");

        let pages = [28u32, 6, 7];
        let (_, t_fifo, dist_fifo) = run(QueuePolicy::Fifo, None, &pages);
        let (order_sstf, t_sstf, dist_sstf) = run(QueuePolicy::ShortestSeekFirst, None, &pages);
        assert_eq!(order_sstf, [6, 7, 28]);
        assert!(dist_sstf < dist_fifo);
        assert!(t_sstf > t_fifo, "sstf {t_sstf} <= fifo {t_fifo}");
    }

    /// The policy travels in the profile, so a fork serves its queue the
    /// way the original does.
    #[test]
    fn fork_of_a_fifo_disk_serves_fifo() {
        let d = disk_with_policy(1000, QueuePolicy::Fifo);
        let mut fork = d.try_fork().expect("SimDisk forks");
        let pages = [900u32, 10, 950, 20];
        let (order, _, _) = drain_batch(&mut *fork, &SimClock::new(), &pages);
        assert_eq!(order, pages);
    }

    #[test]
    fn background_completion_overlaps_cpu() {
        let mut d = disk_with_pages(100);
        let clock = SimClock::new();
        d.submit(50, &clock);
        // Burn enough CPU for the request to complete in the background.
        clock.charge_cpu(100_000_000);
        let c = d.poll(&clock, false).expect("completed in background");
        assert_eq!(c.page, 50);
        // No I/O wait was charged: the disk worked while the CPU did.
        assert_eq!(clock.io_wait_ns(), 0);
    }

    #[test]
    fn blocking_poll_waits_when_nothing_completed() {
        let mut d = disk_with_pages(100);
        let clock = SimClock::new();
        d.submit(50, &clock);
        let c = d.poll(&clock, true).expect("served");
        assert_eq!(c.page, 50);
        assert!(clock.io_wait_ns() > 0);
        assert_eq!(clock.now_ns(), c.finished_at_ns);
    }

    #[test]
    fn poll_nonblocking_returns_none_when_pending_not_ready() {
        let mut d = disk_with_pages(100);
        let clock = SimClock::new();
        d.submit(50, &clock);
        assert!(d.poll(&clock, false).is_none());
        assert_eq!(d.in_flight(), 1);
    }

    #[test]
    fn poll_empty_returns_none_even_blocking() {
        let mut d = disk_with_pages(10);
        let clock = SimClock::new();
        assert!(d.poll(&clock, true).is_none());
    }

    #[test]
    fn queue_depth_limits_reordering_window() {
        // With queue_depth = 1 the device degenerates to FIFO.
        let profile = DiskProfile {
            queue_depth: 1,
            ..DiskProfile::default()
        };
        let mut d = SimDisk::with_profile(64, profile);
        for i in 0..1000u32 {
            d.append_page(vec![(i % 251) as u8]);
        }
        let clock = SimClock::new();
        for &p in &[900u32, 10, 950] {
            d.submit(p, &clock);
        }
        let order: Vec<PageId> =
            std::iter::from_fn(|| d.poll(&clock, true).map(|c| c.page)).collect();
        assert_eq!(order, vec![900, 10, 950]);
    }

    #[test]
    fn trace_records_access_order() {
        let mut d = disk_with_pages(10);
        d.set_trace(true);
        let clock = SimClock::new();
        d.read_sync(3, &clock).unwrap();
        d.read_sync(1, &clock).unwrap();
        assert_eq!(d.access_trace(), &[3, 1]);
        d.reset_stats();
        assert!(d.access_trace().is_empty());
    }

    #[test]
    fn append_pads_to_page_size() {
        let mut d = SimDisk::new(32);
        let id = d.append_page(vec![1, 2, 3]);
        let clock = SimClock::new();
        let bytes = d.read_sync(id, &clock).unwrap();
        assert_eq!(bytes.len(), 32);
        assert_eq!(&bytes[..3], &[1, 2, 3]);
        d.write_page(id, vec![9, 9]);
        let bytes = d.read_sync(id, &clock).unwrap();
        assert_eq!(bytes.len(), 32);
        assert_eq!(&bytes[..3], &[9, 9, 0]);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn append_oversized_panics() {
        let mut d = SimDisk::new(4);
        d.append_page(vec![0; 5]);
    }

    #[test]
    fn instant_profile_costs_nothing() {
        let mut d = SimDisk::with_profile(16, DiskProfile::instant());
        d.append_page(vec![7]);
        d.append_page(vec![8]);
        let clock = SimClock::new();
        assert_eq!(d.read_sync(1, &clock).unwrap()[0], 8);
        assert_eq!(d.read_sync(0, &clock).unwrap()[0], 7);
        d.submit(1, &clock);
        assert_eq!(d.poll(&clock, true).map(|c| c.page), Some(1));
        assert_eq!(clock.now_ns(), 0);
        // Free reads are still counted.
        assert_eq!((d.stats().reads, d.stats().busy_ns), (3, 0));
    }

    #[test]
    fn serving_a_read_copies_no_page_bytes() {
        // The completion's bytes are the device's own Arc, not a copy.
        let mut d = disk_with_pages(4);
        let clock = SimClock::new();
        d.submit(2, &clock);
        let c = d.poll(&clock, true).expect("served");
        let served = c.result.expect("infallible device");
        let again = d.read_sync(2, &clock).unwrap();
        assert!(
            Arc::ptr_eq(&served, &again),
            "both reads must share the device's page allocation"
        );
    }
}

#[cfg(test)]
mod queued_cost_tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::device::Device;

    #[test]
    fn deep_queue_shrinks_rotational_delay() {
        let p = DiskProfile::default();
        let shallow = p.access_cost_queued_ns(0, 500, 0);
        let deep = p.access_cost_queued_ns(0, 500, 10);
        assert!(deep < shallow);
        assert_eq!(shallow - deep, p.rotational_ns - p.rotational_ns / 11);
    }

    #[test]
    fn sequential_cost_unaffected_by_queue() {
        let p = DiskProfile::default();
        assert_eq!(
            p.access_cost_queued_ns(7, 7, 0),
            p.access_cost_queued_ns(7, 7, 12)
        );
    }

    #[test]
    fn batched_async_beats_one_at_a_time() {
        // Same pages: submitted all at once (deep queue) vs read one by one.
        let pages: Vec<u32> = vec![900, 10, 950, 20, 990, 30, 500, 70];
        let mut batched = SimDisk::new(64);
        let mut serial = SimDisk::new(64);
        for _ in 0..1000 {
            batched.append_page(vec![0]);
            serial.append_page(vec![0]);
        }
        let cb = SimClock::new();
        for &p in &pages {
            batched.submit(p, &cb);
        }
        while batched.poll(&cb, true).is_some() {}
        let cs = SimClock::new();
        for &p in &pages {
            let _ = serial.read_sync(p, &cs);
        }
        assert!(
            cb.now_ns() < cs.now_ns() * 3 / 4,
            "batched {} vs serial {}",
            cb.now_ns(),
            cs.now_ns()
        );
    }
}

/// Equivalence of the indexed command queue and the retained reference
/// oracle: identical serve order, identical simulated nanoseconds,
/// identical statistics — for every policy, under random interleavings of
/// submissions, blocking/non-blocking polls, synchronous reads and CPU
/// work. Lint rule R2's determinism contract depends on this: replacing
/// the scheduler must not move a single simulated number.
#[cfg(test)]
mod equivalence_proptests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::reference_disk::ReferenceDisk;
    use proptest::prelude::*;

    const NUM_PAGES: u32 = 400;

    /// One step of the co-simulation script.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Submit(PageId),
        PollBlocking,
        PollNonBlocking,
        ReadSync(PageId),
        ChargeCpu(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..NUM_PAGES).prop_map(Op::Submit),
            Just(Op::PollBlocking),
            Just(Op::PollNonBlocking),
            (0u32..NUM_PAGES).prop_map(Op::ReadSync),
            (0u64..20_000_000).prop_map(Op::ChargeCpu),
        ]
    }

    fn policies() -> [QueuePolicy; 2] {
        [QueuePolicy::Fifo, QueuePolicy::ShortestSeekFirst]
    }

    /// Runs `ops` against one device, returning the observable history.
    fn run(dev: &mut dyn Device, ops: &[Op]) -> (Vec<(PageId, u64)>, u64, DeviceStats) {
        let clock = SimClock::new();
        let mut events = Vec::new();
        for &op in ops {
            match op {
                Op::Submit(p) => dev.submit(p, &clock),
                Op::PollBlocking => {
                    if let Some(c) = dev.poll(&clock, true) {
                        events.push((c.page, c.finished_at_ns));
                    }
                }
                Op::PollNonBlocking => {
                    if let Some(c) = dev.poll(&clock, false) {
                        events.push((c.page, c.finished_at_ns));
                    }
                }
                Op::ReadSync(p) => {
                    let _ = dev.read_sync(p, &clock);
                    events.push((p, clock.now_ns()));
                }
                Op::ChargeCpu(ns) => clock.charge_cpu(ns),
            }
        }
        // Drain whatever is still in flight.
        while let Some(c) = dev.poll(&clock, true) {
            events.push((c.page, c.finished_at_ns));
        }
        (events, clock.now_ns(), dev.stats())
    }

    fn assert_equivalent(profile: DiskProfile, ops: &[Op]) {
        for policy in policies() {
            let profile = DiskProfile { policy, ..profile };
            let mut indexed = SimDisk::with_profile(64, profile);
            let mut oracle = ReferenceDisk::with_profile(64, profile);
            for i in 0..NUM_PAGES {
                indexed.append_page(vec![i as u8]);
                oracle.append_page(vec![i as u8]);
            }
            let (ev_new, now_new, st_new) = run(&mut indexed, ops);
            let (ev_old, now_old, st_old) = run(&mut oracle, ops);
            assert_eq!(
                ev_new, ev_old,
                "serve order / completion times diverged under {policy:?}"
            );
            assert_eq!(
                now_new, now_old,
                "simulated clock diverged under {policy:?}"
            );
            assert_eq!(st_new, st_old, "device stats diverged under {policy:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

        /// 400 cases × 2 policies = 800 random interleavings against the
        /// oracle, unbounded window.
        #[test]
        fn indexed_queue_matches_oracle_unbounded(
            ops in prop::collection::vec(op_strategy(), 1..80),
        ) {
            assert_equivalent(DiskProfile::default(), &ops);
        }

        /// Same, with a small bounded window so backlog promotion and the
        /// window boundary are exercised.
        #[test]
        fn indexed_queue_matches_oracle_bounded_window(
            ops in prop::collection::vec(op_strategy(), 1..80),
            depth in 1usize..6,
        ) {
            let profile = DiskProfile { queue_depth: depth, ..DiskProfile::default() };
            assert_equivalent(profile, &ops);
        }
    }

    /// 4k pending commands drained under every policy. Under the old
    /// O(n² log n) pick path this sits in sort-and-alloc for tens of
    /// seconds in debug builds; the indexed queue drains it instantly.
    #[test]
    fn large_queue_stress_4k_pending() {
        for policy in policies() {
            let profile = DiskProfile {
                policy,
                ..DiskProfile::default()
            };
            let mut d = SimDisk::with_profile(64, profile);
            for _ in 0..4096u32 {
                d.append_page(vec![0]);
            }
            let clock = SimClock::new();
            // A seeded LCG permutation-ish scatter over the platter.
            let mut x = 0x2545F4914F6CDD1Du64;
            for _ in 0..4096 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                d.submit((x >> 33) as u32 % 4096, &clock);
            }
            assert_eq!(d.in_flight(), 4096);
            let mut served = 0u32;
            let mut last_finish = 0u64;
            while let Some(c) = d.poll(&clock, true) {
                assert!(c.finished_at_ns >= last_finish, "completions out of order");
                last_finish = c.finished_at_ns;
                served += 1;
            }
            assert_eq!(served, 4096);
            assert_eq!(d.in_flight(), 0);
            assert_eq!(d.stats().reads, 4096);
        }
    }
}
