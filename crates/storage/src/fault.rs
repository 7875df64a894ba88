//! Deterministic fault injection: a [`FaultDevice`] decorator that makes
//! any inner [`Device`] fail on command.
//!
//! The engine's whole recovery surface — checksum verification, the buffer
//! manager's retry policy, `ExecError::Io` propagation, WAL recovery
//! skipping corrupt images — is only meaningful if faults can actually
//! happen. This module produces them, reproducibly: a [`FaultPlan`] is a
//! list of [`FaultRule`]s, each addressing a page (or any page), an
//! occurrence window (`skip` clean accesses, then inject `count` times),
//! and a [`FaultKind`]:
//!
//! * **transient read errors** — the access fails, a retry succeeds;
//! * **permanent read errors** — the access fails deterministically;
//! * **torn/bit-flipped images** — the read "succeeds" but the returned
//!   page image is corrupted (detected above by the checksum trailer);
//! * **latency spikes** — the read succeeds after an extra simulated delay;
//! * **dropped writes** — the write is acknowledged but never reaches the
//!   platter (the page keeps its old image; an append allocates a zeroed
//!   page);
//! * **torn writes** — the write reaches the platter with bit-flipped body
//!   bytes, so the stored image fails checksum verification on read-back.
//!
//! Read rules and write rules are matched independently: a read never
//! advances a write rule's occurrence count and vice versa, so "fail the
//! 2nd write of page 7" means writes, not accesses of any kind.
//!
//! All randomness (corrupt-bit positions, [`FaultPlan::random`] schedules)
//! derives from explicit seeds via SplitMix64, preserving the R2
//! determinism contract. The plan's state is shared behind an
//! `Arc<Mutex<..>>`, so [`Device::try_fork`] forks observe **one** global
//! occurrence count — a "fail the 3rd read of page 7" rule fires exactly
//! once across a parallel batch, whichever worker gets there third.
//!
//! Stacking order: `BufferManager → SharedCacheDevice → FaultDevice →
//! SimDisk/MemDevice` — faults happen below the shared cache, so a page
//! image that fails checksum verification is never published to other
//! workers.

use crate::checksum::CHECKSUM_LEN;
use crate::clock::SimClock;
use crate::device::{Completion, Device, IoError, IoErrorKind, PageId};
use crate::shared_cache::lock;
use std::sync::{Arc, Mutex};

/// What a firing fault rule does to the read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the read with [`IoErrorKind::Transient`].
    TransientRead,
    /// Fail the read with [`IoErrorKind::Permanent`].
    PermanentRead,
    /// Serve the read, but with deterministically bit-flipped page bytes.
    /// Flips never touch the checksum trailer, so a sealed page always
    /// fails verification (corruption cannot masquerade as "unsealed").
    CorruptRead,
    /// Serve the read correctly after an extra simulated delay.
    LatencySpike {
        /// Extra simulated nanoseconds charged to the read.
        extra_ns: u64,
    },
    /// Silently lose the write: the page keeps its previous image (an
    /// append still allocates the page, but zero-filled — the platter
    /// never saw the payload).
    DroppedWrite,
    /// Store the write torn: deterministically bit-flipped body bytes with
    /// the checksum trailer preserved, so read-back verification fails.
    TornWrite,
}

impl FaultKind {
    /// True for kinds that fire on the write path (`write_page` /
    /// `append_page`) rather than on reads.
    fn is_write(self) -> bool {
        matches!(self, FaultKind::DroppedWrite | FaultKind::TornWrite)
    }
}

/// One injection rule: which page, when, how often, and what happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Target page; `None` matches every page.
    pub page: Option<PageId>,
    /// The injected fault.
    pub kind: FaultKind,
    /// Matching accesses to let through cleanly before the rule arms.
    pub skip: u32,
    /// Faults to inject once armed; the rule is spent afterwards.
    pub count: u32,
}

impl FaultRule {
    /// A rule injecting `kind` on the first matching access of `page`
    /// (`None` = any page), once.
    pub fn new(page: Option<PageId>, kind: FaultKind) -> Self {
        Self {
            page,
            kind,
            skip: 0,
            count: 1,
        }
    }

    /// Sets the number of injections.
    pub fn times(mut self, count: u32) -> Self {
        self.count = count;
        self
    }

    /// Lets `skip` matching accesses through cleanly before arming.
    pub fn after(mut self, skip: u32) -> Self {
        self.skip = skip;
        self
    }
}

/// Cumulative injection counters of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient read errors injected.
    pub transient: u64,
    /// Permanent read errors injected.
    pub permanent: u64,
    /// Corrupted page images served.
    pub corrupt: u64,
    /// Latency spikes applied.
    pub latency: u64,
    /// Writes silently lost.
    pub dropped_writes: u64,
    /// Writes stored torn.
    pub torn_writes: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.transient
            + self.permanent
            + self.corrupt
            + self.latency
            + self.dropped_writes
            + self.torn_writes
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    seen: u32,
    injected: u32,
}

#[derive(Debug)]
struct PlanInner {
    rules: Vec<FaultRule>,
    states: Vec<RuleState>,
    stats: FaultStats,
    /// Seed for corrupt-bit positions (distinct per page/occurrence).
    flip_seed: u64,
}

/// A shared, seeded fault schedule. Cloning the handle shares state — all
/// [`FaultDevice`]s holding clones (e.g. across [`Device::try_fork`])
/// observe one global occurrence count per rule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<Mutex<PlanInner>>,
}

/// One SplitMix64 step: advances `state` and returns the next output. The
/// engine's one seeded generator — fault plans, corrupt-bit positions and
/// the import's placement permutations all draw from it, so each is a fixed
/// function of its seed alone (R2).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with the given rules, corrupt-bit positions seeded by `seed`.
    pub fn new(seed: u64, rules: Vec<FaultRule>) -> Self {
        let states = vec![RuleState::default(); rules.len()];
        Self {
            inner: Arc::new(Mutex::new(PlanInner {
                rules,
                states,
                stats: FaultStats::default(),
                flip_seed: seed,
            })),
        }
    }

    /// An empty plan (injects nothing).
    pub fn none() -> Self {
        Self::new(0, Vec::new())
    }

    /// A deterministic random schedule: `n_rules` rules over the page range
    /// `[first_page, first_page + num_pages)`, drawn from `seed`. The mix
    /// leans toward recoverable faults (transient, corrupt, latency) with
    /// an occasional permanent error, so random schedules exercise both
    /// the retry path and the clean-abort path.
    pub fn random(seed: u64, first_page: PageId, num_pages: u32, n_rules: usize) -> Self {
        let mut s = seed ^ 0xC4A5_F00D;
        let mut rules = Vec::with_capacity(n_rules);
        for _ in 0..n_rules {
            let page = if num_pages > 0 && !splitmix64(&mut s).is_multiple_of(8) {
                Some(first_page + (splitmix64(&mut s) % num_pages as u64) as u32)
            } else {
                None // 1-in-8: an any-page rule
            };
            let kind = match splitmix64(&mut s) % 10 {
                0..=3 => FaultKind::TransientRead,
                4..=6 => FaultKind::CorruptRead,
                7..=8 => FaultKind::LatencySpike {
                    extra_ns: 1_000_000 + splitmix64(&mut s) % 20_000_000,
                },
                _ => FaultKind::PermanentRead,
            };
            rules.push(FaultRule {
                page,
                kind,
                skip: (splitmix64(&mut s) % 4) as u32,
                count: 1 + (splitmix64(&mut s) % 2) as u32,
            });
        }
        Self::new(seed, rules)
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        lock(&self.inner).stats
    }

    /// Re-arms every rule and clears the counters (for reusing one plan
    /// across independent runs).
    pub fn reset(&self) {
        let mut inner = lock(&self.inner);
        for st in &mut inner.states {
            *st = RuleState::default();
        }
        inner.stats = FaultStats::default();
    }

    /// Consults the plan for one read of `page`: every matching read
    /// rule's occurrence count advances; the first armed rule fires.
    fn on_access(&self, page: PageId) -> Option<FaultKind> {
        self.consult(page, false)
    }

    /// Consults the plan for one write of `page` (write rules only).
    fn on_write(&self, page: PageId) -> Option<FaultKind> {
        self.consult(page, true)
    }

    fn consult(&self, page: PageId, writes: bool) -> Option<FaultKind> {
        let mut inner = lock(&self.inner);
        let mut fired: Option<FaultKind> = None;
        let mut fired_idx = None;
        for (i, rule) in inner.rules.iter().enumerate() {
            if rule.kind.is_write() != writes || rule.page.is_some_and(|p| p != page) {
                continue;
            }
            let st = inner.states[i];
            if fired.is_none() && st.seen >= rule.skip && st.injected < rule.count {
                fired = Some(rule.kind);
                fired_idx = Some(i);
            }
        }
        for i in 0..inner.rules.len() {
            let rule = inner.rules[i];
            if rule.kind.is_write() != writes || rule.page.is_some_and(|p| p != page) {
                continue;
            }
            inner.states[i].seen += 1;
        }
        if let Some(i) = fired_idx {
            inner.states[i].injected += 1;
            match inner.rules[i].kind {
                FaultKind::TransientRead => inner.stats.transient += 1,
                FaultKind::PermanentRead => inner.stats.permanent += 1,
                FaultKind::CorruptRead => inner.stats.corrupt += 1,
                FaultKind::LatencySpike { .. } => inner.stats.latency += 1,
                FaultKind::DroppedWrite => inner.stats.dropped_writes += 1,
                FaultKind::TornWrite => inner.stats.torn_writes += 1,
            }
        }
        fired
    }

    /// Deterministic bit flips for a corrupt read: an odd number of flips
    /// (so they can never cancel out) at positions strictly before the
    /// checksum trailer.
    fn corrupt_image(&self, page: PageId, bytes: &Arc<[u8]>) -> Arc<[u8]> {
        let body = bytes.len().saturating_sub(CHECKSUM_LEN);
        if body == 0 {
            return Arc::clone(bytes);
        }
        let (flip_seed, occurrence) = {
            let inner = lock(&self.inner);
            (inner.flip_seed, inner.stats.corrupt)
        };
        let mut s = flip_seed ^ ((page as u64) << 32) ^ occurrence;
        let flips = 1 + 2 * (splitmix64(&mut s) % 2) as usize;
        let mut v = bytes.to_vec();
        for _ in 0..flips {
            let pos = (splitmix64(&mut s) % body as u64) as usize;
            let bit = (splitmix64(&mut s) % 8) as u32;
            v[pos] ^= 1 << bit;
        }
        Arc::from(v)
    }

    /// Deterministic bit flips for a torn write, in place: like
    /// [`Self::corrupt_image`] but salted by the torn-write occurrence
    /// count. Images with no body (shorter than the checksum trailer) are
    /// left untouched.
    fn tear_image(&self, page: PageId, bytes: &mut [u8]) {
        let body = bytes.len().saturating_sub(CHECKSUM_LEN);
        if body == 0 {
            return;
        }
        let (flip_seed, occurrence) = {
            let inner = lock(&self.inner);
            (inner.flip_seed, inner.stats.torn_writes)
        };
        let mut s = flip_seed ^ 0x7E4A_0000 ^ ((page as u64) << 32) ^ occurrence;
        let flips = 1 + 2 * (splitmix64(&mut s) % 2) as usize;
        for _ in 0..flips {
            let pos = (splitmix64(&mut s) % body as u64) as usize;
            let bit = (splitmix64(&mut s) % 8) as u32;
            bytes[pos] ^= 1 << bit;
        }
    }
}

/// A [`Device`] decorator injecting the faults of a [`FaultPlan`] into the
/// read path (writes pass through untouched). Stackable under
/// [`crate::SharedCacheDevice`]; forkable when the inner device is.
pub struct FaultDevice<D: Device> {
    inner: D,
    plan: FaultPlan,
}

impl<D: Device> FaultDevice<D> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }

    /// The shared plan handle (for inspecting [`FaultStats`]).
    pub fn plan(&self) -> FaultPlan {
        self.plan.clone()
    }

    /// Applies a fired fault to a successful read outcome.
    fn apply(
        &self,
        page: PageId,
        kind: FaultKind,
        bytes: Arc<[u8]>,
        clock: &SimClock,
    ) -> Result<Arc<[u8]>, IoError> {
        match kind {
            FaultKind::TransientRead => Err(IoError::new(page, IoErrorKind::Transient)),
            FaultKind::PermanentRead => Err(IoError::new(page, IoErrorKind::Permanent)),
            FaultKind::CorruptRead => Ok(self.plan.corrupt_image(page, &bytes)),
            FaultKind::LatencySpike { extra_ns } => {
                clock.wait_until(clock.now_ns() + extra_ns);
                Ok(bytes)
            }
            // Write kinds never fire on the read path (see `consult`).
            FaultKind::DroppedWrite | FaultKind::TornWrite => Ok(bytes),
        }
    }
}

impl<D: Device> Device for FaultDevice<D> {
    fn inner(&self) -> Option<&dyn Device> {
        Some(&self.inner)
    }

    fn inner_mut(&mut self) -> Option<&mut dyn Device> {
        Some(&mut self.inner)
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        match self.plan.on_access(page) {
            // Error faults reject the command without touching the platter.
            Some(FaultKind::TransientRead) => Err(IoError::new(page, IoErrorKind::Transient)),
            Some(FaultKind::PermanentRead) => Err(IoError::new(page, IoErrorKind::Permanent)),
            Some(kind) => {
                let bytes = self.inner.read_sync(page, clock)?;
                self.apply(page, kind, bytes, clock)
            }
            None => self.inner.read_sync(page, clock),
        }
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        let mut c = self.inner.poll(clock, block)?;
        if let Ok(bytes) = c.result.clone() {
            if let Some(kind) = self.plan.on_access(c.page) {
                c.result = self.apply(c.page, kind, bytes, clock);
                if matches!(kind, FaultKind::LatencySpike { .. }) {
                    c.finished_at_ns = clock.now_ns();
                }
            }
        }
        Some(c)
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        // The page id the append will be assigned — write rules targeting
        // a specific page match against it (e.g. "tear the 3rd WAL frame").
        let page = self.inner.num_pages();
        match self.plan.on_write(page) {
            Some(FaultKind::DroppedWrite) => self.inner.append_page(vec![0; bytes.len()]),
            Some(FaultKind::TornWrite) => {
                let mut torn = bytes;
                self.plan.tear_image(page, &mut torn);
                self.inner.append_page(torn)
            }
            _ => self.inner.append_page(bytes),
        }
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        match self.plan.on_write(page) {
            Some(FaultKind::DroppedWrite) => {} // lost: the old image survives
            Some(FaultKind::TornWrite) => {
                let mut torn = bytes;
                self.plan.tear_image(page, &mut torn);
                self.inner.write_page(page, torn);
            }
            _ => self.inner.write_page(page, bytes),
        }
    }

    fn try_fork(&self) -> Option<Box<dyn Device + Send>> {
        let fork = self.inner.try_fork()?;
        Some(Box::new(FaultDevice {
            inner: fork,
            plan: self.plan.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::checksum::{seal_page, verify_page};
    use crate::mem_device::MemDevice;

    fn device_with_pages(n: u8) -> MemDevice {
        crate::device::tests::with_pages(MemDevice::new(64), n)
    }

    #[test]
    fn splitmix64_stream_is_pinned() {
        let mut state = 0;
        let got = [0; 3].map(|_| splitmix64(&mut state));
        assert_eq!(
            got,
            [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
        );
    }

    #[test]
    fn transient_fault_fails_then_heals() {
        let plan = FaultPlan::new(
            1,
            vec![FaultRule::new(Some(1), FaultKind::TransientRead).times(2)],
        );
        let mut d = FaultDevice::new(device_with_pages(3), plan.clone());
        let clock = SimClock::new();
        assert_eq!(
            d.read_sync(1, &clock).unwrap_err().kind,
            IoErrorKind::Transient
        );
        assert_eq!(
            d.read_sync(1, &clock).unwrap_err().kind,
            IoErrorKind::Transient
        );
        assert!(d.read_sync(1, &clock).is_ok(), "rule spent after 2 shots");
        assert!(d.read_sync(0, &clock).is_ok(), "other pages untouched");
        assert_eq!(plan.stats().transient, 2);
    }

    #[test]
    fn skip_window_arms_late() {
        let plan = FaultPlan::new(
            2,
            vec![FaultRule::new(Some(0), FaultKind::PermanentRead).after(2)],
        );
        let mut d = FaultDevice::new(device_with_pages(1), plan.clone());
        let clock = SimClock::new();
        assert!(d.read_sync(0, &clock).is_ok());
        assert!(d.read_sync(0, &clock).is_ok());
        assert_eq!(
            d.read_sync(0, &clock).unwrap_err().kind,
            IoErrorKind::Permanent
        );
        assert_eq!(plan.stats().permanent, 1);
    }

    #[test]
    fn corrupt_read_flips_body_bits_only() {
        let plan = FaultPlan::new(
            3,
            vec![FaultRule::new(Some(2), FaultKind::CorruptRead).after(1)],
        );
        let mut d = FaultDevice::new(device_with_pages(3), plan.clone());
        let clock = SimClock::new();
        let clean = d.read_sync(2, &clock).unwrap();
        let torn = d.read_sync(2, &clock).unwrap();
        assert_ne!(&clean[..], &torn[..], "image actually corrupted");
        assert_eq!(
            &clean[clean.len() - CHECKSUM_LEN..],
            &torn[torn.len() - CHECKSUM_LEN..],
            "trailer untouched"
        );
        assert!(verify_page(&clean));
        assert!(!verify_page(&torn), "corruption is detectable");
        assert_eq!(plan.stats().corrupt, 1);
    }

    #[test]
    fn latency_spike_advances_clock() {
        let plan = FaultPlan::new(
            4,
            vec![FaultRule::new(
                None,
                FaultKind::LatencySpike { extra_ns: 5_000 },
            )],
        );
        let mut d = FaultDevice::new(device_with_pages(1), plan.clone());
        let clock = SimClock::new();
        let t0 = clock.now_ns();
        assert!(d.read_sync(0, &clock).is_ok());
        assert!(clock.now_ns() >= t0 + 5_000);
        assert_eq!(plan.stats().latency, 1);
    }

    #[test]
    fn poll_path_carries_errors() {
        let plan = FaultPlan::new(5, vec![FaultRule::new(Some(1), FaultKind::PermanentRead)]);
        let mut d = FaultDevice::new(device_with_pages(3), plan);
        let clock = SimClock::new();
        d.submit(0, &clock);
        d.submit(1, &clock);
        let mut ok = 0;
        let mut err = 0;
        while let Some(c) = d.poll(&clock, true) {
            match c.result {
                Ok(_) => ok += 1,
                Err(e) => {
                    assert_eq!(e.page, 1);
                    err += 1;
                }
            }
        }
        assert_eq!((ok, err), (1, 1));
    }

    #[test]
    fn forks_share_one_occurrence_count() {
        let plan = FaultPlan::new(6, vec![FaultRule::new(Some(0), FaultKind::TransientRead)]);
        let d = FaultDevice::new(device_with_pages(2), plan.clone());
        let mut f1 = d.try_fork().expect("mem device forks");
        let mut f2 = d.try_fork().expect("mem device forks");
        let clock = SimClock::new();
        let first = f1.read_sync(0, &clock);
        let second = f2.read_sync(0, &clock);
        assert!(first.is_err() && second.is_ok(), "one shot fires once");
        assert_eq!(plan.stats().transient, 1);
    }

    #[test]
    fn dropped_write_keeps_the_old_image() {
        let plan = FaultPlan::new(7, vec![FaultRule::new(Some(0), FaultKind::DroppedWrite)]);
        let mut d = FaultDevice::new(device_with_pages(2), plan.clone());
        let clock = SimClock::new();
        let mut new_image = vec![99u8; 64];
        seal_page(&mut new_image);
        d.write_page(0, new_image.clone());
        assert_eq!(
            d.read_sync(0, &clock).unwrap()[0],
            0,
            "the platter never saw the write"
        );
        assert_eq!(plan.stats().dropped_writes, 1);
        // The rule is spent: the next write lands.
        d.write_page(0, new_image);
        assert_eq!(d.read_sync(0, &clock).unwrap()[0], 99);
    }

    #[test]
    fn torn_write_is_detectable_on_read_back() {
        let plan = FaultPlan::new(8, vec![FaultRule::new(Some(1), FaultKind::TornWrite)]);
        let mut d = FaultDevice::new(device_with_pages(2), plan.clone());
        let clock = SimClock::new();
        let mut image = vec![42u8; 64];
        seal_page(&mut image);
        d.write_page(1, image.clone());
        let stored = d.read_sync(1, &clock).unwrap();
        assert_ne!(&stored[..], &image[..], "image stored torn");
        assert_eq!(
            &stored[stored.len() - CHECKSUM_LEN..],
            &image[image.len() - CHECKSUM_LEN..],
            "trailer preserved"
        );
        assert!(!verify_page(&stored), "tear is detectable");
        assert_eq!(plan.stats().torn_writes, 1);
    }

    #[test]
    fn torn_append_matches_the_assigned_page_id() {
        // A rule for page 3 fires on the append that creates page 3.
        let plan = FaultPlan::new(9, vec![FaultRule::new(Some(3), FaultKind::TornWrite)]);
        let mut d = FaultDevice::new(device_with_pages(3), plan.clone());
        let clock = SimClock::new();
        let mut image = vec![7u8; 64];
        seal_page(&mut image);
        let page = d.append_page(image);
        assert_eq!(page, 3);
        assert!(!verify_page(&d.read_sync(3, &clock).unwrap()));
        assert_eq!(plan.stats().torn_writes, 1);
    }

    #[test]
    fn read_and_write_rules_do_not_consume_each_other() {
        // An any-page read rule and an any-page write rule, both armed
        // after one clean occurrence of their own kind.
        let plan = FaultPlan::new(
            10,
            vec![
                FaultRule::new(None, FaultKind::TransientRead).after(1),
                FaultRule::new(None, FaultKind::DroppedWrite).after(1),
            ],
        );
        let mut d = FaultDevice::new(device_with_pages(2), plan.clone());
        let clock = SimClock::new();
        let mut image = vec![5u8; 64];
        seal_page(&mut image);
        // Interleave: reads must not advance the write rule's window.
        assert!(d.read_sync(0, &clock).is_ok(), "read #1: skip window");
        d.write_page(0, image.clone()); // write #1: skip window
        assert!(d.read_sync(0, &clock).is_err(), "read #2: read rule fires");
        d.write_page(1, image); // write #2: write rule fires
        assert_eq!(d.read_sync(1, &clock).unwrap()[0], 1, "write dropped");
        let stats = plan.stats();
        assert_eq!((stats.transient, stats.dropped_writes), (1, 1));
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn random_plans_are_deterministic() {
        let a = FaultPlan::random(42, 0, 16, 6);
        let b = FaultPlan::random(42, 0, 16, 6);
        assert_eq!(lock(&a.inner).rules, lock(&b.inner).rules);
        let c = FaultPlan::random(43, 0, 16, 6);
        assert_ne!(lock(&a.inner).rules, lock(&c.inner).rules);
    }
}
