//! Wall-clock throughput harness (ISSUE 2): measures what the *substrate
//! itself* costs, as opposed to the simulated times every other experiment
//! reports.
//!
//! Two measurements:
//!
//! 1. **Queue microbench** — drain a large pending set through the indexed
//!    [`SimDisk`] command queue vs. a faithful replica of the pre-PR2
//!    alloc-and-sort scheduler ([`NaiveDisk`]), at several visible-window
//!    depths. Both sides simulate the identical workload (same LCG page
//!    sequence, same cost model), and the harness cross-checks that their
//!    simulated outcomes agree before trusting the wall-clock ratio.
//! 2. **Engine sweep** — run a benchmark query end-to-end for
//!    Simple/XSchedule/XScan at each device queue depth, reporting real
//!    pages/s and result-nodes/s (wall clock, not simulated ns), plus the
//!    page-copy counter that the zero-copy read path must keep at zero.
//!
//! `emit_json` writes the `BENCH_PR2.json` artifact consumed by the
//! acceptance criteria.

use crate::{bench_options, build_db_with, Q6};
use pathix::{Method, PlanConfig};
use pathix_storage::{Device, DiskProfile, SimClock, SimDisk};
use std::collections::VecDeque;
use std::time::Instant;

/// Device queue depths swept by both measurements.
pub const DEPTHS: [usize; 5] = [1, 8, 32, 128, 512];

/// Pending-set size of the full queue microbench.
pub const MICRO_PENDING: usize = 4096;

const LCG_MUL: u64 = 6364136223846793005;
const LCG_ADD: u64 = 1442695040888963407;

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
    *x >> 33
}

struct NaivePending {
    page: u32,
    submitted_at_ns: u64,
    seq: u64,
}

/// Replica of the pre-PR2 `SimDisk` scheduling core: every pick allocates
/// an index vector, sorts it by submission sequence, truncates to the
/// visible window and scans it — O(n log n) per serve. Page bytes are
/// omitted (the microbench measures scheduling, not memcpy, so the replica
/// gets the *benefit* of the doubt on the copy path).
pub struct NaiveDisk {
    profile: DiskProfile,
    head: u32,
    busy_until_ns: u64,
    pending: Vec<NaivePending>,
    completed: VecDeque<(u32, u64)>,
    next_seq: u64,
    busy_total_ns: u64,
}

impl NaiveDisk {
    /// Creates the replica with the given cost profile (SSTF policy).
    pub fn new(profile: DiskProfile) -> Self {
        Self {
            profile,
            head: 0,
            busy_until_ns: 0,
            pending: Vec::new(),
            completed: VecDeque::new(),
            next_seq: 0,
            busy_total_ns: 0,
        }
    }

    /// Total simulated busy time — cross-checked against the indexed disk.
    pub fn busy_ns(&self) -> u64 {
        self.busy_total_ns
    }

    fn visible_queue(&self) -> usize {
        if self.profile.queue_depth == 0 {
            self.pending.len()
        } else {
            self.profile.queue_depth.min(self.pending.len())
        }
    }

    fn pick_next(&self) -> Option<usize> {
        if self.pending.is_empty() {
            return None;
        }
        let mut idx: Vec<usize> = (0..self.pending.len()).collect();
        idx.sort_by_key(|&i| self.pending[i].seq);
        idx.truncate(self.visible_queue());
        idx.into_iter().min_by_key(|&i| {
            let p = self.pending[i].page;
            (p.abs_diff(self.head), p)
        })
    }

    fn serve(&mut self, i: usize) -> (u32, u64) {
        let queued = self.visible_queue().saturating_sub(1);
        let req = self.pending.swap_remove(i);
        let start = self.busy_until_ns.max(req.submitted_at_ns);
        let cost = self
            .profile
            .access_cost_queued_ns(self.head, req.page, queued);
        let finished = start + cost;
        self.busy_total_ns += cost;
        self.head = req.page + 1;
        self.busy_until_ns = finished;
        (req.page, finished)
    }

    fn advance(&mut self, now_ns: u64) {
        while let Some(i) = self.pick_next() {
            let req = &self.pending[i];
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

    /// Queues a read request.
    pub fn submit(&mut self, page: u32, now_ns: u64) {
        self.advance(now_ns);
        self.pending.push(NaivePending {
            page,
            submitted_at_ns: now_ns,
            seq: self.next_seq,
        });
        self.next_seq += 1;
    }

    /// Blocking poll; returns `(page, finished_at_ns)`.
    pub fn poll_blocking(&mut self, now_ns: u64) -> Option<(u32, u64)> {
        self.advance(now_ns);
        if let Some(c) = self.completed.pop_front() {
            return Some(c);
        }
        let i = self.pick_next()?;
        Some(self.serve(i))
    }
}

fn micro_profile(depth: usize) -> DiskProfile {
    DiskProfile {
        queue_depth: depth,
        ..DiskProfile::default()
    }
}

/// Drains `n` pseudo-random requests through the naive scheduler.
/// Returns `(final_now_ns, busy_ns)`.
pub fn naive_drain(n: usize, depth: usize) -> (u64, u64) {
    let mut d = NaiveDisk::new(micro_profile(depth));
    let mut x = 0x2545F4914F6CDD1Du64;
    for _ in 0..n {
        d.submit(lcg(&mut x) as u32 % n as u32, 0);
    }
    let mut now = 0u64;
    while let Some((_, fin)) = d.poll_blocking(now) {
        now = now.max(fin);
    }
    (now, d.busy_ns())
}

/// Drains the identical workload through the real indexed [`SimDisk`].
/// Returns `(final_now_ns, busy_ns)`.
pub fn indexed_drain(n: usize, depth: usize) -> (u64, u64) {
    let mut d = SimDisk::with_profile(64, micro_profile(depth));
    for _ in 0..n {
        d.append_page(Vec::new());
    }
    let clock = SimClock::new();
    let mut x = 0x2545F4914F6CDD1Du64;
    for _ in 0..n {
        d.submit(lcg(&mut x) as u32 % n as u32, &clock);
    }
    while d.poll(&clock, true).is_some() {}
    (clock.now_ns(), d.stats().busy_ns)
}

/// One microbench comparison at one depth.
#[derive(Debug, Clone, Copy)]
pub struct MicroRow {
    /// Visible-window depth.
    pub depth: usize,
    /// Pending-set size drained.
    pub pending: usize,
    /// Wall-clock milliseconds: naive alloc-and-sort scheduler.
    pub naive_ms: f64,
    /// Wall-clock milliseconds: indexed command queue.
    pub indexed_ms: f64,
    /// `naive_ms / indexed_ms`.
    pub speedup: f64,
    /// Both sides produced identical simulated outcomes.
    pub agree: bool,
}

/// Runs the queue microbench at each depth, `n` pending requests.
pub fn micro_sweep(n: usize, depths: &[usize]) -> Vec<MicroRow> {
    depths
        .iter()
        .map(|&depth| {
            let t = Instant::now();
            let naive = naive_drain(n, depth);
            let naive_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let indexed = indexed_drain(n, depth);
            let indexed_ms = t.elapsed().as_secs_f64() * 1e3;
            MicroRow {
                depth,
                pending: n,
                naive_ms,
                indexed_ms,
                speedup: naive_ms / indexed_ms.max(1e-9),
                agree: naive == indexed,
            }
        })
        .collect()
}

/// One engine-throughput measurement.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Plan label.
    pub method: String,
    /// Device queue depth (and XSchedule `k`).
    pub depth: usize,
    /// Real elapsed milliseconds for the cold run.
    pub wall_ms: f64,
    /// Device pages read.
    pub pages_read: u64,
    /// Pages per wall-clock second.
    pub pages_per_s: f64,
    /// Query result (count of result nodes).
    pub result_nodes: u64,
    /// Result nodes per wall-clock second.
    pub nodes_per_s: f64,
    /// Simulated total seconds (the usual metric, for reference).
    pub sim_total_s: f64,
    /// Page-image copies performed by the device — must be 0.
    pub page_copies: u64,
}

/// Runs Q6 cold for each method at each device queue depth, measuring wall
/// time. `instant_profile` replaces the disk cost model with zero latency
/// (the CI smoke configuration — wall time then is pure engine overhead).
pub fn engine_sweep(scale: f64, depths: &[usize], instant_profile: bool) -> Vec<EngineRow> {
    let mut rows = Vec::new();
    for &depth in depths {
        let mut opts = bench_options();
        if instant_profile {
            opts.profile = DiskProfile::instant();
        }
        opts.profile.queue_depth = depth;
        let db = build_db_with(scale, &opts);
        let methods = [
            Method::Simple,
            Method::XSchedule {
                k: depth.max(1),
                speculative: false,
            },
            Method::XScan,
        ];
        for m in methods {
            db.clear_buffers();
            db.reset_device_stats();
            let cfg = PlanConfig::new(m);
            let t = Instant::now();
            let run = db.run(Q6, cfg).expect("throughput query runs");
            let wall_s = t.elapsed().as_secs_f64().max(1e-9);
            let dev = run.report.device;
            rows.push(EngineRow {
                method: m.label().to_owned(),
                depth,
                wall_ms: wall_s * 1e3,
                pages_read: dev.reads,
                pages_per_s: dev.reads as f64 / wall_s,
                result_nodes: run.value,
                nodes_per_s: run.value as f64 / wall_s,
                sim_total_s: run.report.total_secs(),
                page_copies: dev.page_copies,
            });
        }
    }
    rows
}

/// Serializes both sweeps as the `BENCH_PR2.json` artifact.
pub fn emit_json(scale: f64, micro: &[MicroRow], engine: &[EngineRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"artifact\": \"BENCH_PR2\",\n");
    out.push_str("  \"description\": \"wall-clock throughput of the reordering substrate: indexed command queue vs naive alloc+sort, and end-to-end engine rates per device queue depth\",\n");
    out.push_str(&format!("  \"engine_scale_factor\": {scale},\n"));
    out.push_str("  \"queue_microbench\": [\n");
    for (i, r) in micro.iter().enumerate() {
        let sep = if i + 1 < micro.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"depth\": {}, \"pending\": {}, \"naive_ms\": {:.3}, \"indexed_ms\": {:.3}, \"speedup\": {:.2}, \"outcomes_agree\": {}}}{sep}\n",
            r.depth, r.pending, r.naive_ms, r.indexed_ms, r.speedup, r.agree
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"engine_throughput\": [\n");
    for (i, r) in engine.iter().enumerate() {
        let sep = if i + 1 < engine.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"method\": \"{}\", \"depth\": {}, \"wall_ms\": {:.3}, \"pages_read\": {}, \"pages_per_s\": {:.0}, \"result_nodes\": {}, \"nodes_per_s\": {:.0}, \"sim_total_s\": {:.4}, \"page_copies\": {}}}{sep}\n",
            r.method,
            r.depth,
            r.wall_ms,
            r.pages_read,
            r.pages_per_s,
            r.result_nodes,
            r.nodes_per_s,
            r.sim_total_s,
            r.page_copies
        ));
    }
    out.push_str("  ],\n");
    let zero_copy = engine.iter().all(|r| r.page_copies == 0);
    out.push_str(&format!("  \"zero_copy_read_path\": {zero_copy}\n"));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn naive_and_indexed_agree_on_simulated_outcome() {
        for depth in [1, 7, 0] {
            assert_eq!(naive_drain(300, depth), indexed_drain(300, depth));
        }
    }

    #[test]
    fn micro_sweep_rows_are_consistent() {
        let rows = micro_sweep(200, &[1, 8]);
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(r.agree, "simulated outcomes diverged at depth {}", r.depth);
            assert!(r.indexed_ms > 0.0);
        }
    }

    #[test]
    fn emit_json_is_wellformed_enough() {
        let micro = micro_sweep(100, &[1]);
        let engine = engine_sweep(0.01, &[1], true);
        let json = emit_json(0.01, &micro, &engine);
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert_eq!(
            json.matches("\"depth\"").count(),
            micro.len() + engine.len()
        );
        assert!(json.contains("\"zero_copy_read_path\": true"));
    }
}
