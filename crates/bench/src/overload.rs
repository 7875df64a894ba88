//! Overload harness (PR 5): the governed batch executor under an
//! **open-loop arrival ramp**.
//!
//! The model: `N` work items arrive open-loop at `m×` the sustainable
//! service rate. In an arrival window that admits all `N` at `1×`, a
//! server running at rate multiple `m` can drain only `⌈N/m⌉` of them —
//! the rest must be shed up front or they would queue without bound (the
//! defining failure of open-loop overload). The admission controller
//! therefore gets `max_admitted = ⌈N/m⌉`, and shedding is a batch-order
//! prefix decision: deterministic, decided before execution, reported as
//! [`ExecError::Overloaded`](pathix_core::ExecError).
//!
//! Every admitted item carries a two-stage deadline derived from the
//! measured mean sim service time `T̄`: soft at `T̄`, hard at `2T̄`. Items
//! whose plan would blow past the mean degrade into the §5.4.6 fallback at
//! the soft deadline and abort with a typed error at the hard one — so the
//! per-item p99 sim-latency is bounded by the hard deadline (plus at most
//! one inter-checkpoint stride of work, see DESIGN.md §12).
//!
//! Workers use **private device forks with cold per-item buffers** (no
//! shared page cache): each item's sim-timeline — and therefore its
//! deadline outcome — is a pure function of the item itself, never of
//! claim order. The shared memory ledger is likewise off here: its
//! refusals depend on which items are concurrently in flight, which is
//! real scheduling, not a reproducible figure (the chaos and unit suites
//! cover it). That is what lets the whole sweep assert bit-identical
//! outcomes across repeated runs and worker counts.
//!
//! In full mode each fork is wrapped in a [`PacedDevice`] so the ramp
//! costs real wall-clock time per physical read, like the scaling harness;
//! fast mode uses an instant profile and no pacing (correctness smoke).
//! `emit_json` writes the `BENCH_PR5.json` artifact.

use crate::scaling::{batch_work, PacedDevice};
use crate::{bench_options, build_db_with};
use pathix::{Database, Method, PlanConfig};
use pathix_core::{execute_batch_governed, AdmissionConfig, ExecError, QueryBudget, WorkerSeed};
use pathix_storage::{Device, DiskProfile};
use pathix_tree::NodeId;
use std::time::Instant;

/// Rate multiples swept by the full harness (1× = sustainable).
pub const RATE_MULTIPLES: [u32; 4] = [1, 2, 4, 8];

/// Worker threads executing admitted items.
pub const OVERLOAD_WORKERS: usize = 4;

/// Realized wall-clock service time per physical read in full mode. The
/// governed executor runs cold per-item buffers (no shared cache), so this
/// is deliberately lighter than the scaling harness's pace.
pub const OVERLOAD_PACE_READ_NS: u64 = 40_000;

/// One measurement at one rate multiple.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadRow {
    /// Offered-load multiple of the sustainable rate.
    pub multiple: u32,
    /// Items offered (the whole batch).
    pub offered: usize,
    /// Admission capacity `⌈N/m⌉` at this rate.
    pub admitted_cap: usize,
    /// Items admitted (ran to an answer or a typed abort).
    pub admitted: u64,
    /// Items shed with `Overloaded`.
    pub shed: u64,
    /// Admitted items that degraded into §5.4.6 fallback and answered.
    pub degraded: u64,
    /// Admitted items aborted at the hard deadline.
    pub deadline_aborted: u64,
    /// Admitted items that answered (degraded or not).
    pub answered: usize,
    /// Answered items whose nodes diverged from the oracle — must be 0.
    pub wrong: usize,
    /// Median sim-latency of admitted items, milliseconds.
    pub p50_sim_ms: f64,
    /// 99th-percentile sim-latency of admitted items, milliseconds.
    pub p99_sim_ms: f64,
    /// The hard deadline every admitted item carried, milliseconds.
    pub hard_deadline_ms: f64,
    /// Real elapsed milliseconds for the batch (not deterministic).
    pub wall_ms: f64,
}

impl OverloadRow {
    /// The deterministic projection of a row: everything except wall time.
    fn sim_key(
        &self,
    ) -> (
        u32,
        usize,
        usize,
        u64,
        u64,
        u64,
        u64,
        usize,
        usize,
        u64,
        u64,
    ) {
        (
            self.multiple,
            self.offered,
            self.admitted_cap,
            self.admitted,
            self.shed,
            self.degraded,
            self.deadline_aborted,
            self.answered,
            self.wrong,
            (self.p50_sim_ms * 1e6) as u64,
            (self.p99_sim_ms * 1e6) as u64,
        )
    }
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1e6
}

fn governed_seeds(db: &Database, workers: usize, read_ns: u64) -> Vec<WorkerSeed> {
    (0..workers)
        .map(|_| {
            let fork = db
                .store()
                .buffer
                .device_mut()
                .try_fork()
                .expect("the simulated disk forks");
            let device: Box<dyn Device + Send> = if read_ns > 0 {
                Box::new(PacedDevice::new(fork, read_ns))
            } else {
                fork
            };
            WorkerSeed {
                device,
                meta: db.store().meta.clone(),
                params: db.store().buffer.params(),
            }
        })
        .collect()
}

fn run_ramp(
    db: &Database,
    parsed: &[(pathix::xpath::LocationPath, Method)],
    reference: &[Vec<(NodeId, u64)>],
    cfg: &PlanConfig,
    mean_service_ns: u64,
    read_ns: u64,
    multiple: u32,
) -> OverloadRow {
    let offered = parsed.len();
    let admitted_cap = offered.div_ceil(multiple as usize);
    let soft_ns = mean_service_ns;
    let hard_ns = 2 * mean_service_ns;
    let budgets: Vec<QueryBudget> = (0..offered)
        .map(|_| QueryBudget::with_deadline(soft_ns, hard_ns))
        .collect();
    let admission = AdmissionConfig {
        max_in_flight: OVERLOAD_WORKERS,
        max_admitted: Some(admitted_cap),
        ledger_cap_bytes: None,
    };
    let seeds = governed_seeds(db, OVERLOAD_WORKERS, read_ns);
    let t = Instant::now();
    let batch = execute_batch_governed(seeds, parsed, cfg, &budgets, &admission);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut answered = 0usize;
    let mut wrong = 0usize;
    for (i, run) in batch.runs.iter().enumerate() {
        match run {
            Ok(r) => {
                answered += 1;
                if r.nodes != reference[i] {
                    wrong += 1;
                }
                latencies_ns.push(r.report.time.total_ns);
            }
            Err(ExecError::DeadlineExceeded { elapsed, .. }) => latencies_ns.push(*elapsed),
            Err(ExecError::Overloaded) => {} // never started: no latency
            Err(other) => panic!("illegal overload outcome on item {i}: {other:?}"),
        }
    }
    latencies_ns.sort_unstable();

    OverloadRow {
        multiple,
        offered,
        admitted_cap,
        admitted: batch.governor.admitted,
        shed: batch.governor.shed,
        degraded: batch.governor.degraded,
        deadline_aborted: batch.governor.deadline_aborted,
        answered,
        wrong,
        p50_sim_ms: percentile_ms(&latencies_ns, 50.0),
        p99_sim_ms: percentile_ms(&latencies_ns, 99.0),
        hard_deadline_ms: hard_ns as f64 / 1e6,
        wall_ms,
    }
}

/// Runs the open-loop ramp at each rate multiple — twice — and reports the
/// rows plus whether the two passes were sim-identical (they must be: the
/// `deterministic` flag feeds the acceptance gate).
pub fn overload_sweep(scale: f64, multiples: &[u32], fast: bool) -> (Vec<OverloadRow>, bool) {
    let mut opts = bench_options();
    if fast {
        opts.profile = DiskProfile::instant();
    }
    let db = build_db_with(scale, &opts);
    let work = batch_work();

    let mut cfg = PlanConfig::new(Method::Simple);
    cfg.sort = true;

    // Oracle + mean sim service time, from cold sequential runs on the
    // main store (unpaced; pacing burns wall clock, not sim time).
    let mut reference: Vec<Vec<(NodeId, u64)>> = Vec::with_capacity(work.len());
    let mut total_service_ns: u64 = 0;
    for (p, m) in &work {
        let mut item_cfg = cfg;
        item_cfg.method = *m;
        db.clear_buffers();
        let run = db.run(p, item_cfg).expect("clean sequential run");
        total_service_ns += run.report.time.total_ns;
        reference.push(run.nodes);
    }
    let mean_service_ns = (total_service_ns / work.len() as u64).max(1);

    let parsed: Vec<(pathix::xpath::LocationPath, Method)> = work
        .iter()
        .map(|(p, m)| {
            (
                pathix::xpath::parse_path(p)
                    .expect("batch path parses")
                    .rooted(),
                *m,
            )
        })
        .collect();

    let read_ns = if fast { 0 } else { OVERLOAD_PACE_READ_NS };
    let pass = |_: usize| -> Vec<OverloadRow> {
        multiples
            .iter()
            .map(|&m| run_ramp(&db, &parsed, &reference, &cfg, mean_service_ns, read_ns, m))
            .collect()
    };
    let first = pass(0);
    let second = pass(1);
    let deterministic = first
        .iter()
        .zip(&second)
        .all(|(a, b)| a.sim_key() == b.sim_key())
        && first.len() == second.len();
    (first, deterministic)
}

/// Serializes the sweep as the `BENCH_PR5.json` artifact.
pub fn emit_json(scale: f64, rows: &[OverloadRow], deterministic: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"artifact\": \"BENCH_PR5\",\n");
    out.push_str("  \"description\": \"governed batch executor under an open-loop arrival ramp: admission control sheds the over-capacity batch tail deterministically, two-stage deadlines degrade then abort the rest, and answered items are always oracle-correct\",\n");
    out.push_str(&format!("  \"engine_scale_factor\": {scale},\n"));
    out.push_str(&format!("  \"workers\": {OVERLOAD_WORKERS},\n"));
    out.push_str(&format!("  \"pace_read_ns\": {OVERLOAD_PACE_READ_NS},\n"));
    out.push_str("  \"batch\": \"Q6'/Q7/Q15-style paths x Simple/XSchedule/XScan\",\n");
    out.push_str("  \"overload_ramp\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"rate_multiple\": {}, \"offered\": {}, \"admitted_cap\": {}, \"admitted\": {}, \"shed\": {}, \"degraded\": {}, \"deadline_aborted\": {}, \"answered\": {}, \"wrong\": {}, \"p50_sim_ms\": {:.3}, \"p99_sim_ms\": {:.3}, \"hard_deadline_ms\": {:.3}, \"wall_ms\": {:.1}}}{sep}\n",
            r.multiple,
            r.offered,
            r.admitted_cap,
            r.admitted,
            r.shed,
            r.degraded,
            r.deadline_aborted,
            r.answered,
            r.wrong,
            r.p50_sim_ms,
            r.p99_sim_ms,
            r.hard_deadline_ms,
            r.wall_ms,
        ));
    }
    out.push_str("  ],\n");
    let zero_wrong = rows.iter().all(|r| r.wrong == 0);
    let sheds_over_capacity = rows
        .iter()
        .filter(|r| r.multiple > 1)
        .all(|r| r.shed as usize == r.offered - r.admitted_cap && r.shed > 0);
    // One inter-checkpoint stride of slack past the hard deadline (see the
    // module docs): p99 ≤ 2× the hard deadline is the acceptance bound.
    let p99_bounded = rows
        .iter()
        .all(|r| r.p99_sim_ms <= 2.0 * r.hard_deadline_ms);
    out.push_str(&format!("  \"deterministic\": {deterministic},\n"));
    out.push_str(&format!("  \"zero_wrong_answers\": {zero_wrong},\n"));
    out.push_str(&format!(
        "  \"sheds_exactly_over_capacity\": {sheds_over_capacity},\n"
    ));
    out.push_str(&format!(
        "  \"p99_bounded_by_hard_deadline\": {p99_bounded}\n"
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn fast_ramp_sheds_deterministically_with_zero_wrong_answers() {
        let (rows, deterministic) = overload_sweep(0.01, &[1, 4], true);
        assert_eq!(rows.len(), 2);
        assert!(deterministic, "sim outcomes changed between passes");
        for r in &rows {
            assert_eq!(r.wrong, 0, "wrong answers at {}x", r.multiple);
            assert_eq!(r.admitted + r.shed, r.offered as u64);
            assert!(
                r.p99_sim_ms <= 2.0 * r.hard_deadline_ms,
                "p99 {} ms blew the {} ms hard deadline at {}x",
                r.p99_sim_ms,
                r.hard_deadline_ms,
                r.multiple
            );
        }
        let at_4x = &rows[1];
        assert_eq!(
            at_4x.shed as usize,
            at_4x.offered - at_4x.admitted_cap,
            "4x ramp sheds exactly the over-capacity tail"
        );
        assert!(at_4x.shed > 0);
    }

    #[test]
    fn emit_json_is_wellformed_enough() {
        let (rows, deterministic) = overload_sweep(0.01, &[2], true);
        let json = emit_json(0.01, &rows, deterministic);
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"zero_wrong_answers\": true"));
        assert!(json.contains("\"deterministic\": true"));
    }
}
