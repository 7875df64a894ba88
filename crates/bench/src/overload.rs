//! Overload harness (`OVERLOAD`): the governed batch executor under an
//! **open-loop arrival ramp**.
//!
//! The model: `N` work items arrive open-loop at `m×` the sustainable
//! service rate. In an arrival window that admits all `N` at `1×`, a
//! server running at rate multiple `m` can drain only `⌈N/m⌉` of them —
//! the rest must be shed up front or they would queue without bound (the
//! defining failure of open-loop overload). The admission controller
//! therefore gets `max_admitted = ⌈N/m⌉`, and shedding is a batch-order
//! prefix decision: deterministic, decided before execution, reported as
//! [`ExecError::Overloaded`](pathix::ExecError).
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
//! claim order or worker count. That is what lets the sweep run twice and
//! check that every row repeats exactly (`deterministic`).
//!
//! Fast mode runs a smaller document on the instant disk profile
//! (correctness smoke).

use crate::artifact::{num, Artifact, Cell, Table};
use crate::{build_db_with, corpus};
use pathix::{AdmissionConfig, Batch, ExecError, Method, PlanConfig, QueryBudget, QueryRun};

/// Rate multiples swept by the full harness (1× = sustainable).
pub const RATE_MULTIPLES: [u32; 4] = [1, 2, 4, 8];

/// Worker threads executing admitted items.
pub const OVERLOAD_WORKERS: usize = 4;

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1e6
}

/// The batch the ramp offers, with its oracle and the deadlines it runs
/// under.
struct Ramp<'a> {
    db: &'a pathix::Database,
    work: Vec<(&'static str, Method)>,
    reference: Vec<QueryRun>,
    cfg: PlanConfig,
    mean_service_ns: u64,
}

impl Ramp<'_> {
    /// Offers the whole batch at `multiple`× the sustainable rate.
    fn row(&self, multiple: u32) -> Vec<Cell> {
        let offered = self.work.len();
        let admitted_cap = offered.div_ceil(multiple as usize);
        let (soft_ns, hard_ns) = (self.mean_service_ns, 2 * self.mean_service_ns);
        let budgets: Vec<QueryBudget> = (0..offered)
            .map(|_| QueryBudget::with_deadline(soft_ns, hard_ns))
            .collect();
        let admission = AdmissionConfig {
            max_admitted: Some(admitted_cap),
        };
        let batch = self
            .db
            .run_batch(
                &self.work,
                &self.cfg,
                Batch::Governed {
                    workers: OVERLOAD_WORKERS,
                    budgets: &budgets,
                    admission,
                },
            )
            .expect("the simulated disk forks");

        let mut latencies_ns: Vec<u64> = Vec::new();
        let (mut answered, mut wrong) = (0, 0);
        for (i, (run, want)) in batch.runs.iter().zip(&self.reference).enumerate() {
            match run {
                Ok(r) => {
                    answered += 1;
                    wrong += u64::from(r.nodes != want.nodes);
                    latencies_ns.push(r.report.time.total_ns);
                }
                Err(ExecError::DeadlineExceeded { elapsed, .. }) => latencies_ns.push(*elapsed),
                Err(ExecError::Overloaded) => {} // never started: no latency
                Err(other) => panic!("illegal overload outcome on item {i}: {other:?}"),
            }
        }
        latencies_ns.sort_unstable();
        let governor = batch.governor;
        vec![
            Cell::int("rate_multiple", u64::from(multiple)),
            Cell::int("offered", offered as u64),
            Cell::int("admitted_cap", admitted_cap as u64),
            Cell::int("admitted", governor.admitted),
            Cell::int("shed", governor.shed),
            Cell::int("degraded", governor.degraded),
            Cell::int("deadline_aborted", governor.deadline_aborted),
            Cell::int("answered", answered),
            Cell::int("wrong", wrong),
            Cell::real("p50_sim_ms", percentile_ms(&latencies_ns, 50.0), 3),
            Cell::real("p99_sim_ms", percentile_ms(&latencies_ns, 99.0), 3),
            Cell::real("hard_deadline_ms", hard_ns as f64 / 1e6, 3),
        ]
    }
}

/// Runs the open-loop ramp at each rate multiple, twice. Full: SF 0.05,
/// 1×/2×/4×/8×. Fast: SF 0.01, 1×/4×, instant profile.
pub fn run(fast: bool) -> Artifact {
    let (scale, multiples): (f64, &[u32]) = if fast {
        (0.01, &[1, 4])
    } else {
        (0.05, &RATE_MULTIPLES)
    };
    let db = build_db_with(scale, &corpus::options(fast));
    // Oracle and mean sim service time, from cold sequential runs on the
    // main store.
    let reference = corpus::oracle(&db);
    let total_ns: u64 = reference.iter().map(|r| r.report.time.total_ns).sum();
    let ramp = Ramp {
        db: &db,
        work: corpus::batch_work(),
        mean_service_ns: (total_ns / reference.len() as u64).max(1),
        reference,
        cfg: corpus::sorted_cfg(),
    };
    let sweep = || -> Vec<Vec<Cell>> { multiples.iter().map(|&m| ramp.row(m)).collect() };
    let rows = sweep();
    let again = sweep();
    let deterministic = rows == again;
    let zero_wrong = rows.iter().all(|r| num(r, "wrong") == 0.0);
    // At m× the rate exactly the over-capacity tail is shed and the rest
    // admitted (at 1× the capacity is the whole batch).
    let sheds_exactly = rows.iter().all(|r| {
        let cap = num(r, "admitted_cap");
        num(r, "admitted") == cap && num(r, "shed") == num(r, "offered") - cap
    });
    // One inter-checkpoint stride of slack past the hard deadline (see the
    // module docs): p99 ≤ 2× the hard deadline is the acceptance bound.
    let p99_bounded = rows
        .iter()
        .all(|r| num(r, "p99_sim_ms") <= 2.0 * num(r, "hard_deadline_ms"));
    Artifact {
        name: "OVERLOAD",
        description: "governed batch executor under an open-loop arrival ramp: admission control sheds the over-capacity batch tail deterministically, two-stage deadlines degrade then abort the rest, and answered items are always oracle-correct",
        params: vec![
            Cell::param("engine_scale_factor", scale),
            Cell::int("workers", OVERLOAD_WORKERS as u64),
            Cell::text("batch", "Q6'/Q7/Q15-style paths x Simple/XSchedule/XScan"),
        ],
        tables: vec![Table {
            name: "overload_ramp",
            rows,
        }],
        summary: vec![
            Cell::check("deterministic", deterministic),
            Cell::check("zero_wrong_answers", zero_wrong),
            Cell::check("sheds_exactly_over_capacity", sheds_exactly),
            Cell::check("p99_bounded_by_hard_deadline", p99_bounded),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ramp_sheds_deterministically_with_zero_wrong_answers() {
        let a = run(true);
        assert_eq!(a.failed_checks(), Vec::<String>::new());
        let rows = &a.tables[0].rows;
        assert_eq!(rows.len(), 2);
        assert!(
            num(&rows[1], "shed") > 0.0,
            "4x sheds the over-capacity tail"
        );
    }

    #[test]
    fn emit_json_is_wellformed_enough() {
        let json = run(true).to_json();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"zero_wrong_answers\": true"));
        assert!(json.contains("\"deterministic\": true"));
    }
}
