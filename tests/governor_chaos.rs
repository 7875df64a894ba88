//! Governor chaos suite (DESIGN.md §12): random fault schedules under
//! tight deadlines and admission pressure. The invariant is a closed set
//! of legal per-item outcomes — every item lands in **exactly one** of
//!
//! * oracle-correct,
//! * `Degraded` + oracle-correct (the soft deadline flipped the plan into
//!   §5.4.6 fallback, which still answers exactly),
//! * `DeadlineExceeded` (hard deadline: typed abort, no partial answer),
//! * `Overloaded` (shed by admission control, batch-order prefix),
//! * `Io` (the fault schedule won; clean typed abort),
//!
//! and a wrong answer is never among them. An unlimited-budget run of the
//! same corpus on a clean store must match the oracle bit-for-bit — the
//! governor adds outcomes, never alters answers.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::{
    AdmissionConfig, Batch, Database, DatabaseOptions, DeviceKind, ExecError, FaultPlan, Method,
    PlanConfig, QueryBudget,
};
use pathix_tree::NodeId;
use proptest::prelude::*;
use std::sync::OnceLock;

const PATHS: [&str; 3] = ["/site/people//email", "/site/regions//item", "//keyword"];

fn doc() -> &'static pathix::xml::Document {
    static DOC: OnceLock<pathix::xml::Document> = OnceLock::new();
    DOC.get_or_init(|| pathix::xmlgen::generate(&pathix::xmlgen::GenConfig::at_scale(0.008)))
}

fn mem_opts() -> DatabaseOptions {
    DatabaseOptions {
        page_size: 1024,
        buffer_pages: 8,
        device: DeviceKind::Mem,
        ..Default::default()
    }
}

fn corpus() -> Vec<(&'static str, Method)> {
    let mut work = Vec::new();
    for m in [Method::Simple, Method::xschedule(), Method::XScan] {
        for p in PATHS {
            work.push((p, m));
        }
    }
    work
}

fn sorted_cfg() -> PlanConfig {
    let mut cfg = PlanConfig::new(Method::Simple);
    cfg.sort = true;
    cfg
}

/// Fault-free reference results plus page geometry (as in
/// `fault_injection.rs`: one clean import settles both).
#[allow(clippy::type_complexity)]
fn oracle() -> &'static (Vec<Vec<(NodeId, u64)>>, u32, u32) {
    static ORACLE: OnceLock<(Vec<Vec<(NodeId, u64)>>, u32, u32)> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let db = Database::from_document(doc(), &mem_opts()).expect("clean import");
        let cfg = sorted_cfg();
        let reference = corpus()
            .iter()
            .map(|(p, m)| {
                db.run(p, PlanConfig { method: *m, ..cfg })
                    .expect("clean run")
                    .nodes
            })
            .collect::<Vec<_>>();
        assert!(reference.iter().any(|nodes| !nodes.is_empty()));
        (
            reference,
            db.store().meta.base_page,
            db.store().meta.page_count,
        )
    })
}

/// Checks one governed batch against the closed outcome set. Returns a
/// compact class label per item (used by the determinism test).
fn classify(
    runs: &[Result<pathix::core::PathRun, ExecError>],
    reference: &[Vec<(NodeId, u64)>],
    admitted_cap: usize,
    hard_ns: u64,
) -> Result<Vec<&'static str>, String> {
    let mut classes = Vec::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        let class = match run {
            Ok(r) => {
                prop_assert_eq!(
                    &r.nodes,
                    &reference[i],
                    "wrong answer on item {} (degraded={})",
                    i,
                    r.report.degraded
                );
                if r.report.degraded {
                    prop_assert!(r.report.fallback, "degraded implies fallback");
                    "degraded-correct"
                } else {
                    "correct"
                }
            }
            Err(ExecError::Overloaded) => {
                prop_assert!(
                    i >= admitted_cap,
                    "item {} shed below the admission cap {}",
                    i,
                    admitted_cap
                );
                "overloaded"
            }
            Err(ExecError::DeadlineExceeded { elapsed, .. }) => {
                prop_assert!(
                    *elapsed >= hard_ns,
                    "item {} aborted {} sim-ns in, before its {} ns hard deadline",
                    i,
                    elapsed,
                    hard_ns
                );
                "deadline"
            }
            Err(ExecError::Io { attempts, .. }) => {
                prop_assert!(*attempts >= 1);
                "io"
            }
            Err(other) => {
                prop_assert!(false, "illegal outcome on item {}: {:?}", i, other);
                unreachable!()
            }
        };
        // Shedding is a batch-order prefix decision: everything past the
        // cap is Overloaded, nothing below it ever is.
        if i >= admitted_cap {
            prop_assert!(class == "overloaded", "item {} past the cap not shed", i);
        }
        classes.push(class);
    }
    Ok(classes)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(60),
        .. ProptestConfig::default()
    })]

    /// The headline property: random fault schedules × tight deadlines ×
    /// admission pressure never produce anything outside the closed
    /// outcome set, and never a wrong answer.
    #[test]
    fn chaos_outcomes_stay_in_the_closed_set(
        seed in any::<u64>(),
        n_rules in 0usize..16,
        hard_us in 20u64..3_000,
        cap_raw in 0usize..13,
    ) {
        // 0 means "no admission cap" (the vendored proptest stub has no
        // Option strategy).
        let cap = (cap_raw > 0).then_some(cap_raw);
        let (reference, base_page, page_count) = oracle();
        let work = corpus();
        let plan = FaultPlan::random(seed, *base_page, *page_count, n_rules);
        let db = Database::from_document_with_faults(doc(), &mem_opts(), plan)
            .expect("import writes a clean store; faults hit query-time reads");

        let hard_ns = hard_us * 1_000;
        let budgets: Vec<QueryBudget> = work
            .iter()
            .map(|_| QueryBudget::with_deadline(hard_ns / 2, hard_ns))
            .collect();
        let admission = AdmissionConfig { max_admitted: cap };
        let batch = db
            .run_batch(&work, &sorted_cfg(), Batch::Governed {
                workers: 2,
                budgets: &budgets,
                admission,
            })
            .expect("mem devices fork");

        let admitted_cap = cap.unwrap_or(usize::MAX);
        let classes = classify(&batch.runs, reference, admitted_cap, hard_ns)?;

        // The governor report tallies exactly what the runs show.
        let shed = classes.iter().filter(|&&c| c == "overloaded").count();
        let aborted = classes.iter().filter(|&&c| c == "deadline").count();
        let degraded = classes.iter().filter(|&&c| c == "degraded-correct").count();
        prop_assert_eq!(batch.governor.shed as usize, shed);
        prop_assert_eq!(batch.governor.deadline_aborted as usize, aborted);
        prop_assert_eq!(batch.governor.degraded as usize, degraded);
        prop_assert_eq!(
            batch.governor.admitted as usize + shed,
            work.len(),
            "every item is admitted or shed, never both or neither"
        );
    }

    /// The no-budget control: the same corpus on a clean store with
    /// unlimited budgets and no admission pressure matches the oracle
    /// bit-for-bit. The governor machinery being *present* changes nothing.
    #[test]
    fn unlimited_budgets_on_a_clean_store_match_the_oracle(
        workers in 1usize..4,
    ) {
        let (reference, _, _) = oracle();
        let work = corpus();
        let db = Database::from_document(doc(), &mem_opts()).expect("clean import");
        let budgets = vec![QueryBudget::unlimited(); work.len()];
        let batch = db
            .run_batch(&work, &sorted_cfg(), Batch::Governed {
                workers,
                budgets: &budgets,
                admission: AdmissionConfig::unlimited(),
            })
            .expect("mem devices fork");
        for (i, run) in batch.runs.iter().enumerate() {
            let run = run.as_ref().expect("no budget, no faults: no aborts");
            prop_assert_eq!(&run.nodes, &reference[i]);
            prop_assert!(!run.report.degraded);
        }
        prop_assert_eq!(batch.governor.admitted as usize, work.len());
        prop_assert_eq!(batch.governor.shed, 0);
        prop_assert_eq!(batch.governor.degraded, 0);
        prop_assert_eq!(batch.governor.deadline_aborted, 0);
    }
}

/// Deadline outcomes are a pure function of the item, not of scheduling:
/// with cold per-item buffers and private device forks, the same tight
/// budgets produce the identical outcome classes for any worker count —
/// and across repeated runs.
#[test]
fn governed_outcomes_are_deterministic_across_workers_and_runs() {
    let (reference, _, _) = oracle();
    let work = corpus();
    let db = Database::from_document(doc(), &mem_opts()).expect("clean import");
    // Tight enough that some items abort, loose enough that some answer:
    // mixed per-item budgets pin both sides of the two-stage machine.
    let budgets: Vec<QueryBudget> = (0..work.len())
        .map(|i| match i % 3 {
            0 => QueryBudget::unlimited(),
            1 => QueryBudget::with_deadline(30_000, 60_000),
            _ => QueryBudget::with_deadline(150_000, 400_000),
        })
        .collect();
    let admission = AdmissionConfig {
        max_admitted: Some(work.len() - 2),
    };

    let outcome_of = |workers: usize| -> Vec<&'static str> {
        let batch = db
            .run_batch(
                &work,
                &sorted_cfg(),
                Batch::Governed {
                    workers,
                    budgets: &budgets,
                    admission,
                },
            )
            .expect("mem devices fork");
        classify(
            &batch.runs,
            reference,
            work.len() - 2,
            0, // per-item hard deadlines vary; skip the elapsed lower bound
        )
        .expect("legal outcomes")
    };

    let first = outcome_of(1);
    assert!(
        first.contains(&"deadline") || first.contains(&"correct"),
        "corpus exercises at least one side of the deadline machine: {first:?}"
    );
    assert_eq!(
        first.iter().filter(|&&c| c == "overloaded").count(),
        2,
        "the admission cap shed exactly the batch tail"
    );
    for workers in [1, 2, 4] {
        for _ in 0..2 {
            assert_eq!(
                outcome_of(workers),
                first,
                "outcome classes changed with {workers} workers"
            );
        }
    }
}
