//! Fault-injection property tests (DESIGN.md §11): under *arbitrary*
//! fault schedules — transient and permanent read errors, torn pages,
//! latency spikes, at random pages and occurrence counts — every query
//! either returns exactly the oracle result or aborts cleanly with
//! `ExecError::Io`. Never a panic, never a wrong answer, never a hang,
//! and never a poisoned engine: re-running after an abort behaves the
//! same way.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::{
    Database, DatabaseOptions, DbError, DeviceKind, ExecError, FaultKind, FaultPlan, FaultRule,
    Method, PlanConfig,
};
use pathix_tree::NodeId;
use proptest::prelude::*;
use std::sync::OnceLock;

const PATHS: [&str; 3] = ["/site/people//email", "/site/regions//item", "//keyword"];

/// One small XMark document shared by every schedule (the schedules vary,
/// the data does not — that is what makes the oracle an oracle).
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

fn cfg_for(m: Method) -> PlanConfig {
    let mut cfg = PlanConfig::new(m);
    cfg.sort = true;
    cfg
}

/// Fault-free reference results plus the page geometry every schedule
/// draws its target pages from (placement-deterministic, so one clean
/// import settles both).
#[allow(clippy::type_complexity)]
fn oracle() -> &'static (Vec<Vec<(NodeId, u64)>>, u32, u32) {
    static ORACLE: OnceLock<(Vec<Vec<(NodeId, u64)>>, u32, u32)> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let db = Database::from_document(doc(), &mem_opts()).expect("clean import");
        let reference = corpus()
            .iter()
            .map(|(p, m)| db.run(p, cfg_for(*m)).expect("clean run").nodes)
            .collect::<Vec<_>>();
        assert!(reference.iter().any(|nodes| !nodes.is_empty()));
        (
            reference,
            db.store().meta.base_page,
            db.store().meta.page_count,
        )
    })
}

/// Runs one corpus item cold (buffers cleared, so the schedule sees real
/// device traffic) and checks the only two legal outcomes. Returns true
/// if the item aborted with a clean I/O error.
fn check_item(db: &Database, item: usize, want: &[(NodeId, u64)]) -> Result<bool, String> {
    let (path, method) = corpus()[item];
    db.clear_buffers();
    match db.run(path, cfg_for(method)) {
        Ok(run) => {
            prop_assert_eq!(&run.nodes, want, "wrong answer on {} ({:?})", path, method);
            Ok(false)
        }
        Err(DbError::Exec(ExecError::Io { attempts, .. })) => {
            prop_assert!(attempts >= 1);
            // The executor consumed the recorded error and drained the
            // in-flight queue; nothing is left to poison the next plan.
            prop_assert!(db.store().take_io_error().is_none());
            Ok(true)
        }
        Err(other) => {
            prop_assert!(
                false,
                "illegal outcome on {} ({:?}): {:?}",
                path,
                method,
                other
            );
            Ok(false)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300),
        .. ProptestConfig::default()
    })]

    /// The headline property: any random schedule (mixed fault kinds,
    /// random pages, random occurrence counts) yields oracle-or-clean-abort
    /// for every query — and an aborted query can be re-run immediately
    /// with the same guarantee (no poisoned state survives the abort).
    #[test]
    fn random_schedules_yield_oracle_or_clean_abort(
        seed in any::<u64>(),
        n_rules in 1usize..24,
    ) {
        let (reference, base_page, page_count) = oracle();
        let plan = FaultPlan::random(seed, *base_page, *page_count, n_rules);
        let db = Database::from_document_with_faults(doc(), &mem_opts(), plan)
            .expect("import writes a clean store; faults hit query-time reads");
        for (i, want) in reference.iter().enumerate() {
            let aborted = check_item(&db, i, want)?;
            if aborted {
                // Re-run the afflicted item once: still oracle-or-abort.
                check_item(&db, i, want)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120),
        .. ProptestConfig::default()
    })]

    /// Transient-only schedules whose worst-case consecutive burst stays
    /// under the 4-attempt retry budget are *always* healed: every query
    /// returns exactly the oracle result, no aborts at all.
    #[test]
    fn bounded_transient_schedules_heal_invisibly(
        skips in prop::collection::vec(0u32..60, 1..4),
        target_mid in any::<bool>(),
    ) {
        let (reference, base_page, page_count) = oracle();
        // Each rule fires once; at most 3 rules can be armed on the same
        // access run, so no read ever sees 4 consecutive faults.
        let rules = skips
            .iter()
            .map(|&skip| {
                let page = target_mid.then(|| base_page + page_count / 2);
                FaultRule::new(page, FaultKind::TransientRead).after(skip).times(1)
            })
            .collect::<Vec<_>>();
        let plan = FaultPlan::new(0xFEED ^ skips.len() as u64, rules);
        let db = Database::from_document_with_faults(doc(), &mem_opts(), plan)
            .expect("import");
        for (i, want) in reference.iter().enumerate() {
            let (path, method) = corpus()[i];
            db.clear_buffers();
            let run = db.run(path, cfg_for(method));
            let run = run.expect("bounded transient faults must heal");
            prop_assert_eq!(&run.nodes, want, "healed run diverged on {}", path);
        }
    }
}

/// The retry policy is observable, not just implied: a transient fault on
/// the synchronous read path costs retries, which the report counts.
#[test]
fn transient_only_schedule_is_absorbed_with_retries() {
    let plan = FaultPlan::new(
        0xAB5,
        vec![FaultRule::new(None, FaultKind::TransientRead).times(3)],
    );
    let db = Database::from_document_with_faults(doc(), &mem_opts(), plan.clone()).expect("import");
    let (path, method) = corpus()[0];
    db.clear_buffers();
    let run = db.run(path, cfg_for(method)).expect("transients heal");
    assert_eq!(run.nodes, oracle().0[0]);
    assert!(plan.stats().transient > 0, "schedule actually fired");
    assert!(
        db.store().buffer.device_stats().retries > 0,
        "healing was paid for in retries"
    );
}
