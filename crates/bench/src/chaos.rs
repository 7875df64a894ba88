//! Chaos harness (ISSUE 4): end-to-end fault-injection sweeps over the
//! benchmark corpus, demonstrating the robustness contract of the fault
//! device layer:
//!
//! * **transient storms** heal invisibly — retried reads change nothing
//!   about results, only the `retries` counter;
//! * **single-shot corruption** is caught by the checksum trailer and
//!   healed by the retry (a re-read serves the intact image);
//! * **permanent faults** surface as clean `ExecError::Io` aborts — never
//!   a panic, a hang, or a wrong answer — and the engine stays usable for
//!   the next query;
//! * **latency spikes** only cost simulated time;
//! * **random fault schedules** (the fuzz sweep) always end in the oracle
//!   result or a clean abort;
//! * in a **parallel batch** over per-worker device forks, a bad page
//!   takes down exactly the items that touch it.
//!
//! `report chaos` emits the `BENCH_PR4.json` artifact; `--fast` runs a
//! smaller sweep on an instant disk profile as a CI smoke.

use crate::bench_options;
use pathix::{
    Database, DatabaseOptions, DbError, ExecError, FaultKind, FaultPlan, FaultRule, Method,
    PlanConfig,
};
use pathix_storage::DiskProfile;
use pathix_tree::NodeId;

/// The chaos corpus: the scaling harness's mixed batch — every Q6'/Q7/Q15
/// shape under every method, so faults hit synchronous fixes, asynchronous
/// completions, and sequential scans alike.
pub fn chaos_work() -> Vec<(&'static str, Method)> {
    crate::scaling::batch_work()
}

fn sorted_cfg() -> PlanConfig {
    let mut cfg = PlanConfig::new(Method::Simple);
    cfg.sort = true;
    cfg
}

/// Outcome tally of running the corpus once against one fault plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Queries that completed with exactly the oracle's result.
    pub ok_identical: u64,
    /// Queries that aborted cleanly with `ExecError::Io`.
    pub clean_io_aborts: u64,
    /// Queries that completed with a result differing from the oracle, or
    /// failed with anything other than a clean I/O abort. Must stay 0.
    pub wrong: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.ok_identical += other.ok_identical;
        self.clean_io_aborts += other.clean_io_aborts;
        self.wrong += other.wrong;
    }
}

/// One scenario's row in the report.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Queries executed.
    pub queries: u64,
    /// Outcome tally against the oracle.
    pub tally: Tally,
    /// Device-level read retries performed while the scenario ran.
    pub retries: u64,
    /// Faults the plan actually injected.
    pub faults_injected: u64,
    /// Whether the scenario met its acceptance condition.
    pub pass: bool,
}

/// Sequential oracle results on a fault-free database.
fn oracle(db: &Database, work: &[(&'static str, Method)]) -> Vec<Vec<(NodeId, u64)>> {
    let cfg = sorted_cfg();
    work.iter()
        .map(|(p, m)| {
            let mut item_cfg = cfg;
            item_cfg.method = *m;
            db.run(p, item_cfg).expect("oracle run").nodes
        })
        .collect()
}

/// Runs the corpus once on `db` and tallies outcomes against `reference`.
fn run_corpus(
    db: &Database,
    work: &[(&'static str, Method)],
    reference: &[Vec<(NodeId, u64)>],
) -> Tally {
    let cfg = sorted_cfg();
    let mut tally = Tally::default();
    for (i, (p, m)) in work.iter().enumerate() {
        let mut item_cfg = cfg;
        item_cfg.method = *m;
        // Cold-start every query: device traffic, not buffer luck, decides
        // how much of the fault schedule each query is exposed to.
        db.clear_buffers();
        match db.run(p, item_cfg) {
            Ok(run) if run.nodes == reference[i] => tally.ok_identical += 1,
            Ok(_) => tally.wrong += 1,
            Err(DbError::Exec(ExecError::Io { .. })) => tally.clean_io_aborts += 1,
            Err(_) => tally.wrong += 1,
        }
    }
    tally
}

fn faulty_db(doc: &pathix::xml::Document, opts: &DatabaseOptions, plan: &FaultPlan) -> Database {
    Database::from_document_with_faults(doc, opts, plan.clone()).expect("chaos import")
}

fn retries_of(db: &Database) -> u64 {
    db.store().buffer.device_stats().retries
}

/// Transient storms: bursts of up to 3 consecutive transient read errors,
/// spaced so the 4-attempt retry policy always absorbs them. Acceptance:
/// every query identical to the oracle, retries observed.
fn transient_storm(
    doc: &pathix::xml::Document,
    opts: &DatabaseOptions,
    reference: &[Vec<(NodeId, u64)>],
    work: &[(&'static str, Method)],
    bursts: u32,
) -> ChaosRow {
    // Bursts of ≤3 consecutive failures spaced 9 accesses apart: the next
    // window opens well after the 4-attempt retry budget has absorbed the
    // previous burst, so no access ever sees 4 failures in a row.
    let rules: Vec<FaultRule> = (0..bursts)
        .map(|i| {
            FaultRule::new(None, FaultKind::TransientRead)
                .after(i * 9)
                .times(1 + i % 3)
        })
        .collect();
    let plan = FaultPlan::new(0x57_02_11, rules);
    let db = faulty_db(doc, opts, &plan);
    let tally = run_corpus(&db, work, reference);
    let retries = retries_of(&db);
    let injected = plan.stats().total();
    ChaosRow {
        scenario: "transient-storm",
        queries: work.len() as u64,
        tally,
        retries,
        faults_injected: injected,
        // `retries` can trail `injected`: a fault on an *asynchronous*
        // completion is absorbed by falling back to the synchronous read
        // path, whose first attempt is not a retry.
        pass: tally.ok_identical == work.len() as u64 && injected > 0 && retries > 0,
    }
}

/// Single-shot corruption: isolated bit-flipped page images. The checksum
/// trailer catches each one and the retry re-reads the intact image.
/// Acceptance: every query identical to the oracle, corruption injected.
fn corruption_healed(
    doc: &pathix::xml::Document,
    opts: &DatabaseOptions,
    reference: &[Vec<(NodeId, u64)>],
    work: &[(&'static str, Method)],
    shots: u32,
) -> ChaosRow {
    let rules: Vec<FaultRule> = (0..shots)
        .map(|i| FaultRule::new(None, FaultKind::CorruptRead).after(i * 9))
        .collect();
    let plan = FaultPlan::new(0xC0_44_07, rules);
    let db = faulty_db(doc, opts, &plan);
    let tally = run_corpus(&db, work, reference);
    let injected = plan.stats().corrupt;
    ChaosRow {
        scenario: "corruption-single-shot",
        queries: work.len() as u64,
        tally,
        retries: retries_of(&db),
        faults_injected: injected,
        pass: tally.ok_identical == work.len() as u64 && injected > 0,
    }
}

/// A permanently bad sector in the middle of the document: every query
/// that touches it aborts cleanly; every query that does not is oracle-
/// identical. Acceptance: aborts and survivors both occur, nothing wrong.
fn permanent_sector(
    doc: &pathix::xml::Document,
    opts: &DatabaseOptions,
    reference: &[Vec<(NodeId, u64)>],
    work: &[(&'static str, Method)],
) -> ChaosRow {
    let probe = Database::from_document(doc, opts).expect("probe import");
    let bad = probe.store().meta.base_page + probe.store().meta.page_count / 2;
    let plan = FaultPlan::new(
        1,
        vec![FaultRule::new(Some(bad), FaultKind::PermanentRead).times(u32::MAX)],
    );
    let db = faulty_db(doc, opts, &plan);
    let tally = run_corpus(&db, work, reference);
    ChaosRow {
        scenario: "permanent-sector",
        queries: work.len() as u64,
        tally,
        retries: retries_of(&db),
        faults_injected: plan.stats().permanent,
        pass: tally.wrong == 0
            && tally.clean_io_aborts > 0
            && tally.ok_identical + tally.clean_io_aborts == work.len() as u64,
    }
}

/// Latency spikes are not errors: results stay oracle-identical with zero
/// retries; only simulated time is spent.
fn latency_spikes(
    doc: &pathix::xml::Document,
    opts: &DatabaseOptions,
    reference: &[Vec<(NodeId, u64)>],
    work: &[(&'static str, Method)],
    spikes: u32,
) -> ChaosRow {
    let rules: Vec<FaultRule> = (0..spikes)
        .map(|i| {
            FaultRule::new(
                None,
                FaultKind::LatencySpike {
                    extra_ns: 5_000_000,
                },
            )
            .after(i * 5)
            .times(2)
        })
        .collect();
    let plan = FaultPlan::new(3, rules);
    let db = faulty_db(doc, opts, &plan);
    let tally = run_corpus(&db, work, reference);
    let injected = plan.stats().latency;
    ChaosRow {
        scenario: "latency-spikes",
        queries: work.len() as u64,
        tally,
        retries: retries_of(&db),
        faults_injected: injected,
        pass: tally.ok_identical == work.len() as u64 && injected > 0,
    }
}

/// The fuzz sweep: `trials` random fault schedules, each a fresh database.
/// Acceptance: every query ends in the oracle result or a clean I/O abort
/// — never a wrong answer (panics/hangs would fail the harness itself).
fn random_schedules(
    doc: &pathix::xml::Document,
    opts: &DatabaseOptions,
    reference: &[Vec<(NodeId, u64)>],
    work: &[(&'static str, Method)],
    trials: u64,
) -> ChaosRow {
    let mut tally = Tally::default();
    let mut retries = 0;
    let mut injected = 0;
    // Page geometry is placement-deterministic; one clean probe import
    // gives the range every trial's schedule draws pages from.
    let (base_page, page_count) = {
        let db = Database::from_document(doc, opts).expect("probe import");
        (db.store().meta.base_page, db.store().meta.page_count)
    };
    for t in 0..trials {
        let plan = FaultPlan::random(0xF0_0D ^ t, base_page, page_count, 12);
        let db = faulty_db(doc, opts, &plan);
        tally.add(run_corpus(&db, work, reference));
        retries += retries_of(&db);
        injected += plan.stats().total();
    }
    ChaosRow {
        scenario: "random-schedules",
        queries: work.len() as u64 * trials,
        tally,
        retries,
        faults_injected: injected,
        pass: tally.wrong == 0
            && tally.ok_identical + tally.clean_io_aborts == work.len() as u64 * trials,
    }
}

/// Parallel containment: a permanently bad page chosen (by device trace)
/// to be touched by some corpus paths but not all. In a 3-worker batch
/// over per-worker device forks, exactly the items that touch the page
/// fail with `ExecError::Io`; the rest are oracle-identical.
fn parallel_containment(
    doc: &pathix::xml::Document,
    opts: &DatabaseOptions,
    reference: &[Vec<(NodeId, u64)>],
    work: &[(&'static str, Method)],
) -> ChaosRow {
    let probe = Database::from_document(doc, opts).expect("probe import");
    let cfg = sorted_cfg();
    let trace_of = |path: &str| -> std::collections::BTreeSet<u32> {
        probe.clear_buffers();
        probe.reset_device_stats();
        probe.trace_device(true);
        probe.run(path, cfg).expect("trace run");
        let trace = probe.device_trace();
        probe.trace_device(false); // disabling drops the recorded trace
        trace.into_iter().collect()
    };
    // Navigation-method page sets per path (XScan items touch every page
    // and fail for any bad page, so navigational traces decide the pick).
    let traces: Vec<std::collections::BTreeSet<u32>> = crate::scaling::batch_paths()
        .iter()
        .map(|p| trace_of(p))
        .collect();
    // A page some path reads and some other path never does: failing it
    // splits the batch into afflicted and surviving items.
    let bad = traces
        .iter()
        .flatten()
        .copied()
        .find(|page| {
            let touched = traces.iter().filter(|t| t.contains(page)).count();
            touched > 0 && touched < traces.len()
        })
        .expect("corpus paths have non-identical page sets");

    let plan = FaultPlan::new(
        2,
        vec![FaultRule::new(Some(bad), FaultKind::PermanentRead).times(u32::MAX)],
    );
    let db = faulty_db(doc, opts, &plan);
    let mut tally = Tally::default();
    let batch = db.run_parallel(work, &cfg, 3).expect("forkable device");
    for (i, run) in batch.runs.iter().enumerate() {
        match run {
            Ok(r) if r.nodes == reference[i] => tally.ok_identical += 1,
            Ok(_) => tally.wrong += 1,
            Err(ExecError::Io { .. }) => tally.clean_io_aborts += 1,
            Err(_) => tally.wrong += 1,
        }
    }
    ChaosRow {
        scenario: "parallel-containment",
        queries: work.len() as u64,
        tally,
        retries: batch.report.device.retries,
        faults_injected: plan.stats().permanent,
        pass: tally.wrong == 0 && tally.clean_io_aborts > 0 && tally.ok_identical > 0,
    }
}

/// Runs the full chaos sweep. `fast` shrinks the document, switches to an
/// instant disk profile, and cuts the fuzz trial count — the CI smoke.
pub fn chaos_sweep(fast: bool) -> (f64, Vec<ChaosRow>) {
    let scale = if fast { 0.008 } else { 0.02 };
    let mut opts = bench_options();
    if fast {
        opts.profile = DiskProfile::instant();
    }
    let doc = pathix::xmlgen::generate(&pathix::xmlgen::GenConfig::at_scale(scale));
    let work = chaos_work();
    let clean = Database::from_document(&doc, &opts).expect("oracle import");
    let reference = oracle(&clean, &work);
    drop(clean);

    let (bursts, shots, spikes, trials) = if fast {
        (10, 10, 8, 4)
    } else {
        (40, 30, 20, 24)
    };
    let rows = vec![
        transient_storm(&doc, &opts, &reference, &work, bursts),
        corruption_healed(&doc, &opts, &reference, &work, shots),
        permanent_sector(&doc, &opts, &reference, &work),
        latency_spikes(&doc, &opts, &reference, &work, spikes),
        random_schedules(&doc, &opts, &reference, &work, trials),
        parallel_containment(&doc, &opts, &reference, &work),
    ];
    (scale, rows)
}

/// Serializes the sweep as the `BENCH_PR4.json` artifact.
pub fn emit_json(scale: f64, rows: &[ChaosRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"artifact\": \"BENCH_PR4\",\n");
    out.push_str("  \"description\": \"fault-injection chaos sweep: transient/corrupt/permanent/latency faults and random schedules over the mixed query corpus; every query must end in the oracle result or a clean ExecError::Io, never a panic, hang, or wrong answer\",\n");
    out.push_str(&format!("  \"engine_scale_factor\": {scale},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"queries\": {}, \"ok_identical\": {}, \"clean_io_aborts\": {}, \"wrong\": {}, \"retries\": {}, \"faults_injected\": {}, \"pass\": {}}}{sep}\n",
            r.scenario,
            r.queries,
            r.tally.ok_identical,
            r.tally.clean_io_aborts,
            r.tally.wrong,
            r.retries,
            r.faults_injected,
            r.pass
        ));
    }
    out.push_str("  ],\n");
    let wrong: u64 = rows.iter().map(|r| r.tally.wrong).sum();
    let all_pass = rows.iter().all(|r| r.pass);
    out.push_str(&format!("  \"wrong_answers\": {wrong},\n"));
    out.push_str(&format!(
        "  \"acceptance_all_scenarios_pass\": {all_pass}\n"
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn fast_sweep_passes_every_scenario() {
        let (_, rows) = chaos_sweep(true);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.pass,
                "{} failed: {:?} (retries {}, injected {})",
                r.scenario, r.tally, r.retries, r.faults_injected
            );
            assert_eq!(r.tally.wrong, 0, "{} produced wrong answers", r.scenario);
        }
    }

    #[test]
    fn emit_json_is_wellformed_enough() {
        let (scale, rows) = chaos_sweep(true);
        let json = emit_json(scale, &rows);
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"acceptance_all_scenarios_pass\": true"));
    }
}
