//! Chaos harness (`CHAOS`): end-to-end fault-injection sweeps over the
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
//! * in a **parallel batch** over per-worker device forks, a bad page that
//!   only some paths touch fails some items cleanly and spares the rest.
//!
//! Each scenario row carries one `pass` check: zero wrong answers plus the
//! scenario's own acceptance condition, stated on its function below.

use crate::artifact::{num, Artifact, Cell, Table};
use crate::corpus::{self, batch_paths, sorted_cfg};
use pathix::xml::Document;
use pathix::{
    Batch, Database, DatabaseOptions, DbError, ExecError, FaultKind, FaultPlan, FaultRule,
    PlanConfig, QueryRun,
};
use pathix_tree::NodeId;
use std::collections::BTreeSet;

/// Outcome tally of running the corpus against one fault plan.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Queries that completed with exactly the oracle's result.
    ok_identical: u64,
    /// Queries that aborted cleanly with `ExecError::Io`.
    clean_io_aborts: u64,
    /// Queries that completed with a result differing from the oracle, or
    /// failed with anything other than a clean I/O abort.
    wrong: u64,
}

impl Tally {
    fn count(&mut self, outcome: Result<&[(NodeId, u64)], &ExecError>, want: &QueryRun) {
        match outcome {
            Ok(nodes) if nodes == want.nodes => self.ok_identical += 1,
            Err(ExecError::Io { .. }) => self.clean_io_aborts += 1,
            _ => self.wrong += 1,
        }
    }

    fn queries(&self) -> u64 {
        self.ok_identical + self.clean_io_aborts + self.wrong
    }

    /// Every query ended in the oracle result.
    fn all_ok(&self) -> bool {
        self.ok_identical == self.queries()
    }
}

/// One scenario's row; its `pass` check also requires zero wrong answers.
fn row(scenario: &str, tally: Tally, retries: u64, injected: u64, pass: bool) -> Vec<Cell> {
    vec![
        Cell::text("scenario", scenario),
        Cell::int("queries", tally.queries()),
        Cell::int("ok_identical", tally.ok_identical),
        Cell::int("clean_io_aborts", tally.clean_io_aborts),
        Cell::int("wrong", tally.wrong),
        Cell::int("retries", retries),
        Cell::int("faults_injected", injected),
        Cell::check("pass", pass && tally.wrong == 0),
    ]
}

/// The document, options and oracle every scenario runs against.
struct Sweep {
    doc: Document,
    opts: DatabaseOptions,
    reference: Vec<QueryRun>,
}

impl Sweep {
    fn clean(&self) -> Database {
        Database::from_document(&self.doc, &self.opts).expect("clean import")
    }

    /// Runs the corpus once on a fresh database under `plan`, each query
    /// from a cold buffer; returns the tally and the device's retries.
    fn corpus(&self, plan: &FaultPlan) -> (Tally, u64) {
        let db = Database::from_document_with_faults(&self.doc, &self.opts, plan.clone())
            .expect("chaos import");
        let mut tally = Tally::default();
        for ((p, method), want) in corpus::batch_work().into_iter().zip(&self.reference) {
            // Cold-start every query: device traffic, not buffer luck,
            // decides how much of the fault schedule each query sees.
            db.clear_buffers();
            let cfg = PlanConfig {
                method,
                ..sorted_cfg()
            };
            match db.run(p, cfg) {
                Ok(run) => tally.count(Ok(&run.nodes), want),
                Err(DbError::Exec(e)) => tally.count(Err(&e), want),
                Err(_) => tally.wrong += 1,
            }
        }
        (tally, db.store().buffer.device_stats().retries)
    }

    /// Transient storms: bursts of up to 3 consecutive transient read
    /// errors, spaced so the 4-attempt retry policy always absorbs them.
    /// Acceptance: every query identical to the oracle, retries observed.
    fn transient_storm(&self, bursts: u32) -> Vec<Cell> {
        // Bursts of ≤3 consecutive failures spaced 9 accesses apart: the
        // next window opens well after the 4-attempt retry budget has
        // absorbed the previous burst, so no access ever sees 4 failures in
        // a row.
        let rules: Vec<FaultRule> = (0..bursts)
            .map(|i| {
                FaultRule::new(None, FaultKind::TransientRead)
                    .after(i * 9)
                    .times(1 + i % 3)
            })
            .collect();
        let plan = FaultPlan::new(0x57_02_11, rules);
        let (tally, retries) = self.corpus(&plan);
        let injected = plan.stats().total();
        // `retries` can trail `injected`: a fault on an *asynchronous*
        // completion is absorbed by falling back to the synchronous read
        // path, whose first attempt is not a retry.
        let pass = tally.all_ok() && injected > 0 && retries > 0;
        row("transient-storm", tally, retries, injected, pass)
    }

    /// Single-shot corruption: isolated bit-flipped page images. The
    /// checksum trailer catches each one and the retry re-reads the intact
    /// image. Acceptance: every query identical to the oracle, corruption
    /// injected.
    fn corruption_healed(&self, shots: u32) -> Vec<Cell> {
        let rules: Vec<FaultRule> = (0..shots)
            .map(|i| FaultRule::new(None, FaultKind::CorruptRead).after(i * 9))
            .collect();
        let plan = FaultPlan::new(0xC0_44_07, rules);
        let (tally, retries) = self.corpus(&plan);
        let injected = plan.stats().corrupt;
        let pass = tally.all_ok() && injected > 0;
        row("corruption-single-shot", tally, retries, injected, pass)
    }

    /// A permanently bad sector in the middle of the document. Acceptance:
    /// at least one query aborts cleanly and every query either aborts
    /// cleanly or matches the oracle. Which queries touch the sector is not
    /// checked; in the committed run every query does.
    fn permanent_sector(&self) -> Vec<Cell> {
        let meta = self.clean().store().meta.clone();
        let bad = meta.base_page + meta.page_count / 2;
        let plan = FaultPlan::new(
            1,
            vec![FaultRule::new(Some(bad), FaultKind::PermanentRead).times(u32::MAX)],
        );
        let (tally, retries) = self.corpus(&plan);
        let pass = tally.clean_io_aborts > 0;
        row(
            "permanent-sector",
            tally,
            retries,
            plan.stats().permanent,
            pass,
        )
    }

    /// Latency spikes are not errors. Acceptance: every query identical to
    /// the oracle, spikes injected; only simulated time is spent.
    fn latency_spikes(&self, spikes: u32) -> Vec<Cell> {
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
        let (tally, retries) = self.corpus(&plan);
        let injected = plan.stats().latency;
        let pass = tally.all_ok() && injected > 0;
        row("latency-spikes", tally, retries, injected, pass)
    }

    /// The fuzz sweep: `trials` random fault schedules, each on a fresh
    /// database. Acceptance: every query ends in the oracle result or a
    /// clean I/O abort (panics and hangs would fail the harness itself).
    fn random_schedules(&self, trials: u64) -> Vec<Cell> {
        // Page geometry is placement-deterministic; one clean import gives
        // the range every trial's schedule draws pages from.
        let meta = self.clean().store().meta.clone();
        let (mut tally, mut retries, mut injected) = (Tally::default(), 0, 0);
        for t in 0..trials {
            let plan = FaultPlan::random(0xF0_0D ^ t, meta.base_page, meta.page_count, 12);
            let (trial, r) = self.corpus(&plan);
            tally.ok_identical += trial.ok_identical;
            tally.clean_io_aborts += trial.clean_io_aborts;
            tally.wrong += trial.wrong;
            retries += r;
            injected += plan.stats().total();
        }
        row("random-schedules", tally, retries, injected, true)
    }

    /// Parallel containment: a permanently bad page chosen (by device
    /// trace) to be touched by some corpus paths but not all, in a 3-worker
    /// batch over per-worker device forks. Acceptance: some items abort
    /// cleanly, some match the oracle, none is wrong.
    fn parallel_containment(&self) -> Vec<Cell> {
        let probe = self.clean();
        let cfg = sorted_cfg();
        // Navigation-method page sets per path (XScan items touch every
        // page and fail for any bad page, so navigational traces decide).
        let traces: Vec<BTreeSet<u32>> = batch_paths()
            .into_iter()
            .map(|path| {
                probe.clear_buffers();
                probe.reset_device_stats();
                probe.trace_device(true);
                probe.run(path, cfg).expect("trace run");
                let trace = probe.device_trace();
                probe.trace_device(false); // disabling drops the recorded trace
                trace.into_iter().collect()
            })
            .collect();
        // A page some path reads and some other path never does: failing
        // it splits the batch into afflicted and surviving items.
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
        let db = Database::from_document_with_faults(&self.doc, &self.opts, plan.clone())
            .expect("chaos import");
        let batch = db
            .run_batch(&corpus::batch_work(), &cfg, Batch::Parallel { workers: 3 })
            .expect("forkable device");
        let mut tally = Tally::default();
        for (run, want) in batch.runs.iter().zip(&self.reference) {
            tally.count(run.as_ref().map(|r| &r.nodes[..]), want);
        }
        let pass = tally.clean_io_aborts > 0 && tally.ok_identical > 0;
        let retries = batch.report.device.retries;
        row(
            "parallel-containment",
            tally,
            retries,
            plan.stats().permanent,
            pass,
        )
    }
}

/// Runs the chaos sweep. Full: SF 0.02 on the default disk, 40 transient
/// bursts, 30 corruptions, 20 spikes, 24 random schedules. Fast: SF 0.008
/// on the instant profile, 10/10/8 and 4 schedules.
pub fn run(fast: bool) -> Artifact {
    let (scale, bursts, shots, spikes, trials) = if fast {
        (0.008, 10, 10, 8, 4)
    } else {
        (0.02, 40, 30, 20, 24)
    };
    let doc = pathix::xmlgen::generate(&pathix::xmlgen::GenConfig::at_scale(scale));
    let opts = corpus::options(fast);
    let reference = corpus::oracle(&Database::from_document(&doc, &opts).expect("oracle import"));
    let sweep = Sweep {
        doc,
        opts,
        reference,
    };
    let rows = vec![
        sweep.transient_storm(bursts),
        sweep.corruption_healed(shots),
        sweep.permanent_sector(),
        sweep.latency_spikes(spikes),
        sweep.random_schedules(trials),
        sweep.parallel_containment(),
    ];
    let wrong: f64 = rows.iter().map(|r| num(r, "wrong")).sum();
    let all_pass = rows.iter().all(|r| r.contains(&Cell::check("pass", true)));
    Artifact {
        name: "CHAOS",
        description: "fault-injection chaos sweep: transient/corrupt/permanent/latency faults and random schedules over the mixed query corpus; every query must end in the oracle result or a clean ExecError::Io, never a panic, hang, or wrong answer",
        params: vec![Cell::exact("engine_scale_factor", scale)],
        tables: vec![Table {
            name: "scenarios",
            rows,
        }],
        summary: vec![
            Cell::int("wrong_answers", wrong as u64),
            Cell::check("acceptance_all_scenarios_pass", all_pass),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_sweep_passes_every_scenario() {
        let a = run(true);
        assert_eq!(a.failed_checks(), Vec::<String>::new());
        assert_eq!(a.tables[0].rows.len(), 6);
    }

    #[test]
    fn emit_json_is_wellformed_enough() {
        let json = run(true).to_json();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"acceptance_all_scenarios_pass\": true"));
    }
}
