//! The paper's evaluation as three artifacts, each a `fn(fast) -> Artifact`
//! like the substrate harnesses: [`paper`] (Tab. 2's queries, Example 1,
//! Figs. 9–11, Tab. 3), [`ablations`] (A1–A6 of DESIGN.md §4) and
//! [`extensions`] (E7–E11, the paper's §7 outlook). Every value is
//! simulated time, a count or a setting, and every sanity condition (plans
//! agree, shared scan equals independent plans, …) is a check cell.
//!
//! All experiments run on the simulated disk with the default 2005-era
//! profile, a moderately aged (chunk-shuffled) physical layout, and a
//! buffer sized so that documents at scaling factor ≥ 0.5 exceed it — the
//! regime of the paper's measurements (documents larger than the buffer,
//! cold caches per run). The full run uses the paper's scaling factors;
//! `fast` runs every experiment at SF 0.1.

use crate::artifact::{Artifact, Cell, Table};
use pathix::{Batch, Database, DatabaseOptions, DeviceKind, Method, PlanConfig, QueryRun};
use pathix_tree::Placement;

/// The evaluated XMark queries (paper Tab. 2).
pub const Q6: &str = "count(/site/regions//item)";
/// Q7: prose counts.
pub const Q7: &str = "count(/site//description)+count(/site//annotation)+count(/site//email)";
/// Q15: the deep, highly selective chain.
pub const Q15: &str = "/site/closed_auctions/closed_auction/annotation/description/parlist\
                       /listitem/parlist/listitem/text/emph/keyword";

/// `(label, query)` pairs for Tab. 2 / Tab. 3.
pub const QUERIES: [(&str, &str); 3] = [("Q6'", Q6), ("Q7", Q7), ("Q15", Q15)];

/// The scaling factors of the paper's figures.
pub const SCALING_FACTORS: [f64; 9] = [0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0];

/// The scaling factor of every fast-mode experiment.
const FAST_SCALE: f64 = 0.1;

/// The three compared plans, in paper order.
pub fn methods() -> [Method; 3] {
    [Method::Simple, Method::xschedule(), Method::XScan]
}

/// Benchmark database configuration (see DESIGN.md §3 for the
/// substitutions this encodes).
pub fn bench_options() -> DatabaseOptions {
    DatabaseOptions {
        page_size: 8192,
        placement: Placement::ChunkShuffled {
            chunk: 4,
            seed: 0xA6E,
        },
        // The paper used a 1000-page buffer against 110 MB+ documents
        // (≈ 7% coverage at SF 1). Our documents are ~12× smaller, so the
        // buffer shrinks proportionally to preserve the miss behaviour.
        buffer_pages: 100,
        device: DeviceKind::SimDisk,
        profile: Default::default(),
    }
}

/// Builds the benchmark database for a scaling factor.
pub fn build_db(scale: f64) -> Database {
    build_db_with(scale, &bench_options())
}

/// Builds a database with explicit options.
pub fn build_db_with(scale: f64, opts: &DatabaseOptions) -> Database {
    Database::from_xmark(scale, opts).expect("xmark import")
}

/// Builds the benchmark database after `edit` adjusts its options.
fn build_db_edited(scale: f64, edit: impl FnOnce(&mut DatabaseOptions)) -> Database {
    let mut opts = bench_options();
    edit(&mut opts);
    build_db_with(scale, &opts)
}

/// Cold-starts the next query: empty buffer, fresh device statistics, and
/// the disk head parked at page 0, so no measurement depends on where the
/// previous one left the head.
pub fn cold_start(db: &Database) {
    db.clear_buffers();
    db.reset_device_stats();
    db.store().buffer.device_mut().park();
}

/// Runs `query` cold (see [`cold_start`]).
pub fn run_cold(db: &Database, query: &str, method: Method) -> QueryRun {
    run_cold_with(db, query, &PlanConfig::new(method))
}

/// Runs `query` cold with an explicit plan configuration.
pub fn run_cold_with(db: &Database, query: &str, cfg: &PlanConfig) -> QueryRun {
    cold_start(db);
    db.run(query, *cfg).expect("query runs")
}

/// Simulated seconds of a cold run.
fn total(db: &Database, query: &str, method: Method) -> f64 {
    run_cold(db, query, method).report.total_secs()
}

/// A seconds cell, printed with 3 decimals.
fn secs(name: &'static str, v: f64) -> Cell {
    Cell::real(name, v, 3)
}

/// Runs `query` cold under every plan, in paper order.
fn run_plans(db: &Database, query: &str) -> [QueryRun; 3] {
    methods().map(|m| run_cold(db, query, m))
}

/// Whether every plan found the same result.
fn plans_agree(runs: &[QueryRun; 3]) -> Cell {
    let [simple, sched, scan] = runs.each_ref().map(|r| r.value);
    Cell::check("plans_agree", simple == sched && simple == scan)
}

fn table(name: &'static str, rows: Vec<Vec<Cell>>) -> Table {
    Table { name, rows }
}

/// The paper's own evaluation: Tab. 2's queries, Example 1 (Fig. 1),
/// Figs. 9–11 and Tab. 3, which reports the figures' runs at SF 1. Full:
/// the figures sweep [`SCALING_FACTORS`]. Fast: SF 0.1 only, which Tab. 3
/// then reports.
pub fn paper(fast: bool) -> Artifact {
    let (factors, tab3_scale): (&[f64], f64) = if fast {
        (&[FAST_SCALE], FAST_SCALE)
    } else {
        (&SCALING_FACTORS, 1.0)
    };
    let (example1, summary) = example1();
    let mut figures: [Vec<Vec<Cell>>; 3] = Default::default();
    let mut tab3 = Vec::new();
    for &sf in factors {
        let db = build_db(sf);
        for ((label, query), rows) in QUERIES.into_iter().zip(&mut figures) {
            let runs = run_plans(&db, query);
            let [simple_s, sched_s, scan_s] = runs.each_ref().map(|r| r.report.total_secs());
            rows.push(vec![
                Cell::param("sf", sf),
                Cell::int("pages", db.pages().into()),
                Cell::int("result", runs[0].value),
                secs("simple_s", simple_s),
                secs("xschedule_s", sched_s),
                secs("xscan_s", scan_s),
                Cell::real("simple_over_xschedule", simple_s / sched_s, 2),
                Cell::real("simple_over_xscan", simple_s / scan_s, 2),
                plans_agree(&runs),
            ]);
            if sf != tab3_scale {
                continue;
            }
            for (m, run) in methods().into_iter().zip(&runs) {
                let (total_s, cpu_s) = (run.report.total_secs(), run.report.cpu_secs());
                tab3.push(vec![
                    Cell::text("query", label),
                    Cell::text("plan", m.label()),
                    secs("total_s", total_s),
                    secs("cpu_s", cpu_s),
                    Cell::real("cpu_pct", 100.0 * cpu_s / total_s.max(1e-12), 0),
                ]);
            }
        }
    }
    let [fig9, fig10, fig11] = figures;
    let mut params: Vec<Cell> = QUERIES.iter().map(|&(l, q)| Cell::text(l, q)).collect();
    params.push(Cell::param("tab3_scale_factor", tab3_scale));
    Artifact {
        name: "PAPER",
        description: "the paper's evaluation on the simulated disk: page access order per plan (Example 1), total time vs XMark scaling factor for Q6'/Q7/Q15 (Figs. 9-11), total and CPU time per query and plan (Tab. 3)",
        params,
        tables: vec![
            table("example1", example1),
            table("fig9_q6", fig9),
            table("fig10_q7", fig10),
            table("fig11_q15", fig11),
            table("tab3", tab3),
        ],
        summary,
    }
}

/// Example 1 (Fig. 1): `count(//item)` over a small, fully shuffled
/// document, with each plan's physical page access order. Returns the rows
/// and the checks that the scan reads in physical order and Simple seeks
/// more than the scan.
fn example1() -> (Vec<Vec<Cell>>, Vec<Cell>) {
    let db = build_db_edited(0.01, |o| {
        o.placement = Placement::Shuffled { seed: 7 };
        o.buffer_pages = 4;
        o.page_size = 2048;
    });
    db.trace_device(true);
    let runs = methods().map(|m| (run_cold(&db, "count(//item)", m), db.device_trace()));
    let rows = methods()
        .iter()
        .zip(&runs)
        .map(|(m, (run, trace))| {
            let shown: Vec<String> = trace.iter().take(24).map(u32::to_string).collect();
            let ell = if trace.len() > 24 { ",…" } else { "" };
            vec![
                Cell::text("plan", m.label()),
                Cell::int("seek_distance", run.report.device.seek_distance_pages),
                Cell::real("total_ms", run.report.total_secs() * 1e3, 2),
                Cell::text("order", format!("{}{ell}", shown.join(","))),
            ]
        })
        .collect();
    let [(simple, _), _, (scan, scan_trace)] = &runs;
    let summary = vec![
        Cell::check(
            "example1_xscan_reads_in_physical_order",
            scan_trace.windows(2).all(|w| w[0] <= w[1]),
        ),
        Cell::check(
            "example1_simple_seeks_more_than_xscan",
            simple.report.device.seek_distance_pages > scan.report.device.seek_distance_pages,
        ),
    ];
    (rows, summary)
}

/// Ablations A1–A6 (DESIGN.md §4), each on Q6' or Q7 at SF 1 (fast: 0.1).
pub fn ablations(fast: bool) -> Artifact {
    let scale = if fast { FAST_SCALE } else { 1.0 };
    let base = build_db(scale);

    // A1: XSchedule's queue depth k.
    let a1 = [1, 10, 100, 1000]
        .map(|k| {
            let m = Method::XSchedule {
                k,
                speculative: false,
            };
            vec![
                Cell::int("k", k as u64),
                secs("xschedule_s", total(&base, Q6, m)),
            ]
        })
        .to_vec();

    // A1b: the device's command-queue window (0: unbounded). The paper
    // notes that k matters little for a single context node; the window
    // the *device* sees is what shortens positioning time.
    let a1b = [("1", 1), ("4", 4), ("16", 16), ("unbounded", 0)]
        .map(|(window, w)| {
            let db = build_db_edited(scale, |o| o.profile.queue_depth = w);
            let xschedule_s = total(&db, Q6, Method::xschedule());
            vec![
                Cell::text("window", window),
                secs("xschedule_s", xschedule_s),
            ]
        })
        .to_vec();

    // A2: placement policies (fragmentation) for each plan.
    let placements = [
        ("sequential", Placement::Sequential),
        ("chunk16", Placement::ChunkShuffled { chunk: 16, seed: 1 }),
        ("chunk4", Placement::ChunkShuffled { chunk: 4, seed: 1 }),
        ("shuffled", Placement::Shuffled { seed: 1 }),
    ];
    let a2 = placements
        .into_iter()
        .flat_map(|(name, placement)| {
            let db = build_db_edited(scale, |o| o.placement = placement);
            methods().map(|m| {
                vec![
                    Cell::text("placement", name),
                    Cell::text("plan", m.label()),
                    secs("total_s", total(&db, Q6, m)),
                ]
            })
        })
        .collect();

    // A3: speculative XSchedule on a path whose upward steps bounce back
    // into clusters visited on the way down; a fragmented layout and a
    // small buffer make those revisits real device reads.
    let db = build_db_edited(scale, |o| {
        o.placement = Placement::Shuffled { seed: 5 };
        o.buffer_pages = 50;
    });
    let a3 = [false, true]
        .map(|speculative| {
            let m = Method::XSchedule {
                k: 100,
                speculative,
            };
            let report = run_cold(&db, "//bold/ancestor::item", m).report;
            vec![
                Cell::flag("speculative", speculative),
                Cell::int("device_reads", report.device.reads),
                secs("total_s", report.total_secs()),
            ]
        })
        .to_vec();

    // A4: the fallback memory limit on Q7's scan plan.
    let a4 = [None, Some(100_000), Some(1_000), Some(10)]
        .map(|limit| {
            let mut cfg = PlanConfig::new(Method::XScan);
            cfg.mem_limit = limit;
            let report = run_cold_with(&base, Q7, &cfg).report;
            let limit = limit.map_or_else(|| "unbounded".to_owned(), |l| l.to_string());
            vec![
                Cell::text("s_limit", limit),
                Cell::flag("fallback", report.fallback),
                secs("total_s", report.total_secs()),
            ]
        })
        .to_vec();

    // A5: buffer size on Q7 — once the buffer holds the whole document,
    // the query's second and third paths run from memory.
    let a5 = [50, 200, 800, 1600, 3200]
        .map(|pages| {
            let db = build_db_edited(scale, |o| o.buffer_pages = pages);
            vec![
                Cell::int("buffer_pages", pages as u64),
                secs("simple_s", total(&db, Q7, Method::Simple)),
                secs("xschedule_s", total(&db, Q7, Method::xschedule())),
            ]
        })
        .to_vec();

    // A6: the device's queue policy under XSchedule.
    let a6 = [
        ("SSTF device", DeviceKind::SimDisk),
        ("FIFO device", DeviceKind::SimDiskFifo),
    ]
    .map(|(label, kind)| {
        let db = build_db_edited(scale, |o| o.device = kind);
        vec![
            Cell::text("device", label),
            secs("total_s", total(&db, Q6, Method::xschedule())),
        ]
    })
    .to_vec();

    Artifact {
        name: "ABLATIONS",
        description: "ablations of the paper's design choices: XSchedule queue depth k (A1), device queue window (A1b), page placement (A2), speculative XSchedule (A3), fallback memory limit (A4), buffer size (A5), device queue policy (A6)",
        params: vec![Cell::param("scale_factor", scale)],
        tables: vec![
            table("a1_queue_depth_k", a1),
            table("a1b_device_window", a1b),
            table("a2_placement", a2),
            table("a3_speculative", a3),
            table("a4_fallback_limit", a4),
            table("a5_buffer_size", a5),
            table("a6_device_policy", a6),
        ],
        summary: Vec::new(),
    }
}

/// Extensions E7–E11 (the paper's §7 outlook) at SF 1; E11 ages an SF 0.5
/// database with up to 5000 updates. Fast: SF 0.1, up to 500 updates.
pub fn extensions(fast: bool) -> Artifact {
    let (scale, aging_levels): (f64, &[usize]) = if fast {
        (FAST_SCALE, &[0, 500])
    } else {
        (1.0, &[0, 500, 2000, 5000])
    };
    let aging_scale = if fast { FAST_SCALE } else { 0.5 };
    let base = build_db(scale);

    // E7: Q7's three paths through one shared scan vs three XScan plans.
    let independent = run_cold(&base, Q7, Method::XScan);
    cold_start(&base);
    let shared = base
        .run_batch(
            &[
                ("/site//description", Method::XScan),
                ("/site//annotation", Method::XScan),
                ("/site//email", Method::XScan),
            ],
            &PlanConfig::new(Method::XScan),
            Batch::SharedScan,
        )
        .expect("shared scan");
    let e7 = [
        ("3 independent scans", &independent.report),
        ("1 shared scan", &shared.report),
    ]
    .map(|(plan, report)| {
        vec![
            Cell::text("plan", plan),
            secs("total_s", report.total_secs()),
            Cell::int("device_reads", report.device.reads),
        ]
    })
    .to_vec();
    let shared_agrees = independent.value == shared.report.results;

    // E8: document export by structural walk vs one sequential scan, on a
    // fragmented layout.
    let db = build_db_edited(scale, |o| o.placement = Placement::Shuffled { seed: 23 });
    let export = |f: fn(&Database) -> pathix_xml::Document| {
        cold_start(&db);
        let t0 = db.store().clock().breakdown();
        let doc = f(&db);
        (doc, db.store().clock().breakdown().since(&t0).total_secs())
    };
    let (walked, walk_s) = export(Database::export);
    let (scanned, scan_s) = export(Database::export_scan);
    let e8 = [("structural walk", walk_s), ("sequential scan", scan_s)]
        .map(|(strategy, s)| vec![Cell::text("strategy", strategy), secs("total_s", s)])
        .to_vec();

    // E9: the cost model's choice of I/O operator — calibrated from import
    // statistics, as `pathix query --method auto` uses it — vs the
    // measured best.
    let e9 = QUERIES
        .map(|(label, query)| {
            let recommended = base
                .estimate(query)
                .expect("benchmark queries parse and have a location path")
                .recommend();
            let [sched_s, scan_s] =
                [Method::xschedule(), Method::XScan].map(|m| total(&base, query, m));
            let (best, best_s) = if scan_s < sched_s {
                (Method::XScan, scan_s)
            } else {
                (Method::xschedule(), sched_s)
            };
            let recommended_s = if recommended == Method::XScan {
                scan_s
            } else {
                sched_s
            };
            vec![
                Cell::text("query", label),
                Cell::text("recommended", recommended.label()),
                Cell::text("measured_best", best.label()),
                secs("recommended_s", recommended_s),
                secs("best_s", best_s),
            ]
        })
        .to_vec();

    // E10: two concurrent queries sharing the device, on a fragmented
    // layout.
    let e10 = [
        ("2 x Simple", Method::Simple),
        ("2 x XSchedule", Method::xschedule()),
    ]
    .map(|(workload, m)| {
        let db = build_db_edited(scale, |o| o.placement = Placement::Shuffled { seed: 41 });
        cold_start(&db);
        let batch = db
            .run_batch(
                &[("/site/regions//item", m), ("/site//email", m)],
                &PlanConfig::new(m),
                Batch::Interleaved,
            )
            .expect("concurrent run");
        let report = &batch.report;
        vec![
            Cell::text("workload", workload),
            secs("combined_s", report.total_secs()),
            Cell::int("seek_distance", report.device.seek_distance_pages),
            Cell::check(
                "both_answered",
                batch.runs.len() == 2 && batch.failed() == 0,
            ),
        ]
    })
    .to_vec();

    Artifact {
        name: "EXTENSIONS",
        description: "the paper's outlook (section 7) measured: one shared scan for several paths (E7), document export (E8), the cost model's operator choice (E9), concurrent queries (E10), aging by updates (E11)",
        params: vec![
            Cell::param("scale_factor", scale),
            Cell::param("aging_scale_factor", aging_scale),
        ],
        tables: vec![
            table("e7_shared_scan", e7),
            table("e8_export", e8),
            table("e9_optimizer", e9),
            table("e10_concurrent", e10),
            table("e11_aging", aging(aging_scale, aging_levels)),
        ],
        summary: vec![
            Cell::check("e7_shared_scan_equals_independent", shared_agrees),
            Cell::check("e8_walk_equals_scan", walked.logically_equal(&scanned)),
        ],
    }
}

/// E11, aging by updates: a sequentially imported database is aged with
/// random leaf insertions, which relocate records onto overflow pages at
/// the end of the file — the fragmentation process the paper's
/// introduction describes. One row of Q6' times per aging level.
fn aging(scale: f64, levels: &[usize]) -> Vec<Vec<Cell>> {
    use pathix_tree::{InsertPos, NewNode, NodeId};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let mut db = build_db_edited(scale, |o| o.placement = Placement::Sequential);
    let mut rng = StdRng::seed_from_u64(0xA6E5);
    let mut applied = 0usize;
    let mut rows = Vec::new();
    for &level in levels {
        while applied < level {
            let pages = db.store().meta.page_range();
            let page = rng.random_range(pages.start..pages.end);
            // Insertable anchors: core nodes with a parent.
            let anchors: Vec<u16> = {
                let cluster = db.store().fix(page);
                cluster
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| n.kind.is_core() && n.parent.is_some())
                    .map(|(i, _)| i as u16)
                    .collect()
            };
            if anchors.is_empty() {
                continue;
            }
            let slot = anchors[rng.random_range(0..anchors.len())];
            let pos = InsertPos::After(NodeId::new(page, slot));
            let _ = db
                .updater()
                .insert(pos, NewNode::Text("update payload added later".into()));
            applied += 1;
        }
        let runs = run_plans(&db, Q6);
        let [simple_s, sched_s, scan_s] = runs.each_ref().map(|r| r.report.total_secs());
        rows.push(vec![
            Cell::int("updates", level as u64),
            Cell::int("pages", db.pages().into()),
            secs("simple_s", simple_s),
            secs("xschedule_s", sched_s),
            secs("xscan_s", scan_s),
            plans_agree(&runs),
        ]);
    }
    rows
}

#[cfg(test)]
mod tests {
    // Test assertions may panic; the R3/unwrap contract covers hot-path code.
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::artifact::{num, Value};
    use std::sync::OnceLock;

    /// `paper(true)`, run once for every test that reads it.
    fn fast_paper() -> &'static Artifact {
        static PAPER: OnceLock<Artifact> = OnceLock::new();
        PAPER.get_or_init(|| paper(true))
    }

    fn rows<'a>(a: &'a Artifact, table: &str) -> &'a [Vec<Cell>] {
        &a.tables.iter().find(|t| t.name == table).unwrap().rows
    }

    #[test]
    fn queries_parse() {
        for (_, q) in QUERIES {
            pathix_xpath::parse_query(q).expect("benchmark query parses");
        }
    }

    #[test]
    fn tiny_sweep_is_consistent() {
        let a = fast_paper();
        assert_eq!(a.failed_checks(), Vec::<String>::new());
        let rows = rows(a, "fig9_q6");
        assert_eq!(rows.len(), 1);
        assert!(num(&rows[0], "result") > 0.0);
        assert!(num(&rows[0], "simple_s") > 0.0);
    }

    #[test]
    fn example1_traces_differ_between_plans() {
        let a = fast_paper();
        assert_eq!(a.failed_checks(), Vec::<String>::new());
        let rows = rows(a, "example1");
        assert_eq!(rows.len(), 3);
        let row = |plan: &str| {
            let text = Value::Text(plan.to_owned());
            rows.iter().find(|r| r[0].value == text).unwrap()
        };
        // The scan visits pages in strictly increasing physical order.
        let checks = a.checks();
        let in_order = ("example1_xscan_reads_in_physical_order".to_owned(), true);
        assert!(checks.contains(&in_order));
        assert!(
            num(row("Simple"), "seek_distance") > num(row("XScan"), "seek_distance"),
            "simple must seek more than the scan"
        );
    }
}
