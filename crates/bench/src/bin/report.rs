//! Regenerates the paper's evaluation artifacts on the simulated substrate.
//!
//! ```text
//! report [--sf-max N] [--factors a,b,c] [--fast] <experiment>...
//! experiments: tab2 fig9 fig10 fig11 tab3 example1
//!              ablation-k ablation-frag ablation-spec ablation-fallback
//!              ablation-buffer ablation-device all
//!              throughput scaling chaos overload
//! ```
//!
//! The last four are the substrate harnesses (not part of `all`). Each
//! returns one [`Artifact`]; `report` prints it, fails (exit 1) if any of
//! its checks does not hold, and otherwise writes `BENCH_PR2.json` …
//! `BENCH_PR5.json`. With `--fast` each harness runs its small smoke
//! configuration and nothing is written.

// Stdout is this binary's output channel.
#![allow(clippy::print_stdout)]

use pathix_bench::artifact::Artifact;
use pathix_bench::table::{ratio, render, secs};
use pathix_bench::*;

fn fig(query_label: &str, query: &str, factors: &[f64]) {
    println!("== {query_label}: total execution time vs XMark scaling factor ==");
    println!("   query: {query}");
    let rows = figure_sweep(query, factors);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.sf),
                r.pages.to_string(),
                r.value.to_string(),
                secs(r.simple_s),
                secs(r.xschedule_s),
                secs(r.xscan_s),
                ratio(r.simple_s, r.xschedule_s),
                ratio(r.simple_s, r.xscan_s),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "sf",
                "pages",
                "result",
                "Simple[s]",
                "XSchedule[s]",
                "XScan[s]",
                "S/Xsched",
                "S/XScan"
            ],
            &table_rows
        )
    );
}

fn tab2() {
    println!("== Tab. 2: selected XMark queries ==");
    let rows: Vec<Vec<String>> = QUERIES
        .iter()
        .map(|(l, q)| vec![l.to_string(), q.to_string()])
        .collect();
    println!("{}", render(&["No.", "XPath query"], &rows));
}

fn tab3_report(scale: f64) {
    println!("== Tab. 3: total time and CPU usage at XMark scaling factor {scale} ==");
    let rows = table3(scale);
    let mut out = Vec::new();
    for row in rows {
        for (m, total, cpu) in &row.cells {
            out.push(vec![
                row.query.to_string(),
                m.clone(),
                secs(*total),
                secs(*cpu),
                format!("{:.0}%", 100.0 * cpu / total.max(1e-12)),
            ]);
        }
    }
    println!(
        "{}",
        render(&["query", "plan", "total[s]", "CPU[s]", "CPU%"], &out)
    );
}

fn example1_report() {
    println!("== Example 1: physical page access order per plan ==");
    for row in example1() {
        let shown = row
            .trace
            .iter()
            .take(24)
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let ell = if row.trace.len() > 24 { ",…" } else { "" };
        println!(
            "{:<10} seek-distance {:>6} pages  time {:>9.2} ms  order: {shown}{ell}",
            row.method, row.seek_distance, row.total_ms
        );
    }
    println!();
}

/// Prints `a`, then writes it as `<name>.json` unless `fast`. Returns
/// whether every check held; nothing is written when one does not.
fn substrate_report(a: &Artifact, fast: bool) -> bool {
    println!("{}", a.render());
    let failed = a.failed_checks();
    let file = format!("{}.json", a.name);
    if !failed.is_empty() {
        println!("FAILED checks: {} ({file} not written)", failed.join(", "));
    } else if fast {
        println!(
            "all {} checks hold (fast mode: {file} not written)",
            a.checks().len()
        );
    } else {
        std::fs::write(&file, a.to_json()).expect("write artifact");
        println!("all {} checks hold; wrote {file}", a.checks().len());
    }
    failed.is_empty()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut factors: Vec<f64> = SCALING_FACTORS.to_vec();
    let mut wanted: Vec<String> = Vec::new();
    let mut fast = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => fast = true,
            "--factors" => {
                i += 1;
                factors = args
                    .get(i)
                    .expect("--factors needs a value")
                    .split(',')
                    .map(|s| s.parse().expect("numeric factor"))
                    .collect();
            }
            "--sf-max" => {
                i += 1;
                let max: f64 = args
                    .get(i)
                    .expect("--sf-max needs a value")
                    .parse()
                    .expect("numeric max");
                factors.retain(|&f| f <= max);
            }
            other => wanted.push(other.to_owned()),
        }
        i += 1;
    }
    if wanted.is_empty() {
        wanted.push("all".into());
    }
    let all = wanted.iter().any(|w| w == "all");
    let has = |name: &str| all || wanted.iter().any(|w| w == name);

    if has("tab2") {
        tab2();
    }
    if has("example1") {
        example1_report();
    }
    if has("fig9") {
        fig("Fig. 9 (Q6')", Q6, &factors);
    }
    if has("fig10") {
        fig("Fig. 10 (Q7)", Q7, &factors);
    }
    if has("fig11") {
        fig("Fig. 11 (Q15)", Q15, &factors);
    }
    if has("tab3") {
        tab3_report(1.0);
    }
    if has("ablation-k") {
        println!("== A1: XSchedule queue depth k (Q6', SF 1) ==");
        let rows: Vec<Vec<String>> = ablation_k(1.0, &[1, 10, 100, 1000])
            .into_iter()
            .map(|(k, s)| vec![k.to_string(), secs(s)])
            .collect();
        println!("{}", render(&["k", "XSchedule[s]"], &rows));
    }
    if has("ablation-k") {
        println!("== A1b: device command-queue window (Q6' with XSchedule, SF 1) ==");
        let rows: Vec<Vec<String>> = ablation_device_window(1.0, &[1, 4, 16, 0])
            .into_iter()
            .map(|(w, s)| {
                vec![
                    if w == 0 {
                        "unbounded".into()
                    } else {
                        w.to_string()
                    },
                    secs(s),
                ]
            })
            .collect();
        println!("{}", render(&["window", "XSchedule[s]"], &rows));
    }
    if has("ablation-frag") {
        println!("== A2: physical placement / fragmentation (Q6', SF 1) ==");
        let rows: Vec<Vec<String>> = ablation_fragmentation(1.0)
            .into_iter()
            .map(|(p, m, s)| vec![p, m, secs(s)])
            .collect();
        println!("{}", render(&["placement", "plan", "total[s]"], &rows));
    }
    if has("ablation-spec") {
        println!("== A3: speculative XSchedule (revisiting path, SF 1) ==");
        let rows: Vec<Vec<String>> = ablation_speculative(1.0)
            .into_iter()
            .map(|(spec, reads, s)| {
                vec![
                    if spec { "on" } else { "off" }.to_string(),
                    reads.to_string(),
                    secs(s),
                ]
            })
            .collect();
        println!(
            "{}",
            render(&["speculative", "device reads", "total[s]"], &rows)
        );
    }
    if has("ablation-fallback") {
        println!("== A4: fallback memory limit (Q7 with XScan, SF 1) ==");
        let rows: Vec<Vec<String>> =
            ablation_fallback(1.0, &[None, Some(100_000), Some(1_000), Some(10)])
                .into_iter()
                .map(|(l, fb, s)| vec![l, fb.to_string(), secs(s)])
                .collect();
        println!("{}", render(&["S limit", "fallback", "total[s]"], &rows));
    }
    if has("ablation-buffer") {
        println!("== A5: buffer size (Q7, SF 1) ==");
        let rows: Vec<Vec<String>> = ablation_buffer(1.0, &[50, 200, 800, 1600, 3200])
            .into_iter()
            .map(|(b, s, x)| vec![b.to_string(), secs(s), secs(x)])
            .collect();
        println!(
            "{}",
            render(&["buffer pages", "Simple[s]", "XSchedule[s]"], &rows)
        );
    }
    if has("ext-shared-scan") {
        println!("== E7: Q7 with one shared scan vs three XScan plans (SF 1) ==");
        let (ind_s, sh_s, ind_r, sh_r) = extension_shared_scan(1.0);
        println!(
            "{}",
            render(
                &["plan", "total[s]", "device reads"],
                &[
                    vec!["3 independent scans".into(), secs(ind_s), ind_r.to_string()],
                    vec!["1 shared scan".into(), secs(sh_s), sh_r.to_string()],
                ]
            )
        );
    }
    if has("ext-export") {
        println!("== E8: document export — structural walk vs sequential scan (SF 1, shuffled) ==");
        let (walk_s, scan_s) = extension_export(1.0);
        println!(
            "{}",
            render(
                &["strategy", "total[s]"],
                &[
                    vec!["structural walk".into(), secs(walk_s)],
                    vec!["sequential scan".into(), secs(scan_s)],
                ]
            )
        );
    }
    if has("ext-optimizer") {
        println!("== E9: cost-model choice of the I/O operator vs measured best (SF 1) ==");
        let rows: Vec<Vec<String>> = extension_optimizer(1.0)
            .into_iter()
            .map(|(q, rec, best, rec_s, best_s)| vec![q, rec, best, secs(rec_s), secs(best_s)])
            .collect();
        println!(
            "{}",
            render(
                &["query", "recommended", "measured best", "rec[s]", "best[s]"],
                &rows
            )
        );
    }
    if has("ext-concurrent") {
        println!("== E10: two concurrent queries sharing the device (SF 1, shuffled) ==");
        let rows: Vec<Vec<String>> = extension_concurrent(1.0)
            .into_iter()
            .map(|(l, s, d)| vec![l, secs(s), d.to_string()])
            .collect();
        println!(
            "{}",
            render(&["workload", "combined total[s]", "seek distance"], &rows)
        );
    }
    if has("ext-aging") {
        println!("== E11: aging a sequential database with random updates (Q6', SF 0.5) ==");
        let rows: Vec<Vec<String>> = extension_aging(0.5, &[0, 500, 2000, 5000])
            .into_iter()
            .map(|(ops, pages, s, x, sc)| {
                vec![
                    ops.to_string(),
                    pages.to_string(),
                    secs(s),
                    secs(x),
                    secs(sc),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                &["updates", "pages", "Simple[s]", "XSchedule[s]", "XScan[s]"],
                &rows
            )
        );
    }
    if has("ablation-device") {
        println!("== A6: device command-queue policy (Q6' with XSchedule, SF 1) ==");
        let rows: Vec<Vec<String>> = ablation_device_policy(1.0)
            .into_iter()
            .map(|(l, s)| vec![l, secs(s)])
            .collect();
        println!("{}", render(&["device", "total[s]"], &rows));
    }
    // Not part of `all`: the substrate harnesses.
    let harnesses = [
        ("throughput", throughput::run as fn(bool) -> Artifact),
        ("scaling", scaling::run),
        ("chaos", chaos::run),
        ("overload", overload::run),
    ];
    let mut all_hold = true;
    for (name, run) in harnesses {
        if wanted.iter().any(|w| w == name) {
            all_hold &= substrate_report(&run(fast), fast);
        }
    }
    if !all_hold {
        std::process::exit(1);
    }
}
