//! Benchmark self-tests: every workload runs at a tiny scale, reports every
//! metric `BENCHMARK.json` names (end-to-end untraced, per-layer traced)
//! with its unit, and fails nothing.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pathix_perfbench::run::{run, Args, Outcome};
use pathix_perfbench::workload::Workload;
use std::path::PathBuf;

/// A document small enough for a debug build.
const TINY_SCALE: f64 = 0.02;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let end = body[1..]
        .find("\"per_layer\"")
        .map_or(body.len(), |i| i + 1);
    let body = &body[..end];
    let field = |from: &str, key: &str| -> Option<(String, usize)> {
        let at = from.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = from[at..].find('"')?;
        Some((from[at..at + len].to_owned(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, after)) = field(rest, "name") {
        let (unit, after_unit) = field(&rest[after..], "unit").expect("every metric has a unit");
        out.push((name, unit));
        rest = &rest[after + after_unit..];
    }
    out
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    let args = Args {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Some(TINY_SCALE),
        out_dir,
    };
    run(&args).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

fn reported(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .0
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_declaration() {
    let want = declared("end_to_end");
    assert!(want.len() >= 2, "end_to_end section parsed: {want:?}");
    for w in Workload::ALL {
        let out = tiny(w, false);
        assert_eq!(reported(&out), want, "{}", w.name());
        assert!(out.correct, "{}: {:?}", w.name(), out.first_failure);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        for m in &out.metrics.0 {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        let ok = out.metrics.get("ok_frac").expect("ok_frac reported");
        assert_eq!(ok.value, 1.0);
    }
}

#[test]
fn per_layer_metrics_match_the_declaration() {
    let want = declared("per_layer");
    assert!(want.len() >= 2, "per_layer section parsed: {want:?}");
    for w in Workload::ALL {
        let out = tiny(w, true);
        assert_eq!(reported(&out), want, "{}", w.name());
        assert!(out.correct, "{}: {:?}", w.name(), out.first_failure);
        assert!(out.metrics.0.iter().all(|m| m.value.is_finite()));
        let failed = out
            .metrics
            .get("failed_frac")
            .expect("failed_frac reported");
        assert_eq!(failed.value, 0.0);
    }
}

#[test]
fn every_workload_parses_by_name() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("nope"), None);
}
