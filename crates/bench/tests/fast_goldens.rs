//! Simulated drift fails the test suite: every report artifact, run in its
//! fast configuration (`report --fast <name>`), must pass its own checks
//! and reproduce its committed golden under `golden/` cell for cell.
//!
//! A change that means to move simulated numbers regenerates the goldens
//! with
//!
//! ```text
//! PATHIX_BLESS=1 cargo test -p pathix-bench --test fast_goldens
//! ```
//!
//! which prints each moved cell (`report diff` lines) to paste into the
//! change log.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_bench::diff::diff;
use pathix_bench::REGISTRY;
use std::path::PathBuf;

/// Runs every registered artifact fast and compares it with
/// `golden/<NAME>.json`, naming every moved cell of every artifact before
/// failing.
#[test]
fn every_artifact_reproduces_its_fast_golden() {
    let bless = std::env::var_os("PATHIX_BLESS").is_some();
    let mut problems = Vec::new();
    for (_, run) in &REGISTRY {
        let artifact = run(true);
        let name = artifact.name;
        let failed = artifact.failed_checks();
        if !failed.is_empty() {
            problems.push(format!(
                "{name} (fast): failed checks {}",
                failed.join(", ")
            ));
        }
        let fresh = artifact.to_json();
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{name}.json"));
        let golden = std::fs::read_to_string(&path).unwrap_or_default();
        let moved = match diff(&golden, &fresh) {
            Ok(moved) => moved,
            Err(e) => vec![format!("{}: {e}", path.display())],
        };
        if bless {
            for line in &moved {
                eprintln!("{name}.{line}");
            }
            std::fs::write(&path, &fresh).unwrap();
        } else if !moved.is_empty() {
            problems.push(format!("{name} (fast) moved:\n{}", moved.join("\n")));
        } else if golden != fresh {
            problems.push(format!("{name} (fast): same cells, other text"));
        }
    }
    assert!(
        problems.is_empty(),
        "{}\n(a deliberate cost-model change regenerates the goldens with \
         PATHIX_BLESS=1 cargo test -p pathix-bench --test fast_goldens)",
        problems.join("\n")
    );
}
