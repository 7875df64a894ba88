//! Golden fixtures: for every rule R1–R9, one snippet that must trip the
//! checker and one compliant twin that must pass — plus a self-check that
//! the real workspace is clean.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_lint::rules::check_source;

fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
    check_source(path, src)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

// ---------------------------------------------------------------- R1 ---

#[test]
fn r1_bad_io_in_navigation_operator() {
    let src = r#"
        use pathix_storage::Device;
        pub fn advance(cx: &ExecCtx<'_>) {
            let page = cx.store.buffer.fix(7);
            let _ = page;
        }
    "#;
    let diags = check_source("crates/core/src/ops/xstep.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "R1" && d.line == 2),
        "expected R1 on the use line, got {diags:?}"
    );
    assert!(diags.iter().any(|d| d.rule == "R1" && d.line == 4));
}

#[test]
fn r1_good_io_in_schedule_operator() {
    // Identical code is legal in XSchedule: it is *the* I/O operator.
    let src = r#"
        pub fn advance(cx: &ExecCtx<'_>) {
            let page = cx.store.buffer.fix(7);
            let _ = page;
        }
    "#;
    assert!(rules_of("crates/core/src/ops/xschedule.rs", src).is_empty());
}

#[test]
fn r1_good_navigation_only_xstep() {
    let src = r#"
        pub fn advance(&mut self, c: &ClusterRef<'_>) -> Option<Pi> {
            let next = c.first_child(self.slot)?;
            Some(Pi::band(self.sl, self.nl, self.i, self.end(next), self.li))
        }
    "#;
    assert!(rules_of("crates/core/src/ops/xstep.rs", src).is_empty());
}

// ---------------------------------------------------------------- R2 ---

#[test]
fn r2_bad_wall_clock_in_core() {
    let src = "use std::time::Instant;\nfn t() -> Instant { Instant::now() }";
    let diags = check_source("crates/core/src/context.rs", src);
    assert!(diags.iter().any(|d| d.rule == "R2" && d.line == 1));
}

#[test]
fn r2_bad_wall_clock_in_storage() {
    let src = "use std::time::Instant;\nfn t() -> Instant { Instant::now() }";
    let diags = check_source("crates/storage/src/file_device.rs", src);
    assert!(diags.iter().any(|d| d.rule == "R2" && d.line == 2));
}

#[test]
fn r2_bad_wall_clock_in_bench() {
    let src = "use std::time::Instant;\nfn t() -> Instant { Instant::now() }";
    let diags = check_source("crates/bench/src/artifact.rs", src);
    assert!(diags.iter().any(|d| d.rule == "R2" && d.line == 2));
}

#[test]
fn r2_bad_rand_in_tree() {
    let src = "use rand::rngs::StdRng;";
    assert_eq!(rules_of("crates/tree/src/import.rs", src), vec!["R2"]);
}

#[test]
fn r2_good_rand_in_xmlgen_and_tests() {
    let src = "use rand::rngs::StdRng;";
    assert!(rules_of("crates/xmlgen/src/lib.rs", src).is_empty());
    assert!(rules_of("crates/tree/tests/update_tests.rs", src).is_empty());
}

#[test]
fn r2_bad_hashmap_in_report() {
    let src = "use std::collections::HashMap;\nfn agg() -> HashMap<u32, u64> { HashMap::new() }";
    let diags = check_source("crates/core/src/report.rs", src);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "R2"));
}

#[test]
fn r2_good_btreemap_in_report() {
    let src = "use std::collections::BTreeMap;\nfn agg() -> BTreeMap<u32, u64> { BTreeMap::new() }";
    assert!(rules_of("crates/core/src/report.rs", src).is_empty());
}

// ---------------------------------------------------------------- R3 ---

#[test]
fn r3_bad_unwrap_in_hot_path() {
    let src = "fn f(v: Option<u8>) -> u8 { v.unwrap() }";
    assert_eq!(rules_of("crates/storage/src/buffer.rs", src), vec!["R3"]);
}

#[test]
fn r3_bad_panic_macro_and_indexing() {
    let src = r#"
        fn f(v: &[u8], i: usize) -> u8 {
            if i > v.len() { panic!("out of range"); }
            v[i]
        }
    "#;
    let diags = check_source("crates/tree/src/nav.rs", src);
    assert_eq!(
        diags.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
        vec![("R3", 3), ("R3", 4)]
    );
}

#[test]
fn r3_good_checked_access() {
    let src = r#"
        fn f(v: &[u8], i: usize) -> Option<u8> {
            v.get(i).copied()
        }
    "#;
    assert!(rules_of("crates/tree/src/nav.rs", src).is_empty());
}

#[test]
fn r3_good_lint_allow_escape_hatch() {
    let src = r#"
        fn f(v: &[u8]) -> u8 {
            // lint:allow(v is non-empty: guarded by the caller's arity check)
            v[0]
        }
    "#;
    assert!(rules_of("crates/tree/src/nav.rs", src).is_empty());
}

#[test]
fn r3_good_unwrap_in_test_module() {
    let src = r#"
        fn prod(v: Option<u8>) -> Option<u8> { v }
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { assert_eq!(super::prod(Some(1)).unwrap(), 1); }
        }
    "#;
    assert!(rules_of("crates/core/src/ops/xassembly.rs", src).is_empty());
}

// ---------------------------------------------------------------- R4 ---

#[test]
fn r4_bad_pi_struct_literal() {
    let src = r#"
        fn build(id: NodeId) -> Pi {
            Pi { sl: 0, nl: id, sr: 0, nr: REnd::Done { id, order: 0 }, li: false }
        }
    "#;
    let diags = check_source("crates/core/src/ops/xstep.rs", src);
    assert_eq!(
        diags.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
        vec![("R4", 3)]
    );
}

#[test]
fn r4_good_checked_constructor_and_impl() {
    // Constructor calls, `impl Pi {`, and `-> Pi {` are all fine.
    let src = r#"
        fn build(id: NodeId) -> Pi {
            Pi::band(0, id, 0, REnd::Done { id, order: 0 }, false)
        }
        impl Pi {
            fn noop(&self) {}
        }
    "#;
    assert!(rules_of("crates/core/src/ops/xstep.rs", src).is_empty());
}

#[test]
fn r4_good_literal_inside_instance_rs() {
    let src = "fn mk() -> Pi { Pi { sl: 0, nl: id, sr: 0, nr: end, li: false } }";
    assert!(rules_of("crates/core/src/instance.rs", src).is_empty());
}

#[test]
fn r4_bad_upward_crate_reference() {
    // xml sits below tree; importing tree from xml inverts the layering.
    let src = "use pathix_tree::NodeId;";
    assert_eq!(rules_of("crates/xml/src/lib.rs", src), vec!["R4"]);
}

#[test]
fn r4_good_downward_crate_reference() {
    let src = "use pathix_tree::NodeId;\nuse pathix_storage::PageId;";
    assert!(rules_of("crates/core/src/plan.rs", src).is_empty());
}

#[test]
fn r4_manifest_layering() {
    let bad = "[package]\nname = \"pathix-tree\"\n[dependencies]\npathix-core.workspace = true\n";
    let diags = pathix_lint::workspace::check_manifest("crates/tree/Cargo.toml", bad);
    assert_eq!(diags.len(), 1);
    assert_eq!((diags[0].rule, diags[0].line), ("R4", 4));

    let good = "[package]\nname = \"pathix-core\"\n[dependencies]\npathix-tree.workspace = true\n";
    assert!(pathix_lint::workspace::check_manifest("crates/core/Cargo.toml", good).is_empty());
}

// ---------------------------------------------------------------- R5 ---

#[test]
fn r5_bad_threading_in_operator_hot_path() {
    let src = r#"
        use std::sync::mpsc;
        use std::sync::atomic::AtomicUsize;
        fn f() {
            std::thread::spawn(|| {});
        }
    "#;
    let diags = check_source("crates/core/src/ops/xschedule.rs", src);
    assert!(diags.iter().any(|d| d.rule == "R5" && d.line == 2));
    assert!(diags.iter().any(|d| d.rule == "R5" && d.line == 3));
    assert!(diags.iter().any(|d| d.rule == "R5" && d.line == 5));
}

#[test]
fn r5_bad_lock_in_facade() {
    let src = "use std::sync::Mutex;";
    let diags = check_source("src/db.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "R5"));
}

#[test]
fn r5_good_threading_in_concurrency_zone() {
    let src = r#"
        use std::sync::Mutex;
        use std::sync::atomic::AtomicU64;
        fn f() {
            std::thread::scope(|_| {});
        }
    "#;
    assert!(rules_of("crates/storage/src/shared_cache.rs", src).is_empty());
    assert!(rules_of("crates/core/src/batch.rs", src).is_empty());
    // Test code anywhere is exempt.
    assert!(rules_of("tests/parallel_batch.rs", src).is_empty());
}

#[test]
fn r5_bad_atomic_in_governor() {
    let src = r#"
        use std::sync::atomic::AtomicBool;
        struct Flag(AtomicBool);
    "#;
    let diags = check_source("crates/core/src/governor.rs", src);
    assert!(diags.iter().any(|d| d.rule == "R5" && d.line == 2));
    assert!(diags.iter().any(|d| d.rule == "R5" && d.line == 3));
}

// ---------------------------------------------------------------- R6 ---

#[test]
fn r6_bad_fault_api_in_operator() {
    let src = r#"
        use pathix_storage::{FaultKind, FaultPlan};
        fn sabotage() -> FaultPlan {
            FaultPlan::new(1, vec![])
        }
    "#;
    let diags = check_source("crates/core/src/ops/xscan.rs", src);
    assert!(diags.iter().any(|d| d.rule == "R6" && d.line == 2));
    assert!(diags.iter().any(|d| d.rule == "R6" && d.line == 3));
    assert!(diags.iter().any(|d| d.rule == "R6" && d.line == 4));
}

#[test]
fn r6_good_fault_api_in_fault_zone() {
    let src = r#"
        use pathix_storage::{FaultKind, FaultPlan, FaultRule};
        fn plan() -> FaultPlan {
            FaultPlan::new(1, vec![FaultRule::new(None, FaultKind::TransientRead)])
        }
    "#;
    for path in [
        "crates/storage/src/fault.rs",
        "src/db.rs",
        "src/lib.rs",
        "crates/bench/src/chaos.rs",
        "tests/fault_injection.rs",
    ] {
        assert!(
            !rules_of(path, src).contains(&"R6"),
            "fault zone path {path} flagged"
        );
    }
}

#[test]
fn r6_bad_io_error_literal_outside_storage() {
    let src = r#"
        fn fabricate() -> IoError {
            IoError { page: 7, attempts: 1 }
        }
    "#;
    let diags = check_source("crates/core/src/batch.rs", src);
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.rule == "R6")
            .map(|d| d.line)
            .collect::<Vec<_>>(),
        vec![3],
        "only the literal trips, not the return type: {diags:?}"
    );
}

#[test]
fn r6_good_io_error_consumed_outside_storage() {
    // Consuming an error (matching, field access, type position) is fine;
    // the storage layer may construct freely.
    let consume = r#"
        fn surface(e: IoError) -> (u32, u32) {
            (e.page, e.attempts)
        }
    "#;
    assert!(!rules_of("crates/core/src/batch.rs", consume).contains(&"R6"));
    let build = "fn mk() -> IoError { IoError { page: 0, attempts: 1 } }";
    assert!(!rules_of("crates/storage/src/device.rs", build).contains(&"R6"));
}

#[test]
fn r6_bad_exec_error_inside_operator() {
    let src = "fn f() -> ExecError { ExecError::WorkerLost { item: 0 } }";
    let diags = check_source("crates/core/src/ops/xstep.rs", src);
    assert!(diags.iter().any(|d| d.rule == "R6"));
}

#[test]
fn r6_good_exec_error_in_executor_and_tests() {
    let src = "fn f() -> ExecError { ExecError::WorkerLost { item: 0 } }";
    assert!(!rules_of("crates/core/src/exec.rs", src).contains(&"R6"));
    assert!(!rules_of("crates/core/tests/containment.rs", src).contains(&"R6"));
}

// ---------------------------------------------------------------- R7 ---

#[test]
fn r7_bad_budget_in_operator() {
    let src = r#"
        use crate::governor::{Deadline, QueryBudget};
        fn f(b: &QueryBudget, d: &Deadline) -> bool {
            d.hard_ns > 0
        }
    "#;
    let diags = check_source("crates/core/src/ops/xstep.rs", src);
    assert!(diags.iter().any(|d| d.rule == "R7" && d.line == 2));
    assert!(diags.iter().any(|d| d.rule == "R7" && d.line == 3));
}

#[test]
fn r7_bad_budget_in_tree_layer() {
    let src = "fn armed(b: &QueryBudget) -> bool { b.deadline.is_some() }";
    assert_eq!(rules_of("crates/tree/src/store.rs", src), vec!["R7"]);
}

#[test]
fn r7_good_budget_in_governor_zone() {
    let src = r#"
        use crate::governor::{AdmissionConfig, GovernorReport, QueryBudget};
        fn f(b: &QueryBudget, a: &AdmissionConfig) -> GovernorReport {
            GovernorReport::default()
        }
    "#;
    for path in [
        "crates/core/src/governor.rs",
        "crates/core/src/context.rs",
        "crates/core/src/plan.rs",
        "crates/core/src/batch.rs",
        "src/db.rs",
        "crates/bench/src/overload.rs",
        "tests/governor_chaos.rs",
    ] {
        assert!(
            !rules_of(path, src).contains(&"R7"),
            "governor zone path {path} flagged"
        );
    }
}

#[test]
fn r7_bad_interrupt_gate_outside_checkpoints() {
    let src = r#"
        fn f(cx: &ExecCtx<'_>) -> bool {
            cx.store.interrupted()
        }
    "#;
    let diags = check_source("crates/core/src/ops/stack.rs", src);
    assert!(diags.iter().any(|d| d.rule == "R7" && d.line == 3));
}

#[test]
fn r7_good_interrupt_gate_at_checkpoints() {
    let src = r#"
        fn f(cx: &ExecCtx<'_>) -> bool {
            cx.store.interrupted()
        }
    "#;
    for path in [
        "crates/core/src/ops/xstep.rs",
        "crates/core/src/ops/xscan.rs",
        "crates/core/src/ops/xschedule.rs",
        "crates/core/src/ops/xassembly.rs",
    ] {
        assert!(
            !rules_of(path, src).contains(&"R7"),
            "checkpoint operator {path} flagged"
        );
    }
}

#[test]
fn r7_bad_wall_clock_in_deadline_logic() {
    let src = "use std::time::Instant;\nfn late(t: Instant) -> bool { t.elapsed().as_nanos() > 0 }";
    let diags = check_source("crates/core/src/governor.rs", src);
    assert!(diags.iter().any(|d| d.rule == "R7" && d.line == 1));
    assert!(diags.iter().any(|d| d.rule == "R7" && d.line == 2));
}

#[test]
fn r7_good_sim_time_deadline_logic() {
    let src = r#"
        fn late(now_ns: u64, deadline_ns: u64) -> bool {
            now_ns >= deadline_ns
        }
    "#;
    assert!(rules_of("crates/core/src/governor.rs", src).is_empty());
}

// ---------------------------------------------------------------- R8 ---

#[test]
fn r8_bad_unsafe_outside_checksum() {
    let src = r#"
        fn first(v: &[u8]) -> u8 {
            // SAFETY: callers never pass an empty slice.
            unsafe { *v.get_unchecked(0) }
        }
    "#;
    let diags = check_source("crates/storage/src/slotted.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "R8" && d.line == 4),
        "expected R8 on the unsafe block, got {diags:?}"
    );
}

#[test]
fn r8_good_unsafe_in_checksum() {
    let src = r#"
        fn crc(crc: u32, blocks: &[u8]) -> Option<u32> {
            if std::arch::is_x86_feature_detected!("pclmulqdq") {
                // SAFETY: the CPU has pclmulqdq, checked just above.
                #[allow(unsafe_code)]
                return Some(unsafe { clmul::crc32(crc, blocks) });
            }
            None
        }
    "#;
    assert!(rules_of("crates/storage/src/checksum.rs", src).is_empty());
}

// ---------------------------------------------------------------- R9 ---

#[test]
fn r9_bad_cost_constant_outside_cost_table() {
    let src = r#"
        /// CPU cost of one probe.
        const PROBE_NS: u64 = 1_000;
        fn charge(clock: &SimClock) {
            clock.charge_cpu(PROBE_NS);
        }
    "#;
    let diags = check_source("crates/storage/src/shared_cache.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "R9" && d.line == 3),
        "expected R9 on the const, got {diags:?}"
    );
    assert_eq!(
        rules_of(
            "crates/core/src/plan.rs",
            "pub const SORT_CMP_NS: u64 = 30;"
        ),
        vec!["R9"]
    );
}

#[test]
fn r9_good_cost_table_and_its_readers() {
    // The table itself declares the constants…
    let table = "pub const CACHE_PROBE_NS: u64 = 1_000;";
    assert!(rules_of("crates/storage/src/cost.rs", table).is_empty());
    // …everyone else reads them; other constants, `const fn`, `_ns`
    // fields and test code are not cost constants.
    let reader = r#"
        use crate::cost::CACHE_PROBE_NS;
        const SHARD_COUNT: usize = 16;
        const fn shard(page: u32) -> usize { page as usize % SHARD_COUNT }
        struct Profile { seek_ns: u64 }
        fn charge(clock: &SimClock) {
            clock.charge_cpu(CACHE_PROBE_NS);
        }
        #[cfg(test)]
        mod tests {
            const SLOW_NS: u64 = 5;
        }
    "#;
    assert!(rules_of("crates/storage/src/shared_cache.rs", reader).is_empty());
}

// ------------------------------------------------------- self-check ---

#[test]
fn real_workspace_is_clean() {
    let root =
        pathix_lint::find_workspace_root(&std::env::current_dir().expect("cwd available in test"))
            .expect("lint tests run inside the pathix workspace");
    let diags = pathix_lint::check_workspace(&root);
    assert!(
        diags.is_empty(),
        "workspace violates its own invariants:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
