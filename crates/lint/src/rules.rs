//! The rule engine: per-file checks R1–R9 over the token stream.
//!
//! Paths are workspace-relative with `/` separators; rules decide their
//! applicability purely from the path, so fixtures can exercise any rule
//! by picking a suitable virtual path (see `tests/golden.rs`).

use crate::tokenizer::{test_regions, tokenize, SpannedTok, Tok};
use std::fmt;

/// One finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (`R1`…`R9`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Operator files allowed to perform cluster I/O (paper §5.3.4, §5.4.3:
/// XSchedule and XScan are *the* I/O-performing operators). XStep's
/// synchronous reads for an unswizzled end, the Simple method and the
/// fallback mode, go through `pathix_tree::FullCursor`, never the buffer.
const IO_OPERATOR_FILES: &[&str] = &["xschedule.rs", "xscan.rs"];

/// Identifiers that indicate physical I/O or storage-layer access.
const IO_IDENTS: &[&str] = &[
    "fix",
    "fix_any_prefetched",
    "checked_fix",
    "try_fix",
    "prefetch",
    "read_sync",
    "submit",
    "poll",
    "device_mut",
    "buffer",
    "pathix_storage",
    "Device",
    "BufferManager",
    "MemDevice",
    "SimDisk",
];

/// Fault-injection API (R6): faults are planted below the shared cache and
/// must stay there. Only the storage layer, the database facade (which
/// wires a [`FaultPlan`] under a fresh device), the bench chaos harness,
/// and tests may name these types — query operators and the tree layer see
/// faults exclusively as `checked_fix → None`.
const FAULT_IDENTS: &[&str] = &["FaultDevice", "FaultPlan", "FaultRule", "FaultKind"];

/// Files allowed to reference the fault-injection API (R6).
fn in_fault_zone(path: &str) -> bool {
    path.starts_with("crates/storage/")
        || path.starts_with("crates/bench/")
        || path == "src/db.rs"
        || path == "src/lib.rs"
}

/// Resource-governor API (R7): budgets and admission control live in the
/// governor zone — the governor module itself, the context/plan layer
/// that threads budgets to checkpoints, the batch executor, the error
/// type, the facade, and the harnesses. Operators never see a budget:
/// they observe only the context's `interrupted` checkpoint at the
/// declared checkpoint sites (DESIGN §12).
const GOVERNOR_IDENTS: &[&str] = &[
    "QueryBudget",
    "Deadline",
    "AdmissionConfig",
    "GovernorReport",
];

/// Files allowed to reference the governor API (R7).
fn in_governor_zone(path: &str) -> bool {
    path == "crates/core/src/governor.rs"
        || path == "crates/core/src/context.rs"
        || path == "crates/core/src/plan.rs"
        || path == "crates/core/src/batch.rs"
        || path == "crates/core/src/error.rs"
        || path == "crates/core/src/lib.rs"
        || path == "src/db.rs"
        || path == "src/lib.rs"
        || path.starts_with("crates/bench/")
}

/// Operator files that are declared budget checkpoints (R7, DESIGN §12):
/// the only `ops/` files that may call `ExecCtx::interrupted`.
/// XStep/XAssembly check in their produce loops, XSchedule/XScan at queue
/// pops.
const CHECKPOINT_FILES: &[&str] = &["xstep.rs", "xscan.rs", "xschedule.rs", "xassembly.rs"];

/// Identifiers that indicate threading primitives (R5). `Atomic`-prefixed
/// identifiers (`AtomicU64`, `AtomicUsize`, …) are matched by prefix.
const CONCURRENCY_IDENTS: &[&str] = &["thread", "mpsc", "Mutex", "RwLock", "Condvar"];

/// Files allowed to use threading primitives (R5): the two storage files
/// that share state across threads (the shared page cache and the fault
/// plan's rule state) and the batch-executor module. Everything else —
/// the operator hot path, the governor, the buffer manager and the bench
/// harness, which runs batches through the facade — stays single-threaded
/// (DESIGN §10).
fn in_concurrency_zone(path: &str) -> bool {
    path == "crates/storage/src/shared_cache.rs"
        || path == "crates/storage/src/fault.rs"
        || path == "crates/core/src/batch.rs"
}

/// Files whose non-test code must be panic-free (R3): the operator hot
/// path, the buffer manager, the navigation primitives, and the page miss
/// path below them — the slotted-page reader, the node decoder and the
/// store that plugs it into the buffer.
fn in_panic_free_zone(path: &str) -> bool {
    path.starts_with("crates/core/src/ops/")
        || path == "crates/storage/src/buffer.rs"
        || path == "crates/storage/src/sim_disk.rs"
        || path == "crates/storage/src/slotted.rs"
        || path == "crates/tree/src/nav.rs"
        || path == "crates/tree/src/node.rs"
        || path == "crates/tree/src/store.rs"
}

/// The one file whose non-test code may use `unsafe` (R8): the CRC32
/// carry-less-multiply kernel, entered after a run-time CPU feature check.
const UNSAFE_FILE: &str = "crates/storage/src/checksum.rs";

/// The one file whose non-test code may declare a `const` named `…_NS`
/// (R9): the table of simulated CPU costs.
const COST_FILE: &str = "crates/storage/src/cost.rs";

/// Cost-accounting / report files (R2): anything iterating a map here must
/// use `BTreeMap` so replayed runs print identically.
fn is_report_file(path: &str) -> bool {
    let base = path.rsplit('/').next().unwrap_or(path);
    base == "report.rs" || base == "context.rs"
}

/// True for files that are test-only by location.
pub fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

/// Canonical layer of each workspace crate; `use` edges must point
/// strictly downwards (R4: `xml → tree → core` direction).
pub fn layer(krate: &str) -> Option<u32> {
    Some(match krate {
        "pathix-storage" | "pathix-xml" | "pathix-lint" => 0,
        "pathix-xpath" | "pathix-xmlgen" => 1,
        "pathix-tree" => 2,
        "pathix-core" => 3,
        "pathix" => 4,
        "pathix-bench" => 5,
        _ => return None,
    })
}

/// The crate a workspace-relative path belongs to.
pub fn crate_of_path(path: &str) -> Option<&'static str> {
    if let Some(rest) = path.strip_prefix("crates/") {
        let dir = rest.split('/').next()?;
        return Some(match dir {
            "storage" => "pathix-storage",
            "xml" => "pathix-xml",
            "xmlgen" => "pathix-xmlgen",
            "xpath" => "pathix-xpath",
            "tree" => "pathix-tree",
            "core" => "pathix-core",
            "bench" => "pathix-bench",
            "lint" => "pathix-lint",
            _ => return None,
        });
    }
    if path.starts_with("src/") || path.starts_with("tests/") {
        return Some("pathix");
    }
    None
}

/// Keywords that rule out the slice-indexing interpretation of a
/// following `[` (array literals, slice types, patterns, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "macro", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type",
    "unsafe", "use", "where", "while", "yield",
];

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Runs every applicable rule over one source file.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let tf = tokenize(src);
    let in_region = test_regions(&tf.tokens);
    let whole_file_test = is_test_path(rel_path);
    let toks = &tf.tokens;
    let mut out: Vec<Diagnostic> = Vec::new();

    let is_test = |i: usize| whole_file_test || in_region[i];
    let base = rel_path.rsplit('/').next().unwrap_or(rel_path);

    let r1_applies =
        rel_path.starts_with("crates/core/src/ops/") && !IO_OPERATOR_FILES.contains(&base);
    let r2_rand_allowed = rel_path.starts_with("crates/xmlgen/")
        || rel_path.starts_with("crates/bench/")
        || whole_file_test;
    let r2_map_applies = is_report_file(rel_path);
    let r3_applies = in_panic_free_zone(rel_path);
    let r4_pi_applies = rel_path != "crates/core/src/instance.rs";
    let r5_applies = !in_concurrency_zone(rel_path);
    let r6_fault_applies = !in_fault_zone(rel_path);
    let r6_ioerr_applies = !rel_path.starts_with("crates/storage/");
    let r6_exec_applies = rel_path.starts_with("crates/core/src/ops/");
    let r7_gov_applies = !in_governor_zone(rel_path);
    let r7_ckpt_applies =
        rel_path.starts_with("crates/core/src/ops/") && !CHECKPOINT_FILES.contains(&base);
    let r7_time_applies = rel_path == "crates/core/src/governor.rs";
    let r8_applies = rel_path != UNSAFE_FILE;
    let r9_applies = rel_path != COST_FILE;
    let own_crate = crate_of_path(rel_path);

    for (i, st) in toks.iter().enumerate() {
        match &st.tok {
            Tok::Ident(id) => {
                // R1: I/O confinement.
                if r1_applies && !is_test(i) && IO_IDENTS.contains(&id.as_str()) {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R1",
                        message: format!(
                            "I/O API `{id}` referenced in a navigation-only operator; \
                             only XSchedule/XScan perform cluster I/O"
                        ),
                    });
                }
                // R2: wall-clock time sources.
                if id == "Instant" || id == "SystemTime" {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R2",
                        message: format!(
                            "`{id}` breaks deterministic replay; use the simulated \
                             clock (SimClock) for all cost accounting and measure \
                             wall-clock time in perfbench"
                        ),
                    });
                }
                // R2: ambient randomness.
                if id == "rand" && !r2_rand_allowed && !is_test(i) {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R2",
                        message: "`rand` outside xmlgen/bench/tests; derive randomness \
                                  from explicit seeds (see pathix_storage::splitmix64)"
                            .to_owned(),
                    });
                }
                // R2: nondeterministic map iteration in report code.
                if r2_map_applies && !is_test(i) && id == "HashMap" {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R2",
                        message: "HashMap iteration order is nondeterministic; use \
                                  BTreeMap in cost-accounting/report code"
                            .to_owned(),
                    });
                }
                // R3: unwrap/expect method calls.
                if r3_applies
                    && !is_test(i)
                    && (id == "unwrap" || id == "expect")
                    && prev_is(toks, i, '.')
                    && next_is(toks, i, '(')
                {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R3",
                        message: format!(
                            "`.{id}()` in the panic-free zone; thread a Result or use \
                             a checked accessor (or justify with lint:allow)"
                        ),
                    });
                }
                // R3: panic-family macros.
                if r3_applies
                    && !is_test(i)
                    && PANIC_MACROS.contains(&id.as_str())
                    && next_is(toks, i, '!')
                {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R3",
                        message: format!("`{id}!` in the panic-free zone"),
                    });
                }
                // R5: concurrency confinement.
                if r5_applies
                    && !is_test(i)
                    && (CONCURRENCY_IDENTS.contains(&id.as_str()) || id.starts_with("Atomic"))
                {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R5",
                        message: format!(
                            "threading primitive `{id}` outside the concurrency zone \
                             (storage shared_cache/fault, \
                             core/src/batch.rs); \
                             the operator hot path stays single-threaded"
                        ),
                    });
                }
                // R7: governor API confinement.
                if r7_gov_applies && !is_test(i) && GOVERNOR_IDENTS.contains(&id.as_str()) {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R7",
                        message: format!(
                            "governor type `{id}` outside the governor zone \
                             (core governor/context/plan/batch/error/lib, \
                             src/db.rs, src/lib.rs, bench, tests); operators \
                             see budgets only through the `interrupted` \
                             checkpoint"
                        ),
                    });
                }
                // R7: budget checkpoints — only the declared checkpoint
                // operators may call `interrupted`.
                if r7_ckpt_applies && !is_test(i) && id == "interrupted" {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R7",
                        message: "`interrupted` checkpoint called outside the declared \
                                  checkpoint operators (xstep/xscan/xschedule/\
                                  xassembly); see DESIGN §12"
                            .to_owned(),
                    });
                }
                // R7: deadline logic runs on simulated time only.
                if r7_time_applies && !is_test(i) && (id == "Instant" || id == "SystemTime") {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R7",
                        message: format!(
                            "`{id}` in deadline logic; deadlines are expressed \
                             in simulated nanoseconds (SimClock) so governed \
                             runs replay exactly"
                        ),
                    });
                }
                // R8: `unsafe` confinement.
                if r8_applies && !is_test(i) && id == "unsafe" {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R8",
                        message: format!(
                            "`unsafe` outside {UNSAFE_FILE}; the workspace's only \
                             unsafe code is the CRC32 kernel call after its CPU \
                             feature check"
                        ),
                    });
                }
                // R9: simulated costs live in one table.
                if r9_applies && !is_test(i) && id == "const" {
                    if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                        if name.ends_with("_NS") {
                            out.push(Diagnostic {
                                file: rel_path.to_owned(),
                                line: st.line,
                                rule: "R9",
                                message: format!(
                                    "cost constant `{name}` outside {COST_FILE}; every \
                                     simulated CPU charge reads the one cost table"
                                ),
                            });
                        }
                    }
                }
                // R6: fault-injection API confinement.
                if r6_fault_applies && !is_test(i) && FAULT_IDENTS.contains(&id.as_str()) {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R6",
                        message: format!(
                            "fault-injection type `{id}` outside the fault zone \
                             (storage, src/db.rs, src/lib.rs, bench, tests); faults \
                             are planted below the shared cache only"
                        ),
                    });
                }
                // R6: `IoError` may only be *constructed* by the storage
                // layer (device/buffer stack); everyone else consumes it.
                // `-> IoError {` and `impl IoError {` are not literals.
                if r6_ioerr_applies
                    && !is_test(i)
                    && id == "IoError"
                    && next_is(toks, i, '{')
                    && !prev_is(toks, i, '>')
                    && !prev_is_ident(toks, i, &["impl", "for", "dyn"])
                {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R6",
                        message: "IoError built outside the storage layer; only the \
                                  device/buffer stack originates I/O errors"
                            .to_owned(),
                    });
                }
                // R6: operators have no error channel — failures travel via
                // `TreeStore::checked_fix → None` plus the store-recorded
                // error, never as `ExecError` values inside ops/.
                if r6_exec_applies && !is_test(i) && id == "ExecError" {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R6",
                        message: "`ExecError` referenced inside an operator; operators \
                                  wind down on checked_fix() == None and the executor \
                                  surfaces the store-recorded error"
                            .to_owned(),
                    });
                }
                // R4: Pi struct literals outside instance.rs. `-> Pi {`
                // (return type + body) and `impl Pi {` are not literals.
                if r4_pi_applies
                    && !is_test(i)
                    && id == "Pi"
                    && next_is(toks, i, '{')
                    && !prev_is(toks, i, '>')
                    && !prev_is_ident(toks, i, &["impl", "for", "dyn"])
                {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R4",
                        message: "Pi built by struct literal; use the checked \
                                  constructors in instance.rs (Pi::band/context/\
                                  swizzled_context/speculative/result)"
                            .to_owned(),
                    });
                }
                // R4: layering of inter-crate references.
                if id == "pathix" || id.starts_with("pathix_") {
                    let referenced = id.replace('_', "-");
                    if let (Some(own), Some(own_layer)) = (own_crate, own_crate.and_then(layer)) {
                        if referenced != own {
                            match layer(&referenced) {
                                Some(l) if l < own_layer => {}
                                Some(_) => out.push(Diagnostic {
                                    file: rel_path.to_owned(),
                                    line: st.line,
                                    rule: "R4",
                                    message: format!(
                                        "`{referenced}` referenced from `{own}` points \
                                         against the layering (xml → tree → core)"
                                    ),
                                }),
                                None => out.push(Diagnostic {
                                    file: rel_path.to_owned(),
                                    line: st.line,
                                    rule: "R4",
                                    message: format!(
                                        "reference to unknown workspace crate `{referenced}`"
                                    ),
                                }),
                            }
                        } else if !is_test(i) && !is_bin_target(rel_path) {
                            // A crate naming itself outside tests is almost
                            // always a stale path; integration tests and bin
                            // targets (which import their sibling lib by
                            // crate name) are the legitimate uses.
                            out.push(Diagnostic {
                                file: rel_path.to_owned(),
                                line: st.line,
                                rule: "R4",
                                message: format!(
                                    "`{own}` references itself by crate name; use \
                                     `crate::` paths inside the crate"
                                ),
                            });
                        }
                    }
                }
            }
            Tok::Punct('[') if r3_applies && !is_test(i) && indexes_expression(toks, i) => {
                out.push(Diagnostic {
                    file: rel_path.to_owned(),
                    line: st.line,
                    rule: "R3",
                    message: "slice indexing in the panic-free zone; use .get()/\
                              .get_mut() (or justify with lint:allow)"
                        .to_owned(),
                });
            }
            _ => {}
        }
    }

    out.retain(|d| !tf.allowed(d.line));
    out
}

/// Heuristic: a `[` indexes an expression iff the previous token can end
/// an expression — a non-keyword identifier, a numeric literal, `)`, `]`,
/// or `?`. Attributes (`#[`), array literals/types, macro calls (`vec![`)
/// and patterns all have different predecessors.
fn indexes_expression(toks: &[SpannedTok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    match &prev.tok {
        Tok::Ident(id) => !NON_INDEX_KEYWORDS.contains(&id.as_str()),
        Tok::Num => true,
        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
        _ => false,
    }
}

/// Bin targets are separate crates that legitimately import the sibling
/// library by its crate name.
fn is_bin_target(path: &str) -> bool {
    path.contains("/bin/") || path.ends_with("/main.rs")
}

fn prev_is_ident(toks: &[SpannedTok], i: usize, names: &[&str]) -> bool {
    i.checked_sub(1)
        .and_then(|p| toks.get(p))
        .is_some_and(|t| matches!(&t.tok, Tok::Ident(id) if names.contains(&id.as_str())))
}

fn prev_is(toks: &[SpannedTok], i: usize, c: char) -> bool {
    i.checked_sub(1)
        .and_then(|p| toks.get(p))
        .is_some_and(|t| t.tok == Tok::Punct(c))
}

fn next_is(toks: &[SpannedTok], i: usize, c: char) -> bool {
    toks.get(i + 1).is_some_and(|t| t.tok == Tok::Punct(c))
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        check_source(path, src)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    /// Every file an allow-list names exists, so no exemption outlives the
    /// file it was made for.
    #[test]
    fn allow_lists_name_existing_files() {
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate::workspace::find_workspace_root(here).expect("workspace root");
        let ops = IO_OPERATOR_FILES
            .iter()
            .chain(CHECKPOINT_FILES)
            .map(|f| format!("crates/core/src/ops/{f}"));
        for file in ops.chain([UNSAFE_FILE, COST_FILE].map(str::to_owned)) {
            assert!(
                root.join(&file).is_file(),
                "{file} is named by an allow-list but does not exist"
            );
        }
    }

    /// Every identifier the vocabulary rules hunt for is still defined in
    /// the workspace's non-test code (an item, a `pub` field or a crate),
    /// so no rule outlives the API it confines.
    #[test]
    fn watched_identifiers_are_defined() {
        const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "mod", "const"];
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate::workspace::find_workspace_root(here).expect("workspace root");
        let mut defined = std::collections::BTreeSet::new();
        for rel in crate::workspace::source_files(&root) {
            let rel = rel.to_string_lossy().replace('\\', "/");
            let Some(krate) = crate_of_path(&rel) else {
                continue;
            };
            if rel.starts_with("crates/lint/") || rel.split('/').any(|d| d == "tests") {
                continue;
            }
            defined.insert(krate.replace('-', "_"));
            let src = std::fs::read_to_string(root.join(&rel)).expect("readable source");
            let toks = tokenize(&src).tokens;
            let in_test = test_regions(&toks);
            for (i, w) in toks.windows(3).enumerate() {
                let (Tok::Ident(a), Tok::Ident(b)) = (&w[0].tok, &w[1].tok) else {
                    continue;
                };
                let field = a == "pub" && w[2].tok == Tok::Punct(':');
                if !in_test[i] && (ITEM_KEYWORDS.contains(&a.as_str()) || field) {
                    defined.insert(b.clone());
                }
            }
        }
        for id in GOVERNOR_IDENTS.iter().chain(FAULT_IDENTS).chain(IO_IDENTS) {
            assert!(
                defined.contains(*id),
                "`{id}` is watched by a lint rule but defined nowhere"
            );
        }
    }

    #[test]
    fn indexing_heuristic_negatives() {
        // Attributes, array literals, slice types, macros, patterns: none
        // of these are indexing.
        let src = r#"
            #[derive(Debug)]
            struct S { a: [u8; 4] }
            fn f(x: &[u8]) -> Vec<u8> {
                let [p, q] = [1u8, 2];
                let v = vec![p, q];
                v
            }
        "#;
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).is_empty());
    }

    #[test]
    fn indexing_heuristic_positives() {
        let cases = [
            "fn f(v: &[u8], i: usize) -> u8 { v[i] }",
            "fn f(v: &Vec<u8>) -> &[u8] { &v[1..] }",
            "fn g(m: &M) -> u8 { m.rows[0] }",
            "fn h(v: &V) -> u8 { (v.inner())[2] }",
        ];
        for src in cases {
            assert_eq!(
                rules_of("crates/core/src/ops/xstep.rs", src),
                vec!["R3"],
                "{src}"
            );
        }
    }

    #[test]
    fn lint_allow_suppresses() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // lint:allow(bounds checked above)\n    v[0]\n}";
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).is_empty());
    }

    #[test]
    fn miss_path_is_panic_free_zone() {
        for path in [
            "crates/storage/src/slotted.rs",
            "crates/tree/src/node.rs",
            "crates/tree/src/store.rs",
        ] {
            assert!(rules_of(path, "fn f() { x.unwrap(); }").contains(&"R3"));
            assert!(rules_of(path, "fn f(v: &[u8]) -> u8 { v[0] }").contains(&"R3"));
        }
    }

    #[test]
    fn test_code_is_exempt_from_r3() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}";
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).is_empty());
        // …but the same code in a tests/ directory is exempt too.
        assert!(rules_of("crates/core/src/ops/xstep.rs", "fn f() { x.unwrap(); }").contains(&"R3"));
    }

    #[test]
    fn concurrency_confinement() {
        let src = "use std::thread;\nfn f() { thread::spawn(|| {}); }";
        // Operator hot path: flagged (twice: the use and the call).
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).contains(&"R5"));
        // Atomics are matched by prefix.
        assert_eq!(
            rules_of(
                "crates/xpath/src/parse.rs",
                "use std::sync::atomic::AtomicU64;"
            ),
            vec!["R5"]
        );
        // The rest of the storage layer is outside the zone.
        let lock = "use std::sync::Mutex;";
        assert!(rules_of("crates/storage/src/buffer.rs", lock).contains(&"R5"));
        // The concurrency zone and tests are allowed.
        assert!(rules_of("crates/storage/src/shared_cache.rs", src).is_empty());
        assert!(rules_of("crates/core/src/batch.rs", src).is_empty());
        assert!(rules_of("crates/core/tests/t.rs", src).is_empty());
        // The governor holds no shared state.
        assert!(rules_of("crates/core/src/governor.rs", src).contains(&"R5"));
        // The bench harness runs batches through the facade: no threads.
        assert!(rules_of("crates/bench/src/overload.rs", src).contains(&"R5"));
    }

    #[test]
    fn governor_api_confinement() {
        let src = "use crate::governor::QueryBudget;\nfn f(b: &QueryBudget) {}";
        // Operators, the tree layer, and storage must not name budgets.
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).contains(&"R7"));
        assert!(rules_of("crates/tree/src/store.rs", src).contains(&"R7"));
        assert!(rules_of("crates/storage/src/buffer.rs", src).contains(&"R7"));
        // The governor zone and tests are allowed.
        assert!(!rules_of("crates/core/src/governor.rs", src).contains(&"R7"));
        assert!(!rules_of("crates/core/src/context.rs", src).contains(&"R7"));
        assert!(!rules_of("crates/core/src/batch.rs", src).contains(&"R7"));
        assert!(!rules_of("src/db.rs", src).contains(&"R7"));
        assert!(!rules_of("crates/bench/src/overload.rs", src).contains(&"R7"));
        assert!(!rules_of("tests/governor_chaos.rs", src).contains(&"R7"));
    }

    #[test]
    fn interrupt_gate_only_at_checkpoints() {
        let src = "fn f(cx: &C) { if cx.store.interrupted() { return; } }";
        // Declared checkpoint operators may consult the gate…
        assert!(!rules_of("crates/core/src/ops/xschedule.rs", src).contains(&"R7"));
        assert!(!rules_of("crates/core/src/ops/xstep.rs", src).contains(&"R7"));
        // …other operators may not.
        assert!(rules_of("crates/core/src/ops/stack.rs", src).contains(&"R7"));
        // Outside ops/ the checkpoint rule does not apply.
        assert!(!rules_of("crates/core/src/plan.rs", src).contains(&"R7"));
    }

    #[test]
    fn deadline_logic_is_sim_time_only() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }";
        assert!(rules_of("crates/core/src/governor.rs", src).contains(&"R7"));
        // Elsewhere wall clocks are R2's business, not R7's.
        assert!(!rules_of("crates/core/src/plan.rs", src).contains(&"R7"));
    }

    #[test]
    fn fault_api_confinement() {
        let src = "use pathix_storage::FaultPlan;\nfn f() { let _ = FaultPlan::none(); }";
        // Operators and the tree layer must not name the fault API.
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).contains(&"R6"));
        assert!(rules_of("crates/tree/src/store.rs", src).contains(&"R6"));
        // The fault zone and tests are allowed.
        assert!(!rules_of("crates/storage/src/fault.rs", src).contains(&"R6"));
        assert!(!rules_of("src/db.rs", src).contains(&"R6"));
        assert!(!rules_of("src/lib.rs", src).contains(&"R6"));
        assert!(!rules_of("crates/bench/src/chaos.rs", src).contains(&"R6"));
        assert!(!rules_of("tests/fault_injection.rs", src).contains(&"R6"));
    }

    #[test]
    fn io_error_construction_confinement() {
        let build = "fn f() -> IoError { IoError { page: 0, attempts: 1 } }";
        let diags = rules_of("crates/core/src/batch.rs", build);
        // Exactly one R6: the literal, not the return type.
        assert_eq!(diags.iter().filter(|r| **r == "R6").count(), 1);
        // The storage layer constructs freely; consumers may name the type.
        assert!(!rules_of("crates/storage/src/buffer.rs", build).contains(&"R6"));
        let consume = "fn f(e: IoError) -> u32 { e.page }";
        assert!(!rules_of("crates/core/src/batch.rs", consume).contains(&"R6"));
    }

    #[test]
    fn operators_have_no_error_channel() {
        let src = "fn f() -> ExecError { ExecError::Io { page: 0, attempts: 1 } }";
        assert!(rules_of("crates/core/src/ops/xscan.rs", src).contains(&"R6"));
        // Executors outside ops/ own the error channel.
        assert!(!rules_of("crates/core/src/exec.rs", src).contains(&"R6"));
    }

    #[test]
    fn checked_fix_is_io() {
        let src = "fn f(cx: &C) { let _ = cx.store.checked_fix(p); }";
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).contains(&"R1"));
        assert!(!rules_of("crates/core/src/ops/xscan.rs", src).contains(&"R1"));
    }

    #[test]
    fn unsafe_only_in_checksum() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(rules_of("crates/storage/src/buffer.rs", src), vec!["R8"]);
        assert_eq!(rules_of("src/db.rs", "unsafe fn f() {}"), vec!["R8"]);
        assert!(rules_of("crates/storage/src/checksum.rs", src).is_empty());
        // Tests, and the word in comments, strings or `unsafe_code`, are not code.
        let prose = "#![deny(unsafe_code)]\n// unsafe\nconst S: &str = \"unsafe\";";
        assert!(rules_of("crates/core/src/plan.rs", prose).is_empty());
        assert!(rules_of("tests/t.rs", src).is_empty());
    }

    #[test]
    fn layering_direction() {
        // Downward reference: fine.
        assert!(rules_of("crates/core/src/plan.rs", "use pathix_tree::NodeId;").is_empty());
        // Upward reference: flagged.
        assert_eq!(
            rules_of("crates/xml/src/lib.rs", "use pathix_tree::NodeId;"),
            vec!["R4"]
        );
        // Integration tests may name their own crate.
        assert!(rules_of("crates/tree/tests/t.rs", "use pathix_tree::NodeId;").is_empty());
    }
}
