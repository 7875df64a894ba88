//! The differential oracle (DESIGN.md §6, invariant 1): every execution
//! path returns exactly the reference evaluator's answer, in document
//! order, whatever the document, path, placement, page size, buffer size,
//! queue policy or worker count.
//!
//! A case is a store and a list of location paths. Random cases draw a
//! tree of up to 120 nodes, one path of 1–3 steps over every axis and node
//! test, and the store's physical parameters; their paths are *unrooted*,
//! so core's entry points run them as drawn (the facade would root them).
//! The fixed XMark case runs the paths of the paper's Tab. 2 queries and of
//! the batch corpora at once. [`check`] runs a case through every execution
//! path:
//!
//! * each single plan: Simple, XSchedule with `k = 3`, speculative
//!   XSchedule with `k = 100`, and XScan;
//! * §5.4.6 fallback of XScan and of speculative XSchedule, at `mem_limit`
//!   0 and at a limit inside `1..s_peak` of their unlimited run;
//! * one interleaved batch holding every method for every path, plus a
//!   second XScan reader of the one shared scan;
//! * the worker pool over a shared page cache, at each worker count given;
//! * the governed pool at two workers with unlimited budgets.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

mod support;

use pathix::core::plan::execute_path;
use pathix::core::{
    execute_batch_governed, execute_batch_parallel, execute_interleaved, execute_query,
    AdmissionConfig, BatchRun, Method, PathRun, PlanConfig, QueryBudget,
};
use pathix::storage::{DiskProfile, QueuePolicy};
use pathix::tree::Placement;
use pathix::xml::Document;
use pathix::xpath::{eval_query, parse_path, parse_query, Axis, LocationPath, NodeTest, Step};
use pathix::{Database, DatabaseOptions};
use proptest::prelude::*;
use support::{cached_seeds, keys, plain_seeds, reference, sorted};

/// The single plans, each of which every path runs alone and in every batch.
const METHODS: [Method; 4] = [
    Method::Simple,
    Method::XSchedule {
        k: 3,
        speculative: false,
    },
    Method::XSchedule {
        k: 100,
        speculative: true,
    },
    Method::XScan,
];

/// Holds each run of `batch`, one per item of `work`, to the reference
/// answer of its path in `want`.
fn check_batch(
    label: &str,
    batch: &BatchRun,
    work: &[(LocationPath, Method)],
    want: &[(LocationPath, Vec<u64>)],
) -> Result<(), String> {
    prop_assert_eq!(batch.runs.len(), work.len(), "{}", label);
    for (run, (path, method)) in batch.runs.iter().zip(work) {
        let run = run
            .as_ref()
            .map_err(|e| format!("{label} {method:?} {path}: {e:?}"))?;
        let (_, want) = want.iter().find(|(p, _)| p == path).unwrap();
        prop_assert_eq!(
            &keys(&run.nodes),
            want,
            "{} {:?} on {}",
            label,
            method,
            path
        );
    }
    Ok(())
}

/// Runs `path` from a cold buffer and a parked head, so a run with a
/// `mem_limit` repeats the unlimited run up to where `S` outgrows it.
fn cold_run(db: &Database, path: &LocationPath, cfg: &PlanConfig) -> Result<PathRun, String> {
    db.clear_buffers();
    db.store().buffer.device_mut().park();
    execute_path(db.store(), path, cfg).map_err(|e| format!("{e:?}"))
}

/// Runs every path of `want` through every execution path on `db` and
/// holds each answer to its reference keys. `limit_sel` picks the
/// mid-query fallback limit; `pool` lists the worker counts of the pool.
fn check(
    db: &Database,
    want: &[(LocationPath, Vec<u64>)],
    limit_sel: u64,
    pool: &[usize],
) -> Result<(), String> {
    for (path, want) in want {
        for method in METHODS {
            let mut cfg = sorted(method);
            let run = cold_run(db, path, &cfg)?;
            prop_assert_eq!(&keys(&run.nodes), want, "{:?} on {}", method, path);
            let falls_back = match method {
                Method::XScan => true,
                Method::XSchedule { speculative, .. } => speculative,
                Method::Simple => false,
            };
            if !falls_back {
                continue;
            }
            // At the first S insert, then (when S ever holds two
            // instances) mid-query, over an S that may already have fired.
            let s_peak = run.report.s_peak;
            let mut limits = vec![0];
            if s_peak > 1 {
                limits.push(1 + limit_sel % (s_peak - 1));
            }
            for limit in limits {
                cfg.mem_limit = Some(limit as usize);
                let run = cold_run(db, path, &cfg)?;
                prop_assert!(
                    run.report.fallback || run.report.s_peak == 0,
                    "{:?} at S limit {} peaked at {} of {} without falling back on {}",
                    method,
                    limit,
                    run.report.s_peak,
                    s_peak,
                    path
                );
                prop_assert_eq!(
                    &keys(&run.nodes),
                    want,
                    "{:?} in fallback at S limit {} on {}",
                    method,
                    limit,
                    path
                );
            }
        }
    }

    // Every path under every method, as one batch.
    let work: Vec<(LocationPath, Method)> = want
        .iter()
        .flat_map(|(p, _)| METHODS.map(|m| (p.clone(), m)))
        .collect();
    let cfg = sorted(Method::Simple);

    let mut shared = work.clone();
    shared.push((want[0].0.clone(), Method::XScan));
    let batch = execute_interleaved(db.store(), &shared, &cfg).map_err(|e| format!("{e:?}"))?;
    check_batch("interleaved", &batch, &shared, want)?;

    for &workers in pool {
        let batch = execute_batch_parallel(cached_seeds(db, workers), &work, &cfg);
        check_batch(&format!("pool of {workers}"), &batch, &work, want)?;
    }

    let budgets = vec![QueryBudget::unlimited(); work.len()];
    let admission = AdmissionConfig::unlimited();
    let batch = execute_batch_governed(plain_seeds(db, 2), &work, &cfg, &budgets, &admission);
    check_batch("governed", &batch, &work, want)?;
    prop_assert!(batch.runs.iter().flatten().all(|r| !r.report.degraded));
    prop_assert_eq!(batch.governor.admitted as usize, work.len());
    prop_assert_eq!(batch.governor.shed, 0);
    prop_assert_eq!(batch.governor.degraded, 0);
    prop_assert_eq!(batch.governor.deadline_aborted, 0);
    Ok(())
}

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

/// Builds a tree from `(parent selector, kind)` pairs: each node attaches
/// to an element created before it, so every tree shape is reachable, and
/// is a text for kind 4, else an element named `TAGS[kind]`.
fn build_doc(nodes: &[(usize, u8)]) -> Document {
    let mut doc = Document::new("root");
    let mut elements = vec![doc.root()];
    for (i, &(psel, kind)) in nodes.iter().enumerate() {
        let parent = elements[psel % elements.len()];
        if kind == 4 {
            doc.add_text(parent, &format!("text {i}"));
        } else {
            elements.push(doc.add_element(parent, TAGS[kind as usize]));
        }
    }
    doc
}

fn path_strategy() -> impl Strategy<Value = LocationPath> {
    let test = prop_oneof![
        prop::sample::select(TAGS.to_vec()).prop_map(|t| NodeTest::Name(t.into())),
        Just(NodeTest::AnyElement),
        Just(NodeTest::AnyNode),
        Just(NodeTest::Text),
    ];
    let step = (prop::sample::select(Axis::ALL.to_vec()), test).prop_map(|(a, t)| Step::new(a, t));
    prop::collection::vec(step, 1..4).prop_map(LocationPath::new)
}

fn placement_strategy() -> impl Strategy<Value = Placement> {
    prop_oneof![
        Just(Placement::Sequential),
        (1usize..9, any::<u64>())
            .prop_map(|(chunk, seed)| Placement::ChunkShuffled { chunk, seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(48),
        .. ProptestConfig::default()
    })]

    /// Random documents, paths and stores: every execution path answers as
    /// the reference evaluator does, and the store exports the document it
    /// imported.
    #[test]
    fn random_cases_match_the_evaluator(
        nodes in prop::collection::vec((any::<usize>(), 0u8..5), 0..120),
        path in path_strategy(),
        placement in placement_strategy(),
        page_size in prop::sample::select(vec![256usize, 512, 2048]),
        buffer_pages in prop::sample::select(vec![1usize, 4, 16, 4096]),
        policy in prop::sample::select(vec![QueuePolicy::Fifo, QueuePolicy::ShortestSeekFirst]),
        window in prop::sample::select(vec![1usize, 4, 0]),
        limit_sel in any::<u64>(),
    ) {
        let doc = build_doc(&nodes);
        // `window` queued reads are visible to the policy (0 = all).
        let profile = DiskProfile { policy, queue_depth: window, ..DiskProfile::instant() };
        let opts = DatabaseOptions { page_size, placement, buffer_pages, profile };
        let db = Database::from_document(&doc, &opts).expect("import");
        prop_assert!(doc.logically_equal(&db.export()), "export of {:?}", opts);
        let want = [(path.clone(), reference(&doc, &path))];
        check(&db, &want, limit_sel, &[1, 3])
            .map_err(|e| format!("{e}\n  on {path} with {opts:?}"))?;
    }
}

/// The paper's Tab. 2 queries (Q6', Q7, Q15).
const TAB2: [&str; 3] = [
    "count(/site/regions//item)",
    "count(/site//description)+count(/site//annotation)+count(/site//email)",
    "/site/closed_auctions/closed_auction/annotation/description/parlist\
     /listitem/parlist/listitem/text/emph/keyword",
];

/// The batch corpora's paths beyond Tab. 2's (each path once), a few
/// sideways and upward
/// axes, and a leading `descendant-or-self::node()` that no child step
/// follows, which arms XScan's §5.4.5.4 shortcut where `//keyword`
/// collapses into one `descendant` step.
const PATHS: [&str; 8] = [
    "/site/people//email",
    "/site/open_auctions//description",
    "/site/closed_auctions//annotation",
    "//keyword",
    "/descendant-or-self::node()/descendant::keyword",
    "//keyword/ancestor-or-self::listitem",
    "/site/people/person/following-sibling::person",
    "//listitem/parent::parlist",
];

/// The fixed XMark case, with the pool also at eight workers and at more
/// workers than items; and each Tab. 2 query's value from each plan.
#[test]
fn xmark_corpus_matches_the_evaluator() {
    let doc = support::doc();
    let db = Database::from_document(
        doc,
        &DatabaseOptions {
            placement: Placement::ChunkShuffled { chunk: 1, seed: 3 },
            ..support::mem_opts()
        },
    )
    .unwrap();
    let tab2 = TAB2.map(|q| parse_query(q).unwrap().rooted());
    let paths = PATHS.iter().map(|p| parse_path(p).unwrap().rooted());
    let want: Vec<_> = tab2
        .iter()
        .flat_map(|q| q.paths())
        .cloned()
        .chain(paths)
        .map(|path| {
            let keys = reference(doc, &path);
            assert!(!keys.is_empty(), "{path} matches nothing");
            (path, keys)
        })
        .collect();
    let items = want.len() * METHODS.len();
    check(&db, &want, 7, &[8, items + 1]).unwrap();

    for q in &tab2 {
        let value = eval_query(doc, doc.root(), q).as_number();
        for method in METHODS {
            let run = execute_query(db.store(), q, &sorted(method)).unwrap();
            assert_eq!(run.value, value, "{q:?} via {method:?}");
        }
    }
}
