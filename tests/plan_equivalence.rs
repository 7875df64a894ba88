//! The central correctness property (DESIGN.md invariant 1): for arbitrary
//! documents, arbitrary supported location paths, and arbitrary physical
//! layouts, every physical plan — Simple, XSchedule (±speculative), XScan,
//! and fallback-forced variants (at the first `S` insert or mid-query) —
//! produces exactly the node set of the in-memory reference evaluator, in
//! document order.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::storage::DiskProfile;
use pathix::{Database, DatabaseOptions, Method, PlanConfig};
use pathix_tree::Placement;
use pathix_xml::Document;
use pathix_xpath::{Axis, LocationPath, NodeTest, Step};
use proptest::prelude::*;

/// Arbitrary tree: node `i` (1-based) attaches to a parent chosen among the
/// already-created nodes, making every tree shape reachable.
#[derive(Debug, Clone)]
struct TreeSpec {
    nodes: Vec<(usize, u8)>, // (parent selector, kind: 0..4 tags, 4 = text)
}

fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = TreeSpec> {
    prop::collection::vec((any::<usize>(), 0u8..5), 0..max_nodes)
        .prop_map(|nodes| TreeSpec { nodes })
}

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

fn build_doc(spec: &TreeSpec) -> Document {
    let mut doc = Document::new("root");
    let mut elements = vec![doc.root()];
    for (i, &(psel, kind)) in spec.nodes.iter().enumerate() {
        let parent = elements[psel % elements.len()];
        if kind == 4 {
            doc.add_text(parent, &format!("text {i}"));
        } else {
            let el = doc.add_element(parent, TAGS[kind as usize]);
            elements.push(el);
        }
    }
    doc
}

fn axis_strategy() -> impl Strategy<Value = Axis> {
    prop::sample::select(Axis::ALL.to_vec())
}

fn test_strategy() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        prop::sample::select(TAGS.to_vec()).prop_map(|t| NodeTest::Name(t.into())),
        Just(NodeTest::AnyElement),
        Just(NodeTest::AnyNode),
        Just(NodeTest::Text),
    ]
}

fn path_strategy() -> impl Strategy<Value = LocationPath> {
    prop::collection::vec(
        (axis_strategy(), test_strategy()).prop_map(|(a, t)| Step::new(a, t)),
        1..4,
    )
    .prop_map(LocationPath::new)
}

fn placement_strategy() -> impl Strategy<Value = Placement> {
    prop_oneof![
        Just(Placement::Sequential),
        any::<u64>().prop_map(|seed| Placement::Shuffled { seed }),
        (2usize..6).prop_map(|stride| Placement::Strided { stride }),
        (2usize..8, any::<u64>())
            .prop_map(|(chunk, seed)| Placement::ChunkShuffled { chunk, seed }),
    ]
}

fn reference_orders(doc: &Document, path: &LocationPath) -> Vec<u64> {
    let ranks = doc.preorder_ranks();
    pathix_xpath::eval_path(doc, doc.root(), path)
        .iter()
        .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
        .collect()
}

fn run_orders(db: &Database, path: &LocationPath, cfg: &PlanConfig) -> Vec<u64> {
    let run = pathix_core::plan::execute_path(db.store(), path, cfg).expect("plan executes");
    run.nodes.iter().map(|&(_, o)| o).collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(48),
        .. ProptestConfig::default()
    })]

    #[test]
    fn all_plans_match_reference(
        spec in tree_strategy(120),
        path in path_strategy(),
        placement in placement_strategy(),
        page_size in prop::sample::select(vec![256usize, 512, 2048]),
    ) {
        let doc = build_doc(&spec);
        let want = reference_orders(&doc, &path);
        let opts = DatabaseOptions {
            page_size,
            placement,
            buffer_pages: 16,
            profile: DiskProfile::instant(),
        };
        let db = Database::from_document(&doc, &opts).expect("import");
        for method in [
            Method::Simple,
            Method::XSchedule { k: 3, speculative: false },
            Method::XSchedule { k: 100, speculative: true },
            Method::XScan,
        ] {
            let mut cfg = PlanConfig::new(method);
            cfg.sort = true;
            let got = run_orders(&db, &path, &cfg);
            prop_assert_eq!(
                &got, &want,
                "plan {:?} diverged on {} ({:?}, page {})",
                method, path, placement, page_size
            );
        }
    }

    #[test]
    fn fallback_plans_match_reference(
        spec in tree_strategy(80),
        path in path_strategy(),
        seed in any::<u64>(),
        limit_sel in any::<u64>(),
    ) {
        let doc = build_doc(&spec);
        let want = reference_orders(&doc, &path);
        let opts = DatabaseOptions {
            page_size: 256,
            placement: Placement::Shuffled { seed },
            buffer_pages: 8,
            profile: DiskProfile::instant(),
        };
        let db = Database::from_document(&doc, &opts).expect("import");
        for method in [Method::XScan, Method::XSchedule { k: 5, speculative: true }] {
            let mut cfg = PlanConfig::new(method);
            cfg.sort = true;
            // Fallback at the first S insert, then (when S ever holds two
            // instances) mid-query, at a limit in 1..s_peak of the
            // unlimited run, over an S that may already have fired.
            let s_peak = pathix_core::plan::execute_path(db.store(), &path, &cfg)
                .expect("plan executes")
                .report
                .s_peak;
            let mut limits = vec![0];
            if s_peak > 1 {
                limits.push(1 + limit_sel % (s_peak - 1));
            }
            for limit in limits {
                cfg.mem_limit = Some(limit as usize);
                let run = pathix_core::plan::execute_path(db.store(), &path, &cfg)
                    .expect("plan executes");
                prop_assert!(run.report.fallback || run.report.s_peak == 0);
                let got: Vec<u64> = run.nodes.iter().map(|&(_, o)| o).collect();
                prop_assert_eq!(
                    &got, &want,
                    "fallback {:?} at S limit {} diverged on {}", method, limit, path
                );
            }
        }
    }

    #[test]
    fn import_export_roundtrip(
        spec in tree_strategy(150),
        placement in placement_strategy(),
    ) {
        let doc = build_doc(&spec);
        let opts = DatabaseOptions {
            page_size: 256,
            placement,
            buffer_pages: 8,
            profile: DiskProfile::instant(),
        };
        let db = Database::from_document(&doc, &opts).expect("import");
        let back = pathix_tree::export::export(db.store());
        prop_assert!(doc.logically_equal(&back));
    }
}
