//! End-to-end checks on XMark-shaped documents: the benchmark queries give
//! identical answers across every physical plan, placements don't change
//! results, and answers match the in-memory reference evaluator.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::storage::DiskProfile;
use pathix::{Database, DatabaseOptions, Method, PlanConfig};
use pathix_tree::Placement;
use pathix_xpath::{eval_query, parse_query};

const QUERIES: [&str; 5] = [
    "count(/site/regions//item)",
    "count(/site//description)+count(/site//annotation)+count(/site//email)",
    "/site/closed_auctions/closed_auction/annotation/description/parlist\
     /listitem/parlist/listitem/text/emph/keyword",
    "count(/site/people/person/email)",
    "count(//keyword)",
];

fn opts(placement: Placement) -> DatabaseOptions {
    DatabaseOptions {
        page_size: 2048,
        placement,
        buffer_pages: 32,
        profile: DiskProfile::instant(),
    }
}

#[test]
fn all_queries_all_methods_match_reference() {
    let scale = 0.05;
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(scale));
    let db = Database::from_document(&doc, &opts(Placement::ChunkShuffled { chunk: 4, seed: 3 }))
        .unwrap();
    for q in QUERIES {
        let want = eval_query(&doc, doc.root(), &parse_query(q).unwrap().rooted()).as_number();
        for method in [
            Method::Simple,
            Method::xschedule(),
            Method::XSchedule {
                k: 7,
                speculative: true,
            },
            Method::XScan,
        ] {
            let got = db.run(q, method).unwrap().value;
            assert_eq!(got, want, "query {q} via {method:?}");
        }
    }
}

#[test]
fn placement_does_not_change_answers() {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.03));
    let mut answers: Vec<Vec<u64>> = Vec::new();
    for placement in [
        Placement::Sequential,
        Placement::Shuffled { seed: 1 },
        Placement::Strided { stride: 5 },
        Placement::ChunkShuffled { chunk: 3, seed: 9 },
    ] {
        let db = Database::from_document(&doc, &opts(placement)).unwrap();
        let row: Vec<u64> = QUERIES
            .iter()
            .map(|q| db.run(q, Method::XScan).unwrap().value)
            .collect();
        answers.push(row);
    }
    for row in &answers[1..] {
        assert_eq!(row, &answers[0]);
    }
}

#[test]
fn page_size_does_not_change_answers() {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.03));
    let mut last: Option<Vec<u64>> = None;
    for page_size in [2048usize, 4096, 8192, 1 << 16] {
        let mut o = opts(Placement::Shuffled { seed: 4 });
        o.page_size = page_size;
        let db = Database::from_document(&doc, &o).unwrap();
        let row: Vec<u64> = QUERIES
            .iter()
            .map(|q| db.run(q, Method::xschedule()).unwrap().value)
            .collect();
        if let Some(prev) = &last {
            assert_eq!(&row, prev, "page size {page_size}");
        }
        last = Some(row);
    }
}

#[test]
fn document_order_is_stable_across_plans() {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.03));
    let db = Database::from_document(&doc, &opts(Placement::Shuffled { seed: 11 })).unwrap();
    let mut cfg = PlanConfig::new(Method::XScan);
    cfg.sort = true;
    let scan = db.run("/site/regions//item/name", cfg).unwrap();
    let mut cfg2 = PlanConfig::new(Method::Simple);
    cfg2.sort = true;
    let simple = db.run("/site/regions//item/name", cfg2).unwrap();
    assert_eq!(scan.nodes, simple.nodes);
    // Orders strictly increase — document order, duplicate free.
    assert!(scan.nodes.windows(2).all(|w| w[0].1 < w[1].1));
}

#[test]
fn generated_corpus_statistics_are_sane() {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.1));
    let s = pathix_xmlgen::summarize(&doc);
    // Every closed auction and item carries a description.
    assert!(s.descriptions >= s.items + s.closed_auctions);
    let db = Database::from_document(&doc, &opts(Placement::Sequential)).unwrap();
    let items = db.run("count(/site/regions//item)", Method::XScan).unwrap();
    assert_eq!(items.value as usize, s.items);
    let emails = db.run("count(/site//email)", Method::XScan).unwrap();
    assert_eq!(emails.value as usize, s.emails);
}

/// `pathix explain` and the worker pool's longest-first ranking price a
/// path with the same estimator: the facade's estimate is the optimizer's
/// over the stored metadata, with no calibration of its own.
#[test]
fn database_estimate_is_the_optimizers() {
    let opts = opts(Placement::Sequential);
    let db = Database::from_xmark(0.05, &opts).unwrap();
    for q in QUERIES {
        let path = parse_query(q).unwrap().rooted().paths()[0].clone();
        let own = pathix::core::Optimizer::new(&db.store().meta, opts.profile).estimate(&path);
        let facade = db.estimate(q).unwrap();
        assert_eq!(facade, own, "{q}");
        assert_eq!(
            facade.cpu_ns(Method::XScan),
            own.cpu_ns(Method::XScan),
            "{q}"
        );
    }
}
