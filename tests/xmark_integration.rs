//! End-to-end checks on an XMark-shaped document: the generator's corpus
//! statistics agree with what the engine counts, and the facade prices a
//! query with the optimizer. That every plan answers the benchmark queries
//! as the reference evaluator does is `tests/oracle.rs`'s XMark case.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

mod support;

use pathix::{Database, Method};
use pathix_xpath::parse_query;
use support::{doc, mem_opts};

#[test]
fn generated_corpus_statistics_are_sane() {
    let s = pathix_xmlgen::summarize(doc());
    // Every closed auction and item carries a description.
    assert!(s.descriptions >= s.items + s.closed_auctions);
    let db = Database::from_document(doc(), &mem_opts()).unwrap();
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
    let opts = mem_opts();
    let db = Database::from_document(doc(), &opts).unwrap();
    for q in [
        "count(/site/regions//item)",
        "count(/site//description)+count(/site//annotation)+count(/site//email)",
        "/site/closed_auctions/closed_auction/annotation/description/parlist\
         /listitem/parlist/listitem/text/emph/keyword",
        "count(/site/people/person/email)",
        "count(//keyword)",
    ] {
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
