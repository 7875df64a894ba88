//! The paper's §7 outlook, live: multi-path evaluation with one scan, the
//! cost-model optimizer, concurrent queries sharing the device queue, and
//! scan-based document export.
//!
//! ```text
//! cargo run --release --example advanced [scale]
//! ```

// Demo binaries print to stdout and unwrap for brevity.
#![allow(clippy::unwrap_used, clippy::print_stdout)]

use pathix::{Batch, Database, DatabaseOptions, Method, PlanConfig};
use pathix_tree::Placement;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("numeric scale"))
        .unwrap_or(0.25);
    let opts = DatabaseOptions {
        placement: Placement::ChunkShuffled { chunk: 1, seed: 99 },
        buffer_pages: 100,
        ..Default::default()
    };
    let db = Database::from_xmark(scale, &opts).expect("import");
    println!("document: {} pages (shuffled layout)\n", db.pages());

    // --- E7: three paths, one scan -------------------------------------
    println!("• multiple paths, one I/O operator (Q7 as a single scan):");
    db.clear_buffers();
    db.reset_device_stats();
    let independent = db
        .run(
            "count(/site//description)+count(/site//annotation)+count(/site//email)",
            Method::XScan,
        )
        .expect("query");
    db.clear_buffers();
    db.reset_device_stats();
    let shared = db
        .run_batch(
            &[
                ("/site//description", Method::XScan),
                ("/site//annotation", Method::XScan),
                ("/site//email", Method::XScan),
            ],
            &PlanConfig::new(Method::XScan),
            Batch::Interleaved,
        )
        .expect("shared scan");
    println!(
        "  3 scans: {:>7.3}s / {} reads   1 shared scan: {:>7.3}s / {} reads\n",
        independent.report.total_secs(),
        independent.report.device.reads,
        shared.report.total_secs(),
        shared.report.device.reads,
    );

    // --- E9: the optimizer ---------------------------------------------
    println!("• cost-model choice of the I/O operator:");
    for q in [
        "/site//description",
        "/site/regions//item",
        "/site/closed_auctions/closed_auction/annotation/description/parlist\
               /listitem/parlist/listitem/text/emph/keyword",
    ] {
        let est = db.estimate(q).expect("estimate");
        println!(
            "  {:<28} touched ≈ {:>5.1}%  → {}",
            &q[..q.len().min(28)],
            100.0 * est.touched_fraction,
            est.recommend().label()
        );
    }
    println!();

    // --- E10: concurrent queries ----------------------------------------
    println!("• two concurrent queries on the shared device:");
    for method in [Method::Simple, Method::xschedule()] {
        db.clear_buffers();
        db.reset_device_stats();
        let report = db
            .run_batch(
                &[("/site/regions//item", method), ("/site//email", method)],
                &PlanConfig::new(method),
                Batch::Interleaved,
            )
            .expect("interleaved")
            .report;
        println!(
            "  2 x {:<10} combined {:>8.3}s  seek distance {:>9} pages",
            method.label(),
            report.total_secs(),
            report.device.seek_distance_pages
        );
    }
    println!();

    // --- E8: export -------------------------------------------------------
    println!("• document export:");
    db.clear_buffers();
    let t0 = db.store().clock().breakdown();
    let _doc = db.export();
    let walk = db.store().clock().breakdown().since(&t0).total_secs();
    db.clear_buffers();
    let t0 = db.store().clock().breakdown();
    let _doc = db.export_scan();
    let scan = db.store().clock().breakdown().since(&t0).total_secs();
    println!("  structural walk {walk:>8.3}s   sequential scan {scan:>8.3}s");
}
