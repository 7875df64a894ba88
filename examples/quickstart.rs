//! Quickstart: store a small document, run one query with all three
//! physical plans, and look at the cost reports.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

// Demo binaries print to stdout and unwrap for brevity.
#![allow(clippy::unwrap_used, clippy::print_stdout)]

use pathix::{Database, DatabaseOptions, Method};
use pathix_tree::Placement;

fn main() {
    // A hand-written document — any XML works.
    let xml = r#"
        <library>
            <shelf topic="databases">
                <book year="2005"><title>Cost-Sensitive Reordering</title></book>
                <book year="1993"><title>Query Evaluation Techniques</title></book>
            </shelf>
            <shelf topic="novels">
                <book year="1851"><title>Moby-Dick</title></book>
            </shelf>
        </library>"#;

    // Small pages + fragmented placement, so even this tiny document spans
    // several clusters and the physical differences become visible.
    let opts = DatabaseOptions {
        page_size: 256,
        buffer_pages: 4,
        placement: Placement::Shuffled { seed: 42 },
        ..Default::default()
    };
    let db = Database::from_xml(xml, &opts).expect("import");
    println!(
        "stored: {} pages, {} border edges\n",
        db.pages(),
        db.import_report().border_edges
    );

    let query = "count(//book)";
    for method in [Method::Simple, Method::xschedule(), Method::XScan] {
        db.clear_buffers();
        db.reset_device_stats();
        let run = db.run(query, method).expect("query");
        println!("{query} = {} via {}", run.value, method.label());
        println!("{}\n", run.report);
    }

    // A bare path runs through the same `run`; a full plan configuration
    // with `sort` returns its nodes in document order.
    let mut cfg = pathix::PlanConfig::new(Method::xschedule());
    cfg.sort = true;
    let titles = db.run("//title", cfg).expect("path");
    println!(
        "//title matched {} nodes (in document order)",
        titles.nodes.len()
    );
}
