//! Reproduces the paper's Example 1 (Fig. 1): the *physical page access
//! order* of each plan on a fragmented document, and what it costs.
//!
//! The Simple plan follows the logical tree and bounces across the platter;
//! XSchedule hands batches of requests to the device, which serves them
//! shortest-seek-first; XScan reads pages 0,1,2,… once.
//!
//! ```text
//! cargo run --release --example io_trace
//! ```

// Demo binaries print to stdout and unwrap for brevity.
#![allow(clippy::unwrap_used, clippy::print_stdout)]

use pathix::{Database, DatabaseOptions, Method};
use pathix_tree::Placement;

fn main() {
    let opts = DatabaseOptions {
        page_size: 2048,
        buffer_pages: 4,
        placement: Placement::ChunkShuffled { chunk: 1, seed: 7 },
        ..Default::default()
    };
    let db = Database::from_xmark(0.01, &opts).expect("import");
    db.trace_device(true);
    println!(
        "document: {} pages, shuffled placement, 4-page buffer\n",
        db.pages()
    );

    for method in [Method::Simple, Method::xschedule(), Method::XScan] {
        db.clear_buffers();
        db.reset_device_stats();
        let run = db.run("count(//item)", method).expect("query");
        let trace = db.device_trace();
        println!("{} — {} device reads:", method.label(), trace.len());
        let mut line = String::from("  ");
        for (i, p) in trace.iter().enumerate() {
            if i > 0 {
                line.push_str(" → ");
            }
            line.push_str(&p.to_string());
            if line.len() > 72 {
                println!("{line}");
                line = String::from("  ");
            }
        }
        if line.trim().is_empty() {
            // nothing left to flush
        } else {
            println!("{line}");
        }
        println!(
            "  total seek distance: {} pages, simulated time {:.2} ms\n",
            run.report.device.seek_distance_pages,
            run.report.total_secs() * 1e3,
        );
    }
}
