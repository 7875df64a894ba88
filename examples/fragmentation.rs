//! How physical fragmentation changes the picture: the same document and
//! query under four placement policies, from freshly-loaded (sequential)
//! to fully shuffled.
//!
//! The paper's premise is that a DBMS cannot rely on friendly layouts
//! ("incremental updates may fragment the physical layout", §1) — this
//! example shows the Simple plan degrading with fragmentation while XScan
//! stays flat and XSchedule degrades much more slowly.
//!
//! ```text
//! cargo run --release --example fragmentation [scale]
//! ```

// Demo binaries print to stdout and unwrap for brevity.
#![allow(clippy::unwrap_used, clippy::print_stdout)]

use pathix::{Database, DatabaseOptions, Method};
use pathix_tree::Placement;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("numeric scale"))
        .unwrap_or(0.25);

    let placements: [(&str, Placement); 4] = [
        ("sequential (fresh load)", Placement::Sequential),
        (
            "chunk-shuffled 16 (lightly aged)",
            Placement::ChunkShuffled { chunk: 16, seed: 1 },
        ),
        (
            "chunk-shuffled 4 (heavily aged)",
            Placement::ChunkShuffled { chunk: 4, seed: 1 },
        ),
        (
            "shuffled (worst case)",
            Placement::ChunkShuffled { chunk: 1, seed: 1 },
        ),
    ];

    println!(
        "{:<34} {:>10} {:>12} {:>10}",
        "placement", "Simple[s]", "XSchedule[s]", "XScan[s]"
    );
    for (label, placement) in placements {
        let opts = DatabaseOptions {
            placement,
            buffer_pages: 100,
            ..Default::default()
        };
        let db = Database::from_xmark(scale, &opts).expect("import");
        let mut times = Vec::new();
        for method in [Method::Simple, Method::xschedule(), Method::XScan] {
            db.clear_buffers();
            db.reset_device_stats();
            let run = db.run("count(/site/regions//item)", method).expect("query");
            times.push(run.report.total_secs());
        }
        println!(
            "{:<34} {:>10.3} {:>12.3} {:>10.3}",
            label, times[0], times[1], times[2]
        );
    }
}
