//! CLI entry point: `cargo run -p pathix-lint -- check [ROOT]`.

// Stdout is this binary's output channel.
#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    if cmd != "check" {
        eprintln!("usage: pathix-lint check [WORKSPACE_ROOT]");
        eprintln!();
        eprintln!("Statically checks the pathix workspace against the R1-R9");
        eprintln!("architectural invariants (see crates/lint/src/lib.rs).");
        return ExitCode::from(2);
    }
    let root = match args.next() {
        Some(p) => {
            let root = PathBuf::from(p);
            // A missing or workspace-less root must fail loudly: walking
            // zero files would otherwise report a clean workspace.
            let manifest = root.join("Cargo.toml");
            let is_workspace = std::fs::read_to_string(&manifest)
                .map(|t| t.contains("[workspace]"))
                .unwrap_or(false);
            if !is_workspace {
                eprintln!(
                    "pathix-lint: {} is not a workspace root (no Cargo.toml with [workspace])",
                    root.display()
                );
                return ExitCode::from(2);
            }
            root
        }
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match pathix_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "pathix-lint: no workspace root found above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let diags = pathix_lint::check_workspace(&root);
    if diags.is_empty() {
        println!("pathix-lint: workspace clean (R1-R9 hold)");
        ExitCode::SUCCESS
    } else {
        for d in &diags {
            println!("{d}");
        }
        eprintln!("pathix-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
