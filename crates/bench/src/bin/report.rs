//! Regenerates the paper's evaluation and the substrate benchmarks.
//!
//! ```text
//! report [--fast] <name>...
//! names: paper ablations extensions all chaos overload
//! report diff OLD NEW
//! ```
//!
//! `all`, the default, is `paper ablations extensions`. Each name is one
//! [`Artifact`]: `report` prints it, exits 1 if any of its checks does not
//! hold, and otherwise writes `<name>.json` (`PAPER.json`, `ABLATIONS.json`,
//! `EXTENSIONS.json`, `CHAOS.json`, `OVERLOAD.json`). With `--fast`
//! each artifact runs its small configuration and nothing is written. An
//! unknown argument exits 2 with the valid names.
//!
//! `report diff OLD NEW` compares two artifact files cell by cell and
//! prints each cell that moved, appeared or disappeared as
//! `table[row].cell: old → new`. It exits 0 when every cell agrees, 1 when
//! one differs, and 2 when a file cannot be read as an artifact.

// Stdout is this binary's output channel.
#![allow(clippy::print_stdout)]

use pathix_bench::artifact::Artifact;
use pathix_bench::{Entry, REGISTRY};

/// How many [`REGISTRY`] entries `all` runs: the paper's evaluation.
const ALL: usize = 3;

/// Parses the arguments into fast mode and the selected registry entries,
/// in registry order; no name selects `all`.
fn parse(args: &[String]) -> Result<(bool, Vec<&'static Entry>), String> {
    let mut fast = false;
    let mut wanted = [false; REGISTRY.len()];
    for arg in args {
        match arg.as_str() {
            "--fast" => fast = true,
            "all" => wanted[..ALL].fill(true),
            name => match REGISTRY.iter().position(|(n, _)| *n == name) {
                Some(i) => wanted[i] = true,
                None => {
                    let names: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "unknown argument `{name}`; usage: report [--fast] <name>..., \
                         names: all {}",
                        names.join(" ")
                    ));
                }
            },
        }
    }
    if !wanted.contains(&true) {
        wanted[..ALL].fill(true);
    }
    let selected = REGISTRY.iter().zip(wanted).filter(|(_, w)| *w);
    Ok((fast, selected.map(|(entry, _)| entry).collect()))
}

/// Prints `a`, then writes it as `<name>.json` unless `fast`. Returns
/// whether every check held; nothing is written when one does not.
fn report(a: &Artifact, fast: bool) -> bool {
    println!("{}", a.render());
    let failed = a.failed_checks();
    let file = format!("{}.json", a.name);
    if !failed.is_empty() {
        println!("FAILED checks: {} ({file} not written)", failed.join(", "));
    } else if fast {
        println!(
            "all {} checks hold (fast mode: {file} not written)",
            a.checks().len()
        );
    } else {
        std::fs::write(&file, a.to_json()).expect("write artifact");
        println!("all {} checks hold; wrote {file}", a.checks().len());
    }
    failed.is_empty()
}

/// `report diff OLD NEW`: the exit code, after printing the differing
/// cells or the reason a file could not be read.
fn diff(args: &[String]) -> i32 {
    let [old, new] = args else {
        eprintln!("report: usage: report diff OLD NEW");
        return 2;
    };
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    match read(old).and_then(|o| pathix_bench::diff::diff(&o, &read(new)?)) {
        Err(e) => {
            eprintln!("report diff: {e}");
            2
        }
        Ok(lines) => {
            for line in &lines {
                println!("{line}");
            }
            i32::from(!lines.is_empty())
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "diff") {
        std::process::exit(diff(&args[1..]));
    }
    let (fast, selected) = parse(&args).unwrap_or_else(|e| {
        eprintln!("report: {e}");
        std::process::exit(2)
    });
    let mut all_hold = true;
    for (_, run) in selected {
        all_hold &= report(&run(fast), fast);
    }
    if !all_hold {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn names(args: &[&str]) -> Result<(bool, Vec<&'static str>), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|(fast, sel)| (fast, sel.iter().map(|(n, _)| *n).collect()))
    }

    #[test]
    fn parses_names_into_the_registry_and_rejects_unknown_ones() {
        let paper = ["paper", "ablations", "extensions"];
        assert_eq!(names(&[]), Ok((false, paper.to_vec())));
        assert_eq!(names(&["all", "paper"]), Ok((false, paper.to_vec())));
        assert_eq!(
            names(&["overload", "--fast", "chaos"]),
            Ok((true, vec!["chaos", "overload"]))
        );
        for bad in [
            &["fig12"][..],
            &["paper", "--sf-max", "0.1"],
            &["tab3"],
            &["throughput"],
            &["scaling"],
        ] {
            let err = names(bad).unwrap_err();
            assert!(err.contains("unknown argument"), "{err}");
            assert!(err.contains("all paper ablations extensions chaos overload"));
        }
    }
}
