//! `pathix` — command-line front end for the engine.
//!
//! ```text
//! pathix query   [DB] [--method simple|xschedule|xscan|auto] [--sort] "<query>"
//! pathix explain [DB] "<query>"        # cost-model estimate per plan
//! pathix info    [DB]                  # storage statistics
//! pathix gen     [--scale S] [--pretty] # emit an XMark document
//!
//! DB: [--scale S | --xml FILE] [--placement sequential|chunk|shuffled] [--buffer N]
//! ```
//!
//! A query is a location path, `count(path)`, or a `+`-sum of counts.
//! `--method auto` and `explain` estimate the query's first path;
//! `--sort` returns path results in document order.

// Demo binaries print to stdout and unwrap for brevity.
#![allow(clippy::unwrap_used, clippy::print_stdout)]

use pathix::{Database, DatabaseOptions, Method, PlanConfig};
use pathix_tree::Placement;
use std::process::ExitCode;

struct Args {
    scale: f64,
    xml_file: Option<String>,
    method: String,
    placement: Placement,
    buffer: usize,
    sort: bool,
    rest: Vec<String>,
}

fn parse_args(mut argv: Vec<String>) -> Result<(String, Args), String> {
    if argv.is_empty() {
        return Err("missing subcommand (query | explain | gen | info)".into());
    }
    let cmd = argv.remove(0);
    let mut args = Args {
        scale: 0.1,
        xml_file: None,
        method: "xschedule".into(),
        placement: Placement::ChunkShuffled {
            chunk: 8,
            seed: 0xA6E,
        },
        buffer: 100,
        sort: false,
        rest: Vec::new(),
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--scale" => args.scale = val("--scale")?.parse().map_err(|e| format!("{e}"))?,
            "--xml" => args.xml_file = Some(val("--xml")?),
            "--method" => args.method = val("--method")?,
            "--buffer" => args.buffer = val("--buffer")?.parse().map_err(|e| format!("{e}"))?,
            "--sort" => args.sort = true,
            "--placement" => {
                args.placement = match val("--placement")?.as_str() {
                    "sequential" => Placement::Sequential,
                    "chunk" => Placement::ChunkShuffled {
                        chunk: 8,
                        seed: 0xA6E,
                    },
                    "shuffled" => Placement::Shuffled { seed: 0xA6E },
                    other => return Err(format!("unknown placement `{other}`")),
                }
            }
            other => args.rest.push(other.to_owned()),
        }
    }
    Ok((cmd, args))
}

fn open_db(args: &Args) -> Result<Database, String> {
    let opts = DatabaseOptions {
        placement: args.placement,
        buffer_pages: args.buffer,
        ..Default::default()
    };
    match &args.xml_file {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Database::from_xml(&text, &opts).map_err(|e| e.to_string())
        }
        None => Database::from_xmark(args.scale, &opts).map_err(|e| e.to_string()),
    }
}

fn pick_method(name: &str) -> Result<Option<Method>, String> {
    match name {
        "simple" => Ok(Some(Method::Simple)),
        "xschedule" => Ok(Some(Method::xschedule())),
        "xscan" => Ok(Some(Method::XScan)),
        "auto" => Ok(None),
        other => Err(format!("unknown method `{other}`")),
    }
}

fn run() -> Result<(), String> {
    let (cmd, args) = parse_args(std::env::args().skip(1).collect())?;
    match cmd.as_str() {
        "query" => {
            let query = args.rest.first().ok_or("query: missing query string")?;
            let db = open_db(&args)?;
            let method = match pick_method(&args.method)? {
                Some(m) => m,
                None => db.estimate(query).map_err(|e| e.to_string())?.recommend(),
            };
            let mut cfg = PlanConfig::new(method);
            cfg.sort = args.sort;
            let run = db.run(query, cfg).map_err(|e| e.to_string())?;
            println!("result: {}", run.value);
            println!("plan:   {}", method.label());
            println!("{}", run.report);
            Ok(())
        }
        "explain" => {
            let query = args.rest.first().ok_or("explain: missing query")?;
            let db = open_db(&args)?;
            let est = db.estimate(query).map_err(|e| e.to_string())?;
            println!("query:             {query}");
            println!(
                "touched fraction:  {:.1}% (≈ {:.0} pages of {})",
                100.0 * est.touched_fraction,
                est.touched_pages,
                db.pages()
            );
            println!("est. Simple:       {:>10.3} s", est.simple_ns / 1e9);
            println!("est. XSchedule:    {:>10.3} s", est.xschedule_ns / 1e9);
            println!("est. XScan:        {:>10.3} s", est.xscan_ns / 1e9);
            println!("recommended plan:  {}", est.recommend().label());
            Ok(())
        }
        "gen" => {
            let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(args.scale));
            if args.rest.iter().any(|r| r == "--pretty") {
                print!("{}", pathix_xml::serialize_pretty(&doc));
            } else {
                println!("{}", pathix_xml::serialize(&doc));
            }
            Ok(())
        }
        "info" => {
            let db = open_db(&args)?;
            let meta = &db.store().meta;
            let rep = db.import_report();
            println!("pages:        {}", meta.page_count);
            println!(
                "nodes:        {} ({} elements)",
                meta.node_count, meta.element_count
            );
            println!("border edges: {}", rep.border_edges);
            println!(
                "record bytes: {} ({:.1}% page fill)",
                rep.record_bytes,
                100.0 * rep.record_bytes as f64 / (meta.page_count as f64 * 8192.0)
            );
            println!("tags:         {}", meta.symbols.len());
            let mut tags: Vec<(&str, u64)> = meta
                .symbols
                .iter()
                .map(|(s, n)| (n, meta.tag_count(s)))
                .collect();
            tags.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            for (name, count) in tags.iter().take(10) {
                println!("  {name:<16} {count}");
            }
            Ok(())
        }
        other => Err(format!(
            "unknown subcommand `{other}` (query | explain | gen | info)"
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pathix: {e}");
            ExitCode::FAILURE
        }
    }
}
