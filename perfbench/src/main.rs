//! Command line:
//!
//! ```text
//! perfbench --workload <cold|warm_rw|batch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of standard output; trace files
//! and the determinism ledger go to `perfbench/out/`. Exits 0
//! with `"correct": false` when an answer is wrong, 2 on a usage error and
//! 1 when set-up fails or simulated results do not repeat exactly.

use pathix_perfbench::run::{run, Args};
use pathix_perfbench::stats::result_line;
use pathix_perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: None,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for m in &out.metrics.0 {
                eprintln!("perfbench: {:<34} {:>16.6} {}", m.name, m.value, m.unit);
            }
            if let Some(f) = &out.first_failure {
                eprintln!(
                    "perfbench: {} of {} operations failed; first: {f}",
                    out.failed, out.attempted
                );
            }
            println!(
                "{}",
                result_line(out.correct, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
