//! One benchmark run: the end-to-end run (`--trace 0`) or the traced run
//! that gives the per-layer numbers (`--trace 1`).

use crate::replay::{replay, NAV_AXES};
use crate::stats::{median, quantile, Metrics};
use crate::trace::{summarize, write_chrome_trace, SpanStats, Tracer};
use crate::workload::{Bench, Cycle, Workload};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Set-ups whose first cycle is checked against the reference: two fresh
/// set-ups from one seed must do the same simulated work.
pub const GUARDED_SETUPS: usize = 2;
/// Spans written to the Chrome trace file (all spans enter the metrics).
pub const TRACE_FILE_SPANS: usize = 200_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// XMark scale override (the self-tests run tiny documents).
    pub scale: Option<f64>,
    /// Where trace files and the determinism ledger go.
    pub out_dir: PathBuf,
}

impl Args {
    fn scale(&self) -> f64 {
        self.scale.unwrap_or_else(|| self.workload.default_scale())
    }
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every answer matched the oracle and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first failure, if any.
    pub first_failure: Option<String>,
    /// The reported metrics.
    pub metrics: Metrics,
}

/// Checks that `c` repeats the workload's reference cycle exactly (the
/// first cycle seen sets the reference). Batch cycles are exempt: their
/// shared-cache hits depend on thread interleaving.
fn guard(workload: Workload, reference: &mut Option<Vec<u64>>, c: &Cycle) -> Result<(), String> {
    if !workload.deterministic() {
        return Ok(());
    }
    let fp = c.fingerprint();
    match reference {
        None => {
            *reference = Some(fp);
            Ok(())
        }
        Some(r) if *r == fp => Ok(()),
        Some(r) => Err(format!(
            "nondeterminism on {}: a cycle's simulated time and counts {fp:?} differ from the reference {r:?}",
            workload.name()
        )),
    }
}

/// The cycles of one measurement window.
struct Window {
    /// All cycles summed.
    total: Cycle,
    /// Simulated seconds per pass of each cycle.
    sims: Vec<f64>,
    /// Each cycle's query latencies, ns, in the order they ran.
    queries: Vec<Vec<u64>>,
    /// Each cycle's update latencies, ns, in the order they ran.
    updates: Vec<Vec<u64>>,
    /// Operations of each cycle.
    ops: Vec<u64>,
}

/// Runs cycles until `seconds` have passed (at least one), guarding each.
fn window(
    bench: &Bench,
    tracer: Option<&Arc<Tracer>>,
    seconds: f64,
    reference: &mut Option<Vec<u64>>,
) -> Result<Window, String> {
    let t = Instant::now();
    let mut w = Window {
        total: Cycle::default(),
        sims: Vec::new(),
        queries: Vec::new(),
        updates: Vec::new(),
        ops: Vec::new(),
    };
    loop {
        let mut c = bench.cycle(tracer);
        guard(bench.workload, reference, &c)?;
        w.sims.push(c.sim_ns_per_pass() / 1e9);
        w.queries.push(std::mem::take(&mut c.query_ns));
        w.updates.push(std::mem::take(&mut c.update_ns));
        w.ops.push(c.ops);
        w.total.absorb(c);
        if t.elapsed().as_secs_f64() >= seconds {
            return Ok(w);
        }
    }
}

/// Every cycle runs the same operations in the same order. The typical
/// latency of the operation at each position is its median over the
/// cycles, in ms, which a transient slowdown of the machine during a few
/// cycles does not move.
fn typical_ms(per_cycle: &[Vec<u64>]) -> Vec<f64> {
    let positions = per_cycle.iter().map(Vec::len).min().unwrap_or(0);
    (0..positions)
        .map(|i| {
            let at: Vec<f64> = per_cycle.iter().map(|c| c[i] as f64 / 1e6).collect();
            median(&at)
        })
        .collect()
}

impl Window {
    /// Operations per second of a typical cycle: the median cycle's
    /// operations over the sum of the typical latencies.
    fn ops_per_s(&self) -> f64 {
        let ops: Vec<f64> = self.ops.iter().map(|&o| o as f64).collect();
        let busy_ms: f64 = typical_ms(&self.queries).iter().sum::<f64>()
            + typical_ms(&self.updates).iter().sum::<f64>();
        median(&ops) / (busy_ms.max(f64::MIN_POSITIVE) / 1e3)
    }

    /// The `q`-quantile of the typical query (batch call) latencies, ms.
    fn query_ms(&self, q: f64) -> f64 {
        quantile(&typical_ms(&self.queries), q).unwrap_or(0.0)
    }

    /// The `q`-quantile of the typical update transaction latencies, ms.
    fn update_ms(&self, q: f64) -> f64 {
        quantile(&typical_ms(&self.updates), q).unwrap_or(0.0)
    }
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak memory needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// FNV-1a of this executable: ledger entries of one build are comparable,
/// entries of another build are not.
fn exe_hash() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    Some(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// Compares `fingerprint` with what an earlier run of the same build,
/// workload, seed and scale recorded in the ledger, or records it.
fn ledger(args: &Args, fingerprint: &[u64]) -> Result<(), String> {
    let Some(hash) = exe_hash() else {
        return Ok(());
    };
    let key = format!(
        "{hash:016x}\t{}\t{}\t{}",
        args.workload.name(),
        args.seed,
        args.scale()
    );
    let value = format!("{fingerprint:?}");
    let path = args.out_dir.join("determinism.tsv");
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    for line in old.lines() {
        if let Some((k, v)) = line.rsplit_once('\t') {
            if k == key && v != value {
                return Err(format!(
                    "nondeterminism on {} seed {}: this run's simulated time and counts {value} differ from an earlier run's {v} ({})",
                    args.workload.name(),
                    args.seed,
                    path.display()
                ));
            }
            if k == key {
                return Ok(());
            }
        }
    }
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{key}\t{value}").map_err(|e| e.to_string())
}

/// Runs the benchmark as `args` asks.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        traced(args)
    } else {
        end_to_end(args)
    }
}

/// The end-to-end run: [`SETUPS`] set-ups, then cycles for the
/// measurement window; every cycle must repeat the reference.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut reference = None;
    let mut bench = None;
    for i in 0..SETUPS {
        drop(bench.take());
        let b = Bench::setup(args.workload, args.seed, args.scale(), None)?;
        setup_s.push(b.times.total_s());
        if i < GUARDED_SETUPS && args.workload.deterministic() {
            guard(args.workload, &mut reference, &b.cycle(None))?;
        }
        bench = Some(b);
    }
    let bench = bench.ok_or("no set-up ran")?;
    let w = window(&bench, None, args.seconds, &mut reference)?;
    if let Some(fp) = &reference {
        ledger(args, fp)?;
    }

    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s), "s");
    m.push("sim_s", median(&w.sims), "s");
    m.push("ops_per_s", w.ops_per_s(), "1/s");
    m.push("query_ms.p50", w.query_ms(0.5), "ms");
    m.push("query_ms.p90", w.query_ms(0.9), "ms");
    m.push("update_ms.p50", w.update_ms(0.5), "ms");
    m.push("update_ms.p90", w.update_ms(0.9), "ms");
    m.push("peak_rss_mb", peak_rss_mb()?, "MB");
    let total = w.total;
    m.push(
        "ok_frac",
        (total.attempted - total.failed) as f64 / total.attempted.max(1) as f64,
        "ratio",
    );
    Ok(outcome(total, m))
}

fn outcome(total: Cycle, metrics: Metrics) -> Outcome {
    Outcome {
        correct: total.failed == 0 && total.attempted > 0,
        attempted: total.attempted,
        failed: total.failed,
        first_failure: total.first_failure,
        metrics,
    }
}

/// The traced run: half the window untraced, then a fresh set-up and the
/// other half with spans at every layer boundary; then the per-call
/// replays and the Chrome trace file.
fn traced(args: &Args) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let mut reference = None;
    let untraced_ops_per_s = {
        let bench = Bench::setup(args.workload, args.seed, args.scale(), None)?;
        window(&bench, None, half, &mut reference)?.ops_per_s()
    };

    let tracer = Arc::new(Tracer::new());
    let bench = Bench::setup(args.workload, args.seed, args.scale(), Some(&tracer))?;
    let w = window(&bench, Some(&tracer), half, &mut reference)?;
    let traced_ops_per_s = w.ops_per_s();
    let total = w.total;
    if let Some(fp) = &reference {
        ledger(args, fp)?;
    }
    let spans = tracer.spans();
    let by_name = summarize(&spans);
    let r = replay(&bench, tracer.mean_queue_depth());
    let file = args.out_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    write_chrome_trace(&file, &spans, TRACE_FILE_SPANS)
        .map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!(
        "perfbench: wrote {} spans to {}",
        spans.len().min(TRACE_FILE_SPANS),
        file.display()
    );

    let passes = total.passes.max(1) as f64;
    let per_pass = |v: u64| v as f64 / passes;
    let stat = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let sum = |names: &[&str]| {
        names.iter().fold(SpanStats::default(), |mut acc, n| {
            let s = stat(n);
            acc.count += s.count;
            acc.total_ns += s.total_ns;
            acc.self_ns += s.self_ns;
            acc
        })
    };
    let mean_us = |name: &str| {
        let s = stat(name);
        s.total_ns as f64 / s.count.max(1) as f64 / 1e3
    };
    let device = sum(&["sim_disk.read_sync", "sim_disk.submit", "sim_disk.poll"]);
    let plan = sum(&["plan.execute", "server.execute"]);
    let rep = &total.report;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let mut m = Metrics::default();
    m.push("sim_disk.reads", per_pass(rep.device.reads), "count");
    m.push(
        "sim_disk.random_reads",
        per_pass(rep.device.random_reads),
        "count",
    );
    m.push(
        "sim_disk.seek_pages",
        per_pass(rep.device.seek_distance_pages),
        "count",
    );
    m.push("sim.io_wait_s", per_pass(rep.time.io_wait_ns) / 1e9, "s");
    m.push("sim_disk.calls", per_pass(device.count), "count");
    m.push("sim_disk.self_ms", per_pass(device.self_ns) / 1e6, "ms");
    m.push("sim_disk.queue_depth", tracer.mean_queue_depth(), "count");
    m.push("sim_disk.pick_ns", r.pick_ns, "ns");
    m.push("checksum.verify_ns", r.verify_ns, "ns");
    m.push("decode.cluster_ns", r.decode_ns, "ns");
    m.push("buffer.misses", per_pass(rep.buffer.misses), "count");
    m.push("buffer.fixes", per_pass(rep.buffer.fixes), "count");
    m.push(
        "buffer.hit_ratio",
        ratio(rep.buffer.hits, rep.buffer.fixes),
        "ratio",
    );
    m.push("buffer.evictions", per_pass(rep.buffer.evictions), "count");
    m.push("buffer.fix_hit_ns", r.fix_hit_ns, "ns");
    m.push("buffer.fix_miss_ns", r.fix_miss_ns, "ns");
    m.push("nav.nodes_visited", per_pass(rep.nodes_visited), "count");
    m.push("nav.node_tests", per_pass(rep.node_tests), "count");
    for (&(_, name), &ns) in NAV_AXES.iter().zip(&r.nav_ns) {
        m.push(name, ns, "ns");
    }
    m.push("ops.instances", per_pass(rep.instances), "count");
    m.push("xstep.borders", per_pass(rep.borders), "count");
    m.push("xassembly.r_inserts", per_pass(rep.r_inserts), "count");
    m.push("xassembly.s_inserts", per_pass(rep.s_inserts), "count");
    m.push("xassembly.s_peak", rep.s_peak as f64, "count");
    m.push("xschedule.q_pushes", per_pass(rep.q_pushes), "count");
    m.push(
        "xscan.speculative",
        per_pass(rep.speculative_generated),
        "count",
    );
    m.push("sim.cpu_s", per_pass(rep.time.cpu_ns) / 1e9, "s");
    m.push("xpath.parse_us", mean_us("xpath.parse"), "us");
    m.push("plan.self_ms", per_pass(plan.self_ns) / 1e6, "ms");
    let cache = &total.cache;
    m.push(
        "shared_cache.hit_ratio",
        ratio(cache.hits, cache.hits + cache.misses),
        "ratio",
    );
    m.push(
        "shared_cache.single_flight_waits",
        per_pass(cache.single_flight_waits),
        "count",
    );
    m.push("shared_cache.hit_ns", r.cache_hit_ns, "ns");
    m.push("server.seed_ms", r.seed_ms, "ms");
    m.push(
        "governor.degraded",
        per_pass(total.governor.degraded),
        "count",
    );
    m.push("governor.shed", per_pass(total.governor.shed), "count");
    m.push(
        "governor.aborted",
        per_pass(total.governor.deadline_aborted),
        "count",
    );
    m.push("update.insert_us", mean_us("update.insert"), "us");
    m.push("update.delete_us", mean_us("update.delete"), "us");
    m.push("wal.commit_us", mean_us("wal.commit"), "us");
    m.push("wal.records", per_pass(total.wal_records), "count");
    m.push("xmlgen.generate_s", bench.times.generate_s, "s");
    m.push("import.import_s", bench.times.import_s, "s");
    m.push("import.pages", f64::from(bench.pages()), "count");
    m.push(
        "import.border_edges",
        bench.import.border_edges as f64,
        "count",
    );
    m.push("failed_frac", ratio(total.failed, total.attempted), "ratio");
    m.push(
        "trace.overhead_frac",
        1.0 - traced_ops_per_s / untraced_ops_per_s.max(f64::MIN_POSITIVE),
        "ratio",
    );
    Ok(outcome(total, m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_rejects_a_cycle_that_differs_from_the_reference() {
        let mut reference = None;
        let mut c = Cycle::default();
        c.report.time.total_ns = 5;
        guard(Workload::Cold, &mut reference, &c).expect("first cycle sets the reference");
        guard(Workload::Cold, &mut reference, &c).expect("an identical cycle passes");
        c.report.time.total_ns += 1;
        assert!(guard(Workload::Cold, &mut reference, &c).is_err());
        // Batch cycles may differ: shared-cache hits depend on interleaving.
        assert!(guard(Workload::Batch, &mut reference, &c).is_ok());
    }

    #[test]
    fn typical_latency_is_the_median_per_position() {
        let per_cycle = vec![
            vec![1_000_000, 9_000_000],
            vec![3_000_000, 1_000_000],
            vec![2_000_000, 2_000_000],
        ];
        assert_eq!(typical_ms(&per_cycle), vec![2.0, 2.0]);
    }
}
