//! Simulated-cost fingerprint of every execution entry point.
//!
//! Simulated time is deterministic, so every number an executor reports
//! about a run — result orders, the clock's total/CPU/I-O-wait split, the
//! buffer and device deltas and every algebra counter — is a pure function
//! of the document, the device and the plan. The golden values below pin
//! them for a small XMark document on the simulated disk, with 2 KiB pages
//! and a buffer smaller than the document. A refactor of the plan executors
//! or the batch executor must reproduce them bit for bit; a deliberate
//! cost-model change updates them together with its justification.
//!
//! Result orders are recorded as a count plus an FNV-1a hash of the
//! document-order keys, in output order.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

mod support;

use pathix::core::plan::execute_path;
use pathix::core::{
    execute_batch_governed, execute_batch_parallel, execute_interleaved, execute_query,
    AdmissionConfig, ExecError, ExecReport, Method, PathRun, PlanConfig,
};
use pathix::storage::{BufferStats, DeviceStats};
use pathix::tree::NodeId;
use pathix::xml::Document;
use pathix::xpath::{parse_path, parse_query, LocationPath};
use pathix::{Database, DatabaseOptions};
use support::{cached_seeds, plain_seeds, sorted};

const PATHS: [&str; 4] = [
    "/site/regions//item",
    "//keyword/ancestor::listitem",
    "/site/people/person/following-sibling::person",
    "//listitem/parent::parlist",
];

fn methods() -> [Method; 4] {
    [
        Method::Simple,
        Method::xschedule(),
        Method::XSchedule {
            k: 100,
            speculative: true,
        },
        Method::XScan,
    ]
}

fn doc() -> Document {
    pathix::xmlgen::generate(&pathix::xmlgen::GenConfig::at_scale(0.01))
}

/// A fresh database over the simulated disk whose buffer holds a fraction
/// of the document, so every plan pays misses.
fn db(doc: &Document) -> Database {
    let opts = DatabaseOptions {
        page_size: 2048,
        buffer_pages: 16,
        ..Default::default()
    };
    let db = Database::from_document(doc, &opts).unwrap();
    assert!(db.pages() as usize > 2 * opts.buffer_pages);
    db
}

fn paths() -> Vec<LocationPath> {
    PATHS.iter().map(|p| parse_path(p).unwrap()).collect()
}

/// Every `(path, method)` pair of the batch entry points.
fn batch_work() -> Vec<(LocationPath, Method)> {
    let mut work = Vec::new();
    for method in [Method::Simple, Method::xschedule(), Method::XScan] {
        for path in paths() {
            work.push((path, method));
        }
    }
    work
}

fn orders(nodes: &[(NodeId, u64)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(_, order) in nodes {
        for byte in order.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("n={} h={h:016x}", nodes.len())
}

/// Every field of a report. The destructuring has no `..`, so a new field
/// must be added here before this file compiles again.
fn report(r: &ExecReport) -> String {
    let ExecReport {
        method,
        time,
        buffer,
        device,
        nodes_visited,
        node_tests,
        borders,
        instances,
        results,
        r_inserts,
        s_inserts,
        s_peak,
        q_pushes,
        speculative_generated,
        fallback,
        degraded,
    } = r;
    let BufferStats {
        fixes,
        hits,
        misses,
        async_loads,
        evictions,
        prefetches,
        capacity_overflows,
    } = buffer;
    let DeviceStats {
        reads,
        sequential_reads,
        random_reads,
        seek_distance_pages,
        busy_ns,
        retries,
    } = device;
    format!(
        "{method} t={}/{}/{} buf={fixes}/{hits}/{misses}/{async_loads}/{evictions}/{prefetches}/\
         {capacity_overflows} dev={reads}/{sequential_reads}/{random_reads}/{seek_distance_pages}/\
         {busy_ns}/{retries} nav={nodes_visited}/{node_tests}/{borders} \
         alg={instances}/{results}/{r_inserts}/{s_inserts}/{s_peak}/{q_pushes}/\
         {speculative_generated} fb={fallback}/{degraded}",
        time.total_ns, time.cpu_ns, time.io_wait_ns
    )
}

fn item(run: &Result<PathRun, ExecError>) -> String {
    let run = run.as_ref().unwrap();
    format!("{} {}", orders(&run.nodes), report(&run.report))
}

fn check(got: &[String], golden: &[&str]) {
    assert_eq!(got, golden, "actual fingerprint:\n{got:#?}");
}

const GOLDEN_PATHS: &[&str] = &[
    "n=19 h=dad4139842498917 Simple t=18656700/2108700/16548000 buf=75/47/28/0/12/0/0 dev=28/25/3/60/16548000/0 nav=693/625/72 alg=22/19/0/0/0/0/0 fb=false/false",
    "n=15 h=053cdfc5620a58a0 Simple t=33618350/5294350/28324000 buf=268/216/52/0/52/0/0 dev=52/47/5/112/28324000/0 nav=2033/1785/248 alg=36/15/0/0/0/0/0 fb=false/false",
    "n=19 h=0bbabeb21626e001 Simple t=16274400/2714400/13560000 buf=582/574/8/0/8/0/0 dev=8/5/3/70/13560000/0 nav=309/217/559 alg=213/19/0/0/0/0/0 fb=false/false",
    "n=30 h=f17d67bb16163186 Simple t=29701400/5096400/24605000 buf=213/160/53/0/53/0/0 dev=53/49/4/111/24605000/0 nav=1840/1686/154 alg=117/30/0/0/0/0/0 fb=false/false",
    "n=19 h=dad4139842498917 XSchedule t=17090850/2516000/14574850 buf=3/3/0/29/13/29/0 dev=29/25/4/96/15933000/0 nav=693/625/72 alg=186/19/91/0/0/73/0 fb=false/false",
    "n=15 h=053cdfc5620a58a0 XSchedule t=39302600/6354950/32947650 buf=34/34/0/60/60/60/0 dev=60/49/11/146/36318000/0 nav=1947/1741/206 alg=447/15/204/0/0/190/0 fb=false/false",
    "n=19 h=0bbabeb21626e001 XSchedule t=10006950/998450/9008500 buf=16/16/0/7/7/7/0 dev=7/5/2/79/9463000/0 nav=98/62/77 alg=191/19/55/0/0/37/0 fb=false/false",
    "n=30 h=f17d67bb16163186 XSchedule t=19775150/5294100/14481050 buf=21/21/0/43/43/43/0 dev=43/38/5/91/16875000/0 nav=1840/1686/154 alg=456/30/184/0/0/155/0 fb=false/false",
    "n=19 h=dad4139842498917 XSchedule t=16261300/4679100/11582200 buf=0/0/0/28/12/28/0 dev=28/25/3/60/14548000/0 nav=1628/1473/235 alg=827/19/91/97/97/69/465 fb=false/false",
    "n=15 h=053cdfc5620a58a0 XSchedule t=25349850/10434100/14915750 buf=4/4/0/50/50/50/0 dev=50/45/5/84/21552000/0 nav=4101/3628/473 alg=1330/15/204/189/145/141/596 fb=false/false",
    "n=19 h=0bbabeb21626e001 XSchedule t=17817550/2137350/15680200 buf=6/6/0/5/5/5/0 dev=5/1/4/105/17261000/0 nav=343/260/234 alg=654/19/55/93/87/19/268 fb=false/false",
    "n=30 h=f17d67bb16163186 XSchedule t=23864100/9390900/14473200 buf=11/11/0/43/43/43/0 dev=43/36/7/105/19863000/0 nav=3706/3372/334 alg=1324/30/184/37/33/136/596 fb=false/false",
    "n=19 h=dad4139842498917 XScan t=14844500/6582500/8262000 buf=54/0/54/0/38/0/0 dev=54/54/0/0/8262000/0 nav=2126/1945/330 alg=1266/19/91/261/258/0/894 fb=false/false",
    "n=15 h=053cdfc5620a58a0 XScan t=19810900/7244900/12566000 buf=54/0/54/0/54/0/0 dev=54/53/1/54/12566000/0 nav=2353/2042/311 alg=999/15/204/259/217/0/596 fb=false/false",
    "n=19 h=0bbabeb21626e001 XScan t=18660100/6094100/12566000 buf=54/0/54/0/54/0/0 dev=54/53/1/54/12566000/0 nav=1088/971/613 alg=1883/19/55/548/541/0/1192 fb=false/false",
    "n=30 h=f17d67bb16163186 XScan t=18988700/6422700/12566000 buf=54/0/54/0/54/0/0 dev=54/53/1/54/12566000/0 nav=1984/1798/186 alg=930/30/184/124/113/0/596 fb=false/false",
];

#[test]
fn execute_path_per_method() {
    let doc = doc();
    let mut got = Vec::new();
    for method in methods() {
        let db = db(&doc);
        for path in paths() {
            let run = execute_path(db.store(), &path.rooted(), &sorted(method)).unwrap();
            got.push(format!("{} {}", orders(&run.nodes), report(&run.report)));
        }
    }
    check(&got, GOLDEN_PATHS);
}

const GOLDEN_COUNTS: &[&str] = &[
    "v=38 Simple t=47911450/6830450/41081000 buf=225/144/81/0/65/0/0 dev=81/74/7/157/41081000/0 nav=2470/2253/221 alg=42/38/0/0/0/0/0 fb=false/false",
    "v=38 XSchedule t=42796500/8019850/34776650 buf=3/3/0/83/67/83/0 dev=83/75/8/194/38619000/0 nav=2470/2253/221 alg=524/38/259/0/0/223/0 fb=false/false",
    "v=38 XSchedule t=42145750/13659150/28486600 buf=0/0/0/82/66/82/0 dev=82/75/7/158/37234000/0 nav=5140/4693/527 alg=1625/38/259/97/97/219/763 fb=false/false",
    "v=38 XScan t=33087850/12259850/20828000 buf=108/0/108/0/92/0/0 dev=108/107/1/54/20828000/0 nav=3903/3573/479 alg=1753/38/259/327/258/0/1192 fb=false/false",
];

#[test]
fn count_sum_query_per_method() {
    let doc = doc();
    let q = parse_query("count(//keyword)+count(/site/regions//item)")
        .unwrap()
        .rooted();
    let mut got = Vec::new();
    for method in methods() {
        let db = db(&doc);
        let run = execute_query(db.store(), &q, &PlanConfig::new(method)).unwrap();
        got.push(format!("v={} {}", run.value, report(&run.report)));
    }
    check(&got, GOLDEN_COUNTS);
}

const GOLDEN_INTERLEAVED: &[&str] = &[
    "Simple n=0 h=cbf29ce484222325 Simple t=13413000/240000/13173000 buf=9/4/5/0/0/0/0 dev=5/2/3/83/13173000/0 nav=10/6/8 alg=1/0/0/0/0/0/0 fb=false/false",
    "XSchedule n=15 h=053cdfc5620a58a0 XSchedule t=26500100/5918950/20581150 buf=53/53/0/48/47/47/0 dev=47/38/9/83/25103000/0 nav=1947/1741/206 alg=447/15/204/0/0/190/0 fb=false/false",
    "XScan n=0 h=cbf29ce484222325 XScan t=35847600/6758600/29089000 buf=54/4/50/6/45/0/0 dev=55/47/8/66/29389000/0 nav=1435/1286/794 alg=2044/0/8/824/821/0/1192 fb=false/false",
    "XSchedule n=30 h=f17d67bb16163186 XSchedule t=19290600/8639450/10651150 buf=34/34/0/20/20/27/0 dev=21/18/3/86/13693000/0 nav=3735/3401/334 alg=1329/30/184/37/33/141/596 fb=false/false",
    "interleaved t=95051300/21557000/73494300 buf=150/95/55/74/112/74/0 dev=128/105/23/318/81358000/0 nav=7127/6434/1342 alg=3821/45/396/861/821/331/1788 fb=false/false",
];

#[test]
fn interleaved_per_plan_and_combined() {
    let db = db(&doc());
    let work: Vec<(LocationPath, Method)> = paths()
        .into_iter()
        .zip([
            Method::Simple,
            Method::xschedule(),
            Method::XScan,
            Method::XSchedule {
                k: 100,
                speculative: true,
            },
        ])
        .collect();
    let batch = execute_interleaved(db.store(), &work, &sorted(Method::Simple)).unwrap();
    let mut got: Vec<String> = batch
        .runs
        .iter()
        .map(|r| {
            let r = r.as_ref().unwrap();
            format!(
                "{} {} {}",
                r.report.method,
                orders(&r.nodes),
                report(&r.report)
            )
        })
        .collect();
    got.push(report(&batch.report));
    check(&got, GOLDEN_INTERLEAVED);
}

const GOLDEN_SHARED_SCAN: &[&str] = &[
    "n=0 h=cbf29ce484222325 XScan t=7498850/5509850/1989000 buf=13/0/13/0/8/0/0 dev=13/13/0/0/1989000/0 nav=2433/2225/506 alg=1419/0/8/518/515/0/894 fb=false/false",
    "n=15 h=053cdfc5620a58a0 XScan t=7235500/5552500/1683000 buf=11/0/11/0/8/0/0 dev=11/11/0/0/1683000/0 nav=2353/2042/311 alg=999/15/204/259/217/0/596 fb=false/false",
    "n=0 h=cbf29ce484222325 XScan t=7446400/5151400/2295000 buf=15/0/15/0/11/0/0 dev=15/15/0/0/2295000/0 nav=1435/1286/794 alg=2044/0/8/824/821/0/1192 fb=false/false",
    "n=30 h=f17d67bb16163186 XScan t=7209300/4914300/2295000 buf=15/0/15/0/11/0/0 dev=15/15/0/0/2295000/0 nav=1984/1798/186 alg=930/30/184/124/113/0/596 fb=false/false",
    "interleaved t=29390050/21128050/8262000 buf=54/0/54/0/38/0/0 dev=54/54/0/0/8262000/0 nav=8205/7351/1797 alg=5392/45/404/1725/821/0/3278 fb=false/false",
];

#[test]
fn shared_scan() {
    let db = db(&doc());
    let work: Vec<_> = paths().into_iter().map(|p| (p, Method::XScan)).collect();
    let batch = execute_interleaved(db.store(), &work, &sorted(Method::XScan)).unwrap();
    let mut got: Vec<String> = batch
        .runs
        .iter()
        .map(|r| {
            let r = r.as_ref().unwrap();
            format!("{} {}", orders(&r.nodes), report(&r.report))
        })
        .collect();
    got.push(report(&batch.report));
    check(&got, GOLDEN_SHARED_SCAN);
}

const GOLDEN_PARALLEL_1: &[&str] = &[
    "n=0 h=cbf29ce484222325 Simple t=161600/161600/0 buf=9/6/3/0/3/0/0 dev=0/0/0/0/0/0 nav=10/6/8 alg=1/0/0/0/0/0/0 fb=false/false",
    "n=15 h=053cdfc5620a58a0 Simple t=5430450/5430450/0 buf=268/214/54/0/54/0/0 dev=0/0/0/0/0/0 nav=2033/1785/248 alg=36/15/0/0/0/0/0 fb=false/false",
    "n=0 h=cbf29ce484222325 Simple t=35100/35100/0 buf=9/9/0/0/0/0/0 dev=0/0/0/0/0/0 nav=10/6/8 alg=1/0/0/0/0/0/0 fb=false/false",
    "n=30 h=f17d67bb16163186 Simple t=5192500/5192500/0 buf=213/159/54/0/54/0/0 dev=0/0/0/0/0/0 nav=1840/1686/154 alg=117/30/0/0/0/0/0 fb=false/false",
    "n=0 h=cbf29ce484222325 XSchedule t=97200/97200/0 buf=9/9/0/0/0/0/0 dev=0/0/0/0/0/0 nav=10/6/8 alg=18/0/8/0/0/9/0 fb=false/false",
    "n=15 h=053cdfc5620a58a0 XSchedule t=6028150/6028150/0 buf=52/52/0/48/48/48/0 dev=0/0/0/0/0/0 nav=1947/1741/206 alg=447/15/204/0/0/190/0 fb=false/false",
    "n=0 h=cbf29ce484222325 XSchedule t=97200/97200/0 buf=9/9/0/0/0/0/0 dev=0/0/0/0/0/0 nav=10/6/8 alg=18/0/8/0/0/9/0 fb=false/false",
    "n=30 h=f17d67bb16163186 XSchedule t=5571000/5571000/0 buf=20/20/0/46/46/46/0 dev=0/0/0/0/0/0 nav=1840/1686/154 alg=456/30/184/0/0/155/0 fb=false/false",
    "n=0 h=cbf29ce484222325 XScan t=7183150/7183150/0 buf=54/0/54/0/54/0/0 dev=0/0/0/0/0/0 nav=2433/2225/506 alg=1419/0/8/518/515/0/894 fb=false/false",
    "n=15 h=053cdfc5620a58a0 XScan t=7298900/7298900/0 buf=54/0/54/0/54/0/0 dev=0/0/0/0/0/0 nav=2353/2042/311 alg=999/15/204/259/217/0/596 fb=false/false",
    "n=0 h=cbf29ce484222325 XScan t=15043000/6781000/8262000 buf=54/0/54/0/38/0/0 dev=54/54/0/0/8262000/0 nav=1435/1286/794 alg=2044/0/8/824/821/0/1192 fb=false/false",
    "n=30 h=f17d67bb16163186 XScan t=6476700/6476700/0 buf=54/0/54/0/54/0/0 dev=0/0/0/0/0/0 nav=1984/1798/186 alg=930/30/184/124/113/0/596 fb=false/false",
    "parallel t=58614950/50352950/8262000 buf=805/478/327/94/405/94/0 dev=54/54/0/0/8262000/0 nav=15905/14273/2591 alg=6486/135/808/1725/821/363/3278 fb=false/false",
];

#[test]
fn parallel_batch_one_worker() {
    let db = db(&doc());
    let batch =
        execute_batch_parallel(cached_seeds(&db, 1), &batch_work(), &sorted(Method::Simple));
    let mut got: Vec<String> = batch.runs.iter().map(item).collect();
    got.push(report(&batch.report));
    check(&got, GOLDEN_PARALLEL_1);
}

/// At several workers, which items share a worker's warm buffer depends on
/// claim order, so only the results are deterministic. They must equal the
/// one-worker results.
#[test]
fn parallel_batch_three_workers_results() {
    let db = db(&doc());
    let work = batch_work();
    let batch = execute_batch_parallel(cached_seeds(&db, 3), &work, &sorted(Method::Simple));
    let got: Vec<String> = batch
        .runs
        .iter()
        .map(|r| orders(&r.as_ref().unwrap().nodes))
        .collect();
    let want: Vec<String> = GOLDEN_PARALLEL_1
        .iter()
        .take(work.len())
        .map(|line| line.splitn(3, ' ').take(2).collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(got, want);
}

const GOLDEN_GOVERNED: &[&str] = &[
    "n=0 h=cbf29ce484222325 Simple t=13413000/240000/13173000 buf=9/4/5/0/0/0/0 dev=5/2/3/83/13173000/0 nav=10/6/8 alg=1/0/0/0/0/0/0 fb=false/false",
    "n=15 h=053cdfc5620a58a0 Simple t=25974450/5376450/20598000 buf=268/214/54/0/38/0/0 dev=54/51/3/76/20598000/0 nav=2033/1785/248 alg=36/15/0/0/0/0/0 fb=false/false",
    "n=0 h=cbf29ce484222325 Simple t=13413000/240000/13173000 buf=9/4/5/0/0/0/0 dev=5/2/3/83/13173000/0 nav=10/6/8 alg=1/0/0/0/0/0/0 fb=false/false",
    "n=30 h=f17d67bb16163186 Simple t=25736500/5138500/20598000 buf=213/159/54/0/38/0/0 dev=54/51/3/76/20598000/0 nav=1840/1686/154 alg=117/30/0/0/0/0/0 fb=false/false",
    "n=0 h=cbf29ce484222325 XSchedule t=13424900/289600/13135300 buf=4/4/0/5/0/5/0 dev=5/2/3/83/13173000/0 nav=10/6/8 alg=18/0/8/0/0/9/0 fb=false/false",
    "n=15 h=053cdfc5620a58a0 XSchedule t=24473750/6193650/18280100 buf=38/38/0/55/39/55/0 dev=55/51/4/98/21339000/0 nav=1947/1741/206 alg=447/15/204/0/0/190/0 fb=false/false",
    "n=0 h=cbf29ce484222325 XSchedule t=13424900/289600/13135300 buf=4/4/0/5/0/5/0 dev=5/2/3/83/13173000/0 nav=10/6/8 alg=18/0/8/0/0/9/0 fb=false/false",
    "n=30 h=f17d67bb16163186 XSchedule t=21702550/5776000/15926550 buf=5/5/0/54/38/54/0 dev=54/51/3/76/18598000/0 nav=1840/1686/154 alg=456/30/184/0/0/155/0 fb=false/false",
    "n=0 h=cbf29ce484222325 XScan t=15391150/7129150/8262000 buf=54/0/54/0/38/0/0 dev=54/54/0/0/8262000/0 nav=2433/2225/506 alg=1419/0/8/518/515/0/894 fb=false/false",
    "n=15 h=053cdfc5620a58a0 XScan t=15506900/7244900/8262000 buf=54/0/54/0/38/0/0 dev=54/54/0/0/8262000/0 nav=2353/2042/311 alg=999/15/204/259/217/0/596 fb=false/false",
    "n=0 h=cbf29ce484222325 XScan t=14989000/6727000/8262000 buf=54/0/54/0/38/0/0 dev=54/54/0/0/8262000/0 nav=1435/1286/794 alg=2044/0/8/824/821/0/1192 fb=false/false",
    "n=30 h=f17d67bb16163186 XScan t=14684700/6422700/8262000 buf=54/0/54/0/38/0/0 dev=54/54/0/0/8262000/0 nav=1984/1798/186 alg=930/30/184/124/113/0/596 fb=false/false",
    "governed t=212134800/51067550/161067250 buf=766/432/334/119/305/119/0 dev=453/428/25/658/166873000/0 nav=15905/14273/2591 alg=6486/135/808/1725/821/363/3278 fb=false/false",
    "governor: admitted 12 shed 0 degraded 0 deadline-aborted 0 canceled 0",
];

/// Governed items start cold, so per-item reports are deterministic at any
/// worker count and the 1- and 3-worker batches agree exactly.
#[test]
fn governed_batch_one_and_three_workers() {
    let work = batch_work();
    for workers in [1, 3] {
        let db = db(&doc());
        let batch = execute_batch_governed(
            plain_seeds(&db, workers),
            &work,
            &sorted(Method::Simple),
            &[],
            &AdmissionConfig::unlimited(),
        );
        let mut got: Vec<String> = batch.runs.iter().map(item).collect();
        got.push(report(&batch.report));
        got.push(batch.governor.to_string());
        check(&got, GOLDEN_GOVERNED);
    }
}
