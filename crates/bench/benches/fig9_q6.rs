//! Figure 9 (XMark Q6'): `count(/site/regions//item)` per physical plan.
//!
//! Criterion measures the real wall time of executing each plan over the
//! simulated device (the simulated I/O latency is accounted on the virtual
//! clock, not slept); the paper-style simulated-seconds series is table
//! `fig9_q6` of `report paper`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathix::Method;
use pathix_bench::{build_db, run_cold, Q6};

fn bench_fig9(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_q6");
    group.sample_size(10);
    for sf in [0.1, 0.25] {
        let db = build_db(sf);
        for method in [Method::Simple, Method::xschedule(), Method::XScan] {
            group.bench_with_input(BenchmarkId::new(method.label(), sf), &method, |b, &m| {
                b.iter(|| run_cold(&db, Q6, m).value)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
