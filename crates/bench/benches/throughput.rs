//! Wall-clock microbenchmarks of the command-queue substrate: the indexed
//! visible-window queue vs. the original alloc-and-sort scheduler
//! (`ReferenceDisk`), per visible window depth. These measure real CPU
//! time — the simulated clock is the *workload*, not the metric.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pathix_bench::throughput::{drain, micro_profile};
use pathix_storage::{ReferenceDisk, SimDisk};

const PENDING: usize = 2048;

fn bench_queue_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_drain");
    group.throughput(Throughput::Elements(PENDING as u64));
    for depth in [1usize, 8, 32, 128, 512] {
        let profile = micro_profile(depth);
        group.bench_with_input(BenchmarkId::new("indexed", depth), &depth, |b, _| {
            b.iter(|| drain(&mut SimDisk::with_profile(64, profile), PENDING))
        });
        group.bench_with_input(BenchmarkId::new("reference", depth), &depth, |b, _| {
            b.iter(|| drain(&mut ReferenceDisk::with_profile(64, profile), PENDING))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queue_drain);
criterion_main!(benches);
