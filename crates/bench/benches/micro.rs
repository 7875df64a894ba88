//! Micro-benchmarks of the substrates: navigation primitives, buffer
//! manager, page codec, XML parsing and document generation. These measure
//! real CPU time (the simulated clock is irrelevant here).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pathix_storage::{BufferParams, MemDevice, SimClock};
use pathix_tree::{
    import_into, Entry, ImportConfig, NavCharge, NavCounters, NavParams, Placement, ResolvedTest,
    StepCursor, TreeStore,
};
use pathix_xpath::{Axis, NodeTest};
use std::rc::Rc;

fn store_for_micro() -> TreeStore {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.05));
    let mut dev = MemDevice::new(8192);
    let (meta, _) = import_into(
        &mut dev,
        &doc,
        &ImportConfig {
            page_size: 8192,
            placement: Placement::Sequential,
        },
    )
    .expect("generated document imports cleanly");
    TreeStore::open(
        Box::new(dev),
        meta,
        BufferParams::default(),
        Rc::new(SimClock::new()),
    )
}

fn bench_navigation(c: &mut Criterion) {
    let store = store_for_micro();
    let cluster = store.fix_node(store.root());
    let test = ResolvedTest::resolve(&NodeTest::AnyElement, &store.meta.symbols);
    let counters = NavCounters::default();
    let clock = SimClock::new();
    let charge = NavCharge {
        clock: &clock,
        params: NavParams::default(),
        counters: &counters,
    };
    let mut group = c.benchmark_group("nav_step_cursor");
    group.throughput(Throughput::Elements(cluster.len() as u64));
    group.bench_function("descendant_scan_cluster", |b| {
        b.iter(|| {
            let mut cursor = StepCursor::new(
                cluster.clone(),
                Entry::Fresh(store.root().slot),
                Axis::Descendant,
                test.clone(),
            );
            let mut n = 0u32;
            while cursor.next(&charge).is_some() {
                n += 1;
            }
            n
        })
    });
    group.finish();
}

fn bench_buffer_fix(c: &mut Criterion) {
    let store = store_for_micro();
    store.fix(store.meta.base_page); // warm
    c.bench_function("buffer_fix_hit", |b| {
        b.iter(|| store.fix(store.meta.base_page))
    });
}

fn bench_codec(c: &mut Criterion) {
    let store = store_for_micro();
    let cluster = store.fix_node(store.root());
    let bytes: std::sync::Arc<[u8]> = pathix_tree::node::encode_cluster(&cluster, 8192).into();
    let clock = SimClock::new();
    let mut group = c.benchmark_group("page_codec");
    group.throughput(Throughput::Elements(cluster.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| pathix_tree::node::encode_cluster(&cluster, 8192))
    });
    group.bench_function("decode", |b| {
        b.iter(|| pathix_tree::node::decode_cluster(0, &bytes, &clock))
    });
    group.finish();
}

fn bench_xml(c: &mut Criterion) {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.02));
    let text = pathix_xml::serialize(&doc);
    let mut group = c.benchmark_group("xml");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("parse", |b| {
        b.iter(|| pathix_xml::parse(&text).expect("round-trip parses"))
    });
    group.bench_function("serialize", |b| b.iter(|| pathix_xml::serialize(&doc)));
    group.finish();
}

fn bench_generator(c: &mut Criterion) {
    c.bench_function("xmlgen_scale_0_05", |b| {
        b.iter(|| pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.05)))
    });
}

fn bench_import(c: &mut Criterion) {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.05));
    c.bench_function("import_scale_0_05", |b| {
        b.iter(|| {
            let mut dev = MemDevice::new(8192);
            import_into(
                &mut dev,
                &doc,
                &ImportConfig {
                    page_size: 8192,
                    placement: Placement::Sequential,
                },
            )
            .expect("generated document imports cleanly")
            .1
            .clusters
        })
    });
}

criterion_group!(
    benches,
    bench_navigation,
    bench_buffer_fix,
    bench_codec,
    bench_xml,
    bench_generator,
    bench_import
);
criterion_main!(benches);
