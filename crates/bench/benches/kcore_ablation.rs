//! Criterion micro-bench: bucket-queue vs binary-heap k-core peeling —
//! the ablation invited by the replication's "binary heap … quasi-linear"
//! implementation note (DESIGN.md §8).

use criterion::{criterion_group, criterion_main, Criterion};
use gorder_engine::kernels::kcore::{kcore, kcore_binary_heap};
use std::hint::black_box;

fn bench_kcore(c: &mut Criterion) {
    let g = gorder_graph::datasets::pokec_like().build(0.1);
    let mut group = c.benchmark_group("kcore");
    group.sample_size(10);
    group.bench_function("bucket_queue", |b| {
        b.iter(|| black_box(kcore(black_box(&g))))
    });
    group.bench_function("binary_heap", |b| {
        b.iter(|| black_box(kcore_binary_heap(black_box(&g))))
    });
    group.finish();
}

criterion_group!(benches, bench_kcore);
criterion_main!(benches);
