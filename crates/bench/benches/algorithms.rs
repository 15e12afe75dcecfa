//! Criterion micro-bench: every benchmark algorithm under the Original
//! order vs Gorder (Figure 5 in micro-benchmark form) on a small
//! flickr-like graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gorder_core::Gorder;
use gorder_engine::{run_by_name, KernelCtx, PAPER_KERNELS};
use std::hint::black_box;

fn bench_algorithms(c: &mut Criterion) {
    let g = gorder_graph::datasets::flickr_like().build(0.05);
    let perm = Gorder::with_defaults().compute(&g);
    let reordered = g.relabel(&perm);
    let source = g.max_degree_node().unwrap_or(0);
    let ctx_orig = KernelCtx {
        source: Some(source),
        pr_iterations: 10,
        diameter_samples: 2,
        ..Default::default()
    };
    let ctx_gord = KernelCtx {
        source: Some(perm.apply(source)),
        ..ctx_orig.clone()
    };

    let mut group = c.benchmark_group("algorithm_runtime");
    group.sample_size(10);
    for name in PAPER_KERNELS {
        group.bench_with_input(
            BenchmarkId::new(name, "Original"),
            &(&g, &ctx_orig),
            |b, (g, ctx)| b.iter(|| black_box(run_by_name(name, black_box(g), ctx))),
        );
        group.bench_with_input(
            BenchmarkId::new(name, "Gorder"),
            &(&reordered, &ctx_gord),
            |b, (g, ctx)| b.iter(|| black_box(run_by_name(name, black_box(g), ctx))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
