//! Differential suite for the engine's parallel execution layer: every
//! kernel, on every generated graph family and under every ordering,
//! must produce **byte-identical** results and identical work counters
//! at any thread count. Parallelism is a scheduling decision, never an
//! accuracy knob — this suite is what makes that contract enforceable.
//!
//! `GORDER_TEST_THREADS` (the CI matrix variable) adds an extra thread
//! count to the built-in {1, 2, 3, 7} sweep.

use gorder_engine::kernels::{bfs, diameter, kcore, pagerank};
use gorder_engine::{run_by_name, run_by_name_plan, ExecPlan, KernelCtx as RunCtx, PAPER_KERNELS};
use gorder_graph::gen::{erdos_renyi, web_graph, WebGraphConfig};
use gorder_graph::Graph;

/// Thread counts under test: serial, even, odd, and more-than-cores-ish;
/// plus whatever the CI matrix pins via `GORDER_TEST_THREADS`.
fn thread_counts() -> Vec<u32> {
    let mut counts = vec![1, 2, 3, 7];
    if let Some(extra) = std::env::var("GORDER_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
    {
        if extra > 0 && !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

fn quick_ctx() -> RunCtx {
    RunCtx {
        pr_iterations: 5,
        diameter_samples: 3,
        ..Default::default()
    }
}

/// One representative of each generated family the repo benchmarks on:
/// host-structured web, uniform ER, and a regular 2-D grid (the shape
/// that stresses level-synchronous BFS with wide frontiers).
fn test_graphs() -> Vec<(&'static str, Graph)> {
    let web = web_graph(WebGraphConfig {
        n: 300,
        mean_host_size: 12,
        seed: 5,
        ..Default::default()
    });
    let er = erdos_renyi(250, 800, 7);
    let side = 16u32;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let u = r * side + c;
            if c + 1 < side {
                edges.push((u, u + 1));
                edges.push((u + 1, u));
            }
            if r + 1 < side {
                edges.push((u, u + side));
                edges.push((u + side, u));
            }
        }
    }
    let grid = Graph::from_edges(side * side, &edges);
    vec![("web", web), ("er", er), ("grid", grid)]
}

/// Serial vs parallel over the full (graph × ordering × kernel × threads)
/// cross product: checksums and work counters must match exactly, and the
/// run must report the thread count it was given.
#[test]
fn every_kernel_matches_serial_under_every_ordering_and_thread_count() {
    let ctx = quick_ctx();
    let counts = thread_counts();
    for (family, g) in test_graphs() {
        for o in gorder_orders::all(42) {
            let perm = o.compute(&g);
            let rg = g.relabel(&perm);
            for name in PAPER_KERNELS {
                let serial = run_by_name(name, &rg, &ctx).expect("paper kernel");
                for &t in &counts {
                    let par = run_by_name_plan(name, &rg, &ctx, ExecPlan::with_threads(t))
                        .expect("paper kernel");
                    let tag = format!("{name} on {family}/{} at {t} threads", o.name());
                    assert_eq!(serial.checksum, par.checksum, "{tag}: checksum");
                    assert_eq!(
                        serial.stats.iterations, par.stats.iterations,
                        "{tag}: iterations"
                    );
                    assert_eq!(
                        serial.stats.edges_relaxed, par.stats.edges_relaxed,
                        "{tag}: edges_relaxed"
                    );
                    assert_eq!(par.stats.threads_used, t, "{tag}: threads_used");
                }
            }
        }
    }
}

/// The result vectors themselves — not just checksums — must be
/// byte-identical: PageRank compared at the `f64::to_bits` level, BFS by
/// full visit order and depths, Kcore by core numbers, Diam by estimate
/// and sampled sources.
#[test]
fn parallel_result_vectors_are_byte_identical() {
    for (family, g) in test_graphs() {
        let serial_pr = pagerank::pagerank_with_plan(&g, 20, 0.85, ExecPlan::Serial);
        let serial_bfs = bfs::bfs_with_plan(&g, 0, ExecPlan::Serial);
        let serial_kcore = kcore::kcore_with_plan(&g, ExecPlan::Serial);
        let serial_diam = diameter::diameter_with_plan(&g, 5, 42, ExecPlan::Serial);
        // Filter by value, not position: the serial baseline is "t == 1"
        // wherever it sits, including a GORDER_TEST_THREADS-appended 1.
        for t in thread_counts().into_iter().filter(|&t| t > 1) {
            let plan = ExecPlan::with_threads(t);
            let pr = pagerank::pagerank_with_plan(&g, 20, 0.85, plan);
            let bits = |r: &pagerank::PageRankResult| -> Vec<u64> {
                r.rank.iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(
                bits(&serial_pr),
                bits(&pr),
                "PR ranks drift on {family} at {t} threads"
            );
            assert_eq!(
                serial_bfs,
                bfs::bfs_with_plan(&g, 0, plan),
                "BFS visit order drifts on {family} at {t} threads"
            );
            assert_eq!(
                serial_kcore,
                kcore::kcore_with_plan(&g, plan),
                "Kcore drifts on {family} at {t} threads"
            );
            assert_eq!(
                serial_diam,
                diameter::diameter_with_plan(&g, 5, 42, plan),
                "Diam drifts on {family} at {t} threads"
            );
        }
    }
}

/// Degenerate graphs must run (not panic) at every thread count: an
/// empty row range split across workers is the classic off-by-one trap.
#[test]
fn degenerate_graphs_run_at_every_thread_count() {
    let ctx = quick_ctx();
    let degenerates = [
        ("empty", Graph::empty(0)),
        ("single", Graph::empty(1)),
        ("isolated", Graph::empty(64)),
    ];
    for (label, g) in &degenerates {
        for &t in &thread_counts() {
            for name in PAPER_KERNELS {
                let run = run_by_name_plan(name, g, &ctx, ExecPlan::with_threads(t))
                    .expect("paper kernel");
                let serial = run_by_name(name, g, &ctx).expect("paper kernel");
                assert_eq!(
                    serial.checksum, run.checksum,
                    "{name} on {label} at {t} threads"
                );
            }
        }
    }
}
