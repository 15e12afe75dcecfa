//! The cache-simulator replays must *be* the algorithms: for every
//! kernel, the traced run (`TracerProbe`) returns the same checksum as
//! the wall-clock run (`NoProbe`), on multiple graphs and under multiple
//! orderings. This is what licenses reading the simulator's counters as
//! "the algorithm's cache behaviour".

use gorder::cachesim::trace::{replay, TraceCtx, TRACED_ALGOS, TRACED_EXTENSIONS};
use gorder::cachesim::{CacheHierarchy, HierarchyConfig, Tracer};
use gorder::engine::{all_kernel_names, run_by_name};
use gorder::prelude::*;

fn graphs() -> Vec<Graph> {
    vec![
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (0, 3), (4, 5)]),
        gorder::graph::datasets::epinion_like().build(0.06),
        gorder::graph::gen::copying_model(300, 5, 0.6, 9),
    ]
}

fn ctx(seed: u64) -> TraceCtx {
    TraceCtx {
        source: None,
        pr_iterations: 7,
        damping: 0.85,
        diameter_samples: 3,
        seed,
    }
}

/// Asserts that `name` returns the same checksum under `NoProbe` and
/// under the cache tracer.
fn assert_probes_agree(name: &str, g: &Graph, ctx: &TraceCtx, what: &str) {
    let expected = run_by_name(name, g, ctx).unwrap().checksum;
    let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
    let traced = replay(name, g, &mut tracer, ctx).unwrap();
    assert_eq!(traced, expected, "{name} diverges {what}");
}

#[test]
fn replayers_match_algorithms_on_plain_graphs() {
    let ctx = ctx(5);
    for (gi, g) in graphs().iter().enumerate() {
        for name in TRACED_ALGOS {
            assert_probes_agree(name, g, &ctx, &format!("on graph {gi}"));
        }
    }
}

#[test]
fn replayers_match_algorithms_under_reordering() {
    let g = gorder::graph::datasets::epinion_like().build(0.05);
    let mut ctx = ctx(8);
    let logical = g.max_degree_node().unwrap();
    for ordering in ["Random", "RCM", "Gorder"] {
        let perm = gorder::orders::by_name(ordering, 2).unwrap().compute(&g);
        let rg = g.relabel(&perm);
        ctx.source = Some(perm.apply(logical));
        for name in all_kernel_names() {
            assert_probes_agree(name, &rg, &ctx, &format!("under {ordering}"));
        }
    }
}

#[test]
fn extension_replayers_match_algorithms() {
    let ctx = ctx(3);
    for (gi, g) in graphs().iter().enumerate() {
        for name in TRACED_EXTENSIONS {
            assert_probes_agree(name, g, &ctx, &format!("on graph {gi}"));
        }
    }
}

/// The simulator actually exercises deeper levels on a graph bigger than
/// its scaled-down L1.
#[test]
fn replays_produce_plausible_cache_traffic() {
    let g = gorder::graph::datasets::epinion_like().build(0.3);
    let ctx = ctx(1);
    for name in all_kernel_names() {
        let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
        replay(name, &g, &mut tracer, &ctx).unwrap();
        let s = tracer.stats();
        assert!(s.l1_refs > u64::from(g.n()), "{name}: too few references");
        assert!(s.l1_miss_rate > 0.0, "{name}: suspiciously perfect L1");
        assert!(s.l1_miss_rate < 0.9, "{name}: suspiciously terrible L1");
        assert!(
            s.cache_miss_rate <= s.l1_miss_rate,
            "{name}: level filter inverted"
        );
    }
}
