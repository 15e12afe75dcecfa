//! Property-based tests for the kernel execution engine: every kernel
//! run through [`gorder_engine::run_by_name`] must produce
//! relabeling-invariant results (checksums where the underlying quantity
//! is invariant, structural properties where it is not), and the
//! result-returning library functions (`gorder::algos::*`) must agree
//! with the engine runs exactly.

use gorder::prelude::*;
use gorder_engine::{run_by_name, run_by_name_plan, ExecPlan};
use proptest::prelude::*;

/// Strategy: a directed graph with up to `max_n` nodes and `max_m` edges.
fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// Strategy: a valid permutation of n elements from a shuffle seed.
fn arb_perm(n: u32, seed: u64) -> Permutation {
    use rand::SeedableRng;
    Permutation::random(n, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// A fast context for property runs: few PR iterations, few Diam samples.
fn quick_ctx(source: Option<u32>) -> RunCtx {
    RunCtx {
        source,
        pr_iterations: 5,
        diameter_samples: 2,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Kernels whose checksums hash relabeling-invariant quantities must
    // return bit-identical checksums on an isomorphic copy (with the
    // source mapped through the permutation for the rooted traversals).
    #[test]
    fn integer_kernels_invariant_under_relabel(g in arb_graph(60, 200), seed in any::<u64>()) {
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let src = g.max_degree_node().unwrap_or(0);
        let ctx_g = quick_ctx(Some(src));
        let ctx_h = quick_ctx(Some(p.apply(src)));
        for name in ["NQ", "BFS", "SP", "SCC", "Kcore", "WCC", "Tri"] {
            let rg = run_by_name(name, &g, &ctx_g).expect("kernel");
            let rh = run_by_name(name, &h, &ctx_h).expect("kernel");
            prop_assert_eq!(rg.checksum, rh.checksum, "{} checksum not invariant", name);
        }
    }

    // PageRank values (floating point, so not hashed exactly) must map
    // through the permutation up to accumulated rounding error.
    #[test]
    fn pagerank_values_map_through_relabel(g in arb_graph(50, 150), seed in any::<u64>()) {
        use gorder_engine::kernels::pagerank::pagerank;
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let rg = pagerank(&g, 30, 0.85);
        let rh = pagerank(&h, 30, 0.85);
        for u in g.nodes() {
            let a = rg.rank[u as usize];
            let b = rh.rank[p.apply(u) as usize];
            prop_assert!((a - b).abs() < 1e-9, "node {}: {} vs {}", u, a, b);
        }
    }

    // Diameter from explicitly mapped sources is an integer quantity and
    // must be exactly invariant (the seeded sampler picks by node id, so
    // invariance only holds when the sources are pinned).
    #[test]
    fn diameter_invariant_with_mapped_sources(g in arb_graph(50, 150), seed in any::<u64>()) {
        use gorder_engine::kernels::diameter::diameter_from_sources;
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let sources: Vec<u32> = (0..g.n()).step_by(7).collect();
        let mapped: Vec<u32> = sources.iter().map(|&u| p.apply(u)).collect();
        let dg = diameter_from_sources(&g, &sources);
        let dh = diameter_from_sources(&h, &mapped);
        prop_assert_eq!(dg.lower_bound, dh.lower_bound);
    }

    // DFS discovery order is id-dependent, so its checksum is not
    // invariant — but the traversal must stay deterministic and scan
    // every edge exactly once on any relabeling.
    #[test]
    fn dfs_deterministic_and_scans_every_edge(g in arb_graph(60, 200), seed in any::<u64>()) {
        let p = arb_perm(g.n(), seed);
        let ctx = quick_ctx(None);
        for graph in [&g, &g.relabel(&p)] {
            let a = run_by_name("DFS", graph, &ctx).expect("paper kernel");
            let b = run_by_name("DFS", graph, &ctx).expect("paper kernel");
            prop_assert_eq!(a.checksum, b.checksum, "DFS not deterministic");
            prop_assert_eq!(a.stats.edges_relaxed, graph.m(), "DFS must scan each edge once");
        }
    }

    // Greedy dominating-set tie-breaks by id, so the chosen set may
    // differ across relabelings — but it must always dominate.
    #[test]
    fn dominating_set_dominates_any_relabeling(g in arb_graph(60, 200), seed in any::<u64>()) {
        use gorder_engine::kernels::domset::dominating_set;
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let r = dominating_set(&h);
        let mut covered = vec![false; h.n() as usize];
        for &u in &r.set {
            covered[u as usize] = true;
            for &v in h.out_neighbors(u) {
                covered[v as usize] = true;
            }
        }
        for u in h.nodes() {
            prop_assert!(covered[u as usize], "node {} not dominated", u);
        }
    }

    // Parallel plans are a scheduling decision only: at any thread count,
    // every kernel must return the serial checksum and the serial work
    // counters on arbitrary graphs.
    #[test]
    fn parallel_plans_never_change_results(g in arb_graph(60, 200), threads in 2u32..8) {
        let ctx = quick_ctx(None);
        let plan = ExecPlan::with_threads(threads);
        for name in gorder_engine::all_kernel_names() {
            let serial = run_by_name(name, &g, &ctx).expect("kernel");
            let par = run_by_name_plan(name, &g, &ctx, plan).expect("kernel");
            prop_assert_eq!(serial.checksum, par.checksum, "{} checksum at {} threads", name, threads);
            prop_assert_eq!(serial.stats.iterations, par.stats.iterations, "{} iterations", name);
            prop_assert_eq!(serial.stats.edges_relaxed, par.stats.edges_relaxed, "{} edges", name);
            prop_assert_eq!(par.stats.threads_used, threads, "{} threads_used", name);
        }
    }

    // Relabeling and parallelising commute: for the invariant kernels, a
    // parallel run on an isomorphic copy (source mapped through the
    // permutation) must equal the serial run on the original.
    #[test]
    fn relabel_and_parallelize_commute(g in arb_graph(60, 200), seed in any::<u64>(), threads in 1u32..8) {
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let src = g.max_degree_node().unwrap_or(0);
        let ctx_g = quick_ctx(Some(src));
        let ctx_h = quick_ctx(Some(p.apply(src)));
        let plan = ExecPlan::with_threads(threads);
        for name in ["NQ", "BFS", "SP", "SCC", "Kcore"] {
            let serial_g = run_by_name(name, &g, &ctx_g).expect("paper kernel");
            let par_h = run_by_name_plan(name, &h, &ctx_h, plan).expect("paper kernel");
            prop_assert_eq!(
                serial_g.checksum, par_h.checksum,
                "{} serial-on-g vs {}-thread-on-relabel", name, threads
            );
        }
    }

    // PageRank's determinism contract is bit-level: the parallel rank
    // vector must equal the serial one at `f64::to_bits` granularity on
    // arbitrary graphs and thread counts.
    #[test]
    fn pagerank_parallel_is_bit_identical(g in arb_graph(50, 150), threads in 2u32..8) {
        use gorder_engine::kernels::pagerank::pagerank_with_plan;
        let serial = pagerank_with_plan(&g, 20, 0.85, ExecPlan::Serial);
        let par = pagerank_with_plan(&g, 20, 0.85, ExecPlan::with_threads(threads));
        for u in g.nodes() {
            prop_assert_eq!(
                serial.rank[u as usize].to_bits(),
                par.rank[u as usize].to_bits(),
                "node {} at {} threads", u, threads
            );
        }
    }

    // Every result-returning library function must fold to exactly the
    // checksum the engine reports for the same kernel, graph and
    // parameters — the library and the harness see one implementation.
    #[test]
    fn library_functions_agree_with_engine(g in arb_graph(40, 120), seed in any::<u64>()) {
        use gorder::algos::*;
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let src = h.max_degree_node().unwrap_or(0);
        let ctx = quick_ctx(Some(src));
        let square_sum = |sizes: &[u32]| {
            sizes.iter().fold(sizes.len() as u64, |a, &s| a + u64::from(s) * u64::from(s))
        };
        let b = bfs::bfs(&h, src);
        let d = dfs::dfs(&h, src);
        let labels = labelprop::label_propagation(&h, 20);
        let mut distinct = labels.label.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let expected = [
            ("NQ", nq::neighbor_query(&h).iter().sum::<u64>()),
            ("BFS", b.order[..b.primary_reached as usize]
                .iter()
                .fold(u64::from(b.primary_reached), |a, &u| a + u64::from(b.depth[u as usize]))),
            ("DFS", (d.preorder.len() as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ u64::from(d.tree_edges)),
            ("SCC", square_sum(&scc::scc(&h).sizes)),
            ("SP", sp::bellman_ford(&h, src)
                .dist
                .iter()
                .filter(|&&x| x != u32::MAX)
                .map(|&x| u64::from(x) + 1)
                .sum()),
            ("PR", (pagerank::pagerank(&h, 5, 0.85).rank.iter().sum::<f64>() * 1e6).round() as u64),
            ("DS", u64::from(domset::dominating_set(&h).size())),
            ("Kcore", kcore::kcore(&h).core.iter().map(|&c| u64::from(c) * u64::from(c)).sum()),
            ("Diam", u64::from(diameter::diameter(&h, 2, ctx.seed).lower_bound)),
            ("WCC", square_sum(&wcc::wcc(&h).sizes)),
            ("Tri", triangles::count_triangles(&h)),
            ("LP", (distinct.len() as u64) << 8 | u64::from(labels.iterations)),
            ("BC", (betweenness::betweenness(&h, 8, ctx.seed).score.iter().sum::<f64>() * 1e3)
                .round() as u64),
        ];
        for (name, want) in expected {
            let run = run_by_name(name, &h, &ctx).expect("kernel");
            prop_assert_eq!(run.checksum, want, "{} library result drifts", name);
        }
    }
}
