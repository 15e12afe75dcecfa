//! Property-based tests over random graphs: permutation group laws,
//! relabeling as a graph isomorphism, ordering validity for the whole zoo,
//! and algorithm invariance under arbitrary relabelings.

use gorder::prelude::*;
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

/// The unit heap's pop contract as a plain scan: the largest key wins,
/// and ties go to the element whose key changed most recently (LIFO
/// within a bucket). `stamp[u]` is the time of `u`'s last key change.
fn model_pop_max(keys: &[i64], stamp: &[u64], alive: &[bool]) -> Option<u32> {
    (0..keys.len())
        .filter(|&u| alive[u])
        .max_by_key(|&u| (keys[u], stamp[u]))
        .map(|u| u as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn permutation_inverse_roundtrip(g in arb_graph(60, 200), seed in any::<u64>()) {
        let p = arb_perm(g.n(), seed);
        let inv = p.inverse();
        prop_assert!(p.then(&inv).is_identity());
        prop_assert!(inv.then(&p).is_identity());
    }

    #[test]
    fn relabel_is_isomorphism(g in arb_graph(50, 150), seed in any::<u64>()) {
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        prop_assert_eq!(g.n(), h.n());
        prop_assert_eq!(g.m(), h.m());
        for (u, v) in g.edges() {
            prop_assert!(h.has_edge(p.apply(u), p.apply(v)));
        }
        // double relabel with inverse returns the original
        prop_assert_eq!(h.relabel(&p.inverse()), g);
    }

    #[test]
    fn every_ordering_is_a_valid_permutation(g in arb_graph(40, 120), seed in any::<u64>()) {
        for o in gorder::orders::all(seed) {
            let p = o.compute(&g);
            prop_assert_eq!(p.len(), g.n());
            let mut seen = vec![false; g.n() as usize];
            for u in g.nodes() {
                let t = p.apply(u) as usize;
                prop_assert!(!seen[t], "{} duplicates target {}", o.name(), t);
                seen[t] = true;
            }
        }
    }

    #[test]
    fn invariant_algorithms_survive_relabeling(g in arb_graph(40, 120), seed in any::<u64>()) {
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let src = g.max_degree_node().unwrap_or(0);
        let ctx_g = RunCtx { source: Some(src), pr_iterations: 5, diameter_samples: 2, ..Default::default() };
        let ctx_h = RunCtx { source: Some(p.apply(src)), ..ctx_g.clone() };
        for name in ["NQ", "BFS", "SCC", "SP", "Kcore", "WCC", "Tri"] {
            let run = |g: &Graph, ctx: &RunCtx| gorder::engine::run_by_name(name, g, ctx).unwrap().checksum;
            prop_assert_eq!(run(&g, &ctx_g), run(&h, &ctx_h), "{} not invariant", name);
        }
    }

    #[test]
    fn f_score_of_agrees_with_relabel(g in arb_graph(30, 80), seed in any::<u64>(), w in 1u32..8) {
        use gorder_core::score::{f_score, f_score_of};
        let p = arb_perm(g.n(), seed);
        prop_assert_eq!(f_score_of(&g, &p, w), f_score(&g.relabel(&p), w));
    }

    #[test]
    fn binary_io_roundtrip(g in arb_graph(40, 120)) {
        use gorder::graph::io::{read_binary, write_binary};
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        prop_assert_eq!(read_binary(&buf[..]).unwrap(), g);
    }

    #[test]
    fn edge_list_io_roundtrip(g in arb_graph(40, 120)) {
        use gorder::graph::io::{read_edge_list, write_edge_list};
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        // trailing isolated nodes are not representable in an edge list;
        // compare edge sets and the populated prefix
        prop_assert_eq!(g.edge_vec(), h.edge_vec());
        prop_assert!(h.n() <= g.n());
    }

    #[test]
    fn compression_roundtrip(g in arb_graph(50, 200)) {
        use gorder::graph::compress::CompressedGraph;
        let c = CompressedGraph::compress(&g);
        prop_assert_eq!(c.decompress(), g);
    }

    #[test]
    fn induced_subgraph_edges_are_exactly_internal(
        g in arb_graph(40, 150),
        keep_mask in proptest::collection::vec(any::<bool>(), 40),
    ) {
        use gorder::graph::subgraph::induced;
        let keep: Vec<u32> = (0..g.n()).filter(|&u| keep_mask[u as usize]).collect();
        let sub = induced(&g, &keep);
        prop_assert_eq!(sub.graph.n() as usize, keep.len());
        // every subgraph edge maps back to a parent edge
        for (a, b) in sub.graph.edges() {
            prop_assert!(g.has_edge(sub.to_original(a), sub.to_original(b)));
        }
        // every internal parent edge appears in the subgraph
        let expected = g
            .edges()
            .filter(|&(u, v)| keep.contains(&u) && keep.contains(&v))
            .count() as u64;
        prop_assert_eq!(sub.graph.m(), expected);
    }

    #[test]
    fn incremental_extension_is_always_valid(
        g in arb_graph(40, 120),
        split in 2u32..35,
    ) {
        use gorder::core::{Gorder, IncrementalGorder};
        use gorder::graph::GraphBuilder;
        let n = g.n();
        let k = split.min(n);
        let mut b = GraphBuilder::new(k);
        for (u, v) in g.edges().filter(|&(u, v)| u < k && v < k) {
            b.add_edge(u, v);
        }
        let prefix = b.build();
        let base = Gorder::with_defaults().compute(&prefix);
        let mut inc = IncrementalGorder::new(&base);
        inc.extend(&g);
        let perm = inc.permutation();
        prop_assert_eq!(perm.len(), n);
        let mut seen = vec![false; n as usize];
        for u in 0..n {
            let p = perm.apply(u) as usize;
            prop_assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn edge_list_with_garbage_line_always_errs(
        g in arb_graph(20, 60),
        pos in any::<usize>(),
        junk in "[a-z?!]{1,8}",
    ) {
        use gorder::graph::io::{read_edge_list, write_edge_list};
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        // splice a non-comment garbage line at an arbitrary line boundary
        let mut lines: Vec<&str> = std::str::from_utf8(&buf).unwrap().lines().collect();
        let at = pos % (lines.len() + 1);
        lines.insert(at, &junk);
        let corrupted = lines.join("\n");
        match read_edge_list(corrupted.as_bytes()) {
            Err(gorder::graph::io::GraphIoError::Parse { line, .. }) => {
                prop_assert_eq!(line, at + 1, "error should name the spliced line");
            }
            other => prop_assert!(false, "expected Parse error, got {:?}", other.map(|g| g.n())),
        }
    }

    #[test]
    fn edge_list_with_huge_id_always_errs(
        g in arb_graph(20, 60),
        big in (u32::MAX as u64)..u64::MAX,
    ) {
        use gorder::graph::io::{read_edge_list, write_edge_list, GraphIoError};
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let corrupted = format!("{}0 {big}\n", std::str::from_utf8(&buf).unwrap());
        match read_edge_list(corrupted.as_bytes()) {
            Err(GraphIoError::IdOutOfRange { value, .. }) => prop_assert_eq!(value, big),
            other => prop_assert!(false, "expected IdOutOfRange, got {:?}", other.map(|g| g.n())),
        }
    }

    #[test]
    fn truncated_binary_always_errs(g in arb_graph(40, 120), cut in any::<usize>()) {
        use gorder::graph::io::{read_binary, write_binary};
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // the format has a fixed total size, so every strict prefix is bad
        buf.truncate(cut % buf.len());
        prop_assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn truncated_matrix_market_always_errs(g in arb_graph(30, 80), cut in any::<usize>()) {
        use gorder::graph::io_mm::{read_matrix_market, write_matrix_market};
        prop_assume!(g.m() > 0);
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        // cut before the final entry line starts: at least one declared
        // entry is missing, so the header count can never be satisfied
        let text = std::str::from_utf8(&buf).unwrap();
        let last_line_start = text.trim_end().rfind('\n').unwrap() + 1;
        buf.truncate(cut % last_line_start);
        prop_assert!(read_matrix_market(&buf[..]).is_err());
    }

    #[test]
    fn matrix_market_with_huge_id_always_errs(
        g in arb_graph(20, 60),
        big in (u32::MAX as u64)..u64::MAX,
    ) {
        use gorder::graph::io_mm::{read_matrix_market, write_matrix_market};
        use gorder::graph::io::GraphIoError;
        prop_assume!(g.m() > 0);
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        // overwrite the last entry with a coordinate beyond the declared dims
        let text = std::str::from_utf8(&buf).unwrap();
        let last_line_start = text.trim_end().rfind('\n').unwrap() + 1;
        let corrupted = format!("{}1 {big}\n", &text[..last_line_start]);
        prop_assert!(matches!(
            read_matrix_market(corrupted.as_bytes()),
            Err(GraphIoError::IdOutOfRange { .. })
        ));
    }

    #[test]
    fn readers_never_panic_on_junk(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // robustness: arbitrary input may error, must not panic
        let _ = gorder::graph::io::read_edge_list(&bytes[..]);
        let _ = gorder::graph::io::read_binary(&bytes[..]);
        let _ = gorder::graph::io_mm::read_matrix_market(&bytes[..]);
    }

    #[test]
    fn readers_never_panic_on_junk_text(text in "[ -~\n]{0,256}") {
        let _ = gorder::graph::io::read_edge_list(text.as_bytes());
        let _ = gorder::graph::io_mm::read_matrix_market(text.as_bytes());
    }

    #[test]
    fn unit_heap_pops_in_key_order(ops in proptest::collection::vec((0u32..32, 0u8..3), 1..300)) {
        use gorder_core::UnitHeap;
        let mut h = UnitHeap::new(32);
        let mut keys = vec![0i64; 32];
        let mut alive = [true; 32];
        for (u, kind) in ops {
            match kind {
                0 | 1 => {
                    h.increment(u);
                    if alive[u as usize] { keys[u as usize] += 1; }
                }
                _ => {
                    if alive[u as usize] && keys[u as usize] > 0 {
                        h.decrement(u);
                        keys[u as usize] -= 1;
                    }
                }
            }
        }
        // draining pops must be non-increasing in (true) key
        let mut last: Option<i64> = None;
        while let Some(u) = h.pop_max() {
            let k = keys[u as usize];
            alive[u as usize] = false;
            if let Some(prev) = last {
                prop_assert!(k <= prev, "pop order violated: {} after {}", k, prev);
            }
            last = Some(k);
        }
        prop_assert!(alive.iter().all(|&a| !a));
    }

    #[test]
    fn unit_heap_pops_in_exact_lifo_order(
        ops in proptest::collection::vec((0u32..48, 0u8..10, 0i64..4), 1..300)
    ) {
        // LIFO tie-breaking is what keeps Gorder's permutation fixed, so
        // the exact pop sequence must match the model, not just its keys.
        use gorder_core::UnitHeap;
        const N: usize = 48;
        let mut h = UnitHeap::new(N as u32);
        let mut keys = vec![0i64; N];
        let mut alive = vec![true; N];
        // `new` chains 0..n into bucket 0 in id order: the highest id is
        // the most recent arrival.
        let mut stamp: Vec<u64> = (0..N as u64).collect();
        let mut clock = N as u64;
        for (u, kind, k) in ops {
            let i = u as usize;
            let delta = match kind {
                0 | 1 => 1,
                2 => -1,
                3 | 4 => k,
                5 | 6 => -k,
                7 => {
                    h.remove(u);
                    alive[i] = false;
                    continue;
                }
                _ => {
                    let want = model_pop_max(&keys, &stamp, &alive);
                    prop_assert_eq!(h.pop_max(), want);
                    if let Some(p) = want {
                        alive[p as usize] = false;
                    }
                    continue;
                }
            };
            // The greedy never drives a live key below zero.
            if alive[i] && keys[i] + delta < 0 {
                continue;
            }
            match kind {
                0 | 1 => h.increment(u),
                2 => h.decrement(u),
                _ => h.update(u, delta),
            }
            // Updates to a popped or removed element are no-ops.
            if alive[i] {
                keys[i] += delta;
                stamp[i] = clock;
                clock += 1;
            }
            prop_assert_eq!(h.contains(u), alive[i]);
            if alive[i] {
                prop_assert_eq!(i64::from(h.key(u)), keys[i]);
            }
        }
        prop_assert_eq!(h.len(), alive.iter().filter(|&&a| a).count());
        loop {
            let want = model_pop_max(&keys, &stamp, &alive);
            prop_assert_eq!(h.pop_max(), want);
            match want {
                Some(p) => alive[p as usize] = false,
                None => break,
            }
        }
    }
}
