//! Cross-crate checks of the paper's *qualitative* claims at test scale:
//! Gorder wins its own objective, reduces simulated cache misses vs
//! Random, and the specialist orderings win their home turf (RCM on
//! bandwidth, annealing on its energies).

use gorder::cachesim::trace::{pagerank as traced_pr, TraceCtx};
use gorder::cachesim::{CacheHierarchy, HierarchyConfig, Tracer};
use gorder::prelude::*;
use gorder_core::score::{bandwidth_of, f_score_of, minla_energy_of};
use rand::SeedableRng;

fn structured_graph() -> Graph {
    // shuffle so no ordering gets the answer for free from the generator
    let g = gorder::graph::datasets::wiki_like().build(0.03);
    let shuffle = Permutation::random(g.n(), &mut rand::rngs::StdRng::seed_from_u64(3));
    g.relabel(&shuffle)
}

#[test]
fn gorder_wins_its_own_objective() {
    let g = structured_graph();
    let w = 5;
    let scores: Vec<(String, u64)> = gorder::orders::all(4)
        .iter()
        .map(|o| (o.name().to_string(), f_score_of(&g, &o.compute(&g), w)))
        .collect();
    let gorder = scores.iter().find(|(n, _)| n == "Gorder").unwrap().1;
    for (name, f) in &scores {
        assert!(
            gorder >= *f,
            "Gorder F = {gorder} beaten by {name} = {f} on its own objective"
        );
    }
}

#[test]
fn gorder_beats_random_on_simulated_cache_misses() {
    let g = structured_graph();
    let ctx = TraceCtx {
        pr_iterations: 3,
        ..Default::default()
    };
    let miss_rate = |perm: &Permutation| {
        let rg = g.relabel(perm);
        let mut t = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
        traced_pr(&rg, &mut t, &ctx);
        t.stats().l1_miss_rate
    };
    let random = miss_rate(&Permutation::random(
        g.n(),
        &mut rand::rngs::StdRng::seed_from_u64(5),
    ));
    let gorder = miss_rate(&GorderBuilder::new().build().compute(&g));
    assert!(
        gorder < random * 0.9,
        "gorder L1 miss rate {gorder:.3} should clearly beat random {random:.3}"
    );
}

#[test]
fn rcm_has_best_bandwidth() {
    let g = structured_graph();
    let bw: Vec<(String, u32)> = gorder::orders::all(6)
        .iter()
        .map(|o| (o.name().to_string(), bandwidth_of(&g, &o.compute(&g))))
        .collect();
    let rcm = bw.iter().find(|(n, _)| n == "RCM").unwrap().1;
    // The arrangement-energy optimisers (MinLA/MinLogA) and Gorder chase
    // correlated objectives and may occasionally edge RCM out; the claim
    // that must hold is that RCM beats every ordering that does not
    // optimise an arrangement objective at all.
    for (name, b) in &bw {
        if matches!(name.as_str(), "MinLA" | "MinLogA" | "Gorder" | "RCM") {
            continue;
        }
        assert!(
            rcm < *b,
            "RCM bandwidth {rcm} should beat non-arrangement ordering {name} = {b}"
        );
    }
}

#[test]
fn minla_wins_its_own_energy() {
    let g = structured_graph();
    let energies: Vec<(String, u64)> = gorder::orders::all(8)
        .iter()
        .map(|o| (o.name().to_string(), minla_energy_of(&g, &o.compute(&g))))
        .collect();
    let minla = energies.iter().find(|(n, _)| n == "MinLA").unwrap().1;
    let random = energies.iter().find(|(n, _)| n == "Random").unwrap().1;
    assert!(
        minla < random,
        "MinLA energy {minla} should beat Random {random}"
    );
}

#[test]
fn chdfs_gives_dfs_a_sequential_walk() {
    // After ChDFS reordering, the DFS preorder from the same start is
    // close to 0,1,2,…: measure how many preorder steps are +1 increments.
    let g = gorder::graph::datasets::pokec_like().build(0.05);
    let perm = gorder::orders::ChDfs.compute(&g);
    let rg = g.relabel(&perm);
    let start = rg.nodes().max_by_key(|&u| rg.degree(u)).unwrap();
    let r = gorder::algos::dfs::dfs(&rg, start);
    let sequential = r.preorder.windows(2).filter(|w| w[1] == w[0] + 1).count();
    assert!(
        sequential as f64 > 0.95 * (rg.n() as f64 - 1.0),
        "ChDFS should make DFS visit ids sequentially: {sequential}/{}",
        rg.n() - 1
    );
}

#[test]
fn specialists_profile_differently() {
    // Sanity that the zoo isn't returning copies of one permutation.
    let g = structured_graph();
    let perms: Vec<(String, Permutation)> = gorder::orders::all(9)
        .iter()
        .map(|o| (o.name().to_string(), o.compute(&g)))
        .collect();
    for i in 0..perms.len() {
        for j in i + 1..perms.len() {
            // Original vs anything can coincide only on trivial graphs.
            assert_ne!(
                perms[i].1.as_slice(),
                perms[j].1.as_slice(),
                "{} and {} produced identical permutations",
                perms[i].0,
                perms[j].0
            );
        }
    }
}
