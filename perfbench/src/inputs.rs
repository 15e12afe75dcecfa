//! Seeded workload inputs: kernel sources and the served request
//! sequence. The graphs themselves are the deterministic
//! `graph::datasets` recipes; the seed only chooses what runs on them.

use gorder_graph::{Graph, NodeId};
use gorder_serve::{Request, WorkSpec};

/// SplitMix64: a tiny, well-mixed generator; the same seed always
/// yields the same stream.
struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `k` BFS/SP source nodes drawn among the nodes of `g` with out-degree
/// greater than zero, as ids of `g` (map them through each ordering's
/// permutation before use).
pub fn pick_sources(g: &Graph, seed: u64, k: usize) -> Vec<NodeId> {
    let candidates: Vec<NodeId> = g.nodes().filter(|&u| g.out_degree(u) > 0).collect();
    assert!(!candidates.is_empty(), "graph has no node with out-edges");
    let mut rng = SplitMix64::new(seed ^ 0x5eed_5005);
    let n = candidates.len() as u64;
    (0..k).map(|_| candidates[rng.below(n) as usize]).collect()
}

/// Datasets the serve daemon pre-loads: one social, one web recipe.
pub const SERVE_DATASETS: [&str; 2] = ["flickr", "wiki"];
/// Orderings warmed into the daemon's cache before timing.
pub const SERVE_ORDERINGS: [&str; 2] = ["Gorder", "RCM"];
/// Kernels served by `run` requests (WCC is an extension kernel).
pub const RUN_ALGOS: [&str; 4] = ["NQ", "BFS", "SP", "WCC"];
/// Kernels served by `simulate` requests (PR is too slow to serve here).
pub const SIMULATE_ALGOS: [&str; 2] = ["NQ", "BFS"];
/// Orderings `order` requests compute with fresh seeds.
pub const FRESH_ORDERINGS: [&str; 2] = ["RCM", "DBG"];

/// The served request sequence for `seed`: mostly `run` over cached
/// orderings (or none), some `simulate`, and some `order` with a seed
/// never used before in the sequence, so each is computed and written
/// to the cache.
///
/// The sequence is made of blocks with a fixed make-up — every `run`
/// combination of dataset, label and kernel, one `simulate` per dataset
/// and label (NQ in even blocks, BFS in odd ones), and one `order` per
/// dataset and fresh-seed ordering — shuffled by the seed. So the seed
/// chooses the order of requests but not the mix, and runs on different
/// seeds measure the same work.
pub fn request_sequence(seed: u64, len: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    let labels: [Option<&str>; 3] = [None, Some(SERVE_ORDERINGS[0]), Some(SERVE_ORDERINGS[1])];
    let spec = |dataset: &str, ordering: Option<&str>, algo: Option<&str>, seed: u64| WorkSpec {
        dataset: dataset.to_string(),
        ordering: ordering.map(str::to_string),
        algo: algo.map(str::to_string),
        window: 5,
        seed,
        timeout_ms: None,
        threads: 1,
    };
    let mut seq: Vec<Request> = Vec::with_capacity(len);
    let mut block = 0;
    while seq.len() < len {
        let mut b = Vec::new();
        for dataset in SERVE_DATASETS {
            for ordering in labels {
                for algo in RUN_ALGOS {
                    b.push(Request::Run(spec(dataset, ordering, Some(algo), 0)));
                }
                let algo = SIMULATE_ALGOS[block % SIMULATE_ALGOS.len()];
                b.push(Request::Simulate(spec(dataset, ordering, Some(algo), 0)));
            }
            for ordering in FRESH_ORDERINGS {
                // The top bit keeps fresh seeds clear of the warm-up seed
                // 0; the position in the low bits keeps them distinct.
                let fresh = 1 << 63 | seed << 32 | (seq.len() + b.len()) as u64;
                b.push(Request::Order(spec(dataset, Some(ordering), None, fresh)));
            }
        }
        // Fisher–Yates.
        for i in (1..b.len()).rev() {
            b.swap(i, rng.below(i as u64 + 1) as usize);
        }
        seq.extend(b);
        block += 1;
    }
    seq.truncate(len);
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_graph::datasets;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let a = request_sequence(7, 200);
        assert_eq!(a, request_sequence(7, 200));
        assert_ne!(a, request_sequence(8, 200));
    }

    #[test]
    fn sequence_mixes_every_op_and_fresh_seeds_never_repeat() {
        let seq = request_sequence(3, 2 * 34 * 10);
        let count = |op: &str| seq.iter().filter(|r| r.op() == op).count();
        assert_eq!(
            (count("run"), count("simulate"), count("order")),
            (480, 120, 80)
        );
        let mut seeds: Vec<u64> = seq
            .iter()
            .filter_map(|r| match r {
                Request::Order(s) => Some(s.seed),
                _ => None,
            })
            .collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "order seeds repeat");
        assert!(seeds.iter().all(|&s| s != 0));
        for r in &seq {
            let line = gorder_serve::render_request(r);
            assert_eq!(&gorder_serve::parse_request(&line).expect("parses"), r);
        }
    }

    #[test]
    fn sources_are_seeded_and_have_out_edges() {
        let g = datasets::epinion_like().build(0.25);
        let a = pick_sources(&g, 11, 16);
        assert_eq!(a, pick_sources(&g, 11, 16));
        assert_ne!(a, pick_sources(&g, 12, 16));
        assert!(a.iter().all(|&u| g.out_degree(u) > 0));
    }
}
