//! BC — approximate betweenness centrality (extension kernel).
//!
//! Brandes' algorithm from a sampled set of source nodes: one BFS per
//! source plus a reverse dependency-accumulation sweep. Normalised by the
//! sample count, this is the standard unbiased estimator of betweenness.
//! The accumulation pass reads and writes `sigma`/`delta`/`dist` entries
//! for every edge of the BFS DAG in reverse level order — one of the most
//! cache-punishing access patterns in graph analytics, and a natural
//! beneficiary of reordering. One `iterate` processes one source.

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, Kernel, KernelCtx, NoProbe};
use gorder_core::budget::Budget;
use gorder_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sources the benchmark kernel samples.
const BENCHMARK_SAMPLES: u32 = 8;

const UNREACHED: u32 = u32::MAX;

/// Result of a betweenness estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct BetweennessResult {
    /// Estimated centrality per node (averaged over sources).
    pub score: Vec<f64>,
    /// Sources actually used.
    pub sources: Vec<NodeId>,
}

/// BC as an engine kernel; one `iterate` accumulates one source.
#[derive(Default)]
pub struct BcKernel {
    gs: Option<GraphSlots>,
    dist_slot: Slot,
    sigma_slot: Slot,
    delta_slot: Slot,
    order_slot: Slot,
    score_slot: Slot,
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    order: Vec<NodeId>,
    score: Vec<f64>,
    /// Sources to sample; `None` is the benchmark's 8.
    samples: Option<u32>,
    /// Exact sources to use instead of sampling.
    preset: Option<Vec<NodeId>>,
    sources: Vec<NodeId>,
    next_src: usize,
}

impl BcKernel {
    /// A kernel that samples `samples` sources from the context's seed.
    pub fn with_samples(samples: u32) -> Self {
        BcKernel {
            samples: Some(samples),
            ..Default::default()
        }
    }

    /// The estimate (after the run): scores averaged over the sources.
    pub fn into_result(self) -> BetweennessResult {
        let inv = 1.0 / self.sources.len().max(1) as f64;
        BetweennessResult {
            score: self.score.iter().map(|&x| x * inv).collect(),
            sources: self.sources,
        }
    }
}

impl<P: Probe> Kernel<P> for BcKernel {
    fn name(&self) -> &'static str {
        "BC"
    }

    fn init(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        if n == 0 {
            return;
        }
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.dist_slot = ex.probe.alloc(n, 4);
        self.sigma_slot = ex.probe.alloc(n, 8);
        self.delta_slot = ex.probe.alloc(n, 8);
        self.order_slot = ex.probe.alloc(n, 4);
        self.score_slot = ex.probe.alloc(n, 8);
        self.dist = ex.pool.take_u32(n, UNREACHED);
        self.sigma = ex.pool.take_f64(n, 0.0);
        self.delta = ex.pool.take_f64(n, 0.0);
        self.order = ex.pool.take_nodes(n);
        self.score = ex.pool.take_f64(n, 0.0);
        let samples = self.samples.unwrap_or(BENCHMARK_SAMPLES);
        self.sources = self.preset.take().unwrap_or_else(|| {
            let mut rng = StdRng::seed_from_u64(ctx.seed);
            (0..samples).map(|_| rng.gen_range(0..g.n())).collect()
        });
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.next_src >= self.sources.len()
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        let s = self.sources[self.next_src];
        self.next_src += 1;
        self.dist.fill(UNREACHED);
        self.sigma.fill(0.0);
        self.delta.fill(0.0);
        // The resets are sequential sweeps over three arrays.
        for i in 0..self.dist.len() {
            ex.probe.touch(self.dist_slot, i);
            ex.probe.touch(self.sigma_slot, i);
            ex.probe.touch(self.delta_slot, i);
        }
        self.order.clear();
        self.dist[s as usize] = 0;
        self.sigma[s as usize] = 1.0;
        self.order.push(s);
        ex.stats.frontier_pushes += 1;

        // Forward BFS counting shortest paths.
        let mut head = 0;
        while head < self.order.len() {
            ex.probe.touch(self.order_slot, head);
            let u = self.order[head];
            head += 1;
            let du = self.dist[u as usize];
            let (list, base) = gs.out_list(&mut ex.probe, g, u);
            for (k, &v) in list.iter().enumerate() {
                ex.probe.touch(gs.out_tgt, base + k);
                ex.probe.touch(self.dist_slot, v as usize);
                ex.probe.op(1);
                ex.stats.edges_relaxed += 1;
                if self.dist[v as usize] == UNREACHED {
                    self.dist[v as usize] = du + 1;
                    ex.probe.touch(self.dist_slot, v as usize);
                    ex.probe.touch(self.order_slot, self.order.len());
                    self.order.push(v);
                    ex.stats.frontier_pushes += 1;
                }
                if self.dist[v as usize] == du + 1 {
                    self.sigma[v as usize] += self.sigma[u as usize];
                    ex.probe.touch(self.sigma_slot, v as usize);
                    ex.probe.touch(self.sigma_slot, u as usize);
                }
            }
        }
        ex.stats.note_frontier_peak(self.order.len());

        // Reverse dependency accumulation.
        for idx in (0..self.order.len()).rev() {
            ex.probe.touch(self.order_slot, idx);
            let u = self.order[idx];
            let du = self.dist[u as usize];
            let (list, base) = gs.out_list(&mut ex.probe, g, u);
            for (k, &v) in list.iter().enumerate() {
                ex.probe.touch(gs.out_tgt, base + k);
                ex.probe.touch(self.dist_slot, v as usize);
                ex.probe.op(1);
                ex.stats.edges_relaxed += 1;
                if self.dist[v as usize] == du + 1 {
                    self.delta[u as usize] += self.sigma[u as usize] / self.sigma[v as usize]
                        * (1.0 + self.delta[v as usize]);
                    ex.probe.touch(self.sigma_slot, u as usize);
                    ex.probe.touch(self.sigma_slot, v as usize);
                    ex.probe.touch(self.delta_slot, v as usize);
                    ex.probe.touch(self.delta_slot, u as usize);
                }
            }
            if u != s {
                self.score[u as usize] += self.delta[u as usize];
                ex.probe.touch(self.score_slot, u as usize);
            }
        }
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // Total estimated centrality, in thousandths.
        let inv = 1.0 / self.sources.len().max(1) as f64;
        let total: f64 = self.score.iter().map(|&x| x * inv).sum();
        (total * 1e3).round() as u64
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.dist));
        pool.put_f64(std::mem::take(&mut self.sigma));
        pool.put_f64(std::mem::take(&mut self.delta));
        pool.put_nodes(std::mem::take(&mut self.order));
        pool.put_f64(std::mem::take(&mut self.score));
    }
}

/// Runs `kernel` to completion without a probe.
fn run(mut kernel: BcKernel, g: &Graph, seed: u64) -> BetweennessResult {
    let ctx = KernelCtx {
        seed,
        ..Default::default()
    };
    let mut pool = BufferPool::new();
    let mut ex = Exec::new(NoProbe, &mut pool);
    let _ = crate::run_kernel(&mut kernel, g, &ctx, &mut ex, &Budget::unlimited());
    kernel.into_result()
}

/// Betweenness from `samples` pseudo-random sources (seeded RNG).
pub fn betweenness(g: &Graph, samples: u32, seed: u64) -> BetweennessResult {
    run(BcKernel::with_samples(samples), g, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_by_name;
    use gorder_graph::Permutation;

    /// Betweenness accumulated from exactly `sources`.
    fn from_sources(g: &Graph, sources: &[NodeId]) -> BetweennessResult {
        let kernel = BcKernel {
            preset: Some(sources.to_vec()),
            ..Default::default()
        };
        run(kernel, g, 0)
    }

    /// Exact betweenness = all nodes as sources, un-averaged.
    fn exact(g: &Graph) -> Vec<f64> {
        let sources: Vec<NodeId> = g.nodes().collect();
        let r = from_sources(g, &sources);
        r.score.iter().map(|&x| x * sources.len() as f64).collect()
    }

    #[test]
    fn path_center_dominates() {
        // directed path 0 → 1 → 2 → 3 → 4: node 2 lies on the most paths
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let b = exact(&g);
        // dependencies: node 2 is on 0→3, 0→4, 1→3, 1→4 = 4
        assert!((b[2] - 4.0).abs() < 1e-9, "b[2] = {}", b[2]);
        assert!(b[0].abs() < 1e-9, "endpoints carry nothing");
        assert!(b[2] > b[1] && b[2] > b[3]);
    }

    #[test]
    fn star_center_takes_all() {
        // bidirected star around 0 with 4 leaves
        let mut edges = Vec::new();
        for l in 1..=4u32 {
            edges.push((0, l));
            edges.push((l, 0));
        }
        let g = Graph::from_edges(5, &edges);
        let b = exact(&g);
        // every leaf pair's shortest path goes through 0: 4·3 = 12
        assert!((b[0] - 12.0).abs() < 1e-9, "b[0] = {}", b[0]);
        for leaf in &b[1..=4] {
            assert!(leaf.abs() < 1e-9);
        }
    }

    #[test]
    fn split_paths_share_dependency() {
        // 0 → {1, 2} → 3: two equal shortest paths to 3
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let b = exact(&g);
        assert!((b[1] - 0.5).abs() < 1e-12, "b[1] = {}", b[1]);
        assert!((b[2] - 0.5).abs() < 1e-12);
        assert_eq!(b[3], 0.0);
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let a = betweenness(&g, 4, 9);
        let b = betweenness(&g, 4, 9);
        assert_eq!(a, b);
        assert_eq!(a.sources.len(), 4);
        let full = exact(&g);
        // sampled estimate of the total is within the max possible range
        let est: f64 = a.score.iter().sum::<f64>() * g.n() as f64;
        let true_total: f64 = full.iter().sum();
        assert!(est <= true_total * f64::from(g.n()), "estimate wildly off");
    }

    #[test]
    fn scores_map_through_permutation() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]);
        let perm = Permutation::try_new(vec![3, 0, 4, 1, 2]).unwrap();
        let h = g.relabel(&perm);
        let sources: Vec<NodeId> = g.nodes().collect();
        let mapped: Vec<NodeId> = sources.iter().map(|&s| perm.apply(s)).collect();
        let bg = from_sources(&g, &sources);
        let bh = from_sources(&h, &mapped);
        for u in g.nodes() {
            let (a, b) = (bg.score[u as usize], bh.score[perm.apply(u) as usize]);
            assert!((a - b).abs() < 1e-12, "node {u}: {a} vs {b}");
        }
    }

    #[test]
    fn checksum_is_total_in_thousandths() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let ctx = KernelCtx::default();
        let run = run_by_name("BC", &g, &ctx).unwrap();
        let total: f64 = betweenness(&g, 8, ctx.seed).score.iter().sum();
        assert_eq!(run.checksum, (total * 1e3).round() as u64);
        assert_eq!(run.stats.iterations, 8, "one iterate per source");
    }

    #[test]
    fn empty_graph() {
        let r = betweenness(&Graph::empty(0), 4, 1);
        assert!(r.score.is_empty());
        assert!(r.sources.is_empty());
        assert_eq!(
            run_by_name("BC", &Graph::empty(0), &KernelCtx::default())
                .unwrap()
                .checksum,
            0
        );
    }
}
