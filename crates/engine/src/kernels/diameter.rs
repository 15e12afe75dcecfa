//! Diam — diameter lower bound by sampled eccentricities.
//!
//! Exact diameters need all-pairs BFS; the paper's experiment instead
//! lower-bounds the diameter by running the SP kernel's round-based
//! Bellman–Ford from a handful of random sources and taking the maximum
//! eccentricity observed. One `iterate` processes one source to
//! completion (all its relaxation rounds), reusing the distance buffer
//! across sources.

use crate::kernels::sp::{relax_round, UNREACHABLE};
use crate::mem::{BufferPool, GraphSlots, NoProbe, Probe, Slot};
use crate::{parallel, Exec, ExecPlan, Kernel, KernelCtx};
use gorder_core::budget::Budget;
use gorder_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of the sampled-eccentricity diameter estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiameterResult {
    /// Max eccentricity over the sampled sources — a diameter lower
    /// bound.
    pub lower_bound: u32,
    /// The sources actually sampled.
    pub sources: Vec<NodeId>,
}

/// Diam as an engine kernel; one `iterate` fully relaxes one source.
#[derive(Default)]
pub struct DiamKernel {
    gs: Option<GraphSlots>,
    dist_slot: Slot,
    dist: Vec<u32>,
    sources: Vec<NodeId>,
    preset: Option<Vec<NodeId>>,
    next_src: usize,
    best: u32,
    done: bool,
}

impl DiamKernel {
    /// A kernel that sweeps exactly the given sources instead of
    /// sampling.
    pub fn with_sources(sources: Vec<NodeId>) -> Self {
        DiamKernel {
            preset: Some(sources),
            ..Default::default()
        }
    }

    /// The estimate (after the run).
    pub fn into_result(self) -> DiameterResult {
        DiameterResult {
            lower_bound: self.best,
            sources: self.sources,
        }
    }
}

impl<P: Probe> Kernel<P> for DiamKernel {
    fn name(&self) -> &'static str {
        "Diam"
    }

    fn init(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        if n == 0 {
            self.sources = self.preset.take().unwrap_or_default();
            self.done = true;
            return;
        }
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.dist_slot = ex.probe.alloc(n, 4);
        self.dist = ex.pool.take_u32(n, UNREACHABLE);
        self.sources = self.preset.take().unwrap_or_else(|| {
            let mut rng = StdRng::seed_from_u64(ctx.seed);
            (0..ctx.diameter_samples)
                .map(|_| rng.gen_range(0..g.n()))
                .collect()
        });
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.done || self.next_src >= self.sources.len()
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        let threads = ex.par_threads();
        if threads > 1 && self.sources.len() - self.next_src > 1 {
            // Parallel sweep batch: per-source sweeps are fully
            // independent (each starts from a fresh distance fill), so a
            // batch of up to `threads` sources runs concurrently, each
            // worker driving the shared `relax_round` against its own
            // buffers. Per-source round and edge counts are exactly the
            // serial ones; the max-eccentricity and edge-count folds are
            // order-insensitive. The extra `iterations` increments keep
            // the total equal to the number of sources, at the cost of
            // budget checks landing on batch boundaries.
            let batch_end = (self.next_src + threads).min(self.sources.len());
            let batch = &self.sources[self.next_src..batch_end];
            let n = g.n() as usize;
            let results = parallel::run_tasks(
                batch
                    .iter()
                    .map(|&s| {
                        move || {
                            let mut pool = BufferPool::new();
                            let mut sub = Exec::new(NoProbe, &mut pool);
                            let sub_gs = GraphSlots::new(&mut sub.probe, g);
                            let dist_slot = sub.probe.alloc(n, 4);
                            let mut dist = vec![UNREACHABLE; n];
                            dist[s as usize] = 0;
                            while relax_round(g, &sub_gs, dist_slot, &mut dist, &mut sub) {}
                            let ecc = dist
                                .iter()
                                .copied()
                                .filter(|&d| d != UNREACHABLE)
                                .max()
                                .unwrap_or(0);
                            (ecc, sub.stats.edges_relaxed)
                        }
                    })
                    .collect(),
            );
            for (t, ((ecc, edges), busy)) in results.into_iter().enumerate() {
                self.best = self.best.max(ecc);
                ex.stats.edges_relaxed += edges;
                ex.stats.note_thread_busy(t, busy);
            }
            ex.stats.iterations += (batch_end - self.next_src - 1) as u64;
            self.next_src = batch_end;
            return;
        }
        let s = self.sources[self.next_src];
        // Fresh fill is bookkeeping between sub-runs, not kernel traffic.
        self.dist.fill(UNREACHABLE);
        self.dist[s as usize] = 0;
        ex.probe.touch(self.dist_slot, s as usize);
        while relax_round(g, &gs, self.dist_slot, &mut self.dist, ex) {}
        let ecc = self
            .dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0);
        self.best = self.best.max(ecc);
        self.next_src += 1;
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        u64::from(self.best)
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.dist));
        pool.put_nodes(std::mem::take(&mut self.sources));
    }
}

/// Diameter lower bound from `samples` random sources (seeded RNG).
pub fn diameter(g: &Graph, samples: u32, seed: u64) -> DiameterResult {
    diameter_with_plan(g, samples, seed, ExecPlan::Serial)
}

/// [`diameter`] under an explicit [`ExecPlan`]; the bound and sampled
/// sources are identical to the serial run for every plan.
pub fn diameter_with_plan(g: &Graph, samples: u32, seed: u64, plan: ExecPlan) -> DiameterResult {
    let mut kernel = DiamKernel::default();
    let ctx = KernelCtx {
        diameter_samples: samples,
        seed,
        ..Default::default()
    };
    let mut pool = BufferPool::new();
    let mut ex = Exec::with_plan(NoProbe, &mut pool, plan);
    let _ = crate::run_kernel(&mut kernel, g, &ctx, &mut ex, &Budget::unlimited());
    kernel.into_result()
}

/// Diameter lower bound sweeping exactly the given sources.
pub fn diameter_from_sources(g: &Graph, sources: &[NodeId]) -> DiameterResult {
    let mut kernel = DiamKernel::with_sources(sources.to_vec());
    let mut pool = BufferPool::new();
    let mut ex = Exec::new(NoProbe, &mut pool);
    let _ = crate::run_kernel(
        &mut kernel,
        g,
        &KernelCtx::default(),
        &mut ex,
        &Budget::unlimited(),
    );
    kernel.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_diameter_found_from_endpoint() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = diameter_from_sources(&g, &[0]);
        assert_eq!(r.lower_bound, 3);
        assert_eq!(r.sources, vec![0]);
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let a = diameter(&g, 4, 7);
        let b = diameter(&g, 4, 7);
        assert_eq!(a, b);
        assert!(a.lower_bound <= 5);
        assert_eq!(a.sources.len(), 4);
    }

    #[test]
    fn more_samples_never_lower() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4)]);
        let few = diameter(&g, 1, 3).lower_bound;
        let many = diameter(&g, 8, 3).lower_bound;
        assert!(many >= few);
    }

    #[test]
    fn empty_graph() {
        let r = diameter(&Graph::empty(0), 4, 1);
        assert_eq!(r.lower_bound, 0);
        assert!(r.sources.is_empty());
    }

    #[test]
    fn parallel_estimate_matches_serial() {
        let mut edges: Vec<(u32, u32)> = (0..15).map(|u| (u, u + 1)).collect();
        edges.push((15, 0));
        edges.push((3, 11));
        let g = Graph::from_edges(16, &edges);
        let serial = diameter(&g, 9, 42);
        for threads in [2, 3, 7] {
            let par = diameter_with_plan(&g, 9, 42, ExecPlan::with_threads(threads));
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_on_degenerate_graphs() {
        for g in [Graph::empty(0), Graph::empty(1), Graph::empty(4)] {
            let serial = diameter(&g, 5, 3);
            let par = diameter_with_plan(&g, 5, 3, ExecPlan::with_threads(4));
            assert_eq!(serial, par);
        }
    }

    #[test]
    fn lower_bound_property() {
        // an interior source gives a smaller eccentricity — still a valid LB
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(diameter_from_sources(&g, &[2]).lower_bound, 2);
    }

    #[test]
    fn cycle_diameter() {
        // directed cycle: eccentricity of every node is n − 1
        let edges: Vec<(NodeId, NodeId)> = (0..8u32).map(|u| (u, (u + 1) % 8)).collect();
        let g = Graph::from_edges(8, &edges);
        assert_eq!(diameter(&g, 3, 4).lower_bound, 7);
    }

    #[test]
    fn one_iteration_per_source() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let ctx = KernelCtx {
            diameter_samples: 3,
            ..Default::default()
        };
        let run = crate::run_by_name("Diam", &g, &ctx).unwrap();
        assert_eq!(run.stats.iterations, 3);
    }
}
