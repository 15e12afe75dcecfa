//! PR — PageRank by power iteration.
//!
//! Pull-based formulation (Page et al. 1999): each iteration computes
//!
//! ```text
//! pr'[u] = (1 − α)/n + α · ( Σ_{x ∈ in(u)} pr[x] / outdeg(x)  +  D/n )
//! ```
//!
//! where `α` is the damping factor (paper: 0.85), `D` the total mass
//! sitting on dangling nodes (outdeg 0), and the iteration count is
//! fixed by the context (paper: 100). The pull over `in(u)` produces the
//! random reads into the rank array whose locality the ordering controls
//! — PR is the paper's flagship cache-bound workload. One `iterate` is
//! one power iteration; the floating-point accumulation order is
//! identical to the legacy implementation, so checksums match bit for
//! bit.

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::partition::{partition_offsets, RowRange};
use crate::{parallel, Exec, ExecPlan, Kernel, KernelCtx, NoProbe};
use gorder_core::budget::Budget;
use gorder_graph::Graph;

/// Result of a PageRank run.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankResult {
    /// Final rank per node; sums to 1 (within FP error).
    pub rank: Vec<f64>,
    /// Iterations executed.
    pub iterations: u32,
}

impl PageRankResult {
    /// Index of the highest-ranked node (smallest id on ties).
    ///
    /// Uses [`f64::total_cmp`] so a NaN rank (possible only if a caller
    /// injects one — power iteration itself never produces NaN from
    /// finite inputs) selects deterministically instead of panicking.
    pub fn top_node(&self) -> Option<u32> {
        self.rank
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i as u32)
    }
}

/// PR as an engine kernel; one `iterate` is one power iteration.
#[derive(Default)]
pub struct PrKernel {
    gs: Option<GraphSlots>,
    inv_out_slot: Slot,
    rank_slot: Slot,
    next_slot: Slot,
    inv_out: Vec<f64>,
    rank: Vec<f64>,
    next: Vec<f64>,
    ranges: Vec<RowRange>,
    iter: u32,
    target: u32,
    done: bool,
}

impl PrKernel {
    /// The PageRank result (after the run).
    pub fn into_result(self) -> PageRankResult {
        PageRankResult {
            rank: self.rank,
            iterations: self.target,
        }
    }
}

impl<P: Probe> Kernel<P> for PrKernel {
    fn name(&self) -> &'static str {
        "PR"
    }

    fn init(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        self.target = ctx.pr_iterations;
        if n == 0 {
            self.done = true;
            return;
        }
        let inv_n = 1.0 / n as f64;
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.inv_out_slot = ex.probe.alloc(n, 8);
        self.inv_out = ex.pool.take_f64(n, 0.0);
        // Precompute 1/outdeg to turn the inner loop into mul-adds.
        for u in g.nodes() {
            ex.probe.touch(gs.out_off, u as usize);
            ex.probe.touch(gs.out_off, u as usize + 1);
            ex.probe.touch(self.inv_out_slot, u as usize);
            ex.probe.op(1);
            let d = g.out_degree(u);
            self.inv_out[u as usize] = if d == 0 { 0.0 } else { 1.0 / f64::from(d) };
        }
        self.rank_slot = ex.probe.alloc(n, 8);
        self.next_slot = ex.probe.alloc(n, 8);
        self.rank = ex.pool.take_f64(n, inv_n);
        self.next = ex.pool.take_f64(n, 0.0);
        // The pull sweep scans in-lists, so balance on in-offsets.
        let threads = ex.par_threads();
        self.ranges = if threads > 1 {
            partition_offsets(g.in_csr().0, threads)
        } else {
            Vec::new()
        };
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.done || self.iter >= self.target
    }

    fn iterate(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        let n = g.n() as usize;
        let alpha = ctx.damping;
        let inv_n = 1.0 / n as f64;
        let mut dangling = 0.0;
        for u in g.nodes() {
            ex.probe.touch(gs.out_off, u as usize);
            ex.probe.touch(gs.out_off, u as usize + 1);
            if g.out_degree(u) == 0 {
                ex.probe.touch(self.rank_slot, u as usize);
                dangling += self.rank[u as usize];
            }
        }
        let base_rank = (1.0 - alpha) * inv_n + alpha * dangling * inv_n;
        if self.ranges.len() > 1 {
            // Parallel pull: each worker owns a disjoint slice of `next`,
            // and each node's accumulation runs in in-list order exactly
            // as the serial loop does, so the result is bit-identical.
            // The dangling scan above stays serial — its FP summation
            // order is part of the determinism contract.
            let rank = &self.rank;
            let inv_out = &self.inv_out;
            let (in_off, in_tgt) = g.in_csr();
            let mut work: Vec<(RowRange, &mut [f64])> = Vec::with_capacity(self.ranges.len());
            let mut rest = self.next.as_mut_slice();
            for &r in &self.ranges {
                let (head, tail) = rest.split_at_mut(r.len());
                rest = tail;
                work.push((r, head));
            }
            let results = parallel::run_tasks(
                work.into_iter()
                    .map(|(r, out)| {
                        move || {
                            let mut edges = 0u64;
                            for u in r.start..r.end {
                                let a = in_off[u as usize] as usize;
                                let b = in_off[u as usize + 1] as usize;
                                let mut acc = 0.0;
                                for &x in &in_tgt[a..b] {
                                    acc += rank[x as usize] * inv_out[x as usize];
                                }
                                edges += (b - a) as u64;
                                out[(u - r.start) as usize] = base_rank + alpha * acc;
                            }
                            edges
                        }
                    })
                    .collect(),
            );
            for (t, (edges, busy)) in results.into_iter().enumerate() {
                ex.stats.edges_relaxed += edges;
                ex.stats.note_thread_busy(t, busy);
            }
        } else {
            for u in g.nodes() {
                let (list, base) = gs.in_list(&mut ex.probe, g, u);
                let mut acc = 0.0;
                for (k, &x) in list.iter().enumerate() {
                    ex.probe.touch(gs.in_tgt, base + k);
                    ex.probe.touch(self.rank_slot, x as usize); // the cache-sensitive pulls
                    ex.probe.touch(self.inv_out_slot, x as usize);
                    ex.probe.op(2);
                    ex.stats.edges_relaxed += 1;
                    acc += self.rank[x as usize] * self.inv_out[x as usize];
                }
                ex.probe.touch(self.next_slot, u as usize);
                self.next[u as usize] = base_rank + alpha * acc;
            }
        }
        std::mem::swap(&mut self.rank, &mut self.next);
        ex.probe.op(1);
        self.iter += 1;
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // Quantised total mass: invariant under relabeling up to FP
        // summation order; coarse quantisation (1e6) absorbs that.
        let total: f64 = self.rank.iter().sum();
        (total * 1e6).round() as u64
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_f64(std::mem::take(&mut self.inv_out));
        pool.put_f64(std::mem::take(&mut self.rank));
        pool.put_f64(std::mem::take(&mut self.next));
    }
}

/// Runs `iterations` rounds of the power method with damping `alpha`.
pub fn pagerank(g: &Graph, iterations: u32, alpha: f64) -> PageRankResult {
    pagerank_with_plan(g, iterations, alpha, ExecPlan::Serial)
}

/// [`pagerank`] under an explicit [`ExecPlan`]; the rank vector is
/// bit-identical to the serial run for every plan.
pub fn pagerank_with_plan(
    g: &Graph,
    iterations: u32,
    alpha: f64,
    plan: ExecPlan,
) -> PageRankResult {
    let mut kernel = PrKernel::default();
    let ctx = KernelCtx {
        pr_iterations: iterations,
        damping: alpha,
        ..Default::default()
    };
    let mut pool = BufferPool::new();
    let mut ex = Exec::with_plan(NoProbe, &mut pool, plan);
    let _ = crate::run_kernel(&mut kernel, g, &ctx, &mut ex, &Budget::unlimited());
    kernel.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_conserved() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 0), (0, 4)]);
        let r = pagerank(&g, 50, 0.85);
        let total: f64 = r.rank.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn sink_of_star_ranks_highest() {
        let g = Graph::from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let r = pagerank(&g, 100, 0.85);
        assert_eq!(r.top_node(), Some(0));
        assert!(r.rank[0] > 0.4);
    }

    #[test]
    fn zero_iterations_gives_uniform() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let r = pagerank(&g, 0, 0.85);
        for &x in &r.rank {
            assert!((x - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_graph() {
        let r = pagerank(&Graph::empty(0), 10, 0.85);
        assert!(r.rank.is_empty());
    }

    #[test]
    fn top_node_is_total_on_nan_ranks() {
        // A NaN rank must not panic the comparator. Under total_cmp a
        // positive NaN sorts above every finite value, and equal NaNs
        // fall through to the smallest-id tie-break.
        let r = PageRankResult {
            rank: vec![0.3, f64::NAN, 0.7, f64::NAN],
            iterations: 1,
        };
        assert_eq!(r.top_node(), Some(1));
        // Negative NaN sorts below everything; finite values still win.
        let r = PageRankResult {
            rank: vec![-f64::NAN, 0.1, 0.1],
            iterations: 1,
        };
        assert_eq!(r.top_node(), Some(1), "smallest id among the 0.1 tie");
    }

    #[test]
    fn parallel_ranks_are_bit_identical() {
        // Mix of hubs, chains, and a dangling node so the parallel split
        // is non-trivial and the dangling mass path is exercised.
        let mut edges = Vec::new();
        for v in 1..20u32 {
            edges.push((0, v));
        }
        for u in 1..19u32 {
            edges.push((u, u + 1));
            edges.push((u, 0));
        }
        let g = Graph::from_edges(21, &edges); // node 20 dangles
        let serial = pagerank(&g, 30, 0.85);
        for threads in [2, 3, 7] {
            let par = pagerank_with_plan(&g, 30, 0.85, ExecPlan::with_threads(threads));
            assert_eq!(serial, par, "threads = {threads}");
            let bits_s: Vec<u64> = serial.rank.iter().map(|x| x.to_bits()).collect();
            let bits_p: Vec<u64> = par.rank.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits_s, bits_p, "bitwise at threads = {threads}");
        }
    }

    #[test]
    fn parallel_on_degenerate_graphs() {
        for g in [Graph::empty(0), Graph::empty(1), Graph::empty(5)] {
            let serial = pagerank(&g, 5, 0.85);
            let par = pagerank_with_plan(&g, 5, 0.85, ExecPlan::with_threads(4));
            assert_eq!(serial, par);
        }
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        for &x in &pagerank(&g, 100, 0.85).rank {
            assert!((x - 0.25).abs() < 1e-9, "rank = {x}");
        }
    }

    #[test]
    fn dangling_mass_redistributed() {
        // 0 -> 1, 1 is dangling; without redistribution the total decays.
        let r = pagerank(&Graph::from_edges(2, &[(0, 1)]), 100, 0.85);
        let total: f64 = r.rank.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(r.rank[1] > r.rank[0], "sink accumulates rank");
    }

    #[test]
    fn alpha_zero_gives_uniform() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (3, 2)]);
        for &x in &pagerank(&g, 20, 0.0).rank {
            assert!((x - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_count_one_iteration_per_round() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let ctx = KernelCtx {
            pr_iterations: 7,
            ..Default::default()
        };
        let run = crate::run_by_name("PR", &g, &ctx).unwrap();
        assert_eq!(run.stats.iterations, 7);
        assert_eq!(run.stats.edges_relaxed, 7 * g.m());
    }
}
