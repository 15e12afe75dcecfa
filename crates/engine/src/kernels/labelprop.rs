//! LP — label propagation community detection (extension kernel).
//!
//! Raghavan et al.'s near-linear community detector: every node starts
//! with its own label and repeatedly adopts the most frequent label among
//! its (symmetrised) neighbours, until labels stabilise or an iteration
//! cap is hit. The inner loop reads `label[v]` for every neighbour — the
//! same attribute-gather pattern as PageRank's pull, so it benefits from
//! node reordering the same way.
//!
//! Deterministic variant: nodes update in ascending id order, in place
//! (a node sees the labels its predecessors adopted in the same pass),
//! and ties break toward the smallest label. One `iterate` is one pass.

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, Kernel, KernelCtx, NoProbe};
use gorder_core::budget::Budget;
use gorder_graph::{Graph, NodeId};

/// Pass cap of the benchmark kernel.
const BENCHMARK_MAX_ITERATIONS: u32 = 20;

/// Result of label propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelPropResult {
    /// Final label per node (a representative node id).
    pub label: Vec<NodeId>,
    /// Passes executed (≤ the configured cap).
    pub iterations: u32,
}

/// LP as an engine kernel; one `iterate` is one pass over all nodes.
#[derive(Default)]
pub struct LpKernel {
    gs: Option<GraphSlots>,
    label_slot: Slot,
    label: Vec<NodeId>,
    /// Per-label neighbour tally for the node being updated; all zero
    /// between nodes.
    count: Vec<u32>,
    /// Labels with a non-zero tally, in first-seen order.
    seen: Vec<NodeId>,
    /// Pass cap; `None` is the benchmark's 20.
    max_iterations: Option<u32>,
    iterations: u32,
    done: bool,
}

impl LpKernel {
    /// A kernel capped at `max_iterations` passes.
    pub fn with_max_iterations(max_iterations: u32) -> Self {
        LpKernel {
            max_iterations: Some(max_iterations),
            ..Default::default()
        }
    }

    fn max_iterations(&self) -> u32 {
        self.max_iterations.unwrap_or(BENCHMARK_MAX_ITERATIONS)
    }

    /// The labelling (after the run).
    pub fn into_result(self) -> LabelPropResult {
        LabelPropResult {
            label: self.label,
            iterations: self.iterations,
        }
    }

    /// Tallies the current label of every node in `list`.
    fn tally<P: Probe>(&mut self, list: &[NodeId], base: usize, tgt: Slot, ex: &mut Exec<'_, P>) {
        for (k, &v) in list.iter().enumerate() {
            ex.probe.touch(tgt, base + k);
            ex.probe.touch(self.label_slot, v as usize); // the gather
            ex.probe.op(1);
            ex.stats.edges_relaxed += 1;
            let l = self.label[v as usize];
            if self.count[l as usize] == 0 {
                self.seen.push(l);
            }
            self.count[l as usize] += 1;
        }
    }
}

impl<P: Probe> Kernel<P> for LpKernel {
    fn name(&self) -> &'static str {
        "LP"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.label_slot = ex.probe.alloc(n, 4);
        self.label = ex.pool.take_nodes(n);
        self.label.extend(g.nodes());
        self.count = ex.pool.take_u32(n, 0);
        self.seen = ex.pool.take_nodes(0);
        self.gs = Some(gs);
        self.done = self.max_iterations() == 0;
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        self.iterations += 1;
        let mut changed = false;
        for u in g.nodes() {
            let (out, out_base) = gs.out_list(&mut ex.probe, g, u);
            self.tally(out, out_base, gs.out_tgt, ex);
            let (inn, in_base) = gs.in_list(&mut ex.probe, g, u);
            self.tally(inn, in_base, gs.in_tgt, ex);
            if self.seen.is_empty() {
                continue;
            }
            // Most frequent label, ties to the smallest label value.
            let mut best = self.seen[0];
            for &l in &self.seen {
                let (c, cb) = (self.count[l as usize], self.count[best as usize]);
                if c > cb || (c == cb && l < best) {
                    best = l;
                }
            }
            for &l in &self.seen {
                self.count[l as usize] = 0;
            }
            self.seen.clear();
            ex.probe.touch(self.label_slot, u as usize);
            if best != self.label[u as usize] {
                self.label[u as usize] = best;
                changed = true;
            }
        }
        self.done = !changed || self.iterations == self.max_iterations();
    }

    fn finish(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) -> u64 {
        // The community count is relabeling-stable; exact labels are ids.
        let mut present = ex.pool.take_bitset(g.n() as usize);
        for &l in &self.label {
            present.set(l as usize);
        }
        let communities = present.count_ones() as u64;
        ex.pool.put_bitset(present);
        communities << 8 | u64::from(self.iterations.min(255))
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_nodes(std::mem::take(&mut self.label));
        pool.put_u32(std::mem::take(&mut self.count));
        pool.put_nodes(std::mem::take(&mut self.seen));
    }
}

/// Runs label propagation for at most `max_iterations` passes.
pub fn label_propagation(g: &Graph, max_iterations: u32) -> LabelPropResult {
    let mut kernel = LpKernel::with_max_iterations(max_iterations);
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
    use crate::run_by_name;
    use gorder_graph::gen::stochastic_block_model;
    use std::collections::HashMap;

    fn communities(r: &LabelPropResult) -> usize {
        let mut labels = r.label.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    fn clique(n: u32) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        edges
    }

    #[test]
    fn clique_converges_to_one_label() {
        let g = Graph::from_edges(5, &clique(5));
        let r = label_propagation(&g, 20);
        assert!(r.label.iter().all(|&l| l == r.label[0]));
        assert_eq!(communities(&r), 1);
        let run = run_by_name("LP", &g, &KernelCtx::default()).unwrap();
        assert_eq!(run.checksum >> 8, 1, "one community");
    }

    #[test]
    fn isolated_nodes_keep_their_labels() {
        let g = Graph::empty(3);
        let r = label_propagation(&g, 5);
        assert_eq!(r.label, vec![0, 1, 2]);
        assert_eq!(communities(&r), 3);
        assert_eq!(r.iterations, 1, "no changes → stop after one pass");
    }

    #[test]
    fn two_cliques_with_bridge_stay_separate() {
        let mut edges = clique(5);
        edges.extend(clique(5).into_iter().map(|(a, b)| (a + 5, b + 5)));
        edges.push((0, 5)); // single weak bridge
        let g = Graph::from_edges(10, &edges);
        let r = label_propagation(&g, 30);
        assert_eq!(communities(&r), 2);
        assert_ne!(r.label[0], r.label[5]);
    }

    #[test]
    fn finds_planted_blocks() {
        let g = stochastic_block_model(200, 4, 0.4, 0.002, 7);
        let r = label_propagation(&g, 30);
        // most nodes of block 0 should share a label
        let mut freq: HashMap<NodeId, u32> = HashMap::new();
        for u in 0..50u32 {
            *freq.entry(r.label[u as usize]).or_insert(0) += 1;
        }
        let dominant = freq.values().copied().max().unwrap();
        assert!(
            dominant >= 40,
            "block 0 should be mostly one community: {dominant}/50"
        );
        assert!(communities(&r) <= 20);
    }

    #[test]
    fn iteration_cap_respected() {
        let g = stochastic_block_model(100, 2, 0.3, 0.05, 1);
        let r = label_propagation(&g, 2);
        assert!(r.iterations <= 2);
        assert_eq!(label_propagation(&g, 0).iterations, 0);
    }

    #[test]
    fn stats_count_passes_and_both_edge_directions() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let run = run_by_name("LP", &g, &KernelCtx::default()).unwrap();
        let passes = run.checksum & 0xff;
        assert_eq!(run.stats.iterations, passes);
        assert_eq!(run.stats.edges_relaxed, 2 * g.m() * passes);
    }
}
