//! DS — greedy dominating set.
//!
//! Repeatedly select the node covering the most still-uncovered nodes,
//! add it to the dominating set, and mark it and its out-neighbours
//! covered; every node must end up covered. The classic greedy achieves
//! an `H(Δ+1)` approximation. Selection uses a lazy max-heap: gains only
//! decrease, so a popped entry whose recorded gain is stale is re-pushed
//! with its current gain instead of being acted on. One `iterate`
//! performs one selection (including any stale re-queues and zero-gain
//! pops preceding it).

use crate::mem::{
    probe_heap_pop, probe_heap_push, BufferPool, DenseBitset, GraphSlots, Probe, Slot,
};
use crate::{Exec, Kernel, KernelCtx, NoProbe};
use gorder_core::budget::Budget;
use gorder_graph::{Graph, NodeId};
use std::collections::BinaryHeap;

/// Result of the greedy dominating-set construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomSetResult {
    /// Selected nodes, in selection order.
    pub set: Vec<NodeId>,
    /// `covered_by[u]` = the selected node that first covered `u`.
    pub covered_by: Vec<NodeId>,
}

impl DomSetResult {
    /// Size of the dominating set.
    pub fn size(&self) -> u32 {
        self.set.len() as u32
    }
}

/// DS as an engine kernel; one `iterate` selects one set member.
#[derive(Default)]
pub struct DsKernel {
    gs: Option<GraphSlots>,
    gain_slot: Slot,
    covered_slot: Slot,
    coveredby_slot: Slot,
    heap_slot: Slot,
    gain: Vec<u32>,
    covered: DenseBitset,
    covered_by: Vec<NodeId>,
    set: Vec<NodeId>,
    newly: Vec<NodeId>,
    heap: BinaryHeap<(u32, NodeId)>,
    remaining: usize,
}

impl DsKernel {
    /// The dominating-set result (after the run).
    pub fn into_result(self) -> DomSetResult {
        DomSetResult {
            set: self.set,
            covered_by: self.covered_by,
        }
    }
}

impl<P: Probe> Kernel<P> for DsKernel {
    fn name(&self) -> &'static str {
        "DS"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.gain_slot = ex.probe.alloc(n, 4);
        self.covered = ex.pool.take_bitset(n);
        self.covered_slot = ex.probe.alloc(self.covered.words_len(), 8);
        self.coveredby_slot = ex.probe.alloc(n, 4);
        self.heap_slot = ex.probe.alloc(n.max(1), 8);
        self.gain = ex.pool.take_u32(n, 0);
        for u in g.nodes() {
            ex.probe.touch(gs.out_off, u as usize);
            ex.probe.touch(gs.out_off, u as usize + 1);
            ex.probe.touch(self.gain_slot, u as usize);
            self.gain[u as usize] = g.out_degree(u) + 1;
        }
        self.covered_by = ex.pool.take_u32(n, NodeId::MAX);
        self.set = ex.pool.take_nodes(n);
        self.heap = BinaryHeap::with_capacity(n);
        for u in 0..n as u32 {
            self.heap.push((self.gain[u as usize], u));
            probe_heap_push(&mut ex.probe, self.heap_slot, self.heap.len() - 1);
            ex.stats.frontier_pushes += 1;
        }
        self.remaining = n;
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.remaining == 0
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        loop {
            let (claimed, u) = self
                .heap
                .pop()
                .expect("uncovered nodes imply positive gains");
            probe_heap_pop(&mut ex.probe, self.heap_slot, self.heap.len());
            ex.probe.touch(self.gain_slot, u as usize);
            let current = self.gain[u as usize];
            if claimed != current {
                self.heap.push((current, u)); // stale entry: requeue with true gain
                probe_heap_push(&mut ex.probe, self.heap_slot, self.heap.len() - 1);
                continue;
            }
            if current == 0 {
                continue; // everything u covers is already covered
            }
            self.set.push(u);
            // Cover u and its out-neighbours; each newly covered node w
            // lowers the gain of every potential coverer of w (w itself
            // and in(w)).
            self.newly.clear();
            ex.probe
                .touch(self.covered_slot, DenseBitset::word_of(u as usize));
            if !self.covered.get(u as usize) {
                self.newly.push(u);
            }
            let (list, base) = gs.out_list(&mut ex.probe, g, u);
            for (k, &w) in list.iter().enumerate() {
                ex.probe.touch(gs.out_tgt, base + k);
                ex.probe
                    .touch(self.covered_slot, DenseBitset::word_of(w as usize));
                ex.stats.edges_relaxed += 1;
                if !self.covered.get(w as usize) {
                    self.newly.push(w);
                }
            }
            ex.stats.note_frontier_peak(self.newly.len());
            for i in 0..self.newly.len() {
                let w = self.newly[i];
                self.covered.set(w as usize);
                ex.probe
                    .touch(self.covered_slot, DenseBitset::word_of(w as usize));
                ex.probe.touch(self.coveredby_slot, w as usize);
                self.covered_by[w as usize] = u;
                self.remaining -= 1;
                self.gain[w as usize] -= 1;
                ex.probe.touch(self.gain_slot, w as usize);
                let (in_list, in_base) = gs.in_list(&mut ex.probe, g, w);
                for (k, &z) in in_list.iter().enumerate() {
                    ex.probe.touch(gs.in_tgt, in_base + k);
                    self.gain[z as usize] -= 1;
                    ex.probe.touch(self.gain_slot, z as usize);
                    ex.probe.op(1);
                    ex.stats.edges_relaxed += 1;
                }
            }
            return;
        }
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // Greedy tie-breaking depends on ids, so the exact set is not
        // relabeling-invariant; the size is stable enough to be the
        // reported quantity (and what the paper's runtime depends on).
        self.set.len() as u64
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.gain));
        pool.put_u32(std::mem::take(&mut self.covered_by));
        pool.put_bitset(std::mem::take(&mut self.covered));
        pool.put_nodes(std::mem::take(&mut self.set));
        pool.put_nodes(std::mem::take(&mut self.newly));
    }
}

/// Runs the greedy dominating-set algorithm.
pub fn dominating_set(g: &Graph) -> DomSetResult {
    let mut kernel = DsKernel::default();
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
    fn star_needs_one() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let r = dominating_set(&g);
        assert_eq!(r.set, vec![0]);
    }

    #[test]
    fn isolated_nodes_must_join() {
        let g = Graph::empty(4);
        let r = dominating_set(&g);
        assert_eq!(r.size(), 4);
    }

    #[test]
    fn directed_coverage_only_via_out_edges() {
        // 1 -> 0: selecting 1 covers both; selecting 0 covers only 0.
        let g = Graph::from_edges(2, &[(1, 0)]);
        let r = dominating_set(&g);
        assert_eq!(r.set, vec![1]);
    }

    #[test]
    fn empty() {
        assert_eq!(dominating_set(&Graph::empty(0)).size(), 0);
    }

    fn assert_dominating(g: &Graph, r: &DomSetResult) {
        let mut covered = vec![false; g.n() as usize];
        for &u in &r.set {
            covered[u as usize] = true;
            for &v in g.out_neighbors(u) {
                covered[v as usize] = true;
            }
        }
        for u in g.nodes() {
            assert!(covered[u as usize], "node {u} not dominated");
        }
    }

    #[test]
    fn path_greedy_is_valid() {
        let edges: Vec<(NodeId, NodeId)> = (0..9).map(|u| (u, u + 1)).collect();
        let g = Graph::from_edges(10, &edges);
        let r = dominating_set(&g);
        assert_dominating(&g, &r);
        assert!(r.size() <= 5, "greedy on a 10-path: {}", r.size());
    }

    #[test]
    fn covered_by_points_at_selector() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let r = dominating_set(&g);
        assert_dominating(&g, &r);
        for u in g.nodes() {
            let c = r.covered_by[u as usize];
            assert!(
                c == u || g.has_edge(c, u),
                "covered_by[{u}] = {c} neither self nor in-neighbor"
            );
            assert!(r.set.contains(&c));
        }
    }

    #[test]
    fn greedy_picks_max_gain_first() {
        // hub 0 covers 4 nodes; chain nodes cover 2 each
        let g = Graph::from_edges(7, &[(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)]);
        let r = dominating_set(&g);
        assert_eq!(r.set[0], 0, "hub first");
        assert_dominating(&g, &r);
    }

    #[test]
    fn dense_graph_small_set() {
        // complete bidirected graph on 8 nodes: one node suffices
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in 0..8u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        assert_eq!(dominating_set(&Graph::from_edges(8, &edges)).size(), 1);
    }
}
