//! SCC — strongly connected components via Tarjan's algorithm.
//!
//! Iterative formulation of Tarjan 1972 (the replication's choice): one
//! DFS pass maintaining discovery indices and low-links, components
//! popped off an auxiliary stack when a root is found. Linear in n + m.
//! One `iterate` explores the full DFS tree of one restart root.

use crate::mem::{BufferPool, DenseBitset, GraphSlots, Probe, Slot};
use crate::{Exec, Kernel, KernelCtx, NoProbe};
use gorder_core::budget::Budget;
use gorder_graph::{Graph, NodeId};

/// Result of an SCC decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccResult {
    /// `component[u]` = dense component id (0-based, reverse topological
    /// discovery order as in Tarjan).
    pub component: Vec<u32>,
    /// Size of each component.
    pub sizes: Vec<u32>,
}

impl SccResult {
    /// Number of strongly connected components.
    pub fn count(&self) -> u32 {
        self.sizes.len() as u32
    }

    /// Size of the largest component (0 on the empty graph).
    pub fn largest(&self) -> u32 {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

const UNVISITED: u32 = u32::MAX;

/// SCC as an engine kernel; one `iterate` runs Tarjan from one restart
/// root.
#[derive(Default)]
pub struct SccKernel {
    gs: Option<GraphSlots>,
    index_slot: Slot,
    lowlink_slot: Slot,
    onstack_slot: Slot,
    comp_slot: Slot,
    stack_slot: Slot,
    frames_slot: Slot,
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: DenseBitset,
    component: Vec<u32>,
    sizes: Vec<u32>,
    stack: Vec<NodeId>,
    frames: Vec<(NodeId, u32)>,
    next_index: u32,
    next_root: u32,
    done: bool,
}

impl SccKernel {
    /// The decomposition result (after the run).
    pub fn into_result(self) -> SccResult {
        SccResult {
            component: self.component,
            sizes: self.sizes,
        }
    }
}

impl<P: Probe> Kernel<P> for SccKernel {
    fn name(&self) -> &'static str {
        "SCC"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.index_slot = ex.probe.alloc(n, 4);
        self.lowlink_slot = ex.probe.alloc(n, 4);
        self.on_stack = ex.pool.take_bitset(n);
        self.onstack_slot = ex.probe.alloc(self.on_stack.words_len(), 8);
        self.comp_slot = ex.probe.alloc(n, 4);
        self.stack_slot = ex.probe.alloc(n, 4);
        self.frames_slot = ex.probe.alloc(n, 8);
        self.index = ex.pool.take_u32(n, UNVISITED);
        self.lowlink = ex.pool.take_u32(n, 0);
        self.component = ex.pool.take_u32(n, UNVISITED);
        self.sizes = ex.pool.take_u32(0, 0);
        self.stack = ex.pool.take_nodes(n);
        self.frames = ex.pool.take_pairs(n);
        self.done = n == 0;
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        let n = g.n();

        // Find the next unvisited root in ascending id order.
        let root = loop {
            if self.next_root >= n {
                self.done = true;
                return;
            }
            let r = self.next_root;
            self.next_root += 1;
            ex.probe.touch(self.index_slot, r as usize);
            if self.index[r as usize] == UNVISITED {
                break r;
            }
        };

        self.frames.push((root, 0));
        ex.probe.touch(self.frames_slot, self.frames.len() - 1);
        self.index[root as usize] = self.next_index;
        self.lowlink[root as usize] = self.next_index;
        ex.probe.touch(self.lowlink_slot, root as usize);
        self.next_index += 1;
        self.stack.push(root);
        ex.probe.touch(self.stack_slot, self.stack.len() - 1);
        self.on_stack.set(root as usize);
        ex.probe
            .touch(self.onstack_slot, DenseBitset::word_of(root as usize));
        ex.stats.frontier_pushes += 1;

        while !self.frames.is_empty() {
            ex.stats.note_frontier_peak(self.frames.len());
            let top = self.frames.len() - 1;
            ex.probe.touch(self.frames_slot, top);
            let (u, child) = self.frames[top];
            let (list, base) = gs.out_list(&mut ex.probe, g, u);
            if (child as usize) < list.len() {
                let k = child as usize;
                let v = list[k];
                self.frames[top].1 = child + 1;
                ex.probe.touch(gs.out_tgt, base + k);
                ex.probe.touch(self.index_slot, v as usize);
                ex.probe.op(1);
                ex.stats.edges_relaxed += 1;
                if self.index[v as usize] == UNVISITED {
                    self.index[v as usize] = self.next_index;
                    self.lowlink[v as usize] = self.next_index;
                    ex.probe.touch(self.index_slot, v as usize);
                    ex.probe.touch(self.lowlink_slot, v as usize);
                    self.next_index += 1;
                    self.stack.push(v);
                    ex.probe.touch(self.stack_slot, self.stack.len() - 1);
                    self.on_stack.set(v as usize);
                    ex.probe
                        .touch(self.onstack_slot, DenseBitset::word_of(v as usize));
                    self.frames.push((v, 0));
                    ex.probe.touch(self.frames_slot, self.frames.len() - 1);
                    ex.stats.frontier_pushes += 1;
                } else {
                    ex.probe
                        .touch(self.onstack_slot, DenseBitset::word_of(v as usize));
                    if self.on_stack.get(v as usize) {
                        self.lowlink[u as usize] =
                            self.lowlink[u as usize].min(self.index[v as usize]);
                        ex.probe.touch(self.lowlink_slot, u as usize);
                    }
                }
            } else {
                self.frames.pop();
                if let Some(&(parent, _)) = self.frames.last() {
                    self.lowlink[parent as usize] =
                        self.lowlink[parent as usize].min(self.lowlink[u as usize]);
                    ex.probe.touch(self.lowlink_slot, parent as usize);
                    ex.probe.touch(self.lowlink_slot, u as usize);
                }
                ex.probe.touch(self.lowlink_slot, u as usize);
                ex.probe.touch(self.index_slot, u as usize);
                if self.lowlink[u as usize] == self.index[u as usize] {
                    // u is a root: pop its component
                    let id = self.sizes.len() as u32;
                    let mut size = 0u32;
                    loop {
                        let w = self.stack.pop().expect("tarjan stack underflow");
                        ex.probe.touch(self.stack_slot, self.stack.len());
                        self.on_stack.clear_bit(w as usize);
                        ex.probe
                            .touch(self.onstack_slot, DenseBitset::word_of(w as usize));
                        self.component[w as usize] = id;
                        ex.probe.touch(self.comp_slot, w as usize);
                        size += 1;
                        if w == u {
                            break;
                        }
                    }
                    self.sizes.push(size);
                }
            }
        }
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // Component count and the multiset of sizes are invariant under
        // relabeling; Σ size² is a cheap multiset fingerprint.
        self.sizes.iter().fold(self.sizes.len() as u64, |acc, &s| {
            acc.wrapping_add(u64::from(s) * u64::from(s))
        })
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.index));
        pool.put_u32(std::mem::take(&mut self.lowlink));
        pool.put_u32(std::mem::take(&mut self.component));
        pool.put_u32(std::mem::take(&mut self.sizes));
        pool.put_bitset(std::mem::take(&mut self.on_stack));
        pool.put_nodes(std::mem::take(&mut self.stack));
        pool.put_pairs(std::mem::take(&mut self.frames));
    }
}

/// Computes strongly connected components with iterative Tarjan.
pub fn scc(g: &Graph) -> SccResult {
    let mut kernel = SccKernel::default();
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
    fn single_cycle_is_one_component() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let r = scc(&g);
        assert_eq!(r.count(), 1);
        assert_eq!(r.largest(), 4);
    }

    #[test]
    fn two_cycles_with_bridge() {
        // cycle {0,1,2}, cycle {3,4}, bridge 2 -> 3
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 3)]);
        let r = scc(&g);
        assert_eq!(r.count(), 2);
        assert_eq!(r.component[0], r.component[1]);
        assert_eq!(r.component[3], r.component[4]);
        assert_ne!(r.component[0], r.component[3]);
    }

    #[test]
    fn empty_and_isolated() {
        assert_eq!(scc(&Graph::empty(0)).count(), 0);
        let r = scc(&Graph::empty(3));
        assert_eq!(r.count(), 3);
        assert_eq!(r.largest(), 1);
    }

    #[test]
    fn dag_has_singleton_components() {
        let r = scc(&Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        assert_eq!(r.count(), 4);
        assert_eq!(r.largest(), 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // Floyd–Warshall reads naturally with indices
    fn members_are_mutually_reachable() {
        let edges = [
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 2),
            (5, 0),
            (4, 5),
        ];
        let r = scc(&Graph::from_edges(6, &edges));
        let n = 6usize;
        let mut reach = vec![vec![false; n]; n];
        for i in 0..n {
            reach[i][i] = true;
        }
        for &(u, v) in &edges {
            reach[u as usize][v as usize] = true;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    reach[i][j] |= reach[i][k] && reach[k][j];
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                let same = r.component[i] == r.component[j];
                assert_eq!(same, reach[i][j] && reach[j][i], "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn deep_cycle_iterative_safe() {
        let n = 150_000u32;
        let mut edges: Vec<(NodeId, NodeId)> = (0..n - 1).map(|u| (u, u + 1)).collect();
        edges.push((n - 1, 0));
        let r = scc(&Graph::from_edges(n, &edges));
        assert_eq!(r.count(), 1);
        assert_eq!(r.largest(), n);
    }
}
