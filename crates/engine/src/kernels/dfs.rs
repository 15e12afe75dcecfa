//! DFS — depth-first search.
//!
//! Iterative (explicit stack — the paper's graphs are far too deep for
//! recursion), full coverage via restarts in ascending id order,
//! children visited in ascending id order. One `iterate` explores one
//! complete DFS tree.

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, Kernel, KernelCtx, NoProbe};
use gorder_core::budget::Budget;
use gorder_graph::{Graph, NodeId};

/// Result of a full-coverage DFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsResult {
    /// Nodes in discovery (pre-) order.
    pub preorder: Vec<NodeId>,
    /// `discovery[u]` = index of `u` in `preorder`.
    pub discovery: Vec<u32>,
    /// Number of tree edges (n − number of restart roots).
    pub tree_edges: u32,
}

/// DFS as an engine kernel; one `iterate` explores one tree (the
/// context source's first, then one per restart root).
#[derive(Default)]
pub struct DfsKernel {
    gs: Option<GraphSlots>,
    disc_slot: Slot,
    stack_slot: Slot,
    discovery: Vec<u32>,
    preorder: Vec<NodeId>,
    stack: Vec<(NodeId, u32)>,
    tree_edges: u32,
    /// Next start candidate: 0 = the context source, `k` = node `k − 1`.
    next_start: u32,
    done: bool,
}

impl DfsKernel {
    /// The traversal result (after the run).
    pub fn into_result(self) -> DfsResult {
        DfsResult {
            preorder: self.preorder,
            discovery: self.discovery,
            tree_edges: self.tree_edges,
        }
    }
}

impl<P: Probe> Kernel<P> for DfsKernel {
    fn name(&self) -> &'static str {
        "DFS"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        if n == 0 {
            self.done = true;
            return;
        }
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.disc_slot = ex.probe.alloc(n, 4);
        self.stack_slot = ex.probe.alloc(n, 8);
        self.discovery = ex.pool.take_u32(n, u32::MAX);
        self.preorder = ex.pool.take_nodes(n);
        self.stack = ex.pool.take_pairs(n);
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        let n = g.n();

        // Find the next undiscovered start.
        let s = loop {
            if self.next_start > n {
                self.done = true;
                return;
            }
            let s = if self.next_start == 0 {
                ctx.source_for(g)
            } else {
                self.next_start - 1
            };
            self.next_start += 1;
            ex.probe.touch(self.disc_slot, s as usize);
            if self.discovery[s as usize] == u32::MAX {
                break s;
            }
        };

        // Explore the whole tree rooted at `s`, children expanded lazily
        // in ascending id order exactly like the recursive definition.
        self.discovery[s as usize] = self.preorder.len() as u32;
        self.preorder.push(s);
        self.stack.push((s, 0));
        ex.probe.touch(self.stack_slot, self.stack.len() - 1);
        ex.stats.frontier_pushes += 1;
        while !self.stack.is_empty() {
            ex.stats.note_frontier_peak(self.stack.len());
            let top = self.stack.len() - 1;
            ex.probe.touch(self.stack_slot, top);
            let (u, mut next) = self.stack[top];
            let (list, base) = gs.out_list(&mut ex.probe, g, u);
            let mut advanced = false;
            while (next as usize) < list.len() {
                let k = next as usize;
                let v = list[k];
                next += 1;
                ex.probe.touch(gs.out_tgt, base + k);
                ex.probe.touch(self.disc_slot, v as usize);
                ex.probe.op(1);
                ex.stats.edges_relaxed += 1;
                if self.discovery[v as usize] == u32::MAX {
                    self.discovery[v as usize] = self.preorder.len() as u32;
                    ex.probe.touch(self.disc_slot, v as usize); // write
                    self.preorder.push(v);
                    self.tree_edges += 1;
                    self.stack[top].1 = next;
                    self.stack.push((v, 0));
                    ex.probe.touch(self.stack_slot, self.stack.len() - 1);
                    ex.stats.frontier_pushes += 1;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                self.stack.pop();
            }
        }
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // Node count and edge count are relabeling-invariant; discovery
        // order is not, so the checksum sticks to invariants while still
        // depending on the traversal having completed.
        (self.preorder.len() as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ u64::from(self.tree_edges)
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.discovery));
        pool.put_nodes(std::mem::take(&mut self.preorder));
        pool.put_pairs(std::mem::take(&mut self.stack));
    }
}

/// Runs a full-coverage iterative DFS starting at `source`.
pub fn dfs(g: &Graph, source: NodeId) -> DfsResult {
    let mut kernel = DfsKernel::default();
    let ctx = KernelCtx {
        source: Some(source),
        ..Default::default()
    };
    let mut pool = BufferPool::new();
    let mut ex = Exec::new(NoProbe, &mut pool);
    let _ = crate::run_kernel(&mut kernel, g, &ctx, &mut ex, &Budget::unlimited());
    kernel.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preorder_on_tree() {
        // 0 -> {1, 4}; 1 -> {2, 3}
        let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 3)]);
        let r = dfs(&g, 0);
        assert_eq!(r.preorder, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.tree_edges, 4);
    }

    #[test]
    fn restart_coverage() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let r = dfs(&g, 0);
        assert_eq!(r.preorder.len(), 4);
        assert_eq!(r.tree_edges, 2); // two trees of one edge each
    }

    #[test]
    fn discovery_indexes_preorder() {
        let g = Graph::from_edges(5, &[(0, 2), (2, 1), (1, 3), (0, 4)]);
        let r = dfs(&g, 0);
        for (i, &u) in r.preorder.iter().enumerate() {
            assert_eq!(r.discovery[u as usize], i as u32);
        }
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        let n = 200_000u32;
        let edges: Vec<(NodeId, NodeId)> = (0..n - 1).map(|u| (u, u + 1)).collect();
        let r = dfs(&Graph::from_edges(n, &edges), 0);
        assert_eq!(r.preorder.len(), n as usize);
        assert_eq!(r.tree_edges, n - 1);
    }

    #[test]
    fn back_edges_are_not_tree_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(dfs(&g, 0).tree_edges, 2);
    }

    #[test]
    fn lexicographic_child_order() {
        // child 1 before child 2 despite insertion order
        let g = Graph::from_edges(4, &[(0, 2), (0, 1), (2, 3)]);
        assert_eq!(dfs(&g, 0).preorder, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty() {
        let r = dfs(&Graph::empty(0), 0);
        assert!(r.preorder.is_empty());
        assert_eq!(r.tree_edges, 0);
    }
}
