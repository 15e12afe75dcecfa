//! NQ — neighbour query.
//!
//! The paper's elementary benchmark: for every node `u`, access all
//! out-neighbours and combine a per-neighbour attribute. Following the
//! replication, the attribute is the neighbour's out-degree:
//! `q_u = Σ_{v ∈ N_u} d_v`. The degree lookup `d_v` is the
//! cache-sensitive access — neighbours with nearby ids hit the same
//! cache lines of the degree array.

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, Kernel, KernelCtx, NoProbe};
use gorder_core::budget::Budget;
use gorder_graph::Graph;

/// NQ as an engine kernel: `init` materialises the degree array, one
/// `iterate` performs the full query sweep.
#[derive(Default)]
pub struct NqKernel {
    gs: Option<GraphSlots>,
    deg_slot: Slot,
    q_slot: Slot,
    degree: Vec<u32>,
    q: Vec<u64>,
    checksum: u64,
    done: bool,
}

impl NqKernel {
    /// The per-node query values (after the run).
    pub fn into_result(self) -> Vec<u64> {
        self.q
    }
}

impl<P: Probe> Kernel<P> for NqKernel {
    fn name(&self) -> &'static str {
        "NQ"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.deg_slot = ex.probe.alloc(n, 4);
        self.degree = ex.pool.take_u32(n, 0);
        // Materialise the degree array (sequential offset reads + writes).
        for u in g.nodes() {
            ex.probe.touch(gs.out_off, u as usize);
            ex.probe.touch(gs.out_off, u as usize + 1);
            ex.probe.touch(self.deg_slot, u as usize);
            ex.probe.op(1);
            self.degree[u as usize] = g.out_degree(u);
        }
        self.q_slot = ex.probe.alloc(n, 8);
        self.q = ex.pool.take_u64(n, 0);
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        for u in g.nodes() {
            let (list, base) = gs.out_list(&mut ex.probe, g, u);
            let mut sum = 0u64;
            for (k, &v) in list.iter().enumerate() {
                ex.probe.touch(gs.out_tgt, base + k);
                ex.probe.touch(self.deg_slot, v as usize); // the cache-sensitive access
                ex.probe.op(1);
                ex.stats.edges_relaxed += 1;
                sum += u64::from(self.degree[v as usize]);
            }
            ex.probe.touch(self.q_slot, u as usize);
            self.q[u as usize] = sum;
            self.checksum = self.checksum.wrapping_add(sum);
        }
        self.done = true;
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // The total Σ q_u is invariant under relabeling.
        self.checksum
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.degree));
        pool.put_u64(std::mem::take(&mut self.q));
    }
}

/// Computes `q_u = Σ_{v ∈ out(u)} out_degree(v)` for every node.
pub fn neighbor_query(g: &Graph) -> Vec<u64> {
    let mut kernel = NqKernel::default();
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
    fn sums_of_neighbor_degrees() {
        // 0 -> {1, 2}; 1 -> {2}; 2 -> {}
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(neighbor_query(&g), vec![1, 0, 0]);
    }

    #[test]
    fn empty_graph() {
        assert!(neighbor_query(&Graph::empty(0)).is_empty());
        assert_eq!(neighbor_query(&Graph::empty(3)), vec![0, 0, 0]);
    }

    #[test]
    fn per_node_values_map_through_permutation() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let perm = gorder_graph::Permutation::try_new(vec![1, 2, 0]).unwrap();
        let q0 = neighbor_query(&g);
        let q1 = neighbor_query(&g.relabel(&perm));
        for u in 0..3u32 {
            assert_eq!(q0[u as usize], q1[perm.apply(u) as usize]);
        }
    }
}
