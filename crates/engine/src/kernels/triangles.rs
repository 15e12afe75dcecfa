//! Tri — triangle counting (extension kernel).
//!
//! Counts triangles in the symmetrised simple graph with the standard
//! forward algorithm: orient every undirected edge from the lower-rank
//! endpoint to the higher, rank being (undirected degree, id), then
//! intersect the forward lists of each edge's endpoints. O(m^{3/2})
//! worst case, far better on skewed graphs. The intersection loops read
//! neighbour lists of *pairs* of adjacent nodes — co-access that node
//! orderings directly influence, which is why triangle counting is a
//! favourite beneficiary in the reordering literature that followed the
//! paper.
//!
//! `init` builds the symmetrised adjacency and the flattened forward
//! lists; one `iterate` intersects the forward list of one node.

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, Kernel, KernelCtx, NoProbe};
use gorder_core::budget::Budget;
use gorder_graph::{Graph, NodeId};

/// Tri as an engine kernel; one `iterate` handles one node's forward
/// edges.
#[derive(Default)]
pub struct TriKernel {
    fwd_slot: Slot,
    /// Forward lists, flattened: node `u`'s list is
    /// `fwd[fwd_off[u]..fwd_off[u + 1]]`, ascending.
    fwd_off: Vec<u64>,
    fwd: Vec<NodeId>,
    u: usize,
    count: u64,
    done: bool,
}

impl TriKernel {
    fn fwd_range(&self, u: usize) -> (usize, usize) {
        (self.fwd_off[u] as usize, self.fwd_off[u + 1] as usize)
    }
}

impl<P: Probe> Kernel<P> for TriKernel {
    fn name(&self) -> &'static str {
        "Tri"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        let gs = GraphSlots::new(&mut ex.probe, g);
        // Symmetrised simple adjacency: one pass over both CSR sides,
        // then sort + dedup + drop self-loops per node.
        let mut und_off = ex.pool.take_u64(0, 0);
        let mut und = ex.pool.take_nodes(2 * g.m() as usize);
        und_off.push(0);
        for u in g.nodes() {
            let start = und.len();
            let (out, out_base) = gs.out_list(&mut ex.probe, g, u);
            for k in 0..out.len() {
                ex.probe.touch(gs.out_tgt, out_base + k);
            }
            let (inn, in_base) = gs.in_list(&mut ex.probe, g, u);
            for k in 0..inn.len() {
                ex.probe.touch(gs.in_tgt, in_base + k);
            }
            und.extend_from_slice(out);
            und.extend_from_slice(inn);
            let merged = &mut und[start..];
            merged.sort_unstable();
            ex.probe.op(merged.len() as u64); // sort + dedup bookkeeping
            let mut kept = start;
            for i in start..und.len() {
                let v = und[i];
                if v != u && (kept == start || und[kept - 1] != v) {
                    und[kept] = v;
                    kept += 1;
                }
            }
            und.truncate(kept);
            und_off.push(kept as u64);
        }
        // Forward orientation: keep v in u's list iff rank(v) > rank(u),
        // rank = (undirected degree, id); the degree lookups are reads of
        // a per-node attribute array.
        let deg_slot = ex.probe.alloc(n, 4);
        let rank = |u: usize| (und_off[u + 1] - und_off[u], u);
        self.fwd_off = ex.pool.take_u64(0, 0);
        self.fwd = ex.pool.take_nodes(und.len() / 2);
        self.fwd_off.push(0);
        for u in 0..n {
            for &v in &und[und_off[u] as usize..und_off[u + 1] as usize] {
                ex.probe.touch(deg_slot, v as usize);
                ex.probe.op(1);
                if rank(v as usize) > rank(u) {
                    self.fwd.push(v);
                }
            }
            self.fwd_off.push(self.fwd.len() as u64);
        }
        ex.pool.put_u64(und_off);
        ex.pool.put_nodes(und);
        self.fwd_slot = ex.probe.alloc(self.fwd.len().max(1), 4);
        self.done = n == 0;
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, _g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let u = self.u;
        let (ua, ub) = self.fwd_range(u);
        for ku in ua..ub {
            ex.probe.touch(self.fwd_slot, ku);
            ex.stats.edges_relaxed += 1;
            let (va, vb) = self.fwd_range(self.fwd[ku] as usize);
            let (mut i, mut j) = (ua, va);
            while i < ub && j < vb {
                ex.probe.touch(self.fwd_slot, i);
                ex.probe.touch(self.fwd_slot, j);
                ex.probe.op(1);
                match self.fwd[i].cmp(&self.fwd[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        self.count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        self.u += 1;
        self.done = self.u + 1 == self.fwd_off.len();
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        self.count
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u64(std::mem::take(&mut self.fwd_off));
        pool.put_nodes(std::mem::take(&mut self.fwd));
    }
}

/// Counts triangles in the symmetrised simple graph.
pub fn count_triangles(g: &Graph) -> u64 {
    let mut kernel = TriKernel::default();
    let mut pool = BufferPool::new();
    let mut ex = Exec::new(NoProbe, &mut pool);
    crate::run_kernel(
        &mut kernel,
        g,
        &KernelCtx::default(),
        &mut ex,
        &Budget::unlimited(),
    )
    .value()
    .expect("unlimited budget always completes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_by_name;
    use gorder_graph::gen::{preferential_attachment, PrefAttachConfig};
    use gorder_graph::Permutation;
    use rand::SeedableRng;

    /// O(n³) reference count on the symmetrised simple graph.
    fn naive(g: &Graph) -> u64 {
        let n = g.n();
        let adj = |u: NodeId, v: NodeId| g.has_edge(u, v) || g.has_edge(v, u);
        let mut count = 0;
        for a in 0..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    if adj(a, b) && adj(b, c) && adj(a, c) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    fn social(n: u32, seed: u64) -> Graph {
        preferential_attachment(PrefAttachConfig {
            n,
            out_degree: 4,
            reciprocity: 0.4,
            uniform_mix: 0.3,
            closure_prob: 0.4,
            recency_bias: 0.2,
            seed,
        })
    }

    #[test]
    fn single_triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(count_triangles(&g), 1);
    }

    #[test]
    fn direction_and_reciprocity_do_not_double_count() {
        // fully bidirected triangle is still one triangle
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]);
        assert_eq!(count_triangles(&g), 1);
    }

    #[test]
    fn two_triangles_sharing_an_edge() {
        // triangles in the symmetrised view: {0,1,2} and {0,1,3}
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)]);
        assert_eq!(count_triangles(&g), 2);
    }

    #[test]
    fn self_loops_are_ignored() {
        let g = Graph::from_edges(3, &[(0, 0), (0, 1), (1, 2), (2, 0), (2, 2)]);
        assert_eq!(count_triangles(&g), 1);
    }

    #[test]
    fn square_has_none() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(count_triangles(&g), 0);
    }

    #[test]
    fn k4_has_four() {
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in a + 1..4u32 {
                edges.push((a, b));
            }
        }
        let g = Graph::from_edges(4, &edges);
        assert_eq!(count_triangles(&g), 4);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..4 {
            let g = social(60, seed);
            assert_eq!(count_triangles(&g), naive(&g), "seed {seed}");
        }
    }

    #[test]
    fn invariant_under_relabel() {
        let g = social(150, 9);
        let perm = Permutation::random(g.n(), &mut rand::rngs::StdRng::seed_from_u64(2));
        assert_eq!(count_triangles(&g), count_triangles(&g.relabel(&perm)));
    }

    #[test]
    fn stats_walk_each_simple_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 0), (2, 3)]);
        let run = run_by_name("Tri", &g, &KernelCtx::default()).unwrap();
        assert_eq!(run.checksum, 1);
        assert_eq!(run.stats.edges_relaxed, 4); // {0,1} {1,2} {0,2} {2,3}
        assert_eq!(run.stats.iterations, 4); // one per node
    }

    #[test]
    fn empty() {
        assert_eq!(count_triangles(&Graph::empty(0)), 0);
        assert_eq!(count_triangles(&Graph::empty(5)), 0);
    }
}
