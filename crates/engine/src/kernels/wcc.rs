//! WCC — weakly connected components (extension kernel).
//!
//! Not part of the paper's nine-kernel suite; included because the
//! paper's discussion argues Gorder "could speed up other graph
//! algorithms as well". A BFS over the symmetrised view (out-list, then
//! in-list of every dequeued node) from every still-unlabelled root in
//! ascending id order — frontier-local accesses, ordering-sensitive like
//! the paper's BFS. One `iterate` labels one component.

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, Kernel, KernelCtx, NoProbe};
use gorder_core::budget::Budget;
use gorder_graph::{Graph, NodeId};

const UNLABELLED: u32 = u32::MAX;

/// Result of a WCC decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WccResult {
    /// Dense component id per node.
    pub component: Vec<u32>,
    /// Size of each component.
    pub sizes: Vec<u32>,
}

impl WccResult {
    /// Number of weakly connected components.
    pub fn count(&self) -> u32 {
        self.sizes.len() as u32
    }

    /// Size of the largest component.
    pub fn largest(&self) -> u32 {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// WCC as an engine kernel; one `iterate` labels one component.
#[derive(Default)]
pub struct WccKernel {
    gs: Option<GraphSlots>,
    comp_slot: Slot,
    queue_slot: Slot,
    component: Vec<u32>,
    sizes: Vec<u32>,
    queue: Vec<NodeId>,
    /// The next root candidate; after init and after every iterate it is
    /// the smallest unlabelled node (or `n`).
    root: u32,
    done: bool,
}

impl WccKernel {
    /// The decomposition (after the run).
    pub fn into_result(self) -> WccResult {
        WccResult {
            component: self.component,
            sizes: self.sizes,
        }
    }

    /// Advances `root` to the next unlabelled node, touching the label of
    /// every candidate it checks; sets `done` when none is left.
    fn seek_root<P: Probe>(&mut self, g: &Graph, probe: &mut P) {
        while self.root < g.n() {
            probe.touch(self.comp_slot, self.root as usize);
            if self.component[self.root as usize] == UNLABELLED {
                return;
            }
            self.root += 1;
        }
        self.done = true;
    }

    /// Labels every unlabelled node of `list` with `id` and enqueues it.
    fn absorb<P: Probe>(
        &mut self,
        list: &[NodeId],
        base: usize,
        tgt: Slot,
        id: u32,
        ex: &mut Exec<'_, P>,
    ) {
        ex.stats.edges_relaxed += list.len() as u64;
        for (k, &v) in list.iter().enumerate() {
            ex.probe.touch(tgt, base + k);
            ex.probe.touch(self.comp_slot, v as usize);
            if self.component[v as usize] == UNLABELLED {
                self.component[v as usize] = id;
                ex.probe.touch(self.comp_slot, v as usize);
                ex.probe.touch(self.queue_slot, self.queue.len());
                self.queue.push(v);
            }
        }
    }
}

impl<P: Probe> Kernel<P> for WccKernel {
    fn name(&self) -> &'static str {
        "WCC"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.comp_slot = ex.probe.alloc(n, 4);
        self.queue_slot = ex.probe.alloc(n.max(1), 4);
        self.component = ex.pool.take_u32(n, UNLABELLED);
        self.sizes = ex.pool.take_u32(0, 0);
        self.queue = ex.pool.take_nodes(n);
        self.gs = Some(gs);
        self.seek_root(g, &mut ex.probe);
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        let id = self.sizes.len() as u32;
        let root = self.root;
        self.component[root as usize] = id;
        self.queue.clear();
        self.queue.push(root);
        ex.probe.touch(self.queue_slot, 0);
        let mut head = 0;
        while head < self.queue.len() {
            ex.probe.touch(self.queue_slot, head);
            let u = self.queue[head];
            head += 1;
            let (out, out_base) = gs.out_list(&mut ex.probe, g, u);
            self.absorb(out, out_base, gs.out_tgt, id, ex);
            let (inn, in_base) = gs.in_list(&mut ex.probe, g, u);
            self.absorb(inn, in_base, gs.in_tgt, id, ex);
        }
        ex.stats.frontier_pushes += head as u64;
        ex.stats.note_frontier_peak(head);
        self.sizes.push(head as u32);
        self.root += 1;
        self.seek_root(g, &mut ex.probe);
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // Component count plus Σ size² — invariant under relabeling.
        self.sizes.iter().fold(self.sizes.len() as u64, |acc, &s| {
            acc.wrapping_add(u64::from(s) * u64::from(s))
        })
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.component));
        pool.put_u32(std::mem::take(&mut self.sizes));
        pool.put_nodes(std::mem::take(&mut self.queue));
    }
}

/// Weakly connected components by BFS over the symmetrised view.
pub fn wcc(g: &Graph) -> WccResult {
    let mut kernel = WccKernel::default();
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
    use crate::kernels::scc::scc;
    use crate::run_by_name;
    use gorder_graph::gen::erdos_renyi;
    use gorder_graph::Permutation;
    use rand::SeedableRng;

    /// Oracle: union–find with path halving and union by size — a
    /// different algorithm that must find the same partition.
    fn wcc_union_find(g: &Graph) -> WccResult {
        let n = g.n() as usize;
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut size: Vec<u32> = vec![1; n];
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for (u, v) in g.edges() {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                let (big, small) = if size[ru as usize] >= size[rv as usize] {
                    (ru, rv)
                } else {
                    (rv, ru)
                };
                parent[small as usize] = big;
                size[big as usize] += size[small as usize];
            }
        }
        let mut component = vec![UNLABELLED; n];
        let mut sizes = Vec::new();
        for u in 0..n as u32 {
            let r = find(&mut parent, u);
            if component[r as usize] == UNLABELLED {
                component[r as usize] = sizes.len() as u32;
                sizes.push(0);
            }
            let id = component[r as usize];
            component[u as usize] = id;
            sizes[id as usize] += 1;
        }
        WccResult { component, sizes }
    }

    fn checksum(g: &Graph) -> u64 {
        run_by_name("WCC", g, &KernelCtx::default())
            .unwrap()
            .checksum
    }

    #[test]
    fn direction_is_ignored() {
        // 0 -> 1 <- 2: weakly one component
        let g = Graph::from_edges(3, &[(0, 1), (2, 1)]);
        let r = wcc(&g);
        assert_eq!(r.count(), 1);
        assert_eq!(r.largest(), 3);
    }

    #[test]
    fn separate_components_counted() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let r = wcc(&g);
        assert_eq!(r.count(), 3); // {0,1}, {2,3}, {4}
        let mut sizes = r.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 2]);
    }

    #[test]
    fn checksum_counts_components_and_squares() {
        // components {0,1,2} and {3,4}: 2 + 9 + 4 = 15
        let g = Graph::from_edges(5, &[(0, 1), (2, 1), (3, 4)]);
        assert_eq!(checksum(&g), 15);
    }

    #[test]
    fn union_find_matches_bfs() {
        for seed in 0..5 {
            let g = erdos_renyi(300, 350, seed); // sparse → many components
            let a = wcc(&g);
            let b = wcc_union_find(&g);
            assert_eq!(a.count(), b.count(), "seed {seed}");
            // same partition: component labels may differ, membership not
            for u in g.nodes() {
                for v in g.nodes() {
                    let same_a = a.component[u as usize] == a.component[v as usize];
                    let same_b = b.component[u as usize] == b.component[v as usize];
                    assert_eq!(same_a, same_b, "seed {seed}, pair ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn checksum_invariant_under_relabel() {
        let g = erdos_renyi(200, 300, 7);
        let perm = Permutation::random(g.n(), &mut rand::rngs::StdRng::seed_from_u64(1));
        assert_eq!(checksum(&g), checksum(&g.relabel(&perm)));
    }

    #[test]
    fn empty_and_isolated() {
        assert_eq!(wcc(&Graph::empty(0)).count(), 0);
        assert_eq!(wcc(&Graph::empty(4)).count(), 4);
        assert_eq!(wcc_union_find(&Graph::empty(4)).count(), 4);
    }

    #[test]
    fn one_iteration_per_component() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 1), (3, 4)]);
        let run = run_by_name("WCC", &g, &KernelCtx::default()).unwrap();
        assert_eq!(run.stats.iterations, 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(run.stats.edges_relaxed, 2 * g.m());
        assert_eq!(run.stats.frontier_pushes, 6);
    }

    #[test]
    fn wcc_at_least_as_coarse_as_scc() {
        let g = erdos_renyi(150, 400, 3);
        let w = wcc(&g);
        let s = scc(&g);
        assert!(w.count() <= s.count());
        // nodes in the same SCC are necessarily in the same WCC
        for u in g.nodes() {
            for v in g.nodes() {
                if s.component[u as usize] == s.component[v as usize] {
                    assert_eq!(w.component[u as usize], w.component[v as usize]);
                }
            }
        }
    }
}
