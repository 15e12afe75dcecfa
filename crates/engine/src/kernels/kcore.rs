//! Kcore — core decomposition by bucket peeling.
//!
//! The O(m) peeling algorithm of Batagelj & Zaveršnik: nodes are kept
//! bucket-sorted by current (total) degree; each step peels the minimum-
//! degree node, fixes its core number, and decrements the degree of its
//! still-unpeeled neighbours, moving each one bucket down with an O(1)
//! swap. Undirected degrees — an edge counts for both endpoints. One
//! `iterate` peels exactly one node.
//!
//! [`kcore_binary_heap`] is the O(m log n) lazy binary-heap variant the
//! replication used; it gives the same result and is kept as the other
//! side of the `kcore_ablation` bench (the replication's "binary heap …
//! quasi-linear" remark invites the comparison).

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::partition::partition_rows;
use crate::{parallel, Exec, ExecPlan, Kernel, KernelCtx, NoProbe};
use gorder_core::budget::Budget;
use gorder_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a core decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KcoreResult {
    /// `core[u]` = core number (max k with u in the k-core).
    pub core: Vec<u32>,
}

impl KcoreResult {
    /// Degeneracy of the graph: the maximum core number.
    pub fn degeneracy(&self) -> u32 {
        self.core.iter().copied().max().unwrap_or(0)
    }
}

/// Kcore as an engine kernel; one `iterate` peels one node.
#[derive(Default)]
pub struct KcoreKernel {
    gs: Option<GraphSlots>,
    deg_slot: Slot,
    pos_slot: Slot,
    vert_slot: Slot,
    core_slot: Slot,
    bin_slot: Slot,
    deg: Vec<u32>,
    pos: Vec<u32>,
    vert: Vec<u32>,
    core: Vec<u32>,
    bin: Vec<u32>,
    i: usize,
    done: bool,
}

impl KcoreKernel {
    /// The decomposition result (after the run).
    pub fn into_result(self) -> KcoreResult {
        KcoreResult { core: self.core }
    }
}

impl<P: Probe> Kernel<P> for KcoreKernel {
    fn name(&self) -> &'static str {
        "Kcore"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        if n == 0 {
            self.done = true;
            return;
        }
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.deg_slot = ex.probe.alloc(n, 4);
        self.pos_slot = ex.probe.alloc(n, 4);
        self.vert_slot = ex.probe.alloc(n, 4);
        self.core_slot = ex.probe.alloc(n, 4);
        self.deg = ex.pool.take_u32(n, 0);
        self.pos = ex.pool.take_u32(n, 0);
        self.vert = ex.pool.take_u32(n, 0);
        self.core = ex.pool.take_u32(n, 0);
        let threads = ex.par_threads();
        let mut max_deg = 0u32;
        if threads > 1 {
            // Parallel degree init: workers fill disjoint `deg` slices
            // (pure integer reads of the CSR offsets — no ordering
            // sensitivity) and report their local maximum. The bucket
            // peel below is inherently sequential (each peel mutates the
            // shared bucket structure the next one reads) and stays
            // serial under every plan.
            let ranges = partition_rows(g, threads);
            let mut work = Vec::with_capacity(ranges.len());
            let mut rest = self.deg.as_mut_slice();
            for &r in &ranges {
                let (head, tail) = rest.split_at_mut(r.len());
                rest = tail;
                work.push((r, head));
            }
            let results = parallel::run_tasks(
                work.into_iter()
                    .map(|(r, deg_out)| {
                        move || {
                            let mut local_max = 0u32;
                            for u in r.start..r.end {
                                let d = g.degree(u);
                                deg_out[(u - r.start) as usize] = d;
                                local_max = local_max.max(d);
                            }
                            local_max
                        }
                    })
                    .collect(),
            );
            for (t, (local_max, busy)) in results.into_iter().enumerate() {
                max_deg = max_deg.max(local_max);
                ex.stats.note_thread_busy(t, busy);
            }
        } else {
            for u in g.nodes() {
                ex.probe.touch(gs.out_off, u as usize);
                ex.probe.touch(gs.out_off, u as usize + 1);
                ex.probe.touch(gs.in_off, u as usize);
                ex.probe.touch(gs.in_off, u as usize + 1);
                ex.probe.touch(self.deg_slot, u as usize);
                let d = g.degree(u);
                self.deg[u as usize] = d;
                max_deg = max_deg.max(d);
            }
        }
        // Counting sort into degree buckets: bin[d] = start offset of
        // degree-d nodes in vert; pos is the inverse permutation.
        self.bin_slot = ex.probe.alloc(max_deg as usize + 2, 8);
        self.bin = ex.pool.take_u32(max_deg as usize + 2, 0);
        for u in g.nodes() {
            let d = self.deg[u as usize] as usize;
            self.bin[d + 1] += 1;
            ex.probe.touch(self.bin_slot, d + 1);
        }
        for d in 0..=max_deg as usize {
            self.bin[d + 1] += self.bin[d];
            ex.probe.touch(self.bin_slot, d + 1);
        }
        let mut cursor = self.bin.clone();
        for u in g.nodes() {
            let d = self.deg[u as usize] as usize;
            self.pos[u as usize] = cursor[d];
            self.vert[cursor[d] as usize] = u;
            ex.probe.touch(self.pos_slot, u as usize);
            ex.probe.touch(self.vert_slot, cursor[d] as usize);
            ex.probe.touch(self.bin_slot, d);
            cursor[d] += 1;
        }
        self.i = 0;
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        let n = g.n() as usize;
        let i = self.i;

        ex.probe.touch(self.vert_slot, i);
        let u = self.vert[i];
        ex.probe.touch(self.deg_slot, u as usize);
        self.core[u as usize] = self.deg[u as usize];
        ex.probe.touch(self.core_slot, u as usize);

        // Demote every still-higher-degree neighbour (out then in — the
        // union view of the undirected degree) one bucket down.
        let (out, out_base) = gs.out_list(&mut ex.probe, g, u);
        let (inn, in_base) = gs.in_list(&mut ex.probe, g, u);
        let out_len = out.len();
        for k in 0..out_len + inn.len() {
            let v = if k < out_len {
                ex.probe.touch(gs.out_tgt, out_base + k);
                out[k]
            } else {
                ex.probe.touch(gs.in_tgt, in_base + (k - out_len));
                inn[k - out_len]
            };
            ex.probe.touch(self.deg_slot, v as usize);
            ex.probe.op(1);
            ex.stats.edges_relaxed += 1;
            if self.deg[v as usize] > self.deg[u as usize] {
                let dv = self.deg[v as usize] as usize;
                let pv = self.pos[v as usize];
                ex.probe.touch(self.bin_slot, dv);
                let pw = self.bin[dv];
                ex.probe.touch(self.vert_slot, pw as usize);
                let w = self.vert[pw as usize];
                if v != w {
                    self.vert[pv as usize] = w;
                    self.vert[pw as usize] = v;
                    self.pos[v as usize] = pw;
                    self.pos[w as usize] = pv;
                    ex.probe.touch(self.vert_slot, pv as usize);
                    ex.probe.touch(self.pos_slot, v as usize);
                    ex.probe.touch(self.pos_slot, w as usize);
                }
                self.bin[dv] += 1;
                ex.probe.touch(self.bin_slot, dv);
                self.deg[v as usize] -= 1;
                ex.probe.touch(self.deg_slot, v as usize);
            }
        }
        self.i += 1;
        self.done = self.i == n;
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // The multiset of core numbers is relabeling-invariant.
        self.core
            .iter()
            .fold(0u64, |a, &c| a.wrapping_add(u64::from(c) * u64::from(c)))
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.deg));
        pool.put_u32(std::mem::take(&mut self.pos));
        pool.put_u32(std::mem::take(&mut self.vert));
        pool.put_u32(std::mem::take(&mut self.core));
        pool.put_u32(std::mem::take(&mut self.bin));
    }
}

/// Computes core numbers by bucket peeling.
pub fn kcore(g: &Graph) -> KcoreResult {
    kcore_with_plan(g, ExecPlan::Serial)
}

/// [`kcore`] under an explicit [`ExecPlan`]; core numbers are identical
/// to the serial run for every plan (only the degree init parallelises).
pub fn kcore_with_plan(g: &Graph, plan: ExecPlan) -> KcoreResult {
    let mut kernel = KcoreKernel::default();
    let mut pool = BufferPool::new();
    let mut ex = Exec::with_plan(NoProbe, &mut pool, plan);
    let _ = crate::run_kernel(
        &mut kernel,
        g,
        &KernelCtx::default(),
        &mut ex,
        &Budget::unlimited(),
    );
    kernel.into_result()
}

/// Lazy binary-heap peeling, O(m log n). Same result as [`kcore`].
pub fn kcore_binary_heap(g: &Graph) -> KcoreResult {
    let n = g.n() as usize;
    let mut deg: Vec<u32> = g.nodes().map(|u| g.degree(u)).collect();
    let mut heap: BinaryHeap<Reverse<(u32, NodeId)>> = (0..n as u32)
        .map(|u| Reverse((deg[u as usize], u)))
        .collect();
    let mut removed = vec![false; n];
    let mut core = vec![0u32; n];
    let mut current = 0u32;
    while let Some(Reverse((d, u))) = heap.pop() {
        if removed[u as usize] || d != deg[u as usize] {
            continue; // stale entry
        }
        removed[u as usize] = true;
        current = current.max(d);
        core[u as usize] = current;
        for &v in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
            if !removed[v as usize] && deg[v as usize] > 0 {
                deg[v as usize] -= 1;
                heap.push(Reverse((deg[v as usize], v)));
            }
        }
    }
    KcoreResult { core }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_graph::gen::{preferential_attachment, PrefAttachConfig};
    use gorder_graph::Permutation;

    fn social(n: u32, seed: u64) -> Graph {
        preferential_attachment(PrefAttachConfig {
            n,
            out_degree: 4,
            reciprocity: 0.3,
            uniform_mix: 0.2,
            closure_prob: 0.3,
            recency_bias: 0.3,
            seed,
        })
    }

    /// Reference: naive repeated minimum-degree removal.
    fn naive_kcore(g: &Graph) -> Vec<u32> {
        let n = g.n() as usize;
        let mut alive = vec![true; n];
        let mut deg: Vec<u32> = g.nodes().map(|u| g.degree(u)).collect();
        let mut core = vec![0u32; n];
        let mut level = 0u32;
        for _ in 0..n {
            let u = (0..n)
                .filter(|&u| alive[u])
                .min_by_key(|&u| deg[u])
                .unwrap();
            level = level.max(deg[u]);
            core[u] = level;
            alive[u] = false;
            for &v in g
                .out_neighbors(u as NodeId)
                .iter()
                .chain(g.in_neighbors(u as NodeId))
            {
                if alive[v as usize] {
                    deg[v as usize] -= 1;
                }
            }
        }
        core
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..5 {
            let g = social(120, seed);
            assert_eq!(kcore(&g).core, naive_kcore(&g), "seed {seed}");
        }
    }

    #[test]
    fn heap_variant_matches_bucket_variant() {
        for seed in 0..5 {
            let g = social(200, seed + 100);
            assert_eq!(kcore(&g).core, kcore_binary_heap(&g).core, "seed {seed}");
        }
        assert_eq!(kcore_binary_heap(&Graph::empty(0)).degeneracy(), 0);
    }

    #[test]
    fn core_numbers_invariant_under_relabel() {
        let g = social(150, 7);
        let perm = Permutation::try_new((0..150).rev().collect()).unwrap();
        let h = g.relabel(&perm);
        let (cg, ch) = (kcore(&g).core, kcore(&h).core);
        for u in 0..150u32 {
            assert_eq!(cg[u as usize], ch[perm.apply(u) as usize]);
        }
        let ctx = KernelCtx::default();
        let checksum = |g: &Graph| crate::run_by_name("Kcore", g, &ctx).unwrap().checksum;
        assert_eq!(checksum(&g), checksum(&h));
    }

    #[test]
    fn isolated_nodes_are_zero_core() {
        // the bidirected pair has multigraph degree 2 each
        let g = Graph::from_edges(5, &[(0, 1), (1, 0)]);
        assert_eq!(kcore(&g).core, vec![2, 2, 0, 0, 0]);
    }

    #[test]
    fn triangle_is_two_core() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let r = kcore(&g);
        assert_eq!(r.core, vec![2, 2, 2]);
        assert_eq!(r.degeneracy(), 2);
    }

    #[test]
    fn triangle_with_pendant() {
        // pendant node 3 attached to the triangle: core 1, rest core 2
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let r = kcore(&g);
        assert_eq!(r.core, vec![2, 2, 2, 1]);
    }

    #[test]
    fn empty_graphs() {
        assert_eq!(kcore(&Graph::empty(0)).degeneracy(), 0);
        assert_eq!(kcore(&Graph::empty(5)).core, vec![0; 5]);
    }

    #[test]
    fn parallel_cores_match_serial() {
        let mut edges = vec![(0, 1), (1, 2), (2, 0), (0, 3)];
        for u in 4..20u32 {
            edges.push((u - 1, u));
            edges.push((u, 0));
        }
        let g = Graph::from_edges(20, &edges);
        let serial = kcore(&g);
        for threads in [2, 3, 7] {
            let par = kcore_with_plan(&g, ExecPlan::with_threads(threads));
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_on_degenerate_graphs() {
        for g in [Graph::empty(0), Graph::empty(1), Graph::empty(9)] {
            assert_eq!(kcore(&g), kcore_with_plan(&g, ExecPlan::with_threads(4)));
        }
    }
}
