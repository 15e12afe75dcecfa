//! Per-kernel memory-access replay, driven by the engine.
//!
//! All thirteen kernels — the paper's nine and the four extensions
//! (DESIGN.md §8) — live in `gorder-engine`; this module plugs a
//! [`TracerProbe`] into them, so the *same* kernel code that produces
//! wall-clock numbers also drives the cache model — same loops, same
//! tie-breaks, same checksum (the test suites assert checksum equality
//! against the `NoProbe` run). CSR arrays and property arrays are laid
//! out by the tracer's bump allocator exactly as consecutively allocated
//! `Vec`s would be.
//!
//! Instruction fetch and stack spill traffic are not modelled; the paper's
//! counters likewise focus on data cache (`L1-dcache-loads`, `LLC-loads`).

/// Run parameters — the engine's context (the facade's `RunCtx`).
pub use gorder_engine::KernelCtx as TraceCtx;

/// The paper kernels, in paper order — the engine's name table.
pub use gorder_engine::PAPER_KERNELS as TRACED_ALGOS;

/// The extension kernels (DESIGN.md §8) — the engine's name table.
pub use gorder_engine::EXTENSION_KERNELS as TRACED_EXTENSIONS;

use crate::tracer::{Tracer, VArray};
use gorder_engine::{KernelStats, Probe, Slot};
use gorder_graph::Graph;

/// An engine [`Probe`] that forwards every kernel memory access into a
/// [`Tracer`]'s cache hierarchy.
///
/// Each [`Probe::alloc`] becomes a tracer allocation (line-aligned, laid
/// out in call order) and each [`Probe::touch`] a simulated load at the
/// element's address. Touch indices are clamped to the registered array
/// bounds: kernels occasionally probe one-past-the-end positions (heap
/// sift paths on a just-emptied heap, sentinel reads on zero-length
/// arrays), and the clamp maps those to the nearest real line instead of
/// tripping the tracer's bounds check.
pub struct TracerProbe<'t> {
    tracer: &'t mut Tracer,
    slots: Vec<VArray>,
}

impl<'t> TracerProbe<'t> {
    /// Wraps `tracer`; arrays registered through the probe are allocated
    /// in the tracer's address space.
    pub fn new(tracer: &'t mut Tracer) -> Self {
        TracerProbe {
            tracer,
            slots: Vec::new(),
        }
    }
}

impl Probe for TracerProbe<'_> {
    fn alloc(&mut self, len: usize, elem_bytes: u64) -> Slot {
        let slot = Slot::new(self.slots.len() as u32);
        self.slots.push(self.tracer.alloc(len, elem_bytes));
        slot
    }

    fn touch(&mut self, slot: Slot, i: usize) {
        let arr = &self.slots[slot.index() as usize];
        let clamped = i.min((arr.len() as usize).saturating_sub(1));
        self.tracer.touch(arr, clamped);
    }

    fn op(&mut self, n: u64) {
        self.tracer.op(n);
    }
}

/// Replays the kernel labelled `name` (case-insensitive) through the
/// cache model, returning the checksum and the engine's per-kernel
/// statistics, or `None` for an unknown label.
pub fn replay_with_stats(
    name: &str,
    g: &Graph,
    t: &mut Tracer,
    ctx: &TraceCtx,
) -> Option<(u64, KernelStats)> {
    let run = gorder_engine::run_probed(name, g, ctx, TracerProbe::new(t))?;
    Some((run.checksum, run.stats))
}

/// Replays the kernel labelled `name` through the cache model. Returns
/// the checksum, or `None` for an unknown label.
pub fn replay(name: &str, g: &Graph, t: &mut Tracer, ctx: &TraceCtx) -> Option<u64> {
    replay_with_stats(name, g, t, ctx).map(|(checksum, _)| checksum)
}

/// Replays PR (power-iteration PageRank), the kernel most experiments
/// profile, through the cache model.
pub fn pagerank(g: &Graph, t: &mut Tracer, ctx: &TraceCtx) -> u64 {
    replay("PR", g, t, ctx).expect("PR is a kernel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CacheHierarchy;

    fn tracer() -> Tracer {
        Tracer::new(CacheHierarchy::xeon_e5())
    }

    /// Checksum of `name` replayed on a fresh tracer.
    fn replayed(name: &str, g: &Graph, ctx: &TraceCtx) -> u64 {
        replay(name, g, &mut tracer(), ctx).unwrap()
    }

    fn g() -> Graph {
        Graph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0), (5, 3)])
    }

    #[test]
    fn replay_dispatches_extensions() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let ctx = TraceCtx::default();
        for name in TRACED_EXTENSIONS {
            let mut t = tracer();
            assert!(replay(name, &g, &mut t, &ctx).is_some(), "{name}");
            assert!(t.stats().l1_refs > 0, "{name} produced no references");
        }
    }

    #[test]
    fn replay_dispatches_all_nine() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let ctx = TraceCtx {
            pr_iterations: 3,
            diameter_samples: 2,
            ..Default::default()
        };
        for name in TRACED_ALGOS {
            let mut t = tracer();
            assert!(replay(name, &g, &mut t, &ctx).is_some(), "{name}");
            assert!(t.stats().l1_refs > 0, "{name} produced no references");
        }
        let mut t = tracer();
        assert!(replay("nope", &g, &mut t, &ctx).is_none());
    }

    #[test]
    fn replay_with_stats_reports_engine_counters() {
        let g = g();
        let ctx = TraceCtx {
            pr_iterations: 3,
            diameter_samples: 2,
            ..Default::default()
        };
        for name in TRACED_ALGOS.into_iter().chain(TRACED_EXTENSIONS) {
            let mut t = tracer();
            let (_, stats) = replay_with_stats(name, &g, &mut t, &ctx).unwrap();
            assert!(stats.iterations > 0, "{name} reported no iterations");
            assert!(stats.edges_relaxed > 0, "{name} reported no edges");
            assert_eq!(stats.threads_used, 1, "{name}: traced runs are serial");
        }
    }

    #[test]
    fn empty_graph_replays() {
        let g = Graph::empty(0);
        let ctx = TraceCtx::default();
        for name in TRACED_ALGOS {
            let mut t = tracer();
            replay(name, &g, &mut t, &ctx);
        }
    }

    #[test]
    fn nq_checksum_value() {
        // recompute by hand: sum over u of Σ out_degree(v)
        let gg = g();
        let expected: u64 = gg
            .nodes()
            .flat_map(|u| {
                gg.out_neighbors(u)
                    .iter()
                    .map(|&v| u64::from(gg.out_degree(v)))
            })
            .sum();
        assert_eq!(replayed("NQ", &gg, &TraceCtx::default()), expected);
    }

    #[test]
    fn bfs_checksum_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let ctx = TraceCtx {
            source: Some(0),
            ..Default::default()
        };
        // primary_reached = 4, depths sum = 0+1+2+3 = 6 → 10
        assert_eq!(replayed("BFS", &g, &ctx), 10);
    }

    #[test]
    fn dfs_checksum_matches_formula() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let ctx = TraceCtx {
            source: Some(0),
            ..Default::default()
        };
        let expected = 4u64.wrapping_mul(0x9E3779B97F4A7C15) ^ 3;
        assert_eq!(replayed("DFS", &g, &ctx), expected);
    }

    #[test]
    fn scc_checksum_two_components() {
        // 3-cycle + 2-cycle: count 2, Σ size² = 9 + 4 → 15
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]);
        assert_eq!(replayed("SCC", &g, &TraceCtx::default()), 15);
    }

    #[test]
    fn traversals_touch_every_edge() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)]);
        let ctx = TraceCtx::default();
        let mut t = tracer();
        replay("BFS", &g, &mut t, &ctx);
        // at least one target read per edge
        assert!(t.stats().l1_refs >= g.m());
    }

    #[test]
    fn sp_eccentricity_path() {
        let gg = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let ctx = TraceCtx {
            source: Some(0),
            ..Default::default()
        };
        // Σ (dist + 1) = (0+1)+(1+1)+(2+1)+(3+1) = 10
        assert_eq!(replayed("SP", &gg, &ctx), 10);
    }

    #[test]
    fn diam_on_cycle() {
        let edges: Vec<(u32, u32)> = (0..8u32).map(|u| (u, (u + 1) % 8)).collect();
        let gg = Graph::from_edges(8, &edges);
        let ctx = TraceCtx {
            diameter_samples: 3,
            ..Default::default()
        };
        assert_eq!(replayed("Diam", &gg, &ctx), 7);
    }

    #[test]
    fn pagerank_mass_checksum() {
        let mut t = tracer();
        let ctx = TraceCtx {
            pr_iterations: 20,
            ..Default::default()
        };
        // mass conserved → checksum ≈ 1e6
        let c = pagerank(&g(), &mut t, &ctx);
        assert_eq!(c, 1_000_000);
    }

    #[test]
    fn pr_reference_counts_scale_with_iterations() {
        let gg = g();
        let mut t1 = tracer();
        pagerank(
            &gg,
            &mut t1,
            &TraceCtx {
                pr_iterations: 1,
                ..Default::default()
            },
        );
        let mut t10 = tracer();
        pagerank(
            &gg,
            &mut t10,
            &TraceCtx {
                pr_iterations: 10,
                ..Default::default()
            },
        );
        assert!(t10.stats().l1_refs > 5 * t1.stats().l1_refs);
    }

    #[test]
    fn ds_star_is_one() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(replayed("DS", &g, &TraceCtx::default()), 1);
    }

    #[test]
    fn ds_isolated_count() {
        let g = Graph::empty(4);
        assert_eq!(replayed("DS", &g, &TraceCtx::default()), 4);
    }

    #[test]
    fn kcore_triangle_checksum() {
        // all three nodes have core 2 → Σ core² = 12
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(replayed("Kcore", &g, &TraceCtx::default()), 12);
    }

    #[test]
    fn kcore_empty() {
        assert_eq!(replayed("Kcore", &Graph::empty(0), &TraceCtx::default()), 0);
    }
}
