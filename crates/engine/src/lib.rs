//! # gorder-engine — the unified kernel execution engine
//!
//! Every kernel the reproduction measures — the paper's nine
//! ([`PAPER_KERNELS`]) and the four extensions ([`EXTENSION_KERNELS`]) —
//! is implemented exactly once, here. The same code produces wall-clock
//! numbers and, under the cache simulator's tracing probe, the simulated
//! counters, so the two measurements always describe one implementation:
//!
//! * a [`Kernel`] trait — `init` / `iterate` / `converged` / `finish`,
//!   object-safe per probe type like `OrderingAlgorithm`, so [`by_name`]
//!   hands out boxed kernels;
//! * a probe abstraction ([`Probe`]) — kernels report every array they
//!   allocate and every element they touch. [`NoProbe`] compiles the
//!   reporting away (wall-clock), the cache simulator's tracing probe
//!   turns the same code into a cache-model driver;
//! * reusable primitives ([`Frontier`], [`DenseBitset`], [`BufferPool`])
//!   so per-run allocations disappear from repeated runs;
//! * a [`KernelStats`] record filled by the driver and the kernels —
//!   iterations, edges relaxed, frontier occupancy, phase timings;
//! * budget composition — [`run_kernel`] polls `gorder_core`'s
//!   [`Budget`] between iterates and returns an [`ExecOutcome`], so
//!   kernels inherit the deadline / node-cap / cancellation vocabulary
//!   of the ordering layer. Kernels are *anytime* at iterate
//!   granularity: an exhausted budget yields a `Degraded` run whose
//!   checksum reflects the partial state.
//!
//! The driver loop is deliberately tiny:
//!
//! ```text
//! init → [ budget check → iterate ]* → finish
//! ```
//!
//! `iterate` advances one kernel-specific unit (a BFS level, a
//! Bellman–Ford round, a power iteration, one peeled node, …), which is
//! also the unit `KernelStats::iterations` counts and node-capped
//! budgets meter.

pub mod kernels;
pub mod mem;
pub mod parallel;
pub mod partition;
pub mod stats;

pub use mem::{BufferPool, DenseBitset, Frontier, GraphSlots, NoProbe, Probe, Slot};
pub use partition::{partition_offsets, partition_rows, split_even, RowRange};
pub use stats::KernelStats;

use gorder_core::budget::{Budget, ExecOutcome};
use gorder_graph::{Graph, NodeId};
use std::time::Instant;

/// Shared run parameters for every kernel.
///
/// This is the single source of truth, re-exported as the facade's
/// `RunCtx` and as `gorder_cachesim::TraceCtx`; harnesses map
/// `source` through each ordering's permutation so every ordering
/// computes from the same *logical* node.
#[derive(Debug, Clone)]
pub struct KernelCtx {
    /// Source node for BFS/SP. `None` selects the graph's max-degree node.
    pub source: Option<NodeId>,
    /// PageRank power iterations (paper: 100).
    pub pr_iterations: u32,
    /// PageRank damping factor (paper: 0.85).
    pub damping: f64,
    /// Number of random sources for the diameter estimate (paper: 5000;
    /// scaled down for laptop-size graphs).
    pub diameter_samples: u32,
    /// Seed for diameter source sampling.
    pub seed: u64,
}

impl Default for KernelCtx {
    fn default() -> Self {
        KernelCtx {
            source: None,
            pr_iterations: 100,
            damping: 0.85,
            diameter_samples: 16,
            seed: 0xD1A,
        }
    }
}

impl KernelCtx {
    /// Resolves the effective source node for `g`.
    ///
    /// An explicit source that is out of range for `g` (e.g. a context
    /// built for a larger graph) is ignored rather than handed to the
    /// kernels, which would index `dist[source]` with it and panic; the
    /// max-degree fallback applies instead, and 0 covers the empty
    /// graph (where kernels converge at init without touching it).
    pub fn source_for(&self, g: &Graph) -> NodeId {
        self.source
            .filter(|&s| s < g.n())
            .or_else(|| g.max_degree_node())
            .unwrap_or(0)
    }
}

/// How the engine schedules a kernel's work.
///
/// `Parallel` grants the kernels a worker budget; each kernel decides
/// which of its sections can use it (PR's pull sweep, BFS's level
/// expansion, Kcore's degree init, Diam's per-source sweeps) and falls
/// back to the serial path elsewhere. Plans never change results: every
/// parallel section reduces in a fixed thread order, so a run under any
/// plan is byte-identical to the serial run. Probes that are not
/// [`Probe::PARALLEL_SAFE`] (the cache tracer) force the serial path
/// regardless of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPlan {
    /// Single-threaded execution (the default).
    #[default]
    Serial,
    /// Up to `threads` scoped workers for parallel-capable sections.
    Parallel {
        /// Worker budget; values ≤ 1 behave like [`ExecPlan::Serial`].
        threads: u32,
    },
}

impl ExecPlan {
    /// A plan granting `threads` workers; 0 or 1 yields [`ExecPlan::Serial`].
    pub fn with_threads(threads: u32) -> Self {
        if threads <= 1 {
            ExecPlan::Serial
        } else {
            ExecPlan::Parallel { threads }
        }
    }

    /// Worker budget of this plan (≥ 1).
    pub fn threads(self) -> u32 {
        match self {
            ExecPlan::Serial => 1,
            ExecPlan::Parallel { threads } => threads.max(1),
        }
    }
}

/// Mutable execution environment handed to every kernel call: the probe
/// observing memory traffic, the stats record under construction, and
/// the buffer pool working storage is drawn from.
pub struct Exec<'a, P: Probe> {
    /// Memory-traffic observer ([`NoProbe`] for wall-clock runs).
    pub probe: P,
    /// Counters the kernel and driver fill in as the run progresses.
    pub stats: KernelStats,
    /// Pool that `init` draws working buffers from and `reclaim`
    /// returns them to.
    pub pool: &'a mut BufferPool,
    /// Scheduling plan for parallel-capable kernel sections.
    pub plan: ExecPlan,
}

impl<'a, P: Probe> Exec<'a, P> {
    /// A fresh serial environment around `probe` and `pool`.
    pub fn new(probe: P, pool: &'a mut BufferPool) -> Self {
        Exec::with_plan(probe, pool, ExecPlan::Serial)
    }

    /// A fresh environment executing under `plan`.
    pub fn with_plan(probe: P, pool: &'a mut BufferPool, plan: ExecPlan) -> Self {
        Exec {
            probe,
            stats: KernelStats::default(),
            pool,
            plan,
        }
    }

    /// Effective worker budget for parallel sections: the plan's thread
    /// count, clamped to 1 under probes that cannot tolerate a split
    /// access stream (everything except [`NoProbe`]).
    pub fn par_threads(&self) -> usize {
        if P::PARALLEL_SAFE {
            self.plan.threads() as usize
        } else {
            1
        }
    }
}

/// One benchmark kernel, expressed as a resumable state machine.
///
/// The contract: [`Kernel::init`] allocates working state (registering
/// each array with the probe) and seeds the computation;
/// [`Kernel::iterate`] advances one kernel-specific unit of work and is
/// called until [`Kernel::converged`] returns true (or the budget runs
/// out); [`Kernel::finish`] folds the state into the checksum, built
/// from relabeling-invariant quantities wherever the result itself is
/// invariant, which is what keeps cross-ordering equivalence testable.
/// [`Kernel::reclaim`] optionally returns buffers to the pool for the
/// next run.
///
/// The trait is object-safe for any fixed probe type, mirroring
/// `OrderingAlgorithm`: [`by_name`] hands out `Box<dyn Kernel<P>>`.
pub trait Kernel<P: Probe> {
    /// Short name matching the paper's figure labels (NQ, BFS, …).
    fn name(&self) -> &'static str;
    /// Allocates working state and seeds the computation.
    fn init(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>);
    /// True once the computation has nothing left to do.
    fn converged(&self) -> bool;
    /// Advances one unit of work (a frontier level, a relaxation round,
    /// a power iteration, one peeled node, …).
    fn iterate(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>);
    /// Folds the final (or partial, under an exhausted budget) state
    /// into the run checksum.
    fn finish(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>) -> u64;
    /// Returns pooled buffers for reuse by a later run. Default: keep
    /// nothing (state is dropped).
    fn reclaim(&mut self, pool: &mut BufferPool) {
        let _ = pool;
    }
}

/// What a completed (or degraded) kernel run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRun {
    /// The kernel's checksum — identical under every probe and plan for
    /// the same graph and context.
    pub checksum: u64,
    /// Work and timing metrics for the run.
    pub stats: KernelStats,
}

/// Drives `kernel` to convergence under `budget`, filling `ex.stats`.
///
/// The budget is polled before every iterate with
/// `iterations`-completed as the work unit, so node-capped budgets meter
/// engine steps and watchdog cancellation is honoured within one step.
/// A budget that is exhausted before any work yields [`ExecOutcome::TimedOut`]
/// (unless the kernel converged at `init`, e.g. on an empty graph);
/// exhaustion after partial progress yields a `Degraded` run whose
/// checksum folds the partial state.
pub fn run_kernel<P: Probe, K: Kernel<P> + ?Sized>(
    kernel: &mut K,
    g: &Graph,
    ctx: &KernelCtx,
    ex: &mut Exec<'_, P>,
    budget: &Budget,
) -> ExecOutcome<u64> {
    ex.stats.threads_used = ex.par_threads() as u32;
    let t = Instant::now();
    kernel.init(g, ctx, ex);
    ex.stats.init_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut stopped = None;
    while !kernel.converged() {
        if let Some(reason) = budget.exhausted(ex.stats.iterations) {
            stopped = Some(reason);
            break;
        }
        kernel.iterate(g, ctx, ex);
        ex.stats.iterations += 1;
    }
    ex.stats.compute_secs = t.elapsed().as_secs_f64();

    if let Some(reason) = stopped {
        if ex.stats.iterations == 0 {
            return ExecOutcome::TimedOut;
        }
        let t = Instant::now();
        let checksum = kernel.finish(g, ctx, ex);
        ex.stats.finish_secs = t.elapsed().as_secs_f64();
        ex.stats.export(kernel.name());
        return ExecOutcome::Degraded(checksum, reason);
    }

    let t = Instant::now();
    let checksum = kernel.finish(g, ctx, ex);
    ex.stats.finish_secs = t.elapsed().as_secs_f64();
    ex.stats.export(kernel.name());
    ExecOutcome::Completed(checksum)
}

/// The paper's nine kernel labels, in presentation order.
pub const PAPER_KERNELS: [&str; 9] = ["NQ", "BFS", "DFS", "SCC", "SP", "PR", "DS", "Kcore", "Diam"];

/// The extension kernel labels (DESIGN.md §8), in presentation order.
pub const EXTENSION_KERNELS: [&str; 4] = ["WCC", "Tri", "LP", "BC"];

/// Every kernel label: the paper's nine, then the extensions.
pub fn all_kernel_names() -> impl Iterator<Item = &'static str> {
    PAPER_KERNELS.into_iter().chain(EXTENSION_KERNELS)
}

/// The canonical label of the kernel `name` names, case-insensitively,
/// or `None` when no kernel has that label.
pub fn canonical_name(name: &str) -> Option<&'static str> {
    all_kernel_names().find(|k| k.eq_ignore_ascii_case(name))
}

/// Builds a fresh kernel by its label, case-insensitively.
pub fn by_name<P: Probe>(name: &str) -> Option<Box<dyn Kernel<P>>> {
    use kernels::*;
    Some(match canonical_name(name)? {
        "NQ" => Box::<nq::NqKernel>::default(),
        "BFS" => Box::<bfs::BfsKernel>::default(),
        "DFS" => Box::<dfs::DfsKernel>::default(),
        "SCC" => Box::<scc::SccKernel>::default(),
        "SP" => Box::<sp::SpKernel>::default(),
        "PR" => Box::<pagerank::PrKernel>::default(),
        "DS" => Box::<domset::DsKernel>::default(),
        "Kcore" => Box::<kcore::KcoreKernel>::default(),
        "Diam" => Box::<diameter::DiamKernel>::default(),
        "WCC" => Box::<wcc::WccKernel>::default(),
        "Tri" => Box::<triangles::TriKernel>::default(),
        "LP" => Box::<labelprop::LpKernel>::default(),
        "BC" => Box::<betweenness::BcKernel>::default(),
        _ => return None,
    })
}

/// Runs the kernel labelled `name` under `budget`, observing through
/// `probe` and drawing buffers from `pool`. Returns `None` for an
/// unknown label; otherwise the outcome carries the checksum + stats,
/// and the kernel's buffers are reclaimed into `pool` for the next run.
pub fn execute<P: Probe>(
    name: &str,
    g: &Graph,
    ctx: &KernelCtx,
    probe: P,
    pool: &mut BufferPool,
    budget: &Budget,
) -> Option<ExecOutcome<KernelRun>> {
    execute_plan(name, g, ctx, probe, pool, budget, ExecPlan::Serial)
}

/// [`execute`] under an explicit [`ExecPlan`]. The plan only changes how
/// the work is scheduled — results and work counters are identical to
/// the serial run for every kernel.
///
/// **Degradation ladder (Parallel → Serial).** A worker panic during a
/// parallel run does not abort the process: the failed attempt is
/// discarded and — when the probe can be duplicated
/// ([`Probe::duplicate`]; [`NoProbe`] always can) — the whole cell
/// re-runs serially on a **fresh** kernel. The retry's stats carry
/// [`KernelStats::degraded_serial`]` = true` and the global
/// `engine.panic_recovered` counter is incremented. A panic that is not
/// a worker panic, or one under a non-duplicable probe, propagates
/// unchanged (the guarded-sweep layer above turns it into a failed
/// cell).
pub fn execute_plan<P: Probe>(
    name: &str,
    g: &Graph,
    ctx: &KernelCtx,
    probe: P,
    pool: &mut BufferPool,
    budget: &Budget,
    plan: ExecPlan,
) -> Option<ExecOutcome<KernelRun>> {
    let kernel = by_name::<P>(name)?;
    let retry_probe = match plan {
        ExecPlan::Serial => None,
        _ => probe.duplicate(),
    };
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_plan_once(kernel, g, ctx, probe, pool, budget, plan)
    }));
    match attempt {
        Ok(outcome) => Some(outcome),
        Err(payload) => {
            let Some(wp) = payload.downcast_ref::<parallel::WorkerPanic>() else {
                std::panic::resume_unwind(payload);
            };
            let Some(retry_probe) = retry_probe else {
                std::panic::resume_unwind(payload);
            };
            eprintln!(
                "[engine] {name}: worker panicked ({}); retrying serially",
                wp.0
            );
            gorder_obs::global().counter_add("engine.panic_recovered", 1);
            let fresh = by_name::<P>(name).expect("resolved above");
            let outcome =
                execute_plan_once(fresh, g, ctx, retry_probe, pool, budget, ExecPlan::Serial);
            Some(outcome.map(|mut run| {
                run.stats.degraded_serial = true;
                run
            }))
        }
    }
}

/// One attempt of [`execute_plan`]: runs a fresh `kernel` (used kernels
/// are not re-init-safe) under `plan`.
fn execute_plan_once<P: Probe>(
    mut kernel: Box<dyn Kernel<P>>,
    g: &Graph,
    ctx: &KernelCtx,
    probe: P,
    pool: &mut BufferPool,
    budget: &Budget,
    plan: ExecPlan,
) -> ExecOutcome<KernelRun> {
    let mut ex = Exec::with_plan(probe, pool, plan);
    let outcome = run_kernel(kernel.as_mut(), g, ctx, &mut ex, budget);
    let stats = ex.stats.clone();
    kernel.reclaim(ex.pool);
    outcome.map(|checksum| KernelRun { checksum, stats })
}

/// Unbudgeted convenience wrapper around [`execute`] with a fresh pool:
/// runs the kernel labelled `name` through `probe` and returns its
/// checksum + stats, or `None` for an unknown label.
pub fn run_probed<P: Probe>(name: &str, g: &Graph, ctx: &KernelCtx, probe: P) -> Option<KernelRun> {
    run_probed_plan(name, g, ctx, probe, ExecPlan::Serial)
}

/// [`run_probed`] under an explicit [`ExecPlan`].
pub fn run_probed_plan<P: Probe>(
    name: &str,
    g: &Graph,
    ctx: &KernelCtx,
    probe: P,
    plan: ExecPlan,
) -> Option<KernelRun> {
    let mut pool = BufferPool::new();
    let outcome = execute_plan(name, g, ctx, probe, &mut pool, &Budget::unlimited(), plan)?;
    Some(outcome.value().expect("unlimited budget always completes"))
}

/// Wall-clock convenience: [`run_probed`] with [`NoProbe`].
pub fn run_by_name(name: &str, g: &Graph, ctx: &KernelCtx) -> Option<KernelRun> {
    run_probed(name, g, ctx, NoProbe)
}

/// Wall-clock convenience: [`run_probed_plan`] with [`NoProbe`].
pub fn run_by_name_plan(
    name: &str,
    g: &Graph,
    ctx: &KernelCtx,
    plan: ExecPlan,
) -> Option<KernelRun> {
    run_probed_plan(name, g, ctx, NoProbe, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_core::budget::DegradeReason;

    fn diamond() -> Graph {
        // 0 -> {1,2} -> 3, plus a disconnected 4.
        Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn name_tables_build_every_kernel_in_order() {
        assert_eq!(
            PAPER_KERNELS,
            ["NQ", "BFS", "DFS", "SCC", "SP", "PR", "DS", "Kcore", "Diam"]
        );
        assert_eq!(EXTENSION_KERNELS, ["WCC", "Tri", "LP", "BC"]);
        assert_eq!(all_kernel_names().count(), 13);
        for name in all_kernel_names() {
            assert_eq!(by_name::<NoProbe>(name).unwrap().name(), name);
        }
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(by_name::<NoProbe>("bfs").unwrap().name(), "BFS");
        assert_eq!(by_name::<NoProbe>("KCORE").unwrap().name(), "Kcore");
        assert_eq!(by_name::<NoProbe>("wcc").unwrap().name(), "WCC");
        assert!(by_name::<NoProbe>("nope").is_none());
        assert_eq!(canonical_name("pr"), Some("PR"));
        assert_eq!(canonical_name("tri"), Some("Tri"));
        assert_eq!(canonical_name("NQX"), None);
    }

    #[test]
    fn every_kernel_completes_unbudgeted() {
        let g = diamond();
        let ctx = KernelCtx {
            pr_iterations: 5,
            diameter_samples: 3,
            ..Default::default()
        };
        for name in all_kernel_names() {
            let run = run_by_name(name, &g, &ctx).unwrap();
            assert!(run.stats.iterations > 0, "{name} took no iterations");
        }
    }

    #[test]
    fn every_kernel_handles_the_empty_graph() {
        let g = Graph::empty(0);
        let ctx = KernelCtx::default();
        for name in all_kernel_names() {
            let _ = run_by_name(name, &g, &ctx).unwrap();
        }
    }

    #[test]
    fn unknown_kernel_is_none() {
        assert!(run_by_name("NQX", &diamond(), &KernelCtx::default()).is_none());
    }

    #[test]
    fn pre_exhausted_budget_times_out() {
        let g = diamond();
        let ctx = KernelCtx::default();
        let budget = Budget::unlimited().with_node_cap(0);
        let out = execute("BFS", &g, &ctx, NoProbe, &mut BufferPool::new(), &budget).unwrap();
        assert_eq!(out, ExecOutcome::TimedOut);
    }

    #[test]
    fn node_cap_degrades_mid_run() {
        let g = diamond();
        let ctx = KernelCtx::default();
        // Kcore peels one node per iterate; cap at 2 of the 5.
        let budget = Budget::unlimited().with_node_cap(2);
        let out = execute("Kcore", &g, &ctx, NoProbe, &mut BufferPool::new(), &budget).unwrap();
        match out {
            ExecOutcome::Degraded(run, DegradeReason::NodeCapReached) => {
                assert_eq!(run.stats.iterations, 2);
            }
            other => panic!("expected degraded run, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_degrades_mid_run() {
        let g = diamond();
        let budget = Budget::unlimited();
        // Cancel after init by capping at 1 first, then cancelling: the
        // cancel flag outranks the cap reason.
        budget.cancel();
        let out = execute(
            "SP",
            &g,
            &KernelCtx::default(),
            NoProbe,
            &mut BufferPool::new(),
            &budget,
        )
        .unwrap();
        assert_eq!(out, ExecOutcome::TimedOut);
    }

    #[test]
    fn empty_graph_completes_even_under_zero_cap() {
        // Converged at init → no budget check ever fires.
        let g = Graph::empty(0);
        let budget = Budget::unlimited().with_node_cap(0);
        let out = execute(
            "BFS",
            &g,
            &KernelCtx::default(),
            NoProbe,
            &mut BufferPool::new(),
            &budget,
        )
        .unwrap();
        assert!(out.is_completed());
    }

    #[test]
    fn pool_reuse_preserves_checksums() {
        let g = diamond();
        let ctx = KernelCtx {
            pr_iterations: 5,
            diameter_samples: 2,
            ..Default::default()
        };
        let mut pool = BufferPool::new();
        for name in all_kernel_names() {
            let first = execute(name, &g, &ctx, NoProbe, &mut pool, &Budget::unlimited())
                .unwrap()
                .value()
                .unwrap();
            let second = execute(name, &g, &ctx, NoProbe, &mut pool, &Budget::unlimited())
                .unwrap()
                .value()
                .unwrap();
            assert_eq!(first.checksum, second.checksum, "{name} under pool reuse");
            assert_eq!(first.stats.iterations, second.stats.iterations);
            assert_eq!(first.stats.edges_relaxed, second.stats.edges_relaxed);
        }
    }

    #[test]
    fn stats_phase_timings_are_populated() {
        let run = run_by_name("BFS", &diamond(), &KernelCtx::default()).unwrap();
        assert!(run.stats.init_secs >= 0.0);
        assert!(run.stats.compute_secs >= 0.0);
        assert!(run.stats.total_secs() >= run.stats.compute_secs);
    }

    #[test]
    fn plan_with_threads_normalises() {
        assert_eq!(ExecPlan::with_threads(0), ExecPlan::Serial);
        assert_eq!(ExecPlan::with_threads(1), ExecPlan::Serial);
        assert_eq!(ExecPlan::with_threads(4), ExecPlan::Parallel { threads: 4 });
        assert_eq!(ExecPlan::Serial.threads(), 1);
        assert_eq!(ExecPlan::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(ExecPlan::Parallel { threads: 7 }.threads(), 7);
        assert_eq!(ExecPlan::default(), ExecPlan::Serial);
    }

    #[test]
    fn serial_runs_report_one_thread() {
        let run = run_by_name("PR", &diamond(), &KernelCtx::default()).unwrap();
        assert_eq!(run.stats.threads_used, 1);
        assert!(run.stats.thread_busy_secs.is_empty());
    }

    #[test]
    fn parallel_plan_reports_thread_count() {
        let run = run_by_name_plan(
            "PR",
            &diamond(),
            &KernelCtx::default(),
            ExecPlan::with_threads(3),
        )
        .unwrap();
        assert_eq!(run.stats.threads_used, 3);
    }

    #[test]
    fn every_kernel_reports_real_stats_under_a_plan() {
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
        let ctx = KernelCtx {
            pr_iterations: 3,
            ..Default::default()
        };
        for name in all_kernel_names() {
            let run = run_by_name_plan(name, &g, &ctx, ExecPlan::with_threads(3)).unwrap();
            assert_eq!(run.stats.threads_used, 3, "{name}");
            assert!(run.stats.iterations > 0, "{name}");
            assert!(run.stats.edges_relaxed > 0, "{name}");
        }
    }

    #[test]
    fn unsafe_probe_forces_serial_path() {
        struct Tracerish;
        impl Probe for Tracerish {
            fn alloc(&mut self, _len: usize, _elem_bytes: u64) -> Slot {
                Slot::new(0)
            }
            fn touch(&mut self, _slot: Slot, _i: usize) {}
            fn op(&mut self, _n: u64) {}
        }
        let run = run_probed_plan(
            "PR",
            &diamond(),
            &KernelCtx::default(),
            Tracerish,
            ExecPlan::with_threads(4),
        )
        .unwrap();
        assert_eq!(run.stats.threads_used, 1);
    }

    #[test]
    fn source_for_ignores_out_of_range_source() {
        let g = diamond(); // 5 nodes; max-degree node is 0 or 3
        let ctx = KernelCtx {
            source: Some(99),
            ..Default::default()
        };
        let s = ctx.source_for(&g);
        assert!(s < g.n(), "out-of-range source must not propagate");
        assert_eq!(s, ctx.source_for(&g), "resolution is deterministic");
        // In-range sources still win over the fallback.
        let ctx = KernelCtx {
            source: Some(2),
            ..Default::default()
        };
        assert_eq!(ctx.source_for(&g), 2);
    }

    #[test]
    fn source_for_prefers_explicit() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let ctx = KernelCtx {
            source: Some(2),
            ..Default::default()
        };
        assert_eq!(ctx.source_for(&g), 2);
        assert_eq!(KernelCtx::default().source_for(&g), 0); // max-degree node
    }

    #[test]
    fn source_for_degenerate_graphs() {
        let empty = Graph::empty(0);
        let one = Graph::empty(1);
        for source in [None, Some(0), Some(5)] {
            let ctx = KernelCtx {
                source,
                ..Default::default()
            };
            assert_eq!(ctx.source_for(&empty), 0, "empty graph falls back to 0");
            assert_eq!(ctx.source_for(&one), 0);
        }
    }

    #[test]
    fn out_of_range_source_runs_do_not_panic() {
        let g = diamond();
        let ctx = KernelCtx {
            source: Some(1_000_000),
            pr_iterations: 3,
            diameter_samples: 2,
            ..Default::default()
        };
        for name in all_kernel_names() {
            let _ = run_by_name(name, &g, &ctx).unwrap();
        }
    }
}
