//! The full-factorial experiment runner behind Figures 5/6/S1.
//!
//! For every dataset: build the graph, compute each ordering, relabel,
//! map the logical source node through the permutation (so every ordering
//! solves the *same* problem instance), and time every algorithm. The
//! result is a flat list of cells, one per (dataset, ordering, algorithm).

use crate::timing::median_secs;
use gorder_cachesim::trace::{replay_with_stats, TraceCtx};
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, StallModel, Tracer};
use gorder_core::budget::Budget;
use gorder_engine::{ExecPlan, KernelCtx, KernelStats, EXTENSION_KERNELS, PAPER_KERNELS};
use gorder_graph::datasets::Dataset;
use gorder_graph::Permutation;
use gorder_orders::{run_ordering, OrderingAlgorithm};

/// Configuration for [`run_grid`].
pub struct GridConfig {
    /// Dataset size multiplier.
    pub scale: f64,
    /// Timing repetitions per cell.
    pub reps: u32,
    /// Seed for randomised orderings and Diam sampling.
    pub seed: u64,
    /// Light algorithm parameters (fewer PR iterations / Diam sources).
    pub quick: bool,
    /// Datasets to run (paper order).
    pub datasets: Vec<Dataset>,
    /// Ordering-name filter (`None` = all ten).
    pub orderings: Option<Vec<String>>,
    /// Algorithm-name filter, case-insensitive (`None` = every kernel
    /// the configuration includes). Validate it with
    /// [`check_algo_filter`](crate::check_algo_filter) first: unknown
    /// names match nothing.
    pub algos: Option<Vec<String>>,
    /// Include the extension orderings (HubSort/HubCluster/DBG/Bisect)
    /// and extension algorithms (WCC/Tri/LP/BC) alongside the paper's.
    pub extended: bool,
    /// Worker threads granted to the engine kernels (1 = serial). Only
    /// affects wall-clock runs; the simulated grid always traces
    /// serially.
    pub threads: u32,
}

impl GridConfig {
    /// Full grid at the given scale.
    pub fn new(scale: f64, reps: u32, seed: u64, quick: bool) -> Self {
        GridConfig {
            scale,
            reps,
            seed,
            quick,
            datasets: gorder_graph::datasets::all(),
            orderings: None,
            algos: None,
            extended: false,
            threads: 1,
        }
    }

    /// The execution plan implied by this configuration.
    pub fn exec_plan(&self) -> ExecPlan {
        ExecPlan::with_threads(self.threads)
    }

    fn ordering_pool(&self) -> Vec<Box<dyn OrderingAlgorithm>> {
        if self.extended {
            gorder_orders::extensions::extended(self.seed)
        } else {
            gorder_orders::all(self.seed)
        }
    }

    /// The kernel labels this configuration runs, in presentation order:
    /// the paper's nine (plus the extensions under `extended`), narrowed
    /// by the `algos` filter.
    pub fn algo_names(&self) -> Vec<&'static str> {
        let extensions: &[&'static str] = if self.extended {
            &EXTENSION_KERNELS
        } else {
            &[]
        };
        PAPER_KERNELS
            .iter()
            .chain(extensions)
            .copied()
            .filter(|a| match &self.algos {
                None => true,
                Some(keep) => keep.iter().any(|k| k.eq_ignore_ascii_case(a)),
            })
            .collect()
    }

    /// The algorithm parameters implied by this configuration.
    pub fn run_ctx(&self) -> KernelCtx {
        KernelCtx {
            source: None,
            pr_iterations: if self.quick { 10 } else { 100 },
            damping: 0.85,
            diameter_samples: if self.quick { 4 } else { 16 },
            seed: self.seed,
        }
    }
}

/// One timed cell of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm label.
    pub algo: String,
    /// Ordering label.
    pub ordering: String,
    /// Median wall-clock seconds.
    pub seconds: f64,
    /// Checksum of the last run (work-elision guard; relabeling-invariant
    /// where the algorithm's output is).
    pub checksum: u64,
    /// Engine execution metrics of the last run.
    pub stats: KernelStats,
}

/// Computes one ordering through the unified runner ([`run_ordering`]) —
/// so even the unguarded grids export per-ordering stats exactly once —
/// under an unlimited budget (the guarded grids pass real budgets).
fn ordered(o: &dyn OrderingAlgorithm, g: &gorder_graph::Graph) -> Permutation {
    run_ordering(o, g, gorder_orders::ExecPlan::Serial, &Budget::unlimited())
        .value()
        .expect("unlimited budget always completes")
        .perm
}

fn selected(
    all: Vec<Box<dyn OrderingAlgorithm>>,
    filter: &Option<Vec<String>>,
) -> Vec<Box<dyn OrderingAlgorithm>> {
    match filter {
        None => all,
        Some(keep) => all
            .into_iter()
            .filter(|o| keep.iter().any(|k| k == o.name()))
            .collect(),
    }
}

/// One wall-clock run of the kernel labelled `name`.
pub(crate) fn run_kernel(
    name: &str,
    g: &gorder_graph::Graph,
    ctx: &KernelCtx,
    plan: ExecPlan,
) -> (u64, KernelStats) {
    let run = gorder_engine::run_by_name_plan(name, g, ctx, plan).expect("engine kernel label");
    (run.checksum, run.stats)
}

/// Runs the grid, reporting progress on stderr.
pub fn run_grid(cfg: &GridConfig) -> Vec<CellResult> {
    let orderings = selected(cfg.ordering_pool(), &cfg.orderings);
    let algos = cfg.algo_names();
    let base_ctx = cfg.run_ctx();
    let mut cells = Vec::new();
    for d in &cfg.datasets {
        let g = d.build(cfg.scale);
        eprintln!("[grid] {}: n = {}, m = {}", d.name, g.n(), g.m());
        let logical_source = g.max_degree_node().unwrap_or(0);
        for o in &orderings {
            let perm = ordered(o.as_ref(), &g);
            let rg = g.relabel(&perm);
            let ctx = KernelCtx {
                source: Some(perm.apply(logical_source)),
                ..base_ctx.clone()
            };
            for &a in &algos {
                let plan = cfg.exec_plan();
                let mut stats = KernelStats::default();
                let (secs, checksum) = median_secs(
                    || {
                        let (checksum, s) = run_kernel(a, &rg, &ctx, plan);
                        stats = s;
                        checksum
                    },
                    cfg.reps,
                );
                cells.push(CellResult {
                    dataset: d.name.to_string(),
                    algo: a.to_string(),
                    ordering: o.name().to_string(),
                    seconds: secs,
                    checksum,
                    stats,
                });
            }
            eprintln!("[grid]   {} done", o.name());
        }
    }
    cells
}

/// Runs the grid through the cache simulator instead of the wall clock:
/// each cell's `seconds` is modelled cycles (stall model, 4 GHz) for one
/// replayed run.
///
/// This is the harness's *default* Figure 5 mode: the paper's wall-clock
/// differences come from cache behaviour on machines whose LLC is tiny
/// relative to the graphs, and commodity/cloud hosts (this reproduction's
/// dev box has a 260 MiB L3) swallow laptop-scale datasets whole, hiding
/// the effect wall clocks are supposed to show. The simulator restores
/// the paper's working-set-to-cache ratio (DESIGN.md §3).
pub fn run_grid_sim(cfg: &GridConfig) -> Vec<CellResult> {
    let orderings = selected(cfg.ordering_pool(), &cfg.orderings);
    let algo_names = cfg.algo_names();
    let base = cfg.run_ctx();
    // Replays cost ~40× native, so trim the heavy iteration counts.
    let tctx_base = TraceCtx {
        source: None,
        pr_iterations: (base.pr_iterations / 5).max(2),
        damping: base.damping,
        diameter_samples: (base.diameter_samples / 4).max(2),
        seed: base.seed,
    };
    let hconfig = HierarchyConfig::scaled_down();
    let model = StallModel::skylake();
    let clock_hz = 4e9;
    let mut cells = Vec::new();
    for d in &cfg.datasets {
        let g = d.build(cfg.scale);
        eprintln!("[grid/sim] {}: n = {}, m = {}", d.name, g.n(), g.m());
        let logical_source = g.max_degree_node().unwrap_or(0);
        for o in &orderings {
            let perm = ordered(o.as_ref(), &g);
            let rg = g.relabel(&perm);
            let tctx = TraceCtx {
                source: Some(perm.apply(logical_source)),
                ..tctx_base.clone()
            };
            for &name in &algo_names {
                let mut tracer = Tracer::new(CacheHierarchy::new(&hconfig));
                let (checksum, stats) =
                    replay_with_stats(name, &rg, &mut tracer, &tctx).expect("engine kernel label");
                let cycles = tracer.breakdown(&model).total();
                cells.push(CellResult {
                    dataset: d.name.to_string(),
                    algo: name.to_string(),
                    ordering: o.name().to_string(),
                    seconds: cycles / clock_hz,
                    checksum,
                    stats,
                });
            }
            eprintln!("[grid/sim]   {} done", o.name());
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_graph::datasets::epinion_like;

    fn tiny_cfg() -> GridConfig {
        GridConfig {
            scale: 0.02,
            reps: 1,
            seed: 1,
            quick: true,
            datasets: vec![epinion_like()],
            orderings: Some(vec!["Original".into(), "Gorder".into()]),
            algos: Some(vec!["NQ".into(), "BFS".into(), "Kcore".into()]),
            extended: false,
            threads: 1,
        }
    }

    #[test]
    fn parallel_grid_matches_serial_grid() {
        let serial = run_grid(&tiny_cfg());
        let mut cfg = tiny_cfg();
        cfg.threads = 4;
        let parallel = run_grid(&cfg);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.checksum, p.checksum, "{}/{}", s.algo, s.ordering);
            assert_eq!(s.stats.iterations, p.stats.iterations);
            assert_eq!(s.stats.edges_relaxed, p.stats.edges_relaxed);
            assert_eq!(p.stats.threads_used, 4, "{}/{}", p.algo, p.ordering);
        }
    }

    #[test]
    fn extended_grid_includes_extensions() {
        let mut cfg = tiny_cfg();
        cfg.extended = true;
        cfg.orderings = Some(vec!["HubSort".into()]);
        cfg.algos = Some(vec!["WCC".into(), "Tri".into()]);
        let wall = run_grid(&cfg);
        let sim = run_grid_sim(&cfg);
        assert_eq!(wall.len(), 2);
        assert_eq!(sim.len(), 2);
        for (w, s) in wall.iter().zip(&sim) {
            assert_eq!(w.checksum, s.checksum, "{}", w.algo);
        }
    }

    #[test]
    fn grid_shape() {
        let cells = run_grid(&tiny_cfg());
        assert_eq!(cells.len(), 2 * 3);
        assert!(cells.iter().all(|c| c.seconds >= 0.0));
    }

    #[test]
    fn invariant_checksums_agree_across_orderings() {
        // NQ, BFS (mapped source) and Kcore produce relabeling-invariant
        // checksums: Original and Gorder must agree per algorithm.
        let cells = run_grid(&tiny_cfg());
        for algo in ["NQ", "BFS", "Kcore"] {
            let sums: Vec<u64> = cells
                .iter()
                .filter(|c| c.algo == algo)
                .map(|c| c.checksum)
                .collect();
            assert_eq!(sums.len(), 2);
            assert_eq!(sums[0], sums[1], "{algo} differs across orderings");
        }
    }

    #[test]
    fn filters_apply() {
        let mut cfg = tiny_cfg();
        cfg.orderings = Some(vec!["Random".into()]);
        cfg.algos = Some(vec!["SP".into()]);
        let cells = run_grid(&cfg);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].ordering, "Random");
        assert_eq!(cells[0].algo, "SP");
    }

    #[test]
    fn sim_grid_matches_shape_and_checksums() {
        let cfg = tiny_cfg();
        let wall = run_grid(&cfg);
        let sim = run_grid_sim(&cfg);
        assert_eq!(sim.len(), wall.len());
        for cell in &sim {
            assert!(
                cell.seconds > 0.0,
                "{}/{} has no modelled time",
                cell.algo,
                cell.ordering
            );
        }
        // NQ and Kcore take no iteration-count parameters, so the sim
        // checksums must equal the wall-run checksums exactly.
        for name in ["NQ", "Kcore"] {
            for o in ["Original", "Gorder"] {
                let w = wall
                    .iter()
                    .find(|c| c.algo == name && c.ordering == o)
                    .unwrap();
                let s = sim
                    .iter()
                    .find(|c| c.algo == name && c.ordering == o)
                    .unwrap();
                assert_eq!(w.checksum, s.checksum, "{name}/{o}");
            }
        }
    }

    #[test]
    fn grid_cells_carry_engine_stats() {
        // NQ/BFS/Kcore are engine kernels: both grid modes must surface
        // real per-kernel counters, not the zeroed default.
        for cells in [run_grid(&tiny_cfg()), run_grid_sim(&tiny_cfg())] {
            for c in &cells {
                assert!(
                    c.stats.iterations > 0,
                    "{}/{} reported no iterations",
                    c.algo,
                    c.ordering
                );
                assert!(
                    c.stats.edges_relaxed > 0,
                    "{}/{} reported no edge work",
                    c.algo,
                    c.ordering
                );
            }
        }
    }

    #[test]
    fn quick_ctx_is_light() {
        let cfg = tiny_cfg();
        let ctx = cfg.run_ctx();
        assert_eq!(ctx.pr_iterations, 10);
        assert_eq!(ctx.diameter_samples, 4);
    }
}
