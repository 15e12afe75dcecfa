//! Fault-isolated sweep execution.
//!
//! [`run_grid`](crate::run_grid) dies with the first panicking ordering
//! or runaway cell; this module runs the same grid so that **no single
//! cell can take down the sweep**. Every ordering computation and every
//! algorithm cell runs through [`run_guarded`]: on its own thread, under
//! `catch_unwind`, watched by a deadline. Cooperative work (the anytime
//! orderings) receives a [`Budget`] and degrades on its own; a panicking
//! cell is recorded as failed; a cell that ignores its budget past the
//! grace period is abandoned as timed out. The sweep then continues, and
//! a skip report lists everything that did not complete.

use crate::experiment::{CellResult, GridConfig};
use crate::timing::median_secs;
use gorder_cachesim::trace::{replay_with_stats, TraceCtx};
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, StallModel, Tracer};
use gorder_core::budget::{Budget, DegradeReason, ExecOutcome};
use gorder_engine::{KernelCtx, KernelStats};
use gorder_graph::Graph;
use gorder_obs::OrderEvent;
use gorder_orders::{run_ordering, CacheKey, ExecPlan, OrderCache, OrderingAlgorithm, OrderingRun};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How one sweep cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// Ran to completion.
    Completed,
    /// Its ordering ran out of budget and fell back to a weaker, still
    /// valid layout; the cell's numbers describe that layout.
    Degraded(DegradeReason),
    /// Produced nothing before the watchdog gave up on it.
    TimedOut,
    /// Panicked or hit an internal error (message attached).
    Failed(String),
}

impl CellStatus {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CellStatus::Completed => "completed",
            CellStatus::Degraded(_) => "degraded",
            CellStatus::TimedOut => "timed-out",
            CellStatus::Failed(_) => "failed",
        }
    }

    /// Whether the cell produced usable numbers (completed or degraded).
    pub fn is_usable(&self) -> bool {
        matches!(self, CellStatus::Completed | CellStatus::Degraded(_))
    }
}

/// One cell of a guarded sweep: the usual [`CellResult`] numbers plus how
/// the cell ended. Timed-out and failed cells carry zeroed numbers.
#[derive(Debug, Clone)]
pub struct RobustCell {
    /// The timing/checksum payload (zeroed unless the status is usable).
    pub result: CellResult,
    /// How the cell ended.
    pub status: CellStatus,
}

/// Everything a guarded sweep produced.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// All cells, in grid order — including the unusable ones.
    pub cells: Vec<RobustCell>,
}

impl SweepReport {
    /// The usable cells (completed + degraded), as plain results.
    pub fn usable(&self) -> Vec<CellResult> {
        self.cells
            .iter()
            .filter(|c| c.status.is_usable())
            .map(|c| c.result.clone())
            .collect()
    }

    /// The cells that produced no numbers.
    pub fn skipped(&self) -> Vec<&RobustCell> {
        self.cells
            .iter()
            .filter(|c| !c.status.is_usable())
            .collect()
    }

    /// Prints one stderr line per non-completed cell (degradations and
    /// skips), then a one-line summary. Prints nothing when every cell
    /// completed.
    pub fn print_skip_report(&self) {
        let mut degraded = 0usize;
        let mut skipped = 0usize;
        for cell in &self.cells {
            let r = &cell.result;
            match &cell.status {
                CellStatus::Completed => {}
                CellStatus::Degraded(reason) => {
                    degraded += 1;
                    eprintln!(
                        "[sweep] degraded {}/{}/{}: {}",
                        r.dataset, r.ordering, r.algo, reason
                    );
                }
                CellStatus::TimedOut => {
                    skipped += 1;
                    eprintln!(
                        "[sweep] skipped {}/{}/{}: timed out",
                        r.dataset, r.ordering, r.algo
                    );
                }
                CellStatus::Failed(msg) => {
                    skipped += 1;
                    eprintln!(
                        "[sweep] skipped {}/{}/{}: failed: {}",
                        r.dataset, r.ordering, r.algo, msg
                    );
                }
            }
        }
        if degraded + skipped > 0 {
            eprintln!(
                "[sweep] {} of {} cells completed ({} degraded, {} skipped)",
                self.cells.len() - skipped,
                self.cells.len(),
                degraded,
                skipped
            );
        }
    }
}

/// Extra time the watchdog allows beyond the budget deadline: first for
/// the worker to finish normally or notice the deadline cooperatively,
/// then again after an explicit cancellation before the worker is
/// abandoned. Large enough that sub-millisecond cells never time out
/// spuriously on a loaded machine.
const WATCHDOG_GRACE: Duration = Duration::from_millis(250);

/// Threads the watchdog walked away from. Abandoning a handle used to
/// mean `drop(worker)` — the thread could never be joined again, so a
/// sweep full of timeouts accumulated runaway threads (and their
/// captured graphs) until exit. Handles now land here instead, and
/// [`reap_abandoned`] joins the ones that have since noticed their
/// cancelled budget and returned.
static ABANDONED: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());

/// Joins every abandoned worker that has finished since the last call,
/// releasing its stack and captured state; still-running workers stay in
/// the registry. Returns how many were reaped. Called opportunistically
/// at every [`run_guarded`] entry, so a long sweep cleans up after its
/// own timeouts instead of hoarding dead threads.
pub fn reap_abandoned() -> usize {
    let finished: Vec<JoinHandle<()>> = {
        let mut held = ABANDONED.lock().unwrap();
        let (done, still) = std::mem::take(&mut *held)
            .into_iter()
            .partition(|h| h.is_finished());
        *held = still;
        done
    };
    // join outside the lock: a finished thread joins instantly, but
    // there is no reason to hold the registry closed while it does
    let n = finished.len();
    for h in finished {
        let _ = h.join();
    }
    n
}

/// Abandoned workers still running (timed-out cells that have not yet
/// honoured their cancelled budget).
pub fn abandoned_count() -> usize {
    ABANDONED.lock().unwrap().len()
}

/// Runs `f` isolated on its own thread under `catch_unwind` and a
/// watchdog deadline. `f` receives a [`Budget`] carrying the deadline so
/// cooperative work can degrade instead of being abandoned. A panic maps
/// to [`ExecOutcome::Failed`]; a worker that is still running one grace
/// period after the deadline is cancelled, and abandoned one grace
/// period later with [`ExecOutcome::TimedOut`]. Abandoned workers are
/// not leaked: their handles land in the abandoned-handle registry and are
/// joined by [`reap_abandoned`] (called here on every entry) once they
/// notice their cancelled budget and return.
///
/// With `timeout = None` the closure simply runs on the current thread
/// under `catch_unwind` with an unlimited budget.
pub fn run_guarded<T, F>(timeout: Option<Duration>, f: F) -> ExecOutcome<T>
where
    T: Send + 'static,
    F: FnOnce(&Budget) -> ExecOutcome<T> + Send + 'static,
{
    reap_abandoned();
    let Some(timeout) = timeout else {
        let budget = Budget::unlimited();
        return match catch_unwind(AssertUnwindSafe(|| f(&budget))) {
            Ok(outcome) => outcome,
            Err(payload) => ExecOutcome::Failed(panic_message(payload.as_ref())),
        };
    };
    let budget = Budget::unlimited().with_timeout(timeout);
    let worker_budget = budget.clone();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let outcome = match catch_unwind(AssertUnwindSafe(|| f(&worker_budget))) {
            Ok(outcome) => outcome,
            Err(payload) => ExecOutcome::Failed(panic_message(payload.as_ref())),
        };
        // the watchdog may already have walked away; that's fine
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(timeout + WATCHDOG_GRACE) {
        Ok(outcome) => {
            let _ = worker.join();
            outcome
        }
        Err(_) => {
            budget.cancel();
            match rx.recv_timeout(WATCHDOG_GRACE) {
                Ok(outcome) => {
                    let _ = worker.join();
                    outcome
                }
                Err(_) => {
                    // the budget is cancelled; park the handle so a
                    // later reap joins the thread when it gives up
                    ABANDONED.lock().unwrap().push(worker);
                    ExecOutcome::TimedOut
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Computes `o` through the unified runner ([`run_ordering`]) under
/// [`run_guarded`]: per-ordering stats are exported to the registry
/// exactly once, the watchdog budget is threaded through, and a panic or
/// hang is contained. The shared helper behind the guarded grid and the
/// `table2`/`ablation` binaries.
pub fn guarded_ordering_run(
    o: &Arc<dyn OrderingAlgorithm>,
    g: &Arc<Graph>,
    plan: ExecPlan,
    timeout: Option<Duration>,
) -> ExecOutcome<OrderingRun> {
    let o = Arc::clone(o);
    let g = Arc::clone(g);
    run_guarded(timeout, move |budget| {
        run_ordering(o.as_ref(), &g, plan, budget)
    })
}

/// [`guarded_ordering_run`] under a serial plan, reduced to the
/// permutation — for callers that do not need the stats.
pub fn guarded_ordering(
    o: &Arc<dyn OrderingAlgorithm>,
    g: &Arc<Graph>,
    timeout: Option<Duration>,
) -> ExecOutcome<gorder_graph::Permutation> {
    guarded_ordering_run(o, g, ExecPlan::Serial, timeout).map(|run| run.perm)
}

/// Side channels for ordering resolution in a guarded sweep: an optional
/// permutation cache and an observer that receives one [`OrderEvent`]
/// per resolution (cache hit or fresh computation), ready to stream to a
/// trace sink.
pub struct OrderHooks<'a> {
    /// Permutation cache to consult and populate. Only **completed**
    /// permutations are stored — degraded ones depend on the budget that
    /// cut them short, not just on the cache key, and would poison warm
    /// runs.
    pub cache: Option<&'a OrderCache>,
    /// The seed the sweep hands its orderings (part of the cache key).
    pub seed: u64,
    /// Fires once per resolution with the full order record.
    pub on_order: &'a mut dyn FnMut(&OrderEvent),
}

/// Resolves one ordering for `g`: consults the cache (when hooked),
/// computes under guard on a miss, stores completed permutations back,
/// and reports an [`OrderEvent`] either way. Without hooks this is
/// [`guarded_ordering_run`] reduced to its permutation — no digest is
/// computed and no event is emitted.
pub fn resolve_ordering(
    o: &Arc<dyn OrderingAlgorithm>,
    g: &Arc<Graph>,
    dataset: Option<&str>,
    plan: ExecPlan,
    timeout: Option<Duration>,
    hooks: Option<&mut OrderHooks<'_>>,
) -> ExecOutcome<gorder_graph::Permutation> {
    let Some(hooks) = hooks else {
        return guarded_ordering_run(o, g, plan, timeout).map(|run| run.perm);
    };
    let key = CacheKey::for_ordering(g, o.as_ref(), hooks.seed);
    let event =
        |status: String, seconds: f64, stats: gorder_orders::OrderStats, hit: bool| OrderEvent {
            dataset: dataset.map(str::to_string),
            name: o.name().to_string(),
            params: o.params(),
            seed: hooks.seed,
            graph_digest: key.graph_digest,
            identity: key.identity(),
            status,
            seconds,
            nodes_placed: stats.nodes_placed,
            heap_increments: stats.heap_increments,
            heap_decrements: stats.heap_decrements,
            heap_pops: stats.heap_pops,
            threads_used: u64::from(stats.threads_used),
            cache_hit: hit,
        };
    if let Some(cache) = hooks.cache {
        let started = std::time::Instant::now();
        if let Some(perm) = cache.load(&key, g.n()) {
            let stats = gorder_orders::OrderStats {
                nodes_placed: u64::from(perm.len()),
                threads_used: 1,
                cache_hit: true,
                ..Default::default()
            };
            (hooks.on_order)(&event(
                "completed".to_string(),
                started.elapsed().as_secs_f64(),
                stats,
                true,
            ));
            return ExecOutcome::Completed(perm);
        }
    }
    let outcome = guarded_ordering_run(o, g, plan, timeout);
    let status = outcome.status_label().to_string();
    let stats = outcome.value_ref().map(|run| run.stats).unwrap_or_default();
    if let (Some(cache), ExecOutcome::Completed(run)) = (hooks.cache, &outcome) {
        if let Err(e) = cache.store(&key, &run.perm) {
            eprintln!(
                "[order-cache] warning: could not store {}: {e}",
                key.identity()
            );
        }
    }
    (hooks.on_order)(&event(status, stats.compute_secs, stats, false));
    outcome.map(|run| run.perm)
}

/// Guarded counterpart of [`run_grid`](crate::run_grid) /
/// [`run_grid_sim`](crate::experiment::run_grid_sim), using the pool of
/// orderings implied by `cfg`.
pub fn run_grid_robust(cfg: &GridConfig, timeout: Option<Duration>, sim: bool) -> SweepReport {
    run_grid_robust_observed(cfg, timeout, sim, &mut |_| {})
}

/// [`run_grid_robust`] with a cell observer: `on_cell` fires for **every**
/// cell the moment its fate is decided — completed, degraded, timed out,
/// or failed — before the sweep moves on. This is how the experiment
/// binaries stream trace events to disk as the grid runs, so an
/// interrupted sweep leaves a reconstructable record of everything that
/// finished.
pub fn run_grid_robust_observed(
    cfg: &GridConfig,
    timeout: Option<Duration>,
    sim: bool,
    on_cell: &mut dyn FnMut(&RobustCell),
) -> SweepReport {
    run_grid_robust_with_observed(cfg, timeout, sim, pool_for(cfg), on_cell)
}

/// The fully-hooked guarded grid: trace recovery plus ordering hooks
/// (permutation cache and order-event observer). Every other
/// `run_grid_robust*` entry point forwards here — directly or through
/// the private `grid_with_recovery` body — with the extras it lacks
/// set to `None`.
pub fn run_grid_robust_full(
    cfg: &GridConfig,
    timeout: Option<Duration>,
    sim: bool,
    recovered: Option<RecoveredLookup<'_>>,
    hooks: Option<&mut OrderHooks<'_>>,
    on_cell: &mut dyn FnMut(&RobustCell),
) -> SweepReport {
    grid_with_recovery(cfg, timeout, sim, pool_for(cfg), recovered, hooks, on_cell)
}

/// The ordering pool `cfg` implies: the standard or extended set,
/// narrowed by `cfg.orderings` when present.
fn pool_for(cfg: &GridConfig) -> Vec<Arc<dyn OrderingAlgorithm>> {
    let pool = if cfg.extended {
        gorder_orders::extensions::extended(cfg.seed)
    } else {
        gorder_orders::all(cfg.seed)
    };
    pool.into_iter()
        .filter(|o| match &cfg.orderings {
            None => true,
            Some(keep) => keep.iter().any(|k| k == o.name()),
        })
        .map(Arc::from)
        .collect()
}

/// [`run_grid_robust_observed`] resuming a crashed sweep: `recovered` is
/// consulted with `(dataset, ordering, algo)` before any work is done
/// for a cell, and a `Some(CellResult)` is emitted as a completed cell
/// without recomputing anything. When **every** algorithm cell of a
/// (dataset, ordering) pair is recovered, the ordering itself is not
/// recomputed either — and a dataset whose every cell is recovered is
/// never even built. A pair with any missing cell re-runs whole: the
/// ordering must be recomputed anyway, so partial recovery would mix a
/// fresh permutation with stale timings.
pub fn run_grid_robust_resumed(
    cfg: &GridConfig,
    timeout: Option<Duration>,
    sim: bool,
    recovered: RecoveredLookup<'_>,
    on_cell: &mut dyn FnMut(&RobustCell),
) -> SweepReport {
    grid_with_recovery(
        cfg,
        timeout,
        sim,
        pool_for(cfg),
        Some(recovered),
        None,
        on_cell,
    )
}

/// Guarded sweep over an explicit ordering pool — the entry point the
/// fault-injection tests use to plant panicking or never-terminating
/// orderings among the real ones. `cfg.orderings` is ignored (the pool
/// *is* the selection); `cfg.algos` still filters the algorithms.
pub fn run_grid_robust_with(
    cfg: &GridConfig,
    timeout: Option<Duration>,
    sim: bool,
    orderings: Vec<Arc<dyn OrderingAlgorithm>>,
) -> SweepReport {
    run_grid_robust_with_observed(cfg, timeout, sim, orderings, &mut |_| {})
}

/// Appends `cell` to the report, notifying the observer first — every
/// cell the sweep records flows through here exactly once.
fn emit(report: &mut SweepReport, on_cell: &mut dyn FnMut(&RobustCell), cell: RobustCell) {
    on_cell(&cell);
    report.cells.push(cell);
}

/// [`run_grid_robust_with`] plus the [`run_grid_robust_observed`] cell
/// observer.
pub fn run_grid_robust_with_observed(
    cfg: &GridConfig,
    timeout: Option<Duration>,
    sim: bool,
    orderings: Vec<Arc<dyn OrderingAlgorithm>>,
    on_cell: &mut dyn FnMut(&RobustCell),
) -> SweepReport {
    grid_with_recovery(cfg, timeout, sim, orderings, None, None, on_cell)
}

/// A resume lookup: maps `(dataset, ordering, algo)` to the recovered
/// cell from a prior run's trace, or `None` when the cell must re-run.
pub type RecoveredLookup<'a> = &'a dyn Fn(&str, &str, &str) -> Option<CellResult>;

/// The guarded grid with an optional trace-recovery hook — the single
/// body behind every `run_grid_robust*` entry point.
fn grid_with_recovery(
    cfg: &GridConfig,
    timeout: Option<Duration>,
    sim: bool,
    orderings: Vec<Arc<dyn OrderingAlgorithm>>,
    recovered: Option<RecoveredLookup<'_>>,
    mut hooks: Option<&mut OrderHooks<'_>>,
    on_cell: &mut dyn FnMut(&RobustCell),
) -> SweepReport {
    let algos = cfg.algo_names();
    let base_ctx = cfg.run_ctx();
    let mut report = SweepReport::default();
    for d in &cfg.datasets {
        // built lazily: a fully recovered dataset is never constructed
        let mut built: Option<(Arc<Graph>, u32)> = None;
        for o in &orderings {
            let rec_cells: Option<Vec<CellResult>> =
                recovered.and_then(|rec| algos.iter().map(|a| rec(d.name, o.name(), a)).collect());
            if let Some(cells) = rec_cells {
                for result in cells {
                    emit(
                        &mut report,
                        on_cell,
                        RobustCell {
                            result,
                            status: CellStatus::Completed,
                        },
                    );
                }
                eprintln!(
                    "[grid/robust]   {}/{} recovered from trace ({} cells)",
                    d.name,
                    o.name(),
                    algos.len()
                );
                continue;
            }
            if built.is_none() {
                let g = Arc::new(d.build(cfg.scale));
                eprintln!("[grid/robust] {}: n = {}, m = {}", d.name, g.n(), g.m());
                let source = g.max_degree_node().unwrap_or(0);
                built = Some((g, source));
            }
            let (g, logical_source) = built.as_ref().expect("built above");
            let (g, logical_source) = (Arc::clone(g), *logical_source);
            let blank = |algo: &str| CellResult {
                dataset: d.name.to_string(),
                algo: algo.to_string(),
                ordering: o.name().to_string(),
                seconds: 0.0,
                checksum: 0,
                stats: KernelStats::default(),
            };
            let (perm, ordering_status) = match resolve_ordering(
                o,
                &g,
                Some(d.name),
                cfg.exec_plan(),
                timeout,
                hooks.as_deref_mut(),
            ) {
                ExecOutcome::Completed(p) => (p, CellStatus::Completed),
                ExecOutcome::Degraded(p, reason) => (p, CellStatus::Degraded(reason)),
                ExecOutcome::TimedOut => {
                    for a in &algos {
                        emit(
                            &mut report,
                            on_cell,
                            RobustCell {
                                result: blank(a),
                                status: CellStatus::TimedOut,
                            },
                        );
                    }
                    eprintln!("[grid/robust]   {} timed out", o.name());
                    continue;
                }
                ExecOutcome::Failed(msg) => {
                    for a in &algos {
                        emit(
                            &mut report,
                            on_cell,
                            RobustCell {
                                result: blank(a),
                                status: CellStatus::Failed(msg.clone()),
                            },
                        );
                    }
                    eprintln!("[grid/robust]   {} failed: {msg}", o.name());
                    continue;
                }
            };
            if perm.len() != g.n() {
                let msg = format!(
                    "returned a permutation over {} nodes for a {}-node graph",
                    perm.len(),
                    g.n()
                );
                for a in &algos {
                    emit(
                        &mut report,
                        on_cell,
                        RobustCell {
                            result: blank(a),
                            status: CellStatus::Failed(msg.clone()),
                        },
                    );
                }
                eprintln!("[grid/robust]   {} {msg}", o.name());
                continue;
            }
            let rg = Arc::new(g.relabel(&perm));
            let mapped_source = perm.apply(logical_source);
            for &a in &algos {
                let cell = run_algo_cell(cfg, &base_ctx, a, &rg, mapped_source, timeout, sim);
                let status = match cell {
                    ExecOutcome::Completed((seconds, checksum, stats)) => {
                        let mut result = blank(a);
                        result.seconds = seconds;
                        result.checksum = checksum;
                        result.stats = stats;
                        emit(
                            &mut report,
                            on_cell,
                            RobustCell {
                                result,
                                status: ordering_status.clone(),
                            },
                        );
                        continue;
                    }
                    ExecOutcome::Degraded(_, reason) => CellStatus::Degraded(reason),
                    ExecOutcome::TimedOut => CellStatus::TimedOut,
                    ExecOutcome::Failed(msg) => CellStatus::Failed(msg),
                };
                emit(
                    &mut report,
                    on_cell,
                    RobustCell {
                        result: blank(a),
                        status,
                    },
                );
            }
            eprintln!(
                "[grid/robust]   {} done ({})",
                o.name(),
                ordering_status.label()
            );
        }
    }
    report
}

/// One guarded algorithm cell: wall-clock timing or a cache-simulator
/// replay, on a watchdog thread.
fn run_algo_cell(
    cfg: &GridConfig,
    base_ctx: &KernelCtx,
    a: &'static str,
    rg: &Arc<Graph>,
    mapped_source: u32,
    timeout: Option<Duration>,
    sim: bool,
) -> ExecOutcome<(f64, u64, KernelStats)> {
    let rg = Arc::clone(rg);
    if sim {
        let tctx = TraceCtx {
            source: Some(mapped_source),
            pr_iterations: (base_ctx.pr_iterations / 5).max(2),
            damping: base_ctx.damping,
            diameter_samples: (base_ctx.diameter_samples / 4).max(2),
            seed: base_ctx.seed,
        };
        run_guarded(timeout, move |_budget| {
            // fault point: holds a crashing-sweep test mid-grid; the
            // sleep never touches the modelled (simulated) seconds
            gorder_obs::faults::slow_cell("bench.cell");
            let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
            let (checksum, stats) =
                replay_with_stats(a, &rg, &mut tracer, &tctx).expect("engine kernel label");
            let cycles = tracer.breakdown(&StallModel::skylake()).total();
            ExecOutcome::Completed((cycles / 4e9, checksum, stats))
        })
    } else {
        let ctx = KernelCtx {
            source: Some(mapped_source),
            ..base_ctx.clone()
        };
        let reps = cfg.reps;
        let plan = cfg.exec_plan();
        run_guarded(timeout, move |_budget| {
            gorder_obs::faults::slow_cell("bench.cell");
            let mut stats = KernelStats::default();
            let (secs, checksum) = median_secs(
                || {
                    let (checksum, s) = crate::experiment::run_kernel(a, &rg, &ctx, plan);
                    stats = s;
                    checksum
                },
                reps,
            );
            ExecOutcome::Completed((secs, checksum, stats))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_graph::datasets::epinion_like;
    use gorder_graph::Permutation;

    struct Panicker;
    impl OrderingAlgorithm for Panicker {
        fn name(&self) -> &'static str {
            "Panicker"
        }
        fn compute(&self, _g: &Graph) -> Permutation {
            panic!("injected ordering fault")
        }
    }

    struct Hang;
    impl OrderingAlgorithm for Hang {
        fn name(&self) -> &'static str {
            "Hang"
        }
        fn compute(&self, g: &Graph) -> Permutation {
            // non-cooperative: ignores every budget signal
            std::thread::sleep(Duration::from_secs(600));
            Permutation::identity(g.n())
        }
        fn compute_budgeted(&self, g: &Graph, _budget: &Budget) -> ExecOutcome<Permutation> {
            ExecOutcome::Completed(self.compute(g))
        }
    }

    fn tiny_cfg() -> GridConfig {
        GridConfig {
            scale: 0.02,
            reps: 1,
            seed: 1,
            quick: true,
            datasets: vec![epinion_like()],
            orderings: None,
            algos: Some(vec!["NQ".into(), "BFS".into()]),
            extended: false,
            threads: 1,
        }
    }

    #[test]
    fn robust_parallel_grid_matches_serial() {
        let mut cfg = tiny_cfg();
        cfg.orderings = Some(vec!["Original".into(), "ChDFS".into()]);
        let serial = run_grid_robust(&cfg, Some(Duration::from_secs(60)), false);
        cfg.threads = 3;
        let parallel = run_grid_robust(&cfg, Some(Duration::from_secs(60)), false);
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.usable().iter().zip(&parallel.usable()) {
            assert_eq!(s.checksum, p.checksum, "{}/{}", s.ordering, s.algo);
            assert_eq!(s.stats.iterations, p.stats.iterations);
            assert_eq!(s.stats.edges_relaxed, p.stats.edges_relaxed);
            assert_eq!(p.stats.threads_used, 3);
        }
    }

    #[test]
    fn guarded_closure_completes() {
        let out = run_guarded(Some(Duration::from_secs(5)), |_b| {
            ExecOutcome::Completed(41 + 1)
        });
        assert_eq!(out, ExecOutcome::Completed(42));
    }

    #[test]
    fn guarded_panic_is_failed_not_fatal() {
        let out: ExecOutcome<u32> = run_guarded(Some(Duration::from_secs(5)), |_b| panic!("boom"));
        match out {
            ExecOutcome::Failed(msg) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Failed, got {}", other.status_label()),
        }
    }

    #[test]
    fn guarded_panic_without_watchdog() {
        let out: ExecOutcome<u32> = run_guarded(None, |_b| panic!("inline boom"));
        match out {
            ExecOutcome::Failed(msg) => assert!(msg.contains("inline boom"), "{msg}"),
            other => panic!("expected Failed, got {}", other.status_label()),
        }
    }

    #[test]
    fn guarded_hang_times_out() {
        let out: ExecOutcome<u32> = run_guarded(Some(Duration::from_millis(10)), |_b| {
            std::thread::sleep(Duration::from_secs(600));
            ExecOutcome::Completed(0)
        });
        assert_eq!(out, ExecOutcome::TimedOut);
    }

    #[test]
    fn guarded_cooperative_degrade_survives_deadline() {
        // A worker that honours cancellation returns Degraded, not
        // TimedOut: it notices the cancel flag during the grace period.
        let out = run_guarded(Some(Duration::from_millis(10)), |budget| loop {
            if let Some(reason) = budget.exhausted(0) {
                return ExecOutcome::Degraded(7u32, reason);
            }
            std::thread::sleep(Duration::from_millis(1));
        });
        match out {
            ExecOutcome::Degraded(7, _) => {}
            other => panic!("expected Degraded(7), got {}", other.status_label()),
        }
    }

    #[test]
    fn sweep_survives_panicking_and_hanging_orderings() {
        let cfg = tiny_cfg();
        let pool: Vec<Arc<dyn OrderingAlgorithm>> = vec![
            Arc::new(gorder_orders::Original),
            Arc::new(Panicker),
            Arc::new(Hang),
            Arc::new(gorder_orders::ChDfs),
        ];
        let report = run_grid_robust_with(&cfg, Some(Duration::from_millis(50)), false, pool);
        // 4 orderings × 2 algos, every cell present
        assert_eq!(report.cells.len(), 8);
        let by = |ordering: &str| -> Vec<&RobustCell> {
            report
                .cells
                .iter()
                .filter(|c| c.result.ordering == ordering)
                .collect()
        };
        for c in by("Original").iter().chain(by("ChDFS").iter()) {
            assert_eq!(c.status, CellStatus::Completed, "{:?}", c.result);
        }
        for c in by("Panicker") {
            match &c.status {
                CellStatus::Failed(msg) => {
                    assert!(msg.contains("injected ordering fault"), "{msg}")
                }
                other => panic!("Panicker cell should fail, got {}", other.label()),
            }
        }
        for c in by("Hang") {
            assert_eq!(c.status, CellStatus::TimedOut, "{:?}", c.result);
        }
        // the skip report names exactly the unusable cells
        assert_eq!(report.skipped().len(), 4);
        assert_eq!(report.usable().len(), 4);
        report.print_skip_report();
    }

    #[test]
    fn observer_sees_every_cell_in_report_order() {
        let cfg = tiny_cfg();
        let pool: Vec<Arc<dyn OrderingAlgorithm>> =
            vec![Arc::new(gorder_orders::Original), Arc::new(Panicker)];
        let mut seen: Vec<(String, String, &'static str)> = Vec::new();
        let report = run_grid_robust_with_observed(
            &cfg,
            Some(Duration::from_secs(60)),
            false,
            pool,
            &mut |c| {
                seen.push((
                    c.result.ordering.clone(),
                    c.result.algo.clone(),
                    c.status.label(),
                ));
            },
        );
        // failed cells stream through the observer just like completed ones
        assert_eq!(seen.len(), report.cells.len());
        assert_eq!(report.skipped().len(), 2);
        for (s, c) in seen.iter().zip(&report.cells) {
            assert_eq!(s.0, c.result.ordering);
            assert_eq!(s.1, c.result.algo);
            assert_eq!(s.2, c.status.label());
        }
    }

    #[test]
    fn robust_grid_matches_plain_grid_when_nothing_fails() {
        let mut cfg = tiny_cfg();
        cfg.orderings = Some(vec!["Original".into(), "ChDFS".into()]);
        let plain = crate::run_grid(&cfg);
        let robust = run_grid_robust(&cfg, Some(Duration::from_secs(60)), false);
        assert_eq!(robust.cells.len(), plain.len());
        for (r, p) in robust.usable().iter().zip(&plain) {
            assert_eq!(r.dataset, p.dataset);
            assert_eq!(r.algo, p.algo);
            assert_eq!(r.ordering, p.ordering);
            assert_eq!(r.checksum, p.checksum, "{}/{}", p.ordering, p.algo);
        }
    }

    #[test]
    fn resumed_grid_recovers_cells_verbatim_and_recomputes_the_rest() {
        let mut cfg = tiny_cfg();
        cfg.orderings = Some(vec!["Original".into(), "ChDFS".into()]);
        // sim mode: modelled seconds are deterministic, so recomputed
        // cells must match the fresh sweep exactly
        let fresh = run_grid_robust(&cfg, Some(Duration::from_secs(60)), true);
        // pretend Original's cells survived a crash; ChDFS's did not
        let rec = |dataset: &str, ordering: &str, algo: &str| -> Option<CellResult> {
            fresh
                .cells
                .iter()
                .find(|c| {
                    ordering == "Original"
                        && c.result.dataset == dataset
                        && c.result.ordering == ordering
                        && c.result.algo == algo
                })
                .map(|c| c.result.clone())
        };
        let mut observed = 0usize;
        let resumed =
            run_grid_robust_resumed(&cfg, Some(Duration::from_secs(60)), true, &rec, &mut |_| {
                observed += 1
            });
        assert_eq!(resumed.cells.len(), fresh.cells.len());
        assert_eq!(observed, fresh.cells.len(), "recovered cells still stream");
        for (f, r) in fresh.cells.iter().zip(&resumed.cells) {
            assert_eq!(f.result.ordering, r.result.ordering);
            assert_eq!(f.result.algo, r.result.algo);
            assert_eq!(f.result.checksum, r.result.checksum);
            assert_eq!(f.result.seconds, r.result.seconds, "{:?}", r.result);
            assert_eq!(r.status, CellStatus::Completed);
        }
    }

    #[test]
    fn partially_recovered_pair_is_rerun_whole() {
        let mut cfg = tiny_cfg(); // algos: NQ + BFS
        cfg.orderings = Some(vec!["Original".into()]);
        // only NQ recovered: the ordering must be recomputed for BFS
        // anyway, so the sentinel recovery must be discarded
        let rec = |dataset: &str, ordering: &str, algo: &str| -> Option<CellResult> {
            (algo == "NQ").then(|| CellResult {
                dataset: dataset.to_string(),
                algo: algo.to_string(),
                ordering: ordering.to_string(),
                seconds: 999.0,
                checksum: 7,
                stats: KernelStats::default(),
            })
        };
        let resumed =
            run_grid_robust_resumed(&cfg, Some(Duration::from_secs(60)), true, &rec, &mut |_| {});
        assert_eq!(resumed.cells.len(), 2);
        for c in &resumed.cells {
            assert_ne!(c.result.seconds, 999.0, "{:?}", c.result);
            assert_eq!(c.status, CellStatus::Completed);
        }
    }

    #[test]
    fn robust_sim_grid_produces_modelled_times() {
        let mut cfg = tiny_cfg();
        cfg.orderings = Some(vec!["Original".into()]);
        let report = run_grid_robust(&cfg, Some(Duration::from_secs(60)), true);
        assert_eq!(report.cells.len(), 2);
        for c in &report.cells {
            assert_eq!(c.status, CellStatus::Completed);
            assert!(c.result.seconds > 0.0, "{:?}", c.result);
        }
    }
}
