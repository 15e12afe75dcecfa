//! # gorder-cli — command-line front end
//!
//! The workflows the original Gorder release supported (reorder an edge
//! list), plus the ones this reproduction adds: inspect, convert between
//! formats, run the benchmark algorithms, and cache-profile a graph under
//! any ordering. The binary is a thin `main` over this library so every
//! piece is unit-testable.
//!
//! ```text
//! gorder-cli stats    <input>
//! gorder-cli order    <input> <output> [--method Gorder] [--window 5]
//! gorder-cli convert  <input> <output>
//! gorder-cli run      <algo> <input> [--method NAME]
//! gorder-cli simulate <algo> <input> [--method NAME]
//! ```
//!
//! Formats are chosen by extension: `.mtx` Matrix Market, `.bin` the
//! compact binary format, anything else a whitespace edge list.

use gorder_cachesim::trace::{replay_with_stats, TraceCtx};
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, StallModel, Tracer};
use gorder_core::budget::{Budget, DegradeReason, ExecOutcome};
use gorder_core::GorderBuilder;
use gorder_engine::{ExecPlan, KernelCtx, KernelStats};
use gorder_graph::io::GraphIoError;
use gorder_graph::stats::{degree_gini, GraphStats};
use gorder_graph::Permutation;
use gorder_graph::{io, io_mm, Graph};
use gorder_obs::OrderEvent;
use gorder_orders::{run_ordering, CacheKey, OrderCache, OrderStats, OrderingAlgorithm};
use std::path::Path;
use std::time::Duration;

pub mod remote;

/// Structured CLI failure. Each variant maps to a distinct process exit
/// code so scripts can tell bad usage from bad input from exhausted
/// budgets (see [`CliError::exit_code`]).
#[derive(Debug)]
pub enum CliError {
    /// Unknown command, flag, algorithm, or ordering — exit 2.
    Usage(String),
    /// A budgeted stage hit its deadline with nothing usable — exit 4.
    TimedOut,
    /// A stage failed outright — exit 5.
    Failed(String),
    /// Reading or writing a graph file failed — exit 6.
    GraphIo(GraphIoError),
}

impl CliError {
    /// The process exit code for this failure. Exit 0 is success, exit 3
    /// is reserved for "succeeded but degraded" (see [`CmdOutput`]);
    /// exit 1 is left to panics/aborts so it never aliases a clean error.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::TimedOut => 4,
            CliError::Failed(_) => 5,
            CliError::GraphIo(_) => 6,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::TimedOut => write!(f, "timed out before producing a usable result"),
            CliError::Failed(msg) => write!(f, "failed: {msg}"),
            CliError::GraphIo(e) => write!(f, "{e}"),
        }
    }
}

impl From<GraphIoError> for CliError {
    fn from(e: GraphIoError) -> Self {
        CliError::GraphIo(e)
    }
}

/// A successful command body: the report text plus a marker when any
/// budgeted stage returned a degraded (anytime) result. Degradation is
/// still success — the output is valid — but the process exits 3 and the
/// reason goes to stderr, so callers can notice.
#[derive(Debug)]
pub struct CmdOutput {
    /// Human-readable one-line report.
    pub report: String,
    /// Set when a budgeted stage returned an anytime (partial) result.
    pub degraded: Option<DegradeReason>,
    /// One JSON line of per-kernel execution metrics (`run`/`simulate`
    /// commands only; printed by the binary under `--stats`).
    pub stats_json: Option<String>,
    /// Structured trace events for this command (`run`/`simulate` emit
    /// one kernel event); the binary writes them under `--trace-out`,
    /// after the manifest it builds from the flags.
    pub trace_events: Vec<gorder_obs::TraceEvent>,
}

/// Renders one JSON object line of run metadata + [`KernelStats`] via the
/// shared `gorder_obs::json` writer (same escaper and number formatting
/// as the trace sink, so the two surfaces never drift).
///
/// `engine` is always true: every kernel runs on the engine, so every
/// counter is real. The key stays so stats consumers keep one schema.
fn stats_json_line(
    algo: &str,
    ordering: Option<&str>,
    checksum: u64,
    seconds: f64,
    stats: &KernelStats,
) -> String {
    gorder_obs::json::JsonObject::new()
        .str("algo", algo)
        .opt_str("ordering", ordering)
        .u64("checksum", checksum)
        .f64("seconds", seconds)
        .bool("engine", true)
        .u64("iterations", stats.iterations)
        .u64("edges_relaxed", stats.edges_relaxed)
        .u64("frontier_pushes", stats.frontier_pushes)
        .u64("frontier_peak", stats.frontier_peak)
        .f64("init_secs", stats.init_secs)
        .f64("compute_secs", stats.compute_secs)
        .f64("finish_secs", stats.finish_secs)
        .u64("threads_used", u64::from(stats.threads_used))
        .f64_array("thread_busy_secs", &stats.thread_busy_secs)
        .bool("degraded_serial", stats.degraded_serial)
        .finish()
}

/// Builds the trace twin of the stats line: a structured
/// [`KernelEvent`](gorder_obs::KernelEvent) with the same fields, keyed
/// for the JSONL sink.
fn kernel_trace_event(
    algo: &str,
    ordering: Option<&str>,
    checksum: u64,
    seconds: f64,
    threads: u32,
    stats: &KernelStats,
) -> gorder_obs::TraceEvent {
    let engine = if threads > 1 { "parallel" } else { "serial" };
    gorder_obs::TraceEvent::Kernel(gorder_obs::KernelEvent {
        algo: algo.to_string(),
        ordering: ordering.unwrap_or("Original").to_string(),
        checksum,
        seconds,
        engine: engine.to_string(),
        iterations: stats.iterations,
        edges_relaxed: stats.edges_relaxed,
        frontier_pushes: stats.frontier_pushes,
        frontier_peak: stats.frontier_peak,
        init_secs: stats.init_secs,
        compute_secs: stats.compute_secs,
        finish_secs: stats.finish_secs,
        threads_used: u64::from(stats.threads_used),
        thread_busy_secs: stats.thread_busy_secs.iter().sum(),
        degraded_serial: stats.degraded_serial,
    })
}

/// `validate-trace` subcommand: checks that every line of the file at
/// `path` passes the strict JSON parser and that the first line is a
/// manifest with a supported schema version. Returns a one-line summary.
///
/// With `lenient` (the `--lenient` flag), exactly one invalid,
/// unterminated **final** line is tolerated and reported — the signature
/// a crash mid-write leaves, and exactly what `--resume` accepts.
pub fn validate_trace_file(path: &Path, lenient: bool) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("cannot read {}: {e}", path.display())))?;
    let validated = if lenient {
        gorder_obs::validate_jsonl_lenient(&text)
    } else {
        gorder_obs::validate_jsonl(&text)
    };
    let summary = validated.map_err(|e| CliError::Failed(format!("{}: {e}", path.display())))?;
    let kinds = summary
        .by_kind
        .iter()
        .map(|(k, n)| format!("{n} {k}"))
        .collect::<Vec<_>>()
        .join(", ");
    let torn = if summary.truncated_final_line {
        " + 1 torn final line (crash artifact, tolerated)"
    } else {
        ""
    };
    Ok(format!(
        "{}: valid trace, {} lines ({kinds}){torn}",
        path.display(),
        summary.lines
    ))
}

/// Builds the [`Budget`] for a `--timeout` flag; `None` is unlimited.
pub fn budget_from(timeout: Option<Duration>) -> Budget {
    match timeout {
        Some(t) => Budget::unlimited().with_timeout(t),
        None => Budget::unlimited(),
    }
}

/// Graph file formats the CLI understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Whitespace-separated `u v` pairs (default).
    EdgeList,
    /// Matrix Market coordinate.
    MatrixMarket,
    /// This crate's compact binary CSR.
    Binary,
}

/// Picks a format from a path's extension.
pub fn format_of(path: &Path) -> Format {
    match path
        .extension()
        .and_then(|e| e.to_str())
        .map(|e| e.to_ascii_lowercase())
        .as_deref()
    {
        Some("mtx") => Format::MatrixMarket,
        Some("bin") => Format::Binary,
        _ => Format::EdgeList,
    }
}

/// Loads a graph, dispatching on extension.
pub fn load(path: &Path) -> Result<Graph, GraphIoError> {
    match format_of(path) {
        Format::EdgeList => io::read_edge_list_path(path),
        Format::MatrixMarket => io_mm::read_matrix_market_path(path),
        Format::Binary => io::read_binary_path(path),
    }
}

/// Saves a graph, dispatching on extension.
pub fn save(g: &Graph, path: &Path) -> Result<(), GraphIoError> {
    match format_of(path) {
        Format::EdgeList => io::write_edge_list_path(g, path),
        Format::MatrixMarket => io_mm::write_matrix_market_path(g, path),
        Format::Binary => io::write_binary_path(g, path),
    }
}

/// Resolves an ordering by name; `Gorder` honours `--window`.
pub fn ordering_by_name(name: &str, window: u32, seed: u64) -> Option<Box<dyn OrderingAlgorithm>> {
    if name.eq_ignore_ascii_case("gorder") {
        return Some(Box::new(
            gorder_orders::gorder_impl::GorderOrdering::from_gorder(
                GorderBuilder::new().window(window).build(),
            ),
        ));
    }
    gorder_orders::extensions::extended(seed)
        .into_iter()
        .find(|o| o.name().eq_ignore_ascii_case(name))
}

/// Names of every ordering the CLI accepts.
pub fn ordering_names() -> Vec<&'static str> {
    gorder_orders::extensions::extended(0)
        .iter()
        .map(|o| o.name())
        .collect()
}

/// Names of every algorithm the CLI accepts: the engine's name tables.
pub fn algorithm_names() -> Vec<&'static str> {
    gorder_engine::all_kernel_names().collect()
}

/// Resolves an algorithm name (case-insensitive) to its canonical
/// label, or a usage error listing the known ones.
fn resolve_algorithm(algo: &str) -> Result<&'static str, CliError> {
    gorder_engine::canonical_name(algo).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown algorithm {algo:?}; known: {:?}",
            algorithm_names()
        ))
    })
}

/// `stats` subcommand: one human-readable block.
pub fn stats_report(g: &Graph) -> String {
    let s = GraphStats::compute(g);
    format!(
        "nodes            {}\n\
         edges            {}\n\
         mean out-degree  {:.2}\n\
         max out-degree   {}\n\
         max in-degree    {}\n\
         reciprocity      {:.1}%\n\
         isolated nodes   {}\n\
         degree gini      {:.3}\n\
         csr memory       {:.1} MB",
        s.n,
        s.m,
        s.mean_degree,
        s.max_out_degree,
        s.max_in_degree,
        s.reciprocity * 100.0,
        s.isolated,
        degree_gini(g),
        g.memory_bytes() as f64 / 1e6,
    )
}

/// Computes the named ordering under an optional timeout. A degraded
/// result (the anytime prefix completed by a cheaper fallback) is still a
/// valid permutation and is returned alongside its reason; an empty-handed
/// timeout or failure becomes a [`CliError`].
pub fn compute_ordering_budgeted(
    g: &Graph,
    method: &str,
    window: u32,
    seed: u64,
    timeout: Option<Duration>,
) -> Result<(Permutation, Option<DegradeReason>), CliError> {
    resolve_ordering_cached(g, method, window, seed, timeout, None, None)
        .map(|r| (r.perm, r.degraded))
}

/// One resolved ordering: the permutation, the degradation marker, and
/// the trace-ready [`OrderEvent`] describing how it was obtained.
pub struct ResolvedOrdering {
    /// The permutation, computed or cache-loaded.
    pub perm: Permutation,
    /// `Some` when the (anytime) ordering ran out of budget partway.
    pub degraded: Option<DegradeReason>,
    /// The `order` trace record for this resolution.
    pub event: OrderEvent,
}

/// [`compute_ordering_budgeted`] through the unified runner
/// ([`run_ordering`]) with an optional content-addressed permutation
/// cache: a hit skips the computation entirely, a completed miss is
/// stored back (degraded permutations are never cached — they depend on
/// the budget, not just the key). `dataset` labels the resulting
/// [`OrderEvent`] (the CLI passes the input path).
pub fn resolve_ordering_cached(
    g: &Graph,
    method: &str,
    window: u32,
    seed: u64,
    timeout: Option<Duration>,
    cache: Option<&OrderCache>,
    dataset: Option<&str>,
) -> Result<ResolvedOrdering, CliError> {
    resolve_ordering_with_budget(
        g,
        method,
        window,
        seed,
        &budget_from(timeout),
        cache,
        dataset,
    )
}

/// [`resolve_ordering_cached`] against a caller-owned [`Budget`] instead
/// of a bare timeout, so long-lived callers (the serve daemon) can hold a
/// clone and cancel the resolution mid-flight — e.g. when a drain grace
/// period expires.
#[allow(clippy::too_many_arguments)]
pub fn resolve_ordering_with_budget(
    g: &Graph,
    method: &str,
    window: u32,
    seed: u64,
    budget: &Budget,
    cache: Option<&OrderCache>,
    dataset: Option<&str>,
) -> Result<ResolvedOrdering, CliError> {
    let o = ordering_by_name(method, window, seed).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown ordering {method:?}; known: {:?}",
            ordering_names()
        ))
    })?;
    let key = CacheKey::for_ordering(g, o.as_ref(), seed);
    let event = |status: &str, seconds: f64, stats: OrderStats, hit: bool| OrderEvent {
        dataset: dataset.map(str::to_string),
        name: o.name().to_string(),
        params: o.params(),
        seed,
        graph_digest: key.graph_digest,
        identity: key.identity(),
        status: status.to_string(),
        seconds,
        nodes_placed: stats.nodes_placed,
        heap_increments: stats.heap_increments,
        heap_decrements: stats.heap_decrements,
        heap_pops: stats.heap_pops,
        threads_used: u64::from(stats.threads_used),
        cache_hit: hit,
    };
    if let Some(cache) = cache {
        let t = std::time::Instant::now();
        if let Some(perm) = cache.load(&key, g.n()) {
            let stats = OrderStats {
                nodes_placed: u64::from(perm.len()),
                threads_used: 1,
                cache_hit: true,
                ..Default::default()
            };
            let ev = event("completed", t.elapsed().as_secs_f64(), stats, true);
            return Ok(ResolvedOrdering {
                perm,
                degraded: None,
                event: ev,
            });
        }
    }
    match run_ordering(o.as_ref(), g, gorder_orders::ExecPlan::Serial, budget) {
        ExecOutcome::Completed(run) => {
            if let Some(cache) = cache {
                if let Err(e) = cache.store(&key, &run.perm) {
                    eprintln!("warning: order cache store failed: {e}");
                }
            }
            let ev = event("completed", run.stats.compute_secs, run.stats, false);
            Ok(ResolvedOrdering {
                perm: run.perm,
                degraded: None,
                event: ev,
            })
        }
        ExecOutcome::Degraded(run, reason) => {
            let ev = event("degraded", run.stats.compute_secs, run.stats, false);
            Ok(ResolvedOrdering {
                perm: run.perm,
                degraded: Some(reason),
                event: ev,
            })
        }
        ExecOutcome::TimedOut => Err(CliError::TimedOut),
        ExecOutcome::Failed(msg) => Err(CliError::Failed(msg)),
    }
}

/// Resolves and applies the optional `--method` ordering under an optional
/// timeout, returning the (re)labelled graph, a report note, and the
/// degradation marker if the ordering ran out of budget partway.
fn ordered_graph(
    g: &Graph,
    ordering: Option<&str>,
    window: u32,
    seed: u64,
    timeout: Option<Duration>,
) -> Result<(Graph, String, Option<DegradeReason>), CliError> {
    match ordering {
        None => Ok((g.clone(), "original order".to_string(), None)),
        Some(name) => {
            let (perm, degraded) = compute_ordering_budgeted(g, name, window, seed, timeout)?;
            let note = match degraded {
                None => format!("{name} order"),
                Some(reason) => format!("{name} order (degraded: {reason})"),
            };
            Ok((g.relabel(&perm), note, degraded))
        }
    }
}

/// `run` subcommand: execute an algorithm (optionally after reordering),
/// returning a report line. Unbudgeted compatibility wrapper around
/// [`run_algorithm_budgeted`].
pub fn run_algorithm(
    g: &Graph,
    algo: &str,
    ordering: Option<&str>,
    window: u32,
    seed: u64,
) -> Result<String, String> {
    run_algorithm_budgeted(g, algo, ordering, window, seed, None, 1)
        .map(|o| o.report)
        .map_err(|e| e.to_string())
}

/// `run` subcommand under an optional `--timeout`: the ordering phase is
/// budgeted; a degraded ordering still runs the algorithm and is flagged
/// in [`CmdOutput::degraded`]. `threads` schedules the engine-backed
/// kernels' parallel sections (`--threads`); results are byte-identical
/// to serial, only the timing and the `threads_used`/`thread_busy_secs`
/// stats fields change.
#[allow(clippy::too_many_arguments)]
pub fn run_algorithm_budgeted(
    g: &Graph,
    algo: &str,
    ordering: Option<&str>,
    window: u32,
    seed: u64,
    timeout: Option<Duration>,
    threads: u32,
) -> Result<CmdOutput, CliError> {
    let name = resolve_algorithm(algo)?;
    let (graph, note, degraded) = ordered_graph(g, ordering, window, seed, timeout)?;
    let ctx = KernelCtx {
        seed,
        ..Default::default()
    };
    let t = std::time::Instant::now();
    let run = gorder_engine::run_by_name_plan(name, &graph, &ctx, ExecPlan::with_threads(threads))
        .expect("resolved kernel name");
    let seconds = t.elapsed().as_secs_f64();
    let (checksum, stats) = (run.checksum, run.stats);
    Ok(CmdOutput {
        report: format!("{algo} over {note}: checksum {checksum:#x} in {seconds:.3}s"),
        degraded,
        stats_json: Some(stats_json_line(name, ordering, checksum, seconds, &stats)),
        trace_events: vec![kernel_trace_event(
            name, ordering, checksum, seconds, threads, &stats,
        )],
    })
}

/// `simulate` subcommand: cache profile of an algorithm under an ordering.
/// Unbudgeted compatibility wrapper around [`simulate_algorithm_budgeted`].
pub fn simulate_algorithm(
    g: &Graph,
    algo: &str,
    ordering: Option<&str>,
    window: u32,
    seed: u64,
) -> Result<String, String> {
    simulate_algorithm_budgeted(g, algo, ordering, window, seed, None)
        .map(|o| o.report)
        .map_err(|e| e.to_string())
}

/// `simulate` subcommand under an optional `--timeout` on the ordering
/// phase.
pub fn simulate_algorithm_budgeted(
    g: &Graph,
    algo: &str,
    ordering: Option<&str>,
    window: u32,
    seed: u64,
    timeout: Option<Duration>,
) -> Result<CmdOutput, CliError> {
    let name = resolve_algorithm(algo)?;
    let (graph, note, degraded) = ordered_graph(g, ordering, window, seed, timeout)?;
    let ctx = TraceCtx {
        pr_iterations: 5,
        diameter_samples: 4,
        seed,
        ..Default::default()
    };
    let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
    let t = std::time::Instant::now();
    let (checksum, stats) =
        replay_with_stats(name, &graph, &mut tracer, &ctx).expect("resolved kernel name");
    let seconds = t.elapsed().as_secs_f64();
    let s = tracer.stats();
    let b = tracer.breakdown(&StallModel::skylake());
    Ok(CmdOutput {
        report: format!(
            "{algo} over {note}: {:.1}M refs, L1-mr {:.1}%, cache-mr {:.1}%, stall share {:.0}%",
            s.l1_refs as f64 / 1e6,
            s.l1_miss_rate * 100.0,
            s.cache_miss_rate * 100.0,
            b.stall_fraction() * 100.0
        ),
        degraded,
        stats_json: Some(stats_json_line(name, ordering, checksum, seconds, &stats)),
        trace_events: vec![kernel_trace_event(
            name, ordering, checksum, seconds, 1, &stats,
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_detection() {
        assert_eq!(format_of(Path::new("a.mtx")), Format::MatrixMarket);
        assert_eq!(format_of(Path::new("a.MTX")), Format::MatrixMarket);
        assert_eq!(format_of(Path::new("a.bin")), Format::Binary);
        assert_eq!(format_of(Path::new("a.txt")), Format::EdgeList);
        assert_eq!(format_of(Path::new("noext")), Format::EdgeList);
    }

    #[test]
    fn load_save_roundtrip_all_formats() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (4, 0)]);
        let dir = std::env::temp_dir().join("gorder_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["g.txt", "g.mtx", "g.bin"] {
            let p = dir.join(name);
            save(&g, &p).unwrap();
            assert_eq!(load(&p).unwrap(), g, "{name}");
        }
    }

    #[test]
    fn ordering_resolution() {
        assert!(ordering_by_name("Gorder", 5, 1).is_some());
        assert!(ordering_by_name("gorder", 9, 1).is_some());
        assert!(ordering_by_name("rcm", 5, 1).is_some());
        assert!(ordering_by_name("DBG", 5, 1).is_some());
        assert!(ordering_by_name("nope", 5, 1).is_none());
        assert!(ordering_names().contains(&"SlashBurn"));
    }

    #[test]
    fn stats_report_contains_counts() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let r = stats_report(&g);
        assert!(r.contains("nodes            3"));
        assert!(r.contains("edges            2"));
    }

    #[test]
    fn run_and_simulate_work() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let run = run_algorithm(&g, "BFS", Some("Gorder"), 5, 1).unwrap();
        assert!(run.contains("BFS over Gorder order"));
        let sim = simulate_algorithm(&g, "PR", None, 5, 1).unwrap();
        assert!(sim.contains("L1-mr"));
        assert!(run_algorithm(&g, "XX", None, 5, 1).is_err());
        assert!(simulate_algorithm(&g, "PR", Some("zzz"), 5, 1).is_err());
    }

    #[test]
    fn exit_codes_are_distinct() {
        let errs = [
            CliError::Usage("x".into()),
            CliError::TimedOut,
            CliError::Failed("y".into()),
            CliError::GraphIo(GraphIoError::BadMagic),
        ];
        let mut codes: Vec<u8> = errs.iter().map(CliError::exit_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len(), "exit codes must not alias");
        // 0 = success, 1 = panic/abort, 3 = degraded are reserved.
        assert!(!codes.contains(&0) && !codes.contains(&1) && !codes.contains(&3));
    }

    #[test]
    fn zero_timeout_gorder_degrades_but_still_runs() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let out = run_algorithm_budgeted(
            &g,
            "BFS",
            Some("Gorder"),
            5,
            1,
            Some(Duration::from_secs(0)),
            1,
        )
        .unwrap();
        assert!(out.degraded.is_some(), "zero budget must degrade");
        assert!(out.report.contains("degraded"));
    }

    #[test]
    fn zero_timeout_without_anytime_path_times_out() {
        // RCM has no compute_budgeted override: the trait default returns
        // TimedOut when the budget is exhausted before it starts.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        match run_algorithm_budgeted(
            &g,
            "BFS",
            Some("RCM"),
            5,
            1,
            Some(Duration::from_secs(0)),
            1,
        ) {
            Err(CliError::TimedOut) => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budgeted_matches_unbudgeted() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let plain = run_algorithm(&g, "NQ", Some("ChDFS"), 5, 1).unwrap();
        let budgeted = run_algorithm_budgeted(&g, "NQ", Some("ChDFS"), 5, 1, None, 1).unwrap();
        assert!(budgeted.degraded.is_none());
        // Reports match up to the timing suffix.
        let head = |s: &str| s.split(" in ").next().unwrap().to_string();
        assert_eq!(head(&plain), head(&budgeted.report));
    }

    #[test]
    fn compute_ordering_budgeted_unknown_is_usage() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        match compute_ordering_budgeted(&g, "nope", 5, 1, None) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("unknown ordering")),
            other => panic!("expected Usage, got {other:?}"),
        }
    }

    /// The shared strict parser from `gorder_obs`: the same validation
    /// path the golden tests, the CI trace check, and `validate-trace`
    /// use, so "parses here" means "parses everywhere downstream".
    use gorder_obs::json::parse_object as parse_json_object;

    const STATS_KEYS: [&str; 15] = [
        "algo",
        "ordering",
        "checksum",
        "seconds",
        "engine",
        "iterations",
        "edges_relaxed",
        "frontier_pushes",
        "frontier_peak",
        "init_secs",
        "compute_secs",
        "finish_secs",
        "threads_used",
        "thread_busy_secs",
        "degraded_serial",
    ];

    #[test]
    fn run_stats_json_is_valid_and_complete() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let out = run_algorithm_budgeted(&g, "BFS", Some("Gorder"), 5, 1, None, 1).unwrap();
        let line = out.stats_json.expect("run emits a stats line");
        let obj = parse_json_object(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
        for key in STATS_KEYS {
            assert!(obj.contains_key(key), "missing {key} in {line}");
        }
        assert_eq!(obj["algo"], "\"BFS\"");
        assert_eq!(obj["ordering"], "\"Gorder\"");
        assert_eq!(obj["engine"], "true");
        assert_eq!(obj["threads_used"], "1");
        assert_eq!(obj["thread_busy_secs"], "[]", "serial runs have no workers");
        assert_eq!(obj["degraded_serial"], "false", "clean runs never degrade");
        assert!(obj["iterations"].parse::<u64>().unwrap() >= 1, "{line}");
        // BFS (with restarts) scans every out-edge exactly once
        assert_eq!(obj["edges_relaxed"].parse::<u64>().unwrap(), g.m());
    }

    #[test]
    fn parallel_run_reports_threads_and_busy_times() {
        // A graph wide enough that the PR partitioner yields four
        // non-empty ranges: 200 nodes in a ring plus some chords.
        let mut edges: Vec<(u32, u32)> = (0..200u32).map(|u| (u, (u + 1) % 200)).collect();
        edges.extend((0..50u32).map(|u| (u * 4, (u * 7 + 3) % 200)));
        let g = Graph::from_edges(200, &edges);
        let out = run_algorithm_budgeted(&g, "PR", None, 5, 1, None, 4).unwrap();
        let line = out.stats_json.expect("run emits a stats line");
        let obj = parse_json_object(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
        assert_eq!(obj["threads_used"], "4", "{line}");
        let busy = obj["thread_busy_secs"].trim_matches(['[', ']']);
        let entries: Vec<f64> = busy.split(',').map(|s| s.parse().unwrap()).collect();
        assert_eq!(entries.len(), 4, "{line}");
        assert!(entries.iter().all(|&s| s > 0.0), "{line}");
    }

    #[test]
    fn simulate_stats_json_covers_engine_and_extensions() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let out = simulate_algorithm_budgeted(&g, "PR", None, 5, 1, None).unwrap();
        let line = out.stats_json.expect("simulate emits a stats line");
        let obj = parse_json_object(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
        assert_eq!(obj["ordering"], "null");
        assert_eq!(obj["engine"], "true");
        // simulate fixes pr_iterations at 5
        assert_eq!(obj["iterations"], "5");

        // Extensions run on the engine too: real counters, canonical name.
        let out = simulate_algorithm_budgeted(&g, "wcc", None, 5, 1, None).unwrap();
        let obj = parse_json_object(&out.stats_json.unwrap()).unwrap();
        assert_eq!(obj["algo"], "\"WCC\"");
        assert_eq!(obj["engine"], "true");
        assert_eq!(obj["iterations"], "1", "one component");
        assert_eq!(obj["edges_relaxed"], (2 * g.m()).to_string());
    }

    #[test]
    fn run_trace_round_trips_the_strict_parser() {
        // The acceptance path end-to-end in memory: manifest + the kernel
        // event `run` produces + a registry snapshot, every line through
        // the same strict parser `validate-trace` and CI use.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let out = run_algorithm_budgeted(&g, "BFS", Some("Gorder"), 5, 1, None, 1).unwrap();
        assert_eq!(out.trace_events.len(), 1, "run emits one kernel event");
        let mut sink = gorder_obs::TraceSink::new(Vec::new());
        sink.manifest(&gorder_obs::RunManifest::new("gorder-cli run", "test"))
            .unwrap();
        for e in &out.trace_events {
            sink.event(e).unwrap();
        }
        sink.metrics(&gorder_obs::global().snapshot()).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let summary = gorder_obs::validate_jsonl(&text).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(summary.by_kind["manifest"], 1);
        assert_eq!(summary.by_kind["kernel"], 1);
        // the kernel event's keys mirror the --stats line exactly
        let kernel_line = text.lines().nth(1).unwrap();
        let obj = parse_json_object(kernel_line).unwrap();
        assert_eq!(obj["kind"], "\"kernel\"");
        for key in STATS_KEYS {
            assert!(obj.contains_key(key), "missing {key} in {kernel_line}");
        }
        assert_eq!(obj["engine"], "\"serial\"", "trace uses the label form");
    }

    #[test]
    fn validate_trace_file_accepts_good_and_rejects_bad() {
        let dir = std::env::temp_dir();
        let good = dir.join(format!("gorder-cli-good-{}.jsonl", std::process::id()));
        let mut sink = gorder_obs::TraceSink::create(&good).unwrap();
        sink.manifest(&gorder_obs::RunManifest::new("t", "c"))
            .unwrap();
        drop(sink);
        let summary = validate_trace_file(&good, false).unwrap();
        assert!(summary.contains("valid trace, 1 lines"), "{summary}");
        std::fs::remove_file(&good).ok();

        let bad = dir.join(format!("gorder-cli-bad-{}.jsonl", std::process::id()));
        std::fs::write(&bad, "{\"kind\":\"cell\"}\n").unwrap();
        match validate_trace_file(&bad, false) {
            Err(CliError::Failed(msg)) => {
                assert!(
                    msg.contains("manifest"),
                    "first line must be a manifest: {msg}"
                )
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn validate_trace_file_lenient_tolerates_a_torn_final_line() {
        // The exact artifact a SIGKILL mid-write leaves: a valid
        // manifest, a valid event, then a half-written line with no
        // trailing newline. Strict mode must reject it; --lenient must
        // accept it and say so in the summary.
        let dir = std::env::temp_dir();
        let torn = dir.join(format!("gorder-cli-torn-{}.jsonl", std::process::id()));
        let mut sink = gorder_obs::TraceSink::create(&torn).unwrap();
        sink.manifest(&gorder_obs::RunManifest::new("t", "c"))
            .unwrap();
        sink.event(&gorder_obs::TraceEvent::Phase(gorder_obs::PhaseEvent {
            name: "order".to_string(),
            seconds: 0.5,
        }))
        .unwrap();
        drop(sink);
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&torn)
            .unwrap();
        f.write_all(b"{\"kind\":\"ce").unwrap();
        drop(f);

        match validate_trace_file(&torn, false) {
            Err(CliError::Failed(_)) => {}
            other => panic!("strict mode must reject a torn line, got {other:?}"),
        }
        let summary = validate_trace_file(&torn, true).unwrap();
        assert!(summary.contains("torn final line"), "{summary}");
        assert!(summary.contains("valid trace, 2 lines"), "{summary}");
        std::fs::remove_file(&torn).ok();
    }
}
