//! The benchmark regression gate behind `gorder-bench gate`.
//!
//! CI cannot trust raw wall clocks (shared runners, frequency scaling),
//! and it cannot skip performance checking either — the whole paper is a
//! performance claim. The gate therefore has two modes against one
//! committed baseline file (`BENCH_gate.json`, JSONL like every trace):
//!
//! * **sim** — replays a pinned grid (datasets × orderings × kernels)
//!   through the cache simulator and records *exact* counters: per-level
//!   misses, reuse-distance histograms, edges relaxed, unit-heap ops.
//!   The counters are pure functions of (graph, ordering, kernel), so
//!   two runs of the same tree produce **byte-identical** reports and CI
//!   can diff against the committed baseline with zero noise tolerance.
//! * **wall** — measures paired, interleaved A/B samples (A = Original
//!   layout, B = the ordering under test) and reduces them with
//!   [`crate::stats`] into a median speedup with a sign-test p-value and
//!   a bootstrap CI, so a regression verdict means "statistically slower
//!   by more than the threshold", not "one noisy sample moved".
//!
//! The report serialises with the obs trace machinery (schema-versioned
//! manifest first, fixed key order per record kind), parses back with
//! the same strict line/byte-offset errors as `validate-trace`, and
//! [`compare`] renders any drift as a delta table naming the offending
//! (dataset, ordering, algo, metric) cells.

use crate::fmt::Table;
use crate::schema::GATE_DELTA_HEADER;
use crate::stats::paired_stats;
use crate::timing::time_once;
use gorder_cachesim::trace::{replay_with_stats, TraceCtx};
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, Tracer};
use gorder_core::budget::Budget;
use gorder_engine::{ExecPlan, KernelCtx, KernelStats};
use gorder_graph::datasets;
use gorder_obs::json::{parse_object, parse_string};
use gorder_obs::{GateEvent, OrderEvent, RunManifest, TraceEvent, SCHEMA_VERSION};
use gorder_orders::{run_ordering, CacheKey, OrderingAlgorithm};
use std::collections::BTreeMap;

/// PageRank iterations for sim-mode replays (replays cost ~40× native,
/// and the counters only need a stable, representative access stream).
const SIM_PR_ITERATIONS: u32 = 4;
/// Diameter BFS sources for sim-mode replays.
const SIM_DIAMETER_SAMPLES: u32 = 2;
/// PageRank iterations for wall-mode runs (long enough to time, short
/// enough for CI).
const WALL_PR_ITERATIONS: u32 = 10;
/// Diameter BFS sources for wall-mode runs.
const WALL_DIAMETER_SAMPLES: u32 = 4;

/// Which measurement the gate runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Deterministic cache-simulator counters (CI-exact).
    Sim,
    /// Paired interleaved wall-clock samples (statistical verdicts).
    Wall,
}

impl GateMode {
    /// The mode string carried by every gate record.
    pub fn label(self) -> &'static str {
        match self {
            GateMode::Sim => "sim",
            GateMode::Wall => "wall",
        }
    }

    /// Parses a `--mode` value.
    pub fn parse(s: &str) -> Option<GateMode> {
        match s {
            "sim" => Some(GateMode::Sim),
            "wall" => Some(GateMode::Wall),
            _ => None,
        }
    }
}

/// Everything that shapes one gate run. [`GateConfig::pinned`] is the
/// grid CI runs; every field except `gorder_window` enters the config
/// hash, so a baseline can only be compared against a run of the same
/// experiment.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Measurement mode.
    pub mode: GateMode,
    /// Dataset size multiplier.
    pub scale: f64,
    /// Seed for randomised orderings and source sampling.
    pub seed: u64,
    /// Dataset names (resolved via [`datasets::by_name`]).
    pub datasets: Vec<String>,
    /// Ordering names (resolved via the extended registry). Wall mode
    /// requires `"Original"` among them — it is the A side of every pair.
    pub orderings: Vec<String>,
    /// Kernel names, resolved case-insensitively through the engine's
    /// name tables (the same set in both modes).
    pub algos: Vec<String>,
    /// Wall mode: interleaved A/B sample pairs kept per cell.
    pub pairs: u32,
    /// Wall mode: leading pairs discarded as warmup.
    pub warmup: u32,
    /// Test hook: overrides Gorder's window size. Deliberately **not**
    /// part of the config hash — the injected-regression self-test must
    /// reach the comparison (and fail it with a delta table), not bounce
    /// off a hash mismatch at the door.
    pub gorder_window: Option<u32>,
}

impl GateConfig {
    /// The pinned CI grid: two generated graphs × three orderings ×
    /// three kernels, small enough to replay in seconds.
    pub fn pinned(mode: GateMode) -> GateConfig {
        GateConfig {
            mode,
            scale: 0.05,
            seed: 42,
            datasets: vec!["epinion".into(), "flickr".into()],
            orderings: vec!["Original".into(), "RCM".into(), "Gorder".into()],
            algos: vec!["NQ".into(), "BFS".into(), "PR".into()],
            pairs: 8,
            warmup: 2,
            gorder_window: None,
        }
    }

    /// The canonical config string folded into the manifest hash. Wall
    /// knobs are zeroed in sim mode (they cannot affect sim output, so
    /// they must not split sim baselines).
    pub fn config_string(&self) -> String {
        let (pairs, warmup) = match self.mode {
            GateMode::Sim => (0, 0),
            GateMode::Wall => (self.pairs, self.warmup),
        };
        format!(
            "tool=gate,mode={},scale={},seed={},datasets={},orderings={},algos={},\
             pairs={pairs},warmup={warmup}",
            self.mode.label(),
            self.scale,
            self.seed,
            self.datasets.join("+"),
            self.orderings.join("+"),
            self.algos.join("+"),
        )
    }

    /// The report's manifest line. `started_unix_secs` is pinned to 0:
    /// the baseline is content-addressed, and a timestamp is exactly the
    /// kind of byte that would break double-run identity.
    pub fn manifest(&self) -> RunManifest {
        let mut m = RunManifest::new("gate", &self.config_string());
        m.threads = 1;
        m.window = self.gorder_window.map(u64::from);
        m.started_unix_secs = 0;
        m
    }

    fn ordering_named(&self, name: &str) -> Result<Box<dyn OrderingAlgorithm>, String> {
        if name == "Gorder" {
            if let Some(w) = self.gorder_window {
                return Ok(Box::new(
                    gorder_orders::gorder_impl::GorderOrdering::with_window(w),
                ));
            }
        }
        gorder_orders::by_name_extended(name, self.seed)
            .ok_or_else(|| format!("unknown ordering {name:?}"))
    }
}

/// One gate run, ready to serialise: the manifest, one `gate` record per
/// grid cell, one `order` record per (dataset, ordering).
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Provenance + config hash (`started_unix_secs` pinned to 0).
    pub manifest: RunManifest,
    /// Grid cells in generation order (dataset-major, then ordering).
    pub cells: Vec<GateEvent>,
    /// Ordering constructions, with `seconds` pinned to 0.0 so sim
    /// reports stay byte-reproducible.
    pub orders: Vec<OrderEvent>,
}

/// Runs the configured grid. Unknown dataset/ordering/algo names fail
/// up-front, before any graph is built.
pub fn run_gate(cfg: &GateConfig) -> Result<GateReport, String> {
    for name in &cfg.datasets {
        if datasets::by_name(name).is_none() {
            return Err(format!("unknown dataset {name:?}"));
        }
    }
    for name in &cfg.orderings {
        cfg.ordering_named(name)?;
    }
    let algos = cfg
        .algos
        .iter()
        .map(|name| crate::resolve_algo(name))
        .collect::<Result<Vec<_>, _>>()?;
    if cfg.mode == GateMode::Wall && !cfg.orderings.iter().any(|o| o == "Original") {
        return Err("wall mode needs \"Original\" among --orderings (it is the A side)".into());
    }

    let mut cells = Vec::new();
    let mut orders = Vec::new();
    for dname in &cfg.datasets {
        let g = datasets::by_name(dname).unwrap().build(cfg.scale);
        let logical_source = g.max_degree_node().unwrap_or(0);
        let mut layouts = Vec::new();
        for oname in &cfg.orderings {
            let o = cfg.ordering_named(oname)?;
            let key = CacheKey::for_ordering(&g, o.as_ref(), cfg.seed);
            let run = run_ordering(
                o.as_ref(),
                &g,
                gorder_orders::ExecPlan::Serial,
                &Budget::unlimited(),
            )
            .value()
            .ok_or_else(|| format!("ordering {oname:?} failed under an unlimited budget"))?;
            orders.push(OrderEvent {
                dataset: Some(dname.clone()),
                name: oname.clone(),
                params: o.params(),
                seed: cfg.seed,
                graph_digest: key.graph_digest,
                identity: key.identity(),
                status: "completed".into(),
                // Pinned: construction time is wall noise, and the order
                // record is here for its deterministic counters.
                seconds: 0.0,
                nodes_placed: run.stats.nodes_placed,
                heap_increments: run.stats.heap_increments,
                heap_decrements: run.stats.heap_decrements,
                heap_pops: run.stats.heap_pops,
                threads_used: 1,
                cache_hit: false,
            });
            layouts.push((oname.clone(), run.perm));
        }
        match cfg.mode {
            GateMode::Sim => {
                sim_cells(cfg, &algos, dname, &g, logical_source, &layouts, &mut cells)
            }
            GateMode::Wall => {
                wall_cells(cfg, &algos, dname, &g, logical_source, &layouts, &mut cells)
            }
        }
    }
    Ok(GateReport {
        manifest: cfg.manifest(),
        cells,
        orders,
    })
}

fn sim_cells(
    cfg: &GateConfig,
    algos: &[&'static str],
    dname: &str,
    g: &gorder_graph::Graph,
    logical_source: u32,
    layouts: &[(String, gorder_graph::Permutation)],
    cells: &mut Vec<GateEvent>,
) {
    let hconfig = HierarchyConfig::scaled_down();
    for (oname, perm) in layouts {
        let rg = g.relabel(perm);
        let tctx = TraceCtx {
            source: Some(perm.apply(logical_source)),
            pr_iterations: SIM_PR_ITERATIONS,
            damping: 0.85,
            diameter_samples: SIM_DIAMETER_SAMPLES,
            seed: cfg.seed,
        };
        for &algo in algos {
            let mut tracer = Tracer::new(CacheHierarchy::new(&hconfig));
            tracer.enable_reuse_tracking();
            let (checksum, kstats) =
                replay_with_stats(algo, &rg, &mut tracer, &tctx).expect("algo names resolved");
            let c = tracer.counters();
            cells.push(GateEvent {
                mode: "sim".into(),
                dataset: dname.to_string(),
                ordering: oname.clone(),
                algo: algo.to_string(),
                checksum,
                iterations: kstats.iterations,
                edges_relaxed: kstats.edges_relaxed,
                refs: c.refs,
                level_misses: c.level_misses,
                mem_accesses: c.memory_accesses,
                ops: c.ops,
                reuse_total: c.reuse_total,
                reuse_sum: c.reuse_sum,
                reuse_counts: c.reuse_counts,
                pairs: 0,
                speedup: 0.0,
                sign_p: 0.0,
                ci_lo: 0.0,
                ci_hi: 0.0,
            });
        }
    }
}

fn wall_cells(
    cfg: &GateConfig,
    algos: &[&'static str],
    dname: &str,
    g: &gorder_graph::Graph,
    logical_source: u32,
    layouts: &[(String, gorder_graph::Permutation)],
    cells: &mut Vec<GateEvent>,
) {
    let (_, operm) = layouts
        .iter()
        .find(|(n, _)| n == "Original")
        .expect("wall mode validated Original is present");
    let og = g.relabel(operm);
    let plan = ExecPlan::with_threads(1);
    let base_ctx = KernelCtx {
        source: None,
        pr_iterations: WALL_PR_ITERATIONS,
        damping: 0.85,
        diameter_samples: WALL_DIAMETER_SAMPLES,
        seed: cfg.seed,
    };
    let actx = KernelCtx {
        source: Some(operm.apply(logical_source)),
        ..base_ctx.clone()
    };
    for (oname, perm) in layouts.iter().filter(|(n, _)| n != "Original") {
        let rg = g.relabel(perm);
        let bctx = KernelCtx {
            source: Some(perm.apply(logical_source)),
            ..base_ctx.clone()
        };
        for &algo in algos {
            let run = |g, ctx| crate::experiment::run_kernel(algo, g, ctx, plan);
            let mut t_orig = Vec::new();
            let mut t_ord = Vec::new();
            let mut checksum = 0u64;
            let mut kstats = KernelStats::default();
            for i in 0..cfg.warmup + cfg.pairs {
                // Interleaved A then B: slow drift (thermal, neighbours)
                // lands on both sides of every pair.
                let (sa, _) = time_once(|| run(&og, &actx));
                let (sb, (cb, sb_stats)) = time_once(|| run(&rg, &bctx));
                checksum = cb;
                kstats = sb_stats;
                if i >= cfg.warmup {
                    t_orig.push(sa);
                    t_ord.push(sb);
                }
            }
            // paired_stats(a, b) medians ln(b/a): with a = ordering
            // times and b = Original times that is ln(speedup).
            let st = paired_stats(&t_ord, &t_orig);
            cells.push(GateEvent {
                mode: "wall".into(),
                dataset: dname.to_string(),
                ordering: oname.clone(),
                algo: algo.to_string(),
                checksum,
                iterations: kstats.iterations,
                edges_relaxed: kstats.edges_relaxed,
                refs: 0,
                level_misses: Vec::new(),
                mem_accesses: 0,
                ops: 0,
                reuse_total: 0,
                reuse_sum: 0.0,
                reuse_counts: Vec::new(),
                pairs: st.pairs,
                speedup: st.median_log_ratio.exp(),
                sign_p: st.sign_p,
                ci_lo: st.ci_lo.exp(),
                ci_hi: st.ci_hi.exp(),
            });
        }
    }
}

/// Serialises a report to `BENCH_gate.json` content: manifest line, then
/// `gate` lines, then `order` lines, every line newline-terminated.
pub fn render_report(r: &GateReport) -> String {
    let mut out = String::new();
    out.push_str(&r.manifest.to_json_line());
    out.push('\n');
    for c in &r.cells {
        out.push_str(&TraceEvent::Gate(c.clone()).to_json_line());
        out.push('\n');
    }
    for o in &r.orders {
        out.push_str(&TraceEvent::Order(o.clone()).to_json_line());
        out.push('\n');
    }
    out
}

/// Parses `BENCH_gate.json` content back into a [`GateReport`],
/// losslessly ([`render_report`] of the result reproduces the input
/// byte-for-byte). Errors carry the validate-trace conventions: `line
/// {n} (byte offset {offset}): {what}`. A final line without its
/// newline is rejected as truncated — baseline lines are flushed
/// newline-last, so a complete file always ends with one.
pub fn parse_report(text: &str) -> Result<GateReport, String> {
    let mut manifest: Option<RunManifest> = None;
    let mut cells = Vec::new();
    let mut orders = Vec::new();
    let mut offset = 0usize;
    for (idx, raw) in text.split_inclusive('\n').enumerate() {
        let n = idx + 1;
        let at = |e: String| format!("line {n} (byte offset {offset}): {e}");
        let Some(line) = raw.strip_suffix('\n') else {
            return Err(at("truncated line (missing trailing newline)".into()));
        };
        let obj = parse_object(line).map_err(&at)?;
        let kind = get_str(&obj, "kind").map_err(&at)?;
        if idx == 0 {
            if kind != "manifest" {
                return Err(at(format!("first line must be a manifest, got {kind:?}")));
            }
            let ver = get_u64(&obj, "schema_version").map_err(&at)?;
            if ver != SCHEMA_VERSION {
                return Err(at(format!(
                    "schema_version {ver} != supported {SCHEMA_VERSION} — \
                     regenerate the baseline with --update"
                )));
            }
            manifest = Some(parse_manifest(&obj).map_err(&at)?);
        } else {
            match kind.as_str() {
                "gate" => cells.push(parse_gate(&obj).map_err(&at)?),
                "order" => orders.push(parse_order(&obj).map_err(&at)?),
                other => {
                    return Err(at(format!(
                        "unexpected record kind {other:?} in a gate file"
                    )))
                }
            }
        }
        offset += raw.len();
    }
    let manifest = manifest.ok_or("empty gate file: expected at least a manifest line")?;
    Ok(GateReport {
        manifest,
        cells,
        orders,
    })
}

fn req<'a>(obj: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing {key:?}"))
}

fn get_str(obj: &BTreeMap<String, String>, key: &str) -> Result<String, String> {
    parse_string(req(obj, key)?).map_err(|e| format!("{key}: {e}"))
}

fn get_opt_str(obj: &BTreeMap<String, String>, key: &str) -> Result<Option<String>, String> {
    let raw = req(obj, key)?;
    if raw == "null" {
        return Ok(None);
    }
    parse_string(raw)
        .map(Some)
        .map_err(|e| format!("{key}: {e}"))
}

fn get_u64(obj: &BTreeMap<String, String>, key: &str) -> Result<u64, String> {
    let raw = req(obj, key)?;
    raw.parse()
        .map_err(|_| format!("{key}: not an unsigned integer: {raw}"))
}

fn get_opt_u64(obj: &BTreeMap<String, String>, key: &str) -> Result<Option<u64>, String> {
    let raw = req(obj, key)?;
    if raw == "null" {
        return Ok(None);
    }
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{key}: not an unsigned integer: {raw}"))
}

fn get_f64(obj: &BTreeMap<String, String>, key: &str) -> Result<f64, String> {
    let raw = req(obj, key)?;
    raw.parse()
        .map_err(|_| format!("{key}: not a finite number: {raw}"))
}

fn get_bool(obj: &BTreeMap<String, String>, key: &str) -> Result<bool, String> {
    match req(obj, key)? {
        "true" => Ok(true),
        "false" => Ok(false),
        raw => Err(format!("{key}: not a boolean: {raw}")),
    }
}

fn get_u64_array(obj: &BTreeMap<String, String>, key: &str) -> Result<Vec<u64>, String> {
    let raw = req(obj, key)?;
    let inner = raw
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| format!("{key}: not an array: {raw}"))?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{key}: not an unsigned integer: {v}"))
        })
        .collect()
}

fn parse_manifest(obj: &BTreeMap<String, String>) -> Result<RunManifest, String> {
    Ok(RunManifest {
        tool: get_str(obj, "tool")?,
        dataset: get_opt_str(obj, "dataset")?,
        ordering: get_opt_str(obj, "ordering")?,
        algo: get_opt_str(obj, "algo")?,
        threads: get_u64(obj, "threads")?,
        window: get_opt_u64(obj, "window")?,
        config_hash: get_u64(obj, "config_hash")?,
        started_unix_secs: get_u64(obj, "started_unix_secs")?,
    })
}

fn parse_gate(obj: &BTreeMap<String, String>) -> Result<GateEvent, String> {
    Ok(GateEvent {
        mode: get_str(obj, "mode")?,
        dataset: get_str(obj, "dataset")?,
        ordering: get_str(obj, "ordering")?,
        algo: get_str(obj, "algo")?,
        checksum: get_u64(obj, "checksum")?,
        iterations: get_u64(obj, "iterations")?,
        edges_relaxed: get_u64(obj, "edges_relaxed")?,
        refs: get_u64(obj, "refs")?,
        level_misses: get_u64_array(obj, "level_misses")?,
        mem_accesses: get_u64(obj, "mem_accesses")?,
        ops: get_u64(obj, "ops")?,
        reuse_total: get_u64(obj, "reuse_total")?,
        reuse_sum: get_f64(obj, "reuse_sum")?,
        reuse_counts: get_u64_array(obj, "reuse_counts")?,
        pairs: get_u64(obj, "pairs")?,
        speedup: get_f64(obj, "speedup")?,
        sign_p: get_f64(obj, "sign_p")?,
        ci_lo: get_f64(obj, "ci_lo")?,
        ci_hi: get_f64(obj, "ci_hi")?,
    })
}

fn parse_order(obj: &BTreeMap<String, String>) -> Result<OrderEvent, String> {
    Ok(OrderEvent {
        dataset: get_opt_str(obj, "dataset")?,
        name: get_str(obj, "name")?,
        params: get_str(obj, "params")?,
        seed: get_u64(obj, "seed")?,
        graph_digest: get_u64(obj, "graph_digest")?,
        identity: get_str(obj, "identity")?,
        status: get_str(obj, "status")?,
        seconds: get_f64(obj, "seconds")?,
        nodes_placed: get_u64(obj, "nodes_placed")?,
        heap_increments: get_u64(obj, "heap_increments")?,
        heap_decrements: get_u64(obj, "heap_decrements")?,
        heap_pops: get_u64(obj, "heap_pops")?,
        threads_used: get_u64(obj, "threads_used")?,
        cache_hit: get_bool(obj, "cache_hit")?,
    })
}

/// One baseline-vs-current discrepancy, addressable down to the metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GateDelta {
    /// Dataset of the offending cell.
    pub dataset: String,
    /// Ordering of the offending cell.
    pub ordering: String,
    /// Algorithm of the offending cell (`"-"` for order records).
    pub algo: String,
    /// Which metric drifted (e.g. `"level_misses[2]"`, `"speedup"`).
    pub metric: String,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Current value, rendered.
    pub current: String,
}

/// The outcome of [`compare`]: empty deltas = gate passed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateComparison {
    /// Every discrepancy found, in baseline order.
    pub deltas: Vec<GateDelta>,
}

impl GateComparison {
    /// True when current matched the baseline everywhere.
    pub fn passed(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The human-readable delta table CI prints on failure.
    pub fn render_table(&self) -> String {
        let mut t = Table::new(GATE_DELTA_HEADER.iter().copied());
        for d in &self.deltas {
            t.row([
                d.dataset.as_str(),
                d.ordering.as_str(),
                d.algo.as_str(),
                d.metric.as_str(),
                d.baseline.as_str(),
                d.current.as_str(),
            ]);
        }
        t.render()
    }
}

/// `|cur - base| <= base · tol%` — with zero tolerance, exact equality.
fn within_u64(base: u64, cur: u64, tol_pct: f64) -> bool {
    if tol_pct <= 0.0 {
        return base == cur;
    }
    (cur as f64 - base as f64).abs() <= base as f64 * tol_pct / 100.0
}

fn within_f64(base: f64, cur: f64, tol_pct: f64) -> bool {
    if tol_pct <= 0.0 {
        return base == cur;
    }
    (cur - base).abs() <= base.abs() * tol_pct / 100.0
}

/// Compares a current report against the committed baseline.
///
/// Sim cells: the checksum must match exactly (a checksum drift means
/// the kernel computed something else — no tolerance makes that ok), and
/// every counter must match within `tolerance_pct` (CI uses 0 = exact).
/// Wall cells: a regression is declared when the current CI upper bound
/// on the speedup falls below the baseline speedup shrunk by
/// `threshold_pct` — i.e. the whole confidence interval says
/// "statistically slower by more than X%". Order records compare their
/// deterministic counters like sim cells. Missing and unexpected cells
/// are discrepancies in both modes.
pub fn compare(
    base: &GateReport,
    cur: &GateReport,
    tolerance_pct: f64,
    threshold_pct: f64,
) -> GateComparison {
    let mut out = GateComparison::default();
    let cur_cells: BTreeMap<_, _> = cur
        .cells
        .iter()
        .map(|c| ((&c.dataset, &c.ordering, &c.algo), c))
        .collect();
    for b in &base.cells {
        let Some(c) = cur_cells.get(&(&b.dataset, &b.ordering, &b.algo)) else {
            out.deltas.push(delta(b, "cell", "present", "missing"));
            continue;
        };
        compare_cell(b, c, tolerance_pct, threshold_pct, &mut out.deltas);
    }
    let base_keys: std::collections::BTreeSet<_> = base
        .cells
        .iter()
        .map(|c| (&c.dataset, &c.ordering, &c.algo))
        .collect();
    for c in &cur.cells {
        if !base_keys.contains(&(&c.dataset, &c.ordering, &c.algo)) {
            out.deltas.push(delta(c, "cell", "missing", "present"));
        }
    }

    let cur_orders: BTreeMap<_, _> = cur
        .orders
        .iter()
        .map(|o| ((&o.dataset, &o.name), o))
        .collect();
    for b in &base.orders {
        let Some(c) = cur_orders.get(&(&b.dataset, &b.name)) else {
            out.deltas
                .push(order_delta(b, "order", "present", "missing"));
            continue;
        };
        compare_order(b, c, tolerance_pct, &mut out.deltas);
    }
    let base_order_keys: std::collections::BTreeSet<_> =
        base.orders.iter().map(|o| (&o.dataset, &o.name)).collect();
    for c in &cur.orders {
        if !base_order_keys.contains(&(&c.dataset, &c.name)) {
            out.deltas
                .push(order_delta(c, "order", "missing", "present"));
        }
    }
    out
}

fn delta(
    c: &GateEvent,
    metric: &str,
    baseline: impl ToString,
    current: impl ToString,
) -> GateDelta {
    GateDelta {
        dataset: c.dataset.clone(),
        ordering: c.ordering.clone(),
        algo: c.algo.clone(),
        metric: metric.to_string(),
        baseline: baseline.to_string(),
        current: current.to_string(),
    }
}

fn order_delta(
    o: &OrderEvent,
    metric: &str,
    baseline: impl ToString,
    current: impl ToString,
) -> GateDelta {
    GateDelta {
        dataset: o.dataset.clone().unwrap_or_else(|| "-".into()),
        ordering: o.name.clone(),
        algo: "-".into(),
        metric: metric.to_string(),
        baseline: baseline.to_string(),
        current: current.to_string(),
    }
}

fn compare_cell(
    b: &GateEvent,
    c: &GateEvent,
    tolerance_pct: f64,
    threshold_pct: f64,
    deltas: &mut Vec<GateDelta>,
) {
    if b.mode != c.mode {
        deltas.push(delta(b, "mode", &b.mode, &c.mode));
        return;
    }
    if b.checksum != c.checksum {
        deltas.push(delta(b, "checksum", b.checksum, c.checksum));
    }
    if b.mode == "sim" {
        let scalars = [
            ("iterations", b.iterations, c.iterations),
            ("edges_relaxed", b.edges_relaxed, c.edges_relaxed),
            ("refs", b.refs, c.refs),
            ("mem_accesses", b.mem_accesses, c.mem_accesses),
            ("ops", b.ops, c.ops),
            ("reuse_total", b.reuse_total, c.reuse_total),
        ];
        for (name, bv, cv) in scalars {
            if !within_u64(bv, cv, tolerance_pct) {
                deltas.push(delta(b, name, bv, cv));
            }
        }
        if !within_f64(b.reuse_sum, c.reuse_sum, tolerance_pct) {
            deltas.push(delta(b, "reuse_sum", b.reuse_sum, c.reuse_sum));
        }
        for (name, bv, cv) in [
            ("level_misses", &b.level_misses, &c.level_misses),
            ("reuse_counts", &b.reuse_counts, &c.reuse_counts),
        ] {
            if bv.len() != cv.len() {
                deltas.push(delta(b, &format!("{name}.len"), bv.len(), cv.len()));
                continue;
            }
            for (i, (x, y)) in bv.iter().zip(cv).enumerate() {
                if !within_u64(*x, *y, tolerance_pct) {
                    deltas.push(delta(b, &format!("{name}[{i}]"), x, y));
                }
            }
        }
    } else {
        // Wall: regression = the current interval's most optimistic end
        // is still slower than the baseline speedup minus the threshold.
        let floor = b.speedup / (1.0 + threshold_pct.max(0.0) / 100.0);
        if c.ci_hi < floor {
            deltas.push(delta(
                b,
                "speedup",
                format!("{:.4}", b.speedup),
                format!(
                    "{:.4} (ci {:.4}..{:.4}, p={:.4})",
                    c.speedup, c.ci_lo, c.ci_hi, c.sign_p
                ),
            ));
        }
    }
}

fn compare_order(b: &OrderEvent, c: &OrderEvent, tolerance_pct: f64, deltas: &mut Vec<GateDelta>) {
    if b.identity != c.identity {
        deltas.push(order_delta(b, "identity", &b.identity, &c.identity));
    }
    let scalars = [
        ("nodes_placed", b.nodes_placed, c.nodes_placed),
        ("heap_increments", b.heap_increments, c.heap_increments),
        ("heap_decrements", b.heap_decrements, c.heap_decrements),
        ("heap_pops", b.heap_pops, c.heap_pops),
    ];
    for (name, bv, cv) in scalars {
        if !within_u64(bv, cv, tolerance_pct) {
            deltas.push(order_delta(b, name, bv, cv));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-dataset, two-ordering, one-kernel sim grid that runs in
    /// well under a second.
    fn tiny(mode: GateMode) -> GateConfig {
        GateConfig {
            mode,
            scale: 0.02,
            seed: 7,
            datasets: vec!["epinion".into()],
            orderings: vec!["Original".into(), "Gorder".into()],
            algos: vec!["NQ".into()],
            pairs: 3,
            warmup: 1,
            gorder_window: None,
        }
    }

    #[test]
    fn config_hash_ignores_the_window_hook() {
        let base = tiny(GateMode::Sim);
        let hooked = GateConfig {
            gorder_window: Some(1),
            ..base.clone()
        };
        assert_eq!(
            base.manifest().config_hash,
            hooked.manifest().config_hash,
            "the injected-regression hook must reach the comparison, not die on hash mismatch"
        );
        assert_eq!(base.manifest().started_unix_secs, 0);
        // ...but the wall knobs do hash in wall mode
        let wall = tiny(GateMode::Wall);
        let more_pairs = GateConfig {
            pairs: 9,
            ..wall.clone()
        };
        assert_ne!(
            wall.manifest().config_hash,
            more_pairs.manifest().config_hash
        );
        // ...and not in sim mode, where they are inert
        let sim_more_pairs = GateConfig {
            pairs: 9,
            ..base.clone()
        };
        assert_eq!(
            base.manifest().config_hash,
            sim_more_pairs.manifest().config_hash
        );
    }

    #[test]
    fn sim_run_is_deterministic_and_roundtrips() {
        let cfg = tiny(GateMode::Sim);
        let r1 = run_gate(&cfg).unwrap();
        let r2 = run_gate(&cfg).unwrap();
        let text = render_report(&r1);
        assert_eq!(
            text,
            render_report(&r2),
            "sim reports must be byte-identical"
        );
        assert_eq!(r1.cells.len(), 2);
        assert_eq!(r1.orders.len(), 2);
        assert!(r1
            .cells
            .iter()
            .all(|c| c.refs > 0 && !c.level_misses.is_empty()));
        // lossless round trip
        let parsed = parse_report(&text).unwrap();
        assert_eq!(parsed, r1);
        assert_eq!(render_report(&parsed), text);
        // a report compares clean against itself, exactly
        assert!(compare(&r1, &parsed, 0.0, 5.0).passed());
    }

    #[test]
    fn injected_window_regression_is_caught_and_named() {
        let cfg = tiny(GateMode::Sim);
        let base = run_gate(&cfg).unwrap();
        let hooked = GateConfig {
            gorder_window: Some(1),
            ..cfg
        };
        let cur = run_gate(&hooked).unwrap();
        let cmp = compare(&base, &cur, 0.0, 5.0);
        assert!(!cmp.passed(), "w=1 must shift the simulated counters");
        assert!(
            cmp.deltas.iter().all(|d| d.ordering == "Gorder"),
            "only Gorder cells may drift: {:?}",
            cmp.deltas
        );
        let table = cmp.render_table();
        assert!(table.contains("Gorder") && table.contains("epinion"));
    }

    #[test]
    fn tolerance_absorbs_small_counter_drift() {
        let cfg = tiny(GateMode::Sim);
        let base = run_gate(&cfg).unwrap();
        let mut cur = base.clone();
        cur.cells[0].refs += 1;
        assert!(!compare(&base, &cur, 0.0, 5.0).passed());
        assert!(compare(&base, &cur, 1.0, 5.0).passed());
        // checksum drift is never tolerated
        cur.cells[0].checksum ^= 1;
        assert!(!compare(&base, &cur, 50.0, 5.0).passed());
    }

    #[test]
    fn missing_and_extra_cells_are_discrepancies() {
        let cfg = tiny(GateMode::Sim);
        let base = run_gate(&cfg).unwrap();
        let mut cur = base.clone();
        let moved = cur.cells.remove(0);
        let cmp = compare(&base, &cur, 0.0, 5.0);
        assert_eq!(cmp.deltas.len(), 1);
        assert_eq!(cmp.deltas[0].metric, "cell");
        assert_eq!(cmp.deltas[0].current, "missing");
        cur.cells.push(GateEvent {
            algo: "PR".into(),
            ..moved
        });
        let cmp = compare(&base, &cur, 0.0, 5.0);
        assert!(cmp.deltas.iter().any(|d| d.current == "present"));
    }

    #[test]
    fn parse_errors_name_line_and_byte_offset() {
        let cfg = tiny(GateMode::Sim);
        let text = render_report(&run_gate(&cfg).unwrap());
        // truncation: drop the final newline
        let err = parse_report(text.trim_end()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // corruption mid-file: garbage where line 2 starts
        let manifest_len = text.find('\n').unwrap() + 1;
        let corrupt = format!("{}not json\n", &text[..manifest_len]);
        let err = parse_report(&corrupt).unwrap_err();
        assert!(
            err.starts_with(&format!("line 2 (byte offset {manifest_len}):")),
            "{err}"
        );
        // foreign record kinds are rejected
        let foreign = format!("{}{{\"kind\":\"cell\",\"x\":1}}\n", &text[..manifest_len]);
        assert!(parse_report(&foreign)
            .unwrap_err()
            .contains("unexpected record kind"));
        // stale schema version names the fix
        let stale = text.replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            "\"schema_version\":1",
            1,
        );
        assert!(parse_report(&stale).unwrap_err().contains("--update"));
        // empty file
        assert!(parse_report("").unwrap_err().contains("empty gate file"));
    }

    #[test]
    fn wall_comparison_uses_the_interval_not_the_point() {
        let cfg = tiny(GateMode::Wall);
        let mk = |speedup: f64, ci_lo: f64, ci_hi: f64| GateReport {
            manifest: cfg.manifest(),
            cells: vec![GateEvent {
                mode: "wall".into(),
                dataset: "epinion".into(),
                ordering: "Gorder".into(),
                algo: "NQ".into(),
                checksum: 1,
                iterations: 1,
                edges_relaxed: 1,
                refs: 0,
                level_misses: Vec::new(),
                mem_accesses: 0,
                ops: 0,
                reuse_total: 0,
                reuse_sum: 0.0,
                reuse_counts: Vec::new(),
                pairs: 8,
                speedup,
                sign_p: 0.01,
                ci_lo,
                ci_hi,
            }],
            orders: Vec::new(),
        };
        let base = mk(1.30, 1.25, 1.35);
        // point estimate dropped, but the interval still reaches the
        // floor: not a regression
        let noisy = mk(1.20, 1.10, 1.30);
        assert!(compare(&base, &noisy, 0.0, 5.0).passed());
        // the whole interval is below baseline/1.05: regression
        let slow = mk(1.10, 1.05, 1.15);
        let cmp = compare(&base, &slow, 0.0, 5.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.deltas[0].metric, "speedup");
        // a bigger threshold forgives it
        assert!(compare(&base, &slow, 0.0, 25.0).passed());
    }

    #[test]
    fn wall_mode_requires_original() {
        let mut cfg = tiny(GateMode::Wall);
        cfg.orderings = vec!["Gorder".into()];
        assert!(run_gate(&cfg).unwrap_err().contains("Original"));
    }

    #[test]
    fn unknown_names_fail_fast() {
        let mut cfg = tiny(GateMode::Sim);
        cfg.datasets = vec!["nope".into()];
        assert!(run_gate(&cfg).unwrap_err().contains("unknown dataset"));
        let mut cfg = tiny(GateMode::Sim);
        cfg.orderings = vec!["nope".into()];
        assert!(run_gate(&cfg).unwrap_err().contains("unknown ordering"));
        for mode in [GateMode::Sim, GateMode::Wall] {
            let mut cfg = tiny(mode);
            cfg.algos = vec!["WCC+".into()];
            let err = run_gate(&cfg).unwrap_err();
            assert!(err.contains("unknown algorithm"), "{err}");
            assert!(err.contains("did you mean \"WCC\""), "{err}");
        }
    }

    #[test]
    fn sim_and_wall_accept_the_same_names() {
        for mode in [GateMode::Sim, GateMode::Wall] {
            let mut cfg = tiny(mode);
            cfg.algos = vec!["wcc".into(), "Tri".into()];
            cfg.pairs = 1;
            let report = run_gate(&cfg).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            let algos: Vec<&str> = report.cells.iter().map(|c| c.algo.as_str()).collect();
            assert_eq!(&algos[..2], ["WCC", "Tri"], "{mode:?}: canonical labels");
        }
    }
}
