//! The three workloads. Each builds its inputs before timing starts,
//! measures for the configured seconds, checks every output, and fills
//! the metric samples: end-to-end ones in the untraced run, per-layer
//! ones in the traced run.

pub mod kernels;
pub mod reorder;
pub mod serve;

use std::time::Instant;

use gorder_core::budget::{Budget, ExecOutcome};
use gorder_engine::ExecPlan;
use gorder_graph::Graph;
use gorder_orders::runner::{run_by_name_plan, OrderStats, OrderingRun};

use crate::checks::Checks;
use crate::metrics::Samples;
use crate::RunConfig;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["reorder-social", "kernels-web", "serve-mixed"];

/// How many times each run repeats its set-up; `setup_s` is the median.
/// `reorder-social` keeps its own, larger count.
pub const SETUP_REPS: usize = 3;

/// What a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric samples, by name.
    pub samples: Samples,
    /// Operation checks.
    pub checks: Checks,
}

/// Runs workload `name`.
pub fn run(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = match name {
        "reorder-social" => reorder::run(cfg)?,
        "kernels-web" => kernels::run(cfg)?,
        "serve-mixed" => serve::run(cfg)?,
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    };
    if cfg.trace {
        let frac = out.checks.failed_frac();
        out.samples.push("failed_frac", frac);
    }
    Ok(out)
}

/// Runs `job(i)` for `i = 0, 1, …` until `seconds` have passed and at
/// least `min_jobs` ran.
pub fn timed_loop(
    seconds: f64,
    min_jobs: usize,
    mut job: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let t = Instant::now();
    let mut i = 0;
    while i < min_jobs || t.elapsed().as_secs_f64() < seconds {
        job(i)?;
        i += 1;
    }
    Ok(())
}

/// Traced runs alternate untraced and traced jobs, so both see the same
/// machine state; `obs.trace_overhead_frac` compares them.
pub fn is_traced_job(cfg: &RunConfig, i: usize) -> bool {
    cfg.trace && i % 2 == 1
}

/// Records `layer.self_ms.<layer>`: mean self time per job under the
/// root spans named `root`, by layer.
pub fn record_self_times(samples: &mut Samples, spans: &crate::spans::Spans, root: &str) {
    for (layer, secs) in spans.self_secs_by_layer(root) {
        samples.push(&format!("layer.self_ms.{layer}"), secs * 1e3);
    }
}

/// Records the `graph` layer's metrics from its spans:
/// `graph.generate_s`, and `graph.relabel_ms.<name>` for each ordering.
pub fn record_graph_layer(samples: &mut Samples, spans: &crate::spans::Spans, orderings: &[&str]) {
    samples.extend("graph.generate_s", &spans.durations("graph.generate"));
    for name in orderings {
        let ms: Vec<f64> = spans
            .durations(&format!("graph.relabel.{name}"))
            .iter()
            .map(|v| v * 1e3)
            .collect();
        samples.extend(&format!("graph.relabel_ms.{name}"), &ms);
    }
}

/// `traced / untraced - 1` of two median job times.
pub fn overhead_frac(traced: &[f64], untraced: &[f64]) -> f64 {
    crate::metrics::summarize(traced).median / crate::metrics::summarize(untraced).median - 1.0
}

/// Writes the recorded spans to the run's span file.
pub fn write_spans(cfg: &RunConfig, spans: &crate::spans::Spans) -> Result<(), String> {
    let path = &cfg.spans_path;
    spans
        .write_jsonl(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Builds ordering `name` on `g` serially through the ordering runner;
/// anything but a completed build is an error.
pub fn build_ordering(name: &str, g: &Graph) -> Result<OrderingRun, String> {
    match run_by_name_plan(name, 0, g, ExecPlan::Serial, &Budget::unlimited()) {
        Some(ExecOutcome::Completed(run)) => Ok(run),
        Some(ExecOutcome::Degraded(_, reason)) => Err(format!("{name} degraded: {reason:?}")),
        Some(ExecOutcome::TimedOut) => Err(format!("{name} timed out without a budget")),
        Some(ExecOutcome::Failed(e)) => Err(format!("{name} failed: {e}")),
        None => Err(format!("unknown ordering {name:?}")),
    }
}

/// Records the per-layer metrics of one ordering build of `g`, which
/// took `secs`: build time, and for Gorder its throughput and exact
/// unit-heap counters.
pub fn record_build(samples: &mut Samples, name: &str, g: &Graph, stats: &OrderStats, secs: f64) {
    samples.push(&format!("orders.build_s.{name}"), secs);
    if name == "Gorder" {
        samples.push("orders.edges_per_s.Gorder", g.m() as f64 / secs);
        let updates = stats.heap_increments + stats.heap_decrements + stats.heap_refreshes;
        samples.push("core.heap_updates", updates as f64);
        samples.push("core.heap_pops", stats.heap_pops as f64);
        samples.push("core.hub_skips", stats.hub_skips as f64);
    }
}
