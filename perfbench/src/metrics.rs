//! Metric names, sample reduction and the result line.
//!
//! Every metric is a list of samples reduced by `bench::stats`: median,
//! quartiles, the highest percentile with at least ten samples beyond
//! it, and the sample count. The untraced run reports [`END_TO_END`],
//! the traced run [`per_layer`]; every workload reports the full list,
//! and a per-layer metric of a layer the workload does not exercise
//! reads 0.

use std::collections::BTreeMap;

use gorder_bench::stats::median_sorted;
use gorder_obs::json::{self, JsonObject};

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("job_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Kernels the kernel workload times, and the labellings it times them on.
pub const KERNELS: [&str; 4] = ["NQ", "BFS", "SP", "PR"];
/// Labellings of the kernel workload, Original first.
pub const LABELS: [&str; 3] = ["Original", "Gorder", "RCM"];
/// Orderings the reorder workload builds.
pub const ORDERINGS: [&str; 3] = ["Gorder", "RCM", "DBG"];
/// Work ops of the serve workload.
pub const OPS: [&str; 3] = ["run", "simulate", "order"];
/// Serve tiers, as replies name them.
pub const TIERS: [&str; 4] = ["cache", "full", "degraded", "original"];
/// Layers a job's self time is split across.
pub const LAYERS: [&str; 5] = ["harness", "graph", "orders", "engine", "serve"];

/// Per-layer metrics: `(name, unit, better)`. Names are built from the
/// constants above so the list and the workloads cannot drift apart.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| v.push((name, unit, better));
    add("graph.generate_s".into(), "s", "lower");
    for o in ORDERINGS {
        add(format!("graph.relabel_ms.{o}"), "ms", "lower");
    }
    for o in ORDERINGS {
        add(format!("orders.build_s.{o}"), "s", "lower");
    }
    add("orders.edges_per_s.Gorder".into(), "edges/s", "higher");
    add("core.heap_updates".into(), "count", "lower");
    add("core.heap_pops".into(), "count", "lower");
    add("core.hub_skips".into(), "count", "higher");
    for (prefix, unit) in [
        ("kernel_ms", "ms"),
        ("engine.init_ms", "ms"),
        ("engine.compute_ms", "ms"),
        ("engine.ns_per_edge", "ns/edge"),
    ] {
        for k in KERNELS {
            for l in LABELS {
                add(format!("{prefix}.{k}.{l}"), unit, "lower");
            }
        }
    }
    for k in KERNELS {
        add(format!("engine.edges_relaxed.{k}"), "count", "lower");
    }
    for k in KERNELS {
        add(format!("derived.speedup.{k}.Gorder"), "x", "higher");
    }
    add("derived.break_even_runs".into(), "runs", "lower");
    add("req_p50_ms".into(), "ms", "lower");
    add("req_tail_ms".into(), "ms", "lower");
    add("req_tail_pct".into(), "%", "higher");
    add("req_per_s".into(), "req/s", "higher");
    for op in OPS {
        add(format!("serve.rtt_ms.{op}"), "ms", "lower");
    }
    for op in OPS {
        add(format!("serve.service_ms.{op}"), "ms", "lower");
    }
    add("serve.service_ms.run.WCC".into(), "ms", "lower");
    for name in ["serve.queue_ms", "serve.transport_ms", "serve.resolve_ms"] {
        add(name.into(), "ms", "lower");
    }
    for name in ["serve.busy", "serve.retries", "serve.errors"] {
        add(name.into(), "count", "lower");
    }
    add("orders.cache.hit_ratio".into(), "ratio", "higher");
    for t in TIERS {
        add(
            format!("serve.tier.{t}"),
            "count",
            if t == "cache" { "higher" } else { "lower" },
        );
    }
    for k in ["NQ", "BFS"] {
        add(format!("cachesim.simulate_ms.{k}"), "ms", "lower");
    }
    for l in LAYERS {
        add(format!("layer.self_ms.{l}"), "ms", "lower");
    }
    add("obs.trace_overhead_frac".into(), "frac", "lower");
    add("failed_frac".into(), "frac", "lower");
    v
}

/// A reduced sample list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile (median of the lower half, Tukey's hinge).
    pub q1: f64,
    /// Third quartile (median of the upper half).
    pub q3: f64,
    /// Highest percentile with at least ten samples beyond it, and its
    /// value; `None` below eleven samples.
    pub tail: Option<(f64, f64)>,
    /// Sample count.
    pub n: usize,
}

/// Reduces `samples` (any order; non-finite samples are dropped).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let tail = (n >= 11).then(|| {
        let i = n - 11;
        (100.0 * (i + 1) as f64 / n as f64, s[i])
    });
    Summary {
        median: median_sorted(&s),
        q1: median_sorted(&s[..n.div_ceil(2)]),
        q3: median_sorted(&s[n / 2..]),
        tail,
        n,
    }
}

/// Collected samples, by metric name.
#[derive(Debug, Default)]
pub struct Samples {
    map: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    /// Appends one sample to `name`.
    pub fn push(&mut self, name: &str, v: f64) {
        self.map.entry(name.to_string()).or_default().push(v);
    }

    /// Appends every sample of `vs` to `name`.
    pub fn extend(&mut self, name: &str, vs: &[f64]) {
        self.map
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(vs);
    }

    /// The samples recorded under `name` (empty when none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.map.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of `name`'s samples; 0 when none were recorded.
    pub fn median(&self, name: &str) -> f64 {
        summarize(self.get(name)).median
    }

    /// Names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }
}

/// One metric as printed: name, unit, direction and its reduction.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Reduction of its samples.
    pub summary: Summary,
}

/// Reduces `samples` into the metric list the run reports: the
/// end-to-end list untraced, the per-layer list traced. A name recorded
/// outside the list is a harness bug.
pub fn report(samples: &Samples, trace: bool) -> Vec<Reported> {
    let list: Vec<(String, &'static str, &'static str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .collect()
    };
    for name in samples.names() {
        assert!(
            list.iter().any(|(n, _, _)| n == name),
            "metric {name:?} is not in the {} list",
            if trace { "per-layer" } else { "end-to-end" }
        );
    }
    list.into_iter()
        .map(|(name, unit, better)| {
            let summary = summarize(samples.get(&name));
            Reported {
                name,
                unit,
                better,
                summary,
            }
        })
        .collect()
}

/// One detail line per metric: median, quartiles, tail and count.
pub fn detail_line(m: &Reported) -> String {
    let s = &m.summary;
    let o = JsonObject::new()
        .str("metric", &m.name)
        .str("unit", m.unit)
        .str("better", m.better)
        .f64("median", s.median)
        .f64("q1", s.q1)
        .f64("q3", s.q3);
    let o = match s.tail {
        Some((pct, v)) => o.f64("tail_pct", pct).f64("tail", v),
        None => o.null("tail_pct").null("tail"),
    };
    o.u64("n", s.n as u64).finish()
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// median with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = JsonObject::new()
                .f64("value", m.summary.median)
                .str("unit", m.unit)
                .finish();
            format!("\"{}\":{v}", json::escape(&m.name))
        })
        .collect();
    let head = JsonObject::new()
        .bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .finish();
    // The writer emits flat objects only; nest the metrics map by
    // reopening its closing brace.
    format!(
        "{},\"metrics\":{{{}}}}}",
        &head[..head.len() - 1],
        entries.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail, None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(s.median, 50.5);
        assert_eq!(s.q1, 25.5);
        assert_eq!(s.q3, 75.5);
        assert_eq!(s.n, 100);
    }

    #[test]
    fn per_layer_names_are_unique_and_bounded() {
        let v = per_layer();
        let mut names: Vec<&str> = v.iter().map(|(n, _, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), v.len());
        assert!(v.len() <= 128);
    }

    #[test]
    fn result_line_parses_and_nests_metrics() {
        let mut s = Samples::default();
        s.extend("job_ms", &[3.0, 1.0, 2.0]);
        s.push("setup_s", 0.5);
        s.push("peak_rss_mb", 10.0);
        let line = result_line(true, 3, 0, &report(&s, false));
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\
             \"job_ms\":{\"value\":2,\"unit\":\"ms\"},\
             \"peak_rss_mb\":{\"value\":10,\"unit\":\"MB\"}}}"
        );
        for m in report(&s, false) {
            let d = json::parse_object(&detail_line(&m)).expect("detail line parses");
            assert_eq!(d["tail"], "null", "three samples have no tail");
        }
    }

    #[test]
    #[should_panic(expected = "not in the end-to-end list")]
    fn unknown_metric_is_a_bug() {
        let mut s = Samples::default();
        s.push("bogus", 1.0);
        report(&s, false);
    }
}
