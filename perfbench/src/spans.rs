//! In-memory spans recorded around each call into a layer.
//!
//! A span carries a name, start, end, parent and run id. Spans are kept
//! in memory while the workload runs and written once, at the end. A
//! disabled recorder (the untraced run) records nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use gorder_obs::json::JsonObject;

/// One recorded span; times are seconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>[.<detail>]`, e.g. `orders.build.Gorder`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The run (job) the span belongs to.
    pub run: u64,
    /// Start, in seconds since the recorder started.
    pub start: f64,
    /// End; `NaN` while the span is open.
    pub end: f64,
}

impl Span {
    /// The span's layer: the name up to its first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span; `None` when recording is off.
pub type SpanId = Option<usize>;

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the run id of the spans that follow.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// An empty recorder sharing this one's clock and switch, for
    /// another thread; [`Spans::absorb`] merges it back.
    pub fn fork(&self) -> Spans {
        Spans {
            enabled: self.enabled,
            origin: self.origin,
            run: self.run,
            spans: Vec::new(),
        }
    }

    /// Appends the spans of a [`Spans::fork`]ed recorder.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Opens a span named `name` under `parent`.
    pub fn begin(&mut self, name: impl Into<String>, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.into(),
            parent,
            run: self.run,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: impl Into<String>, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (seconds) of the closed spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(Span::secs)
            .collect()
    }

    /// Self time of span `i`: its duration minus the part of it that its
    /// children cover.
    pub fn self_secs(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i) && c.end.is_finite())
            .map(|c| (c.start.max(s.start), c.end.min(s.end)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = s.start;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        s.secs() - covered
    }

    /// Self time summed per layer over the closed spans under root spans
    /// named `root` (the root's own self time counts as layer
    /// `harness`), divided by the number of such roots: the mean self
    /// time per job, by layer.
    pub fn self_secs_by_layer(&self, root: &str) -> Vec<(String, f64)> {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root && self.spans[i].end.is_finite())
            .collect();
        if roots.is_empty() {
            return Vec::new();
        }
        let mut by_layer: std::collections::BTreeMap<String, f64> = Default::default();
        for i in 0..self.spans.len() {
            let mut top = i;
            while let Some(p) = self.spans[top].parent {
                top = p;
            }
            if !roots.contains(&top) || !self.spans[i].end.is_finite() {
                continue;
            }
            let layer = if i == top {
                "harness"
            } else {
                self.spans[i].layer()
            };
            *by_layer.entry(layer.to_string()).or_default() += self.self_secs(i);
        }
        let jobs = roots.len() as f64;
        by_layer.into_iter().map(|(l, s)| (l, s / jobs)).collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = JsonObject::new()
                .u64("id", i as u64)
                .str("name", &s.name)
                .opt_u64("parent", s.parent.map(|p| p as u64))
                .u64("run", s.run)
                .f64("start", s.start)
                .f64("end", s.end)
                .f64("self", self.self_secs(i))
                .finish();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            run: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut s = Spans::new(true);
        s.spans = vec![
            span("job", None, 0.0, 10.0),
            span("orders.build", Some(0), 1.0, 4.0),
            span("graph.relabel", Some(0), 3.0, 5.0), // overlaps the first child
            span("engine.run", Some(0), 9.0, 12.0),   // clipped at the parent's end
        ];
        // Children cover [1, 5] and [9, 10] of the job's [0, 10].
        assert!((s.self_secs(0) - 5.0).abs() < 1e-12);
        assert!((s.self_secs(1) - 3.0).abs() < 1e-12);
        let by_layer = s.self_secs_by_layer("job");
        let get = |l: &str| by_layer.iter().find(|(n, _)| n == l).map(|x| x.1);
        assert_eq!(get("harness"), Some(5.0));
        assert_eq!(get("orders"), Some(3.0));
        assert_eq!(get("engine"), Some(3.0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let v = s.time("graph.generate", None, || 7);
        assert_eq!(v, 7);
        assert!(s.spans.is_empty());
    }
}
