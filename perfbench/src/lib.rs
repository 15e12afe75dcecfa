//! Wall-clock benchmark of the gorder system.
//!
//! Three workloads drive the system from outside — in process through
//! the public functions of `graph`, `orders` and `engine`, and over the
//! TCP wire protocol of `gorder-serve` — check every output, and reduce
//! the timings into named metrics. See `perfbench/README.md`.

pub mod checks;
pub mod daemon;
pub mod inputs;
pub mod metrics;
pub mod spans;
pub mod workloads;

use std::path::PathBuf;

/// What one benchmark invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed for the workload's inputs (sources, request sequence).
    pub seed: u64,
    /// Seconds the timed phase measures for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) rather than
    /// the untraced one (end-to-end metrics).
    pub trace: bool,
    /// Scratch directory for this run (daemon caches and traces),
    /// removed when the run ends.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans, one JSON line each.
    pub spans_path: PathBuf,
    /// This executable, re-run as the serve daemon.
    pub exe: PathBuf,
}

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// MB, from `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
