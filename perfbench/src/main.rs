//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Standard output carries one JSON line per metric (median, quartiles,
//! tail, sample count) and, last, the result line. Exit codes: 0 every
//! check passed, 1 a check failed or the run errored, 2 usage.

use std::path::PathBuf;
use std::process::ExitCode;

use gorder_perfbench::metrics::{detail_line, report, result_line};
use gorder_perfbench::workloads::{self, WORKLOADS};
use gorder_perfbench::RunConfig;

const USAGE: &str = "\
usage: perfbench --workload NAME --seed N --seconds S --trace 0|1

workloads: reorder-social, kernels-web, serve-mixed
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Scratch files and span dumps go to .perfbench/ under the current directory.";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err(format!("bad --seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        let code = gorder_perfbench::daemon::serve_main(&args[1..]);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the workload and prints its metrics; `Ok(false)` when a check
/// failed.
fn run(args: &Args) -> Result<bool, String> {
    let out_dir = PathBuf::from(".perfbench");
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: out_dir.join(format!("run-{}", std::process::id())),
        spans_path: out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed)),
        exe: std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?,
    };
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.work_dir.display()))?;
    let outcome = workloads::run(&args.workload, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let out = outcome?;

    let metrics = report(&out.samples, args.trace);
    if !args.trace {
        if let Some(m) = metrics.iter().find(|m| m.summary.n == 0) {
            return Err(format!("end-to-end metric {} was not measured", m.name));
        }
    }
    for m in &metrics {
        println!("{}", detail_line(m));
        let s = &m.summary;
        eprintln!(
            "{:<34} {:>14.4} {:<8} q1 {:.4} q3 {:.4} n {} ({} is better)",
            m.name, s.median, m.unit, s.q1, s.q3, s.n, m.better
        );
    }
    for msg in out.checks.messages() {
        eprintln!("check failed: {msg}");
    }
    let correct = out.checks.failed() == 0;
    eprintln!(
        "{}: {} operations, {} failed",
        args.workload,
        out.checks.attempted(),
        out.checks.failed()
    );
    println!(
        "{}",
        result_line(
            correct,
            out.checks.attempted(),
            out.checks.failed(),
            &metrics
        )
    );
    Ok(correct)
}
