//! `gorder-cli` — thin argument dispatcher over the library (see
//! `lib.rs` for the testable logic and the usage synopsis).
//!
//! Exit codes: 0 success, 2 usage error, 3 succeeded but a budgeted
//! stage degraded (`--timeout`), 4 timed out empty-handed, 5 stage
//! failed, 6 graph file unreadable/unwritable. 1 is left to panics so it
//! never aliases a clean error.

use gorder_cli::{
    algorithm_names, load, ordering_names, remote, resolve_ordering_cached, run_algorithm_budgeted,
    save, simulate_algorithm_budgeted, stats_report, validate_trace_file, CliError, CmdOutput,
    ResolvedOrdering,
};
use gorder_core::budget::DegradeReason;
use gorder_obs::{RunManifest, TraceEvent, TraceSink};
use gorder_orders::OrderCache;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> &'static str {
    "usage:\n  \
     gorder-cli stats    <input>\n  \
     gorder-cli order    <input> <output> [--method Gorder] [--window 5] [--seed 42] [--timeout SECS] [--order-cache DIR] [--trace-out PATH]\n  \
     gorder-cli list-orderings\n  \
     gorder-cli convert  <input> <output>\n  \
     gorder-cli run      <algo> <input> [--method NAME] [--window 5] [--seed 42] [--timeout SECS] [--threads N] [--stats] [--trace-out PATH]\n  \
     gorder-cli simulate <algo> <input> [--method NAME] [--window 5] [--seed 42] [--timeout SECS] [--stats] [--trace-out PATH]\n  \
     gorder-cli validate-trace <trace.jsonl> [--lenient]\n  \
     gorder-cli remote <addr> <op> [--dataset NAME] [--method NAME] [--algo NAME] [--window 5] [--seed 0] [--timeout-ms N] [--threads N] [--retries 5] [--retry-base-ms 50] [--retry-budget-ms 2000] [--retry-seed 0]\n\n\
     formats by extension: .mtx (Matrix Market), .bin (compact CSR), else edge list\n\
     --timeout bounds the ordering phase: anytime orderings return their\n\
     best-so-far (exit 3, reason on stderr); others exit 4\n\
     --order-cache reuses permutations across runs: content-addressed by\n\
     graph digest + ordering + params + seed, so a warm run loads instead\n\
     of recomputing (degraded results are never cached)\n\
     --threads runs the engine kernels' parallel sections on N workers\n\
     (results are byte-identical to serial; simulate always traces serially)\n\
     --stats appends one JSON line of per-kernel metrics (iterations,\n\
     edges relaxed, frontier occupancy, phase timings, per-thread busy\n\
     times) to stdout\n\
     --trace-out writes a schema-versioned JSONL run trace (manifest line,\n\
     then one event per phase/kernel plus registry metrics); validate it\n\
     with `gorder-cli validate-trace` (--lenient tolerates one torn\n\
     final line — the signature a crash mid-write leaves)\n\
     remote sends one request to a gorder-serve daemon (ops: health,\n\
     stats, shutdown, order, run, simulate) with seeded-jitter\n\
     exponential backoff; busy responses are always retried, error\n\
     responses never, lost connections only for idempotent ops.\n\
     exit 3 when the served tier was degraded/original, 4 when every\n\
     attempt was shed and the retry budget ran out"
}

struct Flags {
    method: Option<String>,
    window: u32,
    seed: u64,
    timeout: Option<Duration>,
    threads: u32,
    stats: bool,
    trace_out: Option<PathBuf>,
    order_cache: Option<PathBuf>,
}

impl Flags {
    /// Canonical config string hashed into the trace manifest — every
    /// knob that shapes the run, in a fixed order.
    fn config_string(&self, cmd: &str, algo: Option<&str>, input: &str) -> String {
        format!(
            "cmd={cmd},algo={},input={input},method={},window={},seed={},timeout={},threads={}",
            algo.unwrap_or("-"),
            self.method.as_deref().unwrap_or("-"),
            self.window,
            self.seed,
            self.timeout
                .map_or("-".to_string(), |t| t.as_secs_f64().to_string()),
            self.threads,
        )
    }

    /// The trace manifest for one invocation.
    fn manifest(&self, cmd: &str, algo: Option<&str>, input: &str) -> RunManifest {
        let mut m = RunManifest::new(
            &format!("gorder-cli {cmd}"),
            &self.config_string(cmd, algo, input),
        );
        m.dataset = Some(input.to_string());
        m.ordering = self.method.clone();
        m.algo = algo.map(str::to_string);
        m.threads = u64::from(self.threads);
        m.window = Some(u64::from(self.window));
        m
    }
}

/// Opens the `--trace-out` sink, writes the manifest and `events`, then
/// appends every metric the global registry accumulated during the run
/// (gorder.build spans, unit-heap counters, kernel.* aggregates).
///
/// Written atomically (dotted temp name + rename): unlike the sweep
/// harness's streaming traces — which double as crash logs and are
/// deliberately left torn — a CLI trace is assembled after the run
/// finished, so a crash mid-write should leave nothing at `path`.
fn write_trace(path: &Path, manifest: &RunManifest, events: &[TraceEvent]) -> Result<(), CliError> {
    let fail = |e: std::io::Error| CliError::Failed(format!("trace {}: {e}", path.display()));
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .ok_or_else(|| CliError::Failed(format!("trace {}: not a file path", path.display())))?;
    let tmp = path.with_file_name(format!(".{name}.tmp"));
    let mut sink = TraceSink::create(&tmp).map_err(fail)?;
    sink.manifest(manifest).map_err(fail)?;
    for e in events {
        sink.event(e).map_err(fail)?;
    }
    sink.metrics(&gorder_obs::global().snapshot())
        .map_err(fail)?;
    let lines = sink.lines_written();
    let file = sink
        .into_inner()
        .into_inner()
        .map_err(|e| CliError::Failed(format!("trace {}: {e}", path.display())))?;
    file.sync_all().map_err(fail)?;
    std::fs::rename(&tmp, path).map_err(fail)?;
    eprintln!("trace: {} lines -> {}", lines, path.display());
    Ok(())
}

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut flags = Flags {
        method: None,
        window: 5,
        seed: 42,
        timeout: None,
        threads: 1,
        stats: false,
        trace_out: None,
        order_cache: None,
    };
    let usage_err = |msg: &str| CliError::Usage(msg.to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--method" => {
                flags.method = Some(
                    it.next()
                        .ok_or_else(|| usage_err("--method needs a value"))?
                        .clone(),
                );
            }
            "--window" => {
                flags.window = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--window needs a positive integer"))?;
            }
            "--seed" => {
                flags.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--seed needs an integer"))?;
            }
            "--timeout" => {
                let secs: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--timeout needs a number of seconds"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(usage_err("--timeout must be a non-negative number"));
                }
                flags.timeout = Some(Duration::from_secs_f64(secs));
            }
            "--threads" => {
                let threads: u32 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--threads needs a positive integer"))?;
                if threads == 0 {
                    return Err(usage_err("--threads must be at least 1"));
                }
                flags.threads = threads;
            }
            "--stats" => flags.stats = true,
            "--order-cache" => {
                flags.order_cache =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        usage_err("--order-cache needs a directory")
                    })?));
            }
            "--trace-out" => {
                flags.trace_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| usage_err("--trace-out needs a path"))?,
                ));
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok(flags)
}

/// Flags for `gorder-cli remote`: the request fields plus the retry
/// schedule. Ordering reuses `--method` so local and remote invocations
/// read the same.
fn parse_remote_flags(
    op: &str,
    args: &[String],
) -> Result<(remote::RemoteRequest, remote::RetryPolicy), CliError> {
    let mut req = remote::RemoteRequest::control(op);
    let mut policy = remote::RetryPolicy::default();
    let usage_err = |msg: &str| CliError::Usage(msg.to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        let value = it
            .next()
            .ok_or_else(|| usage_err(&format!("flag {flag} needs a value")))?;
        let int = || -> Result<u64, CliError> {
            value
                .parse::<u64>()
                .map_err(|_| usage_err(&format!("flag {flag} needs a non-negative integer")))
        };
        match flag {
            "--dataset" => req.dataset = Some(value.clone()),
            "--method" => req.ordering = Some(value.clone()),
            "--algo" => req.algo = Some(value.clone()),
            "--window" => {
                req.window =
                    u32::try_from(int()?).map_err(|_| usage_err("--window out of range"))?
            }
            "--seed" => req.seed = int()?,
            "--timeout-ms" => req.timeout_ms = Some(int()?),
            "--threads" => {
                req.threads =
                    u32::try_from(int()?.max(1)).map_err(|_| usage_err("--threads out of range"))?
            }
            "--retries" => {
                policy.attempts =
                    u32::try_from(int()?.max(1)).map_err(|_| usage_err("--retries out of range"))?
            }
            "--retry-base-ms" => policy.base_ms = int()?,
            "--retry-budget-ms" => policy.budget_ms = int()?,
            "--retry-seed" => policy.seed = int()?,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let is_work = matches!(op, "order" | "run" | "simulate");
    if is_work && req.dataset.is_none() {
        return Err(usage_err(&format!("op {op:?} needs --dataset")));
    }
    if !is_work && !matches!(op, "health" | "stats" | "shutdown") {
        return Err(usage_err(&format!("unknown remote op {op:?}")));
    }
    Ok((req, policy))
}

fn real_main() -> Result<Option<DegradeReason>, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let need = |i: usize| -> Result<&String, CliError> {
        args.get(i).ok_or_else(|| CliError::Usage(usage().into()))
    };
    match cmd {
        "stats" => {
            let g = load(&PathBuf::from(need(1)?))?;
            println!("{}", stats_report(&g));
            Ok(None)
        }
        "order" => {
            let input = need(1)?.clone();
            let output = need(2)?.clone();
            let flags = parse_flags(&args[3..])?;
            let method = flags.method.as_deref().unwrap_or("Gorder");
            let cache = match &flags.order_cache {
                None => None,
                Some(dir) => Some(OrderCache::new(dir).map_err(|e| {
                    CliError::Failed(format!("order cache {}: {e}", dir.display()))
                })?),
            };
            let g = load(&PathBuf::from(&input))?;
            eprintln!("loaded {}: n = {}, m = {}", input, g.n(), g.m());
            let t = std::time::Instant::now();
            let ResolvedOrdering {
                perm,
                degraded,
                event,
            } = resolve_ordering_cached(
                &g,
                method,
                flags.window,
                flags.seed,
                flags.timeout,
                cache.as_ref(),
                Some(&input),
            )?;
            eprintln!(
                "{method} {} in {:.2?}",
                if event.cache_hit {
                    "loaded from cache"
                } else {
                    "computed"
                },
                t.elapsed()
            );
            save(&g.relabel(&perm), &PathBuf::from(&output))?;
            println!("wrote {output}");
            if let Some(path) = &flags.trace_out {
                let mut manifest = flags.manifest("order", None, &input);
                manifest.ordering = Some(method.to_string());
                let events = [TraceEvent::Order(event)];
                write_trace(path, &manifest, &events)?;
            }
            Ok(degraded)
        }
        "list-orderings" => {
            for name in ordering_names() {
                println!("{name}");
            }
            Ok(None)
        }
        "convert" => {
            let input = need(1)?.clone();
            let output = need(2)?.clone();
            let g = load(&PathBuf::from(&input))?;
            save(&g, &PathBuf::from(&output))?;
            println!("wrote {output} ({} nodes, {} edges)", g.n(), g.m());
            Ok(None)
        }
        "run" | "simulate" => {
            let algo = need(1)?.clone();
            let input = need(2)?.clone();
            let flags = parse_flags(&args[3..])?;
            let g = load(&PathBuf::from(&input))?;
            let CmdOutput {
                report,
                degraded,
                stats_json,
                trace_events,
                ..
            } = if cmd == "run" {
                run_algorithm_budgeted(
                    &g,
                    &algo,
                    flags.method.as_deref(),
                    flags.window,
                    flags.seed,
                    flags.timeout,
                    flags.threads,
                )?
            } else {
                simulate_algorithm_budgeted(
                    &g,
                    &algo,
                    flags.method.as_deref(),
                    flags.window,
                    flags.seed,
                    flags.timeout,
                )?
            };
            println!("{report}");
            if flags.stats {
                if let Some(line) = stats_json {
                    println!("{line}");
                }
            }
            if let Some(path) = &flags.trace_out {
                let manifest = flags.manifest(cmd, Some(&algo), &input);
                write_trace(path, &manifest, &trace_events)?;
            }
            Ok(degraded)
        }
        "validate-trace" => {
            let path = PathBuf::from(need(1)?);
            let lenient = match args.get(2).map(String::as_str) {
                None => false,
                Some("--lenient") => true,
                Some(other) => {
                    return Err(CliError::Usage(format!("unknown flag {other:?}")));
                }
            };
            let summary = validate_trace_file(&path, lenient)?;
            println!("{summary}");
            Ok(None)
        }
        "remote" => {
            let addr = need(1)?.clone();
            let op = need(2)?.clone();
            let (req, policy) = parse_remote_flags(&op, &args[3..])?;
            let reply = gorder_cli::remote::call(&addr, &req, &policy).map_err(|e| match e {
                remote::RemoteError::Transport(msg) => CliError::GraphIo(
                    gorder_graph::io::GraphIoError::Io(std::io::Error::other(msg)),
                ),
                remote::RemoteError::BusyExhausted { attempts } => {
                    eprintln!("server busy: gave up after {attempts} shed attempts");
                    CliError::TimedOut
                }
                remote::RemoteError::Server(msg) => CliError::Failed(msg),
            })?;
            println!("{}", reply.report);
            if reply.attempts > 1 {
                eprintln!("succeeded on attempt {}", reply.attempts);
            }
            if let Some(tier) = &reply.tier {
                eprintln!(
                    "served tier: {tier}{}",
                    if reply.degraded_serial {
                        " (serial retry after a worker panic)"
                    } else {
                        ""
                    }
                );
                if tier == "degraded" || tier == "original" {
                    return Ok(Some(DegradeReason::DeadlineExceeded));
                }
            }
            Ok(None)
        }
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            println!("\norderings: {:?}", ordering_names());
            println!("algorithms: {:?}", algorithm_names());
            Ok(None)
        }
        _ => Err(CliError::Usage(usage().to_string())),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(reason)) => {
            eprintln!("warning: result is degraded ({reason}) — budget ran out partway");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code())
        }
    }
}
