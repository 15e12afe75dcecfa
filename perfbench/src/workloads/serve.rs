//! `serve-mixed`: a serve daemon with one worker pre-loads the
//! flickr-like (social) and wiki-like (web) recipes; two closed-loop
//! connections drive it with a seeded mix of requests.
//!
//! Mostly `run` of NQ/BFS/SP/WCC over orderings warmed into the cache
//! during set-up (cache reads), some `simulate` of NQ/BFS (`cachesim`),
//! and some `order` with fresh, never-repeated seeds (compute plus cache
//! write). This is the only workload where `serve` does the work: the
//! admission queue, the protocol, ordering resolution and the
//! per-request relabel; likewise `orders::cache`, `cachesim` and the
//! extension kernels. One worker and two connections put the server on
//! one core and the load generator on the other, with one request
//! queued; the loop is closed because callers wait for each reply.

use std::collections::BTreeMap;
use std::time::Instant;

use gorder_obs::json;
use gorder_serve::{render_request, Request, WorkSpec};

use super::{overhead_frac, write_spans, Outcome, SETUP_REPS};
use crate::checks::{check_reply, reply_checksum, Checks};
use crate::daemon::{Daemon, Exchange, SERVE_SCALE};
use crate::inputs::{request_sequence, RUN_ALGOS, SERVE_DATASETS, SERVE_ORDERINGS, SIMULATE_ALGOS};
use crate::metrics::{Samples, OPS, TIERS};
use crate::spans::Spans;
use crate::RunConfig;

/// Closed-loop client connections.
const CLIENTS: usize = 2;

/// Requests generated per run; far more than a run can send.
const SEQUENCE_LEN: usize = 100_000;

/// One request as the client saw it.
struct Record {
    line: String,
    op: &'static str,
    dataset: String,
    resolves_ordering: bool,
    rtt_s: f64,
    result: Result<Exchange, String>,
}

/// What every reply for a request line must say: the `run` checksum or
/// the `simulate` report, learnt in the reference pass; and the node
/// count each `order` reply names, per dataset.
#[derive(Default)]
struct Expected {
    by_line: BTreeMap<String, String>,
    nodes: BTreeMap<String, String>,
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut expected = Expected::default();
    let mut daemon: Option<Daemon> = None;
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            stop(d, cfg, rep - 1)?;
        }
        let t = Instant::now();
        let d = start_warm(cfg, rep, false, &mut out.checks, &mut expected)?;
        if !cfg.trace {
            out.samples.push("setup_s", t.elapsed().as_secs_f64());
        }
        daemon = Some(d);
    }
    let d = daemon.expect("set-up ran");
    references(&d, &mut out.checks, &mut expected)?;

    let seq = request_sequence(cfg.seed, SEQUENCE_LEN);
    let phase_secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut spans = Spans::new(false);
    let t = Instant::now();
    let untraced = drive(&d, &seq, phase_secs, &mut spans)?;
    let wall = t.elapsed().as_secs_f64();
    let daemon_rss = d.peak_rss_mb().ok_or("cannot read the daemon's VmHWM")?;
    stop(d, cfg, SETUP_REPS - 1)?;
    evaluate(&untraced, &expected, &mut out.checks);

    if !cfg.trace {
        let ms: Vec<f64> = untraced.iter().map(|r| r.rtt_s * 1e3).collect();
        out.samples.extend("job_ms", &ms);
        let rss = crate::peak_rss_mb("self").ok_or("cannot read VmHWM")?;
        out.samples.push("peak_rss_mb", rss + daemon_rss);
        return Ok(out);
    }

    // Traced phase: a daemon writing its v5 trace, spans around every
    // call on the client side.
    let d = start_warm(cfg, SETUP_REPS, true, &mut out.checks, &mut expected)?;
    let mut spans = Spans::new(true);
    let traced = drive(&d, &seq, phase_secs, &mut spans)?;
    let trace_path = d.shutdown()?.expect("traced daemon writes a trace");
    evaluate(&traced, &expected, &mut out.checks);
    let trace = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("reading {}: {e}", trace_path.display()))?;
    let s = &mut out.samples;
    let rtt_ms: Vec<f64> = untraced.iter().map(|r| r.rtt_s * 1e3).collect();
    let summary = crate::metrics::summarize(&rtt_ms);
    s.push("req_p50_ms", summary.median);
    if let Some((pct, v)) = summary.tail {
        s.push("req_tail_pct", pct);
        s.push("req_tail_ms", v);
    }
    s.push("req_per_s", untraced.len() as f64 / wall);
    let traced_ms: Vec<f64> = traced.iter().map(|r| r.rtt_s * 1e3).collect();
    s.push(
        "obs.trace_overhead_frac",
        overhead_frac(&traced_ms, &rtt_ms),
    );
    client_metrics(s, &untraced, &traced);
    server_metrics(s, &trace, &traced, &mut out.checks)?;
    super::record_self_times(s, &spans, "job");
    write_spans(cfg, &spans)?;
    std::fs::remove_dir_all(daemon_dir(cfg, SETUP_REPS)).map_err(|e| e.to_string())?;
    Ok(out)
}

fn daemon_dir(cfg: &RunConfig, rep: usize) -> std::path::PathBuf {
    cfg.work_dir.join(format!("daemon-{rep}"))
}

fn work_spec(dataset: &str, ordering: Option<&str>, algo: Option<&str>) -> WorkSpec {
    WorkSpec {
        dataset: dataset.to_string(),
        ordering: ordering.map(str::to_string),
        algo: algo.map(str::to_string),
        window: 5,
        seed: 0,
        timeout_ms: None,
        threads: 1,
    }
}

/// Starts daemon number `rep` with a fresh cache and warms every
/// served ordering into it.
fn start_warm(
    cfg: &RunConfig,
    rep: usize,
    trace: bool,
    checks: &mut Checks,
    expected: &mut Expected,
) -> Result<Daemon, String> {
    let d = Daemon::start(&cfg.exe, &daemon_dir(cfg, rep), trace)?;
    let mut conn = d.connect()?;
    for dataset in SERVE_DATASETS {
        for ordering in SERVE_ORDERINGS {
            let req = Request::Order(work_spec(dataset, Some(ordering), None));
            let x = conn.call_retrying(&render_request(&req))?;
            let ok = check_reply(&x.reply).and_then(|()| {
                let nodes = order_nodes(&x.reply.report);
                let want = expected
                    .nodes
                    .entry(dataset.to_string())
                    .or_insert(nodes.clone());
                if *want == nodes {
                    Ok(())
                } else {
                    Err(format!(
                        "order on {dataset} says {nodes:?}, earlier {want:?}"
                    ))
                }
            });
            checks.record(ok);
        }
    }
    Ok(d)
}

/// The node count an `order` reply names:
/// `"ordered wiki with Gorder: 60000 nodes (tier full)"` → `"60000"`.
fn order_nodes(report: &str) -> String {
    let tail = report.split(": ").nth(1).unwrap_or("");
    tail.split(" nodes").next().unwrap_or("").to_string()
}

/// Stops daemon number `rep` and removes its directory.
fn stop(d: Daemon, cfg: &RunConfig, rep: usize) -> Result<(), String> {
    d.shutdown()?;
    std::fs::remove_dir_all(daemon_dir(cfg, rep)).map_err(|e| e.to_string())
}

/// Runs every served kernel once over each label and records what
/// later replies must repeat. Served kernels start from the relabelled
/// graph's max-degree node, the same logical node under every ordering,
/// so a `run` checksum must equal the Original-label one.
fn references(d: &Daemon, checks: &mut Checks, expected: &mut Expected) -> Result<(), String> {
    let mut conn = d.connect()?;
    let labels = [None, Some(SERVE_ORDERINGS[0]), Some(SERVE_ORDERINGS[1])];
    for dataset in SERVE_DATASETS {
        for (algos, simulate) in [(&RUN_ALGOS[..], false), (&SIMULATE_ALGOS[..], true)] {
            for &algo in algos {
                let mut original = None;
                for ordering in labels {
                    let spec = work_spec(dataset, ordering, Some(algo));
                    let req = if simulate {
                        Request::Simulate(spec)
                    } else {
                        Request::Run(spec)
                    };
                    let line = render_request(&req);
                    let x = conn.call_retrying(&line)?;
                    let mut ok = check_reply(&x.reply);
                    let value = if simulate {
                        x.reply.report.clone()
                    } else {
                        let c = reply_checksum(&x.reply.report);
                        let orig = *original.get_or_insert(c);
                        if ok.is_ok() && (c.is_none() || c != orig) {
                            ok = Err(format!(
                                "{algo} on {dataset} over {ordering:?}: checksum {c:?}, \
                                 Original gives {orig:?}"
                            ));
                        }
                        format!("{c:?}")
                    };
                    checks.record(ok);
                    expected.by_line.insert(line, value);
                }
            }
        }
    }
    Ok(())
}

/// Drives the daemon with `seq` over [`CLIENTS`] closed-loop
/// connections for `secs` seconds; connection `c` sends requests
/// `c, c + CLIENTS, …`. Records spans into `spans` when it is enabled.
fn drive(d: &Daemon, seq: &[Request], secs: f64, spans: &mut Spans) -> Result<Vec<Record>, String> {
    let start = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut sp = spans.fork();
                s.spawn(move || -> Result<(Vec<Record>, Spans), String> {
                    let mut conn = d.connect()?;
                    let mut records = Vec::new();
                    let mut i = c;
                    while start.elapsed().as_secs_f64() < secs || records.len() < 10 {
                        let req = &seq[i % seq.len()];
                        let line = render_request(req);
                        sp.set_run(i as u64);
                        let root = sp.begin("job", None);
                        let id = sp.begin(format!("serve.{}", req.op()), root);
                        let t = Instant::now();
                        let result = conn.call_retrying(&line);
                        let rtt_s = t.elapsed().as_secs_f64();
                        sp.end(id);
                        sp.end(root);
                        let spec = match req {
                            Request::Run(s) | Request::Simulate(s) | Request::Order(s) => s,
                            _ => unreachable!("the sequence holds work requests only"),
                        };
                        let broken = result.is_err();
                        records.push(Record {
                            line,
                            op: req.op(),
                            dataset: spec.dataset.clone(),
                            resolves_ordering: spec.ordering.is_some(),
                            rtt_s,
                            result,
                        });
                        if broken {
                            conn = d.connect()?;
                        }
                        i += CLIENTS;
                    }
                    Ok((records, sp))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut all = Vec::new();
    for r in per_client {
        let (records, sp) = r?;
        all.extend(records);
        spans.absorb(sp);
    }
    Ok(all)
}

/// Checks every reply: `ok` at tier `cache`/`full`, and the same
/// checksum, report or node count the reference pass recorded.
fn evaluate(records: &[Record], expected: &Expected, checks: &mut Checks) {
    for r in records {
        let ok = match &r.result {
            Err(e) => Err(format!("{} transport: {e}", r.op)),
            Ok(x) => check_reply(&x.reply).and_then(|()| {
                let got = match r.op {
                    "run" => format!("{:?}", reply_checksum(&x.reply.report)),
                    "simulate" => x.reply.report.clone(),
                    _ => order_nodes(&x.reply.report),
                };
                let want = match r.op {
                    "order" => expected.nodes.get(&r.dataset),
                    _ => expected.by_line.get(&r.line),
                };
                match want {
                    Some(w) if *w == got => Ok(()),
                    w => Err(format!("{}: reply {got:?}, expected {w:?}", r.line)),
                }
            }),
        };
        checks.record(ok);
    }
}

/// Per-op round trips, busy/retry/error counts, tiers and the cache hit
/// ratio, from the client side.
fn client_metrics(s: &mut Samples, untraced: &[Record], traced: &[Record]) {
    for op in OPS {
        let ms: Vec<f64> = traced
            .iter()
            .filter(|r| r.op == op)
            .map(|r| r.rtt_s * 1e3)
            .collect();
        s.extend(&format!("serve.rtt_ms.{op}"), &ms);
    }
    let all = || untraced.iter().chain(traced);
    let busy: u32 = all()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|x| x.busy)
        .sum();
    let retried = all()
        .filter(|r| r.result.as_ref().is_ok_and(|x| x.busy > 0))
        .count();
    let errors = all()
        .filter(|r| r.result.as_ref().map_or(true, |x| x.reply.status != "ok"))
        .count();
    s.push("serve.busy", f64::from(busy));
    s.push("serve.retries", retried as f64);
    s.push("serve.errors", errors as f64);
    let tier_of = |r: &Record| r.result.as_ref().ok().and_then(|x| x.reply.tier.clone());
    for t in TIERS {
        let n = all().filter(|r| tier_of(r).as_deref() == Some(t)).count();
        s.push(&format!("serve.tier.{t}"), n as f64);
    }
    let resolving = all().filter(|r| r.resolves_ordering).count();
    let hits = all()
        .filter(|r| r.resolves_ordering && tier_of(r).as_deref() == Some("cache"))
        .count();
    if resolving > 0 {
        s.push("orders.cache.hit_ratio", hits as f64 / resolving as f64);
    }
}

/// Server-side service, queue, kernel and resolve times from the
/// daemon's trace, and the pinned digests of every ordering it served.
///
/// With one worker the records of one request are contiguous and its
/// `serve` record comes last, so a `kernel` record belongs to the next
/// `serve` record. The first records are the set-up's warm-up orders.
fn server_metrics(
    s: &mut Samples,
    trace: &str,
    traced: &[Record],
    checks: &mut Checks,
) -> Result<(), String> {
    let warm_up = SERVE_DATASETS.len() * SERVE_ORDERINGS.len();
    let mut work_records = 0;
    let mut kernel_secs: Option<f64> = None;
    let (mut service_sum, mut queue_sum, mut resolve) = (0.0, 0.0, Vec::new());
    for line in trace.lines() {
        let rec = json::parse_object(line).map_err(|e| format!("daemon trace: {e}"))?;
        let field =
            |k: &str| -> Option<String> { rec.get(k).and_then(|raw| json::parse_string(raw).ok()) };
        let num = |k: &str| -> f64 { rec.get(k).and_then(|raw| raw.parse().ok()).unwrap_or(0.0) };
        match field("kind").as_deref() {
            Some("kernel") => kernel_secs = Some(num("seconds")),
            Some("serve") => {
                let Some(op) = field("op").filter(|op| OPS.contains(&op.as_str())) else {
                    continue;
                };
                let kernel = kernel_secs.take();
                work_records += 1;
                if op == "order" {
                    let (dataset, ordering) = (field("dataset"), field("ordering"));
                    let checksum: u64 = rec
                        .get("checksum")
                        .and_then(|c| c.parse().ok())
                        .unwrap_or(0);
                    checks.record(digest_check(dataset, ordering, checksum));
                }
                if work_records <= warm_up {
                    continue;
                }
                let (service, queue) = (num("seconds"), num("queue_secs"));
                service_sum += service;
                queue_sum += queue;
                s.push(&format!("serve.service_ms.{op}"), service * 1e3);
                s.push("serve.queue_ms", queue * 1e3);
                let algo = field("algo");
                match (op.as_str(), kernel) {
                    ("run", Some(k)) => {
                        resolve.push((service - k) * 1e3);
                        if algo.as_deref() == Some("WCC") {
                            s.push("serve.service_ms.run.WCC", service * 1e3);
                        }
                    }
                    ("simulate", Some(k)) => {
                        let algo = algo.unwrap_or_default();
                        s.push(&format!("cachesim.simulate_ms.{algo}"), k * 1e3);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    let served = work_records.saturating_sub(warm_up);
    if served != traced.len() {
        return Err(format!(
            "daemon traced {served} timed requests, the clients sent {}",
            traced.len()
        ));
    }
    // Means, not medians: the mean round trip splits exactly into mean
    // service, mean queueing and the rest (protocol and transport).
    let n = served.max(1) as f64;
    let rtt_sum: f64 = traced.iter().map(|r| r.rtt_s).sum();
    s.push(
        "serve.transport_ms",
        (rtt_sum - service_sum - queue_sum) / n * 1e3,
    );
    let mean_resolve = resolve.iter().sum::<f64>() / resolve.len().max(1) as f64;
    s.push("serve.resolve_ms", mean_resolve);
    Ok(())
}

/// An `order` record's permutation checksum against the pinned digest.
fn digest_check(
    dataset: Option<String>,
    ordering: Option<String>,
    checksum: u64,
) -> Result<(), String> {
    let (Some(dataset), Some(ordering)) = (dataset, ordering) else {
        return Err("order record without dataset or ordering".into());
    };
    let want = crate::checks::pinned_digest(&dataset, SERVE_SCALE, &ordering)
        .ok_or_else(|| format!("no pinned digest for {ordering} on {dataset}"))?;
    if checksum == want {
        Ok(())
    } else {
        Err(format!(
            "served {ordering} on {dataset}: digest {checksum:#018x}, pinned {want:#018x}"
        ))
    }
}
