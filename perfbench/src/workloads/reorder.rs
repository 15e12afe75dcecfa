//! `reorder-social`: cold serial builds of Gorder, RCM and DBG on the
//! twitter-like recipe, each followed by `Graph::relabel`.
//!
//! `core`/`orders` do nearly all the work and `engine` none. This
//! hub-heavy social recipe is where Gorder builds slowest per edge. The
//! scale keeps one job near a second, so a run times enough jobs for a
//! steady median on a shared host.

use std::time::Instant;

use gorder_graph::datasets;

use super::{
    build_ordering, is_traced_job, overhead_frac, record_build, record_graph_layer,
    record_self_times, timed_loop, write_spans, Outcome,
};
use crate::checks::check_permutation;
use crate::metrics::ORDERINGS;
use crate::spans::Spans;
use crate::RunConfig;

/// Recipe scale: 15k nodes, 458k edges.
pub const SCALE: f64 = 0.1;

/// Set-ups per run: more than the other workloads' three, because one
/// takes only about a tenth of a second.
const SETUP_REPS: usize = 9;

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new(cfg.trace);
    let dataset = datasets::twitter_like();

    let mut g = None;
    for _ in 0..SETUP_REPS {
        drop(g.take()); // free the previous build before the next
        let t = Instant::now();
        let built = spans.time("graph.generate", None, || dataset.build(SCALE));
        if !cfg.trace {
            out.samples.push("setup_s", t.elapsed().as_secs_f64());
        }
        g = Some(built);
    }
    let g = g.expect("set-up ran");

    let mut job_secs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    timed_loop(cfg.seconds, if cfg.trace { 4 } else { 2 }, |i| {
        let traced = is_traced_job(cfg, i);
        spans.set_enabled(traced);
        spans.set_run(i as u64);
        let mut built = Vec::with_capacity(ORDERINGS.len());
        let t = Instant::now();
        let root = spans.begin("job", None);
        for name in ORDERINGS {
            let id = spans.begin(format!("orders.build.{name}"), root);
            let b = Instant::now();
            let run = build_ordering(name, &g);
            let build_secs = b.elapsed().as_secs_f64();
            spans.end(id);
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    out.checks.record(Err(e));
                    continue;
                }
            };
            let id = spans.begin(format!("graph.relabel.{name}"), root);
            let relabeled = g.relabel(&run.perm);
            spans.end(id);
            built.push((name, run, build_secs, relabeled.m()));
        }
        spans.end(root);
        job_secs[usize::from(traced)].push(t.elapsed().as_secs_f64());

        for (name, run, build_secs, m) in built {
            let mut ok = check_permutation(run.perm.as_slice(), g.n(), dataset.name, SCALE, name);
            if ok.is_ok() && m != g.m() {
                ok = Err(format!("{name} relabel has {m} edges, not {}", g.m()));
            }
            out.checks.record(ok);
            if traced {
                record_build(&mut out.samples, name, &g, &run.stats, build_secs);
            }
        }
        Ok(())
    })?;

    let [untraced, traced] = job_secs;
    if cfg.trace {
        let s = &mut out.samples;
        record_graph_layer(s, &spans, &ORDERINGS);
        record_self_times(s, &spans, "job");
        s.push("obs.trace_overhead_frac", overhead_frac(&traced, &untraced));
        write_spans(cfg, &spans)?;
    } else {
        let ms: Vec<f64> = untraced.iter().map(|v| v * 1e3).collect();
        out.samples.extend("job_ms", &ms);
        let rss = crate::peak_rss_mb("self").ok_or("cannot read VmHWM")?;
        out.samples.push("peak_rss_mb", rss);
    }
    Ok(out)
}
