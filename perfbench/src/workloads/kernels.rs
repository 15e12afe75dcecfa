//! `kernels-web`: NQ, BFS, SP and PR on the sdarc-like web recipe,
//! under Original, Gorder and RCM labels. Paper defaults, except that PR
//! runs [`PR_ITERATIONS`] power iterations.
//!
//! `engine` does almost all the timed work and `core` none; this is the
//! recipe where Gorder wins. Set-up builds the graph and its Gorder and
//! RCM orderings, so a `core` change that slows Gorder on web input
//! shows in this workload's `setup_s`.

use std::collections::BTreeMap;
use std::time::Instant;

use gorder_bench::stats::paired_stats;
use gorder_core::budget::{Budget, ExecOutcome};
use gorder_engine::{execute_plan, BufferPool, ExecPlan, KernelCtx, KernelStats, NoProbe};
use gorder_graph::{datasets, Graph, Permutation};

use super::{
    build_ordering, is_traced_job, overhead_frac, record_build, record_graph_layer,
    record_self_times, timed_loop, write_spans, Outcome, SETUP_REPS,
};
use crate::checks::{check_checksum, check_permutation};
use crate::inputs::pick_sources;
use crate::metrics::{Samples, KERNELS, LABELS};
use crate::spans::Spans;
use crate::RunConfig;

/// Recipe scale: 200k nodes, 3.6M edges.
pub const SCALE: f64 = 1.0;

/// Seeded BFS/SP sources per run, used in turn: each rep of each pass
/// takes the next, so a cell's median spans many sources and the seed
/// moves it little.
const SOURCES: usize = 64;

/// Runs of each kernel per labelling in one pass, so that each kernel
/// takes a similar share of the pass and every cell collects many
/// samples.
const REPS: [usize; 4] = [8, 2, 2, 1];

/// PageRank power iterations per run (paper: 100). Each iteration does
/// the same work, and ten keep one PR run short enough for a run to
/// time it a dozen times or more.
const PR_ITERATIONS: u32 = 10;

/// One labelling of the graph: Original has no permutation.
struct Labelled {
    graph: Graph,
    perm: Option<Permutation>,
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new(cfg.trace);
    let labelled = setup(cfg, &mut out, &mut spans)?;
    let sources = pick_sources(&labelled[0].graph, cfg.seed, SOURCES);

    let mut cells = Cells::new();
    let mut pool = BufferPool::new();
    timed_loop(cfg.seconds, if cfg.trace { 4 } else { 2 }, |pass| {
        let traced = is_traced_job(cfg, pass);
        spans.set_enabled(traced);
        spans.set_run(pass as u64);
        let root = spans.begin("job", None);
        for (ki, kernel) in KERNELS.into_iter().enumerate() {
            for rep in 0..REPS[ki] {
                let src = sources[(pass * REPS[ki] + rep) % SOURCES];
                let mut checksums: [Option<u64>; 3] = [None; 3];
                // Rotate which labelling runs first, so drift hits all.
                for j in 0..LABELS.len() {
                    let li = (j + pass + rep) % LABELS.len();
                    let lab = &labelled[li];
                    let ctx = KernelCtx {
                        source: Some(lab.perm.as_ref().map_or(src, |p| p.apply(src))),
                        pr_iterations: PR_ITERATIONS,
                        ..KernelCtx::default()
                    };
                    let id = spans.begin(format!("engine.run.{kernel}.{}", LABELS[li]), root);
                    let t = Instant::now();
                    let outcome = execute_plan(
                        kernel,
                        &lab.graph,
                        &ctx,
                        NoProbe,
                        &mut pool,
                        &Budget::unlimited(),
                        ExecPlan::Serial,
                    );
                    let secs = t.elapsed().as_secs_f64();
                    spans.end(id);
                    match outcome {
                        Some(ExecOutcome::Completed(run)) => {
                            checksums[li] = Some(std::hint::black_box(run.checksum));
                            cells.entry((ki, li, traced)).or_default().push(secs * 1e3);
                            if cfg.trace {
                                record_kernel(&mut out.samples, kernel, li, secs, &run.stats);
                            }
                        }
                        _ => out.checks.record(Err(format!(
                            "{kernel} on {} labels did not complete",
                            LABELS[li]
                        ))),
                    }
                }
                for (li, c) in checksums.iter().enumerate() {
                    if let Some(c) = *c {
                        let original = checksums[0].unwrap_or(c);
                        out.checks
                            .record(check_checksum(kernel, LABELS[li], c, original));
                    }
                }
            }
        }
        spans.end(root);
        Ok(())
    })?;

    let cell = |ki, li, traced| cell_ms(&cells, ki, li, traced);
    if cfg.trace {
        let s = &mut out.samples;
        let both = |ki, li| [cell(ki, li, false), cell(ki, li, true)].concat();
        let mut saving_s = 0.0;
        for (ki, kernel) in KERNELS.into_iter().enumerate() {
            let (orig, gorder) = (both(ki, 0), both(ki, 1));
            if orig.len() == gorder.len() {
                // Pairs share the pass, the rep and the logical source.
                let p = paired_stats(&orig, &gorder);
                s.push(
                    &format!("derived.speedup.{kernel}.Gorder"),
                    (-p.median_log_ratio).exp(),
                );
            }
            saving_s += (median(&orig) - median(&gorder)) / 1e3;
        }
        let build_s = s.median("orders.build_s.Gorder");
        // 0 when Gorder saves nothing per pass: it never breaks even.
        s.push(
            "derived.break_even_runs",
            if saving_s > 0.0 {
                build_s / saving_s
            } else {
                0.0
            },
        );
        record_graph_layer(s, &spans, &LABELS[1..]);
        record_self_times(s, &spans, "job");
        let (t, u) = (pass_geomean(&cells, true), pass_geomean(&cells, false));
        s.push("obs.trace_overhead_frac", overhead_frac(&[t], &[u]));
        write_spans(cfg, &spans)?;
    } else {
        out.samples.push("job_ms", pass_geomean(&cells, false));
        let rss = crate::peak_rss_mb("self").ok_or("cannot read VmHWM")?;
        out.samples.push("peak_rss_mb", rss);
    }
    Ok(out)
}

/// Builds the graph and its Gorder and RCM labellings, [`SETUP_REPS`]
/// times; returns the last, Original first.
fn setup(cfg: &RunConfig, out: &mut Outcome, spans: &mut Spans) -> Result<Vec<Labelled>, String> {
    let dataset = datasets::sdarc_like();
    let mut labelled = Vec::new();
    for _ in 0..SETUP_REPS {
        labelled.clear(); // free the previous build before the next
        let t = Instant::now();
        let root = spans.begin("setup", None);
        let g = spans.time("graph.generate", root, || dataset.build(SCALE));
        let mut built = Vec::new();
        for name in &LABELS[1..] {
            let id = spans.begin(format!("orders.build.{name}"), root);
            let b = Instant::now();
            let run = build_ordering(name, &g)?;
            let build_secs = b.elapsed().as_secs_f64();
            spans.end(id);
            let h = spans.time(format!("graph.relabel.{name}"), root, || {
                g.relabel(&run.perm)
            });
            built.push((*name, run, build_secs, h));
        }
        spans.end(root);
        if !cfg.trace {
            out.samples.push("setup_s", t.elapsed().as_secs_f64());
        }
        let n = g.n();
        labelled.push(Labelled {
            graph: g,
            perm: None,
        });
        for (name, run, build_secs, h) in built {
            let check = check_permutation(run.perm.as_slice(), n, dataset.name, SCALE, name);
            let valid = check.is_ok();
            out.checks.record(check);
            if !valid {
                return Err(format!("{name} permutation failed its checks"));
            }
            if cfg.trace {
                record_build(
                    &mut out.samples,
                    name,
                    &labelled[0].graph,
                    &run.stats,
                    build_secs,
                );
            }
            labelled.push(Labelled {
                graph: h,
                perm: Some(run.perm),
            });
        }
    }
    Ok(labelled)
}

/// Records one kernel run's wall time and engine-reported phases.
fn record_kernel(s: &mut Samples, kernel: &str, li: usize, secs: f64, st: &KernelStats) {
    let cell = format!("{kernel}.{}", LABELS[li]);
    s.push(&format!("kernel_ms.{cell}"), secs * 1e3);
    s.push(&format!("engine.init_ms.{cell}"), st.init_secs * 1e3);
    s.push(&format!("engine.compute_ms.{cell}"), st.compute_secs * 1e3);
    if st.edges_relaxed > 0 {
        let ns = st.compute_secs * 1e9 / st.edges_relaxed as f64;
        s.push(&format!("engine.ns_per_edge.{cell}"), ns);
    }
    if li == 0 {
        s.push(
            &format!("engine.edges_relaxed.{kernel}"),
            st.edges_relaxed as f64,
        );
    }
}

fn median(xs: &[f64]) -> f64 {
    crate::metrics::summarize(xs).median
}

/// Wall times in ms by (kernel, label, timed in a traced pass).
type Cells = BTreeMap<(usize, usize, bool), Vec<f64>>;

fn cell_ms(cells: &Cells, ki: usize, li: usize, traced: bool) -> &[f64] {
    cells.get(&(ki, li, traced)).map_or(&[], Vec::as_slice)
}

/// Geometric mean, over the gated cells (each kernel on Original and
/// Gorder labels), of each cell's median wall time in ms — so every
/// kernel weighs the same, however long it runs.
fn pass_geomean(cells: &Cells, traced: bool) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0.0;
    for ki in 0..KERNELS.len() {
        for li in 0..2 {
            log_sum += median(cell_ms(cells, ki, li, traced)).ln();
            n += 1.0;
        }
    }
    (log_sum / n).exp()
}
