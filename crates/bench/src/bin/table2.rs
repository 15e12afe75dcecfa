//! Table 2 — graph-ordering computation time (the paper's Table 9).
//!
//! Times each ordering method's `compute` on every dataset. The paper's
//! shape to reproduce: ChDFS/InDegSort fastest (sub-second), RCM next,
//! SlashBurn/LDG moderate, MinLA < MinLogA expensive, Gorder the most
//! expensive and visibly super-linear in m.

use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::robust::{resolve_ordering, OrderHooks};
use gorder_bench::schema::TABLE2_HEADER;
use gorder_bench::timing::{pretty_secs, time_once};
use gorder_bench::{
    check_algo_filter, check_ordering_filter, expected_config_hash, HarnessArgs, ResumeState,
    SweepTrace,
};
use gorder_core::budget::ExecOutcome;
use gorder_engine::{ExecPlan, KernelCtx};
use gorder_obs::{CellEvent, OrderEvent, TraceEvent};
use gorder_orders::{OrderCache, OrderingAlgorithm};
use std::sync::Arc;

fn main() {
    let args = HarnessArgs::parse();
    if let Some(spec) = &args.faults {
        if let Err(e) = gorder_obs::faults::arm_from_spec(spec) {
            eprintln!("error: --faults {e}");
            std::process::exit(2);
        }
    }
    println!(
        "Table 2: ordering computation time in seconds (scale = {})\n",
        args.scale
    );
    let timeout = args.cell_timeout_duration();
    let datasets = match &args.datasets {
        None => gorder_graph::datasets::all(),
        Some(names) => names
            .iter()
            .map(|n| {
                gorder_graph::datasets::by_name(n).unwrap_or_else(|| {
                    eprintln!("error: --datasets: unknown dataset {n:?}");
                    std::process::exit(2);
                })
            })
            .collect(),
    };
    if let Err(e) = check_ordering_filter(&args.orderings)
        .and_then(|()| check_algo_filter(&args.algos, args.has_flag("--extended")))
    {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let cache = args.order_cache.as_ref().map(|dir| {
        OrderCache::new(std::path::Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("error: --order-cache {dir}: {e}");
            std::process::exit(2)
        })
    });
    let orderings: Vec<Arc<dyn OrderingAlgorithm>> = gorder_orders::all(args.seed)
        .into_iter()
        .filter(|o| match &args.orderings {
            None => true,
            Some(keep) => keep.iter().any(|k| k == o.name()),
        })
        .map(Arc::from)
        .collect();
    // Parse the prior trace before SweepTrace::open truncates the
    // `--trace-out` target (`--resume X --trace-out X` after a crash).
    let resume = args.resume.as_ref().map(|path| {
        match ResumeState::load(path, expected_config_hash("table2", &args)) {
            Ok(s) => {
                eprintln!(
                    "[table2] resuming from {path}: {} completed cells, {} rows",
                    s.cell_count(),
                    s.row_count()
                );
                s
            }
            Err(e) => {
                eprintln!("error: --resume {e}");
                std::process::exit(2);
            }
        }
    });
    // Original and Random cost nothing interesting; the paper's table
    // starts at MinLA. Keep them anyway — they are part of the zoo.
    let mut header = vec!["Ordering".to_string()];
    header.extend(datasets.iter().map(|d| d.name.to_string()));
    let mut t = Table::new(header);
    let mut csv_rows = Vec::new();

    let graphs: Vec<Arc<_>> = datasets
        .iter()
        .map(|d| {
            let g = d.build(args.scale);
            eprintln!("[table2] {}: n = {}, m = {}", d.name, g.n(), g.m());
            Arc::new(g)
        })
        .collect();

    // --trace-out streams one `cell` line per timed ordering (algo
    // "order"), flushed as it lands — an interrupted table run is
    // reconstructable from disk.
    let mut trace = SweepTrace::open("table2", &args);
    let mut skips: Vec<String> = Vec::new();
    for o in &orderings {
        let mut cells = vec![o.name().to_string()];
        for (d, g) in datasets.iter().zip(&graphs) {
            // Recovery first: a cell whose `cell` line (status
            // completed) *and* verbatim `row` line both survived the
            // prior trace is re-emitted without recomputing. The graphs
            // themselves are still built — the "Edges m" footer needs
            // every m — but the expensive ordering computation and BFS
            // probe are skipped.
            let key = format!("{}|{}", o.name(), d.name);
            let recovered = resume.as_ref().and_then(|s| {
                let c = s.completed_cell(d.name, o.name(), "order")?;
                Some((c, s.row("table2.csv", &key)?.to_vec()))
            });
            if let Some((rec, row)) = recovered {
                let shown = pretty_secs(rec.seconds);
                trace.event(&TraceEvent::Cell(CellEvent {
                    dataset: d.name.to_string(),
                    ordering: o.name().to_string(),
                    algo: "order".to_string(),
                    status: "completed".to_string(),
                    seconds: rec.seconds,
                    checksum: 0,
                }));
                trace.row("table2.csv", &key, &row);
                cells.push(shown.clone());
                csv_rows.push(row);
                eprintln!("[table2]   {} on {}: {shown} (recovered)", o.name(), d.name);
                continue;
            }
            // Guarded: a panicking or runaway ordering marks its cell
            // and the table continues, instead of the whole run dying.
            // With --order-cache a previously completed permutation is
            // loaded instead of recomputed; the `order` trace line's
            // `cache_hit` says which happened.
            let mut order_ev: Option<OrderEvent> = None;
            let (secs, outcome) = {
                let mut on_order = |e: &OrderEvent| order_ev = Some(e.clone());
                let mut hooks = OrderHooks {
                    cache: cache.as_ref(),
                    seed: args.seed,
                    on_order: &mut on_order,
                };
                time_once(|| {
                    resolve_ordering(
                        o,
                        g,
                        Some(d.name),
                        gorder_orders::ExecPlan::Serial,
                        timeout,
                        Some(&mut hooks),
                    )
                })
            };
            if let Some(e) = &order_ev {
                trace.order(e);
            }
            let (shown, note, perm, status) = match outcome {
                ExecOutcome::Completed(perm) => {
                    assert_eq!(perm.len(), g.n(), "invalid permutation from {}", o.name());
                    (pretty_secs(secs), None, Some(perm), "completed")
                }
                ExecOutcome::Degraded(perm, reason) => {
                    assert_eq!(perm.len(), g.n(), "invalid permutation from {}", o.name());
                    (
                        format!("{}*", pretty_secs(secs)),
                        Some(format!("degraded: {reason}")),
                        Some(perm),
                        "degraded",
                    )
                }
                ExecOutcome::TimedOut => (
                    "timeout".to_string(),
                    Some("timed out".to_string()),
                    None,
                    "timed-out",
                ),
                ExecOutcome::Failed(msg) => ("failed".to_string(), Some(msg), None, "failed"),
            };
            if let Some(note) = note {
                skips.push(format!("{} on {}: {note}", o.name(), d.name));
            }
            trace.event(&TraceEvent::Cell(CellEvent {
                dataset: d.name.to_string(),
                ordering: o.name().to_string(),
                algo: "order".to_string(),
                status: status.to_string(),
                seconds: if perm.is_some() { secs } else { f64::NAN },
                checksum: 0,
            }));
            // Layout sanity probe: one engine BFS on the relabeled graph.
            // Equal work counters across orderings confirm every layout
            // solves the same instance; empty cells mark unusable layouts.
            // `--threads` parallelises the probe — counters stay identical
            // to serial by the engine's determinism contract.
            let plan = ExecPlan::with_threads(args.threads);
            let (bfs_iters, bfs_edges, bfs_threads) = match &perm {
                Some(perm) => {
                    let rg = g.relabel(perm);
                    let stats =
                        gorder_engine::run_by_name_plan("BFS", &rg, &KernelCtx::default(), plan)
                            .expect("BFS is a kernel")
                            .stats;
                    (
                        stats.iterations.to_string(),
                        stats.edges_relaxed.to_string(),
                        stats.threads_used.max(1).to_string(),
                    )
                }
                None => (String::new(), String::new(), String::new()),
            };
            cells.push(shown.clone());
            let row = vec![
                o.name().to_string(),
                d.name.to_string(),
                format!("{secs:.6}"),
                bfs_iters,
                bfs_edges,
                bfs_threads,
            ];
            // the verbatim row line is what a later --resume replays
            trace.row("table2.csv", &key, &row);
            csv_rows.push(row);
            eprintln!("[table2]   {} on {}: {shown}", o.name(), d.name);
        }
        t.row(cells);
    }
    // edge counts footer, as in the replication
    let mut m_row = vec!["Edges m".to_string()];
    m_row.extend(graphs.iter().map(|g| g.m().to_string()));
    t.row(m_row);

    t.print();
    if !skips.is_empty() {
        eprintln!("\n[table2] cells that did not complete cleanly:");
        for s in &skips {
            eprintln!("[table2]   {s}");
        }
    }
    match write_csv("table2.csv", TABLE2_HEADER, &csv_rows) {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    trace.finish();
}
