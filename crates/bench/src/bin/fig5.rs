//! Figure 5 — the headline result (the paper's Figure 9): runtime of every
//! ordering relative to Gorder, for all nine algorithms on all datasets.
//!
//! Default output groups by dataset (Figure 5); pass `--by-ordering` for
//! the S1 supplementary grouping. The grid is also written to
//! `results/fig5.csv`, which `fig6` consumes.
//!
//! Times are **modelled** by default (cache simulator + stall model),
//! because the paper's runtime differences are cache effects and only
//! appear on hardware whose LLC is small relative to the graph — which a
//! laptop-scale reproduction cannot guarantee (this project's dev host
//! has a 260 MiB L3). `--wall` switches to raw wall-clock timing.
//!
//! Shapes to reproduce: Gorder best or near-best everywhere; RCM best on
//! BFS/SP/Diam; ChDFS best on DFS; Random worst; LDG barely better than
//! Random; Original beats MinLA/MinLogA.

use gorder_bench::experiment::run_grid_sim;
use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::schema::FIG5_HEADER;
use gorder_bench::timing::pretty_secs;
use gorder_bench::{
    check_algo_filter, check_ordering_filter, expected_config_hash, run_grid, run_grid_robust_full,
    CellResult, CellStatus, GridConfig, HarnessArgs, OrderHooks, ResumeState, RobustCell,
    SweepTrace,
};
use gorder_obs::OrderEvent;
use gorder_orders::OrderCache;
use std::cell::RefCell;

fn main() {
    let args = HarnessArgs::parse();
    // --faults arms the deterministic fault-injection layer (same
    // grammar as GORDER_FAULTS) — crash-safety tests only.
    if let Some(spec) = &args.faults {
        if let Err(e) = gorder_obs::faults::arm_from_spec(spec) {
            eprintln!("error: --faults {e}");
            std::process::exit(2);
        }
    }
    let mut cfg = GridConfig::new(args.scale, args.reps, args.seed, args.quick);
    // --extended adds HubSort/HubCluster/DBG/Bisect and WCC/Tri/LP/BC
    cfg.extended = args.has_flag("--extended");
    // --threads N parallelises the engine-backed kernels in wall-clock
    // mode; simulated cells always trace serially (and report threads 1).
    cfg.threads = args.threads;
    // --datasets/--orderings/--algos narrow the grid (and are part of
    // the manifest's config hash, so a resumed run must repeat them).
    if let Some(names) = &args.datasets {
        cfg.datasets = names
            .iter()
            .map(|n| {
                gorder_graph::datasets::by_name(n).unwrap_or_else(|| {
                    eprintln!("error: --datasets: unknown dataset {n:?}");
                    std::process::exit(2);
                })
            })
            .collect();
    }
    // Unknown ordering or algorithm names fail before any graph is
    // built, with a typo suggestion when one is close; so does an
    // extension kernel without --extended (its grid has no such cell).
    if let Err(e) = check_ordering_filter(&args.orderings)
        .and_then(|()| check_algo_filter(&args.algos, cfg.extended))
    {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    cfg.orderings = args.orderings.clone();
    cfg.algos = args.algos.clone();
    // Default: modelled time via the cache simulator (reproduces the
    // paper's cache-bound regime regardless of host hardware). Pass
    // --wall for raw wall-clock — meaningful only when the datasets
    // exceed the machine's real LLC. With `--cell-timeout <secs>`, every
    // ordering and cell runs fault-isolated: panicking or runaway cells
    // are skipped (reported at the end), the sweep always finishes.
    let wall = args.has_flag("--wall");
    let mode_note = if wall {
        "(mode: wall-clock)".to_string()
    } else {
        "(mode: simulated — stall-model cycles at 4 GHz; pass --wall for wall-clock)".to_string()
    };
    println!("{mode_note}");
    let csv_name = if cfg.extended {
        "fig5_extended.csv"
    } else {
        "fig5.csv"
    };
    // Parse the prior trace *before* SweepTrace::open truncates the
    // `--trace-out` target — `--resume X --trace-out X` is the natural
    // invocation after a crash.
    let resume = args.resume.as_ref().map(|path| {
        match ResumeState::load(path, expected_config_hash("fig5", &args)) {
            Ok(s) => {
                eprintln!(
                    "[fig5] resuming from {path}: {} completed cells, {} rows{}",
                    s.cell_count(),
                    s.row_count(),
                    if s.truncated_final_line {
                        " (trace ends in a torn line — crash artifact, tolerated)"
                    } else {
                        ""
                    }
                );
                s
            }
            Err(e) => {
                eprintln!("error: --resume {e}");
                std::process::exit(2);
            }
        }
    });
    // --trace-out streams one JSONL line per finished cell plus one
    // `row` line per finished CSV row (the run manifest up front), so a
    // sweep interrupted partway still leaves a reconstructable record
    // next to the CSV — the write-ahead log `--resume` replays.
    // RefCell: the robust path feeds the trace from two closures at once
    // (the cell observer and the order-event hook).
    let trace = RefCell::new(SweepTrace::open("fig5", &args));
    // --order-cache DIR reuses permutations across runs: content-addressed
    // by graph digest + ordering identity, so a warm second run computes
    // zero orderings and reproduces the CSV byte-identically.
    let cache = args.order_cache.as_ref().map(|dir| {
        OrderCache::new(std::path::Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("error: --order-cache {dir}: {e}");
            std::process::exit(2)
        })
    });
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let cells = if args.cell_timeout.is_some() || resume.is_some() || args.order_cache.is_some() {
        // A cell is recovered only when both its `cell` line and its
        // verbatim `row` line survived — a crash between the two lines
        // re-runs the cell rather than guessing at the missing half.
        let recovered = |dataset: &str, ordering: &str, algo: &str| -> Option<CellResult> {
            let s = resume.as_ref()?;
            let cell = s.completed_cell(dataset, ordering, algo)?;
            s.row(csv_name, &format!("{dataset}|{algo}|{ordering}"))?;
            Some(CellResult {
                dataset: dataset.to_string(),
                algo: algo.to_string(),
                ordering: ordering.to_string(),
                seconds: cell.seconds,
                checksum: cell.checksum,
                stats: Default::default(),
            })
        };
        let mut on_cell = |c: &RobustCell| {
            let mut trace = trace.borrow_mut();
            trace.cell(c);
            if c.status.is_usable() {
                let r = &c.result;
                let key = format!("{}|{}|{}", r.dataset, r.algo, r.ordering);
                // prefer the recovered verbatim row (stats of recovered
                // cells are zeroed; the prior run's bytes are the truth)
                let row = resume
                    .as_ref()
                    .and_then(|s| s.row(csv_name, &key))
                    .map(<[String]>::to_vec)
                    .unwrap_or_else(|| fig5_row(r));
                trace.row(csv_name, &key, &row);
                csv_rows.push(row);
            }
        };
        let mut on_order = |e: &OrderEvent| trace.borrow_mut().order(e);
        let mut hooks = OrderHooks {
            cache: cache.as_ref(),
            seed: args.seed,
            on_order: &mut on_order,
        };
        let report = run_grid_robust_full(
            &cfg,
            args.cell_timeout_duration(),
            !wall,
            Some(&recovered),
            Some(&mut hooks),
            &mut on_cell,
        );
        report.print_skip_report();
        report.usable()
    } else {
        let plain = if wall {
            run_grid(&cfg)
        } else {
            run_grid_sim(&cfg)
        };
        // unguarded grids either complete every cell or die; anything
        // we got back is a completed cell
        let mut trace = trace.borrow_mut();
        for c in &plain {
            trace.cell(&RobustCell {
                result: c.clone(),
                status: CellStatus::Completed,
            });
            let row = fig5_row(c);
            trace.row(
                csv_name,
                &format!("{}|{}|{}", c.dataset, c.algo, c.ordering),
                &row,
            );
            csv_rows.push(row);
        }
        plain
    };

    match write_csv(csv_name, FIG5_HEADER, &csv_rows) {
        Ok(p) => eprintln!("[fig5] wrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    // metrics snapshot last: the ordering spans and heap counters the
    // sweep accumulated become the trace's closing lines
    trace.into_inner().finish();

    let algos: Vec<String> = dedup(cells.iter().map(|c| c.algo.clone()));
    let datasets: Vec<String> = dedup(cells.iter().map(|c| c.dataset.clone()));
    let orderings: Vec<String> = dedup(cells.iter().map(|c| c.ordering.clone()));
    let find = |ds: &str, al: &str, or: &str| -> Option<&CellResult> {
        cells
            .iter()
            .find(|c| c.dataset == ds && c.algo == al && c.ordering == or)
    };

    if args.has_flag("--by-ordering") {
        // Figure S1: one block per algorithm, rows = orderings, cols = datasets
        println!("Figure S1: relative runtime vs Gorder, grouped by ordering\n");
        for al in &algos {
            println!("== {al} ==");
            let mut header = vec!["Ordering".to_string()];
            header.extend(datasets.iter().cloned());
            let mut t = Table::new(header);
            for or in &orderings {
                let mut row = vec![or.clone()];
                for ds in &datasets {
                    row.push(relative(find(ds, al, or), find(ds, al, "Gorder")));
                }
                t.row(row);
            }
            t.print();
            println!();
        }
    } else {
        // Figure 5: one block per algorithm, rows = datasets; first row
        // shows Gorder's absolute time, others are relative factors.
        println!("Figure 5: runtime relative to Gorder (1.00 = Gorder)\n");
        for al in &algos {
            println!("== {al} ==");
            let mut header = vec!["Dataset".to_string(), "Gorder abs".to_string()];
            header.extend(orderings.iter().filter(|o| *o != "Gorder").cloned());
            let mut t = Table::new(header);
            for ds in &datasets {
                let gorder = find(ds, al, "Gorder");
                let mut row = vec![
                    ds.clone(),
                    gorder
                        .map(|c| pretty_secs(c.seconds))
                        .unwrap_or_else(|| "-".into()),
                ];
                for or in orderings.iter().filter(|o| *o != "Gorder") {
                    row.push(relative(find(ds, al, or), gorder));
                }
                t.row(row);
            }
            t.print();
            println!();
        }
    }
}

/// One `results/fig5*.csv` row for a freshly computed cell — the exact
/// bytes also recorded as the cell's trace `row` line.
fn fig5_row(c: &CellResult) -> Vec<String> {
    vec![
        c.dataset.clone(),
        c.algo.clone(),
        c.ordering.clone(),
        format!("{:.6}", c.seconds),
        c.checksum.to_string(),
        c.stats.iterations.to_string(),
        c.stats.edges_relaxed.to_string(),
        c.stats.frontier_peak.to_string(),
        // threads actually used: 1 for simulated/serial cells and
        // the extension algorithms (which ignore the plan).
        c.stats.threads_used.max(1).to_string(),
    ]
}

fn relative(cell: Option<&CellResult>, gorder: Option<&CellResult>) -> String {
    match (cell, gorder) {
        (Some(c), Some(g)) if g.seconds > 0.0 => format!("{:.2}", c.seconds / g.seconds),
        _ => "-".into(),
    }
}

fn dedup<I: IntoIterator<Item = String>>(it: I) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for x in it {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}
