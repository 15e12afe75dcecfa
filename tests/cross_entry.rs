//! One question, three entry points: the CLI `run` path, a sweep-grid
//! cell and a served `run` request must report the same checksum for the
//! same dataset, ordering and seed. WCC and LP are covered because they
//! are the extension kernels the server runs most (WCC is part of the
//! served benchmark mix); all three entry points reach them through the
//! engine's name table.

use gorder_bench::{run_grid, GridConfig};
use gorder_cli::remote::{call, RemoteRequest, RetryPolicy};
use gorder_cli::run_algorithm_budgeted;
use gorder_serve::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DATASET: &str = "wiki";
const SCALE: f64 = 0.02;
const ORDERING: &str = "Gorder";
const WINDOW: u32 = 5;
const SEED: u64 = 3;
const ALGOS: [&str; 2] = ["WCC", "LP"];

/// The checksum a `run` report carries (`... checksum 0x1f in ...`).
fn report_checksum(report: &str) -> u64 {
    let hex = report
        .split("checksum 0x")
        .nth(1)
        .unwrap_or_else(|| panic!("no checksum in {report:?}"));
    let end = hex
        .find(|c: char| !c.is_ascii_hexdigit())
        .unwrap_or(hex.len());
    u64::from_str_radix(&hex[..end], 16).unwrap()
}

#[test]
fn extension_kernels_agree_across_cli_grid_and_server() {
    let dataset = gorder::graph::datasets::by_name(DATASET).unwrap();

    let mut cfg = GridConfig::new(SCALE, 1, SEED, true);
    cfg.datasets = vec![dataset];
    cfg.orderings = Some(vec![ORDERING.into()]);
    cfg.algos = Some(ALGOS.iter().map(|a| a.to_string()).collect());
    cfg.extended = true;
    let cells = run_grid(&cfg);
    assert_eq!(cells.len(), ALGOS.len());

    let server = Server::bind(ServerConfig {
        datasets: vec![DATASET.into()],
        scale: SCALE,
        workers: 1,
        drain_grace: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(&flag));

    let g = dataset.build(SCALE);
    for algo in ALGOS {
        let cli = run_algorithm_budgeted(&g, algo, Some(ORDERING), WINDOW, SEED, None, 1)
            .unwrap()
            .report;
        let served = call(
            &addr,
            &RemoteRequest {
                op: "run".into(),
                dataset: Some(DATASET.into()),
                ordering: Some(ORDERING.into()),
                algo: Some(algo.into()),
                window: WINDOW,
                seed: SEED,
                timeout_ms: None,
                threads: 1,
            },
            &RetryPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("served {algo}: {e:?}"));
        assert_eq!(served.status, "ok", "{}", served.report);
        let grid = cells.iter().find(|c| c.algo == algo).unwrap();
        assert_eq!(grid.ordering, ORDERING);

        let cli = report_checksum(&cli);
        assert_eq!(grid.checksum, cli, "{algo}: grid vs CLI");
        assert_eq!(
            report_checksum(&served.report),
            cli,
            "{algo}: server vs CLI"
        );
    }

    shutdown.store(true, Ordering::Release);
    let summary = handle.join().expect("server thread").expect("drain");
    assert_eq!(summary.accepted, summary.answered);
}
