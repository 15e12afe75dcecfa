//! One question, three entry points: the CLI `run` path, a sweep-grid
//! cell and a served `run` request must report the same checksum for the
//! same dataset, ordering and seed. WCC and LP are covered because they
//! are the extension kernels the server runs most (WCC is part of the
//! served benchmark mix); NQ, BFS and SP are the paper kernels the
//! served benchmark mix runs, under the Original and Gorder labels. All
//! three entry points reach them through the engine's name table. A
//! served `order` must also name the permutation the CLI resolves: its
//! trace checksum is that permutation's FNV-1a digest.

use std::path::PathBuf;

use gorder_bench::{run_grid, CellResult, GridConfig};
use gorder_cli::remote::{call, RemoteRequest, RetryPolicy};
use gorder_cli::{resolve_ordering_cached, run_algorithm_budgeted};
use gorder_serve::{DrainSummary, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DATASET: &str = "wiki";
const SCALE: f64 = 0.02;
const ORDERING: &str = "Gorder";
const WINDOW: u32 = 5;
const SEED: u64 = 3;
const ALGOS: [&str; 2] = ["WCC", "LP"];
const PAPER_ALGOS: [&str; 3] = ["NQ", "BFS", "SP"];

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

/// FNV-1a over the permutation's little-endian `u32` entries.
fn perm_digest(perm: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in perm {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn grid_cells(orderings: &[&str], algos: &[&str]) -> Vec<CellResult> {
    let mut cfg = GridConfig::new(SCALE, 1, SEED, true);
    cfg.datasets = vec![gorder::graph::datasets::by_name(DATASET).unwrap()];
    cfg.orderings = Some(orderings.iter().map(|o| o.to_string()).collect());
    cfg.algos = Some(algos.iter().map(|a| a.to_string()).collect());
    cfg.extended = true;
    let cells = run_grid(&cfg);
    assert_eq!(cells.len(), orderings.len() * algos.len());
    cells
}

/// A one-worker server on an ephemeral port, optionally tracing.
struct Running {
    addr: String,
    shutdown: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<DrainSummary>>,
}

impl Running {
    fn start(trace_path: Option<PathBuf>) -> Running {
        let server = Server::bind(ServerConfig {
            datasets: vec![DATASET.into()],
            scale: SCALE,
            workers: 1,
            drain_grace: Duration::from_secs(2),
            trace_path,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&flag));
        Running {
            addr,
            shutdown,
            handle,
        }
    }

    fn call(&self, op: &str, ordering: Option<&str>, algo: Option<&str>) -> String {
        let reply = call(
            &self.addr,
            &RemoteRequest {
                op: op.into(),
                dataset: Some(DATASET.into()),
                ordering: ordering.map(str::to_string),
                algo: algo.map(str::to_string),
                window: WINDOW,
                seed: SEED,
                timeout_ms: None,
                threads: 1,
            },
            &RetryPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("served {op} {algo:?} over {ordering:?}: {e:?}"));
        assert_eq!(reply.status, "ok", "{}", reply.report);
        reply.report
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::Release);
        let summary = self.handle.join().expect("server thread").expect("drain");
        assert_eq!(summary.accepted, summary.answered);
    }
}

/// Checks `algos` under each label (`None` = Original) across the
/// three entry points.
fn assert_entry_points_agree(labels: &[Option<&str>], algos: &[&str]) {
    let names: Vec<&str> = labels.iter().map(|l| l.unwrap_or("Original")).collect();
    let cells = grid_cells(&names, algos);
    let server = Running::start(None);
    let g = gorder::graph::datasets::by_name(DATASET)
        .unwrap()
        .build(SCALE);
    for (&label, &name) in labels.iter().zip(&names) {
        for &algo in algos {
            let cli = run_algorithm_budgeted(&g, algo, label, WINDOW, SEED, None, 1)
                .unwrap()
                .report;
            let served = server.call("run", label, Some(algo));
            let grid = cells
                .iter()
                .find(|c| c.algo == algo && c.ordering == name)
                .unwrap_or_else(|| panic!("no grid cell for {algo} over {name}"));

            let cli = report_checksum(&cli);
            assert_eq!(grid.checksum, cli, "{algo} over {name}: grid vs CLI");
            assert_eq!(
                report_checksum(&served),
                cli,
                "{algo} over {name}: server vs CLI"
            );
        }
    }
    server.stop();
}

#[test]
fn extension_kernels_agree_across_cli_grid_and_server() {
    assert_entry_points_agree(&[Some(ORDERING)], &ALGOS);
}

#[test]
fn paper_kernels_agree_across_cli_grid_and_server() {
    assert_entry_points_agree(&[None, Some(ORDERING)], &PAPER_ALGOS);
}

#[test]
fn served_order_checksum_is_the_cli_permutation_digest() {
    let dir = std::env::temp_dir().join(format!("gorder-cross-entry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let server = Running::start(Some(trace.clone()));
    for ordering in [ORDERING, "RCM"] {
        server.call("order", Some(ordering), None);
    }
    server.stop();

    let g = gorder::graph::datasets::by_name(DATASET)
        .unwrap()
        .build(SCALE);
    let body = std::fs::read_to_string(&trace).unwrap();
    let mut seen = 0;
    for line in body.lines() {
        let rec = gorder_obs::json::parse_object(line).unwrap();
        let field = |k: &str| gorder_obs::json::parse_string(&rec[k]).unwrap();
        if field("kind") != "serve" || field("op") != "order" {
            continue;
        }
        let ordering = field("ordering");
        let cli = resolve_ordering_cached(&g, &ordering, WINDOW, SEED, None, None, None)
            .unwrap()
            .perm;
        let served: u64 = rec["checksum"].parse().unwrap();
        assert_eq!(
            served,
            perm_digest(cli.as_slice()),
            "served {ordering} digest vs the CLI's permutation"
        );
        seen += 1;
    }
    assert_eq!(seen, 2, "one order record per request");
    let _ = std::fs::remove_dir_all(&dir);
}
