//! The CLI and the serve daemon key the permutation cache the same way:
//! a cache written by `gorder-cli order --order-cache DIR` is a hit for
//! a daemon started on `DIR` over the same dataset and scale, although
//! the daemon builds its keys from a digest it computed once at start-up
//! rather than by hashing the graph per request.

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gorder_cli::remote::{call, RemoteRequest, RetryPolicy};
use gorder_orders::CacheKey;
use gorder_serve::{Server, ServerConfig};

const DATASET: &str = "wiki";
const SCALE: f64 = 0.02;
const WINDOW: u32 = 5;
const SEED: u64 = 9;

#[test]
fn daemon_hits_a_cache_the_cli_wrote() {
    let dir = std::env::temp_dir().join(format!("gorder-cli-served-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");
    let input = dir.join("wiki.bin");
    let g = gorder_graph::datasets::by_name(DATASET)
        .unwrap()
        .build(SCALE);
    gorder_cli::save(&g, &input).unwrap();

    for ordering in ["Gorder", "RCM"] {
        let status = Command::new(env!("CARGO_BIN_EXE_gorder-cli"))
            .arg("order")
            .arg(&input)
            .arg(dir.join(format!("{ordering}.bin")))
            .args(["--method", ordering])
            .args(["--window", &WINDOW.to_string()])
            .args(["--seed", &SEED.to_string()])
            .arg("--order-cache")
            .arg(&cache)
            .status()
            .expect("run gorder-cli");
        assert!(status.success(), "gorder-cli order --method {ordering}");
    }

    let trace = dir.join("trace.jsonl");
    let server = Server::bind(ServerConfig {
        datasets: vec![DATASET.into()],
        scale: SCALE,
        workers: 1,
        drain_grace: Duration::from_secs(2),
        trace_path: Some(trace.clone()),
        cache_dir: Some(cache),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(&flag));
    let mut want = Vec::new();
    for ordering in ["Gorder", "RCM"] {
        let reply = call(
            &addr,
            &RemoteRequest {
                op: "order".into(),
                dataset: Some(DATASET.into()),
                ordering: Some(ordering.into()),
                algo: None,
                window: WINDOW,
                seed: SEED,
                timeout_ms: None,
                threads: 1,
            },
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(reply.status, "ok", "{}", reply.report);
        assert_eq!(reply.tier.as_deref(), Some("cache"), "{}", reply.report);
        let o = gorder_cli::ordering_by_name(ordering, WINDOW, SEED).unwrap();
        want.push(CacheKey::for_ordering(&g, o.as_ref(), SEED).identity());
    }
    shutdown.store(true, Ordering::Release);
    handle.join().expect("server thread").expect("drain");

    let body = std::fs::read_to_string(&trace).unwrap();
    let identities: Vec<String> = body
        .lines()
        .map(|line| gorder_obs::json::parse_object(line).unwrap())
        .filter(|rec| rec["kind"] == "\"order\"")
        .map(|rec| {
            assert_eq!(rec["cache_hit"], "true");
            gorder_obs::json::parse_string(&rec["identity"]).unwrap()
        })
        .collect();
    assert_eq!(identities, want, "the daemon's keys are the CLI's keys");
    let _ = std::fs::remove_dir_all(&dir);
}
