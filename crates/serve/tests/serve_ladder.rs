//! End-to-end ladder tests: a real `Server` on an ephemeral port, driven
//! by raw sockets and by the retrying `gorder-cli remote` client.
//!
//! The fault plan is process-global (`gorder_obs::faults`), so every
//! test takes [`fault_lock`] — including the ones that arm nothing —
//! and disarms on drop.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gorder_cli::remote::{call, RemoteError, RemoteRequest, RetryPolicy};
use gorder_serve::server::{DrainSummary, Server, ServerConfig};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests (shared global fault plan + registry) and guarantees
/// a clean plan on entry and exit.
fn fault_lock() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gorder_obs::faults::disarm();
    guard
}

struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        gorder_obs::faults::disarm();
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gorder-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small, fast server config: one dataset at a tiny scale.
fn test_config() -> ServerConfig {
    ServerConfig {
        datasets: vec!["wiki".to_string()],
        scale: 0.02,
        drain_grace: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

struct Running {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<DrainSummary>>,
}

impl Running {
    fn start(cfg: ServerConfig) -> Running {
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || server.run(&flag));
        Running {
            addr,
            shutdown,
            handle,
        }
    }

    fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// SIGTERM-equivalent: flip the flag the signal handler would set.
    fn sigterm(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    fn join(self) -> DrainSummary {
        self.handle.join().expect("server thread").expect("run")
    }
}

/// One raw request/response exchange, no retries: returns the response
/// line (empty string if the server closed without replying).
fn raw_request(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut w = &stream;
    w.write_all(line.as_bytes()).unwrap();
    w.write_all(b"\n").unwrap();
    let mut reply = String::new();
    let _ = BufReader::new(&stream).read_line(&mut reply);
    reply.trim_end().to_string()
}

fn work_request(op: &str, ordering: Option<&str>, algo: Option<&str>) -> RemoteRequest {
    RemoteRequest {
        op: op.to_string(),
        dataset: Some("wiki".to_string()),
        ordering: ordering.map(str::to_string),
        algo: algo.map(str::to_string),
        window: 5,
        seed: 0,
        timeout_ms: None,
        threads: 1,
    }
}

#[test]
fn ladder_serves_tiers_and_drains_into_a_valid_trace() {
    let _guard = fault_lock();
    let dir = tmpdir("ladder");
    let trace = dir.join("trace.jsonl");
    let mut cfg = test_config();
    cfg.trace_path = Some(trace.clone());
    cfg.cache_dir = Some(dir.join("cache"));
    let server = Running::start(cfg);
    let addr = server.addr();
    let policy = RetryPolicy::default();

    // Control tier: health answers inline even before any work.
    let health = call(&addr, &RemoteRequest::control("health"), &policy).unwrap();
    assert_eq!(health.status, "ok");
    assert!(health.report.contains("1 datasets"), "{}", health.report);

    // Full tier: first computation of this identity.
    let first = call(&addr, &work_request("order", Some("Gorder"), None), &policy).unwrap();
    assert_eq!(first.tier.as_deref(), Some("full"));
    assert!(!first.degraded_serial);

    // Cache tier: the same identity again hits the on-disk cache.
    let second = call(&addr, &work_request("order", Some("Gorder"), None), &policy).unwrap();
    assert_eq!(second.tier.as_deref(), Some("cache"));
    let body = |r: &str| r.split(" (tier").next().unwrap().to_string();
    assert_eq!(
        body(&second.report),
        body(&first.report),
        "same permutation either way"
    );

    // Kernels run over the relabeled graph; the Gorder permutation is
    // already warm from the order requests above, so its tier is cache.
    let run = call(
        &addr,
        &work_request("run", Some("Gorder"), Some("PR")),
        &policy,
    )
    .unwrap();
    assert_eq!(run.tier.as_deref(), Some("cache"));
    assert!(run.report.contains("checksum"), "{}", run.report);
    let sim = call(&addr, &work_request("simulate", None, Some("BFS")), &policy).unwrap();
    assert_eq!(sim.tier.as_deref(), Some("full"));

    // Deterministic server error, never retried by the client.
    match call(&addr, &work_request("run", None, Some("NopeAlgo")), &policy) {
        Err(RemoteError::Server(msg)) => assert!(msg.contains("NopeAlgo"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }

    // Shutdown request: ok reply, then a zero-loss drain.
    let bye = call(&addr, &RemoteRequest::control("shutdown"), &policy).unwrap();
    assert_eq!(bye.status, "ok");
    let summary = server.join();
    assert_eq!(
        summary.accepted, summary.answered,
        "every accepted request was answered: {summary:?}"
    );

    // The flushed trace passes strict validation...
    let verdict = gorder_cli::validate_trace_file(&trace, false).expect("trace validates");
    assert!(
        verdict.contains("serve"),
        "serve records present: {verdict}"
    );

    // ...and serve records keep the golden key order.
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/trace_keys.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    let serve_keys: Vec<String> = golden
        .lines()
        .find_map(|l| l.strip_prefix("serve: "))
        .expect("golden file pins the serve record")
        .split(',')
        .map(str::to_string)
        .collect();
    let body = std::fs::read_to_string(&trace).unwrap();
    let mut seen = 0;
    for line in body.lines().filter(|l| l.contains("\"kind\":\"serve\"")) {
        assert_eq!(
            gorder_obs::json::top_level_keys(line),
            serve_keys,
            "serve record key order matches the golden schema"
        );
        seen += 1;
    }
    assert!(seen >= 5, "all serve ops traced, saw {seen}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturation_sheds_with_retry_hint_and_retrying_client_wins() {
    let _guard = fault_lock();
    let _disarm = Disarm;
    // One slow worker, queue depth one: concurrent requests must shed.
    gorder_obs::faults::arm_from_spec("serve.slow=1+,slow_ms=200").unwrap();
    let mut cfg = test_config();
    cfg.workers = 1;
    cfg.queue_cap = 1;
    cfg.retry_after_ms = 25;
    let server = Running::start(cfg);
    let addr = server.addr();

    let line = "{\"op\":\"order\",\"dataset\":\"wiki\",\"ordering\":\"Original\"}";
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| s.spawn(|| raw_request(&addr, line)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let busy = replies
        .iter()
        .filter(|r| r.contains("\"status\":\"busy\""))
        .count();
    let ok = replies
        .iter()
        .filter(|r| r.contains("\"status\":\"ok\""))
        .count();
    assert!(busy > 0, "saturation sheds: {replies:?}");
    assert!(ok > 0, "but admitted work completes: {replies:?}");
    assert!(
        replies
            .iter()
            .filter(|r| r.contains("busy"))
            .all(|r| r.contains("\"retry_after_ms\":25")),
        "busy carries the configured hint: {replies:?}"
    );

    // The retrying client rides out the same saturation.
    let patient = RetryPolicy {
        attempts: 20,
        base_ms: 40,
        budget_ms: 20_000,
        seed: 1,
    };
    let won = call(
        &addr,
        &work_request("order", Some("Original"), None),
        &patient,
    )
    .unwrap();
    assert_eq!(won.status, "ok");

    server.sigterm();
    let summary = server.join();
    assert_eq!(summary.accepted, summary.answered, "{summary:?}");
    assert_eq!(summary.shed, busy as u64, "shed accounting matches");
}

#[test]
fn worker_panic_falls_back_to_serial_then_to_structured_error() {
    let _guard = fault_lock();
    let _disarm = Disarm;
    // Fire on the first attempt only: the serial retry must succeed.
    gorder_obs::faults::arm_from_spec("serve.worker=1").unwrap();
    let server = Running::start(test_config());
    let addr = server.addr();
    let policy = RetryPolicy::default();

    let degraded = call(&addr, &work_request("order", Some("RCM"), None), &policy).unwrap();
    assert_eq!(degraded.status, "ok");
    assert!(
        degraded.degraded_serial,
        "first attempt panicked, serial retry answered: {degraded:?}"
    );

    // Same request again: the plan is spent, both attempts are clean.
    let clean = call(&addr, &work_request("order", Some("RCM"), None), &policy).unwrap();
    assert!(!clean.degraded_serial, "{clean:?}");

    // Now panic on every attempt: the ladder ends in a structured error.
    gorder_obs::faults::disarm();
    gorder_obs::faults::arm_from_spec("serve.worker=1+").unwrap();
    match call(&addr, &work_request("order", Some("RCM"), None), &policy) {
        Err(RemoteError::Server(msg)) => {
            assert!(msg.contains("panicked twice"), "{msg}");
        }
        other => panic!("expected structured panic error, got {other:?}"),
    }

    gorder_obs::faults::disarm();
    server.sigterm();
    let summary = server.join();
    assert_eq!(summary.accepted, summary.answered, "{summary:?}");
}

#[test]
fn sigterm_mid_flight_drains_without_losing_accepted_requests() {
    let _guard = fault_lock();
    let _disarm = Disarm;
    // Slow the handler so requests are still in flight at SIGTERM.
    gorder_obs::faults::arm_from_spec("serve.slow=1+,slow_ms=150").unwrap();
    let mut cfg = test_config();
    cfg.workers = 2;
    cfg.queue_cap = 8;
    let server = Running::start(cfg);
    let addr = server.addr();

    let line = "{\"op\":\"order\",\"dataset\":\"wiki\",\"ordering\":\"Original\"}";
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..5)
            .map(|_| s.spawn(|| raw_request(&addr, line)))
            .collect();
        // Let the requests land, then pull the plug mid-flight.
        std::thread::sleep(Duration::from_millis(60));
        server.sigterm();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert!(
            r.contains("\"status\":"),
            "every in-flight client still got a structured reply: {r:?}"
        );
    }
    let summary = server.join();
    assert_eq!(
        summary.accepted, summary.answered,
        "drain answered everything it accepted: {summary:?}"
    );
}

#[test]
fn single_flight_shares_concurrent_identical_orderings() {
    let _guard = fault_lock();
    let mut cfg = test_config();
    cfg.workers = 4;
    cfg.queue_cap = 8;
    let server = Running::start(cfg);
    let addr = server.addr();

    // Same identity raced from four clients: the followers are served
    // from the leader's flight (tier "cache") without recomputing.
    let line = "{\"op\":\"order\",\"dataset\":\"wiki\",\"ordering\":\"Gorder\",\"window\":5}";
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(|| raw_request(&addr, line)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        replies.iter().all(|r| r.contains("\"status\":\"ok\"")),
        "{replies:?}"
    );
    let shared = replies
        .iter()
        .filter(|r| r.contains("\"tier\":\"cache\""))
        .count();
    let full = replies
        .iter()
        .filter(|r| r.contains("\"tier\":\"full\""))
        .count();
    assert_eq!(full + shared, 4, "{replies:?}");
    assert!(full >= 1, "someone led the flight: {replies:?}");

    server.sigterm();
    let summary = server.join();
    assert_eq!(summary.accepted, summary.answered, "{summary:?}");
}

/// The `(kernel, serve)` record pairs of a one-worker daemon's trace,
/// for the requests that ran a kernel: with one worker a request's
/// records are contiguous and its `serve` record comes last.
fn kernel_serve_pairs(
    trace: &std::path::Path,
) -> Vec<(
    std::collections::BTreeMap<String, String>,
    std::collections::BTreeMap<String, String>,
)> {
    let body = std::fs::read_to_string(trace).unwrap();
    let mut kernel = None;
    let mut pairs = Vec::new();
    for line in body.lines() {
        let rec = gorder_obs::json::parse_object(line).unwrap();
        match rec["kind"].as_str() {
            "\"kernel\"" => kernel = Some(rec),
            "\"serve\"" => {
                if let Some(k) = kernel.take() {
                    pairs.push((k, rec));
                }
            }
            _ => {}
        }
    }
    pairs
}

#[test]
fn served_kernel_records_carry_the_kernel_checksum_and_the_served_label() {
    let _guard = fault_lock();
    let dir = tmpdir("labels");
    let trace = dir.join("trace.jsonl");
    let mut cfg = test_config();
    cfg.workers = 1;
    cfg.trace_path = Some(trace.clone());
    cfg.cache_dir = Some(dir.join("cache"));
    let server = Running::start(cfg);
    let addr = server.addr();
    let policy = RetryPolicy::default();

    // Two identical Gorder runs (tiers full, then cache), one over the
    // original labels, one whose ordering gets no time (RCM has no
    // anytime path, so it lands on tier original), and a simulate.
    let mut rcm = work_request("run", Some("RCM"), Some("BFS"));
    rcm.timeout_ms = Some(0);
    let requests = [
        work_request("run", Some("Gorder"), Some("BFS")),
        work_request("run", Some("Gorder"), Some("BFS")),
        work_request("run", None, Some("BFS")),
        rcm,
        work_request("simulate", Some("Gorder"), Some("NQ")),
    ];
    let mut tiers = Vec::new();
    for req in &requests {
        let reply = call(&addr, req, &policy).unwrap();
        assert_eq!(reply.status, "ok", "{}", reply.report);
        tiers.push(reply.tier.unwrap());
    }
    assert_eq!(tiers, ["full", "cache", "full", "original", "cache"]);
    server.sigterm();
    server.join();

    let pairs = kernel_serve_pairs(&trace);
    assert_eq!(pairs.len(), requests.len(), "one kernel record per request");
    let labels: Vec<&str> = pairs.iter().map(|(k, _)| k["ordering"].as_str()).collect();
    assert_eq!(
        labels,
        [
            "\"Gorder\"",
            "\"Gorder\"",
            "\"Original\"",
            "\"Original\"",
            "\"Gorder\""
        ],
        "the kernel record names the labels the kernel ran over"
    );
    for (kernel, serve) in &pairs {
        assert_eq!(
            serve["checksum"], kernel["checksum"],
            "the serve record carries the kernel checksum"
        );
    }
    let (first, second) = (&pairs[0].1, &pairs[1].1);
    assert_eq!(
        first["checksum"], second["checksum"],
        "identical requests record equal checksums"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
