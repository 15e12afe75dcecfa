//! Panic-isolation acceptance tests (own process: fault arming is
//! process-global, so these cannot share a binary with tests that assert
//! panic-free parallel runs).
//!
//! The degradation ladder under test: a worker panic during a parallel
//! kernel run must not abort the process — the engine discards the
//! failed attempt, re-runs the cell serially on a fresh kernel, marks
//! the stats `degraded_serial`, and bumps `engine.panic_recovered`.

use gorder_engine::{run_by_name_plan, ExecPlan, KernelCtx};
use gorder_graph::Graph;
use gorder_obs::faults;
use std::sync::Mutex;

// Serialises the tests: the fault plan and its counters are shared.
static FAULTS: Mutex<()> = Mutex::new(());

fn ring_graph(n: u32) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| [(u, (u + 1) % n), (u, (u + 7) % n)])
        .collect();
    Graph::from_edges(n, &edges)
}

#[test]
fn injected_worker_panic_degrades_to_serial_not_abort() {
    let _guard = FAULTS.lock().unwrap();
    let g = ring_graph(200);
    let ctx = KernelCtx::default();
    let clean = run_by_name_plan("PR", &g, &ctx, ExecPlan::Serial).expect("PR is a kernel");
    assert!(!clean.stats.degraded_serial);

    faults::arm_from_spec("engine.worker=1").unwrap();
    let before = gorder_obs::global().counter("engine.panic_recovered");
    let run = run_by_name_plan("PR", &g, &ctx, ExecPlan::with_threads(3)).expect("PR is a kernel");
    faults::disarm();

    assert!(run.stats.degraded_serial, "cell must record the downgrade");
    assert_eq!(
        run.stats.threads_used, 1,
        "the retry ran on the ladder's serial rung"
    );
    assert_eq!(
        run.checksum, clean.checksum,
        "the serial retry computes the same result"
    );
    assert_eq!(
        run.stats.iterations, clean.stats.iterations,
        "retry stats describe the retry, not the aborted attempt"
    );
    assert_eq!(
        gorder_obs::global().counter("engine.panic_recovered"),
        before + 1
    );
}

#[test]
fn every_parallel_kernel_survives_a_first_worker_panic() {
    let _guard = FAULTS.lock().unwrap();
    let g = ring_graph(150);
    let ctx = KernelCtx::default();
    for name in gorder_engine::all_kernel_names() {
        let clean = run_by_name_plan(name, &g, &ctx, ExecPlan::Serial).unwrap();
        faults::arm_from_spec("engine.worker=1").unwrap();
        let run = run_by_name_plan(name, &g, &ctx, ExecPlan::with_threads(4)).unwrap();
        faults::disarm();
        assert_eq!(run.checksum, clean.checksum, "{name}");
        // Kernels without a parallel section never hit the fault point
        // and stay undegraded; ones that do must downgrade cleanly.
        if run.stats.degraded_serial {
            assert_eq!(run.stats.threads_used, 1, "{name}");
        }
    }
}

#[test]
fn panic_free_parallel_run_is_not_degraded() {
    let _guard = FAULTS.lock().unwrap();
    faults::disarm();
    let g = ring_graph(200);
    let run = run_by_name_plan("PR", &g, &KernelCtx::default(), ExecPlan::with_threads(3)).unwrap();
    assert!(!run.stats.degraded_serial);
    assert_eq!(run.stats.threads_used, 3);
}
