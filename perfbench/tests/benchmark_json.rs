//! `BENCHMARK.json` at the repo root must declare exactly the metrics
//! and workloads this benchmark reports.

use gorder_perfbench::metrics::{per_layer, END_TO_END};
use gorder_perfbench::workloads::WORKLOADS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/")
}

#[test]
fn declares_every_reported_metric_in_order() {
    let text = benchmark_json();
    let entries: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"name\": ") && l.contains("\"unit\": "))
        .collect();
    let mut want: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b)| {
            format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": ")
        })
        .collect();
    want.extend(
        per_layer().into_iter().map(|(n, u, b)| {
            format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        }),
    );
    assert_eq!(entries.len(), want.len(), "metric count differs");
    for (got, want) in entries.iter().zip(&want) {
        assert!(got.starts_with(want.as_str()), "{got} is not {want}");
    }
}

#[test]
fn declares_every_workload() {
    let text = benchmark_json();
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w} missing"
        );
    }
}
