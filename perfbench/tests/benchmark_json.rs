//! `BENCHMARK.json` at the repository root must list exactly the
//! workloads and metrics this benchmark prints, with the same units.

use datanet_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use serde::Deserialize;

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let b: Benchmark = serde_json::from_slice(&std::fs::read(path).unwrap()).unwrap();
    let workloads: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<(&str, &str)> = b
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(e2e, END_TO_END);
    let layers: Vec<(&str, &str)> = b
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let expect: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    assert_eq!(layers, expect);
}
