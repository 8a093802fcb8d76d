//! `BENCHMARK.json` and the harness's catalog name the same workloads and
//! metrics, so every name a result file can hold appears in
//! `BENCHMARK.json`.

use teeperf_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use teeperf_benchmark::report::{Measured, WorkloadResult};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The text between `"key": [` and its closing `]` (no list in the file
/// nests another).
fn list<'a>(json: &'a str, key: &str) -> &'a str {
    let from = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} list"));
    let rest = &json[from..];
    &rest[..rest.find(']').expect("the list closes")]
}

/// Every `"field": <value>` in `text`, in order, quotes removed.
fn values<'a>(text: &'a str, field: &str) -> Vec<&'a str> {
    let needle = format!("\"{field}\": ");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            let end = rest.find([',', '}', '\n']).expect("the value ends");
            rest[..end].trim().trim_matches('"')
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn workloads_match() {
    let json = benchmark_json();
    let names = values(list(&json, "workloads"), "name");
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    assert!(names.iter().all(|n| well_formed(n)));
}

#[test]
fn end_to_end_metrics_match_in_name_unit_direction_and_bound() {
    let json = benchmark_json();
    let section = list(&json, "end_to_end");
    assert_eq!(values(section, "name"), END_TO_END.map(|m| m.name));
    assert_eq!(values(section, "unit"), END_TO_END.map(|m| m.unit));
    assert_eq!(
        values(section, "better"),
        END_TO_END.map(|m| m.better.as_str())
    );
    let bounds: Vec<f64> = values(section, "bound")
        .iter()
        .map(|b| b.parse().unwrap())
        .collect();
    assert_eq!(bounds, END_TO_END.map(|m| m.bound));
    assert!(bounds.iter().all(|b| (0.0..=0.25).contains(b)));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("the contract requires setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "set-up time has the largest bound"
    );
}

#[test]
fn per_layer_metrics_match_in_name_unit_and_direction() {
    let json = benchmark_json();
    let section = list(&json, "per_layer");
    assert_eq!(values(section, "name"), PER_LAYER.map(|m| m.name));
    assert_eq!(values(section, "unit"), PER_LAYER.map(|m| m.unit));
    assert_eq!(
        values(section, "better"),
        PER_LAYER.map(|m| m.better.as_str())
    );
}

#[test]
fn names_are_well_formed_and_used_once() {
    let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    all.extend(END_TO_END.iter().map(|m| m.name));
    all.extend(PER_LAYER.iter().map(|m| m.name));
    assert!(all.iter().all(|n| well_formed(n)), "{all:?}");
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len());
}

#[test]
fn the_result_line_has_exactly_the_contracts_keys() {
    let result = WorkloadResult {
        workload: "ingest_flood",
        metrics: vec![
            Measured::once("setup_s", "s", 0.8127),
            Measured::once("events_per_s", "1/s", 612_345.25),
        ],
        observations: vec![Measured::once("daemon.rss_mib", "MiB", 7.5)],
        attempted: 1000,
        failed: 0,
        failures: Vec::new(),
        facts: Vec::new(),
    };
    assert_eq!(
        result.result_line(),
        "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\
         \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\
         \"events_per_s\":{\"value\":612345.25,\"unit\":\"1/s\"}}}"
    );
    let failed = WorkloadResult {
        failed: 3,
        failures: vec!["3 polls timed out".to_string()],
        ..result
    };
    assert!(failed
        .result_line()
        .starts_with("{\"correct\":false,\"attempted\":1000,\"failed\":3,"));
}
