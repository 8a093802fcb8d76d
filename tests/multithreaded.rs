//! Multithreading guarantees (paper §II-C): per-thread program order is
//! preserved, stacks reconstruct per thread, and the lock-free log loses
//! nothing under concurrent writers.

use teeperf::analyzer::{reader, run_query, stacks, Analyzer, Column};
use teeperf::compiler::{compile_instrumented, profile_program, InstrumentOptions};
use teeperf::core::RecorderConfig;
use teeperf::mc::RunConfig;
use teeperf::sim::CostModel;

const THREADED: &str = r#"
global results: [int];
fn inner(x: int) -> int { return x + 1; }
fn body(x: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < 40; i = i + 1) { s = s + inner(i * x); }
    return s;
}
fn worker(id: int) -> int {
    let acc: int = 0;
    for (let round: int = 0; round < 5; round = round + 1) {
        acc = acc + body(id + round);
    }
    results[id] = acc;
    return acc;
}
fn main() -> int {
    results = alloc(4);
    let tids: [int] = alloc(4);
    for (let t: int = 0; t < 4; t = t + 1) { tids[t] = spawn(worker, t); }
    let total: int = 0;
    for (let t: int = 0; t < 4; t = t + 1) { total = total + join(tids[t]); }
    return total & 0xffff;
}
"#;

fn run() -> (
    teeperf::analyzer::Profile,
    teeperf::core::LogFile,
    mcvm::DebugInfo,
) {
    let run = profile_program(
        compile_instrumented(THREADED, &InstrumentOptions::default()).expect("compiles"),
        CostModel::sgx_v1(),
        RunConfig::default(),
        &RecorderConfig::default(),
        |_| Ok(()),
    )
    .expect("runs");
    let analyzer = Analyzer::new(run.log.clone(), run.debug.clone()).expect("valid");
    (analyzer.profile(), run.log, run.debug)
}

#[test]
fn per_thread_reconstruction_is_clean() {
    let (profile, _log, _debug) = run();
    // 5 VM threads: main + 4 workers.
    assert_eq!(profile.threads.len(), 5);
    assert_eq!(profile.anomalies.orphan_returns, 0);
    assert_eq!(profile.anomalies.truncated_frames, 0);

    // Each worker ran body 5× and inner 200×.
    let worker = profile.method("worker").expect("worker profiled");
    assert_eq!(worker.calls, 4);
    assert_eq!(worker.threads.len(), 4);
    assert_eq!(profile.method("body").expect("body profiled").calls, 20);
    assert_eq!(profile.method("inner").expect("inner profiled").calls, 800);
}

#[test]
fn per_thread_event_order_is_program_order() {
    let (_profile, log, debug) = run();
    let analyzer = Analyzer::new(log, debug).expect("valid");
    let events = analyzer.events_frame();
    // Counters within one thread must be nondecreasing in log order.
    let out = run_query(&events, "select tid, counter sort seq").expect("query");
    let Some(Column::Int(tids)) = out.column("tid").cloned() else {
        panic!("tid column missing")
    };
    let Some(Column::Int(counters)) = out.column("counter").cloned() else {
        panic!("counter column missing")
    };
    let mut last: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
    for (tid, counter) in tids.iter().zip(&counters) {
        if let Some(prev) = last.insert(*tid, *counter) {
            assert!(
                *counter >= prev,
                "thread {tid}: counter went backwards ({prev} -> {counter})"
            );
        }
    }
}

#[test]
fn which_thread_called_which_method_how_often() {
    // The paper's flagship query (§II-B stage 3).
    let (_profile, log, debug) = run();
    let analyzer = Analyzer::new(log, debug).expect("valid");
    let out = run_query(
        &analyzer.events_frame(),
        r#"group tid, method agg count() as n sort n desc"#,
    )
    .expect("query");
    // 5 threads × up to 4 methods each; every worker thread shows `inner`
    // with 400 events (200 calls + 200 returns).
    let Some(Column::Str(methods)) = out.column("method").cloned() else {
        panic!("method column missing")
    };
    let Some(Column::Int(counts)) = out.column("n").cloned() else {
        panic!("n column missing")
    };
    let inner_rows: Vec<i64> = methods
        .iter()
        .zip(&counts)
        .filter(|(m, _)| m.as_str() == "inner")
        .map(|(_, n)| *n)
        .collect();
    assert_eq!(inner_rows, vec![400, 400, 400, 400]);
}

#[test]
fn worker_times_are_comparable_across_threads() {
    let (_profile, log, _debug) = run();
    // All four workers do identical-shaped work; their per-call inclusive
    // times should be within 3× of each other (scheduling interleave only).
    let mut worker_incl: Vec<u64> = Vec::new();
    for events in reader::group_by_thread(&log).threads.values() {
        for c in stacks::reconstruct(events).calls {
            if c.depth() == 1 && !c.truncated && c.inclusive() > 0 {
                worker_incl.push(c.inclusive());
            }
        }
    }
    // 4 worker top-level calls + main (tid 0) top-level.
    assert!(worker_incl.len() >= 4);
    let min = worker_incl.iter().min().expect("non-empty");
    let max = worker_incl.iter().max().expect("non-empty");
    assert!(max / min.max(&1) < 30, "wild imbalance: {worker_incl:?}");
}
