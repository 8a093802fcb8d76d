//! End-to-end integration of the four TEE-Perf stages across crates,
//! including the on-disk log + symbol round trip the CLI uses.

use teeperf::analyzer::Analyzer;
use teeperf::compiler::{
    compile_instrumented, profile_program, run_native, InstrumentOptions, NameFilter,
};
use teeperf::core::{LogFile, RecorderConfig};
use teeperf::flamegraph::{FlameGraph, SvgOptions};
use teeperf::mc::{DebugInfo, RunConfig};
use teeperf::sim::{CostModel, TeeKind};

const APP: &str = r#"
fn leaf(x: int) -> int { return x * x; }
fn middle(x: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < 50; i = i + 1) { s = s + leaf(i + x); }
    return s;
}
fn top(rounds: int) -> int {
    let s: int = 0;
    for (let r: int = 0; r < rounds; r = r + 1) { s = s + middle(r); }
    return s;
}
fn main() -> int { return top(20) & 0xffff; }
"#;

fn profiled(cost: CostModel) -> teeperf::compiler::ProfiledRun {
    profile_program(
        compile_instrumented(APP, &InstrumentOptions::default()).expect("compiles"),
        cost,
        RunConfig::default(),
        &RecorderConfig::default(),
        |_| Ok(()),
    )
    .expect("runs")
}

#[test]
fn four_stages_produce_consistent_results() {
    let run = profiled(CostModel::sgx_v1());

    // The instrumented run computes the same answer as the plain one.
    let native = run_native(
        mcvm::compile(APP).expect("compiles"),
        CostModel::sgx_v1(),
        RunConfig::default(),
        |_| Ok(()),
    )
    .expect("runs");
    assert_eq!(native.exit_code, run.exit_code);

    // Stage 3: calls counted exactly.
    let analyzer = Analyzer::new(run.log, run.debug).expect("valid log");
    let profile = analyzer.profile();
    assert_eq!(profile.method("main").expect("main profiled").calls, 1);
    assert_eq!(profile.method("top").expect("top profiled").calls, 1);
    assert_eq!(profile.method("middle").expect("middle profiled").calls, 20);
    assert_eq!(profile.method("leaf").expect("leaf profiled").calls, 1_000);
    assert_eq!(profile.anomalies.orphan_returns, 0);
    assert_eq!(profile.anomalies.truncated_frames, 0);

    // Time accounting: exclusive sums to the root's inclusive time.
    let root_incl = profile.method("main").expect("main profiled").inclusive;
    assert_eq!(profile.total_ticks, root_incl);

    // Stage 4: the flame graph mirrors the stack structure.
    let graph = FlameGraph::from_folded(&profile.folded);
    assert_eq!(graph.total_ticks(), profile.total_ticks);
    assert!(graph.to_folded().contains("main;top;middle;leaf"));
    let svg = graph.to_svg(&SvgOptions::default().with_title("pipeline test"));
    assert!(svg.contains("middle"));
}

/// A scratch directory of this test process, removed when dropped.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn log_and_symbols_round_trip_through_disk() {
    let run = profiled(CostModel::sgx_v1());
    let scratch =
        Scratch(std::env::temp_dir().join(format!("teeperf-pipeline-{}", std::process::id())));
    let dir = &scratch.0;
    std::fs::create_dir_all(dir).expect("tmpdir");
    let log_path = dir.join("app.tpf");
    let sym_path = dir.join("app.sym");

    run.log.save(&log_path).expect("save log");
    std::fs::write(&sym_path, run.debug.to_text()).expect("save symbols");

    let log = LogFile::load(&log_path).expect("load log");
    let debug = DebugInfo::from_text(&std::fs::read_to_string(&sym_path).expect("read"))
        .expect("parse symbols");
    assert_eq!(log, run.log);

    let analyzer = Analyzer::new(log, debug).expect("valid");
    assert_eq!(
        analyzer.profile().method("leaf").expect("leaf").calls,
        1_000
    );
}

#[test]
fn same_binary_profiles_on_every_architecture() {
    // Generality: one instrumented program, six TEEs, identical call
    // counts everywhere — only the timing differs.
    let mut cycles = Vec::new();
    for kind in TeeKind::ALL {
        let run = profiled(CostModel::for_kind(kind));
        let analyzer = Analyzer::new(run.log, run.debug).expect("valid");
        let profile = analyzer.profile();
        assert_eq!(
            profile.method("leaf").expect("leaf profiled").calls,
            1_000,
            "{kind}: wrong call count"
        );
        cycles.push((kind, run.cycles));
    }
    // SGX v1 is the most expensive TEE for this workload; native cheapest.
    let native = cycles
        .iter()
        .find(|(k, _)| *k == TeeKind::Native)
        .expect("native run")
        .1;
    let sgx = cycles
        .iter()
        .find(|(k, _)| *k == TeeKind::SgxV1)
        .expect("sgx run")
        .1;
    assert!(sgx > native);
}

#[test]
fn runs_are_bit_identical() {
    let a = profiled(CostModel::sgx_v1());
    let b = profiled(CostModel::sgx_v1());
    assert_eq!(a.log, b.log);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.log.to_bytes(), b.log.to_bytes());
}

#[test]
fn selective_instrumentation_flows_through_the_whole_pipeline() {
    let run = profile_program(
        compile_instrumented(
            APP,
            &InstrumentOptions {
                filter: Some(NameFilter::include(["middle"])),
            },
        )
        .expect("compiles"),
        CostModel::sgx_v1(),
        RunConfig::default(),
        &RecorderConfig::default(),
        |_| Ok(()),
    )
    .expect("runs");
    let analyzer = Analyzer::new(run.log, run.debug).expect("valid");
    let profile = analyzer.profile();
    assert_eq!(profile.method("middle").expect("middle profiled").calls, 20);
    assert!(
        profile.method("leaf").is_none(),
        "leaf must be filtered out"
    );
    assert!(profile.method("main").is_none());
}

#[test]
fn log_overflow_is_detected_and_reported() {
    let run = profile_program(
        compile_instrumented(APP, &InstrumentOptions::default()).expect("compiles"),
        CostModel::sgx_v1(),
        RunConfig::default(),
        &RecorderConfig {
            max_entries: 64, // far too small for ~2k events
            ..RecorderConfig::default()
        },
        |_| Ok(()),
    )
    .expect("runs");
    assert!(run.log.header.dropped_entries() > 0);
    let analyzer = Analyzer::new(run.log, run.debug).expect("valid");
    let report = analyzer.report();
    assert!(report.contains("dropped"), "report must warn:\n{report}");
}
