//! Figure 5: the RocksDB `db_bench` flame graph.
//!
//! Runs `readrandomwriterandom` (80 % reads) under TEE-Perf inside the
//! simulated SGX TEE, then renders the flame graph. The paper's finding:
//! the benchmark "spent most of its time in getting a current timestamp
//! (`rocksdb::Stats::Now`) and generating random numbers
//! (`rocksdb::RandomGenerator::RandomGenerator`)".

use std::cell::RefCell;
use std::rc::Rc;

use lsm_store::{run_db_bench, BenchOptions};
use tee_sim::{CostModel, Machine};
use teeperf_analyzer::Analyzer;
use teeperf_core::{Profiler, Recorder, RecorderConfig};
use teeperf_flamegraph::{FlameGraph, SvgOptions};

/// Harness options.
#[derive(Debug, Clone)]
pub struct Fig5Options {
    /// db_bench operations.
    pub ops: u64,
    /// Value size (the paper-shaped profile needs RocksDB-style
    /// compressible-value generation to be visible: 4 KiB).
    pub value_bytes: usize,
    /// TEE architecture.
    pub cost: CostModel,
}

impl Default for Fig5Options {
    fn default() -> Self {
        Fig5Options {
            ops: 12_000,
            value_bytes: 4_096,
            cost: CostModel::sgx_v1(),
        }
    }
}

/// Figure outputs.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// The flame graph.
    pub graph: FlameGraph,
    /// The analyzer's sorted method report.
    pub report: String,
    /// Share of total time inside `rocksdb::Stats::Now`.
    pub stats_now_fraction: f64,
    /// Share of total time inside the value generator.
    pub random_generator_fraction: f64,
    /// Benchmark throughput (ops per virtual second).
    pub ops_per_sec: f64,
}

/// The process id the recording is stamped with, and so the one the
/// report's header names: fixed, so the report does not depend on the
/// host process that made it.
const FIG5_PID: u64 = 4242;

/// Run the profiled benchmark and build the figure.
pub fn run_fig5(options: &Fig5Options) -> Fig5Result {
    let recorder = Recorder::new(&RecorderConfig {
        max_entries: 1 << 24,
        pid: FIG5_PID,
        ..RecorderConfig::default()
    });
    let mut machine = Machine::new(options.cost.clone());
    recorder.attach(&mut machine);
    machine.ecall();
    let profiler = Rc::new(RefCell::new(Profiler::new(
        recorder.sim_hooks(machine.clock().clone()),
    )));

    let bench = run_db_bench(
        &mut machine,
        &BenchOptions {
            ops: options.ops,
            value_bytes: options.value_bytes,
            ..BenchOptions::default()
        },
        Some(Rc::clone(&profiler)),
    );

    let log = recorder.finish();
    assert_eq!(log.header.dropped_entries(), 0, "fig5 log overflowed");
    let debug = profiler.borrow().debug_info();
    let analyzer = Analyzer::new(log, debug).expect("fresh log validates");
    let profile = analyzer.profile();
    let graph = FlameGraph::from_folded(&profile.folded);

    Fig5Result {
        stats_now_fraction: graph.fraction("rocksdb::Stats::Now"),
        random_generator_fraction: graph.fraction("rocksdb::RandomGenerator::RandomGenerator"),
        report: analyzer.report(),
        ops_per_sec: bench.ops_per_sec,
        graph,
    }
}

/// Render the SVG exactly as the figure shows it.
pub fn render_svg(result: &Fig5Result, options: &Fig5Options) -> String {
    result.graph.to_svg(
        &SvgOptions::default()
            .with_title("Figure 5 — RocksDB db_bench under TEE-Perf")
            .with_subtitle(format!(
                "readrandomwriterandom, 80% reads, {} on {} — Stats::Now {:.1}%, RandomGenerator {:.1}%",
                options.ops,
                options.cost.kind,
                result.stats_now_fraction * 100.0,
                result.random_generator_fraction * 100.0
            )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_hotspots_match_paper() {
        let options = Fig5Options {
            ops: 1_500,
            ..Fig5Options::default()
        };
        let r = run_fig5(&options);
        // The two paper hotspots dominate...
        assert!(
            r.stats_now_fraction > 0.25,
            "Stats::Now fraction {:.2}",
            r.stats_now_fraction
        );
        assert!(
            r.random_generator_fraction > 0.08,
            "RandomGenerator fraction {:.2}",
            r.random_generator_fraction
        );
        // ...and together account for most of the time.
        assert!(
            r.stats_now_fraction + r.random_generator_fraction > 0.4,
            "combined {:.2}",
            r.stats_now_fraction + r.random_generator_fraction
        );
        // The report and graph carry RocksDB-shaped names.
        assert!(r.report.contains("rocksdb::Stats::Now"));
        assert!(r
            .graph
            .to_folded()
            .contains("rocksdb::Benchmark::ReadRandomWriteRandom"));
        let svg = render_svg(&r, &options);
        assert!(svg.contains("Figure 5"));
        assert!(svg.contains("Stats::Now"));
    }

    #[test]
    fn the_report_names_a_fixed_pid() {
        let r = run_fig5(&Fig5Options {
            ops: 200,
            ..Fig5Options::default()
        });
        let header = r.report.lines().next().unwrap_or_default();
        assert!(
            header.starts_with("TEE-Perf profile — pid 4242, "),
            "{header}"
        );
    }

    #[test]
    fn native_run_is_not_timestamp_bound() {
        // Control experiment: on the host the ocall tax disappears, so
        // Stats::Now shrinks drastically — the distortion is TEE-specific,
        // which is the paper's whole premise.
        let sgx = run_fig5(&Fig5Options {
            ops: 1_000,
            ..Fig5Options::default()
        });
        let native = run_fig5(&Fig5Options {
            ops: 1_000,
            cost: CostModel::native(),
            ..Fig5Options::default()
        });
        assert!(
            sgx.stats_now_fraction > native.stats_now_fraction * 3.0,
            "sgx {:.2} vs native {:.2}",
            sgx.stats_now_fraction,
            native.stats_now_fraction
        );
    }
}
