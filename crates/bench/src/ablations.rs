//! Ablation experiments for the design choices the paper calls out.

use mcvm::{RunConfig, Vm};
use perf_sim::{PerfConfig, PerfReport, Sampler};
use tee_sim::{CostModel, Machine, PAGE_SIZE};
use teeperf_analyzer::{Analyzer, Symbolizer};
use teeperf_compiler::{compile_instrumented, profile_program, InstrumentOptions, NameFilter};
use teeperf_core::{Recorder, RecorderConfig, SimCounter, TscCounter};

use crate::util::render_table;

// ---------------------------------------------------------------------------
// Sampling-frequency bias
// ---------------------------------------------------------------------------

/// Result of the sampling-bias demonstration.
#[derive(Debug, Clone)]
pub struct BiasResult {
    /// Ground-truth share of `phase_a` (TEE-Perf exact trace).
    pub true_fraction_a: f64,
    /// `perf`'s estimate with the sampling period aligned to the loop.
    pub aligned_fraction_a: f64,
    /// `perf`'s estimate with a misaligned (co-prime) period.
    pub misaligned_fraction_a: f64,
}

const BIAS_SRC: &str = "
global n: int;
global k: int;
fn phase_a(n: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < n; i = i + 1) { s = s + i; }
    return s;
}
fn phase_b(n: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < n; i = i + 1) { s = s + i; }
    return s;
}
fn main() -> int {
    let s: int = 0;
    for (let j: int = 0; j < k; j = j + 1) {
        s = s + phase_a(n);
        s = s + phase_b(n);
    }
    return s & 1023;
}
";

fn bias_vm(n: i64, k: i64, cost: CostModel) -> Vm {
    let program = mcvm::compile(BIAS_SRC).expect("bias program compiles");
    let mut vm = Vm::with_config(program, Machine::new(cost), RunConfig::default());
    vm.set_global_int("n", n).expect("global exists");
    vm.set_global_int("k", k).expect("global exists");
    vm
}

fn perf_fraction_a(n: i64, k: i64, period: u64) -> f64 {
    let mut vm = bias_vm(n, k, CostModel::sgx_v1());
    let (sampler, store) = Sampler::new(PerfConfig {
        period_cycles: period,
        capture_stacks: false,
    });
    vm.set_observer(Box::new(sampler));
    vm.run().expect("bias program runs");
    let sym = Symbolizer::without_relocation(vm.program().debug.clone());
    let report = PerfReport::build(&store.samples(), &sym);
    let a = report.fraction("phase_a");
    let b = report.fraction("phase_b");
    if a + b == 0.0 {
        0.5
    } else {
        a / (a + b)
    }
}

/// Run the sampling-bias experiment: two identical alternating phases; a
/// sampler whose period equals the loop period lands every sample in the
/// same phase, while TEE-Perf's full trace reports the true 50/50 split.
pub fn run_sampling_bias(k: i64) -> BiasResult {
    let n = 4_000;
    // Calibrate the exact cycles of one (phase_a + phase_b) pair with two
    // differential runs — subtracting cancels the fixed ecall/prologue
    // costs, and the VM is deterministic, so the estimate is exact.
    let measure = |k: i64| {
        let mut vm = bias_vm(n, k, CostModel::sgx_v1());
        vm.run().expect("calibration run");
        vm.machine().clock().now()
    };
    let pair_cycles = (measure(2 * k) - measure(k)) / k as u64;

    // Ground truth from the exact trace.
    let profiled = profile_program(
        compile_instrumented(BIAS_SRC, &InstrumentOptions::default()).expect("compiles"),
        CostModel::sgx_v1(),
        RunConfig::default(),
        &RecorderConfig {
            max_entries: 1 << 20,
            ..RecorderConfig::default()
        },
        |vm| {
            vm.set_global_int("n", n)?;
            vm.set_global_int("k", k)
        },
    )
    .expect("profiled run");
    let analyzer = Analyzer::new(profiled.log, profiled.debug).expect("validates");
    let profile = analyzer.profile();
    let a = profile
        .method("phase_a")
        .map_or(0.0, |m| m.exclusive as f64);
    let b = profile
        .method("phase_b")
        .map_or(0.0, |m| m.exclusive as f64);

    // Each sample costs one AEX, during which the application makes no
    // progress; for the sampler to land at the same loop phase every time,
    // the period must cover one loop pair *plus* that AEX.
    let aex = CostModel::sgx_v1().aex_cycles;
    BiasResult {
        true_fraction_a: a / (a + b),
        aligned_fraction_a: perf_fraction_a(n, k, pair_cycles + aex),
        // A co-prime-ish period drifts across the loop and samples fairly.
        misaligned_fraction_a: perf_fraction_a(n, k, pair_cycles * 37 / 100 + 13),
    }
}

/// Render the bias table.
pub fn render_bias(r: &BiasResult) -> String {
    let mut out =
        String::from("Sampling-frequency bias — share attributed to phase_a (truth: 0.50)\n\n");
    out.push_str(&render_table(
        &["estimator", "phase_a share"],
        &[
            vec![
                "TEE-Perf (full trace)".into(),
                format!("{:.3}", r.true_fraction_a),
            ],
            vec![
                "perf, aligned period".into(),
                format!("{:.3}", r.aligned_fraction_a),
            ],
            vec![
                "perf, misaligned period".into(),
                format!("{:.3}", r.misaligned_fraction_a),
            ],
        ],
    ));
    out
}

// ---------------------------------------------------------------------------
// Counter sources
// ---------------------------------------------------------------------------

/// Result of the counter-source ablation.
#[derive(Debug, Clone)]
pub struct CounterSourceResult {
    /// Per-method exclusive share disagreement (max over methods).
    pub max_fraction_delta: f64,
    /// Run cycles with the software counter.
    pub software_cycles: u64,
    /// Run cycles with the hardware (TSC) counter.
    pub hardware_cycles: u64,
}

/// Profile the same workload with the software counter and with a
/// TSC-style hardware counter, and compare the resulting profiles. The
/// paper's claim: the software counter is "fine and accurate enough" for
/// relative, method-level profiling.
pub fn run_counter_source() -> CounterSourceResult {
    let bench = phoenix::suite(phoenix::Scale::Small, 5).remove(3); // matrix_mult
    let program =
        compile_instrumented(bench.source(), &InstrumentOptions::default()).expect("compiles");

    let run = |hardware: bool| {
        let recorder = Recorder::new(&RecorderConfig {
            max_entries: 1 << 20,
            ..RecorderConfig::default()
        });
        let mut vm = Vm::with_config(
            program.clone(),
            Machine::new(CostModel::sgx_v1()),
            RunConfig::default(),
        );
        recorder.attach(vm.machine_mut());
        let clock = vm.machine().clock().clone();
        let hooks = if hardware {
            recorder.hooks_with(Box::new(TscCounter::new(clock, 30)))
        } else {
            recorder.hooks_with(Box::new(SimCounter::standard(clock)))
        };
        vm.set_hooks(Box::new(hooks));
        bench.setup(&mut vm).expect("setup");
        vm.run().expect("runs");
        let log = recorder.finish();
        let analyzer = Analyzer::new(log, program.debug.clone()).expect("validates");
        (analyzer.profile(), vm.machine().clock().now())
    };

    let (soft_profile, software_cycles) = run(false);
    let (hard_profile, hardware_cycles) = run(true);

    let mut max_delta = 0.0f64;
    for m in &soft_profile.methods {
        let soft = soft_profile.exclusive_fraction(&m.name);
        let hard = hard_profile.exclusive_fraction(&m.name);
        max_delta = max_delta.max((soft - hard).abs());
    }
    CounterSourceResult {
        max_fraction_delta: max_delta,
        software_cycles,
        hardware_cycles,
    }
}

/// Render the counter-source table.
pub fn render_counter_source(r: &CounterSourceResult) -> String {
    format!(
        "Counter sources (matrix_mult, sgx-v1)\n\n\
         software counter run: {} cycles\n\
         hardware counter run: {} cycles\n\
         max per-method exclusive-share disagreement: {:.4}\n\
         (the software counter loses no method-level accuracy)\n",
        r.software_cycles, r.hardware_cycles, r.max_fraction_delta
    )
}

// ---------------------------------------------------------------------------
// Selective profiling
// ---------------------------------------------------------------------------

/// Result of the selective-profiling ablation.
#[derive(Debug, Clone)]
pub struct SelectiveResult {
    /// Events recorded with full instrumentation.
    pub full_events: u64,
    /// Cycles with full instrumentation.
    pub full_cycles: u64,
    /// Events with only `match_word` instrumented.
    pub selective_events: u64,
    /// Cycles with selective instrumentation.
    pub selective_cycles: u64,
}

/// Instrument only the function the developer cares about and measure the
/// log-size and overhead reduction (§II-C "Selective code profiling").
pub fn run_selective() -> SelectiveResult {
    let bench = phoenix::suite(phoenix::Scale::Small, 9).remove(5); // string_match
    let run = |options: &InstrumentOptions| {
        let program = compile_instrumented(bench.source(), options).expect("compiles");
        let r = profile_program(
            program,
            CostModel::sgx_v1(),
            RunConfig::default(),
            &RecorderConfig {
                max_entries: 1 << 22,
                ..RecorderConfig::default()
            },
            |vm| bench.setup(vm),
        )
        .expect("runs");
        (r.log.entries.len() as u64, r.cycles)
    };
    let (full_events, full_cycles) = run(&InstrumentOptions::default());
    let (selective_events, selective_cycles) = run(&InstrumentOptions {
        filter: Some(NameFilter::include(["match_word"])),
    });
    SelectiveResult {
        full_events,
        full_cycles,
        selective_events,
        selective_cycles,
    }
}

/// Render the selective-profiling table.
pub fn render_selective(r: &SelectiveResult) -> String {
    let mut out = String::from("Selective profiling (string_match, sgx-v1)\n\n");
    out.push_str(&render_table(
        &["configuration", "events", "log bytes", "cycles"],
        &[
            vec![
                "full instrumentation".into(),
                r.full_events.to_string(),
                (r.full_events * 24).to_string(),
                r.full_cycles.to_string(),
            ],
            vec![
                "match_word only".into(),
                r.selective_events.to_string(),
                (r.selective_events * 24).to_string(),
                r.selective_cycles.to_string(),
            ],
        ],
    ));
    out.push_str(&format!(
        "\nlog-size reduction: {:.1}x, runtime reduction: {:.2}x\n",
        r.full_events as f64 / r.selective_events as f64,
        r.full_cycles as f64 / r.selective_cycles as f64
    ));
    out
}

// ---------------------------------------------------------------------------
// Log-reservation modes (lock-free fetch-and-add vs atomic-free partitions)
// ---------------------------------------------------------------------------

/// Result of the reservation-mode ablation.
#[derive(Debug, Clone)]
pub struct ReservationResult {
    /// Cycles with the classic fetch-and-add log.
    pub fetch_add_cycles: u64,
    /// Events the classic log recorded.
    pub fetch_add_events: u64,
    /// Cycles with the atomic-free partitioned log.
    pub partitioned_cycles: u64,
    /// Events the partitioned log recorded.
    pub partitioned_events: u64,
}

/// Profile the same multithreaded workload with both reservation designs
/// (§II-B: the log "does not actually rely on the availability of these
/// \[atomic\] instructions"). Both must capture the identical event stream;
/// the partitioned log dodges tail contention at the price of static
/// capacity splitting.
pub fn run_reservation_modes() -> ReservationResult {
    use crate::plog::{PartitionedHooks, PartitionedLog};
    use std::sync::Arc;
    use teeperf_core::SimCounter;

    let bench = phoenix::suite(phoenix::Scale::Small, 3).remove(5); // string_match
    let program =
        compile_instrumented(bench.source(), &InstrumentOptions::default()).expect("compiles");

    // Classic lock-free log via the standard driver.
    let classic = profile_program(
        program.clone(),
        CostModel::sgx_v1(),
        RunConfig::default(),
        &RecorderConfig {
            max_entries: 1 << 22,
            ..RecorderConfig::default()
        },
        |vm| bench.setup(vm),
    )
    .expect("classic run");

    // Partitioned log: 8 partitions cover the 5 VM threads.
    let (n_partitions, per_partition) = (8u64, 1u64 << 17);
    let shm = Arc::new(tee_sim::SharedMem::new(PartitionedLog::region_bytes(
        n_partitions,
        per_partition,
    )));
    let plog = PartitionedLog::init(
        Arc::clone(&shm),
        &teeperf_core::log::make_header(
            4242,
            n_partitions * per_partition,
            true,
            tee_sim::ENCLAVE_TEXT_BASE,
            tee_sim::SHM_BASE,
        ),
        n_partitions,
        per_partition,
    );
    let mut vm = Vm::with_config(
        program,
        Machine::new(CostModel::sgx_v1()),
        RunConfig::default(),
    );
    vm.machine_mut().map_shared(shm);
    let hooks = PartitionedHooks::new(
        plog.clone(),
        Box::new(SimCounter::standard(vm.machine().clock().clone())),
    );
    vm.set_hooks(Box::new(hooks));
    bench.setup(&mut vm).expect("setup");
    let exit = vm.run().expect("partitioned run");
    assert_eq!(exit, classic.exit_code);
    let plog_file = plog.drain();

    ReservationResult {
        fetch_add_cycles: classic.cycles,
        fetch_add_events: classic.log.entries.len() as u64,
        partitioned_cycles: vm.machine().clock().now(),
        partitioned_events: plog_file.entries.len() as u64,
    }
}

/// Render the reservation-mode table.
pub fn render_reservation(r: &ReservationResult) -> String {
    let mut out =
        String::from("Log reservation modes (string_match, sgx-v1, 4 worker threads)\n\n");
    out.push_str(&render_table(
        &["reservation", "events", "cycles"],
        &[
            vec![
                "fetch-and-add (lock-free)".into(),
                r.fetch_add_events.to_string(),
                r.fetch_add_cycles.to_string(),
            ],
            vec![
                "per-thread partitions (atomic-free)".into(),
                r.partitioned_events.to_string(),
                r.partitioned_cycles.to_string(),
            ],
        ],
    ));
    out.push_str(&format!(
        "\npartitioned/fetch-add runtime: {:.3}x (no contended RMW on the tail)\n",
        r.partitioned_cycles as f64 / r.fetch_add_cycles as f64
    ));
    out
}

// ---------------------------------------------------------------------------
// EPC paging cliff
// ---------------------------------------------------------------------------

/// One point of the paging curve.
#[derive(Debug, Clone, Copy)]
pub struct EpcPoint {
    /// Working-set size as a fraction of the EPC.
    pub ratio: f64,
    /// Average cycles per page access.
    pub cycles_per_access: f64,
}

/// Sweep a sequential page walk across working sets around the EPC size —
/// the mechanism behind the paper's "up to 2000×" slowdown claim for
/// secure paging.
pub fn run_epc_paging(epc_pages: u64) -> Vec<EpcPoint> {
    [0.5, 0.9, 1.1, 2.0, 4.0]
        .into_iter()
        .map(|ratio| {
            let pages = ((epc_pages as f64) * ratio) as u64;
            let mut machine = Machine::new(CostModel::sgx_v1().with_epc_pages(epc_pages));
            machine.ecall();
            // Enough passes that steady-state behaviour dominates the cold
            // first sweep for below-capacity working sets.
            let passes = 50;
            let t0 = machine.clock().now();
            for _ in 0..passes {
                for p in 0..pages {
                    machine.read(tee_sim::ENCLAVE_HEAP_BASE + p * PAGE_SIZE, 8);
                }
            }
            EpcPoint {
                ratio,
                cycles_per_access: (machine.clock().now() - t0) as f64 / (passes * pages) as f64,
            }
        })
        .collect()
}

/// Render the paging curve.
pub fn render_epc(points: &[EpcPoint]) -> String {
    let mut out = String::from("EPC secure-paging cliff (sequential page walk, sgx-v1)\n\n");
    out.push_str(&render_table(
        &["working set / EPC", "cycles per access"],
        &points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.1}", p.ratio),
                    format!("{:.0}", p.cycles_per_access),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_bias_demonstrated() {
        let r = run_sampling_bias(150);
        assert!(
            (0.45..0.55).contains(&r.true_fraction_a),
            "teeperf truth {:.3}",
            r.true_fraction_a
        );
        let aligned_skew = (r.aligned_fraction_a - 0.5).abs();
        let misaligned_skew = (r.misaligned_fraction_a - 0.5).abs();
        assert!(
            aligned_skew > 0.35,
            "aligned sampling should be badly skewed, got {:.3}",
            r.aligned_fraction_a
        );
        assert!(
            misaligned_skew < aligned_skew,
            "misaligned ({misaligned_skew:.3}) must beat aligned ({aligned_skew:.3})"
        );
        assert!(render_bias(&r).contains("phase_a"));
    }

    #[test]
    fn counter_sources_agree_on_the_profile() {
        let r = run_counter_source();
        assert!(
            r.max_fraction_delta < 0.05,
            "profiles disagree by {:.4}",
            r.max_fraction_delta
        );
        assert!(render_counter_source(&r).contains("software counter"));
    }

    #[test]
    fn selective_profiling_shrinks_log_and_overhead() {
        let r = run_selective();
        assert!(
            r.selective_events * 3 < r.full_events,
            "selective {} vs full {}",
            r.selective_events,
            r.full_events
        );
        assert!(r.selective_cycles < r.full_cycles);
        assert!(render_selective(&r).contains("reduction"));
    }

    #[test]
    fn reservation_modes_capture_the_same_events() {
        let r = run_reservation_modes();
        assert_eq!(r.fetch_add_events, r.partitioned_events);
        assert!(
            r.partitioned_cycles < r.fetch_add_cycles,
            "partitioned ({}) must be cheaper than contended fetch-add ({})",
            r.partitioned_cycles,
            r.fetch_add_cycles
        );
        assert!(render_reservation(&r).contains("fetch-and-add"));
    }

    #[test]
    fn epc_cliff_appears_past_capacity() {
        let points = run_epc_paging(512);
        let below = points[0].cycles_per_access; // 0.5×
        let above = points[3].cycles_per_access; // 2.0×
        assert!(
            above > below * 50.0,
            "paging cliff missing: {below:.0} -> {above:.0}"
        );
        // Monotone growth across the cliff.
        assert!(points[1].cycles_per_access <= points[2].cycles_per_access);
        assert!(render_epc(&points).contains("cycles per access"));
    }
}
