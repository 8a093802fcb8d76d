//! The atomic-free partitioned log must be a drop-in replacement for the
//! classic fetch-and-add log across the *entire* pipeline: same events,
//! same analyzer output, same flame graph.

use std::collections::BTreeSet;
use std::sync::Arc;

use bench::plog::{PartitionedHooks, PartitionedLog};
use teeperf::analyzer::profile::merged_thread_key;
use teeperf::analyzer::Analyzer;
use teeperf::compiler::{compile_instrumented, profile_program, InstrumentOptions};
use teeperf::core::{log::make_header, RecorderConfig, SimCounter};
use teeperf::flamegraph::FlameGraph;
use teeperf::mc::{RunConfig, Vm};
use teeperf::sim::{CostModel, Machine, SharedMem, ENCLAVE_TEXT_BASE, SHM_BASE};

const THREADED: &str = r#"
global out: [int];
fn leaf(x: int) -> int { return x * 2 + 1; }
fn worker(id: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < 25; i = i + 1) { s = s + leaf(i + id); }
    atomic_add(out, 0, s);
    return s;
}
fn main() -> int {
    out = alloc(1);
    let t0: int = spawn(worker, 0);
    let t1: int = spawn(worker, 1);
    let t2: int = spawn(worker, 2);
    join(t0); join(t1); join(t2);
    return out[0] & 0xffff;
}
"#;

#[test]
fn partitioned_and_classic_logs_agree_end_to_end() {
    // Classic path through the standard driver.
    let classic = profile_program(
        compile_instrumented(THREADED, &InstrumentOptions::default()).expect("compiles"),
        CostModel::sgx_v1(),
        RunConfig::default(),
        &RecorderConfig::default(),
        |_| Ok(()),
    )
    .expect("classic run");

    // Partitioned path, wired by hand.
    let program = compile_instrumented(THREADED, &InstrumentOptions::default()).expect("compiles");
    let debug = program.debug.clone();
    let (n_partitions, per_partition) = (8u64, 4_096u64);
    let shm = Arc::new(SharedMem::new(PartitionedLog::region_bytes(
        n_partitions,
        per_partition,
    )));
    let plog = PartitionedLog::init(
        Arc::clone(&shm),
        &make_header(
            4242,
            n_partitions * per_partition,
            true,
            ENCLAVE_TEXT_BASE,
            SHM_BASE,
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
    let exit = vm.run().expect("partitioned run");
    assert_eq!(exit, classic.exit_code);
    let plog_file = plog.drain();

    // Same number of events, zero drops on both sides.
    assert_eq!(plog_file.entries.len(), classic.log.entries.len());
    assert_eq!(plog_file.header.dropped_entries(), 0);

    // The analyzer produces identical call counts from both logs.
    let classic_profile = Analyzer::new(classic.log, classic.debug)
        .expect("valid")
        .profile();
    let partitioned_pid = plog_file.header.pid;
    let partitioned_profile = Analyzer::new(plog_file, debug).expect("valid").profile();
    assert_eq!(partitioned_profile.anomalies.orphan_returns, 0);
    assert_eq!(partitioned_profile.anomalies.truncated_frames, 0);
    for m in &classic_profile.methods {
        let p = partitioned_profile
            .method(&m.name)
            .unwrap_or_else(|| panic!("{} missing from partitioned profile", m.name));
        assert_eq!(p.calls, m.calls, "{} call count differs", m.name);
        // The same threads, each keyed under its own log's process.
        let classic_threads: BTreeSet<u64> = m
            .threads
            .iter()
            .map(|key| merged_thread_key(partitioned_pid, *key))
            .collect();
        assert_eq!(p.threads, classic_threads, "{} thread set differs", m.name);
    }

    // Both produce structurally identical flame graphs (same stacks; tick
    // magnitudes differ because hook costs differ).
    let classic_fg = FlameGraph::from_folded(&classic_profile.folded);
    let partitioned_fg = FlameGraph::from_folded(&partitioned_profile.folded);
    let stacks = |fg: &FlameGraph| -> Vec<String> {
        fg.to_folded()
            .lines()
            .map(|l| l.rsplit_once(' ').expect("folded line").0.to_string())
            .collect()
    };
    assert_eq!(stacks(&classic_fg), stacks(&partitioned_fg));
    assert!(classic_fg.fraction("leaf") > 0.0);
}
