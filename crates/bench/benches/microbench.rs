//! Criterion micro-benchmarks over the profiler's building blocks (real
//! wall-clock time of the implementation, not simulated cycles):
//!
//! * `log_write/lock_free` vs `log_write/mutex` — the paper's lock-free
//!   fetch-and-add log against a mutex-guarded alternative, under thread
//!   contention;
//! * `hook_record` — one full enter-event on the hot path;
//! * `analyzer_build` — profile construction over a 20 k-event log;
//! * `query_engine` — a `group … agg …` over the event frame;
//! * `flamegraph_svg` — rendering a 1 000-stack graph;
//! * `vm_dispatch` — raw Mini-C interpreter throughput.

use std::sync::Arc;
use std::sync::Mutex;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use mcvm::DebugInfo;
use tee_sim::{CostModel, Machine, SharedMem};
use teeperf_analyzer::{Analyzer, Symbolizer};
use teeperf_core::layout::{EventKind, LogEntry, LogHeader, LOG_VERSION, OFF_TAIL};
use teeperf_core::log::{make_header, region_bytes, SharedLog};
use teeperf_core::{LogFile, SimCounter, TeePerfHooks};
use teeperf_flamegraph::{FlameGraph, SvgOptions};

fn bench_log_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("log_write");
    let entry = LogEntry {
        kind: EventKind::Call,
        counter: 12_345,
        addr: 0x40_0000,
        tid: 0,
    };

    group.bench_function("lock_free", |b| {
        let shm = Arc::new(SharedMem::new(region_bytes(1 << 20)));
        let log = SharedLog::init(shm, &make_header(1, 1 << 20, true, 0, 0));
        let mut writer = log.batch_writer(1);
        b.iter(|| {
            // A full log only counts drops: wind the tail back (old slots
            // are simply overwritten) so every iteration times a real
            // append.
            if writer.append(&entry).slot.is_none() {
                log.shm().write_u64(OFF_TAIL, 0).expect("header in range");
            }
        });
    });

    group.bench_function("mutex", |b| {
        // The design alternative the paper rejected: a lock around an
        // append-only vector.
        let log: Mutex<Vec<LogEntry>> = Mutex::new(Vec::with_capacity(1 << 20));
        b.iter(|| {
            let mut guard = log.lock().expect("not poisoned");
            if guard.len() == guard.capacity() {
                guard.clear();
            }
            guard.push(entry);
        });
    });

    group.bench_function("lock_free_4_threads", |b| {
        b.iter_batched(
            || {
                let shm = Arc::new(SharedMem::new(region_bytes(1 << 16)));
                SharedLog::init(shm, &make_header(1, 1 << 16, true, 0, 0))
            },
            |log| {
                std::thread::scope(|s| {
                    for t in 0..4u64 {
                        let log = log.clone();
                        s.spawn(move || {
                            let mut writer = log.batch_writer(1);
                            for _ in 0..2_000 {
                                writer.append(&LogEntry {
                                    kind: EventKind::Call,
                                    counter: 1,
                                    addr: 2,
                                    tid: t,
                                });
                            }
                        });
                    }
                });
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_hook_record(c: &mut Criterion) {
    c.bench_function("hook_record", |b| {
        let shm = Arc::new(SharedMem::new(region_bytes(1 << 20)));
        let log = SharedLog::init(Arc::clone(&shm), &make_header(1, 1 << 20, true, 0, 0));
        let mut machine = Machine::new(CostModel::sgx_v1());
        machine.map_shared(shm);
        machine.ecall();
        let mut hooks =
            TeePerfHooks::new(log, Box::new(SimCounter::standard(machine.clock().clone())));
        let mut i = 0u64;
        b.iter(|| {
            hooks.record(&mut machine, EventKind::Call, 0x40_0000 + i, 0);
            i += 1;
        });
    });
}

fn synthetic_log(events: usize) -> (LogFile, DebugInfo) {
    let debug = DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5), ("leaf", 4, 9)]);
    let mut entries = Vec::with_capacity(events);
    let mut counter = 0u64;
    // Nested call pattern main -> work -> leaf, repeated.
    while entries.len() + 6 <= events {
        for (kind, f) in [
            (EventKind::Call, 0u16),
            (EventKind::Call, 1),
            (EventKind::Call, 2),
            (EventKind::Return, 2),
            (EventKind::Return, 1),
            (EventKind::Return, 0),
        ] {
            counter += 7;
            entries.push(LogEntry {
                kind,
                counter,
                addr: debug.entry_addr(f),
                tid: (entries.len() % 4) as u64 / 2,
            });
        }
    }
    let header = LogHeader {
        active: false,
        trace_calls: true,
        trace_returns: true,
        multithread: true,
        version: LOG_VERSION,
        pid: 1,
        size: entries.len() as u64,
        tail: entries.len() as u64,
        anchor: debug.entry_addr(0),
        shm_addr: 0,
    };
    (LogFile::new(header, entries), debug)
}

fn bench_analyzer(c: &mut Criterion) {
    let (log, debug) = synthetic_log(20_000);
    c.bench_function("analyzer_build_20k_events", |b| {
        b.iter(|| {
            let analyzer = Analyzer::new(log.clone(), debug.clone()).expect("valid");
            std::hint::black_box(analyzer.profile().total_ticks)
        });
    });

    let analyzer = Analyzer::new(log, debug).expect("valid");
    let frame = analyzer.events_frame();
    c.bench_function("query_group_agg_20k_rows", |b| {
        b.iter(|| {
            let out = teeperf_analyzer::run_query(
                &frame,
                "group method agg count() as n, sum(counter) as total sort total desc",
            )
            .expect("query runs");
            std::hint::black_box(out.len())
        });
    });
}

fn bench_flamegraph(c: &mut Criterion) {
    let folded: Vec<(Vec<String>, u64)> = (0..1_000)
        .map(|i| {
            (
                vec![
                    "main".to_string(),
                    format!("module_{}", i % 20),
                    format!("fn_{i}"),
                ],
                (i % 97 + 1) as u64,
            )
        })
        .collect();
    c.bench_function("flamegraph_svg_1k_stacks", |b| {
        b.iter(|| {
            let fg = FlameGraph::from_folded(&folded);
            std::hint::black_box(fg.to_svg(&SvgOptions::default()).len())
        });
    });
}

fn bench_vm(c: &mut Criterion) {
    let src = "
        fn work(n: int) -> int {
            let s: int = 0;
            for (let i: int = 0; i < n; i = i + 1) { s = s + i * 3 % 7; }
            return s;
        }
        fn main() -> int { return work(5000); }
    ";
    c.bench_function("vm_dispatch_45k_instructions", |b| {
        b.iter_batched(
            || mcvm::compile(src).expect("compiles"),
            |program| {
                let mut vm = mcvm::Vm::new(program, Machine::new(CostModel::native()));
                std::hint::black_box(vm.run().expect("runs"))
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_symbolizer(c: &mut Criterion) {
    let debug = DebugInfo::from_functions((0..512).map(|_| ("some_function_name", 16u64, 1u32)));
    let addrs: Vec<u64> = (0..512u16).map(|i| debug.entry_addr(i)).collect();
    let sym = Symbolizer::without_relocation(debug);
    c.bench_function("symbolize_512_functions", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % addrs.len();
            std::hint::black_box(sym.name_of(addrs[i]))
        });
    });
}

criterion_group!(
    benches,
    bench_log_write,
    bench_hook_record,
    bench_analyzer,
    bench_flamegraph,
    bench_vm,
    bench_symbolizer
);
criterion_main!(benches);
