//! Integration tests for the continuous-profiling subsystem:
//!
//! * a property test that concurrent writers — straight onto the log or
//!   through a recorder's hooks — plus a rotating drain lose no entries
//!   and duplicate none, across many epoch rotations;
//! * an end-to-end check that a live session over the Phoenix
//!   `string_match` workload (the paper's highest call-density benchmark)
//!   converges to the same hot methods as the offline batch analyzer.

use std::sync::Barrier;

use proptest::prelude::*;
use tee_sim::{CostModel, Machine};
use teeperf_core::layout::{EventKind, LogEntry};
use teeperf_core::{
    EventSource, LiveLogSource, Recorder, RecorderConfig, SalvageReason, SalvageReport, SourceBatch,
};

/// How a writer thread appends.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// Straight onto the log.
    Log,
    /// Through the hooks a [`Recorder`] hands out at this `batch_slots`,
    /// exactly as handed out. An append the rotation handshake cannot see
    /// would lose or resurrect entries here wherever the threads really run
    /// in parallel; `teeperf_core`'s
    /// `hooks_announce_every_append_so_no_rotation_slips_into_one` forces
    /// that interleaving on any host.
    Hooks(u64),
}

/// One writer thread's appends; returns the addresses it published.
fn write_events(
    recorder: &Recorder,
    start: &Barrier,
    via: Via,
    t: u64,
    per_writer: u64,
) -> Vec<u64> {
    // The hooks route runs the injected code on a machine of its own, as
    // a thread of the profiled process does.
    let mut hooked = matches!(via, Via::Hooks(_)).then(|| {
        let mut machine = Machine::new(CostModel::sgx_v1());
        recorder.attach(&mut machine);
        machine.ecall();
        let hooks = recorder.sim_hooks(machine.clock().clone());
        (machine, hooks)
    });
    let mut published = Vec::new();
    start.wait();
    for k in 0..per_writer {
        let addr = (t + 1) * 1_000_000 + k + 1;
        let stored = match &mut hooked {
            None => recorder
                .log()
                .write_live(&LogEntry {
                    kind: EventKind::Call,
                    counter: k + 1,
                    addr,
                    tid: t,
                })
                .is_some(),
            Some((machine, hooks)) => {
                let before = hooks.events_recorded();
                hooks.record(machine, EventKind::Call, addr, t);
                hooks.events_recorded() > before
            }
        };
        if stored {
            published.push(addr);
        }
    }
    published
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random writer counts, per-writer volumes, (tiny) log capacities and
    /// append routes: whatever the interleaving, the rotating drain
    /// recovers exactly the entries the writers successfully published —
    /// each exactly once — and every unpublished entry is accounted as
    /// dropped, every unpublished slot as abandoned.
    #[test]
    fn prop_concurrent_drain_loses_nothing_duplicates_nothing(
        writers in 1usize..4,
        per_writer in 1u64..600,
        capacity in 2u64..32,
        via in 0usize..3,
    ) {
        let via = [Via::Log, Via::Hooks(1), Via::Hooks(8)][via];
        // The hooks inputs are about writers racing a rotation and each
        // other: never fewer than two threads, and long enough that the
        // threads really overlap (a thread outlives its own spawn).
        let (writers, per_writer) = match via {
            Via::Log => (writers, per_writer),
            Via::Hooks(_) => (writers.max(2), per_writer * 32),
        };
        let recorder = Recorder::new(&RecorderConfig {
            max_entries: capacity,
            pid: 1,
            batch_slots: match via {
                Via::Log => 1,
                Via::Hooks(slots) => slots,
            },
            ..RecorderConfig::default()
        });
        let log = recorder.log().clone();
        let total = writers as u64 * per_writer;
        let mut src = LiveLogSource::new(log.clone(), 75);
        let (mut drained, mut salvage) = (Vec::new(), SalvageReport::default());
        // What a session keeps of a drain: its entries and salvage, summed.
        let mut keep = |batch: SourceBatch| {
            salvage.absorb(&batch.salvaged);
            drained.extend(batch.entries);
            batch.state.epoch
        };
        // Writers and drain start together.
        let start = Barrier::new(writers + 1);
        let mut published: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..writers as u64)
                .map(|t| {
                    let (recorder, start) = (&recorder, &start);
                    s.spawn(move || write_events(recorder, start, via, t, per_writer))
                })
                .collect();
            start.wait();
            // Poll and rotate for as long as any writer runs.
            while !handles.iter().all(|h| h.is_finished()) {
                keep(src.pump());
                keep(src.drain_to_end());
            }
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let epochs = keep(src.drain_to_end());

        // Conservation: published + dropped == attempted, and every slot
        // reserved but never published was seen by exactly one rotation.
        prop_assert_eq!(published.len() as u64 + log.dropped_total(), total);
        prop_assert_eq!(salvage.count(SalvageReason::TornEntry), 0);
        prop_assert_eq!(salvage.count(SalvageReason::UnpublishedSlot), log.abandoned_total());
        if !matches!(via, Via::Hooks(8)) {
            prop_assert_eq!(log.abandoned_total(), 0, "one-slot claims abandon nothing");
        }
        // Exactly the published entries came out, each exactly once.
        let mut got: Vec<u64> = drained.iter().map(|e| e.addr).collect();
        published.sort_unstable();
        got.sort_unstable();
        let drained_len = got.len() as u64;
        prop_assert_eq!(got, published);
        // Each epoch can surface at most `capacity` entries, so a drained
        // volume above 4× capacity proves repeated rotation. (The attempted
        // volume proves nothing: under unlucky scheduling the writers can
        // overflow the log before the drainer first runs.)
        if drained_len > capacity * 4 {
            prop_assert!(epochs >= 3, "only {} epochs", epochs);
        }
    }
}

mod string_match_convergence {
    use super::*;
    use phoenix::{suite, Benchmark, Scale};
    use teeperf_analyzer::symbolize::Symbolizer;
    use teeperf_analyzer::{profile, Analyzer, Profile};
    use teeperf_compiler::{compile_instrumented, profile_program, InstrumentOptions};
    use teeperf_core::RecorderConfig;
    use teeperf_live::{live_profile_processes, LiveConfig, LiveRunConfig};

    fn string_match() -> Box<dyn Benchmark> {
        suite(Scale::Small, 42)
            .into_iter()
            .find(|b| b.name() == "string_match")
            .expect("string_match is in the suite")
    }

    fn top5(p: &Profile) -> Vec<String> {
        p.methods.iter().take(5).map(|m| m.name.clone()).collect()
    }

    /// The acceptance criterion of the live subsystem: a session over
    /// `string_match` rotating through a log that is orders of magnitude
    /// smaller than the event stream must agree with the offline batch
    /// analyzer run on an unbounded log.
    #[test]
    fn live_string_match_matches_offline_top5() {
        let bench = string_match();
        let program = compile_instrumented(bench.source(), &InstrumentOptions::default())
            .expect("string_match compiles instrumented");

        let recorder = RecorderConfig {
            max_entries: 512,
            ..RecorderConfig::default()
        };
        let mut run = live_profile_processes(
            &program,
            &CostModel::sgx_v1(),
            &mcvm::RunConfig::default(),
            &recorder,
            &LiveRunConfig {
                live: LiveConfig {
                    keep_replay: true,
                    ..LiveConfig::default()
                },
                refresh_events: 5_000,
                pump_every_instructions: 128,
                adaptive_pump: true,
                ..LiveRunConfig::default()
            },
            &[recorder.pid],
            |vm| bench.setup(vm),
        )
        .expect("live run succeeds");
        let live = run.per_pid.remove(&recorder.pid).expect("the one process");
        let status = &live.snapshot.status;

        // The session must have rotated repeatedly, lost nothing, and the
        // writer was never stopped (the run completed with full output).
        assert!(status.epoch >= 3, "only {} epochs", status.epoch);
        assert_eq!(status.dropped, 0, "pump cadence must keep up");
        assert!(status.events > 512, "stream must exceed the log capacity");

        // Offline reference: same workload, one big batch log.
        let offline = profile_program(
            program,
            CostModel::sgx_v1(),
            mcvm::RunConfig::default(),
            &RecorderConfig::default(),
            |vm| bench.setup(vm),
        )
        .expect("batch run succeeds");
        assert_eq!(live.exit_code, offline.exit_code);
        let offline_profile = Analyzer::new(offline.log, offline.debug)
            .expect("log validates")
            .profile();

        // Identical hot methods, identical call counts.
        assert_eq!(top5(&live.snapshot.profile), top5(&offline_profile));
        for m in &live.snapshot.profile.methods {
            let o = offline_profile
                .method(&m.name)
                .unwrap_or_else(|| panic!("{} missing offline", m.name));
            assert_eq!(m.calls, o.calls, "{}", m.name);
        }

        // Replaying the drained stream through the batch aggregator must
        // reproduce the rolling profile exactly.
        let sym = Symbolizer::new(run.debug.clone(), &live.replay.header);
        let replayed = profile::build(&live.replay, &sym);
        assert_eq!(live.snapshot.profile.methods, replayed.methods);
        assert_eq!(live.snapshot.profile.folded, replayed.folded);
        assert_eq!(live.snapshot.profile.total_ticks, replayed.total_ticks);

        // Time is partitioned exactly: the exclusive total equals the
        // inclusive time of the top-level frames.
        let root_inclusive: u64 = live
            .snapshot
            .profile
            .caller_edges
            .iter()
            .filter(|e| e.caller == "<root>")
            .map(|e| e.inclusive)
            .sum();
        assert_eq!(live.snapshot.profile.total_ticks, root_inclusive);
    }
}
