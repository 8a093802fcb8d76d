//! The rolling profile and the batch build run one walker
//! (`teeperf_analyzer::Walker`), so feeding a log to a [`RollingProfile`]
//! in any chunking, then finishing and snapshotting it, gives exactly the
//! profile the batch build makes of the whole log:
//!
//! * over random interleavings of 1–8 threads, with all-zero holes
//!   (incomplete, counted) and zero-address torn records (dismissed) at
//!   random places, cut into random chunks;
//! * over the seven Phoenix recordings, in chunks of 1, 7, 1024 and the
//!   whole log, against `Analyzer::profile`.

use proptest::prelude::*;
use teeperf_analyzer::profile::{self, Profile};
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_core::layout::{EventKind, LogEntry};
use teeperf_core::log::make_header;
use teeperf_live::RollingProfile;

/// Feed `entries` of process `pid` in chunks of `chunk` (the whole log
/// when `None`), finish, and snapshot.
fn rolled(
    entries: &[LogEntry],
    chunk: Option<usize>,
    sym: &Symbolizer,
    pid: u64,
    dropped: u64,
) -> Profile {
    let mut rolling = RollingProfile::for_process(pid, None);
    for batch in entries.chunks(chunk.unwrap_or(entries.len()).max(1)) {
        rolling.ingest(batch);
    }
    rolling.finish();
    rolling.snapshot(sym, dropped)
}

const FUNCS: u16 = 4;

fn debug() -> mcvm::DebugInfo {
    mcvm::DebugInfo::from_functions([
        ("alpha", 4, 1),
        ("beta", 4, 5),
        ("gamma", 4, 9),
        ("delta", 4, 13),
    ])
}

/// One drawn event: which thread writes it, whether it is a call, which
/// function, and how far its thread's counter advances.
type Draw = (u64, bool, u16, u64);

/// The drawn events as one interleaved stream: each thread's counter rises
/// strictly, a call targets its drawn function, and a return closes the
/// thread's innermost open frame — or, with nothing open, is an orphan.
fn interleave(draws: &[Draw]) -> Vec<LogEntry> {
    let addrs: Vec<u64> = (0..FUNCS).map(|i| debug().entry_addr(i)).collect();
    let mut counters = [0u64; 8];
    let mut open: Vec<Vec<u64>> = vec![Vec::new(); 8];
    draws
        .iter()
        .map(|&(tid, call, func, gap)| {
            let t = tid as usize;
            counters[t] += gap;
            let (kind, addr) = if call {
                open[t].push(addrs[func as usize]);
                (EventKind::Call, addrs[func as usize])
            } else {
                let addr = open[t].pop().unwrap_or(addrs[func as usize]);
                (EventKind::Return, addr)
            };
            LogEntry {
                kind,
                counter: counters[t],
                addr,
                tid,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_any_chunking_of_a_rolling_profile_is_the_batch_build(
        threads in 1u64..9,
        draws in proptest::collection::vec((0u64..8, any::<bool>(), 0..FUNCS, 1u64..30), 1..300),
        holes in proptest::collection::vec(any::<usize>(), 0..8),
        torn in proptest::collection::vec((any::<usize>(), 1u64..500, 0u64..8, any::<bool>()), 0..8),
        cuts in proptest::collection::vec(1usize..64, 1..12),
    ) {
        let draws: Vec<Draw> = draws
            .into_iter()
            .map(|(tid, call, func, gap)| (tid % threads, call, func, gap))
            .collect();
        let mut entries = interleave(&draws);
        for at in &holes {
            entries.insert(at % (entries.len() + 1), LogEntry::unpack([0, 0, 0]));
        }
        for &(at, counter, tid, call) in &torn {
            let kind = if call { EventKind::Call } else { EventKind::Return };
            let record = LogEntry { kind, counter, addr: 0, tid: tid % threads };
            entries.insert(at % (entries.len() + 1), record);
        }

        let sym = Symbolizer::new(debug(), &make_header(3, 4096, true, 0, 0));
        let batch = profile::build_entries(&entries, 3, 5, &sym, 1);
        prop_assert_eq!(batch.anomalies.incomplete_entries, holes.len() as u64);

        // Any chunking: the cut lengths, repeated until the stream ends.
        let mut rolling = RollingProfile::for_process(3, None);
        let (mut at, mut cut) = (0, cuts.iter().cycle());
        while at < entries.len() {
            let end = (at + cut.next().expect("cycled")).min(entries.len());
            rolling.ingest(&entries[at..end]);
            at = end;
        }
        rolling.finish();
        let dismissed = holes.len() + torn.len();
        prop_assert_eq!(rolling.events(), (entries.len() - dismissed) as u64);
        prop_assert_eq!(&rolling.snapshot(&sym, 5), &batch);
        prop_assert_eq!(&rolled(&entries, None, &sym, 3, 5), &batch);
    }
}

/// Each of the seven Phoenix programs recorded at `Scale::Small`: the
/// rolling profile over its log, in chunks of 1, 7, 1024 and whole, is
/// the batch analyzer's profile.
#[test]
fn phoenix_recordings_roll_into_the_batch_profile() {
    use phoenix::{suite, Scale};
    use teeperf_analyzer::Analyzer;
    use teeperf_compiler::{compile_instrumented, profile_program, InstrumentOptions};
    use teeperf_core::RecorderConfig;

    for bench in suite(Scale::Small, 1) {
        let program = compile_instrumented(bench.source(), &InstrumentOptions::default())
            .expect("every Phoenix program compiles instrumented");
        let run = profile_program(
            program,
            tee_sim::CostModel::sgx_v1(),
            mcvm::RunConfig::default(),
            &RecorderConfig::default(),
            |vm| bench.setup(vm),
        )
        .expect("every Phoenix program records");
        let sym = Symbolizer::new(run.debug.clone(), &run.log.header);
        let (pid, dropped) = (run.log.header.pid, run.log.header.dropped_entries());
        let batch = Analyzer::new(run.log.clone(), run.debug)
            .expect("the recording validates")
            .profile();
        assert!(
            batch.threads.len() > 1,
            "{} runs several threads",
            bench.name()
        );
        for chunk in [Some(1), Some(7), Some(1024), None] {
            let live = rolled(&run.log.entries, chunk, &sym, pid, dropped);
            assert!(live == batch, "{} in chunks of {chunk:?}", bench.name());
        }
    }
}
