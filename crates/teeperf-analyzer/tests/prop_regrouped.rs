//! Property test: how the threads of a log interleave changes nothing. An
//! arbitrary interleaved multi-thread log — all-zero (incomplete) records,
//! orphan returns and frames still open at its end included — builds the
//! same profile as the same log with each thread's events regrouped into
//! one run.

use proptest::prelude::*;

use mcvm::DebugInfo;
use teeperf_analyzer::profile;
use teeperf_analyzer::Symbolizer;
use teeperf_core::layout::{EventKind, LogEntry, LogHeader, LOG_VERSION};
use teeperf_core::LogFile;

fn debug_info() -> DebugInfo {
    DebugInfo::from_functions([("alpha", 4u64, 1u32), ("beta", 4, 2), ("gamma", 4, 3)])
}

/// Map an opcode to a call/return target. Choices 0–2 are function entry
/// points, choice 3 is an *interior* address of `alpha` (an alias that must
/// intern to the same symbol), and the rest are addresses with no debug
/// info at all (symbolized as raw hex).
fn addr_for(debug: &DebugInfo, choice: u16) -> u64 {
    match choice {
        0..=2 => debug.entry_addr(choice),
        3 => debug.entry_addr(0) + 4,
        c => 0x90_0000 + u64::from(c) * 16,
    }
}

/// An arbitrary interleaved multi-thread log. Per (tid, addr, action) op:
/// mostly calls and matched returns, sometimes an orphan return (a return
/// with an empty per-thread stack), sometimes an all-zero record the
/// reader must dismiss. Open frames at the end of the log are truncated
/// frames by construction.
fn arbitrary_log() -> impl Strategy<Value = Vec<LogEntry>> {
    proptest::collection::vec((0u64..4, 0u16..6, 0u32..8), 1..300).prop_map(|ops| {
        let debug = debug_info();
        let mut entries = Vec::new();
        let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); 4];
        let mut counter = 0u64;
        for (tid, choice, action) in ops {
            counter += 1 + u64::from(choice);
            match action {
                // An all-zero reserved-but-never-written record.
                7 => entries.push(LogEntry {
                    kind: EventKind::Call,
                    counter: 0,
                    addr: 0,
                    tid: 0,
                }),
                // A return: matched when the thread has an open frame,
                // an orphan otherwise.
                4..=6 => {
                    let addr = stacks[tid as usize]
                        .pop()
                        .unwrap_or_else(|| addr_for(&debug, choice));
                    entries.push(LogEntry {
                        kind: EventKind::Return,
                        counter,
                        addr,
                        tid,
                    });
                }
                _ => {
                    let addr = addr_for(&debug, choice);
                    stacks[tid as usize].push(addr);
                    entries.push(LogEntry {
                        kind: EventKind::Call,
                        counter,
                        addr,
                        tid,
                    });
                }
            }
        }
        entries
    })
}

/// The same entries with each thread's events in one run, the threads in
/// ascending order, and the all-zero records after them all.
fn regrouped(entries: &[LogEntry]) -> Vec<LogEntry> {
    let (mut valid, holes): (Vec<LogEntry>, Vec<LogEntry>) =
        entries.iter().copied().partition(|e| e.addr != 0);
    valid.sort_by_key(|e| e.tid);
    valid.extend(holes);
    valid
}

fn log_file(entries: Vec<LogEntry>) -> LogFile {
    let n = entries.len() as u64;
    LogFile::new(
        LogHeader {
            active: false,
            trace_calls: true,
            trace_returns: true,
            multithread: true,
            version: LOG_VERSION,
            pid: 11,
            size: n,
            tail: n,
            anchor: 0,
            shm_addr: 0,
        },
        entries,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn an_interleaved_log_builds_what_its_regrouped_log_builds(entries in arbitrary_log()) {
        let symbolizer = Symbolizer::without_relocation(debug_info());
        let runs = regrouped(&entries);
        let interleaved = profile::build(&log_file(entries), &symbolizer);
        prop_assert_eq!(&interleaved, &profile::build(&log_file(runs), &symbolizer));
    }
}
