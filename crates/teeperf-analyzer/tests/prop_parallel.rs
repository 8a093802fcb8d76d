//! Property test: the sharded analyzer build is indistinguishable from the
//! sequential one on arbitrary interleaved multi-thread logs — including
//! logs with all-zero (incomplete) records, orphan returns, and frames
//! truncated by the end of the log.

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

/// The same top-level call trees on every thread, thread `t` starting at
/// tree `t`: whatever the shard assignment, two shards meet the same stacks
/// in different orders, so their tables number them differently.
fn rotated_log() -> impl Strategy<Value = Vec<LogEntry>> {
    let tree = proptest::collection::vec((0u16..6, any::<bool>()), 1..12);
    (proptest::collection::vec(tree, 2..6), 2u64..5).prop_map(|(trees, threads)| {
        let debug = debug_info();
        let mut entries = Vec::new();
        let mut counter = 0u64;
        for tid in 0..threads {
            for i in 0..trees.len() {
                let mut open: Vec<u64> = Vec::new();
                let mut event = |kind, addr| {
                    counter += 3;
                    entries.push(LogEntry {
                        kind,
                        counter,
                        addr,
                        tid,
                    });
                };
                for (choice, push) in &trees[(i + tid as usize) % trees.len()] {
                    match open.pop() {
                        Some(addr) if !*push => event(EventKind::Return, addr),
                        top => {
                            open.extend(top);
                            open.push(addr_for(&debug, *choice));
                            event(EventKind::Call, addr_for(&debug, *choice));
                        }
                    }
                }
                while let Some(addr) = open.pop() {
                    event(EventKind::Return, addr);
                }
            }
        }
        entries
    })
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
    fn sharded_build_equals_sequential_whatever_order_shards_meet_stacks_in(
        entries in rotated_log(),
    ) {
        let log = log_file(entries);
        let sequential = profile::build(&log, &Symbolizer::without_relocation(debug_info()));
        prop_assert_eq!(sequential.anomalies, profile::Anomalies::default());
        for shards in [2usize, 3, 4] {
            let symbolizer = Symbolizer::without_relocation(debug_info());
            let parallel = profile::build_with_shards(&log, &symbolizer, shards);
            prop_assert_eq!(&parallel, &sequential, "shards = {}", shards);
        }
    }

    #[test]
    fn sharded_build_equals_sequential(entries in arbitrary_log()) {
        let log = log_file(entries);
        let symbolizer = Symbolizer::without_relocation(debug_info());
        let sequential = profile::build(&log, &symbolizer);
        for shards in [2usize, 3, 8] {
            // A cold symbolizer per build: equality must not depend on
            // cache warmth.
            let parallel =
                profile::build_with_shards(&log, &symbolizer.clone(), shards);
            prop_assert_eq!(&parallel, &sequential, "shards = {}", shards);
            // The interned views stay aligned with the string views.
            prop_assert_eq!(parallel.folded.len(), parallel.folded_ids.len());
            for ((names, n_ticks), (ids, i_ticks)) in
                parallel.folded.iter().zip(&parallel.folded_ids)
            {
                prop_assert_eq!(n_ticks, i_ticks);
                let resolved: Vec<&str> = ids
                    .iter()
                    .map(|id| parallel.symbols[*id as usize].as_str())
                    .collect();
                let named: Vec<&str> = names.iter().map(String::as_str).collect();
                prop_assert_eq!(resolved, named);
            }
        }
    }
}
