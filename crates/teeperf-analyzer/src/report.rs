//! The default sorted text report.

use crate::profile::Profile;
use teeperf_core::LogFile;

/// Render the profile the way the paper's analyzer presents it: per-method
/// rows sorted by exclusive time, plus data-quality notes.
pub fn render(profile: &Profile, log: &LogFile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "TEE-Perf profile — pid {}, {} events ({} threads)\n",
        log.header.pid,
        log.entries.len(),
        profile.threads.len()
    ));
    out.push_str(&format!(
        "total profiled time: {} ticks\n",
        profile.total_ticks
    ));
    // Log coverage up front: a truncated log silently skews every number
    // below, so say explicitly how much of the run the data covers instead
    // of leaving the reader to infer it from unbalanced stacks.
    let stored = log.entries.len() as u64;
    let reserved = log.header.tail.max(stored);
    if reserved > stored {
        let dropped = reserved - stored;
        out.push_str(&format!(
            "log coverage: {stored} of {reserved} events recorded, {dropped} dropped on overflow ({:.1}% lost)\n",
            dropped as f64 * 100.0 / reserved as f64
        ));
    } else {
        out.push_str(&format!(
            "log coverage: complete ({stored} events, capacity {})\n",
            log.header.size
        ));
    }
    out.push('\n');
    out.push_str(&profile.methods_frame().to_table());

    // The heaviest dynamic call edges — the call-history view of §II-C.
    let top_edges: Vec<_> = profile.caller_edges.iter().take(5).collect();
    if !top_edges.is_empty() {
        out.push_str("\nhottest call edges:\n");
        for e in top_edges {
            out.push_str(&format!(
                "  {} -> {}  ({} calls, {} incl ticks)\n",
                e.caller, e.callee, e.calls, e.inclusive
            ));
        }
    }

    let a = &profile.anomalies;
    if a.dropped_entries + a.orphan_returns + a.truncated_frames + a.incomplete_entries > 0 {
        out.push('\n');
        if a.dropped_entries > 0 {
            out.push_str(&format!(
                "warning: {} entries dropped (log full — increase max_entries, use selective profiling, or profile continuously with `teeperf live`)\n",
                a.dropped_entries
            ));
        }
        if a.incomplete_entries > 0 {
            out.push_str(&format!(
                "warning: {} incomplete records dismissed\n",
                a.incomplete_entries
            ));
        }
        if a.orphan_returns > 0 {
            out.push_str(&format!(
                "warning: {} orphan returns skipped\n",
                a.orphan_returns
            ));
        }
        if a.truncated_frames > 0 {
            out.push_str(&format!(
                "warning: {} frames force-closed at end of log\n",
                a.truncated_frames
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::symbolize::Symbolizer;
    use crate::{profile, Analyzer};
    use mcvm::DebugInfo;
    use teeperf_core::layout::{EventKind, LogEntry, LogHeader, LOG_VERSION};
    use teeperf_core::LogFile;

    fn make_log() -> (LogFile, DebugInfo) {
        let debug = DebugInfo::from_functions([("main", 4, 1), ("hot", 4, 5)]);
        let a0 = debug.entry_addr(0);
        let a1 = debug.entry_addr(1);
        let entries = vec![
            LogEntry {
                kind: EventKind::Call,
                counter: 1,
                addr: a0,
                tid: 0,
            },
            LogEntry {
                kind: EventKind::Call,
                counter: 10,
                addr: a1,
                tid: 0,
            },
            LogEntry {
                kind: EventKind::Return,
                counter: 90,
                addr: a1,
                tid: 0,
            },
            LogEntry {
                kind: EventKind::Return,
                counter: 101,
                addr: a0,
                tid: 0,
            },
        ];
        let log = LogFile::new(
            LogHeader {
                active: false,
                trace_calls: true,
                trace_returns: true,
                multithread: false,
                version: LOG_VERSION,
                pid: 55,
                size: 100,
                tail: 4,
                anchor: a0,
                shm_addr: 0,
            },
            entries,
        );
        (log, debug)
    }

    #[test]
    fn report_lists_methods_sorted_by_exclusive() {
        let (log, debug) = make_log();
        let r = Analyzer::new(log, debug).unwrap().report();
        assert!(r.contains("pid 55"));
        let hot_pos = r.find("hot").unwrap();
        let main_pos = r.find("main").unwrap();
        assert!(
            hot_pos < main_pos,
            "hot (80 excl) must sort above main (20)"
        );
        assert!(!r.contains("warning"));
    }

    #[test]
    fn report_includes_warnings_for_dropped_entries() {
        let (mut log, debug) = make_log();
        log.header.tail = 500;
        let sym = Symbolizer::new(debug, &log.header);
        let p = profile::build(&log, &sym);
        let r = super::render(&p, &log);
        assert!(r.contains("dropped"));
        assert!(
            r.contains(
                "log coverage: 4 of 500 events recorded, 496 dropped on overflow (99.2% lost)"
            ),
            "coverage line missing or wrong:\n{r}"
        );
    }

    #[test]
    fn report_warns_about_unwritten_slots() {
        // Two slots reserved but never written (a writer preempted
        // mid-entry): the analyzer reads the log as it is, so it sees
        // them, counts them and says so — as `profile::build` does.
        let (mut log, debug) = make_log();
        log.entries.insert(1, LogEntry::unpack([0, 0, 0]));
        log.entries.push(LogEntry::unpack([0, 0, 0]));
        log.header.tail = 6;
        let direct = profile::build(&log, &Symbolizer::new(debug.clone(), &log.header));
        let analyzer = Analyzer::new(log, debug).unwrap();
        let p = analyzer.profile();
        assert_eq!(p.anomalies.incomplete_entries, 2);
        assert_eq!(p, direct);
        let r = analyzer.report();
        assert!(
            r.contains("warning: 2 incomplete records dismissed\n"),
            "{r}"
        );
        assert!(r.contains("log coverage: complete (6 events, capacity 100)"));
    }

    #[test]
    fn report_states_complete_coverage() {
        let (log, debug) = make_log();
        let r = Analyzer::new(log, debug).unwrap().report();
        assert!(
            r.contains("log coverage: complete (4 events, capacity 100)"),
            "coverage line missing or wrong:\n{r}"
        );
    }
}
