//! Log validation and per-thread event grouping.
//!
//! The grouping copies: every valid entry becomes an [`Event`] in its
//! thread's list. The analyzer pass does without it — one
//! `profile::Walker` walks the entries where they lie, one thread's run
//! of them at a time, for the batch build and the rolling profile alike
//! — so no product path calls [`group_entries`]: it serves tests that
//! want whole per-thread lists and the benchmark's trace of this stage.
//! Grouping and walker dismiss records by the same rule: an all-zero
//! record as incomplete, a zero address as torn.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use teeperf_core::faults::{SalvageReason, SalvageReport};
use teeperf_core::layout::{EventKind, HeaderFault, HeaderRule, LogEntry, LogHeader};
use teeperf_core::LogFile;

/// Errors detected while validating a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The header may not be trusted. The version field exists precisely
    /// so the analyzer can support multiple layouts (§II-B); this one
    /// speaks only the current version.
    Header(HeaderFault),
    /// The header contradicts the log body: more entries than the declared
    /// `max_size` could ever hold. A log like this was not produced by the
    /// recorder and nothing in it can be trusted.
    InconsistentHeader {
        /// Number of entries present.
        entries: u64,
        /// Capacity the header declares.
        max_size: u64,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Header(fault) => fault.fmt(f),
            AnalyzeError::InconsistentHeader { entries, max_size } => write!(
                f,
                "inconsistent log header: {entries} entries exceed max_size {max_size}"
            ),
        }
    }
}

impl Error for AnalyzeError {}

/// Check header invariants: the header passes
/// [`LogHeader::check`] as a foreign image (a log built in memory is held
/// to what one loaded from a file is), and the body fits the capacity it
/// declares.
///
/// # Errors
/// Returns [`AnalyzeError::Header`] with the check's fault and
/// [`AnalyzeError::InconsistentHeader`] when the body exceeds the header's
/// declared capacity.
pub fn validate(log: &LogFile) -> Result<(), AnalyzeError> {
    LogHeader::from_image(&log.header.to_image(), HeaderRule::Foreign)
        .map_err(AnalyzeError::Header)?;
    if log.entries.len() as u64 > log.header.size {
        return Err(AnalyzeError::InconsistentHeader {
            entries: log.entries.len() as u64,
            max_size: log.header.size,
        });
    }
    Ok(())
}

/// One event after grouping (the thread id moved into the group key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Call or return.
    pub kind: EventKind,
    /// Counter value at the event.
    pub counter: u64,
    /// Call/return target address.
    pub addr: u64,
    /// Position in the original log (for queries and debugging).
    pub seq: u64,
}

/// Events grouped per thread, in log order. Within one thread the order is
/// the thread's true execution order — the guarantee the paper's recorder
/// provides by holding the thread until its entry is written.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadEvents {
    /// thread id → events in order.
    pub threads: BTreeMap<u64, Vec<Event>>,
    /// All-zero entries dismissed as incomplete (reserved but never
    /// written, e.g. a thread preempted mid-write when the log was drained).
    pub incomplete: u64,
    /// Torn entries dismissed: a published record with an impossible zero
    /// target address, the signature of a partial slot write (the recorder
    /// publishes the address before the kind/counter word, so a zero
    /// address under a nonzero first word cannot occur in a healthy log).
    pub torn: u64,
}

impl ThreadEvents {
    /// Salvage accounting for this grouping pass: events kept, incomplete
    /// and torn records dismissed.
    pub fn salvage(&self) -> SalvageReport {
        let mut report = SalvageReport {
            kept: self.threads.values().map(|v| v.len() as u64).sum(),
            ..SalvageReport::default()
        };
        report.drop_n(SalvageReason::UnpublishedSlot, self.incomplete);
        report.drop_n(SalvageReason::TornEntry, self.torn);
        report
    }
}

/// The all-zero "reserved but never written" test, on the parse hot path
/// for every entry in the log.
#[inline]
pub(crate) fn is_incomplete(e: &LogEntry) -> bool {
    // One branch in the common case: a real entry virtually always has a
    // nonzero counter, so the `addr`/`tid` comparisons are rarely reached.
    e.counter == 0 && e.addr == 0 && e.tid == 0
}

/// Group the log's entries by thread, dismissing incomplete records.
pub fn group_by_thread(log: &LogFile) -> ThreadEvents {
    group_entries(&log.entries)
}

/// Group raw entries by thread, dismissing incomplete records (the core of
/// [`group_by_thread`]).
///
/// Two passes: a counting pass sizes every per-thread vector exactly, then
/// a fill pass copies events straight through without ever reallocating.
pub fn group_entries(entries: &[LogEntry]) -> ThreadEvents {
    let mut out = ThreadEvents::default();

    // Counting pass: exact per-thread capacities (each bounded by the
    // header's tail reservation), so the fill pass allocates once per
    // thread instead of growing geometrically. Recorders emit long runs of
    // same-thread entries, so runs are accumulated locally and flushed to
    // the map once per run rather than once per entry.
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    let mut run: Option<(u64, usize)> = None;
    for e in entries {
        if is_incomplete(e) {
            out.incomplete += 1;
        } else if e.addr == 0 {
            out.torn += 1;
        } else {
            match &mut run {
                Some((tid, n)) if *tid == e.tid => *n += 1,
                _ => {
                    if let Some((tid, n)) = run.take() {
                        *counts.entry(tid).or_default() += n;
                    }
                    run = Some((e.tid, 1));
                }
            }
        }
    }
    if let Some((tid, n)) = run {
        *counts.entry(tid).or_default() += n;
    }
    for (tid, n) in counts {
        out.threads.insert(tid, Vec::with_capacity(n));
    }

    // Fill pass: capacities are exact, no vector ever grows, and the map
    // is consulted once per same-thread run instead of once per entry.
    let n = entries.len();
    let mut idx = 0usize;
    while idx < n {
        let e = &entries[idx];
        if is_incomplete(e) || e.addr == 0 {
            idx += 1;
            continue;
        }
        let tid = e.tid;
        let events = out
            .threads
            .get_mut(&tid)
            .expect("counted in the first pass");
        while idx < n {
            let e = &entries[idx];
            if is_incomplete(e) || e.addr == 0 || e.tid != tid {
                break;
            }
            events.push(Event {
                kind: e.kind,
                counter: e.counter,
                addr: e.addr,
                seq: idx as u64,
            });
            idx += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use teeperf_core::layout::LOG_VERSION;

    fn header(version: u16) -> LogHeader {
        LogHeader {
            active: false,
            trace_calls: true,
            trace_returns: true,
            multithread: true,
            version,
            pid: 1,
            size: 100,
            tail: 0,
            anchor: 0,
            shm_addr: 0,
        }
    }

    fn entry(kind: EventKind, counter: u64, addr: u64, tid: u64) -> LogEntry {
        LogEntry {
            kind,
            counter,
            addr,
            tid,
        }
    }

    #[test]
    fn validate_accepts_current_version() {
        let log = LogFile::new(header(LOG_VERSION), vec![]);
        assert!(validate(&log).is_ok());
    }

    #[test]
    fn validate_rejects_future_version() {
        let log = LogFile::new(header(9), vec![]);
        let fault = HeaderFault::BadVersion { found: 9 };
        assert_eq!(validate(&log), Err(AnalyzeError::Header(fault)));
    }

    #[test]
    fn groups_by_thread_preserving_order() {
        let log = LogFile::new(
            header(LOG_VERSION),
            vec![
                entry(EventKind::Call, 10, 100, 0),
                entry(EventKind::Call, 11, 200, 1),
                entry(EventKind::Return, 12, 100, 0),
                entry(EventKind::Return, 13, 200, 1),
            ],
        );
        let g = group_by_thread(&log);
        assert_eq!(g.threads.len(), 2);
        assert_eq!(g.threads[&0].len(), 2);
        assert_eq!(g.threads[&0][0].addr, 100);
        assert_eq!(g.threads[&1][1].kind, EventKind::Return);
        assert_eq!(g.threads[&0][1].seq, 2);
        assert_eq!(g.incomplete, 0);
    }

    #[test]
    fn dismisses_incomplete_all_zero_records() {
        let log = LogFile::new(
            header(LOG_VERSION),
            vec![
                entry(EventKind::Call, 10, 100, 0),
                entry(EventKind::Return, 0, 0, 0), // reserved, never written
            ],
        );
        let g = group_by_thread(&log);
        assert_eq!(g.incomplete, 1);
        assert_eq!(g.threads[&0].len(), 1);
    }

    #[test]
    fn dismisses_torn_records_and_accounts_them() {
        use teeperf_core::faults::SalvageReason;
        let log = LogFile::new(
            header(LOG_VERSION),
            vec![
                entry(EventKind::Call, 10, 100, 0),
                entry(EventKind::Call, 11, 0, 0), // torn: published, addr never landed
                entry(EventKind::Return, 12, 100, 0),
                entry(EventKind::Return, 0, 0, 0), // incomplete
            ],
        );
        let g = group_by_thread(&log);
        assert_eq!(g.torn, 1);
        assert_eq!(g.incomplete, 1);
        assert_eq!(g.threads[&0].len(), 2);
        let report = g.salvage();
        assert_eq!(report.kept, 2);
        assert_eq!(report.count(SalvageReason::TornEntry), 1);
        assert_eq!(report.count(SalvageReason::UnpublishedSlot), 1);
    }

    #[test]
    fn validate_rejects_inconsistent_header() {
        let mut h = header(LOG_VERSION);
        h.size = 1;
        let log = LogFile::new(
            h,
            vec![
                entry(EventKind::Call, 10, 100, 0),
                entry(EventKind::Return, 12, 100, 0),
            ],
        );
        assert_eq!(
            validate(&log),
            Err(AnalyzeError::InconsistentHeader {
                entries: 2,
                max_size: 1
            })
        );
    }
}
