//! The incremental analyzer: a rolling method-level profile.
//!
//! Batch analysis reconstructs every thread's call stack from the complete
//! log. A [`RollingProfile`] does the same work one drained batch at a
//! time: per-thread [`ResumableStacks`] carry open frames across epoch
//! boundaries (a return may land many epochs after its call), and every
//! call is added, the moment it closes, to the batch analyzer's
//! [`Aggregates`] through the same `add_call` the batch pass uses, so the
//! rolling and batch profiles cannot drift apart. The session owns one
//! [`PathTable`]: every thread's stack machine interns into it, and the
//! all-time aggregate and every retained window index their rows by its
//! ids. Symbolization is deferred to
//! [`RollingProfile::snapshot`], which materializes a regular
//! [`Profile`] — so reports, diffs and flame graphs reuse the batch
//! machinery unchanged.
//!
//! Ingest is sequential: pumps fire at high frequency on small batches,
//! where a batch's per-thread reconstruction costs less than spawning
//! workers for it would. Nor does it copy a batch: the stack machines walk
//! the drained entries where they lie, one thread's runs after another's.
//!
//! Memory stays bounded by the number of distinct methods, stacks and
//! threads — not by the number of events — which is what lets a session
//! run indefinitely.

use std::collections::BTreeMap;

use teeperf_analyzer::profile::{
    Aggregates, Anomalies, CallLog, NameSpace, PathNames, Profile, ProfileMerge,
};
use teeperf_analyzer::stacks::{CompletedCall, PathTable, ResumableStacks};
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_core::layout::LogEntry;
use teeperf_flamegraph::LiveStatus;

use crate::window::{RetentionRing, RingConfig, RingEvent, WindowMeta, WindowSel};

/// An endlessly updatable profile over a stream of log entries.
///
/// With retention enabled ([`RollingProfile::with_retention`]) every
/// completed call is additionally attributed to a [`RetentionRing`] window
/// by its exit counter — the all-time aggregate and the per-thread open
/// frames are untouched, so open frames resume across window boundaries
/// exactly as they resume across epochs, and the windowed view can be
/// reconciled against the all-time totals at any moment.
#[derive(Debug)]
pub struct RollingProfile {
    paths: PathTable,
    threads: BTreeMap<u64, ResumableStacks>,
    agg: Aggregates,
    events: u64,
    estimated_events: u64,
    incomplete: u64,
    ring: Option<RetentionRing>,
    /// Bias-correction factor applied to every completed call as it
    /// aggregates: 1 for full fidelity, N while the stream runs 1-in-N
    /// sampled (see [`teeperf_core::fidelity`]). The factor is applied at
    /// a call's *return* — a pair straddling a regime change scales by
    /// the regime it completed under.
    scale: u64,
    /// The batch being ingested, split per thread: kept across pumps, so
    /// splitting allocates nothing once it has seen its most fragmented
    /// batch.
    runs: BatchRuns,
}

/// A [`BatchRuns`] run with no successor.
const NO_RUN: usize = usize::MAX;

/// A drained batch split into runs — one thread's consecutive entries —
/// and the runs chained per thread, so that each thread's events can be
/// walked in log order where they lie, with nothing copied and no lookup
/// per event: a thread is looked up once per run.
#[derive(Debug, Default)]
struct BatchRuns {
    /// The batch's threads, ascending, as `(tid, first run, last run)`.
    threads: Vec<(u64, usize, usize)>,
    /// `(start, end, next run of the same thread)`, in batch order.
    runs: Vec<(usize, usize, usize)>,
}

impl BatchRuns {
    /// Split `entries`, forgetting the last batch; returns the all-zero
    /// records dismissed (reserved but never written: the batch reader's
    /// rule), each of which also ends a run.
    fn split(&mut self, entries: &[LogEntry]) -> u64 {
        self.threads.clear();
        self.runs.clear();
        let (mut start, mut incomplete) = (0, 0);
        for (i, e) in entries.iter().enumerate() {
            let hole = e.counter == 0 && e.addr == 0 && e.tid == 0;
            if !hole && (i == start || e.tid == entries[start].tid) {
                continue;
            }
            if i > start {
                self.push(entries[start].tid, start, i);
            }
            incomplete += u64::from(hole);
            start = if hole { i + 1 } else { i };
        }
        if start < entries.len() {
            self.push(entries[start].tid, start, entries.len());
        }
        incomplete
    }

    /// Append run `start..end` of `tid` to its thread's chain.
    fn push(&mut self, tid: u64, start: usize, end: usize) {
        let run = self.runs.len();
        self.runs.push((start, end, NO_RUN));
        match self.threads.binary_search_by_key(&tid, |t| t.0) {
            Ok(at) => {
                let last = std::mem::replace(&mut self.threads[at].2, run);
                self.runs[last].2 = run;
            }
            Err(at) => self.threads.insert(at, (tid, run, run)),
        }
    }
}

impl Default for RollingProfile {
    fn default() -> RollingProfile {
        RollingProfile {
            paths: PathTable::new(),
            threads: BTreeMap::new(),
            agg: Aggregates::default(),
            events: 0,
            estimated_events: 0,
            incomplete: 0,
            ring: None,
            scale: 1,
            runs: BatchRuns::default(),
        }
    }
}

impl RollingProfile {
    /// An empty rolling profile.
    pub fn new() -> RollingProfile {
        RollingProfile::default()
    }

    /// An empty rolling profile that also retains per-window aggregates in
    /// a ring configured by `retention` (`None` keeps the all-time-only
    /// behavior of [`RollingProfile::new`]).
    pub fn with_retention(retention: Option<&RingConfig>) -> RollingProfile {
        RollingProfile {
            ring: retention.map(RetentionRing::new),
            ..RollingProfile::default()
        }
    }

    /// The retention ring, when windowing is enabled.
    pub fn ring(&self) -> Option<&RetentionRing> {
        self.ring.as_ref()
    }

    /// The session's stacks: the table the ids of its aggregates — the
    /// ring's included — index.
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Drain the ring's retention transitions (evictions, coarsenings)
    /// since the last call. Empty when windowing is disabled.
    pub fn take_ring_events(&mut self) -> Vec<RingEvent> {
        self.ring
            .as_mut()
            .map(RetentionRing::take_events)
            .unwrap_or_default()
    }

    /// Metadata of every retained window, oldest first (`None` when
    /// windowing is disabled).
    pub fn windows(&self) -> Option<Vec<WindowMeta>> {
        self.ring.as_ref().map(RetentionRing::windows)
    }

    /// Materialize the exact merge of the selected windows as a
    /// [`Profile`], spanning only the calls that completed in those
    /// windows. `None` when windowing is disabled or the selection matches
    /// no retained slot. Window anomaly counters are zero by construction
    /// — orphans and truncations are session-scoped, not window-scoped.
    pub fn span_profile(
        &self,
        symbolizer: &Symbolizer,
        sel: &WindowSel,
    ) -> Option<(WindowMeta, Profile)> {
        let (span, agg) = self.ring.as_ref()?.span(sel)?;
        Some((span, self.materialize_window(&agg, symbolizer)))
    }

    /// Materialize the single retained slot containing window `idx` (a
    /// coarsened index resolves to its containing bucket). `None` when
    /// windowing is disabled or the window is not retained.
    pub fn window_profile(
        &self,
        symbolizer: &Symbolizer,
        idx: u64,
    ) -> Option<(WindowMeta, Profile)> {
        let (meta, agg) = self.ring.as_ref()?.slot_containing(idx)?;
        Some((meta, self.materialize_window(agg, symbolizer)))
    }

    /// Events merged so far (excluding dismissed incomplete records).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Bias-corrected estimate of the events the writers *offered*: each
    /// merged event counts for the sampling factor in force when it was
    /// ingested. Equal to [`RollingProfile::events`] for a session that
    /// never left full fidelity.
    pub fn estimated_events(&self) -> u64 {
        self.estimated_events
    }

    /// Set the bias-correction factor for everything ingested from now
    /// on (clamped to at least 1; 1 = exact, no correction). The rolling
    /// profile applies it to completed calls as they aggregate, so a
    /// 1-in-N sampled stream reports *estimated* totals instead of
    /// silently undercounting.
    pub fn set_scale(&mut self, scale: u64) {
        self.scale = scale.max(1);
    }

    /// The bias-correction factor currently in force.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Calls currently open across all threads.
    pub fn open_frames(&self) -> u64 {
        self.threads.values().map(|s| s.open_frames() as u64).sum()
    }

    /// Threads observed so far.
    pub fn thread_count(&self) -> u64 {
        self.threads.len() as u64
    }

    /// Merge one drained batch. Entries arrive in log order, which within
    /// each thread is that thread's program order — the only ordering the
    /// reconstruction needs.
    pub fn ingest(&mut self, entries: &[LogEntry]) {
        self.ingest_noting(entries, None);
    }

    /// [`RollingProfile::ingest`], also recording in `fresh` (when given)
    /// every call it completes and every thread it observes, exactly as
    /// they enter the aggregate.
    ///
    /// The batch is walked where it lies ([`BatchRuns`]): each thread's
    /// events in log order, the threads in ascending order — as a
    /// per-thread regrouping would feed them — and a thread that is one
    /// run of the batch straight from its slice.
    pub(crate) fn ingest_noting(&mut self, entries: &[LogEntry], mut fresh: Option<&mut CallLog>) {
        let incomplete = self.runs.split(entries);
        self.incomplete += incomplete;
        let merged = entries.len() as u64 - incomplete;
        self.events += merged;
        self.estimated_events += merged * self.scale;
        for &(tid, first, last) in &self.runs.threads {
            // Observed even when this batch completes no call.
            self.agg.observe_thread(tid);
            if let Some(fresh) = fresh.as_deref_mut() {
                fresh.observe_thread(tid);
            }
            let stacks = self.threads.entry(tid).or_default();
            let mut sink = |call: &CompletedCall| {
                self.agg.add_call(tid, call, self.scale);
                if let Some(fresh) = fresh.as_deref_mut() {
                    fresh.add_call(tid, call, self.scale);
                }
                if let Some(ring) = &mut self.ring {
                    ring.add_call(tid, call, self.scale);
                }
            };
            let orphans = if first == last {
                let (from, to, _) = self.runs.runs[first];
                stacks.feed(&mut self.paths, &entries[from..to], &mut sink)
            } else {
                let runs = &self.runs.runs;
                let chain = std::iter::successors(Some(first), |run| {
                    Some(runs[*run].2).filter(|next| *next != NO_RUN)
                });
                let events = chain.flat_map(|run| &entries[runs[run].0..runs[run].1]);
                stacks.feed(&mut self.paths, events, &mut sink)
            };
            self.agg.orphan_returns += orphans;
            // Retention once per thread batch, here and in `finish`: a later
            // thread's late call finds the floor this one's calls raised.
            if let Some(ring) = &mut self.ring {
                ring.enforce_retention();
            }
        }
    }

    /// Force-close every open frame at its thread's last observed counter
    /// (end of session). The per-thread states stay usable: feeding more
    /// events afterwards starts from an empty stack.
    pub fn finish(&mut self) {
        self.finish_noting(None);
    }

    /// [`RollingProfile::finish`], also recording the calls it closes in
    /// `fresh` (when given).
    pub(crate) fn finish_noting(&mut self, mut fresh: Option<&mut CallLog>) {
        for (tid, stacks) in &mut self.threads {
            stacks.finish(|call| {
                self.agg.add_call(*tid, call, self.scale);
                if let Some(fresh) = fresh.as_deref_mut() {
                    fresh.add_call(*tid, call, self.scale);
                }
                if let Some(ring) = &mut self.ring {
                    ring.add_call(*tid, call, self.scale);
                }
            });
            if let Some(ring) = &mut self.ring {
                ring.enforce_retention();
            }
        }
    }

    /// The one-line session state for the live renderer's banner.
    pub fn status(&self, epoch: u64, dropped: u64) -> LiveStatus {
        LiveStatus {
            epoch,
            events: self.events,
            dropped,
            threads: self.thread_count(),
            open_frames: self.open_frames(),
        }
    }

    /// Materialize the rolling aggregate as a regular [`Profile`], exactly
    /// as the batch aggregator builds it from the same completed calls.
    /// `dropped` is the stream's cumulative overflow loss.
    pub fn snapshot(&self, symbolizer: &Symbolizer, dropped: u64) -> Profile {
        self.agg
            .materialize(&self.paths, symbolizer, self.anomalies(dropped))
    }

    /// Contribute the exact merge of the selected windows as process `pid`
    /// — what [`RollingProfile::span_profile`] would add through
    /// [`ProfileMerge::add_profile`]: each slot's rows are added where they
    /// sit, and the merge sums them as it would their sum, with no span
    /// aggregate built on the side. Returns the span's metadata; `None`
    /// (and nothing added) when windowing is disabled or nothing matches.
    pub(crate) fn merge_span_into(
        &self,
        sel: &WindowSel,
        merge: &mut ProfileMerge,
        space: &mut NameSpace,
        pid: u64,
        symbolizer: &Symbolizer,
        memo: &mut PathNames,
    ) -> Option<WindowMeta> {
        let (meta, slots) = self.ring.as_ref()?.span_slots(sel)?;
        for agg in slots {
            // Window anomalies are zero by construction: orphans and
            // truncations are session-scoped.
            merge.add_aggregates(space, pid, agg, &self.paths, symbolizer, memo);
        }
        Some(meta)
    }

    /// Materialize one window-scoped aggregate: the thread set comes from
    /// the window's own completed calls, anomalies are zero (session-scoped
    /// by design — a window never saw an orphan, only the stream did).
    fn materialize_window(&self, agg: &Aggregates, symbolizer: &Symbolizer) -> Profile {
        agg.materialize(&self.paths, symbolizer, Anomalies::default())
    }

    /// The session-scoped data-quality counters, `dropped` being the
    /// stream's cumulative overflow loss.
    pub(crate) fn anomalies(&self, dropped: u64) -> Anomalies {
        Anomalies {
            orphan_returns: self.agg.orphan_returns,
            truncated_frames: self.agg.truncated_frames,
            incomplete_entries: self.incomplete,
            dropped_entries: dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcvm::DebugInfo;
    use teeperf_analyzer::profile;
    use teeperf_core::layout::{EventKind, LogHeader, LOG_VERSION};
    use teeperf_core::LogFile;

    fn debug() -> DebugInfo {
        DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5), ("leaf", 4, 9)])
    }

    fn addr(i: u16) -> u64 {
        debug().entry_addr(i)
    }

    fn e(kind: EventKind, counter: u64, addr: u64, tid: u64) -> LogEntry {
        LogEntry {
            kind,
            counter,
            addr,
            tid,
        }
    }

    fn sample_entries() -> Vec<LogEntry> {
        use EventKind::{Call, Return};
        vec![
            e(Call, 1, addr(0), 0),
            e(Call, 10, addr(1), 0),
            e(Call, 20, addr(2), 0),
            e(Return, 30, addr(2), 0),
            e(Return, 60, addr(1), 0),
            e(Call, 70, addr(1), 1),
            e(Return, 90, addr(1), 1),
            e(Return, 100, addr(0), 0),
        ]
    }

    fn batch_profile(entries: &[LogEntry]) -> Profile {
        let log = LogFile::new(
            LogHeader {
                active: false,
                trace_calls: true,
                trace_returns: true,
                multithread: true,
                version: LOG_VERSION,
                pid: 1,
                size: 1000,
                tail: entries.len() as u64,
                anchor: 0,
                shm_addr: 0,
            },
            entries.to_vec(),
        );
        profile::build(&log, &Symbolizer::without_relocation(debug()))
    }

    /// The load-bearing invariant: streaming the entries in any chunking
    /// produces the same profile as one batch pass.
    #[test]
    fn chunked_ingest_matches_batch_build() {
        let entries = sample_entries();
        let sym = Symbolizer::without_relocation(debug());
        for chunk in [1usize, 2, 3, 8] {
            let mut rolling = RollingProfile::new();
            for c in entries.chunks(chunk) {
                rolling.ingest(c);
            }
            rolling.finish();
            let live = rolling.snapshot(&sym, 0);
            let batch = batch_profile(&entries);
            assert_eq!(live.methods, batch.methods, "chunk size {chunk}");
            assert_eq!(live.folded, batch.folded);
            assert_eq!(live.folded_ids, batch.folded_ids);
            assert_eq!(live.symbols, batch.symbols);
            assert_eq!(live.caller_edges, batch.caller_edges);
            assert_eq!(live.total_ticks, batch.total_ticks);
            assert_eq!(live.anomalies, batch.anomalies);
        }
    }

    /// Ingesting a stream in chunks of any size must be indistinguishable
    /// from ingesting it whole.
    #[test]
    fn chunked_ingest_matches_whole_ingest() {
        let entries = sample_entries();
        let sym = Symbolizer::without_relocation(debug());
        let whole = {
            let mut rolling = RollingProfile::new();
            rolling.ingest(&entries);
            rolling.finish();
            rolling.snapshot(&sym, 0)
        };
        for chunk in [2usize, 3, 8] {
            let mut rolling = RollingProfile::new();
            for c in entries.chunks(chunk) {
                rolling.ingest(c);
            }
            rolling.finish();
            assert_eq!(rolling.snapshot(&sym, 0), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn scaled_ingest_reports_bias_corrected_estimates() {
        let entries = sample_entries();
        let sym = Symbolizer::without_relocation(debug());
        let exact = {
            let mut r = RollingProfile::new();
            r.ingest(&entries);
            r.finish();
            r.snapshot(&sym, 0)
        };
        let mut r = RollingProfile::new();
        r.set_scale(4);
        r.ingest(&entries);
        r.finish();
        assert_eq!(r.events(), 8, "events counts what was actually merged");
        assert_eq!(r.estimated_events(), 32, "estimates scale by the factor");
        let est = r.snapshot(&sym, 0);
        assert_eq!(est.total_ticks, 4 * exact.total_ticks);
        for m in &exact.methods {
            let s = est.method(&m.name).expect("same method set");
            assert_eq!(s.calls, 4 * m.calls);
            assert_eq!(s.inclusive, 4 * m.inclusive);
            assert_eq!(s.exclusive, 4 * m.exclusive);
        }
    }

    #[test]
    fn scale_changes_apply_at_the_return_side() {
        use EventKind::{Call, Return};
        let sym = Symbolizer::without_relocation(debug());
        let mut r = RollingProfile::new();
        // The call enters at full fidelity; the regime degrades to 1-in-2
        // before its return arrives — the completed pair scales by the
        // regime it completed under.
        r.ingest(&[e(Call, 1, addr(0), 0)]);
        r.set_scale(2);
        r.ingest(&[e(Return, 51, addr(0), 0)]);
        let p = r.snapshot(&sym, 0);
        assert_eq!(p.method("main").unwrap().calls, 2);
        assert_eq!(p.method("main").unwrap().inclusive, 100);
    }

    #[test]
    fn open_frames_persist_across_batches() {
        use EventKind::{Call, Return};
        let mut rolling = RollingProfile::new();
        rolling.ingest(&[e(Call, 1, addr(0), 0)]);
        assert_eq!(rolling.open_frames(), 1);
        assert_eq!(rolling.events(), 1);
        // The return arrives two "epochs" later and still closes the call.
        rolling.ingest(&[]);
        rolling.ingest(&[e(Return, 50, addr(0), 0)]);
        assert_eq!(rolling.open_frames(), 0);
        let p = rolling.snapshot(&Symbolizer::without_relocation(debug()), 0);
        assert_eq!(p.method("main").unwrap().inclusive, 49);
        assert_eq!(p.anomalies.truncated_frames, 0);
    }

    #[test]
    fn finish_closes_open_frames_as_truncated() {
        use EventKind::Call;
        let mut rolling = RollingProfile::new();
        rolling.ingest(&[e(Call, 1, addr(0), 0), e(Call, 10, addr(1), 0)]);
        rolling.finish();
        let p = rolling.snapshot(&Symbolizer::without_relocation(debug()), 0);
        assert_eq!(p.anomalies.truncated_frames, 2);
        assert_eq!(p.method("main").unwrap().calls, 1);
    }

    #[test]
    fn incomplete_records_are_dismissed_and_counted() {
        let mut rolling = RollingProfile::new();
        rolling.ingest(&[e(EventKind::Return, 0, 0, 0)]);
        assert_eq!(rolling.events(), 0);
        let p = rolling.snapshot(&Symbolizer::without_relocation(debug()), 7);
        assert_eq!(p.anomalies.incomplete_entries, 1);
        assert_eq!(p.anomalies.dropped_entries, 7);
    }

    #[test]
    fn windows_reconcile_exactly_with_the_all_time_aggregate() {
        let entries = sample_entries();
        let sym = Symbolizer::without_relocation(debug());
        let config = RingConfig {
            interval: 30,
            capacity: 8,
            max_width: 4,
        };
        let mut rolling = RollingProfile::with_retention(Some(&config));
        for c in entries.chunks(3) {
            rolling.ingest(c);
        }
        rolling.finish();
        let whole = rolling.snapshot(&sym, 0);
        // Retained ⊕ remainder, materialized with the session's
        // anomalies, is byte-identical to the all-time snapshot.
        let rebuilt = rolling.ring().unwrap().reconstruct().materialize(
            rolling.paths(),
            &sym,
            whole.anomalies,
        );
        assert_eq!(rebuilt, whole);
        // And a span profile covers exactly the calls exiting in its span.
        let (span, p) = rolling
            .span_profile(&sym, &WindowSel::Range(1, 1))
            .expect("window 1 retained");
        assert_eq!((span.first, span.last), (1, 1));
        assert_eq!(span.calls, 1, "only leaf exits in ticks 30..=59");
        assert_eq!(p.method("leaf").unwrap().calls, 1);
        assert!(p.method("main").is_none());
    }

    #[test]
    fn open_frames_resume_across_window_boundaries() {
        use EventKind::{Call, Return};
        let config = RingConfig {
            interval: 10,
            capacity: 16,
            max_width: 4,
        };
        let mut rolling = RollingProfile::with_retention(Some(&config));
        rolling.ingest(&[e(Call, 1, addr(0), 0)]);
        // Eight window intervals pass before the return arrives; the call
        // must close cleanly and land in the window of its exit.
        rolling.ingest(&[e(Return, 95, addr(0), 0)]);
        assert_eq!(rolling.open_frames(), 0);
        let windows = rolling.windows().unwrap();
        assert_eq!(windows.len(), 1);
        assert_eq!((windows[0].first, windows[0].calls), (9, 1));
        let p = rolling.snapshot(&Symbolizer::without_relocation(debug()), 0);
        assert_eq!(p.anomalies.truncated_frames, 0);
    }

    #[test]
    fn status_reflects_the_stream() {
        let mut rolling = RollingProfile::new();
        rolling.ingest(&sample_entries()[..6]);
        let s = rolling.status(3, 2);
        assert_eq!(s.epoch, 3);
        assert_eq!(s.events, 6);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.threads, 2);
        assert_eq!(s.open_frames, 2);
    }
}
