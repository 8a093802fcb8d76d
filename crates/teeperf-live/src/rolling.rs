//! The incremental analyzer: a rolling method-level profile.
//!
//! Batch analysis feeds the complete log to a [`Walker`]. A
//! [`RollingProfile`] feeds the same walker one drained batch at a time:
//! its per-thread stack machines carry open frames across epoch boundaries
//! (a return may land many epochs after its call), every call is added,
//! the moment it closes, to the walker's
//! [`Aggregates`](teeperf_analyzer::Aggregates), and an all-zero or
//! zero-address record is dismissed by the walker's one rule — so the
//! rolling and batch profiles cannot drift apart. The walker owns the
//! session's one [`PathTable`]: the all-time aggregate and every retained
//! window index their rows by its ids. Symbolization is deferred to
//! [`RollingProfile::snapshot`], which reads the walker as the batch build
//! does — a merge of one process, the profile's own — so reports, diffs
//! and flame graphs reuse the batch machinery unchanged.
//!
//! What the rolling profile adds is the retention ring, the sampling
//! scale, its event counters and the [`FoldMark`] of the rows its calls
//! touched since a registry last folded it. The ring enforces retention
//! once per [`RollingProfile::ingest`], once per session drain — pump or
//! final drain, however many stretches it walks — and once per
//! [`RollingProfile::finish`]: every call of a drain finds the floor as
//! the drain began, whichever thread it is on, so windows do not depend on the order the walker
//! meets the threads in. That cadence is behaviour, which is why this
//! module is on the protocol lint's no-wall-clock list (`teeperf-lint`).
//!
//! Ingest is sequential: pumps fire at high frequency on small batches,
//! where a batch's per-thread reconstruction costs less than spawning
//! workers for it would.
//!
//! Memory stays bounded by the number of distinct methods, stacks and
//! threads — not by the number of events — which is what lets a session
//! run indefinitely.

use teeperf_analyzer::profile::{
    Anomalies, FoldMark, NameSpace, PathNames, Profile, ProfileMerge, Walker,
};
use teeperf_analyzer::stacks::{CompletedCall, PathTable};
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_core::layout::{LogEntry, PID_UNSET};
use teeperf_flamegraph::LiveStatus;

use crate::window::{RetentionRing, RingConfig, RingEvent, WindowMeta};

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
    /// The process the stream is from, whose profile a snapshot is; `None`
    /// for a stream given none.
    pid: Option<u64>,
    walker: Walker,
    /// How much of the walker's aggregate the fleet table holds.
    mark: FoldMark,
    events: u64,
    estimated_events: u64,
    ring: Option<RetentionRing>,
    /// Bias-correction factor applied to every completed call as it
    /// aggregates: 1 for full fidelity, N while the stream runs 1-in-N
    /// sampled (see [`teeperf_core::fidelity`]). The factor is applied at
    /// a call's *return* — a pair straddling a regime change scales by
    /// the regime it completed under.
    scale: u64,
}

impl Default for RollingProfile {
    fn default() -> RollingProfile {
        RollingProfile {
            pid: None,
            walker: Walker::new(),
            mark: FoldMark::default(),
            events: 0,
            estimated_events: 0,
            ring: None,
            scale: 1,
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

    /// [`RollingProfile::with_retention`] over a stream from process `pid`,
    /// whose snapshots are that process's profile. The other constructors'
    /// cover no process (empty [`Profile::pids`]), threads keyed by tid.
    pub fn for_process(pid: u64, retention: Option<&RingConfig>) -> RollingProfile {
        RollingProfile {
            pid: Some(pid),
            ..RollingProfile::with_retention(retention)
        }
    }

    /// The retention ring, when windowing is enabled.
    pub fn ring(&self) -> Option<&RetentionRing> {
        self.ring.as_ref()
    }

    /// The session's stacks: the table the ids of its aggregates — the
    /// ring's included — index.
    pub fn paths(&self) -> &PathTable {
        self.walker.paths()
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

    /// Events merged so far (excluding dismissed incomplete and torn
    /// records).
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
        self.walker.open_frames()
    }

    /// Merge one drained batch. Entries arrive in log order, which within
    /// each thread is that thread's program order — the only ordering the
    /// reconstruction needs.
    pub fn ingest(&mut self, entries: &[LogEntry]) {
        self.walk(entries);
        self.enforce_retention();
    }

    /// [`RollingProfile::ingest`] of one stretch of a session drain, which
    /// enforces retention once, at its end.
    pub(crate) fn walk(&mut self, entries: &[LogEntry]) {
        let (scale, ring, mark) = (self.scale, &mut self.ring, &mut self.mark);
        let merged = self.walker.ingest(entries, scale, |tid, call| {
            note(mark, ring, tid, call, scale);
        });
        self.events += merged;
        self.estimated_events += merged * scale;
    }

    /// Force-close every open frame at its thread's last observed counter
    /// (end of session). The per-thread states stay usable: feeding more
    /// events afterwards starts from an empty stack.
    pub fn finish(&mut self) {
        let (scale, ring, mark) = (self.scale, &mut self.ring, &mut self.mark);
        self.walker.finish(scale, |tid, call| {
            note(mark, ring, tid, call, scale);
        });
        self.enforce_retention();
    }

    /// Shrink the ring back to capacity: once per ingest, pump and finish.
    pub(crate) fn enforce_retention(&mut self) {
        if let Some(ring) = &mut self.ring {
            ring.enforce_retention();
        }
    }

    /// The one-line session state for the live renderer's banner.
    pub fn status(&self, epoch: u64, dropped: u64) -> LiveStatus {
        LiveStatus {
            epoch,
            events: self.events,
            dropped,
            threads: self.walker.thread_ids().count() as u64,
            open_frames: self.open_frames(),
        }
    }

    /// The rolling aggregate as the stream's process's [`Profile`], read
    /// exactly as the batch build reads the same completed calls
    /// ([`Walker::materialize`]). `dropped` is the stream's cumulative
    /// overflow loss.
    pub fn snapshot(&self, symbolizer: &Symbolizer, dropped: u64) -> Profile {
        let pid = self.pid.unwrap_or(PID_UNSET);
        let mut profile = self.walker.materialize(symbolizer, pid, dropped);
        profile.pids = self.pid.into_iter().collect();
        profile
    }

    /// Add what the aggregate gained since the last fold to `merge`, the
    /// one merge every fold goes to ([`ProfileMerge::add_since`]).
    pub(crate) fn fold_into(
        &mut self,
        merge: &mut ProfileMerge,
        space: &mut NameSpace,
        symbolizer: &Symbolizer,
        memo: &mut PathNames,
    ) {
        let pid = self.pid.unwrap_or(PID_UNSET);
        merge.add_since(space, pid, &self.walker, &mut self.mark, symbolizer, memo);
    }

    /// The session-scoped data-quality counters, `dropped` being the
    /// stream's cumulative overflow loss.
    pub(crate) fn anomalies(&self, dropped: u64) -> Anomalies {
        self.walker.anomalies(dropped)
    }
}

/// Note one call the walker added to the all-time aggregate: its row is
/// one the next fold adds, and the retention ring, when present, counts
/// the call in the window of its exit.
fn note(
    mark: &mut FoldMark,
    ring: &mut Option<RetentionRing>,
    tid: u64,
    call: &CompletedCall,
    scale: u64,
) {
    mark.touch(call.path);
    if let Some(ring) = ring {
        ring.add_call(tid, call, scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowSel;
    use mcvm::DebugInfo;
    use std::collections::BTreeSet;
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
    /// produces the same profile as one batch pass of the same process.
    #[test]
    fn chunked_ingest_matches_batch_build() {
        let entries = sample_entries();
        let sym = Symbolizer::without_relocation(debug());
        for chunk in [1usize, 2, 3, 8] {
            let mut rolling = RollingProfile::for_process(1, None);
            for c in entries.chunks(chunk) {
                rolling.ingest(c);
            }
            rolling.finish();
            let live = rolling.snapshot(&sym, 0);
            assert_eq!(live, batch_profile(&entries), "chunk size {chunk}");
        }
    }

    /// A stream given no process covers none: its snapshot lists no pid,
    /// keys threads by the bare tids, and merged under a pid covers that
    /// pid alone.
    #[test]
    fn a_stream_given_no_process_covers_none() {
        let sym = Symbolizer::without_relocation(debug());
        let mut rolling = RollingProfile::new();
        rolling.ingest(&sample_entries());
        let bare = rolling.snapshot(&sym, 0);
        assert!(bare.pids.is_empty());
        assert_eq!(bare.threads, BTreeSet::from([0, 1]));
        let merged = profile::merge_profiles(&[(5, &bare)]);
        assert_eq!(merged.pids, BTreeSet::from([5]));
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
        let mut rolling = RollingProfile::for_process(1, Some(&config));
        for c in entries.chunks(3) {
            rolling.ingest(c);
        }
        rolling.finish();
        let whole = rolling.snapshot(&sym, 0);
        let ring = rolling.ring().unwrap();
        let read = |agg: &teeperf_analyzer::Aggregates| {
            ProfileMerge::one_process(1, agg, rolling.paths(), &sym)
        };
        // Retained ⊕ remainder, read with the session's anomalies, is
        // byte-identical to the all-time snapshot.
        let mut rebuilt = read(&ring.reconstruct());
        rebuilt.anomalies = whole.anomalies;
        assert_eq!(rebuilt, whole);
        // And a span covers exactly the calls exiting in it.
        let (span, agg) = ring
            .span(&WindowSel::Range(1, 1))
            .expect("window 1 retained");
        let p = read(&agg);
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
