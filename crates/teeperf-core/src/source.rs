//! The ingestion abstraction: every consumer — the batch analyzer, the
//! live drainer, the multi-process session registry — speaks to an
//! [`EventSource`] instead of a concrete log.
//!
//! Two media ship, one implementation each:
//!
//! * [`LiveLogSource`] drains an in-process [`SharedLog`] that writers are
//!   still appending to, reusing the lock-free [`SharedLog::poll`] /
//!   [`SharedLog::rotate`] machinery (it owns the single drain cursor the
//!   rotation protocol requires).
//! * [`crate::shm_file::FileShmSource`] drains a file holding the log
//!   image: a deployed session's `<pid>.tplog` while its writer runs, or
//!   any finished, killed or damaged recording afterwards. It is the one
//!   reader that salvages a log file.
//!
//! Either is drained through one step, [`EventSource::drain`]: it hands
//! the caller's walk the entries a stretch at a time and is told whether
//! this is the final drain, which rotates a live log whatever its fill and
//! reads a file as any drain does. The incremental pump and the final
//! drain into a fresh batch are that step's two wrappers. A source
//! answers no questions between drains: each drain reports in its
//! [`SourceBatch`] what it saw — its drops and salvage, the occupancy
//! before it could rotate, a repaired regime word — and where the source
//! stands at its end ([`SourceState`]), as the paper's drainer learns a
//! log's state from the header words each pass reads.
//!
//! Each source is keyed by the process id stamped into the log header
//! (paper Figure 2, word 1): a session registry multiplexes N sources —
//! one per profiled process — by that pid.

use crate::faults::{SalvageReason, SalvageReport};
use crate::fidelity::Regime;
use crate::layout::{EntryValidity, LogEntry};
use crate::log::{LogCursor, SharedLog};

/// What one drain of an [`EventSource`] leaves behind: its entries, or
/// the stretch of them its walk has not consumed, and its report on the
/// source — everything a consumer knows about a source between drains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceBatch {
    /// Entries obtained this drain and not yet consumed, in log order.
    pub entries: Vec<LogEntry>,
    /// Whether this drain closed an epoch (rotated the log).
    pub rotated: bool,
    /// Entries dropped on overflow that this drain saw first.
    pub dropped: u64,
    /// What this drain salvaged around — torn entries skipped, holes
    /// closed, rotations abandoned, headers distrusted — and the entries
    /// it kept; a consumer sums these reports.
    pub salvaged: SalvageReport,
    /// Occupancy of the log in percent of capacity, sampled before the
    /// drain could rotate it (`None` when the transport has no bounded
    /// buffer to fill).
    pub occupancy_pct: Option<u8>,
    /// Whether this drain found the regime word corrupt, fell back to the
    /// `Full` interpretation and repaired the word.
    pub regime_fault: bool,
    /// Where the source stands as of the drain's end.
    pub state: SourceState,
}

/// Where a source stands as of the end of its last drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceState {
    /// Epoch the source is positioned in.
    pub epoch: u64,
    /// Entries dropped on overflow over the lifetime of the source, the
    /// current epoch's overflow included.
    pub dropped_total: u64,
    /// Whether the source can never produce another entry. A live log is
    /// never exhausted (writers may still arrive); a file is once its
    /// writer has finished and every entry and drop has been reported.
    pub exhausted: bool,
    /// Whether the source has declared its producer dead (corrupted
    /// header, unrecoverable transport). A dead source drains nothing
    /// ever again; a registry quarantines it.
    pub dead: bool,
}

impl SourceBatch {
    /// Empty the batch for a new drain, keeping the capacity of `entries`.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.rotated = false;
        self.dropped = 0;
        self.salvaged = SalvageReport::default();
        self.occupancy_pct = None;
        self.regime_fault = false;
        self.state = SourceState::default();
    }
}

/// A stream of profiling events from one profiled process.
///
/// Implementations own whatever cursor or position state the underlying
/// transport needs; callers never see a raw log, and learn the source's
/// state only from what a drain reports. The contract mirrors the live
/// drain protocol:
///
/// * [`EventSource::drain`] is the one drain step — cheap, may yield
///   nothing, never blocks on writers — handing the entries to the
///   caller's walk a stretch at a time through a batch the caller keeps,
///   and reporting in that batch what it saw of the source.
///   [`EventSource::pump`] is the incremental step into a fresh batch and
///   [`EventSource::drain_to_end`] the final one (a rotation for live
///   logs, the same read for files); both are written here, once.
/// * [`EventSource::pid`] is the registry key: the process id from the
///   log header. A valid source never reports pid 0 (see
///   [`crate::layout::PID_UNSET`]).
pub trait EventSource: Send + std::fmt::Debug {
    /// Process id of the producer (the log header's pid word).
    fn pid(&self) -> u64;

    /// One drain step through `batch`: every field is reset, then each
    /// stretch of entries, in log order, is appended to `batch.entries`
    /// and `walk` is handed that vector. A walk that consumes the stretch
    /// clears it, so the batch holds one stretch at most; one that leaves
    /// it collects the whole drain. The other fields are the drain's
    /// report on return. A live log is polled and rotated past its
    /// watermark — or, `to_end` (the final drain), whatever its fill; a
    /// file is read up to the tail one header read shows, one bulk read
    /// per stretch, whether `to_end` or not.
    fn drain(
        &mut self,
        batch: &mut SourceBatch,
        to_end: bool,
        walk: &mut dyn FnMut(&mut Vec<LogEntry>),
    );

    /// One incremental [`EventSource::drain`] into a fresh batch, every
    /// entry kept.
    fn pump(&mut self) -> SourceBatch {
        let mut batch = SourceBatch::default();
        self.drain(&mut batch, false, &mut |_| {});
        batch
    }

    /// The final [`EventSource::drain`] into a fresh batch: everything
    /// currently available, a live log rotated even below its watermark.
    fn drain_to_end(&mut self) -> SourceBatch {
        let mut batch = SourceBatch::default();
        self.drain(&mut batch, true, &mut |_| {});
        batch
    }

    /// Publish a fidelity regime on the transport for the producer's
    /// [`crate::fidelity::FidelityGate`] to honour. Returns `false` when
    /// the transport cannot carry regimes (read-only files);
    /// the controller then treats the source as pinned to `Full`.
    fn set_regime(&mut self, _regime: Regime) -> bool {
        false
    }
}

/// Knobs for a [`LiveLogSource`]'s failure handling. The defaults favour
/// patience: real writers stall for microseconds, so every threshold is
/// far past anything a live writer produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceResilience {
    /// Consecutive pumps a never-published slot may block the cursor
    /// before the hole is closed (slot skipped, counted as dropped).
    pub stall_pumps: u64,
    /// Quiesce iterations [`crate::log::SharedLog::try_rotate`] spins
    /// before declaring the rotation stalled.
    pub rotate_spin_limit: u64,
    /// Consecutive stalled rotations tolerated before the announced
    /// writers are presumed dead and forcibly reclaimed.
    pub max_rotation_stalls: u64,
}

impl Default for SourceResilience {
    fn default() -> SourceResilience {
        SourceResilience {
            stall_pumps: 64,
            rotate_spin_limit: 1 << 20,
            max_rotation_stalls: 2,
        }
    }
}

/// Live shared-memory drain: the [`EventSource`] over a [`SharedLog`]
/// whose writers are still running. Owns the drain cursor; at most one
/// `LiveLogSource` may exist per log (the rotation protocol is
/// single-drainer).
///
/// Degrades gracefully under writer failure (see [`SourceResilience`]):
/// torn entries are filtered out, a slot never published is skipped after
/// a deadline instead of blocking the cursor forever, a rotation stalled
/// on a crashed writer's announcement is abandoned and — after repeated
/// stalls — the dead writers are forcibly reclaimed, and a corrupted
/// header kills the source (empty batches, [`SourceState::dead`]) rather
/// than letting it interpret garbage. Everything given up on is accounted
/// in the drain's [`SourceBatch::salvaged`].
#[derive(Debug)]
pub struct LiveLogSource {
    log: SharedLog,
    cursor: LogCursor,
    watermark_pct: u8,
    resilience: SourceResilience,
    /// (epoch, index, consecutive pumps) the cursor has been blocked at.
    stuck: Option<(u64, u64, u64)>,
    rotation_stalls: u64,
    dead: bool,
    /// The regime this drainer last published, and at which regime epoch.
    regime: Regime,
    regime_epoch: u32,
}

impl LiveLogSource {
    /// Wrap `log`, rotating whenever the tail reaches `watermark_pct`
    /// percent of capacity (clamped to `1..=99`).
    pub fn new(log: SharedLog, watermark_pct: u8) -> LiveLogSource {
        let cursor = LogCursor {
            epoch: log.epoch(),
            index: 0,
        };
        LiveLogSource {
            log,
            cursor,
            watermark_pct: watermark_pct.clamp(1, 99),
            resilience: SourceResilience::default(),
            stuck: None,
            rotation_stalls: 0,
            dead: false,
            regime: Regime::Full,
            regime_epoch: 0,
        }
    }

    /// Override the failure-handling thresholds.
    #[must_use]
    pub fn with_resilience(mut self, resilience: SourceResilience) -> LiveLogSource {
        self.resilience = resilience;
        self
    }

    /// The underlying shared log.
    pub fn log(&self) -> &SharedLog {
        &self.log
    }

    fn watermark_entries(&self) -> u64 {
        (self.log.capacity() * u64::from(self.watermark_pct) / 100).max(1)
    }

    /// The log's fill in percent of its capacity.
    fn fill_pct(&self) -> u8 {
        let cap = self.log.capacity().max(1);
        let tail = self.log.header().tail.min(cap);
        (tail * 100 / cap) as u8
    }

    /// A pump made no progress past a reserved-but-unpublished slot. Count
    /// the consecutive stuck pumps; past the deadline, re-check the slot
    /// and close the hole (skip it, account it) if it is still empty.
    /// Returns whether the cursor was advanced past a hole.
    fn note_stuck(&mut self, salvage: &mut SalvageReport) -> bool {
        let at = (self.cursor.epoch, self.cursor.index);
        let pumps = match self.stuck {
            Some((e, i, n)) if (e, i) == at => n + 1,
            _ => 1,
        };
        if pumps >= self.resilience.stall_pumps {
            self.stuck = None;
            // Deadline reached: if the writer published in the meantime the
            // next poll will pick the entry up; otherwise skip the hole.
            if self.log.read_entry(self.cursor.index).validity() != EntryValidity::Valid {
                self.cursor.index += 1;
                salvage.drop_n(SalvageReason::UnpublishedSlot, 1);
                return true;
            }
        } else {
            self.stuck = Some((at.0, at.1, pumps));
        }
        false
    }

    /// Rotate with a bounded quiesce. A stall is recorded and skipped;
    /// `force` (the drain-to-end path) and repeated stalls escalate to
    /// reclaiming the announced-but-dead writers so the epoch's published
    /// entries are still salvaged.
    fn rotate(&mut self, batch: &mut SourceBatch, force: bool) {
        let limit = self.resilience.rotate_spin_limit;
        let salvage = &mut batch.salvaged;
        let mut attempt = self.log.try_rotate(&mut self.cursor, limit);
        if attempt.is_err() {
            salvage.incident(SalvageReason::StalledRotation);
            self.rotation_stalls += 1;
            if force || self.rotation_stalls >= self.resilience.max_rotation_stalls {
                let reclaimed = self.log.force_reclaim_writers();
                for _ in 0..reclaimed {
                    salvage.incident(SalvageReason::DeadWriterReclaimed);
                }
                attempt = self.log.try_rotate(&mut self.cursor, limit);
            }
        }
        let Ok(out) = attempt else { return };
        self.rotation_stalls = 0;
        // Rotation skips unpublished holes (abandoned batch remainders and
        // crashed writers' reserved slots) instead of delivering them as
        // all-zero records; account them here so the salvage report still
        // sees every one exactly once.
        salvage.drop_n(SalvageReason::UnpublishedSlot, out.abandoned);
        salvage.filter_into(out.entries, &mut batch.entries);
        batch.rotated = true;
        batch.dropped = out.dropped;
    }

    /// Poll, filter invalid records, rotate past the watermark or at the
    /// end: one stretch. Returns whether there is one — `false` once the
    /// header is distrusted.
    fn poll_into(&mut self, batch: &mut SourceBatch, to_end: bool) -> bool {
        if self.dead {
            return false;
        }
        if self.log.verify_header().is_err() {
            // Distrust the header once and for all: every later drain is
            // empty.
            self.dead = true;
            batch.salvaged.incident(SalvageReason::CorruptHeader);
            return false;
        }
        // Validate the regime word. Writers fall back to the Full
        // interpretation on their own when it is corrupt; the drainer
        // additionally repairs it (it owns the word) and reports the
        // incident so the session can surface an event.
        let (_, _, regime_corrupt) = self.log.regime_observed();
        if regime_corrupt {
            batch.salvaged.incident(SalvageReason::CorruptRegimeWord);
            batch.regime_fault = true;
            self.regime_epoch = self.regime_epoch.wrapping_add(1);
            self.log.set_regime(self.regime, self.regime_epoch);
        }
        let polled = self.log.poll(&mut self.cursor);
        let blocked = polled.is_empty()
            && self.cursor.index < self.log.header().tail.min(self.log.capacity());
        batch.salvaged.filter_into(polled, &mut batch.entries);
        if to_end || self.log.header().tail >= self.watermark_entries() {
            self.rotate(batch, to_end);
            self.stuck = None;
        } else if blocked {
            if self.note_stuck(&mut batch.salvaged) {
                // The hole is closed: pick up whatever lies past it now.
                let extra = self.log.poll(&mut self.cursor);
                batch.salvaged.filter_into(extra, &mut batch.entries);
            }
        } else {
            self.stuck = None;
        }
        true
    }
}

impl EventSource for LiveLogSource {
    fn pid(&self) -> u64 {
        self.log.header().pid
    }

    fn drain(
        &mut self,
        batch: &mut SourceBatch,
        to_end: bool,
        walk: &mut dyn FnMut(&mut Vec<LogEntry>),
    ) {
        batch.reset();
        // The fill the writers ran against: a rotation resets it to zero.
        batch.occupancy_pct = Some(self.fill_pct());
        if self.poll_into(batch, to_end) {
            walk(&mut batch.entries);
        }
        batch.state = SourceState {
            epoch: self.cursor.epoch,
            dropped_total: self.log.dropped_total(),
            exhausted: false,
            dead: self.dead,
        };
    }

    fn set_regime(&mut self, regime: Regime) -> bool {
        if self.dead {
            return false;
        }
        self.regime = regime;
        self.regime_epoch = self.regime_epoch.wrapping_add(1);
        self.log.set_regime(regime, self.regime_epoch);
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::layout::EventKind;
    use crate::log::{make_header, region_bytes};
    use std::sync::Arc;
    use tee_sim::SharedMem;

    /// A source and what a session keeps of its drains: the salvage
    /// reports summed and the last state.
    #[derive(Debug)]
    pub(crate) struct Tally<S> {
        pub(crate) src: S,
        pub(crate) salvage: SalvageReport,
        pub(crate) state: SourceState,
    }

    impl<S: EventSource> Tally<S> {
        pub(crate) fn new(src: S) -> Tally<S> {
            Tally {
                src,
                salvage: SalvageReport::default(),
                state: SourceState::default(),
            }
        }

        pub(crate) fn drain(
            &mut self,
            batch: &mut SourceBatch,
            to_end: bool,
            walk: &mut dyn FnMut(&mut Vec<LogEntry>),
        ) {
            self.src.drain(batch, to_end, walk);
            self.salvage.absorb(&batch.salvaged);
            self.state = batch.state;
        }

        pub(crate) fn pump(&mut self) -> SourceBatch {
            let mut batch = SourceBatch::default();
            self.drain(&mut batch, false, &mut |_| {});
            batch
        }

        pub(crate) fn drain_to_end(&mut self) -> SourceBatch {
            let mut batch = SourceBatch::default();
            self.drain(&mut batch, true, &mut |_| {});
            batch
        }
    }

    impl<S> std::ops::Deref for Tally<S> {
        type Target = S;
        fn deref(&self) -> &S {
            &self.src
        }
    }

    fn entry(counter: u64, addr: u64) -> LogEntry {
        LogEntry {
            kind: EventKind::Call,
            counter,
            addr,
            tid: 0,
        }
    }

    fn live_log(pid: u64, max_entries: u64) -> SharedLog {
        let shm = Arc::new(SharedMem::new(region_bytes(max_entries)));
        SharedLog::init(shm, &make_header(pid, max_entries, true, 0, 0))
    }

    fn live(log: &SharedLog, watermark_pct: u8) -> Tally<LiveLogSource> {
        Tally::new(LiveLogSource::new(log.clone(), watermark_pct))
    }

    #[test]
    fn live_source_pumps_and_rotates_at_watermark() {
        let log = live_log(7, 8);
        let mut src = live(&log, 75);
        assert_eq!(src.pid(), 7);
        for k in 1..=3u64 {
            log.write_live(&entry(k, 0x100 + k));
        }
        // Below the watermark (6 of 8): poll only, no rotation.
        let b = src.pump();
        let mut drained = b.entries.len();
        assert_eq!(drained, 3);
        assert!(!b.rotated);
        assert!(!b.state.exhausted);
        assert_eq!(src.state.epoch, 0);
        assert!(src.pump().entries.is_empty(), "no new entries, no re-reads");
        for k in 4..=6u64 {
            log.write_live(&entry(k, 0x100 + k));
        }
        // At the watermark: poll + rotate.
        let b = src.pump();
        drained += b.entries.len();
        assert_eq!(b.entries.len(), 3);
        assert!(b.rotated);
        assert_eq!(b.state.epoch, 1, "one completed rotation");
        assert_eq!(drained, 6);
        // The next epoch starts clean.
        assert_eq!(log.header().tail, 0);
        log.write_live(&entry(7, 0x107));
        let b = src.pump();
        assert_eq!(b.entries.len(), 1);
        assert!(!b.rotated);
    }

    #[test]
    fn live_source_reports_overflow_with_the_rotation() {
        let log = live_log(7, 4);
        let mut src = live(&log, 99);
        for k in 1..=7u64 {
            log.write_live(&entry(k, 0x100 + k));
        }
        let b = src.pump();
        assert!(b.rotated);
        assert_eq!(b.entries.len(), 4);
        assert_eq!(b.dropped, 3, "overflow is accounted, not silent");
        assert_eq!(b.state.dropped_total, 3);
    }

    /// The occupancy a drain reports is the fill the writers ran against:
    /// sampled before the drain rotates the log back to empty.
    #[test]
    fn a_drain_reports_the_occupancy_from_before_its_rotation() {
        let log = live_log(7, 8);
        let mut src = live(&log, 75);
        assert_eq!(src.pump().occupancy_pct, Some(0));
        for k in 1..=6u64 {
            log.write_live(&entry(k, 0x100 + k));
        }
        let b = src.pump();
        assert!(b.rotated);
        assert_eq!(log.header().tail, 0, "the rotation emptied the log");
        assert_eq!(b.occupancy_pct, Some(75));
        assert_eq!(src.pump().occupancy_pct, Some(0));
    }

    /// The drop total a drain reports is the log's at the drain's end:
    /// drops that land in the epoch the drain leaves open, after its
    /// rotation, count as well as those the rotation closed.
    #[test]
    fn a_drain_reports_the_drops_of_the_epoch_it_leaves_open() {
        let log = live_log(7, 4);
        let mut src = live(&log, 99);
        for k in 1..=7u64 {
            log.write_live(&entry(k, 0x100 + k));
        }
        // The walk runs after the rotation: a writer overflowing the fresh
        // epoch from inside it writes while the drain is still under way.
        let writer = log.clone();
        let mut batch = SourceBatch::default();
        src.drain(&mut batch, false, &mut |_| {
            for k in 8..=13u64 {
                writer.write_live(&entry(k, 0x100 + k));
            }
        });
        assert!(batch.rotated);
        assert_eq!(batch.dropped, 3, "the closed epoch's overflow");
        assert_eq!(log.header().tail, 6, "two of six over the fresh epoch");
        assert_eq!(batch.state.dropped_total, log.dropped_total());
        assert_eq!(batch.state.dropped_total, 5);
    }

    /// A drain fills the batch it is lent as if it were fresh: a stale
    /// `rotated`, `dropped` or report left in it would count an epoch, a
    /// drop or a salvaged record twice.
    #[test]
    fn a_dirty_lent_batch_pumps_like_a_fresh_one() {
        let dirty = || {
            let mut salvaged = SalvageReport::default();
            salvaged.drop_n(SalvageReason::TornEntry, 2);
            SourceBatch {
                entries: vec![entry(99, 0x999); 5],
                rotated: true,
                dropped: 9,
                salvaged,
                occupancy_pct: Some(77),
                regime_fault: true,
                state: SourceState {
                    epoch: 3,
                    dropped_total: 12,
                    exhausted: true,
                    dead: true,
                },
            }
        };
        // A rotation that overflowed, an idle pump, a plain poll. (The
        // file medium's twin runs in `prop_hostile_headers_never_panic_or_over_read`.)
        let (a, b) = (live_log(7, 4), live_log(7, 4));
        let mut fresh = live(&a, 99);
        let mut lent = live(&b, 99);
        for writes in [7u64, 0, 2] {
            for k in 1..=writes {
                a.write_live(&entry(k, 0x100 + k));
                b.write_live(&entry(k, 0x100 + k));
            }
            let (mut batch, mut walked) = (dirty(), Vec::new());
            lent.drain(&mut batch, false, &mut |e| walked.append(e));
            assert!(batch.entries.is_empty(), "the walk consumed the stretch");
            batch.entries = walked;
            assert_eq!(batch, fresh.pump(), "after {writes} writes");
        }
        assert_eq!((lent.state.dropped_total, lent.state.epoch), (3, 1));
        assert_eq!(lent.salvage, fresh.salvage);
    }

    #[test]
    fn live_source_drain_to_end_forces_rotation() {
        let log = live_log(7, 8);
        let mut src = live(&log, 75);
        log.write_live(&entry(1, 0x101));
        let b = src.drain_to_end();
        assert_eq!(b.entries.len(), 1);
        assert!(b.rotated);
        assert_eq!(log.epoch(), 1);
        assert_eq!(b.state.dropped_total, 0);
        // A later source attaches at the current epoch, not at zero.
        drop(src);
        assert_eq!(LiveLogSource::new(log, 75).pump().state.epoch, 1);
    }

    #[test]
    fn live_source_filters_torn_entries_and_accounts_them() {
        use crate::faults::{FaultKind, FaultPlan, FaultyWriter, SalvageReason};
        let log = live_log(7, 8);
        let plan = FaultPlan::new().with(FaultKind::TornEntry, 1);
        let mut w = FaultyWriter::new(log.clone(), plan);
        let mut src = live(&log, 90);
        for k in 1..=3u64 {
            w.write_live(&entry(k, 0x100 + k));
        }
        let b = src.drain_to_end();
        assert_eq!(b.entries, w.published());
        let report = &src.salvage;
        assert_eq!(report.kept, 2);
        assert_eq!(report.count(SalvageReason::TornEntry), 1);
        assert!(!src.state.dead);
    }

    #[test]
    fn live_source_closes_hole_left_by_stalled_writer() {
        use crate::faults::{FaultKind, FaultPlan, FaultyWriter, SalvageReason};
        let log = live_log(7, 16);
        let plan = FaultPlan::new().with(FaultKind::StalledWriter, 1);
        let mut w = FaultyWriter::new(log.clone(), plan);
        let mut src = Tally::new(
            LiveLogSource::new(log, 90).with_resilience(SourceResilience {
                stall_pumps: 2,
                ..SourceResilience::default()
            }),
        );
        w.write_live(&entry(1, 0x101));
        w.write_live(&entry(2, 0x102)); // stalls: slot 1 is a hole
        w.write_live(&entry(3, 0x103));
        let b = src.pump();
        assert_eq!(b.entries, vec![entry(1, 0x101)], "poll stops at the hole");
        // The first blocked pump starts the deadline clock; the second
        // closes the hole and picks up the entry beyond it in one pump.
        assert!(src.pump().entries.is_empty());
        let b = src.pump();
        assert_eq!(b.entries, vec![entry(3, 0x103)], "cursor skipped the hole");
        assert_eq!(src.salvage.count(SalvageReason::UnpublishedSlot), 1);
        // The stalled writer resuming later publishes into a slot the
        // cursor already passed: nothing is double-delivered.
        w.release_stall();
        assert!(src.pump().entries.is_empty());
        assert_eq!(src.salvage.kept, 2);
    }

    #[test]
    fn live_source_recovers_from_writer_publishing_before_deadline() {
        use crate::faults::{FaultKind, FaultPlan, FaultyWriter};
        let log = live_log(7, 16);
        let plan = FaultPlan::new().with(FaultKind::StalledWriter, 0);
        let mut w = FaultyWriter::new(log.clone(), plan);
        let mut src = Tally::new(
            LiveLogSource::new(log, 90).with_resilience(SourceResilience {
                stall_pumps: 10,
                ..SourceResilience::default()
            }),
        );
        w.write_live(&entry(1, 0x101)); // stalls immediately
        w.write_live(&entry(2, 0x102));
        assert!(src.pump().entries.is_empty(), "blocked at slot 0");
        w.release_stall(); // resumes before the deadline
        let b = src.pump();
        assert_eq!(b.entries, vec![entry(1, 0x101), entry(2, 0x102)]);
        assert!(src.salvage.is_clean());
    }

    #[test]
    fn live_source_reclaims_crashed_writer_and_salvages_published_entries() {
        use crate::faults::{FaultKind, FaultPlan, FaultyWriter, SalvageReason};
        let log = live_log(7, 16);
        let plan = FaultPlan::new().with(FaultKind::WriterCrash, 2);
        let mut w = FaultyWriter::new(log.clone(), plan);
        let mut src = Tally::new(
            LiveLogSource::new(log, 90).with_resilience(SourceResilience {
                rotate_spin_limit: 32,
                max_rotation_stalls: 2,
                ..SourceResilience::default()
            }),
        );
        w.write_live(&entry(1, 0x101));
        w.write_live(&entry(2, 0x102));
        w.write_live(&entry(3, 0x103)); // crashes: announcement never withdrawn
                                        // Force path: the stalled rotation escalates to reclaim at once.
        let b = src.drain_to_end();
        assert_eq!(b.entries, w.published(), "published entries salvaged");
        assert!(b.rotated);
        let report = &src.salvage;
        assert_eq!(report.count(SalvageReason::StalledRotation), 1);
        assert_eq!(report.count(SalvageReason::DeadWriterReclaimed), 1);
        assert_eq!(report.count(SalvageReason::UnpublishedSlot), 1);
        assert_eq!(src.log().writers_in_flight(), 0);
        // The log is usable again after the reclaim.
        src.log().write_live(&entry(4, 0x104));
        assert_eq!(src.pump().entries.len(), 1);
    }

    #[test]
    fn live_source_goes_dead_on_corrupted_header() {
        use crate::faults::{FaultKind, FaultPlan, FaultyWriter, SalvageReason};
        let log = live_log(7, 8);
        let plan = FaultPlan::new().with(FaultKind::CorruptHeader, 1);
        let mut w = FaultyWriter::new(log.clone(), plan);
        let mut src = live(&log, 90);
        w.write_live(&entry(1, 0x101));
        assert_eq!(src.pump().entries.len(), 1);
        w.write_live(&entry(2, 0x102)); // smashes the header
        assert!(src.pump().entries.is_empty());
        assert!(src.state.dead);
        assert_eq!(src.salvage.count(SalvageReason::CorruptHeader), 1);
        // Dead is sticky and cheap: no further header reads, empty batches.
        let b = src.drain_to_end();
        assert!(b.entries.is_empty());
        assert!(b.state.dead);
        assert_eq!(src.salvage.count(SalvageReason::CorruptHeader), 1);
    }

    #[test]
    fn live_source_publishes_and_repairs_regime_word() {
        use crate::faults::SalvageReason;
        let log = live_log(7, 8);
        let mut src = live(&log, 90);
        assert_eq!(log.regime_observed(), (Regime::Full, 0, false));
        assert!(src.src.set_regime(Regime::sampled(4)));
        assert_eq!(log.regime_observed(), (Regime::Sampled(4), 1, false));
        for k in 1..=4u64 {
            log.write_live(&entry(k, 0x100 + k));
        }
        // A hostile producer scribbles on the regime word: the next pump
        // falls back to Full, repairs the word at a fresh regime epoch,
        // and reports the incident — no panic, nothing lost.
        log.shm()
            .write_u64(crate::layout::OFF_REGIME, 0xdead_beef_dead_beef)
            .unwrap();
        let b = src.pump();
        assert_eq!(b.entries.len(), 4);
        assert_eq!(b.occupancy_pct, Some(50));
        assert!(b.regime_fault);
        assert!(!src.pump().regime_fault, "a fault is reported once");
        assert_eq!(log.regime_observed(), (Regime::Sampled(4), 2, false));
        assert_eq!(src.salvage.count(SalvageReason::CorruptRegimeWord), 1);
        assert!(!src.state.dead);
    }
}
