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
//! Each source is keyed by the process id stamped into the log header
//! (paper Figure 2, word 1): a session registry multiplexes N sources —
//! one per profiled process — by that pid.

use crate::faults::{SalvageReason, SalvageReport};
use crate::fidelity::Regime;
use crate::layout::{EntryValidity, LogEntry};
use crate::log::{LogCursor, SharedLog};

/// One pump's worth of entries from an [`EventSource`] (one stretch of
/// it, under [`EventSource::pump_chunks`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceBatch {
    /// Entries obtained this pump, in log order.
    pub entries: Vec<LogEntry>,
    /// Whether this pump closed an epoch (rotated the log).
    pub rotated: bool,
    /// Entries the closed epoch dropped on overflow (0 if no rotation).
    pub dropped: u64,
    /// Epoch the source is positioned in after this pump.
    pub epoch: u64,
}

impl SourceBatch {
    /// Empty the batch for a pump that starts in `epoch`, keeping the
    /// capacity of `entries`.
    pub fn reset(&mut self, epoch: u64) {
        self.entries.clear();
        self.rotated = false;
        self.dropped = 0;
        self.epoch = epoch;
    }
}

/// A stream of profiling events from one profiled process.
///
/// Implementations own whatever cursor or position state the underlying
/// transport needs; callers never see a raw log. The contract mirrors the
/// live drain protocol:
///
/// * [`EventSource::pump_into`] is the incremental step — cheap, may yield
///   an empty batch, never blocks on writers. It fills a batch the caller
///   keeps, so a steady drain needs no new batch; [`EventSource::pump`] is
///   the same step into a fresh batch.
/// * [`EventSource::drain_to_end`] forces everything currently available
///   out (a rotation for live logs, the full remainder for files).
/// * [`EventSource::pid`] is the registry key: the process id from the
///   log header. A valid source never reports pid 0 (see
///   [`crate::layout::PID_UNSET`]).
pub trait EventSource: Send + std::fmt::Debug {
    /// Process id of the producer (the log header's pid word).
    fn pid(&self) -> u64;

    /// One incremental drain step into `batch`: every field is reset and
    /// `entries` refilled without giving up its capacity. For live logs
    /// this polls published entries and rotates only past the capacity
    /// watermark; for files it reads every slot published since.
    fn pump_into(&mut self, batch: &mut SourceBatch);

    /// [`EventSource::pump_into`], handing the entries to `walk` in log
    /// order a stretch at a time, each while it is fresh in `batch` (whose
    /// other fields are the pump's on return). Returns the entries handed
    /// over. By default the whole pump is one stretch; a file source hands
    /// over one bulk read at a time, so the batch never holds more.
    fn pump_chunks(&mut self, batch: &mut SourceBatch, walk: &mut dyn FnMut(&[LogEntry])) -> usize {
        self.pump_into(batch);
        walk(&batch.entries);
        batch.entries.len()
    }

    /// [`EventSource::pump_into`] a fresh batch.
    fn pump(&mut self) -> SourceBatch {
        let mut batch = SourceBatch::default();
        self.pump_into(&mut batch);
        batch
    }

    /// Force out everything currently available (rotate a live log even
    /// below the watermark; read the whole remainder of a file). By
    /// default a pump: nothing is waited for.
    fn drain_to_end(&mut self) -> SourceBatch {
        self.pump()
    }

    /// Entries dropped on overflow over the lifetime of the source.
    fn dropped_total(&self) -> u64;

    /// Epoch the source is currently positioned in.
    fn epoch(&self) -> u64;

    /// Whether the source can never produce another entry. Live logs are
    /// never exhausted (writers may still arrive); a file is exhausted once
    /// its writer has finished and every entry and drop has been reported.
    fn is_exhausted(&self) -> bool;

    /// Accounting of everything this source salvaged around — torn
    /// entries skipped, holes closed, rotations abandoned, headers
    /// distrusted. Clean (all-zero) for a healthy stream.
    fn salvage(&self) -> SalvageReport {
        SalvageReport::default()
    }

    /// Whether the source has declared its producer dead (corrupted
    /// header, unrecoverable transport). A dead source returns empty
    /// batches forever; the registry quarantines it.
    fn is_dead(&self) -> bool {
        false
    }

    /// Publish a fidelity regime on the transport for the producer's
    /// [`crate::fidelity::FidelityGate`] to honour. Returns `false` when
    /// the transport cannot carry regimes (read-only files);
    /// the controller then treats the source as pinned to `Full`.
    fn set_regime(&mut self, _regime: Regime) -> bool {
        false
    }

    /// The regime currently published on the transport (`None` when the
    /// transport carries none — files are always effectively `Full`).
    fn regime(&self) -> Option<Regime> {
        None
    }

    /// One-shot flag: whether a pump since the last call found the regime
    /// word corrupt, fell back to the `Full` interpretation and repaired
    /// the word. The session surfaces the repair as an event.
    fn take_regime_fault(&mut self) -> bool {
        false
    }

    /// Occupancy of the current epoch's log in percent of capacity
    /// (`None` when the transport has no bounded buffer).
    fn occupancy_pct(&self) -> Option<u8> {
        None
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
/// header kills the source (empty batches, [`EventSource::is_dead`])
/// rather than letting it interpret garbage. Everything given up on is
/// accounted in [`EventSource::salvage`].
#[derive(Debug)]
pub struct LiveLogSource {
    log: SharedLog,
    cursor: LogCursor,
    watermark_pct: u8,
    resilience: SourceResilience,
    salvage: SalvageReport,
    /// (epoch, index, consecutive pumps) the cursor has been blocked at.
    stuck: Option<(u64, u64, u64)>,
    rotation_stalls: u64,
    dead: bool,
    /// The regime this drainer last published, and at which regime epoch.
    regime: Regime,
    regime_epoch: u32,
    /// One-shot: a pump found the regime word corrupt and repaired it.
    regime_fault: bool,
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
            salvage: SalvageReport::default(),
            stuck: None,
            rotation_stalls: 0,
            dead: false,
            regime: Regime::Full,
            regime_epoch: 0,
            regime_fault: false,
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

    /// Distrust the header once and for all: record the incident and go
    /// dead. Every later pump returns an empty batch.
    fn go_dead(&mut self) {
        if !self.dead {
            self.dead = true;
            self.salvage.incident(SalvageReason::CorruptHeader);
        }
    }

    /// A pump made no progress past a reserved-but-unpublished slot. Count
    /// the consecutive stuck pumps; past the deadline, re-check the slot
    /// and close the hole (skip it, account it) if it is still empty.
    /// Returns whether the cursor was advanced past a hole.
    fn note_stuck(&mut self) -> bool {
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
                self.salvage.drop_n(SalvageReason::UnpublishedSlot, 1);
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
        let mut attempt = self.log.try_rotate(&mut self.cursor, limit);
        if attempt.is_err() {
            self.salvage.incident(SalvageReason::StalledRotation);
            self.rotation_stalls += 1;
            if force || self.rotation_stalls >= self.resilience.max_rotation_stalls {
                let reclaimed = self.log.force_reclaim_writers();
                for _ in 0..reclaimed {
                    self.salvage.incident(SalvageReason::DeadWriterReclaimed);
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
        self.salvage
            .drop_n(SalvageReason::UnpublishedSlot, out.abandoned);
        self.salvage.filter_into(out.entries, &mut batch.entries);
        batch.rotated = true;
        batch.dropped = out.dropped;
        batch.epoch = out.new_epoch;
    }

    /// Shared pump body: poll, filter invalid records, maybe rotate.
    fn pump_inner(&mut self, force_rotate: bool, batch: &mut SourceBatch) {
        batch.reset(self.cursor.epoch);
        if self.dead {
            return;
        }
        if self.log.verify_header().is_err() {
            self.go_dead();
            return;
        }
        // Validate the regime word. Writers fall back to the Full
        // interpretation on their own when it is corrupt; the drainer
        // additionally repairs it (it owns the word) and records the
        // incident so the session can surface an event.
        let (_, _, regime_corrupt) = self.log.regime_observed();
        if regime_corrupt {
            self.salvage.incident(SalvageReason::CorruptRegimeWord);
            self.regime_fault = true;
            self.regime_epoch = self.regime_epoch.wrapping_add(1);
            self.log.set_regime(self.regime, self.regime_epoch);
        }
        let polled = self.log.poll(&mut self.cursor);
        let blocked = polled.is_empty()
            && self.cursor.index < self.log.header().tail.min(self.log.capacity());
        self.salvage.filter_into(polled, &mut batch.entries);
        if force_rotate || self.log.header().tail >= self.watermark_entries() {
            self.rotate(batch, force_rotate);
            self.stuck = None;
        } else if blocked {
            if self.note_stuck() {
                // The hole is closed: pick up whatever lies past it now.
                let extra = self.log.poll(&mut self.cursor);
                self.salvage.filter_into(extra, &mut batch.entries);
            }
        } else {
            self.stuck = None;
        }
    }
}

impl EventSource for LiveLogSource {
    fn pid(&self) -> u64 {
        self.log.header().pid
    }

    fn pump_into(&mut self, batch: &mut SourceBatch) {
        self.pump_inner(false, batch);
    }

    fn drain_to_end(&mut self) -> SourceBatch {
        let mut batch = SourceBatch::default();
        self.pump_inner(true, &mut batch);
        batch
    }

    fn dropped_total(&self) -> u64 {
        self.log.dropped_total()
    }

    fn epoch(&self) -> u64 {
        self.cursor.epoch
    }

    fn is_exhausted(&self) -> bool {
        false
    }

    fn salvage(&self) -> SalvageReport {
        self.salvage.clone()
    }

    fn is_dead(&self) -> bool {
        self.dead
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

    fn regime(&self) -> Option<Regime> {
        Some(self.regime)
    }

    fn take_regime_fault(&mut self) -> bool {
        std::mem::take(&mut self.regime_fault)
    }

    fn occupancy_pct(&self) -> Option<u8> {
        let cap = self.log.capacity().max(1);
        let tail = self.log.header().tail.min(cap);
        Some((tail * 100 / cap) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EventKind;
    use crate::log::{make_header, region_bytes};
    use std::sync::Arc;
    use tee_sim::SharedMem;

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

    #[test]
    fn live_source_pumps_and_rotates_at_watermark() {
        let log = live_log(7, 8);
        let mut src = LiveLogSource::new(log.clone(), 75);
        assert_eq!(src.pid(), 7);
        assert!(!src.is_exhausted());
        for k in 1..=3u64 {
            log.write_live(&entry(k, 0x100 + k));
        }
        // Below the watermark (6 of 8): poll only, no rotation.
        let b = src.pump();
        let mut drained = b.entries.len();
        assert_eq!(drained, 3);
        assert!(!b.rotated);
        assert_eq!(src.epoch(), 0);
        assert!(src.pump().entries.is_empty(), "no new entries, no re-reads");
        for k in 4..=6u64 {
            log.write_live(&entry(k, 0x100 + k));
        }
        // At the watermark: poll + rotate.
        let b = src.pump();
        drained += b.entries.len();
        assert_eq!(b.entries.len(), 3);
        assert!(b.rotated);
        assert_eq!(b.epoch, 1);
        assert_eq!(src.epoch(), 1, "one completed rotation");
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
        let mut src = LiveLogSource::new(log.clone(), 99);
        for k in 1..=7u64 {
            log.write_live(&entry(k, 0x100 + k));
        }
        let b = src.pump();
        assert!(b.rotated);
        assert_eq!(b.entries.len(), 4);
        assert_eq!(b.dropped, 3, "overflow is accounted, not silent");
        assert_eq!(src.dropped_total(), 3);
    }

    /// A pump fills the batch it is lent as if it were fresh: a stale
    /// `rotated` or `dropped` left in it would count an epoch or a drop
    /// twice.
    #[test]
    fn a_dirty_lent_batch_pumps_like_a_fresh_one() {
        let dirty = || SourceBatch {
            entries: vec![entry(99, 0x999); 5],
            rotated: true,
            dropped: 9,
            epoch: 3,
        };
        // A rotation that overflowed, an idle pump, a plain poll. (The
        // file medium's twin runs in `prop_hostile_headers_never_panic_or_over_read`.)
        let (a, b) = (live_log(7, 4), live_log(7, 4));
        let mut fresh = LiveLogSource::new(a.clone(), 99);
        let mut lent = LiveLogSource::new(b.clone(), 99);
        for writes in [7u64, 0, 2] {
            for k in 1..=writes {
                a.write_live(&entry(k, 0x100 + k));
                b.write_live(&entry(k, 0x100 + k));
            }
            let mut batch = dirty();
            lent.pump_into(&mut batch);
            assert_eq!(batch, fresh.pump(), "after {writes} writes");
        }
        assert_eq!((lent.dropped_total(), lent.epoch()), (3, 1));
        assert_eq!(lent.salvage(), fresh.salvage());
    }

    #[test]
    fn live_source_drain_to_end_forces_rotation() {
        let log = live_log(7, 8);
        let mut src = LiveLogSource::new(log.clone(), 75);
        log.write_live(&entry(1, 0x101));
        let b = src.drain_to_end();
        assert_eq!(b.entries.len(), 1);
        assert!(b.rotated);
        assert_eq!(log.epoch(), 1);
        assert_eq!(src.dropped_total(), 0);
        // A later source attaches at the current epoch, not at zero.
        drop(src);
        assert_eq!(LiveLogSource::new(log, 75).epoch(), 1);
    }

    #[test]
    fn live_source_filters_torn_entries_and_accounts_them() {
        use crate::faults::{FaultKind, FaultPlan, FaultyWriter, SalvageReason};
        let log = live_log(7, 8);
        let plan = FaultPlan::new().with(FaultKind::TornEntry, 1);
        let mut w = FaultyWriter::new(log.clone(), plan);
        let mut src = LiveLogSource::new(log, 90);
        for k in 1..=3u64 {
            w.write_live(&entry(k, 0x100 + k));
        }
        let b = src.drain_to_end();
        assert_eq!(b.entries, w.published());
        let report = src.salvage();
        assert_eq!(report.kept, 2);
        assert_eq!(report.count(SalvageReason::TornEntry), 1);
        assert!(!src.is_dead());
    }

    #[test]
    fn live_source_closes_hole_left_by_stalled_writer() {
        use crate::faults::{FaultKind, FaultPlan, FaultyWriter, SalvageReason};
        let log = live_log(7, 16);
        let plan = FaultPlan::new().with(FaultKind::StalledWriter, 1);
        let mut w = FaultyWriter::new(log.clone(), plan);
        let mut src = LiveLogSource::new(log, 90).with_resilience(SourceResilience {
            stall_pumps: 2,
            ..SourceResilience::default()
        });
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
        assert_eq!(src.salvage().count(SalvageReason::UnpublishedSlot), 1);
        // The stalled writer resuming later publishes into a slot the
        // cursor already passed: nothing is double-delivered.
        w.release_stall();
        assert!(src.pump().entries.is_empty());
        assert_eq!(src.salvage().kept, 2);
    }

    #[test]
    fn live_source_recovers_from_writer_publishing_before_deadline() {
        use crate::faults::{FaultKind, FaultPlan, FaultyWriter};
        let log = live_log(7, 16);
        let plan = FaultPlan::new().with(FaultKind::StalledWriter, 0);
        let mut w = FaultyWriter::new(log.clone(), plan);
        let mut src = LiveLogSource::new(log, 90).with_resilience(SourceResilience {
            stall_pumps: 10,
            ..SourceResilience::default()
        });
        w.write_live(&entry(1, 0x101)); // stalls immediately
        w.write_live(&entry(2, 0x102));
        assert!(src.pump().entries.is_empty(), "blocked at slot 0");
        w.release_stall(); // resumes before the deadline
        let b = src.pump();
        assert_eq!(b.entries, vec![entry(1, 0x101), entry(2, 0x102)]);
        assert!(src.salvage().is_clean());
    }

    #[test]
    fn live_source_reclaims_crashed_writer_and_salvages_published_entries() {
        use crate::faults::{FaultKind, FaultPlan, FaultyWriter, SalvageReason};
        let log = live_log(7, 16);
        let plan = FaultPlan::new().with(FaultKind::WriterCrash, 2);
        let mut w = FaultyWriter::new(log.clone(), plan);
        let mut src = LiveLogSource::new(log, 90).with_resilience(SourceResilience {
            rotate_spin_limit: 32,
            max_rotation_stalls: 2,
            ..SourceResilience::default()
        });
        w.write_live(&entry(1, 0x101));
        w.write_live(&entry(2, 0x102));
        w.write_live(&entry(3, 0x103)); // crashes: announcement never withdrawn
                                        // Force path: the stalled rotation escalates to reclaim at once.
        let b = src.drain_to_end();
        assert_eq!(b.entries, w.published(), "published entries salvaged");
        assert!(b.rotated);
        let report = src.salvage();
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
        let mut src = LiveLogSource::new(log, 90);
        w.write_live(&entry(1, 0x101));
        assert_eq!(src.pump().entries.len(), 1);
        w.write_live(&entry(2, 0x102)); // smashes the header
        assert!(src.pump().entries.is_empty());
        assert!(src.is_dead());
        assert_eq!(src.salvage().count(SalvageReason::CorruptHeader), 1);
        // Dead is sticky and cheap: no further header reads, empty batches.
        assert!(src.drain_to_end().entries.is_empty());
        assert_eq!(src.salvage().count(SalvageReason::CorruptHeader), 1);
    }

    #[test]
    fn live_source_publishes_and_repairs_regime_word() {
        use crate::faults::SalvageReason;
        let log = live_log(7, 8);
        let mut src = LiveLogSource::new(log.clone(), 90);
        assert_eq!(src.regime(), Some(Regime::Full));
        assert_eq!(src.occupancy_pct(), Some(0));
        assert!(src.set_regime(Regime::sampled(4)));
        assert_eq!(log.regime_observed(), (Regime::Sampled(4), 1, false));
        for k in 1..=4u64 {
            log.write_live(&entry(k, 0x100 + k));
        }
        assert_eq!(src.occupancy_pct(), Some(50));
        // A hostile producer scribbles on the regime word: the next pump
        // falls back to Full, repairs the word at a fresh regime epoch,
        // and accounts the incident — no panic, nothing lost.
        log.shm()
            .write_u64(crate::layout::OFF_REGIME, 0xdead_beef_dead_beef)
            .unwrap();
        let b = src.pump();
        assert_eq!(b.entries.len(), 4);
        assert!(src.take_regime_fault());
        assert!(!src.take_regime_fault(), "fault flag is one-shot");
        assert_eq!(log.regime_observed(), (Regime::Sampled(4), 2, false));
        assert_eq!(src.salvage().count(SalvageReason::CorruptRegimeWord), 1);
        assert!(!src.is_dead());
        assert_eq!(src.regime(), Some(Regime::Sampled(4)));
    }
}
