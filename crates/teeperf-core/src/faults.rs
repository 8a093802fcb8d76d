//! Deterministic fault injection and salvage accounting.
//!
//! The paper's recorder assumes a cooperative enclave writer. A production
//! profiler must survive the opposite (TEEMon's continuous-monitoring
//! framing; Stress-SGX's deliberately hostile workloads): enclaves that
//! crash mid-entry, stall inside a reserved slot, corrupt the header, or
//! exit without closing their log. This module provides
//!
//! * [`FaultPlan`] — a deterministic, seedable schedule of [`FaultKind`]s
//!   that can be armed on any writer;
//! * [`FaultyWriter`] — a [`SharedLog`] writer that executes the plan,
//!   producing exactly the torn entries, unpublished holes, stuck
//!   announcements and smashed headers a crashed or hostile enclave
//!   would leave behind — while remembering the ground truth (which
//!   entries were actually fully published) so tests can assert that
//!   salvage recovered *exactly* the published stream;
//! * [`SalvageReport`] — the accounting every salvage path returns:
//!   entries kept, entries dropped, and a per-[`SalvageReason`] histogram.
//!   Degrading gracefully never means losing data silently.

use std::collections::BTreeMap;
use std::fmt;

use crate::layout::{
    EntryValidity, LogEntry, FLAG_ACTIVE, HEADER_BYTES, OFF_CONTROL, OFF_MAGIC, OFF_TAIL,
    WRITER_ONE,
};
use crate::log::SharedLog;

/// A small deterministic PRNG (SplitMix64): fault schedules must reproduce
/// exactly from a seed, across platforms and runs.
#[derive(Debug, Clone)]
pub struct FaultRng(u64);

impl FaultRng {
    /// Seed the generator.
    pub fn new(seed: u64) -> FaultRng {
        FaultRng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// The fault taxonomy: every way this failure model can break a writer or
/// a persisted log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A partial slot write: the entry is published (word 0 nonzero) but
    /// the address word was never written — the publication order was
    /// violated, as by memory corruption or a hostile writer.
    TornEntry,
    /// The writer dies inside an append: the slot stays reserved but
    /// never published, and the writer's announcement on the control word
    /// is never withdrawn, so an unbounded rotation would hang forever.
    WriterCrash,
    /// The writer reserves a slot and then stalls (preemption, paging,
    /// an enclave exit): the slot is a hole until — maybe — it resumes.
    StalledWriter,
    /// The header control word is overwritten with garbage (version bits
    /// smashed, flags cleared): nothing in the header can be trusted.
    CorruptHeader,
    /// The persisted log file is cut short mid-entry.
    TruncatedFile,
}

impl FaultKind {
    /// Every fault kind, for matrix-style tests.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TornEntry,
        FaultKind::WriterCrash,
        FaultKind::StalledWriter,
        FaultKind::CorruptHeader,
        FaultKind::TruncatedFile,
    ];

    /// Stable lower-case name (CI matrix labels, salvage reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TornEntry => "torn-entry",
            FaultKind::WriterCrash => "writer-crash",
            FaultKind::StalledWriter => "stalled-writer",
            FaultKind::CorruptHeader => "corrupt-header",
            FaultKind::TruncatedFile => "truncated-file",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled fault: fire `kind` at the writer's `at`-th write (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmedFault {
    /// What breaks.
    pub kind: FaultKind,
    /// Write index at which it breaks.
    pub at: u64,
}

/// A deterministic schedule of faults, armable on a [`FaultyWriter`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<ArmedFault>,
}

impl FaultPlan {
    /// The empty plan (a perfectly healthy writer).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a fault firing at write index `at`.
    #[must_use]
    pub fn with(mut self, kind: FaultKind, at: u64) -> FaultPlan {
        self.faults.push(ArmedFault { kind, at });
        self
    }

    /// A seeded random plan: `count` faults drawn from `kinds`, at write
    /// indices below `writes`. Identical seeds produce identical plans.
    pub fn random(seed: u64, kinds: &[FaultKind], writes: u64, count: usize) -> FaultPlan {
        let mut rng = FaultRng::new(seed);
        let mut plan = FaultPlan::new();
        if kinds.is_empty() {
            return plan;
        }
        for _ in 0..count {
            let kind = kinds[rng.below(kinds.len() as u64) as usize];
            plan = plan.with(kind, rng.below(writes));
        }
        plan
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[ArmedFault] {
        &self.faults
    }

    fn due(&self, at: u64) -> Option<FaultKind> {
        self.faults.iter().find(|f| f.at == at).map(|f| f.kind)
    }

    /// Apply the file-level faults of this plan to a serialized log image
    /// (deterministically, seeded by `seed`): [`FaultKind::TruncatedFile`]
    /// cuts the buffer mid-entry, [`FaultKind::CorruptHeader`] smashes the
    /// control word. Writer-level kinds are ignored here.
    pub fn mutilate(&self, bytes: &mut Vec<u8>, seed: u64) {
        let mut rng = FaultRng::new(seed);
        let header_end = HEADER_BYTES as usize;
        for f in &self.faults {
            match f.kind {
                // Keep the header, cut somewhere in the slot region
                // (mid-entry when possible).
                FaultKind::TruncatedFile if bytes.len() > header_end => {
                    let span = (bytes.len() - header_end) as u64;
                    bytes.truncate(header_end + rng.below(span) as usize);
                }
                // Flip the control word's version bits.
                FaultKind::CorruptHeader if bytes.len() >= header_end => {
                    let garbage = rng.next_u64() | (1 << 40);
                    let at = OFF_CONTROL as usize;
                    bytes[at..at + 8].copy_from_slice(&garbage.to_le_bytes());
                }
                _ => {}
            }
        }
    }
}

/// What a [`FaultyWriter::write_live`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Fully published at the given slot.
    Published(u64),
    /// Dropped on overflow (epoch full) — same as a healthy writer.
    Overflow,
    /// A fault fired on this write (the entry was torn, lost, or stalled).
    Faulted(FaultKind),
    /// The writer is dead (a prior [`FaultKind::WriterCrash`] killed it);
    /// the write went nowhere.
    Dead,
}

/// A [`SharedLog`] writer that executes a [`FaultPlan`]: the in-process
/// stand-in for a crashing, stalling or hostile enclave. Every injected
/// fault leaves exactly the shared-memory state the real failure would.
#[derive(Debug)]
pub struct FaultyWriter {
    log: SharedLog,
    plan: FaultPlan,
    writes: u64,
    injected: Vec<ArmedFault>,
    published: Vec<LogEntry>,
    dead: bool,
    stalled_slot: Option<(u64, LogEntry)>,
}

impl FaultyWriter {
    /// Arm `plan` on a writer for `log`.
    pub fn new(log: SharedLog, plan: FaultPlan) -> FaultyWriter {
        FaultyWriter {
            log,
            plan,
            writes: 0,
            injected: Vec::new(),
            published: Vec::new(),
            dead: false,
            stalled_slot: None,
        }
    }

    /// The wrapped log.
    pub fn log(&self) -> &SharedLog {
        &self.log
    }

    /// Ground truth: every entry this writer fully published, in order.
    /// Salvage must recover exactly these (minus healthy overflow drops).
    pub fn published(&self) -> &[LogEntry] {
        &self.published
    }

    /// The faults that actually fired, in firing order.
    pub fn injected(&self) -> &[ArmedFault] {
        &self.injected
    }

    /// Whether a [`FaultKind::WriterCrash`] has killed this writer.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Announce + reserve like a healthy append, without publishing or
    /// withdrawing — the state a writer is in the instant before it dies
    /// or stalls. Returns the reserved slot (`None` on overflow; the
    /// announcement stays either way).
    fn announce_and_reserve(&self) -> Option<u64> {
        self.log
            .shm()
            .fetch_add_u64(OFF_CONTROL, WRITER_ONE)
            .expect("header in range");
        let index = self
            .log
            .shm()
            .fetch_add_u64(OFF_TAIL, 1)
            .expect("header in range");
        (index < self.log.capacity()).then_some(index)
    }

    fn withdraw(&self) {
        self.log
            .shm()
            .fetch_add_u64(OFF_CONTROL, WRITER_ONE.wrapping_neg())
            .expect("header in range");
    }

    /// Write `entry` through the live path, injecting whatever fault the
    /// plan schedules for this write index.
    pub fn write_live(&mut self, entry: &LogEntry) -> WriteOutcome {
        if self.dead {
            return WriteOutcome::Dead;
        }
        let at = self.writes;
        self.writes += 1;
        let Some(kind) = self.plan.due(at) else {
            return match self.log.write_live(entry) {
                Some(slot) => {
                    self.published.push(*entry);
                    WriteOutcome::Published(slot)
                }
                None => WriteOutcome::Overflow,
            };
        };
        self.injected.push(ArmedFault { kind, at });
        match kind {
            FaultKind::TornEntry => {
                // Publish word 0 while never writing the address word: the
                // forbidden order a corrupted writer produces.
                if let Some(index) = self.announce_and_reserve() {
                    let off = LogEntry::offset_of(index);
                    let words = entry.pack();
                    self.log
                        .shm()
                        .write_u64(off, words[0].max(1))
                        .expect("entry in range");
                }
                self.withdraw();
            }
            FaultKind::WriterCrash => {
                // Die mid-write: slot reserved, never published, the
                // announcement never withdrawn.
                self.announce_and_reserve();
                self.dead = true;
            }
            FaultKind::StalledWriter => {
                // Hold the reserved slot; maybe resume later via
                // `release_stall`. The announcement is withdrawn (the
                // thread left the critical write path but the slot is a
                // hole) — the stall starves `poll`, not rotation.
                if let Some(index) = self.announce_and_reserve() {
                    self.stalled_slot = Some((index, *entry));
                }
                self.withdraw();
            }
            FaultKind::CorruptHeader => {
                // Scribble over the magic and the control word, then keep
                // writing as if nothing happened.
                self.log
                    .shm()
                    .write_u64(OFF_MAGIC, 0xbad0_bad0_bad0_bad0)
                    .expect("header in range");
                self.log
                    .shm()
                    .write_u64(OFF_CONTROL, FLAG_ACTIVE | (0x3ff << 17))
                    .expect("header in range");
            }
            FaultKind::TruncatedFile => {
                // A file-level fault: nothing to do on the live path (see
                // `FaultPlan::mutilate`); the write itself proceeds.
                return match self.log.write_live(entry) {
                    Some(slot) => {
                        self.published.push(*entry);
                        WriteOutcome::Published(slot)
                    }
                    None => WriteOutcome::Overflow,
                };
            }
        }
        WriteOutcome::Faulted(kind)
    }

    /// Resume a stalled writer: publish the held slot's entry (if its slot
    /// still belongs to the current epoch, which the caller can't know —
    /// exactly like a real resumed thread). Returns whether an entry was
    /// published.
    pub fn release_stall(&mut self) -> bool {
        let Some((index, entry)) = self.stalled_slot.take() else {
            return false;
        };
        if index >= self.log.capacity() {
            return false;
        }
        let off = LogEntry::offset_of(index);
        let words = entry.pack();
        self.log
            .shm()
            .write_u64(off + 8, words[1])
            .expect("entry in range");
        self.log
            .shm()
            .write_u64(off + 16, words[2])
            .expect("entry in range");
        self.log
            .shm()
            .write_u64(off, words[0])
            .expect("entry in range");
        true
    }
}

/// Why a salvage path dropped a record (the histogram key of a
/// [`SalvageReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SalvageReason {
    /// Published-looking entry with an impossible zero address
    /// ([`EntryValidity::Torn`]).
    TornEntry,
    /// A reserved slot that was never published (writer died or stalled
    /// past the deadline) — the hole was closed and skipped.
    UnpublishedSlot,
    /// A rotation was abandoned because announced writers never left.
    StalledRotation,
    /// The header failed its integrity check; the source went dead.
    CorruptHeader,
    /// Bytes cut off the end of a persisted log file.
    TruncatedFile,
    /// Writers declared dead and their announcements reclaimed.
    DeadWriterReclaimed,
    /// The fidelity regime word failed validation; the reader fell back
    /// to the `Full` interpretation and the drainer re-published a valid
    /// word. An incident, never an entry drop.
    CorruptRegimeWord,
}

impl SalvageReason {
    /// Stable lower-case name used in reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            SalvageReason::TornEntry => "torn-entry",
            SalvageReason::UnpublishedSlot => "unpublished-slot",
            SalvageReason::StalledRotation => "stalled-rotation",
            SalvageReason::CorruptHeader => "corrupt-header",
            SalvageReason::TruncatedFile => "truncated-file",
            SalvageReason::DeadWriterReclaimed => "dead-writer-reclaimed",
            SalvageReason::CorruptRegimeWord => "corrupt-regime-word",
        }
    }
}

impl fmt::Display for SalvageReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a salvage pass kept and what it gave up on, with a per-reason
/// histogram. Returned by every degrade-gracefully path in the pipeline;
/// an all-zero report means the stream was perfectly healthy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Entries delivered downstream.
    pub kept: u64,
    /// Records dropped by salvage (sum of the histogram).
    pub dropped: u64,
    /// Drop histogram by reason. [`SalvageReason::StalledRotation`] and
    /// [`SalvageReason::CorruptHeader`] count *incidents*, not entries,
    /// as does [`SalvageReason::TruncatedFile`] for a cut that lost no
    /// undrained entry; they are excluded from `dropped`'s entry
    /// arithmetic only when no record was lost.
    pub reasons: BTreeMap<SalvageReason, u64>,
}

impl SalvageReport {
    /// Record `n` dropped records for `reason`.
    pub fn drop_n(&mut self, reason: SalvageReason, n: u64) {
        if n == 0 {
            return;
        }
        self.dropped += n;
        *self.reasons.entry(reason).or_default() += n;
    }

    /// Record an incident that lost no entries by itself (a stalled
    /// rotation that will be retried, a header corruption event).
    pub fn incident(&mut self, reason: SalvageReason) {
        *self.reasons.entry(reason).or_default() += 1;
    }

    /// Count recorded for `reason` (0 when absent).
    pub fn count(&self, reason: SalvageReason) -> u64 {
        self.reasons.get(&reason).copied().unwrap_or(0)
    }

    /// Whether anything at all was salvaged around.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.reasons.is_empty()
    }

    /// Merge another report into this one (kept/dropped/reason-wise sums).
    pub fn absorb(&mut self, other: &SalvageReport) {
        self.kept += other.kept;
        self.dropped += other.dropped;
        for (reason, n) in &other.reasons {
            *self.reasons.entry(*reason).or_default() += n;
        }
    }

    /// Fold another pass's *losses* into this report without its kept
    /// count — for when this report's owner re-delivers (and so re-counts)
    /// the entries the earlier pass already kept.
    pub fn absorb_drops(&mut self, other: &SalvageReport) {
        self.dropped += other.dropped;
        for (reason, n) in &other.reasons {
            *self.reasons.entry(*reason).or_default() += n;
        }
    }

    /// One line per reason, `salvage: kept K dropped D (reason: n, ...)`;
    /// empty string when clean.
    pub fn to_line(&self) -> String {
        if self.is_clean() {
            return String::new();
        }
        let mut parts: Vec<String> = Vec::new();
        for (reason, n) in &self.reasons {
            parts.push(format!("{reason}: {n}"));
        }
        format!(
            "salvage: kept {} dropped {} ({})",
            self.kept,
            self.dropped,
            parts.join(", ")
        )
    }

    /// Append the valid records of a raw entry batch to `out`, accounting
    /// every invalid one here. The helper all salvaging sources share; it
    /// appends so that a caller's buffer keeps its capacity across batches.
    pub fn filter_into(
        &mut self,
        entries: impl IntoIterator<Item = LogEntry>,
        out: &mut Vec<LogEntry>,
    ) {
        let entries = entries.into_iter();
        out.reserve(entries.size_hint().0);
        let before = out.len();
        for e in entries {
            match e.validity() {
                EntryValidity::Valid => out.push(e),
                EntryValidity::Unpublished => self.drop_n(SalvageReason::UnpublishedSlot, 1),
                EntryValidity::Torn => self.drop_n(SalvageReason::TornEntry, 1),
            }
        }
        self.kept += (out.len() - before) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EventKind;
    use crate::log::{make_header, region_bytes, LogCursor};
    use std::sync::Arc;
    use tee_sim::SharedMem;

    fn fresh(max_entries: u64) -> SharedLog {
        let shm = Arc::new(SharedMem::new(region_bytes(max_entries)));
        SharedLog::init(shm, &make_header(9, max_entries, true, 0, 0))
    }

    fn entry(counter: u64) -> LogEntry {
        LogEntry {
            kind: EventKind::Call,
            counter,
            addr: 0x40_0000 + counter,
            tid: 0,
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = FaultRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = FaultRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = FaultRng::new(7);
        for _ in 0..100 {
            assert!(r.below(13) < 13);
        }
        assert_eq!(FaultRng::new(1).below(0), 0);
    }

    #[test]
    fn random_plans_reproduce_from_the_seed() {
        let p1 = FaultPlan::random(99, &FaultKind::ALL, 50, 4);
        let p2 = FaultPlan::random(99, &FaultKind::ALL, 50, 4);
        assert_eq!(p1, p2);
        assert_eq!(p1.faults().len(), 4);
        assert_ne!(p1, FaultPlan::random(100, &FaultKind::ALL, 50, 4));
        assert!(FaultPlan::random(1, &[], 50, 4).faults().is_empty());
    }

    #[test]
    fn healthy_writer_publishes_everything() {
        let log = fresh(8);
        let mut w = FaultyWriter::new(log.clone(), FaultPlan::new());
        for k in 1..=3 {
            assert_eq!(w.write_live(&entry(k)), WriteOutcome::Published(k - 1));
        }
        assert_eq!(w.published().len(), 3);
        assert!(w.injected().is_empty());
        assert!(!w.is_dead());
    }

    #[test]
    fn torn_entry_leaves_published_word_with_zero_addr() {
        let log = fresh(8);
        let plan = FaultPlan::new().with(FaultKind::TornEntry, 1);
        let mut w = FaultyWriter::new(log.clone(), plan);
        w.write_live(&entry(1));
        assert_eq!(
            w.write_live(&entry(2)),
            WriteOutcome::Faulted(FaultKind::TornEntry)
        );
        w.write_live(&entry(3));
        assert_eq!(w.published().len(), 2);
        let torn = log.read_entry(1);
        assert_eq!(torn.validity(), EntryValidity::Torn);
        assert_eq!(log.writers_in_flight(), 0, "torn writer still withdrew");
    }

    #[test]
    fn writer_crash_leaves_hole_and_stuck_announcement() {
        let log = fresh(8);
        let plan = FaultPlan::new().with(FaultKind::WriterCrash, 1);
        let mut w = FaultyWriter::new(log.clone(), plan);
        w.write_live(&entry(1));
        assert_eq!(
            w.write_live(&entry(2)),
            WriteOutcome::Faulted(FaultKind::WriterCrash)
        );
        assert!(w.is_dead());
        assert_eq!(w.write_live(&entry(3)), WriteOutcome::Dead);
        assert_eq!(w.published().len(), 1);
        assert_eq!(log.writers_in_flight(), 1, "the dead writer never left");
        assert_eq!(
            log.read_entry(1).validity(),
            EntryValidity::Unpublished,
            "crashed slot is a hole"
        );
        // An unbounded rotate would now hang; the bounded one reports it.
        let mut cursor = LogCursor::default();
        assert!(log.try_rotate(&mut cursor, 32).is_err());
    }

    #[test]
    fn stalled_writer_holds_then_releases_the_slot() {
        let log = fresh(8);
        let plan = FaultPlan::new().with(FaultKind::StalledWriter, 0);
        let mut w = FaultyWriter::new(log.clone(), plan);
        assert_eq!(
            w.write_live(&entry(7)),
            WriteOutcome::Faulted(FaultKind::StalledWriter)
        );
        assert_eq!(log.writers_in_flight(), 0);
        assert_eq!(log.read_entry(0).validity(), EntryValidity::Unpublished);
        assert!(w.release_stall());
        assert_eq!(log.read_entry(0), entry(7));
        assert!(!w.release_stall(), "a stall releases once");
    }

    #[test]
    fn corrupt_header_fails_verification() {
        let log = fresh(8);
        let plan = FaultPlan::new().with(FaultKind::CorruptHeader, 0);
        let mut w = FaultyWriter::new(log.clone(), plan);
        assert!(log.verify_header().is_ok());
        w.write_live(&entry(1));
        assert!(log.verify_header().is_err());
    }

    #[test]
    fn salvage_report_accounting() {
        let mut r = SalvageReport::default();
        assert!(r.is_clean());
        assert!(r.to_line().is_empty());
        let mut kept = vec![entry(9)];
        r.filter_into(
            [
                entry(1),
                LogEntry::unpack([0, 0, 0]), // unpublished
                LogEntry {
                    kind: EventKind::Call,
                    counter: 3,
                    addr: 0,
                    tid: 0,
                }, // torn
                entry(2),
            ],
            &mut kept,
        );
        assert_eq!(kept, [entry(9), entry(1), entry(2)], "appended");
        assert_eq!(r.kept, 2);
        assert_eq!(r.dropped, 2);
        assert_eq!(r.count(SalvageReason::TornEntry), 1);
        assert_eq!(r.count(SalvageReason::UnpublishedSlot), 1);
        r.incident(SalvageReason::StalledRotation);
        assert_eq!(r.dropped, 2, "incidents are not entry drops");
        let mut sum = SalvageReport::default();
        sum.absorb(&r);
        sum.absorb(&r);
        assert_eq!(sum.kept, 4);
        assert_eq!(sum.count(SalvageReason::StalledRotation), 2);
        let line = sum.to_line();
        assert!(line.contains("kept 4"), "{line}");
        assert!(line.contains("torn-entry: 2"), "{line}");
    }
}
