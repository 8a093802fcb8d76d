//! The fault-injection matrix: every [`FaultKind`] crossed with both
//! source flavours (live shared-memory drain, a persisted log file drained
//! by a [`FileShmSource`]) must leave the pipeline *finished* — no panic,
//! no hang — with the fault accounted in a [`SalvageReport`] or a typed
//! error. Plus the registry acceptance scenario (one crashed process among
//! survivors) and a property test pinning salvage to the ground truth of
//! published entries.
//!
//! Every test arms a [`hang_guard`]: a watchdog thread that aborts the
//! whole process if the test is still running after 60 seconds, because a
//! salvage bug's natural failure mode is an infinite pump loop, which a
//! plain test harness would never report.

// teeperf-lint: allow(raw-atomics, file): the hang-guard watchdog's disarm
// flag is test infrastructure, not shared-log state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use mcvm::DebugInfo;
use tee_sim::SharedMem;
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_core::layout::{EventKind, LogEntry};
use teeperf_core::log::{make_header, region_bytes};
use teeperf_core::{
    EventSource, FaultKind, FaultPlan, FaultyWriter, FidelityGate, FileShmSource, FileShmWriter,
    LiveLogSource, LogFile, Regime, SalvageReason, SalvageReport, SharedLog, ShmFileError,
    SourceBatch, SourceResilience, SourceState, WriteOutcome,
};
use teeperf_live::{
    LiveConfig, LiveSession, OverheadBudget, SessionEvent, SessionRegistry, WatchdogConfig,
};

/// A source and what a session keeps of its drains: the salvage reports
/// summed and the last state.
struct Tally<S> {
    src: S,
    salvage: SalvageReport,
    state: SourceState,
}

impl<S: EventSource> Tally<S> {
    fn new(src: S) -> Tally<S> {
        Tally {
            src,
            salvage: SalvageReport::default(),
            state: SourceState::default(),
        }
    }

    fn pump(&mut self) -> SourceBatch {
        self.drain(false)
    }

    fn drain_to_end(&mut self) -> SourceBatch {
        self.drain(true)
    }

    fn drain(&mut self, to_end: bool) -> SourceBatch {
        let mut batch = SourceBatch::default();
        self.src.drain(&mut batch, to_end, &mut |_| {});
        self.salvage.absorb(&batch.salvaged);
        self.state = batch.state;
        batch
    }
}

/// Aborts the process if the owning test has not finished within 60
/// seconds. Dropping the guard disarms it.
struct HangGuard(Arc<AtomicBool>);

fn hang_guard(label: &'static str) -> HangGuard {
    let done = Arc::new(AtomicBool::new(false));
    let armed = Arc::clone(&done);
    std::thread::spawn(move || {
        for _ in 0..600 {
            std::thread::sleep(Duration::from_millis(100));
            // ord: Relaxed — a standalone disarm flag; the watchdog reads
            // nothing else that the test writes.
            if armed.load(Ordering::Relaxed) {
                return;
            }
        }
        eprintln!("fault-matrix test hung for 60s: {label}");
        std::process::abort();
    });
    HangGuard(done)
}

impl Drop for HangGuard {
    fn drop(&mut self) {
        // ord: Relaxed — pairs with the Relaxed poll in the watchdog loop;
        // timing via sleep, not memory ordering.
        self.0.store(true, Ordering::Relaxed);
    }
}

fn fresh(pid: u64, max_entries: u64) -> SharedLog {
    let shm = Arc::new(SharedMem::new(region_bytes(max_entries)));
    SharedLog::init(shm, &make_header(pid, max_entries, true, 0, 0))
}

fn entry(counter: u64) -> LogEntry {
    LogEntry {
        kind: EventKind::Call,
        counter,
        addr: 0x40_0000 + counter,
        tid: 0,
    }
}

/// Impatient thresholds so a test exercises the recovery paths in a
/// handful of pumps instead of the production-scale defaults.
fn impatient() -> SourceResilience {
    SourceResilience {
        stall_pumps: 2,
        rotate_spin_limit: 1 << 12,
        max_rotation_stalls: 1,
    }
}

/// Live half of the matrix: arm each fault on a writer, drain the log to
/// the end, and check the pipeline both finished and reported the fault.
#[test]
fn live_matrix_every_fault_completes_and_is_reported() {
    for kind in FaultKind::ALL {
        let _guard = hang_guard(kind.name());
        let log = fresh(1, 16);
        let mut writer = FaultyWriter::new(log.clone(), FaultPlan::new().with(kind, 2));
        let mut source =
            Tally::new(LiveLogSource::new(log.clone(), 75).with_resilience(impatient()));
        for k in 1..=6 {
            writer.write_live(&entry(k));
        }
        let mut got: Vec<LogEntry> = Vec::new();
        for _ in 0..12 {
            got.extend(source.pump().entries);
        }
        for _ in 0..4 {
            got.extend(source.drain_to_end().entries);
        }
        let report = &source.salvage;
        match kind {
            FaultKind::TornEntry => {
                assert_eq!(report.count(SalvageReason::TornEntry), 1, "{kind}");
            }
            FaultKind::WriterCrash => {
                assert_eq!(report.count(SalvageReason::UnpublishedSlot), 1, "{kind}");
                assert!(
                    report.count(SalvageReason::DeadWriterReclaimed) >= 1,
                    "{kind}: the stuck announcement must be reclaimed"
                );
            }
            FaultKind::StalledWriter => {
                assert_eq!(report.count(SalvageReason::UnpublishedSlot), 1, "{kind}");
            }
            FaultKind::CorruptHeader => {
                assert!(source.state.dead, "{kind}: source must refuse the garbage");
                assert_eq!(report.count(SalvageReason::CorruptHeader), 1, "{kind}");
            }
            FaultKind::TruncatedFile => {
                // A file-level fault: the live path sails through clean.
                assert!(report.is_clean(), "{kind}: {report:?}");
            }
        }
        if !source.state.dead {
            assert_eq!(
                got,
                writer.published(),
                "{kind}: salvage must deliver exactly the published entries"
            );
            assert_eq!(report.kept, writer.published().len() as u64, "{kind}");
        }
    }
}

/// A writer that dies mid-batch: it reserved a run of `n` slots with one
/// tail fetch-and-add, published `k` of them, and crashed — a batched
/// writer's exit path writes nothing shared, so the remainder is `n - k`
/// permanently unpublished slots. Salvage must deliver exactly the `k`
/// published entries and account the remainder exactly once: as
/// unpublished holes in the salvage report and as abandoned slots in the
/// header — never as drops (a drop claims an entry existed and was lost;
/// these slots never held one).
#[test]
fn live_matrix_mid_batch_crash_counts_the_exact_remainder() {
    let _guard = hang_guard("mid-batch-crash");
    let log = fresh(1, 16);
    let batch = 8u64;
    let published = 3u64;
    {
        let mut w = log.batch_writer(batch);
        for k in 1..=published {
            w.append(&entry(k));
        }
        assert_eq!(
            w.pending(),
            batch - published,
            "mid-run, remainder reserved"
        );
        // The writer thread dies here: `w` is dropped with the run open.
    }

    let mut source = Tally::new(LiveLogSource::new(log.clone(), 75).with_resilience(impatient()));
    let mut got = Vec::new();
    for _ in 0..8 {
        got.extend(source.pump().entries);
    }
    got.extend(source.drain_to_end().entries);
    assert_eq!(
        got.iter().map(|e| e.counter).collect::<Vec<_>>(),
        vec![1, 2, 3],
        "exactly the published prefix of the batch run is delivered"
    );
    let report = &source.salvage;
    assert_eq!(
        report.count(SalvageReason::UnpublishedSlot),
        batch - published,
        "the remainder is counted hole-by-hole: {report:?}"
    );
    assert_eq!(report.kept, published);
    assert_eq!(
        log.dropped_total(),
        0,
        "abandoned remainder must never surface as drops"
    );
    // The salvage report is the authoritative per-slot accounting; the
    // header's abandoned counter only collects holes still open when the
    // final rotation runs (holes the source already waited out and closed
    // mid-stream were charged to its report instead), so it can only be
    // a lower bound here.
    assert!(
        log.abandoned_total() <= batch - published,
        "header abandoned counter ({}) must never exceed the remainder",
        log.abandoned_total()
    );
}

/// Replay half of the matrix: the same faults frozen into a persisted log
/// file (writer-level kinds via the shared-memory state the writer left,
/// file-level kinds via [`FaultPlan::mutilate`]) and drained back by a
/// [`FileShmSource`].
#[test]
fn replay_matrix_every_fault_completes_and_is_reported() {
    let dir = scratch("replay");
    // The file `bytes` make, drained to its end — or why it never opened.
    let drain = |bytes: &[u8]| -> Result<(Vec<LogEntry>, Tally<FileShmSource>), ShmFileError> {
        let path = dir.0.join("1.tplog");
        std::fs::write(&path, bytes).expect("write the log file");
        let mut source = Tally::new(FileShmSource::open(&path)?);
        Ok((source.drain_to_end().entries, source))
    };
    for kind in FaultKind::ALL {
        let _guard = hang_guard(kind.name());
        match kind {
            FaultKind::TornEntry | FaultKind::WriterCrash | FaultKind::StalledWriter => {
                let log = fresh(1, 16);
                let mut writer = FaultyWriter::new(log.clone(), FaultPlan::new().with(kind, 2));
                for k in 1..=6 {
                    writer.write_live(&entry(k));
                }
                let bytes = LogFile::new(log.header(), log.drain_entries()).to_bytes();
                let (got, mut source) = drain(&bytes).expect("salvage never rejects torn bodies");
                assert_eq!(got, writer.published(), "{kind}");
                let report = source.salvage.clone();
                assert_eq!(report.kept, writer.published().len() as u64, "{kind}");
                assert_eq!(report.dropped, 1, "{kind}: drops counted exactly once");
                assert!(
                    source.pump().entries.is_empty(),
                    "{kind}: nothing re-delivered"
                );
                assert_eq!(source.salvage, report, "{kind}");
            }
            FaultKind::CorruptHeader => {
                let log = fresh(1, 16);
                for k in 1..=6 {
                    log.write_live(&entry(k));
                }
                let mut bytes = LogFile::new(log.header(), log.drain_entries()).to_bytes();
                FaultPlan::new()
                    .with(FaultKind::CorruptHeader, 0)
                    .mutilate(&mut bytes, 7);
                // Nothing under a smashed control word can be trusted:
                // salvage refuses with a typed error instead of guessing.
                assert!(
                    matches!(drain(&bytes), Err(ShmFileError::Header(_))),
                    "{kind}"
                );
                assert!(LogFile::from_bytes(&bytes).is_err(), "{kind}");
            }
            FaultKind::TruncatedFile => {
                let log = fresh(1, 16);
                for k in 1..=6 {
                    log.write_live(&entry(k));
                }
                let mut bytes = LogFile::new(log.header(), log.drain_entries()).to_bytes();
                FaultPlan::new()
                    .with(FaultKind::TruncatedFile, 0)
                    .mutilate(&mut bytes, 7);
                let (got, source) = drain(&bytes).expect("header survived the cut");
                let report = &source.salvage;
                assert!(
                    report.count(SalvageReason::TruncatedFile) >= 1,
                    "{kind}: {report:?}"
                );
                assert_eq!(got.len() as u64, report.kept, "{kind}");
                assert_eq!(report.kept + report.dropped, 6, "{kind}: all accounted");
            }
        }
    }
}

fn debug() -> DebugInfo {
    DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)])
}

fn sym() -> Symbolizer {
    Symbolizer::without_relocation(debug())
}

/// Write one `main { work }` span (4 entries, 100 ticks total, 50 in
/// `work`) through any writer-like closure.
fn write_span(mut write: impl FnMut(&LogEntry), base: u64) {
    let d = debug();
    let (a0, a1) = (d.entry_addr(0), d.entry_addr(1));
    let e = |kind, counter, addr| LogEntry {
        kind,
        counter,
        addr,
        tid: 0,
    };
    write(&e(EventKind::Call, base + 1, a0));
    write(&e(EventKind::Call, base + 10, a1));
    write(&e(EventKind::Return, base + 60, a1));
    write(&e(EventKind::Return, base + 101, a0));
}

/// The acceptance scenario: one process crashes mid-run (header smashed),
/// the registry quarantines it, and the survivors' run is untouched — with
/// the merged totals still exactly the per-pid sums.
#[test]
fn registry_with_one_crashed_source_serves_the_survivors() {
    let _guard = hang_guard("registry-crash");
    let healthy = fresh(5, 64);
    let sick = fresh(6, 64);
    let mut reg = SessionRegistry::new(LiveConfig::default()).with_watchdog(WatchdogConfig {
        timeout_pumps: 4,
        max_retries: 0,
    });
    reg.attach(
        Box::new(LiveLogSource::new(healthy.clone(), 75).with_resilience(impatient())),
        sym(),
    )
    .unwrap();
    reg.attach(
        Box::new(LiveLogSource::new(sick.clone(), 75).with_resilience(impatient())),
        sym(),
    )
    .unwrap();

    // Both processes complete one span, then pid 6 crashes: its fifth
    // write scribbles over the header.
    write_span(
        |e| {
            let _ = healthy.write_live(e);
        },
        0,
    );
    let mut crasher = FaultyWriter::new(
        sick.clone(),
        FaultPlan::new().with(FaultKind::CorruptHeader, 4),
    );
    write_span(
        |e| {
            let _ = crasher.write_live(e);
        },
        0,
    );
    reg.pump();
    assert_eq!(reg.pids(), vec![5, 6], "both alive after a healthy span");

    assert_eq!(
        crasher.write_live(&entry(500)),
        WriteOutcome::Faulted(FaultKind::CorruptHeader)
    );
    write_span(
        |e| {
            let _ = healthy.write_live(e);
        },
        1000,
    );
    reg.pump();

    // The dead source is quarantined immediately; the survivor keeps going.
    assert_eq!(reg.pids(), vec![5], "pid 6 quarantined");
    assert_eq!(reg.retired_pids(), vec![6]);
    assert!(reg
        .session_events()
        .iter()
        .any(|e| matches!(e, SessionEvent::Quarantined { pid: 6, .. })));

    write_span(
        |e| {
            let _ = healthy.write_live(e);
        },
        2000,
    );
    reg.pump();
    let run = reg.finish();

    // Survivor: 3 spans. Quarantined: the 1 span drained before the crash.
    assert_eq!(run.per_pid[&5].profile.total_ticks, 300);
    assert_eq!(run.per_pid[&6].profile.total_ticks, 100);
    let ticks_sum: u64 = run.per_pid.values().map(|s| s.profile.total_ticks).sum();
    assert_eq!(run.merged.profile.total_ticks, ticks_sum);
    let events_sum: u64 = run.per_pid.values().map(|s| s.status.events).sum();
    assert_eq!(run.merged.status.events, events_sum);
    let calls_sum: u64 = run
        .per_pid
        .values()
        .map(|s| s.profile.method("work").map_or(0, |m| m.calls))
        .sum();
    assert_eq!(run.merged.profile.method("work").unwrap().calls, calls_sum);

    // The quarantine is surfaced in the merged serialization.
    let text = run.merged.to_text();
    assert!(text.contains("[events]\n"), "{text}");
    assert!(text.contains("quarantined pid 6"), "{text}");
}

/// Regime row 1: a writer crashes mid-`Sampled` epoch — after the session
/// has degraded under an overhead budget and published a sampling regime,
/// a gated writer reserves a slot and dies before publishing it. The
/// session must still finish (bounded rotations, forced reclaim), count
/// the hole exactly once, and keep its regime accounting intact: the
/// snapshot's regime block survives the crash and discloses `estimated`
/// confidence rather than pretending the sampled window was exact.
#[test]
fn live_matrix_writer_crash_mid_sampled_epoch_salvages_cleanly() {
    let _guard = hang_guard("crash-mid-sampled");
    let log = fresh(1, 8);
    let mut session = LiveSession::from_source(
        Box::new(LiveLogSource::new(log.clone(), 100).with_resilience(impatient())),
        sym(),
        LiveConfig {
            budget: Some(OverheadBudget { pct: 5 }),
            ..LiveConfig::default()
        },
    );
    // Overload until the controller degrades and publishes `Sampled`.
    let mut base = 0u64;
    while session.regime() == Regime::Full {
        for _ in 0..4 {
            write_span(
                |e| {
                    let _ = log.write_live(e);
                },
                base,
            );
            base += 1000;
        }
        session.pump();
        assert!(base < 4_000_000, "controller never degraded");
    }
    assert!(matches!(session.regime(), Regime::Sampled(_)));

    // A writer honouring the published regime through the gate crashes on
    // its third admitted write: the slot stays reserved, unpublished.
    let mut gate = FidelityGate::new();
    let mut writer = FaultyWriter::new(
        log.clone(),
        FaultPlan::new().with(FaultKind::WriterCrash, 2),
    );
    let mut offered = 0u64;
    // Sampling suppresses most pairs, so keep offering spans until the
    // gate has admitted enough writes to trip the armed crash.
    for span in 0..64u64 {
        write_span(
            |e| {
                offered += 1;
                if gate.needs_refresh() {
                    gate.observe(log.regime_word());
                }
                if gate.admit(e.tid, e.kind) {
                    let _ = writer.write_live(e);
                }
            },
            base + span * 10_000,
        );
        if gate.admitted() >= 4 {
            break;
        }
    }
    assert!(
        matches!(gate.regime(), Regime::Sampled(_)),
        "gate saw the publication"
    );
    assert_eq!(
        gate.admitted() + gate.suppressed(),
        offered,
        "gate accounts every event"
    );
    assert!(
        gate.admitted() >= 3,
        "the crash write must have been reached"
    );

    // Finishing must terminate despite the stuck announcement, and the
    // regime block must survive the crash.
    let snap = session.finish();
    let report = session.salvage();
    assert_eq!(
        report.count(SalvageReason::UnpublishedSlot),
        1,
        "the crash hole is counted exactly once: {report:?}"
    );
    let info = snap
        .regime
        .clone()
        .expect("budgeted session keeps its regime block");
    assert_eq!(info.confidence(), "estimated");
    assert!(info.transitions >= 1);
    assert!(snap
        .events
        .iter()
        .any(|e| matches!(e, SessionEvent::RegimeChanged { .. })));
    assert!(snap.to_text().contains("[regime]\n"));
}

/// Regime row 2: a hostile producer scribbles over the regime header word
/// mid-run. Both sides must fall back to the `Full` interpretation with no
/// panic and nothing lost: the writer-side gate admits everything, the
/// drainer repairs the word at a fresh regime epoch, the incident is
/// counted as [`SalvageReason::CorruptRegimeWord`], and the session
/// surfaces a [`SessionEvent::RegimeFault`] in the `[events]` block.
#[test]
fn live_matrix_corrupt_regime_word_falls_back_to_full_and_is_reported() {
    let _guard = hang_guard("corrupt-regime-word");
    let log = fresh(1, 64);
    let mut session = LiveSession::from_source(
        Box::new(LiveLogSource::new(log.clone(), 75).with_resilience(impatient())),
        sym(),
        LiveConfig {
            budget: Some(OverheadBudget { pct: 5 }),
            ..LiveConfig::default()
        },
    );
    write_span(
        |e| {
            let _ = log.write_live(e);
        },
        0,
    );
    session.pump();

    // The scribble: not a valid publication under the check byte.
    log.shm()
        .write_u64(teeperf_core::layout::OFF_REGIME, 0xdead_beef_dead_beef)
        .expect("regime word is inside the mapped header");

    // Writer side: the gate's fallback fires and it keeps admitting.
    let mut gate = FidelityGate::new();
    assert!(gate.observe(log.regime_word()), "fallback must fire");
    assert_eq!(gate.regime(), Regime::Full);
    write_span(
        |e| {
            if gate.admit(e.tid, e.kind) {
                let _ = log.write_live(e);
            }
        },
        1000,
    );
    assert_eq!(gate.suppressed(), 0, "full fallback admits everything");
    session.pump();

    // Drain side: repaired word, counted incident, surfaced event.
    assert!(
        matches!(log.regime_observed(), (Regime::Full, _, false)),
        "the drainer re-published a valid word"
    );
    let snap = session.finish();
    let report = session.salvage();
    assert_eq!(
        report.count(SalvageReason::CorruptRegimeWord),
        1,
        "{report:?}"
    );
    let info = snap
        .regime
        .clone()
        .expect("budgeted session has a regime block");
    assert_eq!(info.faults, 1);
    assert_eq!(info.regime, Regime::Full);
    assert!(snap
        .events
        .iter()
        .any(|e| matches!(e, SessionEvent::RegimeFault { pid: 1 })));
    assert!(
        snap.to_text().contains("regime word of pid 1 corrupt"),
        "fault line missing from [events]"
    );
    // Nothing lost: both spans made it into the profile.
    assert_eq!(snap.status.events, 8);
    assert_eq!(session.dropped(), 0);
}

// ---------------------------------------------------------------------------
// File-transport half of the matrix: the same fault families injected into
// the file-backed shared logs (`teeperf_core::shm_file`) that real OS
// processes write under /dev/shm. Different medium, same verdict required:
// finished, accounted, never a panic or a hang.
// ---------------------------------------------------------------------------

struct ScratchDir(std::path::PathBuf);

fn scratch(label: &str) -> ScratchDir {
    let dir = std::env::temp_dir().join(format!("teeperf-faults-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    ScratchDir(dir)
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn file_writer(dir: &std::path::Path, pid: u64, cap: u64) -> FileShmWriter {
    FileShmWriter::create(dir, &make_header(pid, cap, true, 0, 0)).expect("create file log")
}

fn file_source(w: &FileShmWriter) -> FileShmSource {
    FileShmSource::open(w.path()).expect("open file log")
}

/// Truncation mid-drain: the reader has consumed part of the log when the
/// file is cut behind its back. The next pump clamps to what is still on
/// disk, delivers the remaining salvageable entries, charges the loss to
/// [`SalvageReason::TruncatedFile`] exactly once — and then declares the
/// source dead, because a file that lost bytes is no longer a faithful
/// log (the registry quarantines it; the salvage stays in the merge).
#[test]
fn file_matrix_truncation_mid_drain_is_clamped_and_counted() {
    let _guard = hang_guard("file-truncation");
    let dir = scratch("truncation");
    let mut w = file_writer(&dir.0, 9, 32);
    for k in 1..=6 {
        w.write(&entry(k)).unwrap();
    }
    w.flush().unwrap();
    let mut source = Tally::new(file_source(&w));
    assert_eq!(source.pump().entries.len(), 6, "first drain is clean");

    for k in 7..=10 {
        w.write(&entry(k)).unwrap();
    }
    w.flush().unwrap();
    // Cut the file so only the first 8 of the 10 reserved slots survive.
    let keep = LogEntry::offset_of(8);
    std::fs::OpenOptions::new()
        .write(true)
        .open(w.path())
        .unwrap()
        .set_len(keep)
        .unwrap();

    let mut got = Vec::new();
    for _ in 0..6 {
        got.extend(source.pump().entries);
    }
    got.extend(source.drain_to_end().entries);
    assert_eq!(got.len(), 2, "slots 7..=8 survive the cut");
    assert!(source.state.dead, "a cut file is no longer a faithful log");
    let report = &source.salvage;
    assert_eq!(report.count(SalvageReason::TruncatedFile), 2, "{report:?}");
    assert_eq!(report.kept, 8, "everything on disk was still delivered");
}

/// A torn entry (published word without its body) is dropped and counted;
/// everything after it is still delivered.
#[test]
fn file_matrix_torn_entry_is_dropped_and_rest_delivered() {
    let _guard = hang_guard("file-torn");
    let dir = scratch("torn");
    let mut w = file_writer(&dir.0, 9, 32);
    w.write(&entry(1)).unwrap();
    w.write_torn(&entry(2)).unwrap();
    w.write(&entry(3)).unwrap();
    w.write(&entry(4)).unwrap();
    w.finish().unwrap();

    let mut source = Tally::new(file_source(&w));
    let mut got = Vec::new();
    while !source.state.exhausted {
        got.extend(source.drain_to_end().entries);
    }
    assert_eq!(
        got.iter().map(|e| e.counter).collect::<Vec<_>>(),
        vec![1, 3, 4]
    );
    let report = &source.salvage;
    assert_eq!(report.count(SalvageReason::TornEntry), 1, "{report:?}");
    assert_eq!(report.kept, 3);
}

/// A tail advanced over a slot that was never written — what only a
/// broken writer leaves, since a correct one stores the slot first and a
/// crashed one leaves nothing below its tail. The slot is skipped and
/// counted, and everything published after it is delivered — bounded
/// work, no waiting.
#[test]
fn file_matrix_writer_crash_hole_is_closed_by_the_final_drain() {
    let _guard = hang_guard("file-crash-hole");
    let dir = scratch("crash");
    let mut w = file_writer(&dir.0, 9, 32);
    w.write(&entry(1)).unwrap();
    w.write(&entry(2)).unwrap();
    w.skip_slot_unwritten().unwrap();
    w.write(&entry(4)).unwrap();
    w.flush().unwrap();

    let mut source = Tally::new(file_source(&w));
    let mut got = Vec::new();
    for _ in 0..8 {
        got.extend(source.pump().entries);
    }
    got.extend(source.drain_to_end().entries);
    assert_eq!(
        got.iter().map(|e| e.counter).collect::<Vec<_>>(),
        vec![1, 2, 4],
        "published entries on both sides of the hole are delivered"
    );
    let report = &source.salvage;
    assert_eq!(
        report.count(SalvageReason::UnpublishedSlot),
        1,
        "{report:?}"
    );
    assert_eq!(report.kept, 3);
}

/// The registry acceptance scenario on the file transport: one process's
/// log header is smashed mid-run; its source goes dead, the registry
/// quarantines it on the next pump, and the survivor's run — and the
/// merged sums — are untouched.
#[test]
fn file_matrix_registry_quarantines_corrupt_file_among_survivors() {
    let _guard = hang_guard("file-registry-crash");
    let dir = scratch("registry");
    let mut healthy = file_writer(&dir.0, 5, 64);
    let mut sick = file_writer(&dir.0, 6, 64);
    write_span(
        |e| {
            healthy.write(e).unwrap();
        },
        0,
    );
    write_span(
        |e| {
            sick.write(e).unwrap();
        },
        0,
    );

    healthy.flush().unwrap();
    sick.flush().unwrap();

    let mut reg = SessionRegistry::new(LiveConfig::default());
    reg.attach(Box::new(file_source(&healthy)), sym()).unwrap();
    reg.attach(Box::new(file_source(&sick)), sym()).unwrap();
    reg.pump();
    assert_eq!(reg.pids(), vec![5, 6], "both alive after a healthy span");

    sick.corrupt_header().unwrap();
    write_span(
        |e| {
            healthy.write(e).unwrap();
        },
        1000,
    );
    healthy.flush().unwrap();
    reg.pump();
    assert_eq!(reg.pids(), vec![5], "pid 6 quarantined");
    assert_eq!(reg.retired_pids(), vec![6]);
    assert!(reg
        .session_events()
        .iter()
        .any(|e| matches!(e, SessionEvent::Quarantined { pid: 6, .. })));

    healthy.finish().unwrap();
    let run = reg.finish();
    assert_eq!(run.per_pid[&5].profile.total_ticks, 200);
    assert_eq!(run.per_pid[&6].profile.total_ticks, 100);
    let ticks_sum: u64 = run.per_pid.values().map(|s| s.profile.total_ticks).sum();
    assert_eq!(run.merged.profile.total_ticks, ticks_sum);
    assert!(run.merged.to_text().contains("quarantined pid 6"));
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash a writer at a random point in a rotating stream: the salvaged
    /// session profile must equal the profile of exactly the published
    /// entries (replayed through a healthy pipeline), with no hang and no
    /// double-counted drops. The pump cadence (at most 2 writes between
    /// pumps, 8-slot log, watermark 75%) guarantees no healthy overflow,
    /// so any nonzero `dropped_total` would be a double count.
    #[test]
    fn prop_writer_crash_salvage_equals_published_profile(
        crash_at in 0u64..40,
        pump_every in 1usize..3,
    ) {
        let _guard = hang_guard("prop-writer-crash");
        let log = fresh(1, 8);
        let mut writer = FaultyWriter::new(
            log.clone(),
            FaultPlan::new().with(FaultKind::WriterCrash, crash_at),
        );
        let mut session = LiveSession::from_source(
            Box::new(LiveLogSource::new(log.clone(), 75).with_resilience(impatient())),
            sym(),
            LiveConfig::default(),
        );
        let mut writes = 0usize;
        for span in 0..10u64 {
            let mut emit = |e: &LogEntry| {
                writer.write_live(e);
                writes += 1;
                if writes.is_multiple_of(pump_every) {
                    session.pump();
                }
            };
            write_span(&mut emit, span * 1000);
        }
        // The crash leaves a stuck announcement: finishing must still
        // terminate (bounded rotations + forced reclaim), not spin.
        let salvaged = session.finish();

        // Ground truth: the same pipeline over only the published entries,
        // written by a healthy writer to a file of their own.
        let published = writer.published().to_vec();
        let dir = scratch("truth");
        let mut healthy = file_writer(&dir.0, 1, published.len().max(1) as u64);
        for e in &published {
            healthy.write(e).unwrap();
        }
        healthy.finish().unwrap();
        let mut truth = LiveSession::from_source(
            Box::new(file_source(&healthy)),
            sym(),
            LiveConfig::default(),
        );
        while truth.pump() > 0 {}
        let truth_snap = truth.finish();

        prop_assert_eq!(&salvaged.profile, &truth_snap.profile);
        prop_assert_eq!(salvaged.status.events, published.len() as u64);
        prop_assert_eq!(session.dropped(), 0, "no overflow scheduled, so any drop is a double count");
        let report = session.salvage();
        prop_assert_eq!(report.kept, published.len() as u64);
        prop_assert_eq!(report.count(SalvageReason::UnpublishedSlot), 1,
            "the crash hole is counted exactly once");
    }
}
