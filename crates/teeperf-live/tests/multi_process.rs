//! Multi-process session tests:
//!
//! * a property test interleaving 2–4 simulated processes through one
//!   `SessionRegistry` (random per-process workloads, each written to its
//!   `.tplog` a random number of entries between pumps, so the sources
//!   advance out of lockstep) asserting the merged snapshot is exactly the
//!   sum of the per-pid snapshots;
//! * two equivalence property tests over fleets built to alias (one name
//!   at several addresses, several names at one address, raw-hex frames,
//!   colliding thread ids, orphan returns, truncated frames): the merged
//!   snapshot — folded into the registry's fleet table pump by pump —
//!   equals the per-pid snapshots merged through `merge_profiles`, field
//!   for field and byte for byte, mid-run, after a detach, after a
//!   watchdog quarantine and across a sampling-scale change in the middle
//!   of a call; and a per-pid window query equals its session's own ring
//!   span read as a merge of one process, and a fleet window query the
//!   per-pid ones merged through `merge_profiles`;
//! * golden tests pinning the single-source `Snapshot::to_text()` byte
//!   format — a profile covering one process must serialize exactly as it
//!   did before the multi-process layer existed (no `[processes]`
//!   section, same counters, same tables).

use mcvm::DebugInfo;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tee_sim::SharedMem;
use teeperf_analyzer::profile::{merged_thread_key, Anomalies};
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_analyzer::{merge_profiles, Profile, ProfileMerge};
use teeperf_core::layout::{make_header, EventKind, LogEntry, LogHeader, LOG_VERSION};
use teeperf_core::log::region_bytes;
use teeperf_core::{FileShmSource, FileShmWriter, LiveLogSource, LogFile, Regime, SharedLog};
use teeperf_flamegraph::LiveStatus;
use teeperf_live::{
    LiveConfig, LiveSession, OverheadBudget, RegimeInfo, RingConfig, SessionEvent, SessionRegistry,
    Snapshot, WatchdogConfig, WindowMeta, WindowSel,
};

fn debug() -> DebugInfo {
    DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)])
}

fn sym() -> Symbolizer {
    Symbolizer::without_relocation(debug())
}

/// A scratch directory of its own per test (removed on drop).
struct ScratchDir(std::path::PathBuf);

fn scratch(label: &str) -> ScratchDir {
    let dir = std::env::temp_dir().join(format!("teeperf-mp-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    ScratchDir(dir)
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A recording written to its `.tplog` `chunk` entries per [`Feed::step`]
/// by a live [`FileShmWriter`], which finishes with the last entry: a
/// writer that keeps pace with the registry's pumps.
struct Feed {
    writer: FileShmWriter,
    entries: std::vec::IntoIter<LogEntry>,
    chunk: usize,
    finished: bool,
}

impl Feed {
    /// The writer for `log`'s pid in `dir`, nothing written yet, and the
    /// source that drains it.
    fn new(dir: &ScratchDir, log: &LogFile, chunk: usize) -> (Feed, FileShmSource) {
        let writer = FileShmWriter::create(&dir.0, &log.header).expect("create the log");
        let source = FileShmSource::open(writer.path()).expect("open the log");
        let feed = Feed {
            writer,
            entries: log.entries.clone().into_iter(),
            chunk: chunk.max(1),
            finished: false,
        };
        (feed, source)
    }

    /// Write the next chunk and publish it, finishing the session after
    /// the last entry.
    fn step(&mut self) {
        for e in self.entries.by_ref().take(self.chunk) {
            self.writer.write(&e).expect("write an entry");
        }
        if self.entries.len() == 0 && !self.finished {
            self.writer.finish().expect("finish the log");
            self.finished = true;
        }
    }

    /// Write everything left and finish: the writer runs to its exit.
    fn flush(&mut self) {
        self.chunk = usize::MAX;
        self.step();
    }
}

/// Step every feed, then pump the registry once; returns what it drained.
fn pump_fed(registry: &mut SessionRegistry, feeds: &mut [Feed]) -> usize {
    feeds.iter_mut().for_each(Feed::step);
    registry.pump()
}

/// A single-thread recording of `main { work; work; … }` with the given
/// per-call work durations, stamped with `pid`.
fn file_for(pid: u64, works: &[u64]) -> LogFile {
    let d = debug();
    let (main_addr, work_addr) = (d.entry_addr(0), d.entry_addr(1));
    let e = |kind, counter, addr| LogEntry {
        kind,
        counter,
        addr,
        tid: 0,
    };
    let mut entries = vec![e(EventKind::Call, 1, main_addr)];
    let mut t = 1u64;
    for &w in works {
        t += 1;
        entries.push(e(EventKind::Call, t, work_addr));
        t += w;
        entries.push(e(EventKind::Return, t, work_addr));
    }
    t += 1;
    entries.push(e(EventKind::Return, t, main_addr));
    let header = LogHeader {
        active: false,
        trace_calls: true,
        trace_returns: true,
        multithread: true,
        version: LOG_VERSION,
        pid,
        size: entries.len() as u64,
        tail: entries.len() as u64,
        anchor: 0,
        shm_addr: 0,
    };
    LogFile::new(header, entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 2–4 processes with independent random workloads, each written a
    /// random chunk of entries between pumps of one registry (so the
    /// sources interleave out of lockstep): the merged snapshot's totals,
    /// call counts and event counters must equal the sums over the per-pid
    /// snapshots, and nothing may be lost or invented.
    #[test]
    fn prop_merged_equals_sum_of_per_pid(
        workloads in proptest::collection::vec(
            proptest::collection::vec(1u64..50, 1..12),
            2..=4,
        ),
        chunks in proptest::collection::vec(1usize..7, 4),
    ) {
        let dir = scratch("sum");
        let mut registry = SessionRegistry::new(LiveConfig::default());
        let mut total_entries = 0u64;
        let mut feeds = Vec::new();
        for (i, works) in workloads.iter().enumerate() {
            let pid = 100 * (i as u64 + 1);
            let file = file_for(pid, works);
            total_entries += file.entries.len() as u64;
            let (feed, source) = Feed::new(&dir, &file, chunks[i % chunks.len()]);
            registry.attach(Box::new(source), sym()).unwrap();
            feeds.push(feed);
        }

        // Interleave: each writer publishes its own chunk between pumps.
        while pump_fed(&mut registry, &mut feeds) > 0 {}
        let run = registry.finish();

        // Conservation: every written entry was merged, none dropped.
        prop_assert_eq!(run.merged.status.events, total_entries);
        prop_assert_eq!(run.merged.status.dropped, 0);
        prop_assert_eq!(run.merged.status.open_frames, 0);

        // The acceptance criterion: merged == sum of per-pid, for every
        // aggregate the snapshot exposes.
        let sum = |f: &dyn Fn(&teeperf_live::Snapshot) -> u64| -> u64 {
            run.per_pid.values().map(f).sum()
        };
        prop_assert_eq!(run.merged.status.events, sum(&|s| s.status.events));
        prop_assert_eq!(run.merged.status.threads, sum(&|s| s.status.threads));
        prop_assert_eq!(
            run.merged.profile.total_ticks,
            sum(&|s| s.profile.total_ticks)
        );
        for name in ["main", "work"] {
            let merged = run.merged.profile.method(name).unwrap();
            prop_assert_eq!(
                merged.calls,
                sum(&|s| s.profile.method(name).unwrap().calls),
                "{} calls", name
            );
            prop_assert_eq!(
                merged.inclusive,
                sum(&|s| s.profile.method(name).unwrap().inclusive),
                "{} inclusive", name
            );
            prop_assert_eq!(
                merged.exclusive,
                sum(&|s| s.profile.method(name).unwrap().exclusive),
                "{} exclusive", name
            );
        }
        // Folded ticks are conserved through the per-process merge.
        let folded_total: u64 = run.merged.profile.folded.iter().map(|(_, t)| t).sum();
        let folded_sum: u64 = run
            .per_pid
            .values()
            .flat_map(|s| s.profile.folded.iter().map(|(_, t)| *t))
            .sum();
        prop_assert_eq!(folded_total, folded_sum);

        // The merged profile knows exactly which processes fed it.
        let expect: BTreeSet<u64> =
            (1..=workloads.len() as u64).map(|i| 100 * i).collect();
        prop_assert_eq!(run.merged.profile.pids, expect);
    }
}

/// The exact serialized form of a single-source snapshot, pinned byte for
/// byte: the multi-process layer must not change it (no `[processes]`
/// section for a single pid, identical counters and tables).
const GOLDEN_REPLAY: &str = "[live]\n\
epoch 0\n\
events 4\n\
dropped 0\n\
threads 1\n\
open 0\n\
total_ticks 100\n\
[methods]\n\
main 1 100 50\n\
work 1 50 50\n\
[folded]\n\
main 50\n\
main;work 50\n";

fn golden_file() -> LogFile {
    let d = debug();
    let (main_addr, work_addr) = (d.entry_addr(0), d.entry_addr(1));
    let e = |kind, counter, addr| LogEntry {
        kind,
        counter,
        addr,
        tid: 0,
    };
    let entries = vec![
        e(EventKind::Call, 1, main_addr),
        e(EventKind::Call, 10, work_addr),
        e(EventKind::Return, 60, work_addr),
        e(EventKind::Return, 101, main_addr),
    ];
    LogFile::new(
        LogHeader {
            active: false,
            trace_calls: true,
            trace_returns: true,
            multithread: true,
            version: LOG_VERSION,
            pid: 31,
            size: 4,
            tail: 4,
            anchor: 0,
            shm_addr: 0,
        },
        entries,
    )
}

#[test]
fn single_source_snapshot_text_is_byte_identical() {
    let dir = scratch("golden");
    let path = dir.0.join("31.tplog");
    golden_file().save(&path).unwrap();
    let source = FileShmSource::open(&path).unwrap();
    let mut session = LiveSession::from_source(Box::new(source), sym(), LiveConfig::default());
    let snap = session.finish();
    assert_eq!(snap.profile.pids, BTreeSet::from([31]));
    assert_eq!(snap.to_text(), GOLDEN_REPLAY);
}

#[test]
fn live_log_snapshot_matches_replay_except_epoch_accounting() {
    use std::sync::Arc;
    use tee_sim::SharedMem;
    use teeperf_core::log::{make_header, region_bytes};
    use teeperf_core::SharedLog;

    let shm = Arc::new(SharedMem::new(region_bytes(16)));
    let log = SharedLog::init(shm, &make_header(31, 16, true, 0, tee_sim::SHM_BASE));
    for e in &golden_file().entries {
        log.write_live(e);
    }
    let source = Box::new(teeperf_core::LiveLogSource::new(log, 75));
    let mut session = LiveSession::from_source(source, sym(), LiveConfig::default());
    let snap = session.finish();
    // A live log pays one extra (empty) rotation when the session closes,
    // a file never rotates; everything below the epoch counter is
    // byte-identical to the file's.
    let live_text = snap.to_text();
    let replay_tail = GOLDEN_REPLAY.split_once('\n').unwrap().1;
    let live_tail = live_text.split_once('\n').unwrap().1;
    assert_eq!(
        live_tail.split_once('\n').unwrap().1,
        replay_tail.split_once('\n').unwrap().1
    );
    assert!(live_text.starts_with("[live]\nepoch "));
    assert!(!live_text.contains("[processes]"));
}

// ---------------------------------------------------------------------
// Equivalence: the fleet views against per-session profiles merged
// through `merge_profiles`.
// ---------------------------------------------------------------------

/// The function table every generated process links; each process loads
/// it at its own slide, in steps of the function alignment, so one name
/// sits at different addresses in different processes and one address
/// names different functions in different processes.
fn fleet_debug() -> DebugInfo {
    DebugInfo::from_functions([
        ("main", 4, 1),
        ("work", 4, 5),
        ("leaf", 4, 9),
        ("util", 4, 13),
    ])
}

/// Distance between two function entries of [`fleet_debug`].
const FN_STRIDE: u64 = 64;

/// An address no debug info covers at any slide: it renders as raw hex,
/// the same `0x10` in every process.
const RAW_ADDR: u64 = 0x10;

/// One generated step of a process's stream: `(tid, choice, alias, dt)`.
/// `choice` 0..=3 calls that function (at its entry, or one instruction
/// in when `alias` — a second address of the same name), 4 calls
/// [`RAW_ADDR`], 5 returns past the top frame (the skipped frame closes
/// as truncated), anything else returns from the top frame (an orphan
/// return on an empty stack).
type Step = (u8, u8, bool, u64);

fn steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..2, 0u8..9, any::<bool>(), 1u64..12), 0..max)
}

/// A recording of process `pid`, loaded `slide` bytes above its static
/// layout. Every stream opens on thread 0 with an orphan return and a
/// frame that a return skips (truncated), then follows `steps` over
/// threads 0 and 1 — the same two thread ids in every process.
fn fleet_file(pid: u64, slide: u64, steps: &[Step]) -> LogFile {
    let d = fleet_debug();
    let entry = |f: u16| d.entry_addr(f) + slide;
    let mut t = 0u64;
    let mut entries = Vec::new();
    let mut push = |kind, addr, tid, dt| {
        t += dt;
        entries.push(LogEntry {
            kind,
            counter: t,
            addr,
            tid,
        });
    };
    push(EventKind::Return, entry(1), 0, 1);
    push(EventKind::Call, entry(0), 0, 1);
    push(EventKind::Call, entry(1), 0, 2);
    push(EventKind::Return, entry(0), 0, 3);
    let mut stacks: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    for &(tid, choice, alias, dt) in steps {
        let stack = &mut stacks[usize::from(tid)];
        let tid = u64::from(tid);
        match choice {
            0..=4 if stack.len() < 4 => {
                let addr = match choice {
                    4 => RAW_ADDR,
                    f => entry(u16::from(f)) + if alias { 4 } else { 0 },
                };
                stack.push(addr);
                push(EventKind::Call, addr, tid, dt);
            }
            5 if stack.len() >= 2 => {
                let addr = stack[stack.len() - 2];
                let pos = stack.iter().rposition(|a| *a == addr).expect("just read");
                stack.truncate(pos);
                push(EventKind::Return, addr, tid, dt);
            }
            _ => match stack.pop() {
                Some(addr) => push(EventKind::Return, addr, tid, dt),
                None => push(EventKind::Return, entry(2), tid, dt),
            },
        }
    }
    let header = LogHeader {
        active: false,
        trace_calls: true,
        trace_returns: true,
        multithread: true,
        version: LOG_VERSION,
        pid,
        size: entries.len() as u64,
        tail: entries.len() as u64,
        anchor: entry(0),
        shm_addr: 0,
    };
    LogFile::new(header, entries)
}

/// Attach one process per generated stream, fed to its `.tplog` in
/// `dir`: pids 100, 200, …, slides 0, 64, 128, ….
fn attach_fleet(
    registry: &mut SessionRegistry,
    dir: &ScratchDir,
    fleet: &[Vec<Step>],
    chunks: &[usize],
) -> Vec<Feed> {
    let mut feeds = Vec::new();
    for (i, steps) in fleet.iter().enumerate() {
        let file = fleet_file(100 * (i as u64 + 1), FN_STRIDE * i as u64, steps);
        let (feed, source) = Feed::new(dir, &file, chunks[i % chunks.len()]);
        let symbolizer = Symbolizer::new(fleet_debug(), &file.header);
        registry.attach(Box::new(source), symbolizer).unwrap();
        feeds.push(feed);
    }
    feeds
}

/// A live log of process `pid` with room for `capacity` entries, its
/// binary loaded `slide` bytes up, and that process's symbolizer.
fn live_log(pid: u64, capacity: u64, slide: u64) -> (SharedLog, Symbolizer) {
    let header = make_header(pid, capacity, true, fleet_debug().entry_addr(0) + slide, 0);
    let shm = Arc::new(SharedMem::new(region_bytes(capacity)));
    let log = SharedLog::init(shm, &header);
    (log, Symbolizer::new(fleet_debug(), &header))
}

/// Write `(kind, counter, function)` events of thread 0 to `log`, the
/// functions at `slide`.
fn write(log: &SharedLog, slide: u64, events: &[(EventKind, u64, u16)]) {
    for &(kind, counter, f) in events {
        log.write_live(&LogEntry {
            kind,
            counter,
            addr: fleet_debug().entry_addr(f) + slide,
            tid: 0,
        });
    }
}

/// The merged snapshot as its contract states it: per-pid profiles through
/// [`merge_profiles`], status counters summed, the registry's lifecycle
/// events followed by each session's own in ascending pid order, and the
/// regime block of the most degraded member with counters summed and the
/// tightest budget.
fn merge_of_per_pid(per_pid: &BTreeMap<u64, Snapshot>, lifecycle: &[SessionEvent]) -> Snapshot {
    let parts: Vec<(u64, &Profile)> = per_pid.iter().map(|(pid, s)| (*pid, &s.profile)).collect();
    let mut status = LiveStatus::default();
    let mut events = lifecycle.to_vec();
    let mut regime: Option<RegimeInfo> = None;
    for s in per_pid.values() {
        status.epoch += s.status.epoch;
        status.events += s.status.events;
        status.dropped += s.status.dropped;
        status.threads += s.status.threads;
        status.open_frames += s.status.open_frames;
        events.extend(s.events.iter().cloned());
        regime = match (regime, &s.regime) {
            (None, r) => r.clone(),
            (m, None) => m,
            (Some(m), Some(r)) => Some(RegimeInfo {
                regime: m.regime.max(r.regime),
                budget_pct: match (m.budget_pct, r.budget_pct) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                },
                transitions: m.transitions + r.transitions,
                estimated_events: m.estimated_events + r.estimated_events,
                faults: m.faults + r.faults,
            }),
        };
    }
    Snapshot {
        status,
        profile: merge_profiles(&parts),
        events,
        regime,
    }
}

/// `registry.merged_snapshot()` against [`merge_of_per_pid`] over the
/// `snapshot_pid` of every process of the run — the `detached` ones
/// answering with what `detach` returned — field for field and byte for
/// byte, and `registry.merged_text()`, the text written from the fleet
/// table, against the same bytes, twice.
fn check_merged(
    registry: &SessionRegistry,
    detached: &BTreeMap<u64, Snapshot>,
) -> Result<(), TestCaseError> {
    // A retired pid answers from its finished session exactly what
    // `detach` returned.
    for (pid, gone) in detached {
        prop_assert_eq!(registry.snapshot_pid(*pid), Some(gone.clone()));
    }
    let mut per_pid = detached.clone();
    for pid in registry.pids().into_iter().chain(registry.retired_pids()) {
        let frozen = registry.snapshot_pid(pid).expect("part of the run");
        per_pid.entry(pid).or_insert(frozen);
    }
    let want = merge_of_per_pid(&per_pid, registry.session_events());
    let got = registry.merged_snapshot();
    prop_assert_eq!(&got.profile.methods, &want.profile.methods);
    prop_assert_eq!(&got.profile.folded, &want.profile.folded);
    prop_assert_eq!(&got.profile.symbols, &want.profile.symbols);
    prop_assert_eq!(&got.profile.folded_ids, &want.profile.folded_ids);
    prop_assert_eq!(&got.profile.caller_edges, &want.profile.caller_edges);
    prop_assert_eq!(&got.profile.threads, &want.profile.threads);
    prop_assert_eq!(got.profile.anomalies, want.profile.anomalies);
    prop_assert_eq!(&got.profile.pids, &want.profile.pids);
    prop_assert_eq!(&got.status, &want.status);
    prop_assert_eq!(&got.events, &want.events);
    prop_assert_eq!(&got.regime, &want.regime);
    prop_assert_eq!(got.to_text(), want.to_text());
    // The served bytes, written from the fleet table — and read again with
    // no pump between, the same bytes: reading takes nothing out of it.
    let text = registry.merged_text();
    prop_assert_eq!(&text, &want.to_text());
    prop_assert_eq!(registry.merged_text(), text);
    // Every field at once, so one added later is compared too.
    prop_assert_eq!(&got, &want);
    // And against the per-pid rows directly, not through the shared merge:
    // one row per name, at the smallest address, counting every call.
    for m in &got.profile.methods {
        let rows = || {
            per_pid
                .values()
                .flat_map(|s| &s.profile.methods)
                .filter(|row| row.name == m.name)
        };
        prop_assert_eq!(
            Some(m.addr),
            rows().map(|row| row.addr).min(),
            "{}",
            &m.name
        );
        prop_assert_eq!(
            m.calls,
            rows().map(|row| row.calls).sum::<u64>(),
            "{}",
            &m.name
        );
    }
    Ok(())
}

/// `registry.span_query(sel, …)` per pid against a reference read
/// independently of the registry's merge — the session's own ring summed
/// by `RetentionRing::span` and read as a merge of one process — whose
/// metadata is also the span the session's own listing selects; and
/// fleet-wide against those per-pid spans of every session of the run,
/// attached or retired, merged through `merge_profiles`.
fn check_spans(registry: &SessionRegistry, sel: &WindowSel) -> Result<(), TestCaseError> {
    let mut spans: Vec<(u64, WindowMeta, Profile)> = Vec::new();
    for pid in registry.run_pids() {
        let session = registry.session(pid).expect("every pid of the run");
        let (rolling, symbolizer) = session.profile_parts();
        let ring = rolling.ring().expect("retention is on");
        let own = ring.span(sel).map(|(meta, agg)| {
            let span = ProfileMerge::one_process(pid, &agg, rolling.paths(), symbolizer);
            (meta, span)
        });
        let listed = selected(&session.windows().expect("retention is on").windows, sel);
        match (registry.span_query(sel, Some(pid)), own) {
            (None, None) => prop_assert!(listed.is_none(), "pid {} {:?}", pid, sel),
            (Some((metas, profile)), Some((meta, span))) => {
                prop_assert_eq!(Some(&meta), listed.as_ref());
                prop_assert_eq!(metas, vec![(pid, meta.clone())]);
                prop_assert_eq!(&profile, &span);
                spans.push((pid, meta, profile));
            }
            (got, _) => prop_assert!(false, "pid {} {:?}: {:?}", pid, sel, got.map(|g| g.0)),
        }
    }
    let parts: Vec<(u64, &Profile)> = spans.iter().map(|(pid, _, p)| (*pid, p)).collect();
    match registry.span_query(sel, None) {
        None => prop_assert!(spans.is_empty(), "{:?}: a retained span went missing", sel),
        Some((metas, profile)) => {
            let want: Vec<(u64, WindowMeta)> =
                spans.iter().map(|(pid, m, _)| (*pid, m.clone())).collect();
            prop_assert_eq!(metas, want);
            prop_assert_eq!(profile.anomalies, Anomalies::default());
            prop_assert_eq!(profile, merge_profiles(&parts));
        }
    }
    Ok(())
}

/// The span `sel` picks out of a retained-window listing (oldest first):
/// every slot, the newest `n`, or those inside the index range — `None`
/// when it picks none.
fn selected(windows: &[WindowMeta], sel: &WindowSel) -> Option<WindowMeta> {
    let picked: Vec<&WindowMeta> = match sel {
        WindowSel::All => windows.iter().collect(),
        WindowSel::Last(n) => windows.iter().rev().take(*n as usize).rev().collect(),
        WindowSel::Range(a, b) => windows
            .iter()
            .filter(|w| *a <= w.first && w.last <= *b)
            .collect(),
    };
    let (head, tail) = (picked.first()?, picked.last()?);
    Some(WindowMeta {
        first: head.first,
        last: tail.last,
        start_tick: head.start_tick,
        end_tick: tail.end_tick,
        calls: picked.iter().map(|w| w.calls).sum(),
        estimated_calls: picked.iter().map(|w| w.estimated_calls).sum(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 2–4 aliasing processes, fed out of lockstep, with or without
    /// an overhead budget (a budgeted session carries a `[regime]` block),
    /// beside a live process that falls silent with two frames open (the
    /// watchdog quarantines it, and its finish closes them) and, under a
    /// budget, a live process that overloads its log until its controller
    /// samples 1-in-2 while `main` is open: after every other pump, after
    /// a hot detach, at the end of the streams and after `finish`, the
    /// merged snapshot is the per-pid snapshots merged through
    /// `merge_profiles`.
    #[test]
    fn prop_merged_snapshot_is_the_merge_of_the_per_pid_snapshots(
        fleet in proptest::collection::vec(steps(60), 2..=4),
        chunks in proptest::collection::vec(1usize..9, 4),
        detach_after in 1usize..12,
        budgeted in any::<bool>(),
    ) {
        use EventKind::{Call, Return};
        let mut registry = SessionRegistry::new(LiveConfig {
            budget: budgeted.then_some(OverheadBudget { pct: 5 }),
            ..LiveConfig::default()
        })
        .with_watchdog(WatchdogConfig { timeout_pumps: 2, max_retries: 0 });
        let dir = scratch("merge");
        let mut feeds = attach_fleet(&mut registry, &dir, &fleet, &chunks);
        let silent_slide = 5 * FN_STRIDE;
        let (silent, symbolizer) = live_log(900, 16, silent_slide);
        write(&silent, silent_slide, &[(Call, 1, 0), (Call, 2, 1), (Return, 5, 1), (Call, 6, 1)]);
        registry.attach(Box::new(LiveLogSource::new(silent, 75)), symbolizer).unwrap();
        let hot_slide = 6 * FN_STRIDE;
        let (hot, symbolizer) = live_log(800, 4, hot_slide);
        if budgeted {
            write(&hot, hot_slide, &[(Call, 1, 0)]);
            registry.attach(Box::new(LiveLogSource::new(hot.clone(), 75)), symbolizer).unwrap();
        }
        let mut detached: BTreeMap<u64, Snapshot> = BTreeMap::new();
        let (mut pumps, mut t) = (0, 10);
        loop {
            match registry.session(800).map(LiveSession::regime) {
                Some(Regime::Full) => {
                    for _ in 0..16 {
                        write(&hot, hot_slide, &[(Call, t, 1), (Return, t + 3, 1)]);
                        t += 10;
                    }
                }
                Some(_) if t > 0 => {
                    write(&hot, hot_slide, &[(Return, t, 0)]);
                    t = 0;
                }
                _ => {}
            }
            let drained = pump_fed(&mut registry, &mut feeds);
            pumps += 1;
            if pumps == detach_after {
                // pid 100's writer exits first, so the detach's final
                // drain takes the rest of its stream.
                feeds[0].flush();
                detached.insert(100, registry.detach(100).expect("pid 100 is attached"));
                check_merged(&registry, &detached)?;
            }
            if pumps % 2 == 0 {
                check_merged(&registry, &detached)?;
            }
            let live_left = registry.pids().iter().any(|pid| *pid >= 800);
            if drained == 0 && pumps > detach_after && !live_left {
                break;
            }
        }
        check_merged(&registry, &detached)?;
        let lifecycle = registry.session_events().to_vec();
        let run = registry.finish();
        prop_assert_eq!(&run.per_pid[&100], &detached[&100]);
        prop_assert_eq!(&run.merged, &merge_of_per_pid(&run.per_pid, &lifecycle));
        // The silent process was quarantined, and the frames it left open
        // were closed on the way out.
        prop_assert!(lifecycle.iter().any(|e| matches!(e, SessionEvent::Quarantined { pid: 900, .. })));
        prop_assert_eq!(run.per_pid[&900].profile.anomalies.truncated_frames, 2);
        // `main` of the hot process opened at full fidelity and closed
        // sampled 1-in-2: it stands for two calls.
        if budgeted {
            prop_assert_eq!(run.per_pid[&800].profile.method("main").map(|m| m.calls), Some(2));
        }
        // The shapes the name-keyed merge exists for did occur.
        let work = run.merged.profile.method("work").expect("every stream calls work");
        prop_assert!(work.threads.contains(&merged_thread_key(100, 0)));
        prop_assert!(work.threads.contains(&merged_thread_key(200, 0)));
        prop_assert!(run.merged.profile.anomalies.orphan_returns >= fleet.len() as u64);
        prop_assert!(run.merged.profile.anomalies.truncated_frames >= fleet.len() as u64);
        prop_assert!(run.merged.profile.caller_edges.iter().any(|e| e.caller == "<root>"));
    }

    /// The retained-window views over the same kind of fleet: whatever the
    /// selection, `span_query` per pid is the session's own ring span read
    /// alone, and fleet-wide the per-pid spans merged through
    /// `merge_profiles` — mid-run, right
    /// after a hot detach (the retired session's windows stay in), and
    /// after `finish` has closed the open frames — and a span reports zero
    /// anomalies while the sessions it came from report theirs.
    #[test]
    fn prop_span_query_is_the_merge_of_the_per_session_spans(
        fleet in proptest::collection::vec(steps(60), 2..=4),
        chunks in proptest::collection::vec(1usize..9, 4),
        ring in (4u64..40, 1usize..6, 1u64..4),
        last in 1u64..5,
        range in (0u64..12, 0u64..12),
        detach_after in 1usize..12,
    ) {
        let mut registry = SessionRegistry::new(LiveConfig {
            retention: Some(RingConfig {
                interval: ring.0,
                capacity: ring.1,
                max_width: ring.2,
            }),
            ..LiveConfig::default()
        });
        let dir = scratch("spans");
        let mut feeds = attach_fleet(&mut registry, &dir, &fleet, &chunks);
        let sels = [
            WindowSel::All,
            WindowSel::Last(last),
            WindowSel::Range(range.0.min(range.1), range.0.max(range.1)),
        ];
        let mut detached: BTreeMap<u64, Snapshot> = BTreeMap::new();
        let mut pumps = 0;
        loop {
            let drained = pump_fed(&mut registry, &mut feeds);
            pumps += 1;
            if pumps == detach_after {
                feeds[0].flush();
                detached.insert(100, registry.detach(100).expect("pid 100 is attached"));
            }
            if pumps % 2 == 0 || pumps == detach_after {
                for sel in &sels {
                    check_spans(&registry, sel)?;
                }
            }
            if drained == 0 && pumps >= detach_after {
                break;
            }
        }
        registry.finish();
        for sel in &sels {
            check_spans(&registry, sel)?;
        }
        check_merged(&registry, &detached)?;
        for pid in registry.run_pids() {
            let anomalies = registry.snapshot_pid(pid).expect("every pid of the run").profile.anomalies;
            prop_assert!(anomalies.orphan_returns >= 1, "pid {}: {:?}", pid, anomalies);
            prop_assert!(anomalies.truncated_frames >= 1, "pid {}: {:?}", pid, anomalies);
        }
    }
}
