//! The three fleet workloads: one writer thread and one poller thread in
//! this process against a real `teeperfd` child at its default cadence.
//!
//! The writer owns the `FileShmWriter`s and stamps `(cumulative events,
//! time)` after every burst; the poller is the `top` client as a library
//! (`http::get` -> `summary_from_text` -> `methods_from_text`). Event `K`
//! is *visible* at the receive time of the first poll whose parsed
//! `[live] events` is at least `K`.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mcvm::DebugInfo;
use teeperf_analyzer::{profile, Symbolizer};
use teeperf_core::layout::LogEntry;
use teeperf_core::log::make_header;
use teeperf_core::shm_file::{publish_sidecar, SYM_EXT};
use teeperf_core::FileShmWriter;
use teeperf_daemon::http;
use teeperf_live::Snapshot;

use crate::daemon::{DaemonChild, ExitSummary, ScratchDir};
use crate::gen::{session_entries, session_seed, SessionGen, Tree};
use crate::json::Json;
use crate::other;
use crate::report::{Measured, WorkloadResult};
use crate::stats;

/// Sessions register under pids no real process has, so the daemon's
/// liveness probe (switched off) would have nothing to find.
pub const FIRST_PID: u64 = 900_000;

const QUERY_PATH: &str = "/query?windows=last:5&top=10";
const HTTP_TIMEOUT: Duration = Duration::from_secs(5);
/// How long after the writer stops an event may take to become visible
/// before it counts as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
const SETUP_DEADLINE: Duration = Duration::from_secs(60);

/// How the poller spaces its requests.
#[derive(Debug, Clone, Copy)]
pub enum PollMode {
    /// On a fixed schedule, whatever the replies take.
    Scheduled(Duration),
    /// Closed loop: the next request `think` after the previous reply;
    /// every `query_every`-th request is a window query.
    Closed {
        think: Duration,
        query_every: Option<u32>,
    },
}

/// The fixed shape of one fleet workload.
#[derive(Debug, Clone)]
pub struct FleetShape {
    pub workload: &'static str,
    pub tree: Tree,
    /// Sessions registered during set-up and written round-robin.
    pub sessions: u64,
    /// Events written to each session during set-up.
    pub prefill: u64,
    /// Events after which the writer finishes a session and registers the
    /// next one (`None`: sessions live for the whole run).
    pub rotate_after: Option<u64>,
    /// Events offered per second on a fixed schedule (`None`: closed loop
    /// at full speed).
    pub rate: Option<u64>,
    pub burst: u64,
    pub poll: PollMode,
    pub daemon_flags: &'static [&'static str],
}

pub fn ingest_flood() -> FleetShape {
    FleetShape {
        workload: "ingest_flood",
        tree: Tree { fan: 1, depth: 2 },
        sessions: 1,
        prefill: 0,
        rotate_after: Some(1 << 20),
        rate: None,
        burst: 1024,
        poll: PollMode::Scheduled(Duration::from_millis(50)),
        daemon_flags: &[],
    }
}

pub fn paced_visible() -> FleetShape {
    FleetShape {
        workload: "paced_visible",
        tree: Tree { fan: 4, depth: 4 },
        sessions: 1,
        prefill: 0,
        rotate_after: None,
        rate: Some(50_000),
        burst: 64,
        poll: PollMode::Closed {
            think: Duration::from_millis(5),
            query_every: Some(10),
        },
        daemon_flags: &["--window-interval", "20000", "--retain", "64"],
    }
}

pub fn fanout_poll() -> FleetShape {
    FleetShape {
        workload: "fanout_poll",
        tree: Tree { fan: 4, depth: 4 },
        sessions: 32,
        prefill: 40_000,
        rotate_after: None,
        rate: Some(5_000),
        // Small bursts, so that a segment holds the thousand visibility
        // samples its 99th percentile needs.
        burst: 8,
        // As good as no think time against a 75 ms reply, but enough for
        // the daemon to leave its accept loop before the next request. With
        // none, a poller that is scheduled onto the daemon's CPU when the
        // reply's last byte wakes it parses while the daemon waits, and its
        // next request is already pending when the daemon asks again: the
        // accept loop then serves two polls per pump, the drain starves
        // (visibility 115 -> 155 ms), and which of the two regimes a run
        // falls into is the scheduler's choice (3 runs of 10).
        poll: PollMode::Closed {
            think: Duration::from_millis(1),
            query_every: None,
        },
        daemon_flags: &[],
    }
}

/// The fleet workload called `name`, if it is one.
pub fn shape_of(name: &str) -> Option<FleetShape> {
    [ingest_flood(), paced_visible(), fanout_poll()]
        .into_iter()
        .find(|shape| shape.workload == name)
}

/// How long a run warms up and measures, and in how many segments.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub measure: Duration,
    pub segments: usize,
    /// Set-ups timed per run (their median is `setup_s`).
    pub setups: usize,
}

/// One session: its generator, its log, and what the oracle needs to
/// regenerate its events.
struct Session {
    pid: u64,
    seed: u64,
    gen: SessionGen,
    log: FileShmWriter,
}

/// What stays fixed over one run of a workload.
struct Fleet<'a> {
    shape: &'a FleetShape,
    plan: &'a Plan,
    seed: u64,
    /// The registration directory.
    dir: &'a Path,
    /// The tree's symbols: the sidecar of every session.
    debug: DebugInfo,
    /// Entry address of every node, indexed by node id.
    addrs: Vec<u64>,
}

impl<'a> Fleet<'a> {
    fn new(shape: &'a FleetShape, plan: &'a Plan, seed: u64, dir: &'a Path) -> Fleet<'a> {
        let debug = shape.tree.debug_info();
        Fleet {
            shape,
            plan,
            seed,
            dir,
            addrs: shape.tree.addrs(&debug),
            debug,
        }
    }

    /// Log capacity per session: sized for the run, so nothing is dropped.
    fn capacity(&self) -> u64 {
        match (self.shape.rotate_after, self.shape.rate) {
            (Some(events), _) => events,
            (None, rate) => {
                let secs = (self.plan.warmup + self.plan.measure).as_secs() + 3;
                self.shape.prefill + rate.unwrap_or(0) * secs + 64
            }
        }
    }

    /// Register session `index`: sidecar first (the daemon reads it when
    /// it attaches the log), then the log.
    fn open_session(&self, index: u64) -> io::Result<Session> {
        let pid = FIRST_PID + index;
        let seed = session_seed(self.seed, index);
        publish_sidecar(self.dir, pid, SYM_EXT, &self.debug.to_text())?;
        let header = make_header(pid, self.capacity(), false, 0, 0);
        let log = FileShmWriter::create(self.dir, &header).map_err(other)?;
        let gen = SessionGen::new(self.shape.tree, seed);
        Ok(Session {
            pid,
            seed,
            gen: match self.shape.rotate_after {
                Some(events) => gen.with_target(events),
                None => gen,
            },
            log,
        })
    }
}

/// Everything set-up leaves behind.
struct Rig {
    daemon: DaemonChild,
    sessions: Vec<Session>,
    /// Events written so far (the prefill).
    written: u64,
}

/// Sessions attached and events ingested so far, from one `/metrics`
/// request. One request, because each costs a daemon loop: two per check
/// made set-up time depend on which of them met the attaching scan.
fn attached_and_ingested(addr: &str) -> io::Result<(u64, u64)> {
    let (_, body) = http::get(addr, "/metrics", HTTP_TIMEOUT)?;
    let gauge = |name: &str| {
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .ok_or_else(|| other(format!("no {name} in /metrics")))
    };
    Ok((
        gauge("teeperf_attached_total")?,
        gauge("teeperf_events_total")?,
    ))
}

/// Workload start -> daemon spawned, sessions registered, attached and
/// their prefill visible. Returns the rig and how long that took.
fn set_up(fleet: &Fleet, teeperfd: &Path) -> io::Result<(Rig, Duration)> {
    let shape = fleet.shape;
    let started = Instant::now();
    let daemon = DaemonChild::spawn(teeperfd, fleet.dir, shape.daemon_flags)?;
    // A reply means the loop is running and its first directory scan is
    // behind it: every session then waits for a later scan, as a process
    // that starts under a running daemon does, and set-up time does not
    // depend on who wins the race to the first scan.
    http::get(daemon.addr(), "/healthz", HTTP_TIMEOUT)?;
    let mut sessions = Vec::new();
    let mut written = 0;
    for index in 0..shape.sessions {
        let mut s = fleet.open_session(index)?;
        for _ in 0..shape.prefill {
            let e = s
                .gen
                .next(&fleet.addrs)
                .expect("an open-ended walk never ends");
            s.log
                .write(&e)?
                .ok_or_else(|| other("prefill overflowed the log"))?;
        }
        written += shape.prefill;
        sessions.push(s);
    }
    loop {
        let (attached, ingested) = attached_and_ingested(daemon.addr())?;
        if attached >= shape.sessions && ingested >= written {
            break;
        }
        if started.elapsed() > SETUP_DEADLINE {
            return Err(other("sessions did not become visible during set-up"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let took = started.elapsed();
    Ok((
        Rig {
            daemon,
            sessions,
            written,
        },
        took,
    ))
}

/// One burst as the writer saw it.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    /// Events written up to and including this burst.
    cum: u64,
    events: u64,
    /// When the burst counts as written: when it was due (open loop) or
    /// when its last write returned (closed loop).
    at: Instant,
    /// Wall spent inside `FileShmWriter::write`.
    write_ns: u64,
    /// How far behind its schedule the burst started.
    late: Duration,
}

/// What the oracle needs to regenerate one session.
#[derive(Debug, Clone, Copy)]
struct SessionRecord {
    pid: u64,
    seed: u64,
    walked: u64,
    events: u64,
}

struct WriterLog {
    stamps: Vec<Stamp>,
    sessions: Vec<SessionRecord>,
}

/// Shared between the two threads: a statistic and a flag, neither of
/// which publishes other data.
#[derive(Default)]
struct Shared {
    written: AtomicU64,
    writer_done: AtomicBool,
}

fn record_of(s: &Session) -> SessionRecord {
    SessionRecord {
        pid: s.pid,
        seed: s.seed,
        walked: s.gen.walked(),
        events: s.gen.emitted(),
    }
}

/// The writer thread: bursts until `stop_at`, then unwinds and finishes
/// every session. `cum` is the events written before it starts.
fn write_load(
    fleet: &Fleet,
    mut sessions: Vec<Session>,
    mut cum: u64,
    start: Instant,
    stop_at: Instant,
    shared: &Shared,
) -> io::Result<WriterLog> {
    let shape = fleet.shape;
    let mut stamps = Vec::new();
    let mut finished = Vec::new();
    let mut buf: Vec<LogEntry> = Vec::with_capacity(shape.burst as usize);
    let mut next_index = shape.sessions;
    let mut burst_no: u64 = 0;
    let mut turn = 0usize;
    let mut closing = false;
    loop {
        if !closing && Instant::now() >= stop_at {
            // Past the deadline only the unwinding returns are written.
            closing = true;
            for s in &mut sessions {
                s.gen.close();
            }
        }
        let due = match shape.rate {
            Some(rate) if !closing => {
                let due =
                    start + Duration::from_nanos(burst_no * shape.burst * 1_000_000_000 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                Some(due)
            }
            _ => None,
        };
        burst_no += 1;
        let at = turn % sessions.len();
        turn += 1;
        let s = &mut sessions[at];
        buf.clear();
        while (buf.len() as u64) < shape.burst {
            match s.gen.next(&fleet.addrs) {
                Some(e) => buf.push(e),
                None => break,
            }
        }
        let began = Instant::now();
        for e in &buf {
            s.log
                .write(e)?
                .ok_or_else(|| other("the log overflowed: it is sized for the run"))?;
        }
        let ended = Instant::now();
        if !buf.is_empty() {
            cum += buf.len() as u64;
            shared.written.store(cum, Ordering::Relaxed);
            stamps.push(Stamp {
                cum,
                events: buf.len() as u64,
                at: due.unwrap_or(ended),
                write_ns: (ended - began).as_nanos() as u64,
                late: due.map_or(Duration::ZERO, |d| began.saturating_duration_since(d)),
            });
        }
        if (buf.len() as u64) < shape.burst {
            // The session is over: finish it, and unless the run is
            // closing, register its successor.
            let mut done = sessions.swap_remove(at);
            done.log.finish()?;
            finished.push(record_of(&done));
            if !closing && shape.rotate_after.is_some() {
                sessions.push(fleet.open_session(next_index)?);
                next_index += 1;
            }
            if sessions.is_empty() {
                break;
            }
        }
    }
    shared.writer_done.store(true, Ordering::Release);
    Ok(WriterLog {
        stamps,
        sessions: finished,
    })
}

/// One request as the poller saw it.
#[derive(Debug, Clone)]
struct Poll {
    sent: Instant,
    /// After both parsers returned.
    recv: Instant,
    query: bool,
    /// `[live] events` of a successful `/snapshot`; `None` for a query or
    /// a failed request.
    events: Option<u64>,
    ok: bool,
    /// Events written minus events visible at this poll.
    lag: u64,
}

/// The daemon's CPU time and size, read between polls.
#[derive(Debug, Clone, Copy)]
struct DaemonSample {
    at: Instant,
    cpu_s: f64,
    rss_bytes: u64,
    /// Events visible at the last successful poll before the sample.
    visible: u64,
}

struct PollerLog {
    polls: Vec<Poll>,
    samples: Vec<DaemonSample>,
    /// Body of the last successful `/snapshot`.
    last_snapshot: String,
    visible: u64,
}

/// The poller: requests until the writer is done and everything it wrote
/// is visible (or the drain deadline passes), sampling the daemon's CPU
/// time at every segment boundary.
fn poll_daemon(
    shape: &FleetShape,
    daemon: &DaemonChild,
    boundaries: &[Instant],
    start: Instant,
    shared: &Shared,
) -> io::Result<PollerLog> {
    let mut log = PollerLog {
        polls: Vec::new(),
        samples: Vec::new(),
        last_snapshot: String::new(),
        visible: 0,
    };
    let mut next_boundary = 0;
    let mut drain_until: Option<Instant> = None;
    let mut request_no: u64 = 0;
    loop {
        match shape.poll {
            PollMode::Scheduled(every) => {
                // Skip slots a slow reply has already used up.
                let elapsed = start.elapsed().as_nanos() / every.as_nanos() + 1;
                let due = start + Duration::from_nanos((elapsed * every.as_nanos()) as u64);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
            }
            PollMode::Closed { think, .. } => std::thread::sleep(think),
        }
        request_no += 1;
        let query = match shape.poll {
            PollMode::Closed {
                query_every: Some(n),
                ..
            } => request_no.is_multiple_of(u64::from(n)),
            _ => false,
        };
        let sent = Instant::now();
        let reply = http::get(
            daemon.addr(),
            if query { QUERY_PATH } else { "/snapshot" },
            HTTP_TIMEOUT,
        );
        let parsed = match &reply {
            Ok((200, body)) => match (query, Snapshot::methods_from_text(body)) {
                (true, Ok(_)) => Some(None),
                (false, Ok(_)) => Snapshot::summary_from_text(body)
                    .ok()
                    .map(|s| Some(s.events)),
                (_, Err(_)) => None,
            },
            _ => None,
        };
        let recv = Instant::now();
        if let (Some(Some(events)), Ok((_, body))) = (&parsed, reply) {
            log.visible = *events;
            log.last_snapshot = body;
        }
        log.polls.push(Poll {
            sent,
            recv,
            query,
            events: parsed.flatten(),
            ok: parsed.is_some(),
            lag: shared
                .written
                .load(Ordering::Relaxed)
                .saturating_sub(log.visible),
        });
        while next_boundary < boundaries.len() && recv >= boundaries[next_boundary] {
            let cpu_s = daemon.cpu_s()?;
            log.samples.push(DaemonSample {
                at: Instant::now(),
                cpu_s,
                rss_bytes: daemon.stat()?.rss_bytes,
                visible: log.visible,
            });
            next_boundary += 1;
        }
        if shared.writer_done.load(Ordering::Acquire) {
            let offered = shared.written.load(Ordering::Relaxed);
            let deadline = *drain_until.get_or_insert(recv + DRAIN_DEADLINE);
            if (log.visible >= offered && next_boundary == boundaries.len()) || recv > deadline {
                return Ok(log);
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The reference computation: the generator's entries through the batch
/// analyzer, summed over sessions as `(calls per method, total ticks)`.
fn oracle(fleet: &Fleet, sessions: &[SessionRecord]) -> (BTreeMap<String, u64>, u64) {
    let symbolizer = Symbolizer::without_relocation(fleet.debug.clone());
    let mut calls: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_ticks = 0;
    for s in sessions {
        let entries = session_entries(fleet.shape.tree, &fleet.addrs, s.seed, s.walked);
        assert_eq!(
            entries.len() as u64,
            s.events,
            "the generator is deterministic"
        );
        let p = profile::build_entries(&entries, s.pid, 0, &symbolizer, 1);
        total_ticks += p.total_ticks;
        for m in p.methods {
            *calls.entry(m.name).or_default() += m.calls;
        }
    }
    (calls, total_ticks)
}

/// Compare the daemon's final snapshot with the oracle; returns one line
/// per mismatch class and the number of mismatches.
fn check_snapshot(
    body: &str,
    offered: u64,
    expected_calls: &BTreeMap<String, u64>,
    expected_ticks: u64,
) -> (Vec<String>, u64) {
    let mut failures = Vec::new();
    let mut mismatches = 0;
    let (status, rows) = match (
        Snapshot::summary_from_text(body),
        Snapshot::methods_from_text(body),
    ) {
        (Ok(s), Ok(r)) => (s, r),
        _ => return (vec!["the final /snapshot did not parse".to_string()], 1),
    };
    if status.events != offered {
        failures.push(format!(
            "offered {offered} events but {} are visible",
            status.events
        ));
        mismatches += 1;
    }
    if status.dropped != 0 {
        failures.push(format!(
            "{} events dropped although logs are sized for the run",
            status.dropped
        ));
        mismatches += 1;
    }
    let ticks: u64 = rows.iter().map(|(_, _, _, excl)| excl).sum();
    if ticks != expected_ticks {
        failures.push(format!("total_ticks {ticks}, reference {expected_ticks}"));
        mismatches += 1;
    }
    let got: BTreeMap<&str, u64> = rows
        .iter()
        .map(|(name, calls, _, _)| (name.as_str(), *calls))
        .collect();
    let wrong = expected_calls
        .iter()
        .filter(|(name, calls)| got.get(name.as_str()) != Some(calls))
        .count()
        + got
            .keys()
            .filter(|name| !expected_calls.contains_key(**name))
            .count();
    if wrong > 0 {
        failures.push(format!(
            "{wrong} methods disagree with the reference on calls"
        ));
        mismatches += wrong as u64;
    }
    (failures, mismatches)
}

/// The real daemon's totals from spawn to exit: what the traced run's
/// reconciliation multiplies the replayed stage costs with.
#[derive(Debug, Clone, Copy)]
pub struct DaemonTotals {
    pub wall: Duration,
    pub cpu_s: f64,
    pub loops: u64,
    /// Events the daemon ingested.
    pub events: u64,
    /// `/snapshot` requests it served.
    pub snapshot_requests: u64,
}

/// What a finished run hands to the metric computation.
struct RunLog {
    /// Where the measured phase began (the end of the warm-up).
    measure_from: Instant,
    writer: WriterLog,
    poller: PollerLog,
    exit: ExitSummary,
    daemon_lifetime: Duration,
    /// The daemon's CPU time just before it was shut down.
    daemon_cpu_s: f64,
    daemon_flags: Vec<String>,
}

/// Run the load against a set-up rig, then drain and shut the daemon down.
fn run_load(fleet: &Fleet, rig: Rig) -> io::Result<RunLog> {
    let Rig {
        daemon,
        sessions,
        written,
    } = rig;
    let plan = fleet.plan;
    let start = Instant::now();
    let measure_from = start + plan.warmup;
    let stop_at = measure_from + plan.measure;
    let boundaries: Vec<Instant> = (0..=plan.segments)
        .map(|k| measure_from + plan.measure.mul_f64(k as f64 / plan.segments as f64))
        .collect();
    let shared = Shared::default();
    shared.written.store(written, Ordering::Relaxed);
    let (writer, poller) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_load(fleet, sessions, written, start, stop_at, &shared));
        let poller = poll_daemon(fleet.shape, &daemon, &boundaries, start, &shared);
        (writer.join().expect("the writer thread panicked"), poller)
    });
    let (writer, poller) = (writer?, poller?);
    let daemon_flags = daemon.flags().to_vec();
    let daemon_cpu_s = daemon.cpu_s()?;
    let (exit, daemon_lifetime) = daemon.shutdown()?;
    Ok(RunLog {
        measure_from,
        writer,
        poller,
        exit,
        daemon_lifetime,
        daemon_cpu_s,
        daemon_flags,
    })
}

/// Index of the segment `t` falls in, if it falls in the measured phase.
fn segment_of(t: Instant, from: Instant, plan: &Plan) -> Option<usize> {
    let offset = t.checked_duration_since(from)?;
    let k = (offset.as_secs_f64() / plan.measure.as_secs_f64() * plan.segments as f64) as usize;
    (k < plan.segments).then_some(k)
}

/// Run one fleet workload end to end: timed set-ups, load, drain, oracle.
/// Returns the result and the daemon's totals.
pub fn run(
    shape: &FleetShape,
    plan: &Plan,
    seed: u64,
    teeperfd: &Path,
    shm_parent: &Path,
) -> io::Result<(WorkloadResult, DaemonTotals)> {
    let scratch = ScratchDir::create(shm_parent)?;
    let fleet = Fleet::new(shape, plan, seed, scratch.path());
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..plan.setups {
        // Earlier rigs are torn down; the last one carries the run.
        if let Some(Rig { daemon, .. }) = rig.take() {
            daemon.shutdown()?;
            std::fs::remove_dir_all(scratch.path())?;
            std::fs::create_dir_all(scratch.path())?;
        }
        let (r, took) = set_up(&fleet, teeperfd)?;
        setups.push(took.as_secs_f64());
        rig = Some(r);
    }
    let rig = rig.ok_or_else(|| other("a run needs at least one set-up"))?;
    let log = run_load(&fleet, rig)?;
    let result = compute(&fleet, &setups, &log);
    let totals = DaemonTotals {
        wall: log.daemon_lifetime,
        cpu_s: log.daemon_cpu_s,
        loops: log.exit.loops,
        events: log.poller.visible,
        snapshot_requests: log.poller.polls.iter().filter(|p| !p.query).count() as u64,
    };
    Ok((result, totals))
}

/// When each stamp became visible: the receive time of the first poll
/// whose `[live] events` covers it (`None`: never). Both lists are in time
/// order, so one sweep pairs them.
fn visible_times(stamps: &[Stamp], polls: &[Poll]) -> Vec<Option<Instant>> {
    let mut covering = polls.iter().filter_map(|p| p.events.map(|e| (e, p.recv)));
    let mut current = covering.next();
    stamps
        .iter()
        .map(|s| {
            while current.is_some_and(|(events, _)| events < s.cum) {
                current = covering.next();
            }
            current.map(|(_, recv)| recv)
        })
        .collect()
}

/// The metrics, observations and oracle verdict of a finished run.
fn compute(fleet: &Fleet, setups: &[f64], log: &RunLog) -> WorkloadResult {
    let (shape, plan) = (fleet.shape, fleet.plan);
    let measure_from = log.measure_from;
    let stamps = &log.writer.stamps;
    let polls = &log.poller.polls;
    let offered = stamps.last().map_or(0, |s| s.cum);

    let visible_at = visible_times(stamps, polls);
    let never_visible: u64 = stamps
        .iter()
        .zip(&visible_at)
        .filter(|(_, v)| v.is_none())
        .map(|(s, _)| s.events)
        .sum();

    let mut seg_events = vec![0u64; plan.segments];
    let mut seg_write_ns = vec![0u64; plan.segments];
    let mut seg_last_visible: Vec<Option<Instant>> = vec![None; plan.segments];
    let mut seg_latency: Vec<Vec<f64>> = vec![Vec::new(); plan.segments];
    let mut lateness = Vec::new();
    for (s, seen) in stamps.iter().zip(&visible_at) {
        let Some(k) = segment_of(s.at, measure_from, plan) else {
            continue;
        };
        seg_events[k] += s.events;
        seg_write_ns[k] += s.write_ns;
        lateness.push(ms(s.late));
        if let Some(seen) = seen {
            seg_latency[k].push(ms(seen.saturating_duration_since(s.at)));
            seg_last_visible[k] = Some(*seen);
        }
    }
    let seg_len = plan.measure.as_secs_f64() / plan.segments as f64;
    let mut events_per_s = Vec::new();
    let mut producer_ns = Vec::new();
    for k in 0..plan.segments {
        if seg_events[k] == 0 {
            continue;
        }
        producer_ns.push(seg_write_ns[k] as f64 / seg_events[k] as f64);
        if let Some(seen) = seg_last_visible[k] {
            let seg_start = measure_from + Duration::from_secs_f64(seg_len * k as f64);
            events_per_s.push(
                seg_events[k] as f64 / seen.saturating_duration_since(seg_start).as_secs_f64(),
            );
        }
    }

    let mut seg_view: Vec<Vec<f64>> = vec![Vec::new(); plan.segments];
    let mut seg_query: Vec<Vec<f64>> = vec![Vec::new(); plan.segments];
    let mut lag_max = 0;
    let mut measured_polls = 0u64;
    for p in polls {
        let Some(k) = segment_of(p.sent, measure_from, plan) else {
            continue;
        };
        measured_polls += 1;
        lag_max = lag_max.max(p.lag);
        if p.ok {
            let latency = ms(p.recv - p.sent);
            if p.query {
                &mut seg_query[k]
            } else {
                &mut seg_view[k]
            }
            .push(latency);
        }
    }
    let failed_polls = polls.iter().filter(|p| !p.ok).count() as u64;

    let samples = &log.poller.samples;
    let cpu_per_mevent = |a: &DaemonSample, b: &DaemonSample| {
        let events = b.visible.saturating_sub(a.visible);
        (events > 0).then(|| (b.cpu_s - a.cpu_s) / events as f64 * 1e6)
    };
    let seg_cpu: Vec<f64> = samples
        .windows(2)
        .filter_map(|w| cpu_per_mevent(&w[0], &w[1]))
        .collect();

    let (expected_calls, expected_ticks) = oracle(fleet, &log.writer.sessions);
    let (mut failures, mismatches) = check_snapshot(
        &log.poller.last_snapshot,
        offered,
        &expected_calls,
        expected_ticks,
    );
    if never_visible > 0 {
        failures.push(format!(
            "{never_visible} events were not visible {DRAIN_DEADLINE:?} after the writer stopped"
        ));
    }
    if failed_polls > 0 {
        failures.push(format!(
            "{failed_polls} polls timed out, were not 200 or did not parse"
        ));
    }

    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    let mut push = |name: &str, unit: &'static str, m: Option<Measured>| match m {
        Some(m) => metrics.push(m),
        None => missing.push(format!("{name} ({unit}) has no sample")),
    };
    let medians = |per_segment: &[Vec<f64>]| -> Vec<f64> {
        per_segment
            .iter()
            .filter_map(|s| stats::median(s))
            .collect()
    };
    let of_segments = Measured::of_segments;
    let unsupported = |m: Measured, used: f64, wanted: f64, n: usize| {
        if used == wanted {
            m
        } else {
            m.with_note(format!(
                "p{:.0}: samples of {n} do not support p{:.0}",
                used * 100.0,
                wanted * 100.0
            ))
        }
    };
    // A stall of a few hundred milliseconds delays every burst written
    // during it, so one stall can own the top percent of a run's pooled
    // visibility sample. Taken per segment and reported as the median
    // segment's, the percentile says what the tail usually is.
    let visible_tail = {
        let n = seg_latency.iter().map(Vec::len).min().unwrap_or(0);
        let wanted = 0.99;
        let used = stats::supported_percentile(n, wanted);
        let per_segment: Vec<f64> = seg_latency
            .iter()
            .filter_map(|s| stats::nearest_rank_percentile(s, used))
            .collect();
        of_segments("visible_latency_p99_ms", "ms", &per_segment)
            .map(|m| unsupported(m, used, wanted, n))
    };
    // A poll is one sample however long it takes, so the pooled sample's
    // percentile is not one stall's to own.
    let view_tail = {
        let pooled: Vec<f64> = seg_view.iter().flatten().copied().collect();
        let wanted = 0.95;
        stats::tail(&pooled, wanted).map(|(value, used)| {
            let mut m = Measured::once("view_latency_p95_ms", "ms", value);
            m.spread.n = pooled.len();
            unsupported(m, used, wanted, pooled.len())
        })
    };
    push(
        "events_per_s",
        "1/s",
        of_segments("events_per_s", "1/s", &events_per_s),
    );
    push(
        "producer_ns_per_event",
        "ns",
        of_segments("producer_ns_per_event", "ns", &producer_ns),
    );
    push(
        "consumer_s_per_mevent",
        "s",
        of_segments("consumer_s_per_mevent", "s", &seg_cpu),
    );
    push(
        "visible_latency_p50_ms",
        "ms",
        of_segments("visible_latency_p50_ms", "ms", &medians(&seg_latency)),
    );
    push(
        "view_latency_p50_ms",
        "ms",
        of_segments("view_latency_p50_ms", "ms", &medians(&seg_view)),
    );
    push("setup_s", "s", of_segments("setup_s", "s", setups));

    // The tails are reported, not bounded: see README, "Demoted".
    let mut observations: Vec<Measured> = visible_tail.into_iter().chain(view_tail).collect();
    if let Some(m) = of_segments("query_latency_p50_ms", "ms", &medians(&seg_query)) {
        observations.push(m);
    }
    observations.push(Measured::once(
        "daemon.loops_per_s",
        "1/s",
        log.exit.loops as f64 / log.daemon_lifetime.as_secs_f64(),
    ));
    observations.push(Measured::once(
        "daemon.drain_lag_max_events",
        "count",
        lag_max as f64,
    ));
    if let Some(rss) = samples.iter().map(|s| s.rss_bytes).max() {
        observations.push(Measured::once(
            "daemon.rss_mib",
            "MiB",
            rss as f64 / (1 << 20) as f64,
        ));
    }
    if let (Some(a), Some(b)) = (samples.first(), samples.last()) {
        let polls_between = polls
            .iter()
            .filter(|p| p.sent >= a.at && p.sent < b.at)
            .count();
        if polls_between > 0 {
            observations.push(Measured::once(
                "daemon.cpu_ms_per_poll",
                "ms",
                (b.cpu_s - a.cpu_s) * 1e3 / polls_between as f64,
            ));
        }
    }
    if shape.rate.is_some() {
        if let Some((p99, _)) = stats::tail(&lateness, 0.99) {
            observations.push(Measured::once("gen.late_p99_ms", "ms", p99));
        }
        observations.push(Measured::once(
            "gen.late_max_ms",
            "ms",
            lateness.iter().copied().fold(0.0, f64::max),
        ));
    }

    failures.extend(missing);
    let missing_metrics = (crate::catalog::END_TO_END.len() - metrics.len()) as u64;
    WorkloadResult {
        workload: shape.workload,
        metrics,
        observations,
        attempted: offered + polls.len() as u64,
        failed: never_visible + failed_polls + mismatches + missing_metrics,
        failures,
        facts: vec![
            (
                "teeperfd_flags".to_string(),
                Json::Arr(
                    log.daemon_flags
                        .iter()
                        .map(|f| Json::str(f.as_str()))
                        .collect(),
                ),
            ),
            ("events_offered".to_string(), Json::Int(offered)),
            ("polls_issued".to_string(), Json::Int(polls.len() as u64)),
            ("polls_measured".to_string(), Json::Int(measured_polls)),
            (
                "sessions".to_string(),
                Json::Int(log.writer.sessions.len() as u64),
            ),
            (
                "stacks".to_string(),
                Json::Int(u64::from(shape.tree.nodes())),
            ),
            ("daemon_loops".to_string(), Json::Int(log.exit.loops)),
            ("daemon_requests".to_string(), Json::Int(log.exit.requests)),
        ],
    }
}
