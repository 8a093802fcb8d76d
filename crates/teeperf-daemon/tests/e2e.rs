//! End-to-end: real OS child processes writing through the file-backed
//! transport while a real `teeperfd` (spawned as its own process) serves
//! HTTP. This is the acceptance path of the daemon subsystem:
//!
//! * ≥ 2 writer children publish logs; the merged `/snapshot` totals equal
//!   the per-pid sums and `/pid/<n>` matches each child's own profile;
//! * stdin EOF is the graceful-shutdown trigger: one more drain, the final
//!   snapshot written to `--snapshot-out`, exit code 0;
//! * a writer killed mid-session (SIGKILL) is quarantined by the liveness
//!   probe, named as the producer's death — the registry keeps serving,
//!   never wedges — while a held writer, alive but silent, never is;
//! * a session's `<pid>.tplog` is a log image any offline reader loads:
//!   analyzed from the registration directory it gives the method rows the
//!   daemon served, finished or killed, relocated by its anchor or not.
//!
//! Every test carries a hang guard (the daemon's failure mode is an
//! unresponsive loop, which a plain harness reports as a timeout at best).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use teeperf_analyzer::Analyzer;
use teeperf_core::{EventSource, FileShmSource, LogFile};
use teeperf_live::Snapshot;

/// Aborts the whole process if the owning test runs longer than 120s.
struct HangGuard(Arc<Mutex<bool>>);

fn hang_guard(label: &'static str) -> HangGuard {
    let done = Arc::new(Mutex::new(false));
    let armed = Arc::clone(&done);
    std::thread::spawn(move || {
        for _ in 0..1200 {
            std::thread::sleep(Duration::from_millis(100));
            if *armed.lock().expect("guard lock") {
                return;
            }
        }
        eprintln!("e2e test hung for 120s: {label}");
        std::process::abort();
    });
    HangGuard(done)
}

impl Drop for HangGuard {
    fn drop(&mut self) {
        *self.0.lock().expect("guard lock") = true;
    }
}

struct ScratchDir(PathBuf);

fn scratch(label: &str) -> ScratchDir {
    let dir = std::env::temp_dir().join(format!("teeperfd-e2e-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    ScratchDir(dir)
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned `teeperfd` with its stdin held open; killed on drop so a
/// panicking test never leaks the process.
struct DaemonProc {
    child: Child,
    addr: SocketAddr,
}

impl DaemonProc {
    fn spawn(dir: &Path, extra: &[&str]) -> DaemonProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_teeperfd"))
            .arg("--dir")
            .arg(dir)
            .args(["--listen", "127.0.0.1:0", "--pump-ms", "5"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn teeperfd");
        // The daemon prints its resolved address before entering the loop.
        let stdout = child.stdout.as_mut().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read banner");
        let addr: SocketAddr = line
            .trim()
            .strip_prefix("teeperfd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .parse()
            .expect("parse address");
        DaemonProc { child, addr }
    }

    fn get(&self, path: &str) -> (u16, String) {
        teeperf_daemon::http::get(&self.addr.to_string(), path, Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("GET {path}: {e}"))
    }

    /// Close stdin (the supervisor's shutdown signal) and collect the exit.
    fn shutdown_via_stdin(mut self) -> std::process::ExitStatus {
        drop(self.child.stdin.take());
        self.child.wait().expect("wait teeperfd")
    }

    fn wait(mut self) -> std::process::ExitStatus {
        self.child.wait().expect("wait teeperfd")
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A writer child, killed and reaped on drop: a failing test leaks no
/// `--hold` writer (which stays alive until killed).
struct WriterProc(Child);

impl Drop for WriterProc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_writer(dir: &Path, iterations: u64, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_teeperf-shm-writer"))
        .arg("--dir")
        .arg(dir)
        .args(["--iterations", &iterations.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn writer")
}

/// Poll `f` every 30ms until it returns `Some`, or fail after `secs`.
fn poll_until<T>(secs: u64, what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// Entries a writer publishes for n iterations (2 bookends + 4 per round).
fn entries_for(iterations: u64) -> u64 {
    2 + 4 * iterations
}

/// total_ticks of one writer profile (see the writer's workload comment).
fn ticks_for(iterations: u64) -> u64 {
    12 * iterations + 1
}

fn summary(text: &str) -> teeperf_flamegraph::LiveStatus {
    Snapshot::summary_from_text(text).unwrap_or_else(|e| panic!("unparseable snapshot: {e}"))
}

fn total_ticks_line(text: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix("total_ticks "))
        .and_then(|v| v.parse().ok())
        .expect("snapshot has total_ticks")
}

/// A `[methods]` row: name, calls, inclusive ticks, exclusive ticks.
type MethodRow = (String, u64, u64, u64);

/// The method rows of a served snapshot, by name.
fn served_rows(text: &str) -> Vec<MethodRow> {
    let mut rows = Snapshot::methods_from_text(text).expect("snapshot has a methods table");
    rows.sort();
    rows
}

/// The method rows `teeperf analyze <dir>/<pid>.tplog <dir>/<pid>.sym`
/// reports — the session's own files, read offline — by name, and the log
/// they came from.
fn offline_rows(dir: &Path, pid: u64, salvage: bool) -> (Vec<MethodRow>, LogFile) {
    let path = dir.join(format!("{pid}.tplog"));
    let log = if salvage {
        FileShmSource::open(&path).map(|mut src| {
            let entries = src.drain_to_end().entries;
            LogFile::new(*src.header(), entries)
        })
    } else {
        LogFile::load(&path)
    }
    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let sym = std::fs::read_to_string(dir.join(format!("{pid}.sym"))).expect("sidecar");
    let debug = mcvm::DebugInfo::from_text(&sym).expect("sidecar parses");
    let profile = Analyzer::new(log.clone(), debug).expect("valid").profile();
    let mut rows: Vec<MethodRow> = profile
        .methods
        .iter()
        .map(|m| (m.name.clone(), m.calls, m.inclusive, m.exclusive))
        .collect();
    rows.sort();
    (rows, log)
}

#[test]
fn two_real_processes_merge_into_one_snapshot() {
    let _guard = hang_guard("two_real_processes_merge_into_one_snapshot");
    let dir = scratch("merge");
    let daemon = DaemonProc::spawn(&dir.0, &[]);
    let (status, body) = daemon.get("/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let mut w1 = spawn_writer(&dir.0, 5, &[]);
    let mut w2 = spawn_writer(&dir.0, 8, &[]);
    let pid1 = u64::from(w1.id());
    let pid2 = u64::from(w2.id());
    assert!(w1.wait().expect("wait w1").success());
    assert!(w2.wait().expect("wait w2").success());

    let want = entries_for(5) + entries_for(8);
    let merged = poll_until(60, "both writers merged", || {
        let (code, text) = daemon.get("/snapshot");
        assert_eq!(code, 200);
        (summary(&text).events == want).then_some(text)
    });
    assert_eq!(summary(&merged).dropped, 0);
    assert!(merged.contains(&format!("pid {pid1}")), "{merged}");
    assert!(merged.contains(&format!("pid {pid2}")), "{merged}");
    assert_eq!(
        total_ticks_line(&merged),
        ticks_for(5) + ticks_for(8),
        "merged totals are the per-pid sums"
    );

    // Per-pid views match each child's own workload exactly.
    for (pid, iters) in [(pid1, 5u64), (pid2, 8u64)] {
        let (code, text) = daemon.get(&format!("/pid/{pid}"));
        assert_eq!(code, 200);
        assert_eq!(summary(&text).events, entries_for(iters));
        assert_eq!(total_ticks_line(&text), ticks_for(iters));
        assert!(
            text.contains(&format!("work {iters} {} {}", 10 * iters, 6 * iters)),
            "pid {pid} methods table: {text}"
        );
        assert!(text.contains(&format!("leaf {iters} {} {}", 4 * iters, 4 * iters)));
        // The finished session's file, analyzed where it lies, says the same.
        let (rows, log) = offline_rows(&dir.0, pid, false);
        assert_eq!(rows, served_rows(&text), "pid {pid}");
        assert!(!log.header.active, "pid {pid} finished");
    }

    // The flame graph serves per-process towers for the merged view.
    let (code, svg) = daemon.get("/flame.svg");
    assert_eq!(code, 200);
    assert!(svg.contains("<svg"));
    assert!(svg.contains(&format!("pid {pid1}")), "merged towers by pid");

    let (_, metrics) = daemon.get("/metrics");
    assert!(metrics.contains("teeperf_attached_total 2"), "{metrics}");
    assert!(metrics.contains(&format!("teeperf_events_total {want}")));
    assert!(metrics.contains("teeperf_quarantined_total 0"));

    let (code, _) = daemon.get("/shutdown");
    assert_eq!(code, 200);
    let status = daemon.wait();
    assert!(status.success(), "clean exit after /shutdown: {status:?}");
}

#[test]
fn stdin_eof_drains_once_more_and_writes_the_final_snapshot() {
    let _guard = hang_guard("stdin_eof_drains_once_more_and_writes_the_final_snapshot");
    let dir = scratch("graceful");
    let out = dir.0.join("final.snapshot");
    let daemon = DaemonProc::spawn(
        &dir.0,
        &["--snapshot-out", out.to_str().expect("utf8 path")],
    );

    let mut w = spawn_writer(&dir.0, 6, &[]);
    assert!(w.wait().expect("wait writer").success());
    poll_until(60, "writer merged", || {
        let (_, text) = daemon.get("/snapshot");
        (summary(&text).events == entries_for(6)).then_some(())
    });

    let status = daemon.shutdown_via_stdin();
    assert!(status.success(), "stdin EOF must exit 0, got {status:?}");
    let written = std::fs::read_to_string(&out).expect("final snapshot written");
    assert_eq!(summary(&written).events, entries_for(6));
    assert_eq!(total_ticks_line(&written), ticks_for(6));
}

#[test]
fn killed_writer_is_quarantined_not_wedging_the_registry() {
    let _guard = hang_guard("killed_writer_is_quarantined_not_wedging_the_registry");
    let dir = scratch("killed");
    let daemon = DaemonProc::spawn(&dir.0, &[]);

    // A healthy writer alongside the doomed one: the survivors must keep
    // being served throughout.
    let mut healthy = spawn_writer(&dir.0, 4, &[]);
    let mut doomed = WriterProc(spawn_writer(&dir.0, 3, &["--hold"]));
    let doomed_pid = u64::from(doomed.0.id());
    assert!(healthy.wait().expect("wait healthy").success());

    let want = entries_for(4) + entries_for(3);
    poll_until(60, "both writers merged", || {
        let (_, text) = daemon.get("/snapshot");
        (summary(&text).events == want).then_some(())
    });

    // Held, the doomed writer is alive but silent, ACTIVE still set: a
    // quiet writer, not a dead one. 600 loops of it quarantine nothing.
    let scans = |m: &str| -> u64 {
        let line = m
            .lines()
            .find_map(|l| l.strip_prefix("teeperf_scans_total "));
        line.and_then(|v| v.parse().ok())
            .expect("metrics count scans")
    };
    let (_, metrics) = daemon.get("/metrics");
    let quiet_from = scans(&metrics);
    let metrics = poll_until(60, "600 loops of a quiet writer", || {
        let (_, m) = daemon.get("/metrics");
        (scans(&m) >= quiet_from + 600).then_some(m)
    });
    assert!(metrics.contains("teeperf_quarantined_total 0"), "{metrics}");

    doomed.0.kill().expect("kill writer");
    doomed.0.wait().expect("reap writer");

    // The liveness machinery notices the dead process and quarantines its
    // session; its contribution stays in the merge.
    let metrics = poll_until(60, "quarantine of the killed writer", || {
        let (_, m) = daemon.get("/metrics");
        m.contains("teeperf_quarantined_total 1").then_some(m)
    });
    assert!(
        metrics.contains(&format!("teeperf_quarantined{{pid=\"{doomed_pid}\"}} 1")),
        "{metrics}"
    );
    // The quarantined session let go of its file; the healthy one, still
    // attached, holds its own.
    let open: Vec<PathBuf> = std::fs::read_dir(format!("/proc/{}/fd", daemon.child.id()))
        .expect("the daemon's fd table")
        .flatten()
        .filter_map(|fd| std::fs::read_link(fd.path()).ok())
        .collect();
    let holds = |pid: u64| open.iter().any(|t| t.ends_with(format!("{pid}.tplog")));
    assert!(holds(u64::from(healthy.id())), "{open:?}");
    assert!(!holds(doomed_pid), "{open:?}");

    let (code, text) = daemon.get("/snapshot");
    assert_eq!(code, 200, "registry keeps serving after a quarantine");
    assert_eq!(summary(&text).events, want, "prior contribution retained");
    assert!(
        text.contains(&format!("quarantined pid {doomed_pid}: producer gone\n")),
        "snapshot events section records the quarantine and its cause: {text}"
    );
    // A pid the merged view still lists and counts still answers for
    // itself, with the session's final snapshot.
    assert!(text.contains(&format!("pid {doomed_pid}\n")), "{text}");
    let (code, own) = daemon.get(&format!("/pid/{doomed_pid}"));
    assert_eq!(code, 200, "{own}");
    assert_eq!(summary(&own).events, entries_for(3), "{own}");
    // The post-mortem needs no daemon: the killed session's file still has
    // ACTIVE set and every published entry, and loads strictly or salvaged.
    for salvage in [false, true] {
        let (rows, log) = offline_rows(&dir.0, doomed_pid, salvage);
        assert_eq!(rows, served_rows(&own), "salvage {salvage}");
        assert!(
            log.header.active,
            "nobody cleared ACTIVE for a killed writer"
        );
        assert_eq!(log.entries.len() as u64, entries_for(3));
    }
    let (code, svg) = daemon.get(&format!("/flame.svg?pid={doomed_pid}"));
    assert_eq!(code, 200, "{svg}");
    assert!(svg.contains("<svg") && svg.contains("work"), "{svg}");
    let (code, body) = daemon.get("/healthz");
    assert_eq!((code, body.as_str()), (200, "ok\n"));

    let (code, _) = daemon.get("/shutdown");
    assert_eq!(code, 200);
    assert!(daemon.wait().success());
}

#[test]
fn an_anchored_writer_is_named_on_the_wire_as_it_is_offline() {
    use teeperf_core::layout::{EventKind, LogEntry};
    use teeperf_core::shm_file::{publish_sidecar, FileShmWriter, SYM_EXT};

    let _guard = hang_guard("an_anchored_writer_is_named_on_the_wire_as_it_is_offline");
    let dir = scratch("anchored");
    // Position-independent code loaded 0x1000 above its static addresses:
    // the header's anchor word says so (§II-B), and every recorded address
    // is shifted by as much. This process is the writer, under its own
    // (live) pid.
    const SLIDE: u64 = 0x1000;
    let pid = u64::from(std::process::id());
    let debug = mcvm::DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)]);
    publish_sidecar(&dir.0, pid, SYM_EXT, &debug.to_text()).expect("sidecar");
    let anchor = debug.functions()[0].base_addr + SLIDE;
    let header = teeperf_core::log::make_header(pid, 16, true, anchor, 0);
    let mut writer = FileShmWriter::create(&dir.0, &header).expect("register");
    let (main, work) = (debug.entry_addr(0) + SLIDE, debug.entry_addr(1) + SLIDE);
    for (kind, counter, addr) in [
        (EventKind::Call, 1, main),
        (EventKind::Call, 10, work),
        (EventKind::Return, 60, work),
        (EventKind::Return, 101, main),
    ] {
        let entry = LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        };
        writer.write(&entry).expect("write");
    }
    writer.finish().expect("finish");

    let daemon = DaemonProc::spawn(&dir.0, &[]);
    let text = poll_until(60, "the anchored writer merged", || {
        let (_, text) = daemon.get("/snapshot");
        (summary(&text).events == 4).then_some(text)
    });
    let named = [
        ("main".to_string(), 1, 100, 50),
        ("work".to_string(), 1, 50, 50),
    ];
    assert_eq!(served_rows(&text), named, "frames relocated by the anchor");
    assert_eq!(offline_rows(&dir.0, pid, false).0, named);
    let (code, _) = daemon.get("/shutdown");
    assert_eq!(code, 200);
    assert!(daemon.wait().success());
}

#[test]
fn windowed_queries_answer_time_travel_over_live_writers() {
    let _guard = hang_guard("windowed_queries_answer_time_travel_over_live_writers");
    let dir = scratch("windows");
    // One writer iteration spans exactly 12 virtual ticks, so a 12-tick
    // window interval puts each iteration's leaf exit in its own window
    // (windows derive from the event counters, never wall time).
    let daemon = DaemonProc::spawn(&dir.0, &["--window-interval", "12", "--retain", "16"]);

    let mut w1 = spawn_writer(&dir.0, 7, &["--interval-ms", "3"]);
    let mut w2 = spawn_writer(&dir.0, 5, &[]);
    let pid1 = u64::from(w1.id());
    let pid2 = u64::from(w2.id());
    assert!(w1.wait().expect("wait w1").success());
    assert!(w2.wait().expect("wait w2").success());

    // The listing settles once both rings hold their final windows: pid1's
    // main returns at tick 86 (window 7), pid2's at 62 (window 5).
    let listing = poll_until(60, "both rings fully populated", || {
        let (code, text) = daemon.get("/windows");
        assert_eq!(code, 200);
        let parts = teeperf_live::windows_from_text(&text).ok()?;
        let done = |pid: u64, last: u64| {
            parts
                .iter()
                .any(|p| p.pid == pid && p.windows.last().is_some_and(|w| w.last == last))
        };
        (done(pid1, 7) && done(pid2, 5)).then_some(parts)
    });
    let ring1 = listing.iter().find(|p| p.pid == pid1).unwrap();
    assert_eq!(ring1.interval, 12);
    assert_eq!(ring1.evicted_windows, 0, "retain 16 never overflows");
    assert_eq!(ring1.windows.len(), 8, "windows 0..=7 all landed");

    // "What ran in the last 5 windows?" — answered fleet-wide over HTTP,
    // inside the snapshot wire contract teeperf top already parses.
    let (code, body) = daemon.get("/query?windows=last:5&top=10");
    assert_eq!(code, 200, "{body}");
    let rows = Snapshot::methods_from_text(&body).unwrap();
    assert!(rows.iter().any(|(n, ..)| n == "work"), "{body}");
    assert!(rows.iter().any(|(n, ..)| n == "leaf"), "{body}");

    // Window 0 holds exactly pid1's first leaf call and nothing else.
    let (code, body) = daemon.get(&format!("/query?windows=0..=0&pid={pid1}"));
    assert_eq!(code, 200, "{body}");
    let rows = Snapshot::methods_from_text(&body).unwrap();
    assert_eq!(rows, vec![("leaf".to_string(), 1, 4, 4)], "{body}");

    // The ring identity, end to end: merging every retained window equals
    // the whole-session per-pid profile the daemon serves at /pid/<n>.
    let (_, span_all) = daemon.get(&format!("/query?windows=all&pid={pid1}"));
    let mut from_ring = Snapshot::methods_from_text(&span_all).unwrap();
    let (_, direct) = daemon.get(&format!("/pid/{pid1}"));
    let mut from_snapshot = Snapshot::methods_from_text(&direct).unwrap();
    from_ring.sort();
    from_snapshot.sort();
    assert_eq!(
        from_ring, from_snapshot,
        "retained windows must merge exactly"
    );

    // Two-window diff via the batch comparator: iterations are identical,
    // so window 2 vs 3 of pid1 shows work and leaf with zero drift.
    let (code, body) = daemon.get(&format!("/query?diff=2,3&pid={pid1}"));
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("diff 2 vs 3\n[diff]\n"), "{body}");
    assert!(body.contains("work") && body.contains("leaf"), "{body}");

    // A window pid2 never reached is a clean 404, not a wedge.
    let (code, _) = daemon.get(&format!("/query?windows=7..=7&pid={pid2}"));
    assert_eq!(code, 404);

    let (code, _) = daemon.get("/shutdown");
    assert_eq!(code, 200);
    assert!(daemon.wait().success());
}

#[test]
fn a_writer_dealing_rounds_to_two_threads_is_served_per_thread() {
    let _guard = hang_guard("a_writer_dealing_rounds_to_two_threads_is_served_per_thread");
    let dir = scratch("tids");
    let daemon = DaemonProc::spawn(&dir.0, &["--window-interval", "12", "--retain", "16"]);
    // Rounds 0, 2, 4 run on tid 1 under main, rounds 1, 3, 5 on tid 70
    // (a thread id past a row's inline set) as top-level calls.
    let mut writer = spawn_writer(&dir.0, 6, &["--tids", "1,70"]);
    let pid = u64::from(writer.id());
    assert!(writer.wait().expect("wait writer").success());

    let text = poll_until(60, "the writer drained", || {
        let (code, text) = daemon.get(&format!("/pid/{pid}"));
        (code == 200 && summary(&text).events == entries_for(6)).then_some(text)
    });
    let (rows, _) = offline_rows(&dir.0, pid, false);
    assert_eq!(rows, served_rows(&text));
    assert!(text.contains("work 6 60 36"), "{text}");
    // Each thread's query lists its own names: main ran on tid 1 only.
    for (tid, main) in [(1, true), (70, false)] {
        let (code, body) = daemon.get(&format!("/query?windows=all&tid={tid}"));
        assert_eq!(code, 200);
        let names: Vec<&str> = body
            .lines()
            .skip_while(|l| *l != "[methods]")
            .skip(1)
            .filter_map(|l| l.split(' ').next())
            .collect();
        assert!(
            names.contains(&"work") && names.contains(&"leaf"),
            "tid {tid}: {body}"
        );
        assert_eq!(names.contains(&"main"), main, "tid {tid}: {body}");
    }

    let out = Command::new(env!("CARGO_BIN_EXE_teeperf-shm-writer"))
        .arg("--dir")
        .arg(&dir.0)
        .args(["--tids", "1,x"])
        .output()
        .expect("run writer");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a bad --tids entry is a usage error"
    );
}

#[test]
fn writer_binary_rejects_bad_usage() {
    let _guard = hang_guard("writer_binary_rejects_bad_usage");
    let out = Command::new(env!("CARGO_BIN_EXE_teeperf-shm-writer"))
        .output()
        .expect("run writer");
    assert_eq!(out.status.code(), Some(2), "--dir is required");

    // `--scan-every` is gone (the daemon rescans every loop): a supervisor
    // script that still passes it fails loudly.
    for bogus in ["--bogus", "--scan-every"] {
        let out = Command::new(env!("CARGO_BIN_EXE_teeperfd"))
            .args([bogus, "1"])
            .output()
            .expect("run daemon");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bogus}: unknown flags are usage errors"
        );
    }
}
