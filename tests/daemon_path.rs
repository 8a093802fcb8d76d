//! The deployed path, in process: a writer publishes through the
//! file-backed shared log, a `Daemon` attaches it from the registration
//! directory, and the profile comes back out of `/snapshot` as the wire
//! text `teeperf top` parses. Tier-1 runs this, so it fails if the file
//! transport, the session registry or the wire text breaks.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use teeperf::core::layout::{EventKind, LogEntry};
use teeperf::core::log::make_header;
use teeperf::core::shm_file::{publish_sidecar, FileShmWriter};
use teeperf::mc::DebugInfo;
use teeperf_daemon::http::Request;
use teeperf_daemon::{route, Daemon, DaemonConfig, ShutdownCause};
use teeperf_live::Snapshot;

/// A fresh registration directory holding pid 41's finished session.
fn registered_session(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("teeperf-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    register_session(&dir);
    dir
}

/// Register pid 41's finished session in `dir`.
fn register_session(dir: &Path) {
    let (mut writer, events) = start_session(dir, 41);
    for entry in &events {
        writer.write(entry).unwrap();
    }
    writer.finish().unwrap();
}

/// Publish `pid`'s symbols and an ACTIVE, empty log in `dir`; returns its
/// writer and the session's events in publication order: main [1, 101]
/// calls work [10, 60] — work 50 ticks, main 100 - 50.
fn start_session(dir: &Path, pid: u64) -> (FileShmWriter, [LogEntry; 4]) {
    let debug = DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)]);
    publish_sidecar(dir, pid, "sym", &debug.to_text()).unwrap();
    let writer = FileShmWriter::create(dir, &make_header(pid, 64, true, 0, 0)).unwrap();
    let (main, work) = (debug.entry_addr(0), debug.entry_addr(1));
    let events = [
        (EventKind::Call, 1, main),
        (EventKind::Call, 10, work),
        (EventKind::Return, 60, work),
        (EventKind::Return, 101, main),
    ]
    .map(|(kind, counter, addr)| LogEntry {
        kind,
        counter,
        addr,
        tid: 0,
    });
    (writer, events)
}

/// The value of the `/metrics` line `name <value>`.
fn metric(body: &str, name: &str) -> u64 {
    let line = body.lines().find_map(|l| l.strip_prefix(name)).unwrap();
    line.trim().parse().unwrap()
}

/// The body of the one reply `client` gets (the daemon closes after it).
fn body_of(client: &mut TcpStream) -> String {
    let mut reply = String::new();
    client.read_to_string(&mut reply).unwrap();
    let (head, body) = reply.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    body.to_string()
}

#[test]
fn a_file_backed_log_comes_back_out_of_the_snapshot_route() {
    let dir = registered_session("daemon-path");

    // `max_loops` bounds the run at ~20 s if nothing ever shuts it down.
    let mut daemon = Daemon::new(DaemonConfig {
        dir: dir.clone(),
        listen: "127.0.0.1:0".to_string(),
        pump_interval: Duration::from_millis(1),
        max_loops: Some(20_000),
        ..DaemonConfig::default()
    })
    .unwrap()
    .without_liveness_probe();

    // Nothing is attached before the first scan: the route serves an empty
    // fleet, in the same wire text.
    let request = Request {
        method: "GET".to_string(),
        target: "/snapshot".to_string(),
    };
    let (response, shutdown) = route(&mut daemon, &request);
    assert_eq!((response.status, shutdown), (200, false));
    let empty = String::from_utf8(response.body).unwrap();
    assert_eq!(Snapshot::summary_from_text(&empty).unwrap().events, 0);

    // The loop scans, attaches and pumps; the same route, now behind the
    // HTTP listener, serves the writer's profile.
    let addr = daemon.addr().to_string();
    let (_keep_open, external) = mpsc::channel::<String>();
    let running = std::thread::spawn(move || daemon.run(&external));
    let get = |path: &str| teeperf_daemon::http::get(&addr, path, Duration::from_secs(5)).unwrap();
    let mut text = String::new();
    for _ in 0..2_000 {
        let (status, body) = get("/snapshot");
        assert_eq!(status, 200);
        text = body;
        if Snapshot::summary_from_text(&text).unwrap().events == 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(text.contains("\ndropped 0\n"), "{text}");
    let status = Snapshot::summary_from_text(&text).unwrap();
    assert_eq!((status.events, status.dropped), (4, 0));
    let mut methods = Snapshot::methods_from_text(&text).unwrap();
    methods.sort();
    assert_eq!(
        methods,
        [
            ("main".to_string(), 1, 100, 50),
            ("work".to_string(), 1, 50, 50)
        ]
    );

    assert_eq!(get("/shutdown").0, 200);
    let report = running.join().unwrap().unwrap();
    assert_eq!(report.cause, ShutdownCause::HttpRequest);
    assert_eq!(report.attached, vec![41]);
    assert_eq!(
        report.merged.to_text(),
        text,
        "the final snapshot is the served one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The loop drains before it answers: a request already waiting when a
/// one-iteration `run` begins is served the session that iteration's scan
/// attached and its pump drained — no sleeps, no second thread, so the
/// order of the loop body alone decides what comes back.
#[test]
fn a_reply_carries_the_drain_of_the_loop_that_served_it() {
    let dir = registered_session("drain-then-answer");
    let daemon = Daemon::new(DaemonConfig {
        dir: dir.clone(),
        listen: "127.0.0.1:0".to_string(),
        pump_interval: Duration::from_millis(1),
        max_loops: Some(1),
        ..DaemonConfig::default()
    })
    .unwrap()
    .without_liveness_probe();

    let mut client = TcpStream::connect(daemon.addr()).unwrap();
    client.write_all(b"GET /snapshot HTTP/1.1\r\n\r\n").unwrap();
    let (_keep_open, external) = mpsc::channel::<String>();
    let report = daemon.run(&external).unwrap();
    assert_eq!(report.cause, ShutdownCause::LoopLimit);
    assert_eq!((report.loops, report.requests), (1, 1));

    let body = body_of(&mut client);
    assert_eq!(Snapshot::summary_from_text(&body).unwrap().events, 4);
    assert_eq!(
        body,
        report.merged.to_text(),
        "the served drain is the final one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A new process reaches the daemon in one loop: a log registered after
/// the daemon's first reply is attached by the scan that opens the next
/// loop. A held-back second request ends the first loop's serve phase
/// (accepting stops one `pump_interval` after it began), so which loop
/// answers which request is fixed by the loop body, not by a race.
#[test]
fn a_log_registered_after_a_reply_is_attached_by_the_next_loop() {
    let dir = std::env::temp_dir().join(format!("teeperf-next-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pump = Duration::from_millis(100);
    let daemon = Daemon::new(DaemonConfig {
        dir: dir.clone(),
        listen: "127.0.0.1:0".to_string(),
        pump_interval: pump,
        max_loops: Some(2),
        ..DaemonConfig::default()
    })
    .unwrap()
    .without_liveness_probe();
    let addr = daemon.addr();
    // Both waiting when the first loop starts: one asks at once, the
    // other holds its request back.
    let mut first = TcpStream::connect(addr).unwrap();
    first.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut held = TcpStream::connect(addr).unwrap();
    let (_keep_open, external) = mpsc::channel::<String>();
    let running = std::thread::spawn(move || daemon.run(&external));

    let body = body_of(&mut first);
    assert_eq!(metric(&body, "teeperf_attached_total "), 0, "{body}");
    register_session(&dir);
    let mut next = TcpStream::connect(addr).unwrap();
    next.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    // Served a whole `pump_interval` after the first loop began serving,
    // the held request is that loop's last: `next` waits for the second.
    std::thread::sleep(pump);
    held.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(body_of(&mut held), "ok\n");
    let body = body_of(&mut next);

    let report = running.join().unwrap().unwrap();
    assert_eq!((report.loops, report.requests), (2, 3));
    assert_eq!(metric(&body, "teeperf_attached_total "), 1, "{body}");
    assert_eq!(
        metric(&body, "teeperf_scans_total "),
        2,
        "one scan a loop: {body}"
    );
    assert_eq!(report.attached, vec![41]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quiet writer is not a dead one. A session whose log is still ACTIVE
/// and whose process is alive — this test's own pid, so the armed
/// liveness probe finds `/proc/<pid>` — stays attached through hundreds
/// of loops without an event, and what it writes after the silence is
/// drained like anything before it.
#[test]
fn a_quiet_live_writer_is_never_quarantined() {
    let dir = std::env::temp_dir().join(format!("teeperf-quiet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pid = u64::from(std::process::id());
    let (mut writer, events) = start_session(&dir, pid);
    for entry in &events[..3] {
        writer.write(entry).unwrap();
    }
    let daemon = Daemon::new(DaemonConfig {
        dir: dir.clone(),
        listen: "127.0.0.1:0".to_string(),
        pump_interval: Duration::from_millis(1),
        max_loops: Some(20_000),
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let (_keep_open, external) = mpsc::channel::<String>();
    let running = std::thread::spawn(move || daemon.run(&external));
    let get = |path: &str| teeperf_daemon::http::get(&addr, path, Duration::from_secs(5)).unwrap();

    // Every loop pumps the session and finds nothing: 600 of them is past
    // the 448 empty pumps (64 + 128 + 256) after which the registry's
    // default pump-count watchdog would call the writer dead.
    let metrics = loop {
        let (_, body) = get("/metrics");
        if metric(&body, "teeperf_scans_total ") >= 600 {
            break body;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        metric(&metrics, "teeperf_quarantined_total "),
        0,
        "{metrics}"
    );

    writer.write(&events[3]).unwrap();
    writer.finish().unwrap();
    let mut status = Snapshot::summary_from_text(&get("/snapshot").1).unwrap();
    for _ in 0..2_000 {
        if status.events == 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
        status = Snapshot::summary_from_text(&get("/snapshot").1).unwrap();
    }
    assert_eq!((status.events, status.open_frames), (4, 0));

    assert_eq!(get("/shutdown").0, 200);
    let report = running.join().unwrap().unwrap();
    assert_eq!(report.attached, vec![pid]);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    let _ = std::fs::remove_dir_all(&dir);
}
