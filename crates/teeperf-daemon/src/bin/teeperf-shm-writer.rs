//! `teeperf-shm-writer` — a scripted writer process for the file-backed
//! transport. The e2e tests and the CI smoke stage spawn several of these
//! as real OS child processes; each registers `<pid>.tplog` (+ `<pid>.sym`)
//! in the shared directory and publishes a deterministic `main → work →
//! leaf` call tree, one slot write per event, the tail stored by the
//! log's own publisher thread (it never flushes).
//! `--tids a,b,…` deals the rounds out over those threads in turn, `main`'s
//! call and return on the first (default: every entry on thread 0).
//!
//! `teeperf-shm-writer --help` lists the flags.
//!
//! `--hold` keeps the process alive (log ACTIVE, nothing more published)
//! until it is killed — the scripted stand-in for a long-running writer
//! gone quiet, which the daemon must keep attached, and, once killed, for
//! a crashed one, which its liveness probe must quarantine.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use mcvm::DebugInfo;
use teeperf_core::layout::{EventKind, LogEntry};
use teeperf_core::log::make_header;
use teeperf_core::shm_file::{publish_sidecar, FileShmWriter, SYM_EXT};
use teeperf_daemon::flags::{Command, Flag, Parsed};

struct Args {
    dir: PathBuf,
    pid: u64,
    iterations: u64,
    tids: Vec<u64>,
    capacity: u64,
    interval: Duration,
    hold: bool,
    finish: bool,
    sym: bool,
}

const WRITER: Command = Command {
    operands: "",
    about: "register <pid>.tplog (+ <pid>.sym) in a directory and publish a scripted \
            main -> work -> leaf call tree through the file-backed shared log",
    groups: &[&[
        Flag::value("dir", "<dir>", "registration directory (required)"),
        Flag::value("pid", "<n>", "register as this pid (default: own)"),
        Flag::value("iterations", "<n>", "call-tree rounds (default 10)"),
        Flag::value(
            "tids",
            "<a,b,...>",
            "threads the rounds are dealt to in turn, main on the first (default 0)",
        ),
        Flag::value("capacity", "<n>", "log entries (default 4096)"),
        Flag::value("interval-ms", "<n>", "sleep between rounds"),
        Flag::switch("hold", "stay alive, log ACTIVE, until killed"),
        Flag::switch("no-finish", "exit without marking the log finished"),
        Flag::switch("no-sym", "publish no symbol sidecar"),
    ]],
};

fn args(parsed: &Parsed) -> Result<Args, String> {
    Ok(Args {
        dir: parsed.path("dir").ok_or("--dir is required")?,
        pid: parsed.num("pid")?.unwrap_or(u64::from(std::process::id())),
        iterations: parsed.num("iterations")?.unwrap_or(10),
        tids: match parsed.text("tids") {
            None => vec![0],
            Some(list) => list
                .split(',')
                .map(|tid| tid.parse().map_err(|_| format!("bad --tids entry '{tid}'")))
                .collect::<Result<_, _>>()?,
        },
        capacity: parsed.num("capacity")?.unwrap_or(4096),
        interval: Duration::from_millis(parsed.num("interval-ms")?.unwrap_or(0)),
        hold: parsed.switch("hold"),
        finish: !parsed.switch("no-finish"),
        sym: !parsed.switch("no-sym"),
    })
}

/// The fixed synthetic workload: `main` calls `work` once per iteration,
/// `work` calls `leaf`. Tick layout per iteration: `work` spans 10 ticks
/// inclusive of `leaf`'s 4, plus 2 of `main`'s own between calls — 12 per
/// iteration — and `main`'s final bookend tick, so per-pid totals are
/// exactly predictable: `total_ticks = 12 * iterations + 1` on one thread.
/// Round `i` runs on `tids[i % tids.len()]`, so on every thread but the
/// first, `work` is a top-level call.
fn run(args: &Args) -> Result<(), String> {
    let debug = DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5), ("leaf", 4, 9)]);
    if args.sym {
        publish_sidecar(&args.dir, args.pid, SYM_EXT, &debug.to_text())
            .map_err(|e| format!("publish sidecar: {e}"))?;
    }
    let header = make_header(args.pid, args.capacity, true, 0, 0);
    let mut w =
        FileShmWriter::create(&args.dir, &header).map_err(|e| format!("create log: {e}"))?;
    let (main_a, work_a, leaf_a) = (
        debug.entry_addr(0),
        debug.entry_addr(1),
        debug.entry_addr(2),
    );
    let mut write = |kind: EventKind, counter: u64, addr: u64, tid: u64| {
        w.write(&LogEntry {
            kind,
            counter,
            addr,
            tid,
        })
        .map(|_| ())
        .map_err(|e| format!("write: {e}"))
    };
    let main_tid = args.tids[0];
    let mut t = 1;
    write(EventKind::Call, t, main_a, main_tid)?;
    for tid in args.tids.iter().cycle().take(args.iterations as usize) {
        t += 1;
        write(EventKind::Call, t, work_a, *tid)?;
        t += 3;
        write(EventKind::Call, t, leaf_a, *tid)?;
        t += 4;
        write(EventKind::Return, t, leaf_a, *tid)?;
        t += 3;
        write(EventKind::Return, t, work_a, *tid)?;
        t += 1;
        if !args.interval.is_zero() {
            std::thread::sleep(args.interval);
        }
    }
    t += 1;
    write(EventKind::Return, t, main_a, main_tid)?;
    if args.hold {
        // Stay alive with the log still ACTIVE until killed: the scripted
        // crashed/hung writer. (Sleep-loop, not park: no wakeups wanted.)
        loop {
            std::thread::sleep(Duration::from_millis(200));
        }
    }
    if args.finish {
        w.finish().map_err(|e| format!("finish: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    WRITER.main("teeperf-shm-writer", |flags| {
        let args = args(flags).map_err(|m| (2, format!("teeperf-shm-writer: {m}")))?;
        run(&args).map_err(|m| (1, format!("teeperf-shm-writer: {m}")))?;
        Ok(format!("teeperf-shm-writer: pid {} done\n", args.pid))
    })
}
