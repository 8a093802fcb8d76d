//! `teeperf-shm-writer` — a scripted writer process for the file-backed
//! transport. The e2e tests and the CI smoke stage spawn several of these
//! as real OS child processes; each registers `<pid>.tplog` (+ `<pid>.sym`)
//! in the shared directory and publishes a deterministic `main → work →
//! leaf` call tree, one slot write and one tail store per event.
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
/// exactly predictable: `total_ticks = 12 * iterations + 1`.
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
    let mut write = |kind: EventKind, counter: u64, addr: u64| {
        w.write(&LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        })
        .map(|_| ())
        .map_err(|e| format!("write: {e}"))
    };
    let mut t = 1;
    write(EventKind::Call, t, main_a)?;
    for _ in 0..args.iterations {
        t += 1;
        write(EventKind::Call, t, work_a)?;
        t += 3;
        write(EventKind::Call, t, leaf_a)?;
        t += 4;
        write(EventKind::Return, t, leaf_a)?;
        t += 3;
        write(EventKind::Return, t, work_a)?;
        t += 1;
        if !args.interval.is_zero() {
            std::thread::sleep(args.interval);
        }
    }
    t += 1;
    write(EventKind::Return, t, main_a)?;
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
