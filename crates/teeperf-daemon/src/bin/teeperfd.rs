//! `teeperfd` — the fleet profiling daemon (`teeperfd --help` lists its
//! flags).
//!
//! Prints `teeperfd listening on <addr>` (with the kernel-resolved port)
//! before entering the loop, so supervisors and tests can connect without
//! racing. Shuts down on `GET /shutdown` or when stdin reaches EOF — the
//! workspace forbids `unsafe`, so there is no sigaction handler; a
//! supervisor that wants SIGTERM semantics runs the daemon with a pipe on
//! stdin and closes it (see DESIGN.md §12). Exits 0 on a clean shutdown.
//! Flags, banner and stdin watcher are [`teeperf_daemon::DAEMON`] and
//! [`teeperf_daemon::launch`], shared with `teeperf daemon`.

fn main() -> std::process::ExitCode {
    teeperf_daemon::DAEMON.main("teeperfd", |flags| {
        teeperf_daemon::launch("teeperfd", flags)
    })
}
