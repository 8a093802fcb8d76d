//! `teeperfd` — the fleet profiling daemon.
//!
//! ```text
//! teeperfd --dir /dev/shm/teeperf --listen 127.0.0.1:7071 \
//!          [--snapshot-out FILE] [--pump-ms N] [--scan-every N] [--max-loops N]
//! ```
//!
//! Prints `teeperfd listening on <addr>` (with the kernel-resolved port)
//! before entering the loop, so supervisors and tests can connect without
//! racing. Shuts down on `GET /shutdown` or when stdin reaches EOF — the
//! workspace forbids `unsafe`, so there is no sigaction handler; a
//! supervisor that wants SIGTERM semantics runs the daemon with a pipe on
//! stdin and closes it (see DESIGN.md §12). Exits 0 on a clean shutdown.
//! Flags, banner and stdin watcher are [`teeperf_daemon::launch`], shared
//! with `teeperf daemon`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match teeperf_daemon::launch("teeperfd", &args) {
        Ok(summary) => {
            print!("{summary}");
            ExitCode::SUCCESS
        }
        Err((code, message)) => {
            eprintln!("{message}");
            ExitCode::from(code)
        }
    }
}
