//! The system under test as the harness sees it: a real `teeperfd` child
//! process and the registration directory it watches.

use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::procfs;

/// A registration directory unique to this process, removed on drop —
/// which covers every exit path that unwinds, a panic included.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

const SCRATCH_PREFIX: &str = "teeperf-bench-";

impl ScratchDir {
    /// Create `<parent>/teeperf-bench-<pid>`, after removing the
    /// directories that killed runs (whose pid is gone) left in `parent`.
    pub fn create(parent: &Path) -> io::Result<ScratchDir> {
        for entry in std::fs::read_dir(parent)?.flatten() {
            let name = entry.file_name();
            let stale = name
                .to_str()
                .and_then(|n| n.strip_prefix(SCRATCH_PREFIX))
                .is_some_and(|pid| !Path::new("/proc").join(pid).exists());
            if stale {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let dir = parent.join(format!("{SCRATCH_PREFIX}{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What `teeperfd` prints when it exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitSummary {
    pub loops: u64,
    pub requests: u64,
}

/// Parse the `loops <n> requests <m>` line of the daemon's exit summary.
pub fn parse_exit_summary(text: &str) -> Option<ExitSummary> {
    text.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        match (words.next()?, words.next()?, words.next()?, words.next()?) {
            ("loops", loops, "requests", requests) => Some(ExitSummary {
                loops: loops.parse().ok()?,
                requests: requests.parse().ok()?,
            }),
            _ => None,
        }
    })
}

/// A running `teeperfd`. Dropping it kills the child, so no exit path of
/// the harness leaves a daemon behind.
#[derive(Debug)]
pub struct DaemonChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: String,
    flags: Vec<String>,
    spawned: Instant,
}

impl DaemonChild {
    /// Start `teeperfd` at its default cadence over `dir` and wait for its
    /// `listening on` line. The liveness probe is off only because
    /// sessions register under synthetic pids.
    pub fn spawn(bin: &Path, dir: &Path, extra_flags: &[&str]) -> io::Result<DaemonChild> {
        let mut flags: Vec<String> = vec![
            "--dir".into(),
            dir.display().to_string(),
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--no-liveness-probe".into(),
        ];
        flags.extend(extra_flags.iter().map(|f| (*f).to_string()));
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(&flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawning {}: {e}", bin.display())))?;
        // From here on dropping `daemon` reaps the child, whatever fails.
        let mut daemon = DaemonChild {
            stdin: child.stdin.take(),
            stdout: BufReader::new(child.stdout.take().expect("stdout was piped")),
            child,
            addr: String::new(),
            flags,
            spawned,
        };
        let mut announcement = String::new();
        daemon.stdout.read_line(&mut announcement)?;
        daemon.addr = announcement
            .trim()
            .strip_prefix("teeperfd listening on ")
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("teeperfd did not announce its address, said {announcement:?}"),
                )
            })?
            .to_string();
        Ok(daemon)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The flags the daemon was started with (for the result header).
    pub fn flags(&self) -> &[String] {
        &self.flags
    }

    /// CPU seconds the daemon has used so far.
    pub fn cpu_s(&self) -> io::Result<f64> {
        procfs::read_cpu_s(self.pid())
    }

    pub fn stat(&self) -> io::Result<procfs::PidStat> {
        procfs::read_pid_stat(self.pid())
    }

    /// Close the daemon's stdin — its graceful-shutdown trigger — wait for
    /// it to exit, and return its summary and its lifetime.
    pub fn shutdown(mut self) -> io::Result<(ExitSummary, Duration)> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "teeperfd did not exit within 10 s of stdin closing",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let lifetime = self.spawned.elapsed();
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        if !status.success() {
            return Err(io::Error::other(format!("teeperfd exited with {status}")));
        }
        let summary = parse_exit_summary(&rest).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("no `loops … requests …` line in teeperfd's summary: {rest:?}"),
            )
        })?;
        Ok((summary, lifetime))
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        // After a clean `shutdown` the child is already reaped and both
        // calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
