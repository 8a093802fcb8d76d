//! The two `/proc` files the benchmark reads: a process's CPU time and
//! resident size, and this process's own read/write system-call counts.

use std::io;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux this runs on; there is no safe std call for `sysconf`).
const TICKS_PER_S: f64 = 100.0;
const PAGE_BYTES: u64 = 4096;

/// CPU time and resident size out of `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PidStat {
    /// `utime + stime`, in clock ticks.
    pub cpu_ticks: u64,
    /// Resident set size in bytes.
    pub rss_bytes: u64,
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_pid_stat(text: &str) -> Option<PidStat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime, stime and rss are fields
    // 14, 15 and 24.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(PidStat {
        cpu_ticks: field(14)? + field(15)?,
        rss_bytes: field(24)? * PAGE_BYTES,
    })
}

/// `syscr` and `syscw` out of `/proc/<pid>/io`.
pub fn parse_io(text: &str) -> Option<(u64, u64)> {
    let value = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.trim().parse::<u64>().ok())
    };
    Some((value("syscr:")?, value("syscw:")?))
}

/// `se.sum_exec_runtime` out of `/proc/<pid>/sched`: the main thread's
/// CPU time in milliseconds, to the nanosecond where the kernel keeps
/// scheduler statistics.
pub fn parse_sched_runtime_ms(text: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (key, value) = l.split_once(':')?;
        (key.trim() == "se.sum_exec_runtime").then(|| value.trim().parse().ok())?
    })
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparseable {what}"))
}

/// Read and parse `/proc/<pid>/stat`.
pub fn read_pid_stat(pid: u32) -> io::Result<PidStat> {
    let path = format!("/proc/{pid}/stat");
    parse_pid_stat(&std::fs::read_to_string(&path)?).ok_or_else(|| invalid(&path))
}

/// CPU seconds of process `pid` so far: its main thread's from
/// `/proc/<pid>/sched` where that exists (`teeperfd` does all its work on
/// one thread), else `utime + stime` in whole clock ticks.
pub fn read_cpu_s(pid: u32) -> io::Result<f64> {
    let precise = std::fs::read_to_string(format!("/proc/{pid}/sched"))
        .ok()
        .and_then(|text| parse_sched_runtime_ms(&text));
    match precise {
        Some(ms) => Ok(ms / 1e3),
        None => Ok(read_pid_stat(pid)?.cpu_ticks as f64 / TICKS_PER_S),
    }
}

/// Read system calls made so far by this process as `(syscr, syscw)`.
pub fn read_self_io() -> io::Result<(u64, u64)> {
    parse_io(&std::fs::read_to_string("/proc/self/io")?).ok_or_else(|| invalid("/proc/self/io"))
}
