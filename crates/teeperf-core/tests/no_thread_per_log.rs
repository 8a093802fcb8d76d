//! A log costs its writer process no thread: opening 64 file-backed
//! writers leaves the process's thread count as it was.
//!
//! Alone in its own test binary, so no other test starts or ends a thread
//! while this one counts.

use std::path::PathBuf;

use teeperf_core::log::make_header;
use teeperf_core::FileShmWriter;

/// Threads of this process: the entries of `/proc/self/task`.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("per-thread entries")
        .count()
}

/// A scratch registration dir, removed on drop.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn opening_64_writers_starts_no_thread() {
    let dir =
        ScratchDir(std::env::temp_dir().join(format!("teeperf-nothreads-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("create scratch dir");
    let before = threads();
    let writers: Vec<FileShmWriter> = (1..=64)
        .map(|pid| FileShmWriter::create(&dir.0, &make_header(pid, 8, false, 0, 0)).unwrap())
        .collect();
    assert_eq!(threads(), before, "a thread per log");
    drop(writers);
    assert_eq!(threads(), before);
}
