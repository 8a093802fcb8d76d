//! The hammer for the file transport's one cross-process assumption
//! (`teeperf_core::shm_file` module docs): a slot write that completed
//! before the tail store of the same process is visible to whoever
//! observes that tail, and the 8-byte tail word is never observed torn.
//!
//! A real `teeperf-shm-writer` process appends a million entries to a log
//! on tmpfs at full speed while this process pumps the file in a tight
//! loop, so nearly every pump races an append in flight. Any slot read
//! before its bytes landed would classify as unpublished or torn (a dirty
//! salvage report) or break the counter order.

use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use teeperf_core::shm_file::{default_shm_dir, log_path};
use teeperf_core::{EventSource, FileShmSource, SalvageReport, SourceState};

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
        eprintln!("stress test hung for 120s: {label}");
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

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_full_speed_writer_process_never_shows_the_reader_an_incomplete_slot() {
    const ITERATIONS: u64 = 250_000;
    const EVENTS: u64 = 2 + 4 * ITERATIONS;
    let _guard = hang_guard("file-transport-stress");
    let dir = ScratchDir(default_shm_dir().join(format!("teeperf-stress-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).expect("create scratch dir");

    let mut writer = Command::new(env!("CARGO_BIN_EXE_teeperf-shm-writer"))
        .arg("--dir")
        .arg(&dir.0)
        .args(["--iterations", &ITERATIONS.to_string()])
        .args(["--capacity", &EVENTS.to_string()])
        .arg("--no-sym")
        .spawn()
        .expect("spawn teeperf-shm-writer");
    // The rename is the registration: once the name exists the header is
    // complete, so attach as early as that.
    let path = log_path(&dir.0, u64::from(writer.id()));
    while !path.exists() {
        assert!(
            writer.try_wait().expect("poll writer").is_none(),
            "writer exited without registering a log"
        );
        std::thread::yield_now();
    }
    let mut source = FileShmSource::open(&path).expect("attach to the registered log");

    let (mut seen, mut last, mut racing_pumps) = (0u64, 0u64, 0u64);
    let (mut state, mut salvage) = (SourceState::default(), SalvageReport::default());
    while !state.exhausted {
        let batch = source.pump();
        salvage.absorb(&batch.salvaged);
        state = batch.state;
        assert!(!state.dead, "{salvage:?}");
        racing_pumps += u64::from(!batch.entries.is_empty() && !source.writer_finished());
        for entry in &batch.entries {
            assert!(
                entry.counter > last,
                "entry {seen}: counter {} after {last}",
                entry.counter
            );
            last = entry.counter;
        }
        seen += batch.entries.len() as u64;
    }
    assert!(writer.wait().expect("wait writer").success());
    assert_eq!(seen, EVENTS);
    assert!(salvage.is_clean(), "{salvage:?}");
    assert_eq!(state.dropped_total, 0);
    assert!(
        racing_pumps > 1,
        "the reader never overlapped the writer ({racing_pumps} racing pumps): nothing was hammered"
    );
}
