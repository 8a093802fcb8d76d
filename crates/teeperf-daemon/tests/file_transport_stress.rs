//! The hammer for the file transport's one cross-process assumption
//! (`teeperf_core::shm_file` module docs): a slot write that happened
//! before the tail store of the same process — the writer's own publisher
//! thread stores the tail — is visible to whoever observes that tail, and
//! the 8-byte tail word is never observed torn.
//!
//! A real `teeperf-shm-writer` process appends a million entries to a log
//! on tmpfs at full speed while this process pumps the file in a tight
//! loop, so nearly every pump races an append in flight. Any slot read
//! before its bytes landed would classify as unpublished or torn (a dirty
//! salvage report) or break the counter order. A second writer pauses
//! between bursts and never flushes: its publisher alone must show the
//! reader each burst while the writer sleeps.

use std::path::PathBuf;
use std::process::{Child, Command};
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

/// The log `writer` registers in `dir`, attached as soon as its name
/// exists: the rename is the registration, so the header is complete.
fn attach(dir: &ScratchDir, writer: &mut Child) -> FileShmSource {
    let path = log_path(&dir.0, u64::from(writer.id()));
    while !path.exists() {
        assert!(
            writer.try_wait().expect("poll writer").is_none(),
            "writer exited without registering a log"
        );
        std::thread::yield_now();
    }
    FileShmSource::open(&path).expect("attach to the registered log")
}

fn scratch(label: &str) -> ScratchDir {
    let dir = ScratchDir(default_shm_dir().join(format!("teeperf-{label}-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).expect("create scratch dir");
    dir
}

/// A `teeperf-shm-writer` of `iterations` rounds into `dir`, no sidecar.
fn spawn_writer(dir: &ScratchDir, iterations: u64, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_teeperf-shm-writer"))
        .arg("--dir")
        .arg(&dir.0)
        .args(["--iterations", &iterations.to_string()])
        .args(["--capacity", &(2 + 4 * iterations).to_string()])
        .arg("--no-sym")
        .args(extra)
        .spawn()
        .expect("spawn teeperf-shm-writer")
}

#[test]
fn a_full_speed_writer_process_never_shows_the_reader_an_incomplete_slot() {
    const ITERATIONS: u64 = 250_000;
    const EVENTS: u64 = 2 + 4 * ITERATIONS;
    let _guard = hang_guard("file-transport-stress");
    let dir = scratch("stress");
    let mut writer = spawn_writer(&dir, ITERATIONS, &[]);
    let mut source = attach(&dir, &mut writer);

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

/// A writer process that sleeps 400 ms after each round of four events and
/// never flushes before `finish()`: the reader, pumping once a millisecond,
/// reaches each burst's count while the writer is asleep and still active,
/// then drains every entry exactly once, in order.
#[test]
fn a_pausing_writer_process_publishes_each_burst_while_it_sleeps() {
    const BURSTS: u64 = 5;
    let _guard = hang_guard("file-transport-bursts");
    let dir = scratch("bursts");
    let mut writer = spawn_writer(&dir, BURSTS, &["--interval-ms", "400"]);
    let mut source = attach(&dir, &mut writer);

    // Burst k ends at main's call plus k rounds; the last event, main's
    // return, comes with `finish()`.
    let burst_ends: Vec<u64> = (1..=BURSTS).map(|k| 1 + 4 * k).collect();
    let (mut seen, mut last, mut reached) = (0u64, 0u64, Vec::new());
    let (mut state, mut salvage) = (SourceState::default(), SalvageReport::default());
    while !state.exhausted {
        let batch = source.pump();
        salvage.absorb(&batch.salvaged);
        state = batch.state;
        assert!(!state.dead, "{salvage:?}");
        for entry in &batch.entries {
            assert!(
                entry.counter > last,
                "counter {} after {last}",
                entry.counter
            );
            last = entry.counter;
        }
        seen += batch.entries.len() as u64;
        let paused = !source.writer_finished() && burst_ends.contains(&seen);
        if paused && reached.last() != Some(&seen) {
            reached.push(seen);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(writer.wait().expect("wait writer").success());
    assert_eq!(reached, burst_ends, "a burst the reader saw only after it");
    assert_eq!(seen, 2 + 4 * BURSTS);
    assert!(salvage.is_clean(), "{salvage:?}");
    assert_eq!(state.dropped_total, 0);
}
