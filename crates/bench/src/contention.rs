//! Recorder hot-path contention: batched slot reservation × switchless
//! transitions.
//!
//! The recorder's append path has two serialization points, one on each
//! side of the enclave boundary:
//!
//! * **inside**: every event performs one fetch-and-add on the shared tail
//!   word — at high writer counts the cache line ping-pongs between cores
//!   and the RMW becomes the bottleneck. Batched reservation
//!   ([`teeperf_core::BatchWriter`]) claims a run of slots per RMW,
//!   dividing the contended operations by the batch size.
//! * **at the boundary**: a measured application that interacts with the
//!   host pays a world switch (~10k cycles on SGX v1, TLB flushed) per
//!   call. Switchless mode ([`tee_sim::TransitionMode::Switchless`])
//!   services those calls through a worker-thread mailbox instead.
//!
//! This benchmark sweeps writer threads × batch size × transition mode and
//! reports, per cell:
//!
//! * `entries_per_sec` / `wall_ms` — real wall throughput of that many OS
//!   writer threads appending into one shared log (real contention on the
//!   real protocol; the transition mode does not enter this path, so wall
//!   numbers for the two modes of one (writers, batch) pair are two
//!   honest samples of the same measurement),
//! * `modeled_cycles_per_event` — deterministic simulated cost of one
//!   recorded event for an application that performs one host call per
//!   event, under that batch size and transition mode (this is where
//!   switchless shows up: with classic transitions the world switch
//!   dominates everything the batching saves),
//! * correctness: zero drops, and the drained entries byte-identical
//!   (after sorting by writer) to the unbatched classic run of the same
//!   writer count.
//!
//! Wall speedups from batching need real parallelism; on a one-core host
//! the JSON carries an explicit note and the numbers measure protocol
//! overhead under oversubscription instead.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use tee_sim::{CostModel, Machine, SharedMem, TransitionMode};
use teeperf_core::layout::{EntryValidity, EventKind, LogEntry};
use teeperf_core::log::{make_header, region_bytes, LogCursor, SharedLog};
use teeperf_core::{Recorder, RecorderConfig};

use crate::util::render_table;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct ContentionOptions {
    /// Writer-thread counts to sweep.
    pub writers: Vec<usize>,
    /// Batch sizes (slots per tail reservation) to sweep; 1 is the classic
    /// one-RMW-per-event path.
    pub batch_slots: Vec<u64>,
    /// Entries each writer appends per wall-clock cell.
    pub entries_per_writer: u64,
    /// Events recorded in each deterministic modeled-cost run.
    pub modeled_events: u64,
    /// Wall-clock runs per cell; the minimum (least scheduler-disturbed)
    /// wall is reported and correctness is checked on every run.
    pub repeats: usize,
}

impl Default for ContentionOptions {
    fn default() -> Self {
        ContentionOptions {
            writers: vec![1, 2, 4, 8],
            batch_slots: vec![1, 8, 32, 128],
            entries_per_writer: 100_000,
            modeled_events: 2_000,
            repeats: 5,
        }
    }
}

impl ContentionOptions {
    /// A tiny grid for CI smoke runs (finishes in well under a minute on
    /// one core, still crosses batched × switchless).
    pub fn smoke() -> Self {
        ContentionOptions {
            writers: vec![1, 2],
            batch_slots: vec![1, 8],
            entries_per_writer: 10_000,
            modeled_events: 200,
            repeats: 2,
        }
    }
}

/// One grid cell's measurements.
#[derive(Debug, Clone)]
pub struct ContentionCell {
    /// OS writer threads.
    pub writers: usize,
    /// Slots per tail reservation.
    pub batch_slots: u64,
    /// Transition mode of the modeled run.
    pub mode: TransitionMode,
    /// Wall time for all writers to append their entries, milliseconds.
    pub wall_ms: f64,
    /// Aggregate wall throughput, entries per second.
    pub entries_per_sec: f64,
    /// Shared tail reservations per writer (shows the RMW amortization).
    pub reservations_per_writer: f64,
    /// Entries dropped (must be 0: the log is sized for the run).
    pub dropped: u64,
    /// Batch-run remainder slots left unpublished at writer exit.
    pub abandoned_remainder: u64,
    /// Whether the drain matches the unbatched classic drain byte-for-byte
    /// (after sorting by writer, since cross-thread interleaving is real).
    pub identical_drain: bool,
    /// Deterministic modeled cost of one recorded event (including the
    /// application's one host call per event) under this batch size and
    /// transition mode.
    pub modeled_cycles_per_event: f64,
}

/// The whole benchmark's results.
#[derive(Debug, Clone)]
pub struct ContentionResult {
    /// Cores the host reported; wall speedups cannot exceed this.
    pub host_cores: usize,
    /// Entries each writer appended per cell.
    pub entries_per_writer: u64,
    /// One cell per (writers, batch, mode).
    pub cells: Vec<ContentionCell>,
}

fn fresh_log(max_entries: u64) -> SharedLog {
    let shm = Arc::new(SharedMem::new(region_bytes(max_entries)));
    SharedLog::init(
        shm,
        &make_header(7, max_entries, true, 0x40_0000, tee_sim::SHM_BASE),
    )
}

/// The deterministic entry writer `t` appends as its `k`-th event. Counters
/// are globally unique and per-thread monotonic, so sorting a drain by
/// (tid, counter) reconstructs each thread's program order.
fn cell_entry(t: u64, k: u64, entries_per_writer: u64) -> LogEntry {
    LogEntry {
        kind: if k.is_multiple_of(2) {
            EventKind::Call
        } else {
            EventKind::Return
        },
        counter: t * entries_per_writer + k + 1,
        addr: 0x40_0000 + (k % 64) * 4,
        tid: t,
    }
}

/// Run one wall-clock cell: `writers` OS threads × `entries_per_writer`
/// appends through the real protocol. Returns (wall seconds, sorted valid
/// drain, reservations, abandoned remainder, dropped).
///
/// Each writer times its own span from the start barrier to its last
/// append and the cell's wall is the slowest writer — timing from the
/// coordinating thread would under-measure whenever the scheduler parks
/// it across the barrier release (routine on a one-core host).
fn wall_cell(
    writers: usize,
    batch: u64,
    entries_per_writer: u64,
) -> (f64, Vec<LogEntry>, u64, u64, u64) {
    // Sized so nothing drops: every reservation (including each writer's
    // final partial run) fits below capacity.
    let capacity = writers as u64 * (entries_per_writer + batch);
    let log = fresh_log(capacity);
    let barrier = Arc::new(Barrier::new(writers));
    let mut handles = Vec::with_capacity(writers);
    for t in 0..writers as u64 {
        let log = log.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut writer = log.batch_writer(batch);
            barrier.wait();
            let t0 = Instant::now();
            for k in 0..entries_per_writer {
                writer.append(&cell_entry(t, k, entries_per_writer));
            }
            let elapsed = t0.elapsed().as_secs_f64();
            (elapsed, writer.reservations(), writer.pending())
        }));
    }
    let mut wall = 0f64;
    let mut reservations = 0u64;
    let mut remainder = 0u64;
    for h in handles {
        let (elapsed, r, p) = h.join().expect("writer thread panicked");
        wall = wall.max(elapsed);
        reservations += r;
        remainder += p;
    }

    let dropped = log.dropped_total();
    let mut cursor = LogCursor::default();
    let mut drained: Vec<LogEntry> = log
        .rotate(&mut cursor)
        .entries
        .into_iter()
        .filter(|e| e.validity() == EntryValidity::Valid)
        .collect();
    drained.sort_by_key(|e| (e.tid, e.counter));
    (wall, drained, reservations, remainder, dropped)
}

/// Deterministic modeled cost per recorded event for an application doing
/// one host call per event, under `batch` and `mode`.
fn modeled_cycles_per_event(batch: u64, mode: TransitionMode, events: u64) -> f64 {
    let config = RecorderConfig {
        max_entries: events + batch,
        pid: 7,
        batch_slots: batch,
        ..RecorderConfig::default()
    };
    let recorder = Recorder::new(&config);
    let mut machine = Machine::new(CostModel::sgx_v1().with_transition_mode(mode));
    recorder.attach(&mut machine);
    machine.ecall();
    let mut hooks = recorder.sim_hooks(machine.clock().clone());
    let t0 = machine.clock().now();
    for k in 0..events {
        machine.ocall(); // the application's host interaction
        let kind = if k.is_multiple_of(2) {
            EventKind::Call
        } else {
            EventKind::Return
        };
        hooks.record(&mut machine, kind, 0x40_0000 + (k % 64) * 4, 0);
    }
    let cycles = machine.clock().now() - t0;
    let file = recorder.finish();
    assert_eq!(
        file.entries.len() as u64,
        events,
        "modeled run must record every event"
    );
    assert_eq!(file.header.dropped_entries(), 0);
    cycles as f64 / events as f64
}

/// Run the whole grid.
pub fn run_contention_bench(options: &ContentionOptions) -> ContentionResult {
    let mut cells = Vec::new();
    // Classic unbatched drains, keyed by writer count — the identity
    // baseline every other cell of that writer count must reproduce.
    let mut baselines: BTreeMap<usize, Vec<LogEntry>> = BTreeMap::new();
    for &writers in &options.writers {
        for &batch in &options.batch_slots {
            for mode in TransitionMode::ALL {
                // Best of `repeats` runs: wall numbers on a loaded (or
                // one-core) host are scheduler-noisy, and the minimum is
                // the least-disturbed sample. Correctness is re-checked on
                // every repeat.
                let mut best: Option<(f64, Vec<LogEntry>, u64, u64)> = None;
                let mut dropped = 0u64;
                let mut repeats_agree = true;
                for _ in 0..options.repeats.max(1) {
                    let (wall, drained, reservations, remainder, run_dropped) =
                        wall_cell(writers, batch, options.entries_per_writer);
                    dropped = dropped.max(run_dropped);
                    match &mut best {
                        None => best = Some((wall, drained, reservations, remainder)),
                        Some((w, d, ..)) => {
                            repeats_agree &= *d == drained;
                            if wall < *w {
                                best = Some((wall, drained, reservations, remainder));
                            }
                        }
                    }
                }
                let (wall, drained, reservations, remainder) =
                    best.expect("at least one repeat ran");
                let baseline = baselines.entry(writers).or_insert_with(|| drained.clone());
                let total = writers as u64 * options.entries_per_writer;
                cells.push(ContentionCell {
                    writers,
                    batch_slots: batch,
                    mode,
                    wall_ms: wall * 1e3,
                    entries_per_sec: total as f64 / wall.max(1e-9),
                    reservations_per_writer: reservations as f64 / writers as f64,
                    dropped,
                    abandoned_remainder: remainder,
                    identical_drain: repeats_agree && *baseline == drained,
                    modeled_cycles_per_event: modeled_cycles_per_event(
                        batch,
                        mode,
                        options.modeled_events,
                    ),
                });
            }
        }
    }
    ContentionResult {
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        entries_per_writer: options.entries_per_writer,
        cells,
    }
}

impl ContentionResult {
    /// First correctness failure in the grid, if any: a dropped entry or a
    /// drain that differs from the unbatched classic drain.
    pub fn check(&self) -> Result<(), String> {
        for c in &self.cells {
            if c.dropped != 0 {
                return Err(format!(
                    "writers={} batch={} mode={}: {} entries dropped",
                    c.writers, c.batch_slots, c.mode, c.dropped
                ));
            }
            if !c.identical_drain {
                return Err(format!(
                    "writers={} batch={} mode={}: drain differs from the unbatched run",
                    c.writers, c.batch_slots, c.mode
                ));
            }
        }
        Ok(())
    }

    /// Wall-throughput ratio of (writers, batch, classic) over the
    /// unbatched classic cell of the same writer count.
    pub fn batched_speedup(&self, writers: usize, batch: u64) -> Option<f64> {
        let rate = |b: u64| {
            self.cells
                .iter()
                .find(|c| {
                    c.writers == writers && c.batch_slots == b && c.mode == TransitionMode::Classic
                })
                .map(|c| c.entries_per_sec)
        };
        Some(rate(batch)? / rate(1)?.max(1e-9))
    }

    /// The machine-readable artifact (`results/BENCH_record_contention.json`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"record_contention\",");
        let _ = writeln!(s, "  \"host_cores\": {},", self.host_cores);
        if self.host_cores < 4 {
            let _ = writeln!(
                s,
                "  \"note\": \"host has {} core{}; the batched-vs-unbatched wall speedup \
                 target (>=1.5x at >=4 writers) needs a multicore host — wall numbers here \
                 measure protocol overhead under oversubscription, and \
                 modeled_cycles_per_event carries the deterministic comparison\",",
                self.host_cores,
                if self.host_cores == 1 { "" } else { "s" }
            );
        }
        let _ = writeln!(s, "  \"entries_per_writer\": {},", self.entries_per_writer);
        let _ = writeln!(s, "  \"grid\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"writers\": {}, \"batch_slots\": {}, \"mode\": \"{}\", \
                 \"wall_ms\": {:.3}, \"entries_per_sec\": {:.1}, \
                 \"reservations_per_writer\": {:.1}, \"dropped\": {}, \
                 \"abandoned_remainder\": {}, \"identical_drain\": {}, \
                 \"modeled_cycles_per_event\": {:.1}}}",
                c.writers,
                c.batch_slots,
                c.mode,
                c.wall_ms,
                c.entries_per_sec,
                c.reservations_per_writer,
                c.dropped,
                c.abandoned_remainder,
                c.identical_drain,
                c.modeled_cycles_per_event,
            );
            let _ = writeln!(s, "{}", if i + 1 < self.cells.len() { "," } else { "" });
        }
        let _ = writeln!(s, "  ]");
        s.push_str("}\n");
        s
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let body: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.writers.to_string(),
                    c.batch_slots.to_string(),
                    c.mode.to_string(),
                    format!("{:.1}", c.wall_ms),
                    format!("{:.0}", c.entries_per_sec),
                    format!("{:.1}", c.reservations_per_writer),
                    format!("{:.1}", c.modeled_cycles_per_event),
                    if c.dropped == 0 && c.identical_drain {
                        "yes"
                    } else {
                        "NO"
                    }
                    .to_string(),
                ]
            })
            .collect();
        let mut out = format!(
            "Recorder contention — batched reservation x transition mode \
             ({} host core{})\n\n",
            self.host_cores,
            if self.host_cores == 1 { "" } else { "s" }
        );
        out.push_str(&render_table(
            &[
                "writers",
                "batch",
                "mode",
                "wall ms",
                "entries/s",
                "rmw/writer",
                "cyc/event",
                "exact",
            ],
            &body,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_is_exact_and_amortizes_the_tail_rmw() {
        let options = ContentionOptions {
            writers: vec![1, 2],
            batch_slots: vec![1, 8],
            entries_per_writer: 2_000,
            modeled_events: 64,
            repeats: 1,
        };
        let result = run_contention_bench(&options);
        result.check().expect("zero drops, byte-identical drains");
        assert_eq!(result.cells.len(), 2 * 2 * 2);
        let batched = result
            .cells
            .iter()
            .find(|c| c.writers == 2 && c.batch_slots == 8)
            .unwrap();
        assert!(
            batched.reservations_per_writer <= 2_000.0 / 8.0 + 1.0,
            "8-slot batching must divide the tail RMWs by 8, got {}",
            batched.reservations_per_writer
        );
    }

    #[test]
    fn switchless_modeled_cost_undercuts_classic() {
        let classic = modeled_cycles_per_event(8, TransitionMode::Classic, 64);
        let switchless = modeled_cycles_per_event(8, TransitionMode::Switchless, 64);
        assert!(
            switchless * 2.0 < classic,
            "switchless ({switchless}) vs classic ({classic})"
        );
    }

    #[test]
    fn batching_amortization_is_visible_once_transitions_are_switchless() {
        // Under classic transitions the world switch drowns the tail RMW;
        // switchless is what makes batching matter on the modeled path.
        let unbatched = modeled_cycles_per_event(1, TransitionMode::Switchless, 64);
        let batched = modeled_cycles_per_event(64, TransitionMode::Switchless, 64);
        assert!(
            batched < unbatched,
            "batched ({batched}) must undercut unbatched ({unbatched})"
        );
    }
}
