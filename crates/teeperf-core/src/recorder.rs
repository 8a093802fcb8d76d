//! The recorder wrapper (paper Figure 3): the host-side process that sets
//! up the shared memory, initializes the log, provides the counter, and
//! drains the log to persistent storage after measurement.

use std::sync::Arc;

use tee_sim::{Clock, Machine, SharedMem, SHM_BASE};

use crate::counter::{CounterSource, SimCounter, SpinCounter};
use crate::file::LogFile;
use crate::hooks::TeePerfHooks;
use crate::log::{make_header, region_bytes, SharedLog};

/// Configuration of one recording session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Log capacity in entries (each 24 bytes of untrusted memory).
    pub max_entries: u64,
    /// Process id stamped into the header (defaults to the recording
    /// process's real id; a session registry keys its sources by this
    /// word, so simulated multi-process runs override it per "process").
    pub pid: u64,
    /// Whether the application is multithreaded (sets the header bit).
    pub multithread: bool,
    /// Address of the profiler anchor function (from debug info), used by
    /// the analyzer to compute the relocation offset.
    pub anchor: u64,
    /// Log slots claimed per shared tail fetch-and-add in the hooks this
    /// recorder builds (see [`crate::batch`]); `1` is the paper's one RMW
    /// per event.
    pub batch_slots: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            max_entries: 1 << 20,
            pid: u64::from(std::process::id()),
            multithread: true,
            anchor: tee_sim::ENCLAVE_TEXT_BASE,
            batch_slots: 1,
        }
    }
}

/// A live recording session.
///
/// ```
/// use teeperf_core::{Recorder, RecorderConfig};
/// use tee_sim::{CostModel, Machine};
///
/// let recorder = Recorder::new(&RecorderConfig::default());
/// let mut machine = Machine::new(CostModel::sgx_v1());
/// recorder.attach(&mut machine);
/// let hooks = recorder.sim_hooks(machine.clock().clone());
/// // ... install `hooks` into the instrumented application, run it ...
/// let log_file = recorder.finish();
/// assert_eq!(log_file.entries.len(), 0);
/// ```
#[derive(Debug)]
pub struct Recorder {
    log: SharedLog,
    batch_slots: u64,
}

impl Recorder {
    /// Allocate the shared region and initialize the log to a known state.
    pub fn new(config: &RecorderConfig) -> Recorder {
        let shm = Arc::new(SharedMem::new(region_bytes(config.max_entries)));
        let log = SharedLog::init(
            shm,
            &make_header(
                config.pid,
                config.max_entries,
                config.multithread,
                config.anchor,
                SHM_BASE,
            ),
        );
        Recorder {
            log,
            batch_slots: config.batch_slots.max(1),
        }
    }

    /// The shared log (both sides of the mapping use the same handle).
    pub fn log(&self) -> &SharedLog {
        &self.log
    }

    /// Map the shared region into the measured application's machine — the
    /// paper's "the library maps the shared memory region into the measured
    /// application's address space".
    pub fn attach(&self, machine: &mut Machine) {
        machine.map_shared(Arc::clone(self.log.shm()));
    }

    /// Hooks timestamped by the deterministic simulated software counter
    /// (used for all figures).
    pub fn sim_hooks(&self, clock: Clock) -> TeePerfHooks {
        TeePerfHooks::new(self.log.clone(), Box::new(SimCounter::standard(clock)))
            .with_batch_slots(self.batch_slots)
    }

    /// Hooks with an explicit counter source.
    pub fn hooks_with(&self, counter: Box<dyn CounterSource>) -> TeePerfHooks {
        TeePerfHooks::new(self.log.clone(), counter).with_batch_slots(self.batch_slots)
    }

    /// Start a real spin-thread software counter over this log (sacrifices
    /// a host core until dropped). Non-deterministic; not used by figures.
    pub fn start_spin_counter(&self) -> SpinCounter {
        SpinCounter::start(self.log.clone())
    }

    /// Dynamically pause recording.
    pub fn pause(&self) {
        self.log.set_active(false);
    }

    /// Dynamically resume recording.
    pub fn resume(&self) {
        self.log.set_active(true);
    }

    /// Stop measurement and drain the log to a persistent [`LogFile`].
    ///
    /// In batched mode the stored range may end in unpublished holes (the
    /// remainder of each writer's last reserved run); those carry no event,
    /// so they are squeezed out and the header rewritten to the published
    /// count — the drop accounting is preserved in the rewritten tail.
    pub fn finish(&self) -> LogFile {
        self.log.set_active(false);
        if self.batch_slots <= 1 {
            return LogFile::new(self.log.header(), self.log.drain_entries());
        }
        let entries: Vec<_> = self
            .log
            .drain_entries()
            .into_iter()
            .filter(|e| e.validity() == crate::layout::EntryValidity::Valid)
            .collect();
        let mut h = self.log.header();
        let dropped = self.log.dropped_total();
        h.size = (entries.len() as u64).max(1);
        h.tail = entries.len() as u64 + dropped;
        LogFile::new(h, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EventKind;
    use tee_sim::CostModel;

    #[test]
    fn fresh_recorder_yields_empty_log() {
        let r = Recorder::new(&RecorderConfig::default());
        let f = r.finish();
        assert!(f.entries.is_empty());
        assert_eq!(f.header.pid, u64::from(std::process::id()));
        assert_ne!(f.header.pid, 0, "real pid must be stamped");
        assert!(!f.header.active, "finish must deactivate");
    }

    #[test]
    fn end_to_end_record_and_drain() {
        let config = RecorderConfig {
            max_entries: 16,
            pid: 9,
            ..RecorderConfig::default()
        };
        let r = Recorder::new(&config);
        let mut machine = Machine::new(CostModel::sgx_v1());
        r.attach(&mut machine);
        machine.ecall();
        let mut hooks = r.sim_hooks(machine.clock().clone());
        hooks.record(&mut machine, EventKind::Call, 0x40_0000, 0);
        machine.compute(1_000);
        hooks.record(&mut machine, EventKind::Return, 0x40_0000, 0);
        let f = r.finish();
        assert_eq!(f.entries.len(), 2);
        assert!(f.entries[1].counter > f.entries[0].counter);
        assert_eq!(f.header.pid, 9);
    }

    #[test]
    fn pause_resume_controls_recording() {
        let r = Recorder::new(&RecorderConfig {
            max_entries: 16,
            ..RecorderConfig::default()
        });
        let mut machine = Machine::new(CostModel::sgx_v1());
        r.attach(&mut machine);
        machine.ecall();
        let mut hooks = r.sim_hooks(machine.clock().clone());
        hooks.record(&mut machine, EventKind::Call, 1, 0);
        r.pause();
        hooks.record(&mut machine, EventKind::Call, 2, 0);
        r.resume();
        hooks.record(&mut machine, EventKind::Call, 3, 0);
        let f = r.finish();
        let addrs: Vec<u64> = f.entries.iter().map(|e| e.addr).collect();
        assert_eq!(addrs, vec![1, 3]);
    }

    #[test]
    fn batched_finish_squeezes_out_the_run_remainder() {
        let config = RecorderConfig {
            max_entries: 64,
            pid: 9,
            batch_slots: 8,
            ..RecorderConfig::default()
        };
        let r = Recorder::new(&config);
        let mut machine = Machine::new(CostModel::sgx_v1());
        r.attach(&mut machine);
        machine.ecall();
        let mut hooks = r.sim_hooks(machine.clock().clone());
        // 5 events into an 8-slot run: 3 reserved slots stay unpublished.
        for i in 0..5 {
            machine.compute(200);
            hooks.record(&mut machine, EventKind::Call, 0x40_0000 + i, 0);
        }
        let f = r.finish();
        assert_eq!(f.entries.len(), 5, "holes must not leak into the file");
        assert!(f
            .entries
            .iter()
            .all(|e| e.validity() == crate::layout::EntryValidity::Valid));
        assert_eq!(f.header.stored_entries(), 5);
        assert_eq!(f.header.dropped_entries(), 0);
    }

    #[test]
    fn spin_counter_feeds_hooks() {
        let r = Recorder::new(&RecorderConfig {
            max_entries: 8,
            ..RecorderConfig::default()
        });
        let mut machine = Machine::new(CostModel::native());
        r.attach(&mut machine);
        let counter = r.start_spin_counter();
        // Wait for the counter to move.
        while counter.read() < 100 {
            std::thread::yield_now();
        }
        let mut hooks = r.hooks_with(Box::new(counter));
        hooks.record(&mut machine, EventKind::Call, 1, 0);
        let f = r.finish();
        assert_eq!(f.entries.len(), 1);
        assert!(f.entries[0].counter >= 100);
    }
}
