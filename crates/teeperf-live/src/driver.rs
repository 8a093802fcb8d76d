//! The live run driver: executes an instrumented Mini-C program once per
//! simulated process while one drainer consumes every process's log
//! concurrently.
//!
//! The batch driver ([`teeperf_compiler::profile_program`]) runs to
//! completion and then drains. Here the same recorder hooks run (every
//! append announces, so any log may be rotated), each process's log is
//! attached to one [`SessionRegistry`], and an [`InstrObserver`] pumps the
//! registry every `pump_every_instructions` executed instructions — the
//! in-process, deterministic equivalent of a host-side drainer thread.
//! A log can therefore be far smaller than its event stream: it rotates
//! under the running program, and the rolling profile carries the truth.
//! One process is the same run with one pid.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use mcvm::debuginfo::DebugInfo;
use mcvm::{InstrObserver, McError, RunConfig, SampleCtx, Vm};
use tee_sim::{CostModel, Machine};
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_core::{LiveLogSource, LogFile, Recorder, RecorderConfig};

use crate::registry::{AttachError, SessionRegistry};
use crate::session::LiveConfig;
use crate::snapshot::Snapshot;

/// Tuning for one live run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveRunConfig {
    /// Session tuning (retention, budget, replay).
    pub live: LiveConfig,
    /// Rotate a process's log once its epoch has filled this percentage
    /// of the capacity (entries *reserved*, overflow included; clamped to
    /// `1..=99` by [`LiveLogSource::new`]). It is also the fill at which
    /// an epoch counts as hot for [`LiveRunConfig::adaptive_pump`].
    pub watermark_pct: u8,
    /// Render the running process's ASCII flame view into
    /// [`LiveRun::frames`] after this many new events (0 keeps no frame
    /// history).
    pub refresh_events: u64,
    /// Pump the registry every this many executed VM instructions. With
    /// [`LiveRunConfig::adaptive_pump`] set this is the *base* (slowest)
    /// cadence; the driver tightens it when epochs run hot.
    pub pump_every_instructions: u64,
    /// Derive the pump interval from the observed per-epoch fill rate:
    /// when a pump drains a batch at or past the rotation watermark the
    /// interval halves (the writers are outrunning the drainer), and when
    /// epochs come back cool it relaxes toward the base. The interval only
    /// ever *shrinks* below the configured base — adaptation can reduce
    /// drops relative to the fixed cadence, never add them.
    pub adaptive_pump: bool,
}

impl Default for LiveRunConfig {
    fn default() -> Self {
        LiveRunConfig {
            live: LiveConfig::default(),
            // Leave headroom: writers keep appending while the rotation's
            // quiesce runs, so rotating at three quarters full avoids
            // drops in steady state.
            watermark_pct: 75,
            refresh_events: 2_000,
            pump_every_instructions: 256,
            adaptive_pump: true,
        }
    }
}

/// What one simulated process of a [`LiveRun`] left behind.
#[derive(Debug)]
pub struct ProcessRun {
    /// `main`'s return value.
    pub exit_code: i64,
    /// Program output lines.
    pub output: Vec<String>,
    /// Total virtual cycles consumed.
    pub cycles: u64,
    /// The final snapshot: every call closed, all epochs merged.
    pub snapshot: Snapshot,
    /// The drained stream re-packaged as a batch log, so any offline stage
    /// can replay exactly what the live session saw. Empty unless
    /// [`LiveConfig::keep_replay`] is set — retention is opt-in because it
    /// grows with the stream.
    pub replay: LogFile,
}

/// Result of a live run.
#[derive(Debug)]
pub struct LiveRun {
    /// One record per simulated process, keyed by pid.
    pub per_pid: BTreeMap<u64, ProcessRun>,
    /// The cross-process merge: totals equal the sum over `per_pid`.
    pub merged: Snapshot,
    /// Rendered flame-view frames of the running process, one per refresh.
    pub frames: Vec<String>,
    /// Symbol table matching the instrumented binary.
    pub debug: DebugInfo,
    /// The pump interval (instructions) in effect when the run ended —
    /// equals `pump_every_instructions` unless adaptation tightened it.
    pub pump_interval_end: u64,
}

/// Why a live run failed.
#[derive(Debug)]
pub enum LiveRunError {
    /// A simulated process could not be attached to the registry (zero or
    /// duplicate pid).
    Attach(AttachError),
    /// One of the program runs trapped.
    Run(McError),
}

impl fmt::Display for LiveRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveRunError::Attach(e) => write!(f, "attach failed: {e}"),
            LiveRunError::Run(e) => e.fmt(f),
        }
    }
}

impl Error for LiveRunError {}

impl From<AttachError> for LiveRunError {
    fn from(e: AttachError) -> LiveRunError {
        LiveRunError::Attach(e)
    }
}

impl From<McError> for LiveRunError {
    fn from(e: McError) -> LiveRunError {
        LiveRunError::Run(e)
    }
}

/// The pump: an instruction observer that hands the registry CPU time on
/// an instruction cadence while one process runs, optionally adapting the
/// cadence to the observed per-epoch fill rate, and draws the running
/// process's frames.
struct Pump {
    registry: Rc<RefCell<SessionRegistry>>,
    /// The process this observer's VM runs.
    pid: u64,
    frames: Rc<RefCell<Vec<String>>>,
    refresh_events: u64,
    events_at_last_refresh: u64,
    /// Configured (slowest) interval.
    base: u64,
    /// Interval in effect, clamped to `[base/16, base]`; shared so that it
    /// carries from one process to the next and outlives the VM.
    every: Rc<Cell<u64>>,
    since: u64,
    adaptive: bool,
    /// Entries per pump at which an epoch is hot: the batch reached the
    /// rotation watermark, so the writers outran the cadence.
    hot: u64,
}

impl InstrObserver for Pump {
    fn observe(&mut self, _machine: &mut Machine, _ctx: &SampleCtx<'_>) {
        self.since += 1;
        if self.since < self.every.get() {
            return;
        }
        self.since = 0;
        let drained = self.registry.borrow_mut().pump() as u64;
        if self.adaptive {
            let every = self.every.get();
            if drained >= self.hot {
                self.every.set((every / 2).max((self.base / 16).max(1)));
            } else if drained <= self.hot / 2 {
                // Cool epoch: relax back toward the base, never past it.
                self.every.set(every.saturating_mul(2).min(self.base));
            }
        }
        let registry = self.registry.borrow();
        let session = registry
            .session(self.pid)
            .expect("the running process is attached");
        if self.refresh_events > 0
            && session.events() - self.events_at_last_refresh >= self.refresh_events
        {
            self.events_at_last_refresh = session.events();
            self.frames.borrow_mut().push(session.render_ascii());
        }
    }
}

/// Run `program` once per entry of `pids` — each run a simulated process
/// with its own recorder, shared log and pid — under one
/// [`SessionRegistry`]: the recorder's hooks write, the registry pumps on
/// an instruction cadence, and the result carries each process's final
/// snapshot (plus a replay log for offline cross-checks) and the merged
/// cross-process view, whose totals are exactly the per-pid sums.
/// `setup` prepares each process's VM before it runs.
///
/// Runs are sequential (the simulator is single-threaded) but every
/// session stays attached for the whole span, so the pump keeps draining
/// earlier processes' logs while later ones execute — the deterministic
/// equivalent of N enclaves sharing one host drainer.
///
/// # Errors
/// [`LiveRunError::Attach`] when a pid is zero or repeated;
/// [`LiveRunError::Run`] when a program run traps.
pub fn live_profile_processes(
    program: &mcvm::CompiledProgram,
    cost: &CostModel,
    run_config: &RunConfig,
    recorder_config: &RecorderConfig,
    live_config: &LiveRunConfig,
    pids: &[u64],
    mut setup: impl FnMut(&mut Vm) -> Result<(), McError>,
) -> Result<LiveRun, LiveRunError> {
    let debug = program.debug.clone();
    let anchor = debug
        .functions()
        .first()
        .map_or(tee_sim::ENCLAVE_TEXT_BASE, |f| f.base_addr);
    let registry = Rc::new(RefCell::new(SessionRegistry::new(live_config.live.clone())));
    let frames = Rc::new(RefCell::new(Vec::new()));
    let base = live_config.pump_every_instructions.max(1);
    let every = Rc::new(Cell::new(base));
    let watermark_pct = live_config.watermark_pct;
    let mut ran = Vec::with_capacity(pids.len());

    for &pid in pids {
        let mut config = recorder_config.clone();
        config.pid = pid;
        config.anchor = anchor;
        let recorder = Recorder::new(&config);
        let header = recorder.log().header();
        let symbolizer = Symbolizer::new(debug.clone(), &header);
        let source = LiveLogSource::new(recorder.log().clone(), watermark_pct);
        registry.borrow_mut().attach(Box::new(source), symbolizer)?;

        let mut machine = Machine::new(cost.clone());
        machine.set_pid(pid);
        let mut vm = Vm::with_config(program.clone(), machine, run_config.clone());
        recorder.attach(vm.machine_mut());
        let mut hooks = recorder.sim_hooks(vm.machine().clock().clone());
        if live_config.live.budget.is_some() {
            // A budgeted session publishes regimes through the log's regime
            // word; arm the writer-side gate so they actually throttle at
            // the source instead of just relabeling the overflow.
            hooks = hooks.with_fidelity_gate();
        }
        vm.set_hooks(Box::new(hooks));
        vm.set_observer(Box::new(Pump {
            registry: Rc::clone(&registry),
            pid,
            frames: Rc::clone(&frames),
            refresh_events: live_config.refresh_events,
            events_at_last_refresh: 0,
            base,
            every: Rc::clone(&every),
            since: 0,
            adaptive: live_config.adaptive_pump,
            hot: (config.max_entries * u64::from(watermark_pct) / 100).max(1),
        }));
        setup(&mut vm)?;
        let exit_code = vm.run()?;
        let cycles = vm.machine().clock().now();
        ran.push((pid, header, exit_code, vm.output().to_vec(), cycles));
    }

    let mut registry = registry.borrow_mut();
    let mut run = registry.finish();
    // Finished sessions stay attached: each one still holds its stream.
    let per_pid = ran
        .into_iter()
        .map(|(pid, mut header, exit_code, output, cycles)| {
            let session = registry
                .session(pid)
                .expect("finished sessions stay attached");
            header.active = false;
            header.tail = session.events();
            header.size = session.events().max(1);
            let replay = LogFile::new(header, session.replay_entries().to_vec());
            let snapshot = run
                .per_pid
                .remove(&pid)
                .expect("every attached pid finishes");
            let process = ProcessRun {
                exit_code,
                output,
                cycles,
                snapshot,
                replay,
            };
            (pid, process)
        })
        .collect();
    Ok(LiveRun {
        per_pid,
        merged: run.merged,
        frames: frames.take(),
        debug,
        pump_interval_end: every.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teeperf_analyzer::profile::merged_thread_key;
    use teeperf_analyzer::{profile, Analyzer};
    use teeperf_compiler::{compile_instrumented, profile_program, InstrumentOptions};

    const SRC: &str = "
        fn leaf(n: int) -> int {
            let s: int = 0;
            for (let i: int = 0; i < n; i = i + 1) { s = s + i; }
            return s;
        }
        fn work(n: int) -> int { return leaf(n) + leaf(n / 2); }
        fn main() -> int {
            let acc: int = 0;
            for (let r: int = 0; r < 8; r = r + 1) { acc = acc + work(40); }
            return acc;
        }
    ";

    /// The pid a one-process run profiles: the host's, as `teeperf live`
    /// uses it.
    fn host() -> u64 {
        RecorderConfig::default().pid
    }

    fn run(
        pids: &[u64],
        max_entries: u64,
        live_config: &LiveRunConfig,
    ) -> Result<LiveRun, LiveRunError> {
        live_profile_processes(
            &compile_instrumented(SRC, &InstrumentOptions::default()).unwrap(),
            &CostModel::sgx_v1(),
            &RunConfig::default(),
            &RecorderConfig {
                max_entries,
                ..RecorderConfig::default()
            },
            live_config,
            pids,
            |_| Ok(()),
        )
    }

    fn live_run(max_entries: u64) -> (LiveRun, ProcessRun) {
        live_run_refreshing(max_entries, 20)
    }

    /// A one-process run keeping its replay, and that process's record.
    fn live_run_refreshing(max_entries: u64, refresh_events: u64) -> (LiveRun, ProcessRun) {
        let config = LiveRunConfig {
            live: LiveConfig {
                keep_replay: true,
                ..LiveConfig::default()
            },
            refresh_events,
            pump_every_instructions: 64,
            ..LiveRunConfig::default()
        };
        let mut run = run(&[host()], max_entries, &config).unwrap();
        let process = run.per_pid.remove(&host()).unwrap();
        (run, process)
    }

    #[test]
    fn live_run_rotates_without_stopping_the_writer() {
        let (run, process) = live_run(16);
        let status = &process.snapshot.status;
        // 8 iterations × (work + 2×leaf) × 2 events + main = 50 events
        // through a 16-entry log: several rotations, nothing lost.
        assert_eq!(process.exit_code, 8 * (780 + 190));
        assert_eq!(status.events, 50);
        assert!(status.epoch >= 3, "only {} epochs", status.epoch);
        assert_eq!(status.dropped, 0, "pump cadence must outrun the writers");
        assert!(!run.frames.is_empty());
    }

    /// The event count each frame's banner shows, checking each frame
    /// starts with its banner.
    fn shown_events(frames: &[String]) -> Vec<u64> {
        frames
            .iter()
            .map(|f| {
                assert!(f.starts_with("live · epoch"), "{f}");
                let events = f.split(" · ").nth(2).expect("banner counters");
                events.trim_end_matches(" events").parse().unwrap()
            })
            .collect()
    }

    #[test]
    fn frames_are_rendered_on_refresh() {
        let (run, process) = live_run_refreshing(1 << 10, 10);
        assert_eq!(process.snapshot.status.events, 50);
        // Banner first, and one frame per 10 new events: each frame shows
        // at least 10 events more than the one before it.
        let shown = shown_events(&run.frames);
        assert_eq!(shown.len(), 4, "{shown:?}");
        assert!(shown[0] >= 10 && shown.windows(2).all(|w| w[1] - w[0] >= 10));
        assert!(run.frames[1].contains("work"));
        assert!(live_run_refreshing(1 << 10, 0).0.frames.is_empty());
    }

    #[test]
    fn every_process_of_a_multi_process_run_draws_frames() {
        let config = LiveRunConfig {
            refresh_events: 10,
            pump_every_instructions: 64,
            ..LiveRunConfig::default()
        };
        let run = run(&[101, 102], 1 << 10, &config).unwrap();
        // Each process's frames show its own session: its events climb
        // from the refresh cadence up to at most its 50, and start over
        // when the second process begins.
        let shown = shown_events(&run.frames);
        assert_eq!(shown.len(), 8, "{shown:?}");
        for one in shown.chunks(4) {
            assert!(one[0] >= 10 && one.windows(2).all(|w| w[1] - w[0] >= 10));
            assert!(one[3] <= 50, "{shown:?}");
        }
    }

    #[test]
    fn a_one_process_merge_is_its_process() {
        let (run, process) = live_run(16);
        assert_eq!(run.merged.status, process.snapshot.status);
        assert_eq!(
            run.merged.profile.total_ticks,
            process.snapshot.profile.total_ticks
        );
    }

    #[test]
    fn rolling_profile_matches_offline_replay_exactly() {
        let (run, process) = live_run(16);
        // Feed the exact stream the live session drained through the batch
        // analyzer: the rolling aggregates must be identical.
        let sym = Symbolizer::new(run.debug.clone(), &process.replay.header);
        let batch = profile::build(&process.replay, &sym);
        let live = &process.snapshot.profile;
        assert_eq!(*live, batch);
    }

    #[test]
    fn live_agrees_with_independent_batch_run() {
        let (_, process) = live_run(16);
        let live = &process.snapshot.profile;
        // An independent batch run of the same program (big log, no
        // rotation): per-method call counts and the hot-method order must
        // agree. Tick values may differ slightly — entry writes land at
        // different shared-memory addresses, and memory-model costs are
        // address-dependent.
        let batch = profile_program(
            compile_instrumented(SRC, &InstrumentOptions::default()).unwrap(),
            CostModel::sgx_v1(),
            RunConfig::default(),
            &RecorderConfig::default(),
            |_| Ok(()),
        )
        .unwrap();
        // The enclave pays the same recording cost either way: draining
        // and rotation are host-side.
        let ratio = process.cycles as f64 / batch.cycles as f64;
        assert!(
            (0.8..1.2).contains(&ratio),
            "live should cost the enclave about what batch does, ratio {ratio:.3}"
        );
        let analyzer = Analyzer::new(batch.log, batch.debug).unwrap();
        let offline = analyzer.profile();
        let top = |p: &teeperf_analyzer::Profile| {
            p.methods
                .iter()
                .take(5)
                .map(|m| (m.name.clone(), m.calls))
                .collect::<Vec<_>>()
        };
        assert_eq!(top(live), top(&offline));
        // Time is partitioned exactly: exclusive sums to inclusive.
        for m in &live.methods {
            assert!(m.exclusive <= m.inclusive);
        }
        let root_inclusive: u64 = live
            .caller_edges
            .iter()
            .filter(|e| e.caller == "<root>")
            .map(|e| e.inclusive)
            .sum();
        assert_eq!(live.total_ticks, root_inclusive);
    }

    #[test]
    fn tiny_log_accounts_drops_instead_of_stopping() {
        // A 2-entry log with a slow pump cannot keep up; the run must
        // still finish, and every lost entry must be accounted.
        let config = LiveRunConfig {
            pump_every_instructions: 100_000,
            adaptive_pump: false,
            ..LiveRunConfig::default()
        };
        let status = run(&[host()], 2, &config).unwrap().merged.status;
        assert_eq!(status.events + status.dropped, 50);
        assert!(status.dropped > 0);
    }

    #[test]
    fn adaptive_pump_never_drops_more_than_fixed() {
        // A small log with a deliberately slow base cadence loses entries
        // at the fixed interval. Adaptation only ever tightens the
        // interval below the base, so at worst it pumps exactly like the
        // fixed driver — it can reduce drops, never add them.
        let base = 512;
        let run_with = |adaptive: bool| {
            let config = LiveRunConfig {
                pump_every_instructions: base,
                adaptive_pump: adaptive,
                ..LiveRunConfig::default()
            };
            run(&[host()], 4, &config).unwrap()
        };
        let fixed = run_with(false);
        let adaptive = run_with(true);
        let (f, a) = (&fixed.merged.status, &adaptive.merged.status);
        assert!(f.dropped > 0, "base cadence must be too slow here");
        assert!(a.dropped <= f.dropped);
        // Every entry is accounted for, drained or dropped, either way.
        assert_eq!(f.events + f.dropped, 50);
        assert_eq!(a.events + a.dropped, 50);
        // The reported interval stays inside the [base/16, base] clamp.
        assert_eq!(fixed.pump_interval_end, base);
        assert!(adaptive.pump_interval_end >= base / 16);
        assert!(adaptive.pump_interval_end <= base);
    }

    fn multi_run(pids: &[u64]) -> Result<LiveRun, LiveRunError> {
        let config = LiveRunConfig {
            pump_every_instructions: 64,
            ..LiveRunConfig::default()
        };
        run(pids, 16, &config)
    }

    #[test]
    fn three_processes_yield_per_pid_and_merged_views() {
        let run = multi_run(&[101, 102, 103]).unwrap();
        let exit_codes: Vec<i64> = run.per_pid.values().map(|p| p.exit_code).collect();
        assert_eq!(exit_codes, vec![8 * (780 + 190); 3]);
        assert_eq!(run.per_pid.len(), 3);
        for (pid, process) in &run.per_pid {
            let snap = &process.snapshot;
            assert_eq!(snap.status.events, 50, "pid {pid}");
            assert_eq!(snap.status.dropped, 0, "pid {pid}");
            assert_eq!(snap.status.open_frames, 0, "pid {pid}");
        }
        // The acceptance criterion: merged totals equal the per-pid sums.
        assert_eq!(run.merged.status.events, 150);
        let ticks_sum: u64 = run
            .per_pid
            .values()
            .map(|p| p.snapshot.profile.total_ticks)
            .sum();
        assert_eq!(run.merged.profile.total_ticks, ticks_sum);
        let calls = |p: &teeperf_analyzer::Profile, name: &str| p.method(name).unwrap().calls;
        assert_eq!(calls(&run.merged.profile, "leaf"), 3 * 16);
        assert_eq!(
            run.merged.profile.pids,
            std::collections::BTreeSet::from([101, 102, 103])
        );
        // Identical processes: every per-pid profile agrees method-wise,
        // each on its own process's thread keys.
        let first = &run.per_pid[&101].snapshot.profile;
        for (pid, process) in &run.per_pid {
            let mut want = first.methods.clone();
            for m in &mut want {
                m.threads = m
                    .threads
                    .iter()
                    .map(|k| merged_thread_key(*pid, *k))
                    .collect();
            }
            assert_eq!(process.snapshot.profile.methods, want, "pid {pid}");
        }
    }

    #[test]
    fn multi_run_rejects_zero_and_duplicate_pids() {
        match multi_run(&[0]) {
            Err(LiveRunError::Attach(AttachError::ZeroPid)) => {}
            other => panic!("expected ZeroPid, got {other:?}"),
        }
        match multi_run(&[9, 9]) {
            Err(LiveRunError::Attach(AttachError::DuplicatePid(9))) => {}
            other => panic!("expected DuplicatePid, got {other:?}"),
        }
    }
}
