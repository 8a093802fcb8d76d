//! The live run driver: executes an instrumented Mini-C program while a
//! drainer consumes its log concurrently.
//!
//! The batch driver ([`teeperf_compiler::profile_program`]) runs to
//! completion and then drains. Here the same recorder hooks run (every
//! append announces, so any log may be rotated), and an [`InstrObserver`]
//! pumps the [`LiveSession`] every `pump_every_instructions` executed instructions —
//! the in-process, deterministic equivalent of a host-side drainer thread.
//! The log can therefore be far smaller than the event stream: it rotates
//! under the running program, and the rolling profile carries the truth.

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
use crate::session::{LiveConfig, LiveSession};
use crate::snapshot::Snapshot;

/// Tuning for one live run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveRunConfig {
    /// Session policy (rotation watermark, retention, budget).
    pub live: LiveConfig,
    /// Render the session's ASCII flame view into [`LiveRun::frames`] after
    /// this many new events (0 keeps no frame history).
    pub refresh_events: u64,
    /// Pump the session every this many executed VM instructions. With
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
            refresh_events: 2_000,
            pump_every_instructions: 256,
            adaptive_pump: true,
        }
    }
}

/// Result of a live-profiled run.
#[derive(Debug)]
pub struct LiveRun {
    /// `main`'s return value.
    pub exit_code: i64,
    /// The final snapshot: every call closed, all epochs merged.
    pub snapshot: Snapshot,
    /// Rendered flame-view frames, one per refresh during the run.
    pub frames: Vec<String>,
    /// Drain epochs the session went through.
    pub epochs: u64,
    /// Events merged into the rolling profile.
    pub events: u64,
    /// Events lost to overflow (accounted, not silent).
    pub dropped: u64,
    /// The drained stream re-packaged as a batch log, so any offline stage
    /// can replay exactly what the live session saw. Empty unless
    /// [`LiveConfig::keep_replay`] is set — retention is opt-in because it
    /// grows with the stream.
    pub replay: LogFile,
    /// Symbol table matching the instrumented binary.
    pub debug: DebugInfo,
    /// Program output lines.
    pub output: Vec<String>,
    /// Total virtual cycles consumed.
    pub cycles: u64,
    /// The pump interval (instructions) in effect when the run ended —
    /// equals `pump_every_instructions` unless adaptation tightened it.
    pub pump_interval_end: u64,
}

/// The pump: an instruction observer that hands the session CPU time on an
/// instruction cadence, optionally adapting the cadence to the observed
/// per-epoch fill rate, and draws the frame history `teeperf live` prints.
struct SessionPump {
    session: Rc<RefCell<LiveSession>>,
    /// One rendered flame view per `refresh_events` new events.
    frames: Rc<RefCell<Vec<String>>>,
    refresh_events: u64,
    events_at_last_refresh: u64,
    /// Configured (slowest) interval.
    base: u64,
    /// Interval currently in effect, clamped to `[base/16, base]`.
    every: u64,
    since: u64,
    adaptive: bool,
    /// Log capacity in entries; together with the rotation watermark it
    /// classifies a drained batch as hot or cool.
    capacity: u64,
    watermark_pct: u8,
    /// Mirror of `every` readable after the VM swallows the observer.
    interval_out: Rc<Cell<u64>>,
}

impl SessionPump {
    /// Entries per pump at which the epoch is considered hot: the batch
    /// reached the rotation watermark, meaning the writers filled the log
    /// faster than the cadence drained it.
    fn hot_threshold(&self) -> u64 {
        (self.capacity * u64::from(self.watermark_pct) / 100).max(1)
    }

    fn adapt(&mut self, drained: u64) {
        let floor = (self.base / 16).max(1);
        if drained >= self.hot_threshold() {
            self.every = (self.every / 2).max(floor);
        } else if drained <= self.hot_threshold() / 2 {
            // Cool epoch: relax back toward the base, never past it.
            self.every = (self.every.saturating_mul(2)).min(self.base);
        }
        self.interval_out.set(self.every);
    }
}

impl InstrObserver for SessionPump {
    fn observe(&mut self, _machine: &mut Machine, _ctx: &SampleCtx<'_>) {
        self.since += 1;
        if self.since >= self.every {
            self.since = 0;
            let drained = self.session.borrow_mut().pump() as u64;
            if self.adaptive {
                self.adapt(drained);
            }
            let session = self.session.borrow();
            if self.refresh_events > 0
                && session.events() - self.events_at_last_refresh >= self.refresh_events
            {
                self.events_at_last_refresh = session.events();
                self.frames.borrow_mut().push(session.render_ascii());
            }
        }
    }
}

/// Run an instrumented `program` under a live session: the recorder's
/// hooks write, the session pumps on an instruction cadence, and the
/// result carries the final merged snapshot (plus a replay log for offline
/// cross-checks).
///
/// # Errors
/// Propagates runtime traps from the VM.
pub fn live_profile_program(
    program: mcvm::CompiledProgram,
    cost: CostModel,
    run_config: RunConfig,
    recorder_config: &RecorderConfig,
    live_config: &LiveRunConfig,
    setup: impl FnOnce(&mut Vm) -> Result<(), McError>,
) -> Result<LiveRun, McError> {
    let debug = program.debug.clone();
    let machine = Machine::new(cost);
    let mut recorder_config = recorder_config.clone();
    recorder_config.anchor = debug
        .functions()
        .first()
        .map_or(tee_sim::ENCLAVE_TEXT_BASE, |f| f.base_addr);

    let recorder = Recorder::new(&recorder_config);
    let header = recorder.log().header();
    let symbolizer = Symbolizer::new(debug.clone(), &header);
    let session = Rc::new(RefCell::new(LiveSession::new(
        recorder.log().clone(),
        symbolizer,
        live_config.live.clone(),
    )));

    let mut vm = Vm::with_config(program, machine, run_config);
    recorder.attach(vm.machine_mut());
    let mut hooks = recorder.sim_hooks(vm.machine().clock().clone());
    if live_config.live.budget.is_some() {
        // A budgeted session publishes regimes through the log's regime
        // word; arm the writer-side gate so they actually throttle at the
        // source instead of just relabeling the overflow.
        hooks = hooks.with_fidelity_gate();
    }
    vm.set_hooks(Box::new(hooks));
    let base = live_config.pump_every_instructions.max(1);
    let interval_out = Rc::new(Cell::new(base));
    let frames = Rc::new(RefCell::new(Vec::new()));
    vm.set_observer(Box::new(SessionPump {
        session: Rc::clone(&session),
        frames: Rc::clone(&frames),
        refresh_events: live_config.refresh_events,
        events_at_last_refresh: 0,
        base,
        every: base,
        since: 0,
        adaptive: live_config.adaptive_pump,
        capacity: recorder_config.max_entries,
        watermark_pct: live_config.live.policy.watermark_pct,
        interval_out: Rc::clone(&interval_out),
    }));
    setup(&mut vm)?;
    let exit_code = vm.run()?;

    let mut session = session.borrow_mut();
    let snapshot = session.finish();
    let replay = LogFile::new(
        {
            let mut h = header;
            h.active = false;
            h.tail = session.events();
            h.size = session.events().max(1);
            h
        },
        session.replay_entries().to_vec(),
    );
    Ok(LiveRun {
        exit_code,
        epochs: session.epochs(),
        events: session.events(),
        dropped: session.dropped(),
        frames: frames.take(),
        replay,
        snapshot,
        debug,
        output: vm.output().to_vec(),
        cycles: vm.machine().clock().now(),
        pump_interval_end: interval_out.get(),
    })
}

/// Why a multi-process live run failed.
#[derive(Debug)]
pub enum MultiLiveError {
    /// A simulated process could not be attached to the registry (zero or
    /// duplicate pid).
    Attach(AttachError),
    /// One of the program runs trapped.
    Run(McError),
}

impl fmt::Display for MultiLiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiLiveError::Attach(e) => write!(f, "attach failed: {e}"),
            MultiLiveError::Run(e) => write!(f, "program run failed: {e}"),
        }
    }
}

impl Error for MultiLiveError {}

impl From<AttachError> for MultiLiveError {
    fn from(e: AttachError) -> MultiLiveError {
        MultiLiveError::Attach(e)
    }
}

impl From<McError> for MultiLiveError {
    fn from(e: McError) -> MultiLiveError {
        MultiLiveError::Run(e)
    }
}

/// Result of a multi-process live run.
#[derive(Debug)]
pub struct MultiLiveRun {
    /// `main`'s return value for each simulated process, in `pids` order.
    pub exit_codes: Vec<i64>,
    /// Final per-process snapshots, keyed by pid.
    pub per_pid: BTreeMap<u64, Snapshot>,
    /// The cross-process merge: totals equal the sum over `per_pid`.
    pub merged: Snapshot,
    /// Events merged across all processes.
    pub events: u64,
    /// Events lost to overflow across all processes (accounted).
    pub dropped: u64,
}

/// The registry pump: hands every attached session CPU time on an
/// instruction cadence while one of the simulated processes runs.
struct RegistryPump {
    registry: Rc<RefCell<SessionRegistry>>,
    every: u64,
    since: u64,
}

impl InstrObserver for RegistryPump {
    fn observe(&mut self, _machine: &mut Machine, _ctx: &SampleCtx<'_>) {
        self.since += 1;
        if self.since >= self.every {
            self.since = 0;
            self.registry.borrow_mut().pump();
        }
    }
}

/// Run `program` once per entry of `pids` — each run a simulated process
/// with its own recorder, shared log and pid — under one
/// [`SessionRegistry`]: every log is drained by its own session, and the
/// result carries per-pid snapshots plus the merged cross-process view
/// (whose totals are exactly the per-pid sums).
///
/// Runs are sequential (the simulator is single-threaded) but every
/// session stays attached for the whole span, so the registry's pump
/// keeps draining earlier processes' logs while later ones execute —
/// the deterministic equivalent of N enclaves sharing one host drainer.
///
/// # Errors
/// [`MultiLiveError::Attach`] when a pid is zero or repeated;
/// [`MultiLiveError::Run`] when a program run traps.
pub fn live_profile_processes(
    program: &mcvm::CompiledProgram,
    cost: &CostModel,
    run_config: &RunConfig,
    recorder_config: &RecorderConfig,
    live_config: &LiveRunConfig,
    pids: &[u64],
) -> Result<MultiLiveRun, MultiLiveError> {
    let debug = program.debug.clone();
    let anchor = debug
        .functions()
        .first()
        .map_or(tee_sim::ENCLAVE_TEXT_BASE, |f| f.base_addr);
    let registry = Rc::new(RefCell::new(SessionRegistry::new(live_config.live.clone())));
    let mut exit_codes = Vec::with_capacity(pids.len());

    for &pid in pids {
        let mut config = recorder_config.clone();
        config.pid = pid;
        config.anchor = anchor;
        let recorder = Recorder::new(&config);
        let header = recorder.log().header();
        let symbolizer = Symbolizer::new(debug.clone(), &header);
        let source = LiveLogSource::new(
            recorder.log().clone(),
            live_config.live.policy.watermark_pct,
        );
        registry.borrow_mut().attach(Box::new(source), symbolizer)?;

        let mut machine = Machine::new(cost.clone());
        machine.set_pid(pid);
        let mut vm = Vm::with_config(program.clone(), machine, run_config.clone());
        recorder.attach(vm.machine_mut());
        let mut hooks = recorder.sim_hooks(vm.machine().clock().clone());
        if live_config.live.budget.is_some() {
            hooks = hooks.with_fidelity_gate();
        }
        vm.set_hooks(Box::new(hooks));
        vm.set_observer(Box::new(RegistryPump {
            registry: Rc::clone(&registry),
            every: live_config.pump_every_instructions.max(1),
            since: 0,
        }));
        exit_codes.push(vm.run()?);
    }

    let run = registry.borrow_mut().finish();
    Ok(MultiLiveRun {
        exit_codes,
        events: run.merged.status.events,
        dropped: run.merged.status.dropped,
        per_pid: run.per_pid,
        merged: run.merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn live_run(max_entries: u64) -> LiveRun {
        live_run_refreshing(max_entries, 20)
    }

    fn live_run_refreshing(max_entries: u64, refresh_events: u64) -> LiveRun {
        live_profile_program(
            compile_instrumented(SRC, &InstrumentOptions::default()).unwrap(),
            CostModel::sgx_v1(),
            RunConfig::default(),
            &RecorderConfig {
                max_entries,
                ..RecorderConfig::default()
            },
            &LiveRunConfig {
                live: LiveConfig {
                    keep_replay: true,
                    ..LiveConfig::default()
                },
                refresh_events,
                pump_every_instructions: 64,
                adaptive_pump: true,
            },
            |_| Ok(()),
        )
        .unwrap()
    }

    #[test]
    fn live_run_rotates_without_stopping_the_writer() {
        let run = live_run(16);
        // 8 iterations × (work + 2×leaf) × 2 events + main = 50 events
        // through a 16-entry log: several rotations, nothing lost.
        assert_eq!(run.exit_code, 8 * (780 + 190));
        assert_eq!(run.events, 50);
        assert!(run.epochs >= 3, "only {} epochs", run.epochs);
        assert_eq!(run.dropped, 0, "pump cadence must outrun the writers");
        assert!(!run.frames.is_empty());
    }

    #[test]
    fn frames_are_rendered_on_refresh() {
        let run = live_run_refreshing(1 << 10, 10);
        assert_eq!(run.events, 50);
        // Banner first, and one frame per 10 new events: each frame shows
        // at least 10 events more than the one before it.
        let shown: Vec<u64> = run
            .frames
            .iter()
            .map(|f| {
                assert!(f.starts_with("live · epoch"), "{f}");
                let events = f.split(" · ").nth(2).expect("banner counters");
                events.trim_end_matches(" events").parse().unwrap()
            })
            .collect();
        assert_eq!(shown.len(), 4, "{shown:?}");
        assert!(shown[0] >= 10 && shown.windows(2).all(|w| w[1] - w[0] >= 10));
        assert!(run.frames[1].contains("work"));
        assert!(live_run_refreshing(1 << 10, 0).frames.is_empty());
    }

    #[test]
    fn rolling_profile_matches_offline_replay_exactly() {
        let run = live_run(16);
        // Feed the exact stream the live session drained through the batch
        // analyzer: the rolling aggregates must be identical.
        let sym = Symbolizer::new(run.debug.clone(), &run.replay.header);
        let batch = profile::build(&run.replay, &sym);
        let live = &run.snapshot.profile;
        assert_eq!(*live, batch);
    }

    #[test]
    fn live_agrees_with_independent_batch_run() {
        let run = live_run(16);
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
        let analyzer = Analyzer::new(batch.log, batch.debug).unwrap();
        let offline = analyzer.profile();
        let top = |p: &teeperf_analyzer::Profile| {
            p.methods
                .iter()
                .take(5)
                .map(|m| (m.name.clone(), m.calls))
                .collect::<Vec<_>>()
        };
        assert_eq!(top(&run.snapshot.profile), top(&offline));
        // Time is partitioned exactly: exclusive sums to inclusive.
        for m in &run.snapshot.profile.methods {
            assert!(m.exclusive <= m.inclusive);
        }
        let root_inclusive: u64 = run
            .snapshot
            .profile
            .caller_edges
            .iter()
            .filter(|e| e.caller == "<root>")
            .map(|e| e.inclusive)
            .sum();
        assert_eq!(run.snapshot.profile.total_ticks, root_inclusive);
    }

    #[test]
    fn tiny_log_accounts_drops_instead_of_stopping() {
        // A 2-entry log with a slow pump cannot keep up; the run must
        // still finish, and every lost entry must be accounted.
        let run = live_profile_program(
            compile_instrumented(SRC, &InstrumentOptions::default()).unwrap(),
            CostModel::sgx_v1(),
            RunConfig::default(),
            &RecorderConfig {
                max_entries: 2,
                ..RecorderConfig::default()
            },
            &LiveRunConfig {
                pump_every_instructions: 100_000,
                adaptive_pump: false,
                ..LiveRunConfig::default()
            },
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(run.events + run.dropped, 50);
        assert!(run.dropped > 0);
    }

    #[test]
    fn adaptive_pump_never_drops_more_than_fixed() {
        // A small log with a deliberately slow base cadence loses entries
        // at the fixed interval. Adaptation only ever tightens the
        // interval below the base, so at worst it pumps exactly like the
        // fixed driver — it can reduce drops, never add them.
        let base = 512;
        let run_with = |adaptive: bool| {
            live_profile_program(
                compile_instrumented(SRC, &InstrumentOptions::default()).unwrap(),
                CostModel::sgx_v1(),
                RunConfig::default(),
                &RecorderConfig {
                    max_entries: 4,
                    ..RecorderConfig::default()
                },
                &LiveRunConfig {
                    pump_every_instructions: base,
                    adaptive_pump: adaptive,
                    ..LiveRunConfig::default()
                },
                |_| Ok(()),
            )
            .unwrap()
        };
        let fixed = run_with(false);
        let adaptive = run_with(true);
        assert!(fixed.dropped > 0, "base cadence must be too slow here");
        assert!(adaptive.dropped <= fixed.dropped);
        // Every entry is accounted for, drained or dropped, either way.
        assert_eq!(fixed.events + fixed.dropped, 50);
        assert_eq!(adaptive.events + adaptive.dropped, 50);
        // The reported interval stays inside the [base/16, base] clamp.
        assert_eq!(fixed.pump_interval_end, base);
        assert!(adaptive.pump_interval_end >= base / 16);
        assert!(adaptive.pump_interval_end <= base);
    }

    fn multi_run(pids: &[u64]) -> Result<MultiLiveRun, MultiLiveError> {
        live_profile_processes(
            &compile_instrumented(SRC, &InstrumentOptions::default()).unwrap(),
            &CostModel::sgx_v1(),
            &RunConfig::default(),
            &RecorderConfig {
                max_entries: 16,
                ..RecorderConfig::default()
            },
            &LiveRunConfig {
                pump_every_instructions: 64,
                ..LiveRunConfig::default()
            },
            pids,
        )
    }

    #[test]
    fn three_processes_yield_per_pid_and_merged_views() {
        let run = multi_run(&[101, 102, 103]).unwrap();
        assert_eq!(run.exit_codes, vec![8 * (780 + 190); 3]);
        assert_eq!(run.per_pid.len(), 3);
        for (pid, snap) in &run.per_pid {
            assert_eq!(snap.status.events, 50, "pid {pid}");
            assert_eq!(snap.status.dropped, 0, "pid {pid}");
            assert_eq!(snap.status.open_frames, 0, "pid {pid}");
        }
        // The acceptance criterion: merged totals equal the per-pid sums.
        assert_eq!(run.events, 150);
        let ticks_sum: u64 = run.per_pid.values().map(|s| s.profile.total_ticks).sum();
        assert_eq!(run.merged.profile.total_ticks, ticks_sum);
        let calls = |p: &teeperf_analyzer::Profile, name: &str| p.method(name).unwrap().calls;
        assert_eq!(calls(&run.merged.profile, "leaf"), 3 * 16);
        assert_eq!(
            run.merged.profile.pids,
            std::collections::BTreeSet::from([101, 102, 103])
        );
        // Identical processes: every per-pid profile agrees method-wise.
        let first = &run.per_pid[&101].profile;
        for snap in run.per_pid.values() {
            assert_eq!(snap.profile.methods, first.methods);
        }
    }

    #[test]
    fn multi_run_rejects_zero_and_duplicate_pids() {
        match multi_run(&[0]) {
            Err(MultiLiveError::Attach(AttachError::ZeroPid)) => {}
            other => panic!("expected ZeroPid, got {other:?}"),
        }
        match multi_run(&[9, 9]) {
            Err(MultiLiveError::Attach(AttachError::DuplicatePid(9))) => {}
            other => panic!("expected DuplicatePid, got {other:?}"),
        }
    }
}
