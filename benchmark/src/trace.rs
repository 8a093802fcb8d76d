//! The traced run: the per-layer budget under the end-to-end numbers.
//!
//! The layers are measured from outside. The workload's own inputs are
//! replayed in-process, stage by stage, through the public functions of
//! each crate, with one span per call batch (name, start, end, parent)
//! kept in memory and written to `trace.json` at exit; a layer's self time
//! is its spans minus their children. A fleet workload also runs for a
//! quarter of the time against a real `teeperfd`, whose loop, request and
//! event counts, multiplied by the stage costs, are reconciled against
//! the daemon's wall clock.
//!
//! Every traced run reports every per-layer metric: the stages are the
//! same code for all four workloads and only their inputs differ — the
//! workload's call tree and session count for the fleet workloads, the
//! seven recorded Phoenix logs for `batch_profile`.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use mcvm::{DebugInfo, RunConfig, Vm};
use perf_sim::{PerfConfig, Sampler};
use tee_sim::{CostModel, Machine};
use teeperf_analyzer::{merge_profiles, profile, reader, stacks, Profile, Symbolizer, WindowSpec};
use teeperf_compiler::{compile_instrumented, profile_program, run_native, InstrumentOptions};
use teeperf_core::layout::LogEntry;
use teeperf_core::log::make_header;
use teeperf_core::shm_file::{log_path, publish_sidecar, SYM_EXT};
use teeperf_core::{EventSource, FileShmSource, FileShmWriter, LogFile, Recorder, RecorderConfig};
use teeperf_daemon::http::{self, Request};
use teeperf_daemon::{route, Daemon, DaemonConfig, LivenessProbe, SnapshotService};
use teeperf_flamegraph::{FlameGraph, SvgOptions};
use teeperf_live::{
    windows_to_text, LiveConfig, RingConfig, RollingProfile, SessionRegistry, Snapshot,
    WatchdogConfig,
};

use crate::catalog::PER_LAYER;
use crate::daemon::{DaemonChild, ScratchDir};
use crate::fleet::{self, DaemonTotals, FleetShape, Plan, FIRST_PID};
use crate::gen::{session_entries, session_seed};
use crate::json::Json;
use crate::other;
use crate::procfs;
use crate::report::{in_catalog_order, Measured, WorkloadResult};
use crate::stats;

/// One timed call batch.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Spans in memory. Disabled, it times nothing and costs one branch —
/// which is how the untraced replay is run.
struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it is handed become its children.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// [`Tracer::span`], also returning how long `f` took — timed whether
    /// or not spans are recorded.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
        let began = Instant::now();
        let out = self.span(name, f);
        (out, began.elapsed())
    }

    /// Call `f` `repeats` times, each in a span; returns its last result
    /// and the median call in microseconds.
    fn repeated<T>(
        &mut self,
        name: &'static str,
        repeats: usize,
        mut f: impl FnMut(&mut Tracer) -> T,
    ) -> (T, f64) {
        let mut last = None;
        let mut us = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let (out, took) = self.timed(name, &mut f);
            us.push(took.as_secs_f64() * 1e6);
            last = Some(std::hint::black_box(out));
        }
        (
            last.expect("at least one repeat"),
            stats::median(&us).expect("at least one repeat"),
        )
    }

    /// What recording one span costs, measured on a throw-away tracer.
    fn cost_per_span() -> Duration {
        const PROBES: u32 = 100_000;
        let mut probe = Tracer::new(true);
        let began = Instant::now();
        for _ in 0..PROBES {
            probe.span("probe", |_| std::hint::black_box(()));
        }
        began.elapsed() / PROBES
    }

    /// Total time in spans called `name`.
    fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Total time in spans called `name` minus the time in their children.
    fn self_time(&self, name: &str) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|s| s.end - s.start)
            .sum();
        self.total(name).saturating_sub(children)
    }

    fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start.as_nanos() as u64)),
                        ("end_ns", Json::Int(s.end.as_nanos() as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("workload", Json::str(workload)),
                    ])
                })
                .collect(),
        )
    }
}

/// One session's worth of replay input.
struct SessionInput {
    pid: u64,
    debug: DebugInfo,
    entries: Vec<LogEntry>,
}

/// What the stages are replayed on.
struct Inputs {
    sessions: Vec<SessionInput>,
    /// Entries a session hands the daemon per loop under this workload:
    /// the chunk size ingest is replayed in.
    pump_batch: usize,
}

impl Inputs {
    fn events(&self) -> u64 {
        self.sessions.iter().map(|s| s.entries.len() as u64).sum()
    }
}

/// The ring `paced_visible` runs its daemon with
/// (`--window-interval 20000 --retain 64`).
fn paced_ring() -> RingConfig {
    RingConfig {
        interval: 20_000,
        capacity: 64,
        ..RingConfig::default()
    }
}

/// The fleet workload's shape as replay input: its tree, its session
/// count, and per session its prefill (or a share of 400 000 events).
fn fleet_inputs(shape: &FleetShape, seed: u64) -> Inputs {
    let debug = shape.tree.debug_info();
    let addrs = shape.tree.addrs(&debug);
    let (sessions, per_session) = match shape.rotate_after {
        // `ingest_flood` registers its sessions one after another; replay
        // as many as a 20 s run creates, shortened.
        Some(_) => (12, 1 << 15),
        None => (shape.sessions, shape.prefill.max(400_000 / shape.sessions)),
    };
    let per_loop = match shape.rate {
        // Round-robin bursts: a session of many sees one burst at a time.
        Some(_) if shape.sessions > 1 => shape.burst,
        // The daemon loops about 40 times a second.
        Some(rate) => (rate / 40).max(shape.burst),
        // Full speed: what the writer produces while the daemon sleeps.
        None => 16_384,
    };
    Inputs {
        sessions: (0..sessions)
            .map(|i| SessionInput {
                pid: FIRST_PID + i,
                debug: debug.clone(),
                entries: session_entries(shape.tree, &addrs, session_seed(seed, i), per_session),
            })
            .collect(),
        pump_batch: per_loop as usize,
    }
}

/// What one Phoenix pass yields: the numbers of the compiler, VM and
/// cost-model layers, and the recorded logs (the replay input of
/// `batch_profile`).
struct PhoenixPass {
    compile_ms: f64,
    native_instr_per_s: f64,
    modeled_cycles_per_event: f64,
    overhead_ratio_modeled: f64,
    overhead_ratio_wall: f64,
    logs: Vec<SessionInput>,
}

/// Sampling period of the `perf` baseline, as in the Fig. 4 harness.
const PERF_PERIOD_CYCLES: u64 = 180_000;

fn phoenix_pass(seed: u64, tracer: &mut Tracer) -> io::Result<PhoenixPass> {
    let cost = CostModel::sgx_v1;
    let mut compile = Duration::ZERO;
    let (mut instructions, mut native_wall) = (0u64, Duration::ZERO);
    let (mut extra_cycles, mut events) = (0u64, 0u64);
    let (mut modeled, mut wall) = (Vec::new(), Vec::new());
    let mut logs = Vec::new();
    for (i, bench) in phoenix::suite(phoenix::Scale::Full, seed)
        .into_iter()
        .enumerate()
    {
        let began = Instant::now();
        let instrumented = tracer
            .span("compiler.compile_instrumented", |_| {
                compile_instrumented(bench.source(), &InstrumentOptions::default())
            })
            .map_err(other)?;
        compile += began.elapsed();
        let plain = mcvm::compile(bench.source()).map_err(other)?;

        let began = Instant::now();
        let native = tracer
            .span("mcvm.run_native", |_| {
                run_native(plain.clone(), cost(), RunConfig::default(), |vm| {
                    bench.setup(vm)
                })
            })
            .map_err(other)?;
        let native_took = began.elapsed();
        let began = Instant::now();
        let run = tracer
            .span("compiler.profile_program", |_| {
                profile_program(
                    instrumented,
                    cost(),
                    RunConfig::default(),
                    &RecorderConfig::default(),
                    |vm| bench.setup(vm),
                )
            })
            .map_err(other)?;
        let profiled_took = began.elapsed();

        let perf_cycles = tracer.span("perf-sim.sampled_run", |_| -> io::Result<u64> {
            let mut vm = Vm::with_config(plain, Machine::new(cost()), RunConfig::default());
            let (sampler, _store) = Sampler::new(PerfConfig {
                period_cycles: PERF_PERIOD_CYCLES,
                capture_stacks: true,
            });
            vm.set_observer(Box::new(sampler));
            bench.setup(&mut vm).map_err(other)?;
            vm.run().map_err(other)?;
            Ok(vm.machine().clock().now())
        })?;

        instructions += native.instructions;
        native_wall += native_took;
        extra_cycles += run.cycles.saturating_sub(native.cycles);
        events += run.log.entries.len() as u64;
        modeled.push(run.cycles as f64 / perf_cycles as f64);
        wall.push(profiled_took.as_secs_f64() / native_took.as_secs_f64());
        logs.push(SessionInput {
            pid: FIRST_PID + i as u64,
            debug: run.debug,
            entries: run.log.entries,
        });
    }
    Ok(PhoenixPass {
        compile_ms: compile.as_secs_f64() * 1e3,
        native_instr_per_s: instructions as f64 / native_wall.as_secs_f64(),
        modeled_cycles_per_event: extra_cycles as f64 / events as f64,
        overhead_ratio_modeled: stats::geomean(&modeled).expect("seven programs"),
        overhead_ratio_wall: stats::geomean(&wall).expect("seven programs"),
        logs,
    })
}

/// `route()` needs a [`SnapshotService`]; this one serves a pumped
/// registry, with the freeze-and-merge inside a child span of the route.
struct RegistryService<'a> {
    registry: &'a mut SessionRegistry,
    tracer: &'a mut Tracer,
}

impl SnapshotService for RegistryService<'_> {
    fn merged(&mut self) -> Snapshot {
        let registry = &mut *self.registry;
        self.tracer.span("live.registry.merged_snapshot", |_| {
            registry.merged_snapshot()
        })
    }

    fn pid_snapshot(&mut self, pid: u64) -> Option<Snapshot> {
        self.registry.snapshot_pid(pid)
    }

    fn metrics_text(&mut self) -> String {
        String::new()
    }
}

/// Calls per stage whose cost is reported as a median.
const REPEATS: usize = 15;

/// Run `f`; returns its result and the `(read, write)` system calls this
/// process made meanwhile, less what reading the counters itself costs.
fn counting_syscalls<T>(f: impl FnOnce() -> io::Result<T>) -> io::Result<(T, (u64, u64))> {
    let probe = procfs::read_self_io()?;
    let before = procfs::read_self_io()?;
    let out = f()?;
    let after = procfs::read_self_io()?;
    let made = |after: u64, before: u64, probe: u64| after - before - (before - probe);
    Ok((
        out,
        (
            made(after.0, before.0, probe.0),
            made(after.1, before.1, probe.1),
        ),
    ))
}

/// Attach every registered log of `dir` to a fresh registry, as the
/// daemon's scan does, and pump it dry.
fn pumped_registry(
    inputs: &Inputs,
    dir: &Path,
    retention: Option<RingConfig>,
    tracer: &mut Tracer,
) -> io::Result<SessionRegistry> {
    let mut registry = SessionRegistry::new(LiveConfig {
        retention,
        ..LiveConfig::default()
    })
    .with_watchdog(WatchdogConfig::default());
    for s in &inputs.sessions {
        let source = FileShmSource::open(&log_path(dir, s.pid)).map_err(other)?;
        tracer
            .span("live.registry.attach", |_| {
                registry.attach(
                    Box::new(LivenessProbe::new(source, false)),
                    Symbolizer::without_relocation(s.debug.clone()),
                )
            })
            .map_err(|e| other(format!("{e:?}")))?;
    }
    let drained = tracer.span("live.registry.pump", |_| registry.pump());
    if drained as u64 != inputs.events() {
        return Err(other(format!(
            "the registry drained {drained} of {} events",
            inputs.events()
        )));
    }
    Ok(registry)
}

/// The in-process stages, replayed on `inputs` over files in `dir`, and
/// the per-layer metrics they have yielded so far.
struct Replay<'a> {
    inputs: &'a Inputs,
    dir: &'a Path,
    tracer: &'a mut Tracer,
    out: Vec<Measured>,
}

/// Replay every in-process stage; returns the per-layer metrics.
fn replay_stages(inputs: &Inputs, dir: &Path, tracer: &mut Tracer) -> io::Result<Vec<Measured>> {
    let mut replay = Replay {
        inputs,
        dir,
        tracer,
        out: Vec::new(),
    };
    replay.shm_file_writer()?;
    replay.shm_file_reader()?;
    replay.rolling_ingest();
    replay.snapshot_path()?;
    replay.window_queries()?;
    replay.hooks()?;
    replay.batch_stages()?;
    Ok(replay.out)
}

impl Replay<'_> {
    fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.out.push(Measured::once(name, unit, value));
    }

    fn ns_per_event(&mut self, name: &str, total: Duration) {
        let events = self.inputs.events();
        self.metric(name, "ns", total.as_nanos() as f64 / events as f64);
    }

    /// `teeperf-core::shm_file`, the writer side: register and fill one
    /// log per session.
    fn shm_file_writer(&mut self) -> io::Result<()> {
        let (inputs, dir) = (self.inputs, self.dir);
        let tracer = &mut *self.tracer;
        let ((create_ms, write_total), (_, writes)) = counting_syscalls(|| {
            let mut create_ms = Vec::new();
            let mut write_total = Duration::ZERO;
            for s in &inputs.sessions {
                publish_sidecar(dir, s.pid, SYM_EXT, &s.debug.to_text())?;
                let header = make_header(s.pid, s.entries.len() as u64, true, 0, 0);
                let (log, took) = tracer.timed("core.shm_file.create", |_| {
                    FileShmWriter::create(dir, &header)
                });
                let mut log = log.map_err(other)?;
                create_ms.push(took.as_secs_f64() * 1e3);
                for burst in s.entries.chunks(1024) {
                    let (wrote, took) = tracer.timed("core.shm_file.write", |_| {
                        burst.iter().try_for_each(|e| log.write(e).map(drop))
                    });
                    wrote?;
                    write_total += took;
                }
                log.finish()?;
            }
            Ok((create_ms, write_total))
        })?;
        self.metric(
            "core.shm_file.create_ms",
            "ms",
            stats::median(&create_ms).expect("at least one session"),
        );
        self.ns_per_event("core.shm_file.write_ns_per_event", write_total);
        // Set-up writes (sidecar, header, finish) are counted too: they are
        // what a session costs, and vanish per event as sessions grow.
        self.metric(
            "core.shm_file.write_syscalls_per_event",
            "count",
            writes as f64 / inputs.events() as f64,
        );
        Ok(())
    }

    /// `teeperf-core::shm_file`, the reader side: one pump drains a
    /// finished log; further pumps find nothing.
    fn shm_file_reader(&mut self) -> io::Result<()> {
        let (inputs, dir) = (self.inputs, self.dir);
        let tracer = &mut *self.tracer;
        let ((pump_total, mut drained), (reads, _)) = counting_syscalls(|| {
            let mut pump_total = Duration::ZERO;
            let mut drained = None;
            for s in &inputs.sessions {
                let mut source = FileShmSource::open(&log_path(dir, s.pid)).map_err(other)?;
                let (batch, took) = tracer.timed("core.shm_file.pump", |_| source.pump());
                pump_total += took;
                if batch.entries != s.entries {
                    return Err(other(format!(
                        "pid {}: the pump returned other entries than were written",
                        s.pid
                    )));
                }
                drained = Some(source);
            }
            Ok((pump_total, drained.expect("at least one session")))
        })?;
        let (_, idle_us) = tracer.repeated("core.shm_file.pump_idle", 200, |_| drained.pump());
        self.ns_per_event("core.shm_file.pump_ns_per_event", pump_total);
        self.metric(
            "core.shm_file.pump_read_syscalls_per_event",
            "count",
            reads as f64 / inputs.events() as f64,
        );
        self.metric("core.shm_file.pump_idle_us", "us", idle_us);
        Ok(())
    }

    /// `teeperf-live::rolling`: ingest in the chunks the daemon would see,
    /// without and with the retention ring, and freeze the result.
    fn rolling_ingest(&mut self) {
        let inputs = self.inputs;
        let (mut plain, mut retained) = (Duration::ZERO, Duration::ZERO);
        let mut freeze_ms = Vec::new();
        let ring = paced_ring();
        for s in &inputs.sessions {
            let mut rolling = RollingProfile::new();
            plain += self
                .tracer
                .timed("live.rolling.ingest", |_| {
                    s.entries
                        .chunks(inputs.pump_batch)
                        .for_each(|c| rolling.ingest(c))
                })
                .1;
            let symbolizer = Symbolizer::without_relocation(s.debug.clone());
            let (_, took) = self.tracer.timed("live.rolling.snapshot", |_| {
                rolling.snapshot(&symbolizer, 0)
            });
            freeze_ms.push(took.as_secs_f64() * 1e3);
            let mut rolling = RollingProfile::with_retention(Some(&ring));
            retained += self
                .tracer
                .timed("live.rolling.ingest_retained", |_| {
                    s.entries
                        .chunks(inputs.pump_batch)
                        .for_each(|c| rolling.ingest(c))
                })
                .1;
        }
        self.ns_per_event("live.rolling.ingest_ns_per_event", plain);
        self.ns_per_event("live.rolling.ingest_retained_ns_per_event", retained);
        self.metric(
            "live.rolling.snapshot_ms",
            "ms",
            stats::median(&freeze_ms).expect("at least one session"),
        );
    }

    /// `teeperf-live::registry` and `::snapshot`, `teeperf-daemon::route`,
    /// `teeperf-analyzer::merge_profiles`: the snapshot path at this
    /// workload's sessions x methods.
    fn snapshot_path(&mut self) -> io::Result<()> {
        let inputs = self.inputs;
        let tracer = &mut *self.tracer;
        let mut registry = pumped_registry(inputs, self.dir, None, tracer)?;
        let (_, idle_us) = tracer.repeated("live.registry.pump_idle", 100, |_| registry.pump());
        let request = Request {
            method: "GET".to_string(),
            target: "/snapshot".to_string(),
        };
        let (body, route_us) = tracer.repeated("daemon.route_snapshot", REPEATS, |t| {
            let mut service = RegistryService {
                registry: &mut registry,
                tracer: t,
            };
            route(&mut service, &request).0.body
        });
        let text = String::from_utf8(body).map_err(other)?;
        let (merged, merge_us) = tracer.repeated("live.registry.merged_snapshot", REPEATS, |_| {
            registry.merged_snapshot()
        });
        let (_, encode_us) =
            tracer.repeated("live.snapshot.to_text", REPEATS, |_| merged.to_text());
        let (parsed, parse_us) = tracer.repeated("live.snapshot.parse", REPEATS, |_| {
            Snapshot::summary_from_text(&text).and(Snapshot::methods_from_text(&text))
        });
        parsed.map_err(other)?;
        let first_pid = inputs.sessions[0].pid;
        let (_, pid_us) = tracer.repeated("live.registry.snapshot_pid", REPEATS, |_| {
            registry.snapshot_pid(first_pid)
        });
        // What a session does by itself every 2 000 events it ingests,
        // whether or not anyone looks at the frame.
        let session = registry
            .session(first_pid)
            .ok_or_else(|| other("a session vanished"))?;
        let (_, frame_us) = tracer.repeated("live.session.render_ascii", REPEATS, |_| {
            session.render_ascii()
        });
        let per_pid: Vec<(u64, Profile)> = inputs
            .sessions
            .iter()
            .map(|s| {
                let frozen = registry
                    .snapshot_pid(s.pid)
                    .ok_or_else(|| other("a session vanished"))?;
                Ok((s.pid, frozen.profile))
            })
            .collect::<io::Result<_>>()?;
        let parts: Vec<(u64, &Profile)> = per_pid.iter().map(|(pid, p)| (*pid, p)).collect();
        let (_, merge_profiles_us) =
            tracer.repeated("analyzer.profile.merge_profiles", REPEATS, |_| {
                merge_profiles(&parts)
            });

        let sessions = inputs.sessions.len() as f64;
        self.metric(
            "live.registry.pump_idle_us_per_session",
            "us",
            idle_us / sessions,
        );
        self.metric("daemon.route_snapshot_ms", "ms", route_us / 1e3);
        self.metric("live.registry.merged_snapshot_ms", "ms", merge_us / 1e3);
        self.metric("live.registry.snapshot_pid_ms", "ms", pid_us / 1e3);
        self.metric("live.session.render_ascii_ms", "ms", frame_us / 1e3);
        self.metric("live.snapshot.to_text_ms", "ms", encode_us / 1e3);
        self.metric("live.snapshot.text_bytes", "bytes", text.len() as f64);
        self.metric("live.snapshot.parse_ms", "ms", parse_us / 1e3);
        self.metric(
            "analyzer.profile.merge_profiles_ms",
            "ms",
            merge_profiles_us / 1e3,
        );
        Ok(())
    }

    /// `teeperf-live::window`: the time-travel queries over retained rings.
    fn window_queries(&mut self) -> io::Result<()> {
        let tracer = &mut *self.tracer;
        let retained = pumped_registry(self.inputs, self.dir, Some(paced_ring()), tracer)?;
        let listing = retained.windows();
        let fine: Vec<u64> = listing
            .first()
            .map(|p| {
                p.windows
                    .iter()
                    .filter(|w| w.first == w.last)
                    .map(|w| w.first)
                    .collect()
            })
            .unwrap_or_default();
        let [.., a, b] = fine.as_slice() else {
            return Err(other("the retained ring holds fewer than two fine windows"));
        };
        let last5 = WindowSpec::parse("windows=last:5&top=10").map_err(other)?;
        let diff = WindowSpec::parse(&format!("diff={a},{b}")).map_err(other)?;
        let (found, last5_us) = tracer.repeated("live.window.query_last5", REPEATS, |_| {
            retained.query_text(&last5)
        });
        let (differ, diff_us) = tracer.repeated("live.window.query_diff", REPEATS, |_| {
            retained.query_text(&diff)
        });
        if found.is_none() || differ.is_none() {
            return Err(other("a window query matched nothing"));
        }
        let (_, listing_us) = tracer.repeated("live.window.windows_text", REPEATS, |_| {
            windows_to_text(&retained.windows())
        });
        self.metric("live.window.query_last5_us", "us", last5_us);
        self.metric("live.window.query_diff_us", "us", diff_us);
        self.metric("live.window.windows_text_us", "us", listing_us);
        Ok(())
    }

    /// `teeperf-core::hooks` and `::recorder`: the in-process record path,
    /// classic and with batched slot reservation.
    fn hooks(&mut self) -> io::Result<()> {
        let inputs = self.inputs;
        let events = inputs.events();
        for (name, span, batch_slots) in [
            ("core.hooks.record_ns_per_event", "core.hooks.record", 1),
            (
                "core.hooks.record_batched_ns_per_event",
                "core.hooks.record_batched",
                32,
            ),
        ] {
            let recorder = Recorder::new(&RecorderConfig {
                max_entries: events + 64,
                batch_slots,
                ..RecorderConfig::default()
            });
            let mut machine = Machine::new(CostModel::sgx_v1());
            recorder.attach(&mut machine);
            let mut hooks = recorder.sim_hooks(machine.clock().clone());
            let (_, took) = self.tracer.timed(span, |_| {
                for e in inputs.sessions.iter().flat_map(|s| &s.entries) {
                    hooks.record(&mut machine, e.kind, e.addr, e.tid);
                }
            });
            self.ns_per_event(name, took);
            if batch_slots == 1 {
                let (log, took) = self
                    .tracer
                    .timed("core.recorder.finish", |_| recorder.finish());
                self.ns_per_event("core.recorder.finish_ns_per_event", took);
                if log.entries.len() as u64 != events {
                    return Err(other(format!(
                        "the recorder kept {} of {events} events",
                        log.entries.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// `teeperf-core::file`, `teeperf-analyzer`, `teeperf-flamegraph`: the
    /// batch stages, one log per session; the flame graph is drawn from
    /// the profile with the most stacks.
    fn batch_stages(&mut self) -> io::Result<()> {
        let (inputs, dir) = (self.inputs, self.dir);
        let tracer = &mut *self.tracer;
        let mut save_load_ms = Vec::new();
        let (mut group, mut reconstruct, mut build) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut hits, mut lookups) = (0u64, 0u64);
        let mut largest: Option<Profile> = None;
        for s in &inputs.sessions {
            let mut header = make_header(s.pid, s.entries.len() as u64, true, 0, 0);
            header.tail = s.entries.len() as u64;
            let file = LogFile::new(header, s.entries.clone());
            let path = dir.join(format!("{}.tpf", s.pid));
            let (loaded, took) = tracer.timed("core.file.save_load", |_| {
                file.save(&path).and_then(|()| LogFile::load(&path))
            });
            save_load_ms.push(took.as_secs_f64() * 1e3);
            if loaded.map_err(other)?.entries != file.entries {
                return Err(other(format!(
                    "pid {}: the log did not survive save and load",
                    s.pid
                )));
            }
            let (grouped, took) = tracer.timed("analyzer.reader.group", |_| {
                reader::group_entries(&s.entries)
            });
            group += took;
            reconstruct += tracer
                .timed("analyzer.stacks.reconstruct", |_| {
                    for events in grouped.threads.values() {
                        std::hint::black_box(stacks::reconstruct(events));
                    }
                })
                .1;
            let symbolizer = Symbolizer::without_relocation(s.debug.clone());
            let (p, took) = tracer.timed("analyzer.profile.build", |_| {
                profile::build_entries(&s.entries, s.pid, 0, &symbolizer, 1)
            });
            build += took;
            let cache = symbolizer.cache_stats();
            hits += cache.hits;
            lookups += cache.hits + cache.misses;
            if largest
                .as_ref()
                .is_none_or(|l| l.folded.len() < p.folded.len())
            {
                largest = Some(p);
            }
        }
        let p = largest.expect("at least one session");
        let (graph, fold_us) = tracer.repeated("flamegraph.from_folded", REPEATS, |_| {
            FlameGraph::from_folded_ids(&p.symbols, &p.folded_ids)
        });
        if graph.total_ticks() != p.total_ticks {
            return Err(other("the flame graph's total is not the profile's"));
        }
        let (svg, svg_us) = tracer.repeated("flamegraph.to_svg", REPEATS, |_| {
            graph.to_svg(&SvgOptions::default())
        });

        self.metric(
            "core.file.save_load_ms",
            "ms",
            stats::median(&save_load_ms).expect("at least one session"),
        );
        self.ns_per_event("analyzer.reader.group_ns_per_event", group);
        self.ns_per_event("analyzer.stacks.reconstruct_ns_per_event", reconstruct);
        self.ns_per_event("analyzer.profile.build_ns_per_event", build);
        self.metric(
            "analyzer.symbolize.cache_hit_ratio",
            "ratio",
            hits as f64 / lookups.max(1) as f64,
        );
        self.metric("flamegraph.from_folded_ms", "ms", fold_us / 1e3);
        self.metric("flamegraph.to_svg_ms", "ms", svg_us / 1e3);
        self.metric("flamegraph.svg_bytes", "bytes", svg.len() as f64);
        Ok(())
    }
}

/// What the daemon itself costs at rest: `Daemon::scan` in-process, then a
/// real idle `teeperfd` over the finished sessions in `dir`.
struct AtRest {
    metrics: Vec<Measured>,
    /// One `Daemon::scan` that finds nothing new, in milliseconds.
    rescan_ms: f64,
}

fn daemon_at_rest(
    inputs: &Inputs,
    dir: &Path,
    teeperfd: &Path,
    tracer: &mut Tracer,
) -> io::Result<AtRest> {
    let mut metrics = Vec::new();
    let sessions = inputs.sessions.len();
    let rescan_ms = {
        let mut daemon = Daemon::new(DaemonConfig {
            dir: dir.to_path_buf(),
            ..DaemonConfig::default()
        })?
        .without_liveness_probe();
        let (attached, took) = tracer.timed("daemon.scan", |_| daemon.scan());
        if attached != sessions {
            return Err(other(format!(
                "Daemon::scan attached {attached} of {sessions} logs"
            )));
        }
        metrics.push(Measured::once(
            "daemon.scan_attach_ms_per_session",
            "ms",
            took.as_secs_f64() * 1e3 / sessions as f64,
        ));
        tracer
            .repeated("daemon.rescan", REPEATS, |_| daemon.scan())
            .1
            / 1e3
    };

    let daemon = DaemonChild::spawn(teeperfd, dir, &[])?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = http::get(daemon.addr(), "/snapshot", Duration::from_secs(5))?;
        if Snapshot::summary_from_text(&body).map_err(other)?.events >= inputs.events() {
            break;
        }
        if Instant::now() > deadline {
            return Err(other("the idle daemon never caught up"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for (name, span, path) in [
        (
            "daemon.http.healthz_roundtrip_ms",
            "daemon.http.healthz",
            "/healthz",
        ),
        (
            "daemon.http.metrics_roundtrip_ms",
            "daemon.http.metrics",
            "/metrics",
        ),
    ] {
        let mut roundtrip_ms = Vec::new();
        for _ in 0..40 {
            // Let the daemon leave its accept loop and go to sleep, so
            // that every probe waits out one loop sleep instead of racing
            // the loop for a free ride.
            std::thread::sleep(Duration::from_millis(1));
            let began = Instant::now();
            tracer.span(span, |_| {
                http::get(daemon.addr(), path, Duration::from_secs(5))
            })?;
            roundtrip_ms.push(began.elapsed().as_secs_f64() * 1e3);
        }
        metrics.push(Measured::once(
            name,
            "ms",
            stats::median(&roundtrip_ms).expect("40 probes"),
        ));
    }
    // No clients, finished sessions: the loop's own cost, which is far
    // below one 10 ms clock tick a second.
    const IDLE: Duration = Duration::from_secs(3);
    let before = daemon.cpu_s()?;
    let began = Instant::now();
    tracer.span("daemon.idle", |_| std::thread::sleep(IDLE));
    let idle_cpu_s = daemon.cpu_s()? - before;
    metrics.push(Measured::once(
        "daemon.idle_cpu_pct",
        "%",
        idle_cpu_s / began.elapsed().as_secs_f64() * 100.0,
    ));
    daemon.shutdown()?;
    Ok(AtRest { metrics, rescan_ms })
}

/// The daemon's default loop sleep (`DaemonConfig::default().pump_interval`).
const LOOP_SLEEP_S: f64 = 0.025;
/// Loops per directory rescan (`DaemonConfig::default().scan_every`).
const SCAN_EVERY: f64 = 4.0;
/// Events after which a session redraws its frame
/// (`LiveConfig::default().refresh_events`); an upper bound on the frames,
/// since one pump draws at most one.
const REFRESH_EVENTS: f64 = 2_000.0;

fn value_of(metrics: &[Measured], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// The reconciliation row: the real daemon's counts times the replayed
/// stage costs, against the real daemon's wall clock.
fn reconcile(
    shape: &FleetShape,
    totals: &DaemonTotals,
    sessions: usize,
    layers: &[Measured],
    rescan_ms: f64,
) -> Vec<Measured> {
    let retained = shape.daemon_flags.contains(&"--retain");
    let ingest = if retained {
        "live.rolling.ingest_retained_ns_per_event"
    } else {
        "live.rolling.ingest_ns_per_event"
    };
    let loops = totals.loops as f64;
    let sleep_s = loops * LOOP_SLEEP_S;
    let drain_s = totals.events as f64
        * (value_of(layers, "core.shm_file.pump_ns_per_event") + value_of(layers, ingest))
        / 1e9;
    let idle_pump_s =
        loops * sessions as f64 * value_of(layers, "live.registry.pump_idle_us_per_session") / 1e6;
    let scan_s = loops / SCAN_EVERY * rescan_ms / 1e3;
    let frames_s = totals.events as f64 / REFRESH_EVENTS
        * value_of(layers, "live.session.render_ascii_ms")
        / 1e3;
    let snapshot_s =
        totals.snapshot_requests as f64 * value_of(layers, "daemon.route_snapshot_ms") / 1e3;
    let attributed = sleep_s + drain_s + frames_s + idle_pump_s + scan_s + snapshot_s;
    let busy = attributed - sleep_s;
    let wall = totals.wall.as_secs_f64();
    println!(
        "reconcile {:14} wall {wall:.3} s = loop sleep {sleep_s:.3} + pump/ingest {drain_s:.3} + frames {frames_s:.3} + idle pumps {idle_pump_s:.3} + rescans {scan_s:.3} \
         + snapshot path {snapshot_s:.3} + unattributed {:.3} (socket I/O in serve_pending, scheduler, timer slack); \
         attributed {:.1} %; predicted busy {busy:.3} s vs daemon CPU {:.3} s",
        shape.workload,
        wall - attributed,
        attributed / wall * 100.0,
        totals.cpu_s,
    );
    vec![
        Measured::once("reconcile.daemon_wall_s", "s", wall),
        Measured::once("reconcile.loop_sleep_s", "s", sleep_s),
        Measured::once("reconcile.pump_ingest_s", "s", drain_s),
        Measured::once("reconcile.frames_s", "s", frames_s).with_note(
            "an ASCII flame frame per session every 2 000 events, drawn whether or not it is read",
        ),
        Measured::once("reconcile.idle_pumps_s", "s", idle_pump_s),
        Measured::once("reconcile.rescans_s", "s", scan_s),
        Measured::once("reconcile.snapshot_path_s", "s", snapshot_s),
        Measured::once("reconcile.unattributed_s", "s", wall - attributed),
        Measured::once("reconcile.attributed_pct", "%", attributed / wall * 100.0),
        Measured::once("reconcile.daemon_cpu_s", "s", totals.cpu_s),
        Measured::once(
            "reconcile.snapshot_path_share_pct",
            "%",
            snapshot_s / busy * 100.0,
        )
        .with_note("freeze, merge, encode and route as a share of the daemon-side stage time"),
    ]
}

/// A traced run's result and its spans (for `trace.json`).
pub struct Traced {
    pub result: WorkloadResult,
    pub spans: Json,
}

/// The traced run of workload `name`.
pub fn run(
    name: &'static str,
    plan: &Plan,
    seed: u64,
    teeperfd: &Path,
    shm_parent: &Path,
) -> io::Result<Traced> {
    let shape = fleet::shape_of(name);
    let mut observations = Vec::new();
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (1, 0);

    // A fleet workload first runs for real, a quarter as long, for the
    // counts the reconciliation multiplies the stage costs with.
    let short = Plan {
        measure: plan.measure / 4,
        setups: 1,
        ..*plan
    };
    let mut totals = None;
    if let Some(shape) = &shape {
        let (real, t) = fleet::run(shape, &short, seed, teeperfd, shm_parent)?;
        observations.extend(real.metrics);
        observations.extend(real.observations);
        failures.extend(real.failures);
        attempted = real.attempted;
        failed = real.failed;
        totals = Some(t);
    }

    // The Phoenix pass measures the compiler, VM and cost-model layers for
    // every workload, and is the replay input of `batch_profile`.
    let mut tracer = Tracer::new(true);
    let phoenix = phoenix_pass(seed, &mut tracer)?;
    let mut layers = vec![
        Measured::once("compiler.compile_instrumented_ms", "ms", phoenix.compile_ms),
        Measured::once("mcvm.native_instr_per_s", "1/s", phoenix.native_instr_per_s),
        Measured::once(
            "tee-sim.modeled_cycles_per_event",
            "cycles",
            phoenix.modeled_cycles_per_event,
        ),
        Measured::once(
            "phoenix.overhead_ratio_modeled",
            "ratio",
            phoenix.overhead_ratio_modeled,
        ),
        Measured::once(
            "phoenix.overhead_ratio_wall",
            "ratio",
            phoenix.overhead_ratio_wall,
        ),
    ];
    let inputs = match &shape {
        Some(shape) => fleet_inputs(shape, seed),
        None => Inputs {
            sessions: phoenix.logs,
            // The batch pipeline ingests a whole log at once.
            pump_batch: usize::MAX,
        },
    };

    // The stages twice over the same inputs: first untraced, as the
    // warm-up, then traced.
    let scratch = ScratchDir::create(shm_parent)?;
    let timed_replay =
        |tracer: &mut Tracer, label: &str| -> io::Result<(Vec<Measured>, Duration)> {
            let dir = scratch.path().join(label);
            std::fs::create_dir_all(&dir)?;
            let began = Instant::now();
            let metrics = replay_stages(&inputs, &dir, tracer)?;
            Ok((metrics, began.elapsed()))
        };
    let (_, untraced) = timed_replay(&mut Tracer::new(false), "untraced")?;
    let spans_before = tracer.spans.len();
    let (staged, traced) = timed_replay(&mut tracer, "traced")?;
    layers.extend(staged);
    // The two walls differ by far more than the spans cost — the host's
    // speed moves by a quarter between them — so the overhead is taken
    // from what a span costs and how many the replay recorded.
    let span_cost = Tracer::cost_per_span() * (tracer.spans.len() - spans_before) as u32;
    layers.push(Measured::once(
        "trace.overhead_pct",
        "%",
        span_cost.as_secs_f64() / traced.as_secs_f64() * 100.0,
    ));
    let at_rest = daemon_at_rest(
        &inputs,
        &scratch.path().join("traced"),
        teeperfd,
        &mut tracer,
    )?;
    layers.extend(at_rest.metrics);

    if let (Some(shape), Some(totals)) = (&shape, &totals) {
        let row = reconcile(
            shape,
            totals,
            inputs.sessions.len(),
            &layers,
            at_rest.rescan_ms,
        );
        // A diagnostic, not an oracle: on a busy host the daemon waits for
        // a CPU, and that wait is wall no stage owns.
        let attributed = value_of(&row, "reconcile.attributed_pct");
        if !(80.0..=120.0).contains(&attributed) {
            println!("WARNING: the stages account for {attributed:.1} % of the daemon's wall, outside 80..120 %");
        }
        observations.extend(row);
    }
    for name in [
        "core.shm_file.write",
        "core.shm_file.pump",
        "live.rolling.ingest",
        "daemon.route_snapshot",
        "live.registry.merged_snapshot",
    ] {
        observations.push(Measured::once(
            &format!("self_time_ms.{name}"),
            "ms",
            tracer.self_time(name).as_secs_f64() * 1e3,
        ));
    }

    let metrics = in_catalog_order(layers, &PER_LAYER.map(|m| m.name)).map_err(other)?;
    Ok(Traced {
        spans: tracer.to_json(name),
        result: WorkloadResult {
            workload: name,
            metrics,
            observations,
            attempted,
            failed,
            failures,
            facts: vec![
                (
                    "replayed_sessions".to_string(),
                    Json::Int(inputs.sessions.len() as u64),
                ),
                ("replayed_events".to_string(), Json::Int(inputs.events())),
                (
                    "ingest_chunk".to_string(),
                    Json::Int(inputs.pump_batch.min(u32::MAX as usize) as u64),
                ),
                (
                    "untraced_replay_s".to_string(),
                    Json::Num(untraced.as_secs_f64()),
                ),
                (
                    "traced_replay_s".to_string(),
                    Json::Num(traced.as_secs_f64()),
                ),
            ],
        },
    })
}
