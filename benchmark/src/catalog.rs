//! The names this benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists the
//! same names (a test keeps the two equal); later issues cite them.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Whether the generator waits for the system (closed) or not (open).
    pub load: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_flood",
        load: "closed: 1 writer at full speed; poller on a fixed 50 ms schedule",
        why: "write -> pump -> ingest does nearly all the work and the snapshot path almost none: writer cost, drain cost, and whether the daemon keeps up",
    },
    Workload {
        name: "paced_visible",
        load: "open: 1 writer at 50 000 events/s in bursts of 64 on a fixed schedule; poller closed with 5 ms think, every 10th request a /query",
        why: "every layer lightly loaded, so latency is set by loop cadence and queueing; retention on, so ingest writes the windows that /query reads",
    },
    Workload {
        name: "fanout_poll",
        load: "closed: poller with 1 ms think time; open: writer trickles 5 000 events/s round-robin in bursts of 8",
        why: "freeze -> merge -> encode -> HTTP -> parse does nearly all the work: O(sessions x methods) per poll, and what a heavy reader costs the drain",
    },
    Workload {
        name: "batch_profile",
        load: "closed: single thread (but for one sharded view a pass, an observation), no daemon, no socket",
        why: "the paper's four-stage pipeline and the in-process hook path; shares only the analyzer and the hooks with the fleet path, so fleet work predicts no change here",
    },
];

/// One end-to-end metric: what a user of the profiler sees. Every workload
/// reports every one of them; `fleet` and `batch` say what the name means
/// on the daemon path and on the paper's batch pipeline.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub fleet: &'static str,
    pub batch: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        fleet: "events offered / wall from a segment's first write until its last event is visible",
        batch: "events recorded / wall of the instrumented runs, scaled to a host that runs the pass's native programs in 1 s",
    },
    EndToEnd {
        name: "producer_ns_per_event",
        unit: "ns",
        better: Lower,
        bound: 0.25,
        fleet: "wall inside FileShmWriter::write per event: what the profiled process pays",
        batch: "wall of the instrumented runs per recorded event (program, hooks, recorder), scaled by the pass's native runs likewise",
    },
    EndToEnd {
        name: "consumer_s_per_mevent",
        unit: "s",
        better: Lower,
        bound: 0.25,
        fleet: "CPU seconds (utime+stime of the teeperfd pid) per 10^6 events ingested",
        batch: "wall seconds of LogFile::load + Analyzer::new + profile() over the seven recordings per 10^6 events; a pass's median of 12 rounds, each scaled to a host that runs the calibration kernel in 5 ms",
    },
    EndToEnd {
        name: "visible_latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        fleet: "event written (open loop: due) -> first poll whose [live] events covers it",
        batch: "end of recording (LogFile::save called) -> SVG bytes on disk, summed over the seven recordings; rounds scaled by their calibration",
    },
    EndToEnd {
        name: "view_latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        fleet: "/snapshot request sent -> summary_from_text and methods_from_text returned",
        batch: "LogFile::load -> Analyzer::profile -> FlameGraph::to_svg returned, summed over the seven recordings; rounds scaled by their calibration",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        fleet: "workload start -> daemon spawned, sessions attached and their prefill visible",
        batch: "suite generated and compiled twice (plain, instrumented), plus the warm pass scaled by its native runs",
    },
];

/// One per-layer metric: a public function of one crate, timed from the
/// harness on the traced run. `moves` names the end-to-end metric and
/// workload it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 42] = [
    layer("core.shm_file.create_ms", "ms", Lower, "setup_s on the fleet workloads"),
    layer("core.shm_file.write_ns_per_event", "ns", Lower, "producer_ns_per_event, events_per_s on ingest_flood"),
    layer("core.shm_file.write_syscalls_per_event", "count", Lower, "producer_ns_per_event, events_per_s on ingest_flood"),
    layer("core.shm_file.pump_ns_per_event", "ns", Lower, "consumer_s_per_mevent, visible_latency_p99_ms (observation) on ingest_flood"),
    layer("core.shm_file.pump_read_syscalls_per_event", "count", Lower, "consumer_s_per_mevent, visible_latency_p99_ms (observation) on ingest_flood"),
    layer("core.shm_file.pump_idle_us", "us", Lower, "view_latency_p50_ms, visible_latency_p50_ms on fanout_poll"),
    layer("core.hooks.record_ns_per_event", "ns", Lower, "events_per_s, producer_ns_per_event on batch_profile"),
    layer("core.hooks.record_batched_ns_per_event", "ns", Lower, "events_per_s, producer_ns_per_event on batch_profile"),
    layer("core.recorder.finish_ns_per_event", "ns", Lower, "visible_latency_p50_ms on batch_profile"),
    layer("core.file.save_load_ms", "ms", Lower, "visible_latency_p50_ms on batch_profile"),
    layer("live.rolling.ingest_ns_per_event", "ns", Lower, "consumer_s_per_mevent on ingest_flood"),
    layer("live.rolling.ingest_retained_ns_per_event", "ns", Lower, "consumer_s_per_mevent, visible_latency_p50_ms on paced_visible"),
    layer("live.rolling.snapshot_ms", "ms", Lower, "view_latency_p50_ms on fanout_poll"),
    layer("live.registry.merged_snapshot_ms", "ms", Lower, "view_latency_p50_ms on fanout_poll"),
    layer("live.registry.snapshot_pid_ms", "ms", Lower, "view_latency_p50_ms on fanout_poll"),
    layer(
        "live.session.render_ascii_ms",
        "ms",
        Lower,
        "consumer_s_per_mevent on paced_visible and fanout_poll (a frame per session every 2 000 events)",
    ),
    layer("live.snapshot.to_text_ms", "ms", Lower, "view_latency_p50_ms on fanout_poll"),
    layer("live.snapshot.text_bytes", "bytes", Lower, "view_latency_p50_ms on fanout_poll"),
    layer("live.snapshot.parse_ms", "ms", Lower, "view_latency_p50_ms on fanout_poll"),
    layer("live.registry.pump_idle_us_per_session", "us", Lower, "visible_latency_p50_ms on fanout_poll"),
    layer("live.window.query_last5_us", "us", Lower, "query_latency_p50_ms (observation) on paced_visible"),
    layer("live.window.query_diff_us", "us", Lower, "query_latency_p50_ms (observation) on paced_visible"),
    layer("live.window.windows_text_us", "us", Lower, "query_latency_p50_ms (observation) on paced_visible"),
    layer("daemon.scan_attach_ms_per_session", "ms", Lower, "setup_s on fanout_poll"),
    layer("daemon.route_snapshot_ms", "ms", Lower, "view_latency_p50_ms on fanout_poll"),
    layer("daemon.http.healthz_roundtrip_ms", "ms", Lower, "view_latency_p50_ms, visible_latency_p50_ms on paced_visible"),
    layer("daemon.http.metrics_roundtrip_ms", "ms", Lower, "view_latency_p50_ms, visible_latency_p50_ms on paced_visible"),
    layer("daemon.idle_cpu_pct", "%", Lower, "consumer_s_per_mevent on paced_visible"),
    layer("analyzer.reader.group_ns_per_event", "ns", Lower, "consumer_s_per_mevent, view_latency_p50_ms on batch_profile"),
    layer("analyzer.stacks.reconstruct_ns_per_event", "ns", Lower, "consumer_s_per_mevent, view_latency_p50_ms on batch_profile"),
    layer("analyzer.profile.build_ns_per_event", "ns", Lower, "consumer_s_per_mevent, view_latency_p50_ms on batch_profile"),
    layer("analyzer.symbolize.cache_hit_ratio", "ratio", Higher, "consumer_s_per_mevent on batch_profile"),
    layer("analyzer.profile.merge_profiles_ms", "ms", Lower, "view_latency_p50_ms on fanout_poll (shared by batch and live)"),
    layer("flamegraph.from_folded_ms", "ms", Lower, "visible_latency_p50_ms, view_latency_p50_ms on batch_profile"),
    layer("flamegraph.to_svg_ms", "ms", Lower, "visible_latency_p50_ms, view_latency_p50_ms on batch_profile"),
    layer("flamegraph.svg_bytes", "bytes", Lower, "visible_latency_p50_ms on batch_profile"),
    layer("compiler.compile_instrumented_ms", "ms", Lower, "setup_s on batch_profile"),
    layer("mcvm.native_instr_per_s", "1/s", Higher, "denominator of phoenix.overhead_ratio_wall"),
    layer("tee-sim.modeled_cycles_per_event", "cycles", Lower, "phoenix.overhead_ratio_modeled"),
    layer("phoenix.overhead_ratio_modeled", "ratio", Lower, "the paper's Fig. 4 figure (TEE-Perf / perf-sim modeled cycles); a count, never mixed with wall"),
    layer("phoenix.overhead_ratio_wall", "ratio", Lower, "events_per_s, producer_ns_per_event on batch_profile"),
    layer("trace.overhead_pct", "%", Lower, "nothing: what recording the spans costs the traced replay"),
];
