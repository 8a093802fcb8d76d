//! Time-travel query latency: how the windowed query engine scales with
//! the number of retained windows.
//!
//! The retention ring keeps per-window [`Aggregates`] and answers queries
//! by merging the selected slots and materializing the merge — so the
//! interesting axis is the retained-window count: `last:5` should stay
//! flat (it touches five slots no matter how much history exists), the
//! whole-history merge grows linearly, and a two-window diff pays two
//! single-slot materializations plus the frame join.
//!
//! [`run_query_latency`] builds a [`SessionRegistry`] per window count —
//! several pids, a deterministic synthetic trace filling every window with
//! the same number of completed calls — and times the three query shapes
//! the daemon serves over `/query` ([`SessionRegistry::query_text`], the
//! exact serving path minus HTTP framing):
//!
//! * `last5_top10` — `windows=last:5&top=10`, the `teeperf top --window`
//!   steady-state poll;
//! * `all_merge` — `windows=all`, the worst-case whole-history merge;
//! * `diff` — `diff=a,b` over two recent windows.
//!
//! Each cell reports the **minimum** of `repeats` wall measurements (the
//! least scheduler-disturbed sample of a deterministic computation).
//! Latencies are single-threaded over in-memory rings; there is no I/O or
//! concurrency in the measured path, so one host core is enough for
//! honest numbers.
//!
//! [`Aggregates`]: teeperf_analyzer::Aggregates

use std::time::Instant;

use mcvm::DebugInfo;
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_analyzer::WindowSpec;
use teeperf_core::layout::{make_header, EventKind, LogEntry, LogHeader};
use teeperf_core::{FileReplaySource, LogFile};
use teeperf_live::{LiveConfig, RingConfig, SessionRegistry};

use crate::util::render_table;

/// Distinct function names in the synthetic trace (spreads the per-window
/// aggregates over a realistic method table).
const FUNCS: u16 = 16;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct QueryBenchOptions {
    /// Retained-window counts to sweep (ring capacity == windows filled,
    /// so every cell queries exactly this much history).
    pub window_counts: Vec<usize>,
    /// Completed calls per window per pid.
    pub calls_per_window: u64,
    /// Simulated processes feeding the registry.
    pub pids: u64,
    /// Wall measurements per query shape; the minimum is reported.
    pub repeats: usize,
}

impl Default for QueryBenchOptions {
    fn default() -> Self {
        QueryBenchOptions {
            window_counts: vec![8, 32, 128, 512],
            calls_per_window: 200,
            pids: 2,
            repeats: 30,
        }
    }
}

impl QueryBenchOptions {
    /// A tiny sweep for CI smoke runs (finishes in seconds).
    pub fn smoke() -> Self {
        QueryBenchOptions {
            window_counts: vec![4, 8],
            calls_per_window: 20,
            pids: 2,
            repeats: 3,
        }
    }
}

/// One window-count cell's latencies (microseconds, minimum of repeats).
#[derive(Debug, Clone)]
pub struct QueryCell {
    /// Windows retained (and queried) in this cell.
    pub windows: usize,
    /// `windows=last:5&top=10` latency.
    pub last5_top10_us: f64,
    /// `windows=all` whole-history merge latency.
    pub all_merge_us: f64,
    /// `diff=a,b` two-window diff latency.
    pub diff_us: f64,
    /// Bytes of the `windows=all` response body (shows the payload the
    /// latency covers).
    pub all_bytes: usize,
}

/// The whole benchmark's results.
#[derive(Debug, Clone)]
pub struct QueryBenchResult {
    /// Per-window-count cells, in sweep order.
    pub cells: Vec<QueryCell>,
    /// Pids per registry.
    pub pids: u64,
    /// Calls per window per pid.
    pub calls_per_window: u64,
}

impl QueryBenchResult {
    /// Render the sweep as an ASCII table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.windows.to_string(),
                    format!("{:.1}", c.last5_top10_us),
                    format!("{:.1}", c.all_merge_us),
                    format!("{:.1}", c.diff_us),
                    c.all_bytes.to_string(),
                ]
            })
            .collect();
        render_table(
            &[
                "windows",
                "last5_top10_us",
                "all_merge_us",
                "diff_us",
                "all_bytes",
            ],
            &rows,
        )
    }

    /// Serialize as the `BENCH_query_latency.json` artifact.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"query_latency\",");
        let _ = writeln!(s, "  \"pids\": {},", self.pids);
        let _ = writeln!(s, "  \"calls_per_window\": {},", self.calls_per_window);
        let _ = writeln!(
            s,
            "  \"note\": \"latencies are the minimum of repeated wall measurements of \
             a deterministic single-threaded computation (registry query over in-memory \
             retention rings; the daemon's /query path minus HTTP framing)\","
        );
        let _ = writeln!(s, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"windows\": {}, \"last5_top10_us\": {:.2}, \"all_merge_us\": {:.2}, \
                 \"diff_us\": {:.2}, \"all_bytes\": {}}}",
                c.windows, c.last5_top10_us, c.all_merge_us, c.diff_us, c.all_bytes,
            );
            let _ = writeln!(s, "{}", if i + 1 < self.cells.len() { "," } else { "" });
        }
        let _ = writeln!(s, "  ]");
        s.push_str("}\n");
        s
    }

    /// Sanity checks on the sweep: every cell answered every query shape.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        for c in &self.cells {
            if c.all_bytes == 0 {
                return Err(format!("windows={}: empty windows=all response", c.windows));
            }
            if c.last5_top10_us <= 0.0 || c.all_merge_us <= 0.0 || c.diff_us <= 0.0 {
                return Err(format!("windows={}: non-positive latency", c.windows));
            }
        }
        Ok(())
    }
}

fn debug() -> DebugInfo {
    let funcs: Vec<(String, u64, u32)> = (0..FUNCS)
        .map(|i| (format!("fn_{i:02}"), 4, u32::from(i) * 4 + 1))
        .collect();
    DebugInfo::from_functions(funcs.iter().map(|(n, s, l)| (n.as_str(), *s, *l)))
}

/// A synthetic single-thread trace for one pid: `calls` flat call/return
/// pairs per window, every one exiting inside its window, function names
/// rotating through the pool so each window aggregates a full method
/// table. Four ticks per call keeps the layout deterministic:
/// call `c` of window `w` spans `w*interval + 4c + 1 ..= +3`.
fn trace(pid: u64, windows: usize, calls: u64) -> LogFile {
    let d = debug();
    let interval = calls * 4 + 4;
    let mut entries = Vec::with_capacity(windows * calls as usize * 2);
    for w in 0..windows as u64 {
        for c in 0..calls {
            let enter = w * interval + c * 4 + 1;
            let addr = d.entry_addr(((w + c + pid) % u64::from(FUNCS)) as u16);
            entries.push(LogEntry {
                kind: EventKind::Call,
                counter: enter,
                addr,
                tid: 0,
            });
            entries.push(LogEntry {
                kind: EventKind::Return,
                counter: enter + 2,
                addr,
                tid: 0,
            });
        }
    }
    let n = entries.len() as u64;
    let header = LogHeader {
        active: false,
        tail: n,
        ..make_header(pid, n, true, 0, 0)
    };
    LogFile::new(header, entries)
}

/// Tick width of one window in [`trace`]'s layout.
fn interval_for(calls: u64) -> u64 {
    calls * 4 + 4
}

/// Build a registry with exactly `windows` retained windows per pid.
fn build_registry(windows: usize, options: &QueryBenchOptions) -> SessionRegistry {
    let config = LiveConfig {
        retention: Some(RingConfig {
            interval: interval_for(options.calls_per_window),
            capacity: windows,
            // Pure eviction: every retained slot stays one window wide, so
            // the cell's "windows" axis is exact.
            max_width: 1,
        }),
        ..LiveConfig::default()
    };
    let mut registry = SessionRegistry::new(config);
    for p in 1..=options.pids {
        let log = trace(p, windows, options.calls_per_window);
        let sym = Symbolizer::without_relocation(debug());
        registry
            .attach(Box::new(FileReplaySource::new(&log)), sym)
            .expect("synthetic pids are unique and nonzero");
    }
    while registry.pump() > 0 {}
    registry
}

/// Minimum wall time of `repeats` runs of `query`, in microseconds; the
/// response text is validated once and its length returned.
fn time_query(registry: &SessionRegistry, spec: &str, repeats: usize) -> (f64, usize) {
    let parsed = WindowSpec::parse(spec).expect("bench specs are well-formed");
    let body = registry
        .query_text(&parsed)
        .expect("bench registries retain data");
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let parsed = WindowSpec::parse(spec).expect("bench specs are well-formed");
        let out = registry.query_text(&parsed);
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        assert!(out.is_some(), "query went unanswerable mid-bench");
        best = best.min(elapsed);
    }
    (best.max(0.01), body.len())
}

/// Run the sweep.
pub fn run_query_latency(options: &QueryBenchOptions) -> QueryBenchResult {
    let mut cells = Vec::new();
    for &windows in &options.window_counts {
        let registry = build_registry(windows, options);
        let retained = registry.windows();
        assert!(
            retained.iter().all(|p| p.windows.len() == windows),
            "every pid must retain exactly the swept window count"
        );
        let newest = retained[0].windows.last().expect("windows retained").first;
        let (last5_top10_us, _) = time_query(&registry, "windows=last:5&top=10", options.repeats);
        let (all_merge_us, all_bytes) = time_query(&registry, "windows=all", options.repeats);
        let diff_spec = format!("diff={},{newest}", newest.saturating_sub(1));
        let (diff_us, _) = time_query(&registry, &diff_spec, options.repeats);
        cells.push(QueryCell {
            windows,
            last5_top10_us,
            all_merge_us,
            diff_us,
            all_bytes,
        });
    }
    QueryBenchResult {
        cells,
        pids: options.pids,
        calls_per_window: options.calls_per_window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_answers_all_query_shapes() {
        let options = QueryBenchOptions::smoke();
        let result = run_query_latency(&options);
        assert_eq!(result.cells.len(), options.window_counts.len());
        result.check().expect("all shapes answered");
        let table = result.render();
        assert!(table.contains("last5_top10_us"), "{table}");
        let json = result.to_json();
        assert!(json.contains("\"bench\": \"query_latency\""), "{json}");
        assert!(json.contains("\"windows\": 8"), "{json}");
        assert!(json.trim_end().ends_with('}'), "{json}");
    }
}
