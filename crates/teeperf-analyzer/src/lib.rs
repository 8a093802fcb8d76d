//! # teeperf-analyzer — stage 3 of TEE-Perf: the offline analyzer
//!
//! The paper's analyzer (370 LoC of Python on numpy/pandas plus
//! `addr2line`, `readelf` and `c++filt`) reads the recorded log, groups the
//! call/return entries per thread, reconstructs every call stack, computes
//! the time spent in each method — both *inclusive* and *exclusive* (with
//! callee time subtracted) — correlates addresses with function names
//! through the binary's debug information, and exposes a rich declarative
//! query interface for ad-hoc investigation (§II-B stage 3, §II-C).
//!
//! This crate reproduces all of that in Rust:
//!
//! * [`reader`] — validates the log file (version, incomplete trailing
//!   records are dismissed, dropped-entry accounting) and groups events per
//!   thread;
//! * [`stacks`] — per-thread call-stack reconstruction that tolerates
//!   truncated logs and orphan returns, and interns every stack it opens
//!   in a [`PathTable`] — the calling-context tree every table below is
//!   indexed by;
//! * [`profile`] — method-level aggregation: calls, inclusive/exclusive
//!   ticks, min/max, per-thread breakdowns, and folded stacks for the
//!   visualizer. Aggregation is on integers and symbolization comes last,
//!   once: [`Aggregates`] is one process's table of rows per stack id,
//!   and [`ProfileMerge`], over a [`NameSpace`], the one thing that reads
//!   rows into a [`Profile`] — one process's ([`Walker::materialize`]) or
//!   many's. Profiles, or aggregates or logs of new calls whose stacks
//!   their session has placed there, go in; names are small integers
//!   inside, methods and edges are grouped by name and threads keyed by
//!   process and tid, and `finish` makes the strings of the merged rows
//!   only — or `method_rows` / `folded_rows` hand out the two tables a
//!   snapshot is written from, in the same order, and make none
//!   ([`merge_profiles`] is its fold over profiles);
//! * [`symbolize`] — `addr2line`/`c++filt` equivalent: relocation via the
//!   header's anchor address, then symbol lookup and demangling;
//! * [`query`] — a small dataframe engine with a declarative query language
//!   (the pandas stand-in): `select … where … sort … limit …` and
//!   `group … agg …`;
//! * [`report`] — the sorted text report the developer reads first.

#![forbid(unsafe_code)]

pub mod compare;
pub mod profile;
pub mod query;
pub mod reader;
pub mod report;
pub mod stacks;
pub mod symbolize;

pub use compare::diff;

pub use profile::Aggregates;
pub use profile::{
    merge_profiles, FoldMark, MethodStats, NameSpace, NameSums, PathNames, Profile, ProfileMerge,
    Walker,
};
pub use query::frame::{Column, Frame};
pub use query::run_query;
pub use query::windowed::{RankBy, WindowSel, WindowSpec};
pub use reader::{AnalyzeError, ThreadEvents};
pub use stacks::{ClosedCall, CompletedCall, PathId, PathTable, ResumableStacks};
pub use symbolize::{SymId, SymbolCacheStats, Symbolizer};

use mcvm::DebugInfo;
use teeperf_core::LogFile;

/// The analyzer: owns one recorded log and its matching debug info.
#[derive(Debug, Clone)]
pub struct Analyzer {
    log: LogFile,
    symbolizer: Symbolizer,
    threads: usize,
}

impl Analyzer {
    /// Validate the log and bind it to the binary's debug info. Analysis
    /// defaults to one shard, the walk over the log where it lies; see
    /// [`Analyzer::with_analyzer_threads`].
    ///
    /// # Errors
    /// Returns [`reader::validate`]'s error: an untrustworthy header (an
    /// incompatible recorder version, say) or a body larger than the
    /// capacity it declares.
    pub fn new(log: LogFile, debug: DebugInfo) -> Result<Analyzer, AnalyzeError> {
        reader::validate(&log)?;
        let symbolizer = Symbolizer::new(debug, &log.header);
        Ok(Analyzer {
            log,
            symbolizer,
            threads: 1,
        })
    }

    /// Set the number of analyzer shards (worker threads) used by
    /// [`Analyzer::profile`]. `0` means one per available core; `1`, the
    /// default, is the sequential walk. The profile is byte-identical at
    /// every setting.
    #[must_use]
    pub fn with_analyzer_threads(mut self, threads: usize) -> Analyzer {
        self.threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        self
    }

    /// The underlying log.
    pub fn log(&self) -> &LogFile {
        &self.log
    }

    /// The symbolizer (for address → name lookups).
    pub fn symbolizer(&self) -> &Symbolizer {
        &self.symbolizer
    }

    /// Build the full method-level profile, sharded over the configured
    /// number of analyzer threads, reading the log's entries in place.
    pub fn profile(&self) -> Profile {
        profile::build_with_shards(&self.log, &self.symbolizer, self.threads)
    }

    /// Raw events as a queryable dataframe with columns
    /// `seq, tid, kind, counter, addr, method`.
    pub fn events_frame(&self) -> Frame {
        profile::events_frame(&self.log, &self.symbolizer)
    }

    /// Method statistics as a queryable dataframe with columns
    /// `method, calls, incl, excl, excl_pct, min, max, threads`.
    pub fn methods_frame(&self) -> Frame {
        self.profile().methods_frame()
    }

    /// Answer `query` from the frame it is about: a query that references
    /// a per-event column goes to [`Analyzer::events_frame`], any other to
    /// [`Analyzer::methods_frame`]. What counts is the columns the parsed
    /// query names — a method called `kind_of` in a string literal does
    /// not make a methods query an events query.
    ///
    /// # Errors
    /// Returns [`query::QueryError`] on parse errors, unknown columns or
    /// type mismatches.
    pub fn query(&self, query: &str) -> Result<Frame, query::QueryError> {
        /// The columns only the events frame has.
        const PER_EVENT: [&str; 5] = ["seq", "tid", "kind", "counter", "addr"];
        let parsed = query::parse_query(query)?;
        let frame = if parsed.columns().iter().any(|c| PER_EVENT.contains(c)) {
            self.events_frame()
        } else {
            self.methods_frame()
        };
        query::exec::execute(&frame, &parsed)
    }

    /// The human-readable sorted report. Symbolization problems (e.g. an
    /// ignored anchor) surface as a trailing warning line.
    pub fn report(&self) -> String {
        let mut out = report::render(&self.profile(), &self.log);
        if let Some(w) = self.symbolizer.anchor_warning() {
            out.push_str(&format!("warning: {w}\n"));
        }
        out
    }
}
