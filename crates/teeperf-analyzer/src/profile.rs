//! Method-level profile aggregation — sequential or sharded across worker
//! threads.
//!
//! The pass is the paper's: walk each thread's events through the stack
//! machine, and add every call to an [`Aggregates`] as it closes
//! ([`Aggregates::add_call`], the one way in). One [`Walker`] runs it for
//! every sequential consumer — the batch build feeds it the whole log, a
//! rolling profile each drained batch — over the entries where they lie,
//! one thread's run of consecutive entries at a time, copying no event.
//! The stack machine has already interned the call's stack in a
//! [`PathTable`] when the call opened, so an aggregate is one table of rows
//! indexed by [`PathId`] and adding a call indexes a row.
//!
//! Threads in a log are independent by construction (the recorder holds
//! each thread until its entry is written, so per-thread order is program
//! order), which makes the pass embarrassingly parallel: group the entries
//! per thread, shard the threads over workers, run it per shard — each
//! shard with a table of its own — then adopt the shards' tables into one
//! and add their rows under the translation. Every aggregate operation is
//! commutative and associative and every output table is in a total
//! order, so the sharded result is byte-identical to the walker's, which
//! meets the stacks in another order — the invariant `build_with_shards`
//! is tested against.
//!
//! A [`Profile`] is made in one place, [`ProfileMerge::finish`], whatever
//! the number of processes. Across processes an address means nothing —
//! the same function loads at different addresses, different functions at
//! the same one — so the merge lives in a [`NameSpace`]: the calling-context
//! tree spelled in names, each stack's children kept in name order, so that
//! a walk of it is the folded table in order. Methods, folded stacks and
//! caller edges are grouped by name, and a thread is keyed by
//! [`merged_thread_key`] of its process and tid. A one-process profile is a
//! merge of one: [`Walker::materialize`] adds its aggregate and reads it,
//! so within a process, too, two addresses that symbolize to one name are
//! one method row. [`ProfileMerge`] is fed with finished [`Profile`]s, or
//! with [`Aggregates`] — whole, or what they gained since a [`FoldMark`] —
//! whose session remembers where its stacks sit in the name space
//! ([`PathNames`]), and is
//! read as often as asked: as a profile, or as just the method and folded
//! rows a snapshot's text is written from. A question that needs only the
//! method sums — a ranked window query — adds the same aggregates through
//! the same memo to a [`NameSums`] instead, which keeps one row of sums
//! per name and nothing else.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

use crate::query::frame::Frame;
use crate::query::windowed::MethodRow;
use crate::reader::{self, Event};
use crate::stacks::{ClosedCall, PathId, PathTable, ResumableStacks};
use crate::symbolize::Symbolizer;
use teeperf_core::layout::LogEntry;
use teeperf_core::LogFile;

/// The caller name top-level frames hang off in [`Profile::caller_edges`].
const ROOT_NAME: &str = "<root>";

/// Aggregated statistics for one method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodStats {
    /// Demangled method name.
    pub name: String,
    /// Runtime entry address.
    pub addr: u64,
    /// Number of completed calls.
    pub calls: u64,
    /// Total inclusive ticks.
    pub inclusive: u64,
    /// Total exclusive ticks (callee time subtracted).
    pub exclusive: u64,
    /// Fastest single call (inclusive ticks).
    pub min_inclusive: u64,
    /// Slowest single call (inclusive ticks).
    pub max_inclusive: u64,
    /// Threads that executed the method, keyed as [`Profile::threads`].
    pub threads: BTreeSet<u64>,
}

/// Data-quality counters surfaced alongside the profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Anomalies {
    /// Returns without a matching call.
    pub orphan_returns: u64,
    /// Frames force-closed at the end of the log.
    pub truncated_frames: u64,
    /// All-zero records dismissed by the reader.
    pub incomplete_entries: u64,
    /// Entries the recorder dropped because the log was full.
    pub dropped_entries: u64,
}

impl Anomalies {
    /// Add `other`'s counters to these: a merged view's anomalies are the
    /// sums of its parts'.
    pub fn add(&mut self, other: &Anomalies) {
        self.orphan_returns += other.orphan_returns;
        self.truncated_frames += other.truncated_frames;
        self.incomplete_entries += other.incomplete_entries;
        self.dropped_entries += other.dropped_entries;
    }
}

/// One caller→callee edge of the dynamic call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallerEdge {
    /// The calling method (`<root>` for top-level frames).
    pub caller: String,
    /// The called method.
    pub callee: String,
    /// Number of calls along this edge.
    pub calls: u64,
    /// Inclusive ticks of the callee when invoked from this caller.
    pub inclusive: u64,
    /// Exclusive ticks of the callee when invoked from this caller.
    pub exclusive: u64,
}

/// A complete method-level profile of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Per-method statistics, sorted by exclusive ticks descending — the
    /// paper's "presented in a sorted way to the programmer".
    pub methods: Vec<MethodStats>,
    /// Folded stacks: (named path outermost→innermost, exclusive ticks).
    /// This is the flame-graph input format.
    pub folded: Vec<(Vec<String>, u64)>,
    /// Interned symbol table for [`Profile::folded_ids`]: profile-local,
    /// deterministic (ids assigned in order of first appearance in the
    /// sorted `folded`), names pairwise distinct.
    pub symbols: Vec<String>,
    /// `folded` with every frame replaced by its index into `symbols`, so
    /// downstream joins (the flame-graph merge trie) compare integers
    /// instead of strings.
    pub folded_ids: Vec<(Vec<u32>, u64)>,
    /// Caller-context breakdown (§II-C "performance depending on the call
    /// history of a method"), sorted by inclusive ticks descending.
    pub caller_edges: Vec<CallerEdge>,
    /// Every thread observed, even one with zero completed calls, keyed by
    /// [`merged_thread_key`] of its process and tid — in a one-process
    /// profile as in a merge ([`MethodStats::threads`] likewise). A tid
    /// counts by its low 32 bits only.
    pub threads: BTreeSet<u64>,
    /// Sum of exclusive ticks over all methods (== total profiled time).
    pub total_ticks: u64,
    /// Data-quality counters.
    pub anomalies: Anomalies,
    /// Process ids this profile covers: the one a single-log build or a
    /// session was read as (none for a rolling profile given none), the
    /// union for a merge.
    pub pids: BTreeSet<u64>,
}

/// The counters of one row: a stack's, a method's or a merged stack's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    calls: u64,
    inclusive: u64,
    exclusive: u64,
    min_inclusive: u64,
    max_inclusive: u64,
}

impl Default for Counts {
    /// The identity of [`Counts::add`]: no calls, so no fastest one.
    fn default() -> Counts {
        Counts {
            calls: 0,
            inclusive: 0,
            exclusive: 0,
            min_inclusive: u64::MAX,
            max_inclusive: 0,
        }
    }
}

impl Counts {
    /// Fold `other` into these counters.
    #[inline]
    fn add(&mut self, other: &Counts) {
        self.calls += other.calls;
        self.inclusive += other.inclusive;
        self.exclusive += other.exclusive;
        self.min_inclusive = self.min_inclusive.min(other.min_inclusive);
        self.max_inclusive = self.max_inclusive.max(other.max_inclusive);
    }
}

/// One row of an [`Aggregates`] (a stack's): counters and the threads
/// behind them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Row {
    counts: Counts,
    /// Threads that completed a call here, ascending.
    threads: Vec<u64>,
}

impl Row {
    /// Fold another row in.
    fn add_row(&mut self, other: &Row) {
        self.counts.add(&other.counts);
        for tid in &other.threads {
            note_thread(&mut self.threads, *tid);
        }
    }
}

/// Add `tid` to the ascending set `threads`; whether that is news.
#[inline]
fn note_thread(threads: &mut Vec<u64>, tid: u64) -> bool {
    match threads.binary_search(&tid) {
        Ok(_) => false,
        Err(at) => {
            threads.insert(at, tid);
            true
        }
    }
}

/// The row at `index`, the table grown to reach it.
#[inline]
fn row_at<T: Default>(rows: &mut Vec<T>, index: usize) -> &mut T {
    if rows.len() <= index {
        grow_to(rows, index);
    }
    &mut rows[index]
}

/// Grow `rows` to hold `index`: once per new stack or name, so kept out
/// of [`row_at`]'s callers.
#[cold]
fn grow_to<T: Default>(rows: &mut Vec<T>, index: usize) {
    rows.resize_with(index + 1, T::default);
}

/// Add one caller→callee contribution `(calls, inclusive, exclusive)` to
/// the row of the name pair `edge`.
fn add_edge(
    edges: &mut HashMap<(u32, u32), (u64, u64, u64)>,
    edge: (u32, u32),
    (calls, inclusive, exclusive): (u64, u64, u64),
) {
    let e = edges.entry(edge).or_default();
    e.0 += calls;
    e.1 += inclusive;
    e.2 += exclusive;
}

/// The method table's sort key, a total order: exclusive ticks descending,
/// then name, then address.
fn method_key(exclusive: u64, name: &str, addr: u64) -> (Reverse<u64>, &str, u64) {
    (Reverse(exclusive), name, addr)
}

fn method_stats(name: String, addr: u64, counts: Counts, threads: BTreeSet<u64>) -> MethodStats {
    MethodStats {
        name,
        addr,
        calls: counts.calls,
        inclusive: counts.inclusive,
        exclusive: counts.exclusive,
        min_inclusive: counts.min_inclusive,
        max_inclusive: counts.max_inclusive,
        threads,
    }
}

/// Aggregation state over completed calls: one row of counters per stack,
/// indexed by the [`PathId`] the stack machine interned the stack under.
///
/// This is the merge kernel shared by the batch analyzer (one per shard)
/// and `teeperf-live` (a session's rolling aggregate and every retained
/// window, all over the session's one [`PathTable`]): adding a call indexes
/// a row, and the method, folded-stack and caller-edge tables are grouped
/// out of the rows — and symbolized — only when a [`ProfileMerge`] is read.
/// An aggregate does not hold its table; whoever fed the stack machine
/// does, and lends it where ids must mean something. Merging is
/// commutative and associative — the property that makes shard merge order
/// irrelevant and any set of windows summable.
#[derive(Debug, Clone, Default)]
pub struct Aggregates {
    /// As long as the highest id a call was added under needs.
    rows: Vec<Row>,
    threads: BTreeSet<u64>,
    /// Returns without a matching call: the stream's, so its consumer's
    /// to add (what [`ResumableStacks::feed`] returns).
    pub orphan_returns: u64,
    /// Calls added that were force-closed (by an unwinding return, or at
    /// the end of the log / session). Exact, never scaled.
    pub truncated_frames: u64,
}

impl Aggregates {
    /// An empty aggregate.
    pub fn new() -> Aggregates {
        Aggregates::default()
    }

    /// Threads observed so far: every thread a call was added for or a
    /// walk met.
    pub fn thread_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.threads.iter().copied()
    }

    /// Register `tid` as observed. A thread whose events complete no call
    /// (orphan returns only, or frames still open) is still a thread of
    /// the profile.
    fn observe_thread(&mut self, tid: u64) {
        self.threads.insert(tid);
    }

    /// Fold one completed call of `tid` into the aggregate — the one way
    /// a call enters a table. `scale` is the bias correction a 1-in-N
    /// sampled stream applies so its admitted calls estimate the full
    /// population (clamped to at least 1, which is exact): the call stands
    /// for `scale` calls of the same shape, contributing `scale ×` its
    /// ticks. `min_inclusive`/`max_inclusive` stay per-call observations
    /// (sampling changes how many calls were seen, not how long one took),
    /// and a truncated call counts once: it is an exact observation of the
    /// stream, not a sampled estimate.
    #[inline]
    pub fn add_call(&mut self, tid: u64, call: ClosedCall, scale: u64) {
        let scale = scale.max(1);
        let (inclusive, exclusive) = (call.inclusive(), call.exclusive());
        self.truncated_frames += u64::from(call.truncated);
        let row = row_at(&mut self.rows, call.path.index());
        let counts = &mut row.counts;
        counts.calls += scale;
        counts.inclusive += scale * inclusive;
        counts.exclusive += scale * exclusive;
        counts.min_inclusive = counts.min_inclusive.min(inclusive);
        counts.max_inclusive = counts.max_inclusive.max(inclusive);
        if row.threads.last() != Some(&tid) {
            self.note_row_thread(call.path, tid);
        }
    }

    /// Note that `tid` completed a call under `path`, whose row exists.
    /// Kept out of line: most calls close on the thread that closed the
    /// row's last one.
    #[inline(never)]
    fn note_row_thread(&mut self, path: PathId, tid: u64) {
        if note_thread(&mut self.rows[path.index()].threads, tid) {
            self.threads.insert(tid);
        }
    }

    /// Fold in another aggregate over the same table: a sum by id.
    pub fn merge(&mut self, other: &Aggregates) {
        self.merge_rows(other, |index| index);
    }

    /// Fold in an aggregate over another table, `translation` (what
    /// [`PathTable::adopt`] returned for that table) giving each of its
    /// ids in this aggregate's.
    pub fn merge_translated(&mut self, other: &Aggregates, translation: &[PathId]) {
        self.merge_rows(other, |index| translation[index].index());
    }

    fn merge_rows(&mut self, other: &Aggregates, translate: impl Fn(usize) -> usize) {
        for (index, row) in other.rows.iter().enumerate() {
            if row.counts.calls > 0 {
                row_at(&mut self.rows, translate(index)).add_row(row);
            }
        }
        self.threads.extend(&other.threads);
        self.orphan_returns += other.orphan_returns;
        self.truncated_frames += other.truncated_frames;
    }
}

/// The pass over one shard of grouped threads: walk each thread's events
/// through the stack machine and add every call to the shard's aggregate
/// as it closes. The shard's threads share the table it returns.
fn analyze_shard(threads: &[(u64, &[Event])]) -> (PathTable, Aggregates) {
    let (mut paths, mut agg) = (PathTable::new(), Aggregates::new());
    for (tid, events) in threads {
        agg.observe_thread(*tid);
        let mut stacks = ResumableStacks::new();
        let mut add = |call| agg.add_call(*tid, call, 1);
        let orphans = stacks.feed(&mut paths, events, &mut add);
        stacks.finish(add);
        agg.orphan_returns += orphans;
    }
    (paths, agg)
}

/// Deterministically partition `loads` (per-item work estimates, e.g.
/// event counts per thread) into `shards` buckets, balancing bucket totals
/// with longest-processing-time-first: items are placed heaviest first
/// into the currently lightest bucket (all ties broken by index). Returns
/// the item indices per bucket.
fn partition_by_load(loads: &[usize], shards: usize) -> Vec<Vec<usize>> {
    let shards = shards.max(1).min(loads.len().max(1));
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by_key(|i| (std::cmp::Reverse(loads[*i]), *i));
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut totals = vec![0usize; shards];
    for i in order {
        let lightest = (0..shards)
            .min_by_key(|s| (totals[*s], *s))
            .expect("at least one shard");
        totals[lightest] += loads[i];
        buckets[lightest].push(i);
    }
    buckets
}

/// Build the profile for a validated log (sequential).
pub fn build(log: &LogFile, symbolizer: &Symbolizer) -> Profile {
    build_with_shards(log, symbolizer, 1)
}

/// Build the profile, fanning per-thread reconstruction and aggregation
/// out over `shards` scoped worker threads. Threads are assigned to shards
/// by event-count balance; the merged result is byte-identical to the
/// sequential build (`shards <= 1`).
pub fn build_with_shards(log: &LogFile, symbolizer: &Symbolizer, shards: usize) -> Profile {
    build_entries(
        &log.entries,
        log.header.pid,
        log.header.dropped_entries(),
        symbolizer,
        shards,
    )
}

/// Build the profile over raw entries from process `pid` (the core of
/// [`build_with_shards`]). One shard feeds them to a [`Walker`] where they
/// lie; more group them per thread first and fork.
pub fn build_entries(
    entries: &[LogEntry],
    pid: u64,
    dropped: u64,
    symbolizer: &Symbolizer,
    shards: usize,
) -> Profile {
    let walker = if shards <= 1 {
        let mut walker = Walker::new();
        walker.ingest(entries, 1, |_, _| {});
        walker.finish(1, |_, _| {});
        walker
    } else {
        build_sharded(entries, shards)
    };
    walker.materialize(symbolizer, pid, dropped)
}

/// The analyzer pass, resumable: the [`PathTable`], one
/// [`ResumableStacks`] per thread met (tid-sorted), the [`Aggregates`] and
/// the count of all-zero records. [`Walker::ingest`] takes any stretch of
/// entries in log order, finds each *run* — one thread's consecutive
/// valid entries — with one scan of the stretch, and feeds the run's slice
/// to its thread's machine, so nothing is copied and every machine sees
/// its thread's events in log order. Each call that closes is added to
/// the aggregate in place and handed on as a [`ClosedCall`]. An all-zero record
/// (incomplete, counted) or a zero-address one (torn) is dismissed and
/// ends a run, as [`reader::group_entries`] dismisses it. Open frames carry
/// over to the next stretch; [`Walker::finish`] closes them, the threads
/// in ascending order.
#[derive(Debug, Default)]
pub struct Walker {
    paths: PathTable,
    machines: Vec<(u64, ResumableStacks)>,
    agg: Aggregates,
    incomplete: u64,
}

impl Walker {
    /// Nothing walked yet.
    pub fn new() -> Walker {
        Walker::default()
    }

    /// The table the aggregate's ids index.
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Threads met so far, ascending.
    pub fn thread_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.agg.thread_ids()
    }

    /// The walk's data-quality counters, `dropped` being the stream's
    /// overflow loss.
    pub fn anomalies(&self, dropped: u64) -> Anomalies {
        Anomalies {
            orphan_returns: self.agg.orphan_returns,
            truncated_frames: self.agg.truncated_frames,
            incomplete_entries: self.incomplete,
            dropped_entries: dropped,
        }
    }

    /// The profile of every call closed so far, as process `pid`'s
    /// ([`ProfileMerge::one_process`]), the walk's anomalies beside it.
    pub fn materialize(&self, symbolizer: &Symbolizer, pid: u64, dropped: u64) -> Profile {
        let mut profile = ProfileMerge::one_process(pid, &self.agg, &self.paths, symbolizer);
        profile.anomalies = self.anomalies(dropped);
        profile
    }

    /// Calls open across all threads.
    pub fn open_frames(&self) -> u64 {
        self.machines
            .iter()
            .map(|(_, s)| s.open_frames() as u64)
            .sum()
    }

    /// Walk the next stretch of the log. Every call that closes is added
    /// to the aggregate counting `scale` ([`Aggregates::add_call`]), then
    /// handed to `sink` with its thread. Returns the entries walked: the
    /// stretch less the records it dismissed.
    pub fn ingest(
        &mut self,
        entries: &[LogEntry],
        scale: u64,
        mut sink: impl FnMut(u64, ClosedCall),
    ) -> u64 {
        let (mut start, mut walked) = (0, 0);
        while let Some(first) = entries.get(start) {
            if first.addr == 0 {
                self.incomplete += u64::from(reader::is_incomplete(first));
                start += 1;
                continue;
            }
            let tid = first.tid;
            let at = match self.machines.binary_search_by_key(&tid, |(t, _)| *t) {
                Ok(at) => at,
                Err(at) => {
                    self.agg.observe_thread(tid);
                    self.machines.insert(at, (tid, ResumableStacks::new()));
                    at
                }
            };
            let rest = &entries[start..];
            let run = rest
                .iter()
                .position(|e| e.tid != tid || e.addr == 0)
                .unwrap_or(rest.len());
            let agg = &mut self.agg;
            let add = |call| {
                agg.add_call(tid, call, scale);
                sink(tid, call);
            };
            let orphans = self.machines[at].1.feed(&mut self.paths, &rest[..run], add);
            self.agg.orphan_returns += orphans;
            walked += run;
            start += run;
        }
        walked as u64
    }

    /// Force-close every open frame at its thread's last counter, the
    /// threads in ascending order, adding and handing on each call as
    /// [`Walker::ingest`] does. The machines stay usable: a thread fed
    /// afterwards starts from an empty stack.
    pub fn finish(&mut self, scale: u64, mut sink: impl FnMut(u64, ClosedCall)) {
        for (tid, stacks) in &mut self.machines {
            stacks.finish(|call| {
                self.agg.add_call(*tid, call, scale);
                sink(*tid, call);
            });
        }
    }
}

/// The sharded pass: group the entries per thread, split the threads over
/// `shards` buckets and run [`analyze_shard`] per bucket (on up to
/// [`shard_workers`] scoped threads), then adopt the buckets' tables into
/// one: a [`Walker`] of the whole log, its threads finished, that
/// materializes byte-identically to the one the sequential build runs.
fn build_sharded(entries: &[LogEntry], shards: usize) -> Walker {
    let grouped = reader::group_entries(entries);
    let threads: Vec<(u64, Vec<Event>)> = grouped.threads.into_iter().collect();
    let loads: Vec<usize> = threads.iter().map(|(_, events)| events.len()).collect();
    let partition = partition_by_load(&loads, shards);
    let bucket_views = |bucket: &[usize]| -> Vec<(u64, &[Event])> {
        bucket
            .iter()
            .map(|i| (threads[*i].0, threads[*i].1.as_slice()))
            .collect()
    };
    // The shard count is a *partitioning* knob (it fixes which threads
    // aggregate together, hence the output); the OS-thread count is a
    // resource knob. Capping workers at the host's parallelism keeps
    // an over-sharded build from paying spawn/switch overhead with no
    // cores to run on — on a one-core host the build stays fully
    // sequential while still merging in bucket order, so the result is
    // byte-identical whatever the worker count.
    let workers = shard_workers(partition.len());
    let results: Vec<(PathTable, Aggregates)> = if workers <= 1 {
        partition
            .iter()
            .map(|bucket| analyze_shard(&bucket_views(bucket)))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let partition = &partition;
                    let bucket_views = &bucket_views;
                    scope.spawn(move || {
                        partition
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(workers)
                            .map(|(index, bucket)| (index, analyze_shard(&bucket_views(bucket))))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut ordered: Vec<Option<(PathTable, Aggregates)>> = Vec::new();
            ordered.resize_with(partition.len(), || None);
            for handle in handles {
                for (index, output) in handle.join().expect("analyzer shard panicked") {
                    ordered[index] = Some(output);
                }
            }
            ordered
                .into_iter()
                .map(|output| output.expect("every bucket is analyzed exactly once"))
                .collect()
        })
    };
    // Each shard numbered the stacks it met its own way: adopt its table
    // into the merged one, then its rows follow the translation.
    let mut walker = Walker::new();
    for (shard_paths, shard_agg) in &results {
        let translation = walker.paths.adopt(shard_paths);
        walker.agg.merge_translated(shard_agg, &translation);
    }
    walker.incomplete = grouped.incomplete;
    walker
}

/// Number of OS worker threads a `shards`-way build actually spawns: the
/// shard count clamped to the host's available parallelism (1 if that
/// cannot be determined).
fn shard_workers(shards: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(shards.max(1))
}

/// Key for a thread of process `pid` in a cross-process merged profile:
/// thread ids are only unique within a process, so the merged view
/// namespaces them as `pid << 32 | tid`. Tids are taken to fit in 32 bits:
/// the key keeps only a tid's low 32, so two tids that differ only above
/// them are one thread.
pub fn merged_thread_key(pid: u64, tid: u64) -> u64 {
    (pid << 32) | (tid & 0xffff_ffff)
}

/// The name space cross-process views are merged in: names as small
/// integers, dense in order of first appearance, and over them the
/// calling-context tree — `(parent stack, name id) → stack` — of every
/// stack any contribution had, each stack's children kept in name order.
/// Nothing is ever forgotten, so an id handed out stays good. Whoever
/// outlives the merges that share it owns it: a session registry keeps one
/// for its whole run, [`merge_profiles`] one per call, and
/// [`ProfileMerge::one_process`] one per profile.
#[derive(Debug)]
pub struct NameSpace {
    ids: HashMap<String, u32>,
    names: Vec<String>,
    stacks: PathTable,
    /// Indexed by stack id: its children, ascending by name — the folded
    /// table's sibling order, kept as stacks are interned.
    children: Vec<Vec<PathId>>,
}

impl Default for NameSpace {
    fn default() -> NameSpace {
        NameSpace {
            ids: HashMap::new(),
            names: Vec::new(),
            stacks: PathTable::new(),
            children: vec![Vec::new()],
        }
    }
}

impl NameSpace {
    /// No names yet.
    pub fn new() -> NameSpace {
        NameSpace::default()
    }

    /// The id of `name`, assigned on first sight (the only time the name
    /// is copied).
    fn id(&mut self, name: &str) -> u32 {
        if let Some(id) = self.ids.get(name) {
            return *id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 names");
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// The stack `parent` extended by a frame named `name`, interned on
    /// first sight — and then placed among its siblings by name.
    fn stack(&mut self, parent: PathId, name: u32) -> PathId {
        let id = self.stacks.child(parent, u64::from(name));
        if id.index() == self.children.len() {
            self.children.push(Vec::new());
            let (names, stacks) = (&self.names, &self.stacks);
            let spelled = |id: &PathId| names[stacks.key(*id) as usize].as_str();
            let siblings = &mut self.children[parent.index()];
            let at = siblings.partition_point(|s| spelled(s) < spelled(&id));
            siblings.insert(at, id);
        }
        id
    }

    /// Hand every stack with ticks (`ticks` of a stack id) to `row` as its
    /// frames' name ids, outermost first, in the folded table's order:
    /// pre-order, siblings by name. That is the order the spelled stacks
    /// sort in — a stack sorts right after its prefix and before its next
    /// sibling — and names are distinct, so it is total.
    fn folded_rows(&self, ticks: impl Fn(PathId) -> u64, mut row: impl FnMut(&[u32], u64)) {
        let mut path: Vec<u32> = Vec::new();
        let mut pending: Vec<(PathId, usize)> =
            self.children[0].iter().rev().map(|id| (*id, 0)).collect();
        while let Some((id, depth)) = pending.pop() {
            path.truncate(depth);
            path.push(self.stacks.key(id) as u32);
            let t = ticks(id);
            if t > 0 {
                row(&path, t);
            }
            let children = self.children[id.index()].iter().rev();
            pending.extend(children.map(|child| (*child, depth + 1)));
        }
    }

    /// [`Profile::folded`], [`Profile::symbols`] and [`Profile::folded_ids`]
    /// of [`NameSpace::folded_rows`]: the stacks spelled, and the
    /// profile-local symbol ids assigned in order of first appearance, so
    /// deterministic by construction. A name is copied once per frame it
    /// spells and once into the symbol table.
    fn spell_folded(&self, ticks: impl Fn(PathId) -> u64) -> SpelledFolded {
        let (mut folded, mut symbols, mut folded_ids) = (Vec::new(), Vec::new(), Vec::new());
        let mut local: Vec<Option<u32>> = vec![None; self.names.len()];
        let spell = |id: &u32| self.names[*id as usize].clone();
        self.folded_rows(ticks, |path, t| {
            folded.push((path.iter().map(spell).collect(), t));
            let ids = path.iter().map(|id| {
                *local[*id as usize].get_or_insert_with(|| {
                    symbols.push(spell(id));
                    u32::try_from(symbols.len() - 1).expect("fewer than 2^32 symbols")
                })
            });
            folded_ids.push((ids.collect(), t));
        });
        (folded, symbols, folded_ids)
    }
}

/// [`Profile::folded`], [`Profile::symbols`], [`Profile::folded_ids`].
type SpelledFolded = (Vec<(Vec<String>, u64)>, Vec<String>, Vec<(Vec<u32>, u64)>);

/// What a session remembers between the merges it contributes to: where
/// each stack of its [`PathTable`] sits in the fleet's [`NameSpace`].
/// Append-only like both of them, so an address becomes a `String` once in
/// the session's life and a stack is looked up once, not once per poll. A
/// memo belongs to one `NameSpace` for good: ids of another mean nothing
/// here.
#[derive(Debug, Default)]
pub struct PathNames {
    /// Session stack → name-space stack.
    by_path: Vec<PathId>,
    /// Address → name id.
    by_addr: HashMap<u64, u32>,
}

impl PathNames {
    /// Nothing remembered yet.
    pub fn new() -> PathNames {
        PathNames::default()
    }

    /// Place the stacks `paths` gained since the last call. A row's parent
    /// has the smaller id, so it is already placed.
    fn extend(&mut self, paths: &PathTable, symbolizer: &Symbolizer, space: &mut NameSpace) {
        if self.by_path.is_empty() {
            self.by_path.push(PathId::ROOT);
        }
        for (_, parent, addr) in paths.rows_from(self.by_path.len()) {
            let name = *self
                .by_addr
                .entry(addr)
                .or_insert_with(|| space.id(&symbolizer.name_of(addr)));
            let parent = self.by_path[parent.index()];
            self.by_path.push(space.stack(parent, name));
        }
    }
}

/// How much of one aggregate a running merge holds: per stack, the sums
/// and the thread count it was last given, and the stacks calls were added
/// under since ([`FoldMark::touch`]). [`ProfileMerge::add_since`] adds just
/// those stacks' deltas and moves the mark, so each call is counted once —
/// by the aggregate — and a fold costs the stacks a drain touched, not its
/// calls. The delta is exact: sums subtract, and a row's min, max, address
/// and thread set go in whole, which the merge's min, max and set union
/// absorb however often they repeat. A mark belongs to one aggregate and
/// one merge.
#[derive(Debug, Default)]
pub struct FoldMark {
    /// Indexed by stack id.
    rows: Vec<Folded>,
    /// The stacks touched since the last fold, each once.
    touched: Vec<PathId>,
    /// The aggregate's thread count at the last fold.
    threads: usize,
}

/// What a merge was last given of one aggregate row, and whether a call
/// was added to it since.
#[derive(Debug, Default, Clone, Copy)]
struct Folded {
    counts: Counts,
    threads: usize,
    touched: bool,
}

impl FoldMark {
    /// Note that a call was added under `path` since the last fold.
    #[inline]
    pub fn touch(&mut self, path: PathId) {
        let row = row_at(&mut self.rows, path.index());
        if !row.touched {
            row.touched = true;
            self.touched.push(path);
        }
    }
}

/// One stack of the name space, as a [`ProfileMerge`] sees it.
#[derive(Debug)]
struct MergedStack {
    /// The rows and calls added here, summed.
    counts: Counts,
    /// The smallest address those rows' innermost frame was seen at.
    addr: u64,
    /// Folded ticks added as profiles, which say nothing else of a stack.
    folded: u64,
    /// The thread key noted here last, so that the calls of one thread
    /// (and the slots of a window span, added one by one) that land here
    /// in a row do not search the method's thread set again.
    noted: Option<u64>,
}

impl Default for MergedStack {
    fn default() -> MergedStack {
        MergedStack {
            counts: Counts::default(),
            addr: u64::MAX,
            folded: 0,
            noted: None,
        }
    }
}

/// One method row of a merged view: name id, smallest address, counters.
type MergedMethod = (u32, u64, Counts);

/// Add `counts`, seen at `addr`, to a method's row: its representative
/// address is the smallest of those it was seen at.
fn add_method(row: &mut Option<(u64, Counts)>, addr: u64, counts: &Counts) {
    let (representative, sum) = row.get_or_insert((addr, Counts::default()));
    *representative = (*representative).min(addr);
    sum.add(counts);
}

/// The accumulator under every profile, of one process or many:
/// per-process contributions go in — already materialized
/// ([`ProfileMerge::add_profile`]), still indexed by the session's stack
/// ids ([`ProfileMerge::add_aggregates`]), or pump by pump as the rows a
/// session's calls touched ([`ProfileMerge::add_since`]) — and come out as
/// one [`Profile`]
/// ([`ProfileMerge::finish`]) or as just the two tables a snapshot's text
/// is written from
/// ([`ProfileMerge::method_rows`], [`ProfileMerge::folded_rows`]), grouped
/// and ordered the same way. Reading takes nothing out, so a merge can be
/// kept for a whole run and read between any two additions.
///
/// Different processes may load the same function at different addresses
/// (and different functions at the same address), so the merge keys
/// methods, folded stacks and caller edges by *name*, taking the smallest
/// address as a method's representative; threads and per-thread calls are
/// keyed with [`merged_thread_key`]. A merge of one process groups the
/// same way, so it is how every one-process profile is read
/// ([`Walker::materialize`]). Inside the accumulator a name is a
/// small integer and a stack an index into a [`NameSpace`]'s tree — the
/// one every call lends it, which must be the same for the merge's whole
/// life: an aggregate's rows (or their deltas) are added to the rows of
/// the stacks its session's memo places them at — an index each, nothing
/// hashed — and methods and caller edges are grouped out of the tree when
/// the merge is read; a profile adds its method and edge rows as they are
/// and only its folded ticks to the tree. Threads are kept per method
/// name as a set of thread keys. Every counter is summed, so the merged
/// totals equal the sum of the per-process totals; contributions commute,
/// and the ways in agree — adding a process's aggregate, or its deltas
/// fold by fold, gives the same result as adding the profile a merge of that
/// aggregate alone makes (`merged_thread_key` keeps a key of the same
/// process as it is).
#[derive(Debug, Default)]
pub struct ProfileMerge {
    /// Indexed by name id: the method rows added as profiles.
    methods: Vec<Option<(u64, Counts)>>,
    /// From profiles.
    edges: HashMap<(u32, u32), (u64, u64, u64)>,
    /// Indexed by the name space's stack ids, as long as the highest one a
    /// contribution touched needs.
    stacks: Vec<MergedStack>,
    /// Indexed by name id: the merged thread key of every thread of every
    /// method row, stack row or call added under that name, ascending.
    method_threads: Vec<Vec<u64>>,
    threads: BTreeSet<u64>,
    total_ticks: u64,
    anomalies: Anomalies,
    pids: BTreeSet<u64>,
}

impl ProfileMerge {
    /// An empty merge.
    pub fn new() -> ProfileMerge {
        ProfileMerge::default()
    }

    /// Process `pid`'s aggregate over `paths` read as a profile of its
    /// own: added alone to a merge in a name space of its own, anomalies
    /// zero.
    pub fn one_process(
        pid: u64,
        aggregates: &Aggregates,
        paths: &PathTable,
        symbolizer: &Symbolizer,
    ) -> Profile {
        let (mut space, mut merge) = (NameSpace::new(), ProfileMerge::new());
        let memo = &mut PathNames::new();
        merge.add_aggregates(&mut space, pid, aggregates, paths, symbolizer, memo);
        merge.finish(&mut space)
    }

    /// Note that thread `key` ran method `name`.
    fn note_method_thread(&mut self, name: u32, key: u64) {
        note_thread(row_at(&mut self.method_threads, name as usize), key);
    }

    /// Add process `pid`'s materialized profile. Its thread keys go
    /// through [`merged_thread_key`] again, which keeps a key of `pid` as
    /// it is.
    pub fn add_profile(&mut self, space: &mut NameSpace, pid: u64, profile: &Profile) {
        self.pids.insert(pid);
        self.pids.extend(&profile.pids);
        self.total_ticks += profile.total_ticks;
        self.anomalies.add(&profile.anomalies);
        for m in &profile.methods {
            let name = space.id(&m.name);
            let counts = Counts {
                calls: m.calls,
                inclusive: m.inclusive,
                exclusive: m.exclusive,
                min_inclusive: m.min_inclusive,
                max_inclusive: m.max_inclusive,
            };
            add_method(row_at(&mut self.methods, name as usize), m.addr, &counts);
            for tid in &m.threads {
                self.note_method_thread(name, merged_thread_key(pid, *tid));
            }
        }
        // The folded table is sorted, so a stack shares all but its last
        // frames with the one before it: keep that one's walk down the
        // tree and redo only where the two part.
        let mut walk: Vec<PathId> = Vec::new();
        let mut previous: &[String] = &[];
        for (path, ticks) in &profile.folded {
            let shared = path
                .iter()
                .zip(previous)
                .take_while(|(a, b)| a == b)
                .count();
            walk.truncate(shared);
            for name in &path[shared..] {
                let name = space.id(name);
                let parent = walk.last().copied().unwrap_or(PathId::ROOT);
                walk.push(space.stack(parent, name));
            }
            if let Some(stack) = walk.last() {
                row_at(&mut self.stacks, stack.index()).folded += ticks;
            }
            previous = path;
        }
        for edge in &profile.caller_edges {
            let caller = space.id(&edge.caller);
            let callee = space.id(&edge.callee);
            add_edge(
                &mut self.edges,
                (caller, callee),
                (edge.calls, edge.inclusive, edge.exclusive),
            );
        }
        let keys = profile
            .threads
            .iter()
            .map(|tid| merged_thread_key(pid, *tid));
        self.threads.extend(keys);
    }

    /// Add process `pid`'s aggregate over `paths`, anomalies aside: a
    /// window span reports none, and [`Walker::materialize`] sets the
    /// walk's beside the merge it reads.
    ///
    /// `memo` is the session's (of `space`): only stacks it has not placed
    /// yet go through `symbolizer` and a lookup. Each row is then added
    /// where the memo says, an index away.
    pub fn add_aggregates(
        &mut self,
        space: &mut NameSpace,
        pid: u64,
        aggregates: &Aggregates,
        paths: &PathTable,
        symbolizer: &Symbolizer,
        memo: &mut PathNames,
    ) {
        self.pids.insert(pid);
        memo.extend(paths, symbolizer, space);
        for ((id, _, addr), row) in paths.rows().zip(aggregates.rows.iter().skip(1)) {
            if row.counts.calls > 0 {
                let keys = row.threads.iter().map(|tid| merged_thread_key(pid, *tid));
                self.add_row(space, memo.by_path[id.index()], addr, &row.counts, keys);
            }
        }
        let keys = aggregates
            .thread_ids()
            .map(|tid| merged_thread_key(pid, tid));
        self.threads.extend(keys);
    }

    /// Add what process `pid`'s walk gained since `mark`, and move the
    /// mark: fold after fold, the same contribution as adding the walk's
    /// whole aggregate at the end (anomalies aside). The cost is the
    /// stacks touched since the last fold plus the stacks the walk met
    /// since the memo last saw its table. A process joins
    /// [`ProfileMerge::pids`] here, with nothing new as well.
    pub fn add_since(
        &mut self,
        space: &mut NameSpace,
        pid: u64,
        walker: &Walker,
        mark: &mut FoldMark,
        symbolizer: &Symbolizer,
        memo: &mut PathNames,
    ) {
        let (aggregates, paths) = (&walker.agg, &walker.paths);
        self.pids.insert(pid);
        memo.extend(paths, symbolizer, space);
        for path in mark.touched.drain(..) {
            let (row, was) = (&aggregates.rows[path.index()], &mut mark.rows[path.index()]);
            let delta = Counts {
                calls: row.counts.calls - was.counts.calls,
                inclusive: row.counts.inclusive - was.counts.inclusive,
                exclusive: row.counts.exclusive - was.counts.exclusive,
                ..row.counts
            };
            // A row's thread set only grows: unchanged in size, the merge
            // holds all of it.
            let grown: &[u64] = if row.threads.len() == was.threads {
                &[]
            } else {
                &row.threads
            };
            *was = Folded {
                counts: row.counts,
                threads: row.threads.len(),
                touched: false,
            };
            let keys = grown.iter().map(|tid| merged_thread_key(pid, *tid));
            let (at, addr) = (memo.by_path[path.index()], paths.key(path));
            self.add_row(space, at, addr, &delta, keys);
        }
        if aggregates.threads.len() != mark.threads {
            mark.threads = aggregates.threads.len();
            let keys = aggregates
                .thread_ids()
                .map(|tid| merged_thread_key(pid, tid));
            self.threads.extend(keys);
        }
    }

    /// Add `counts` of the threads `keys`, seen at `addr`, to name-space
    /// stack `at`.
    fn add_row(
        &mut self,
        space: &NameSpace,
        at: PathId,
        addr: u64,
        counts: &Counts,
        keys: impl Iterator<Item = u64>,
    ) {
        self.total_ticks += counts.exclusive;
        let name = space.stacks.key(at) as usize;
        let merged = row_at(&mut self.stacks, at.index());
        merged.addr = merged.addr.min(addr);
        merged.counts.add(counts);
        for key in keys {
            if merged.noted.replace(key) != Some(key) {
                note_thread(row_at(&mut self.method_threads, name), key);
            }
        }
    }

    /// The method table in its final order, names as ids: the profiles'
    /// rows and every stack with calls grouped under its innermost name,
    /// sorted by [`method_key`] — the one grouping both ways out read.
    fn methods_in_order(&self, space: &NameSpace) -> Vec<MergedMethod> {
        let mut by_name = self.methods.clone();
        by_name.resize(space.names.len(), None);
        let tree = &space.stacks;
        for ((_, _, name), stack) in tree.rows().zip(self.stacks.iter().skip(1)) {
            if stack.counts.calls > 0 {
                add_method(&mut by_name[name as usize], stack.addr, &stack.counts);
            }
        }
        let mut rows: Vec<MergedMethod> = Vec::with_capacity(by_name.len());
        rows.extend((0u32..).zip(by_name).filter_map(|(name, row)| {
            let (addr, counts) = row?;
            Some((name, addr, counts))
        }));
        let names = &space.names;
        let key = |(name, addr, counts): &MergedMethod| {
            method_key(counts.exclusive, names[*name as usize].as_str(), *addr)
        };
        rows.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
        rows
    }

    /// Folded ticks of name-space stack `id`: its rows' exclusive ticks
    /// plus the profiles' folded ticks.
    fn ticks(&self, id: PathId) -> u64 {
        self.stacks
            .get(id.index())
            .map_or(0, |stack| stack.counts.exclusive + stack.folded)
    }

    /// The merged method rows as `(name, calls, inclusive, exclusive)`, in
    /// the order of the [`Profile::methods`] that `finish` would return.
    pub fn method_rows<'a>(
        &'a self,
        space: &'a NameSpace,
    ) -> impl Iterator<Item = MethodRow<'a>> + 'a {
        self.methods_in_order(space)
            .into_iter()
            .map(|(name, _, counts)| {
                let name = space.names[name as usize].as_str();
                (name, counts.calls, counts.inclusive, counts.exclusive)
            })
    }

    /// Hand every merged folded stack to `row` — its frames outermost
    /// first, and its ticks — in the order of the [`Profile::folded`] that
    /// `finish` would return.
    pub fn folded_rows(&self, space: &NameSpace, mut row: impl FnMut(&[&str], u64)) {
        let mut frames: Vec<&str> = Vec::new();
        space.folded_rows(
            |id| self.ticks(id),
            |path, ticks| {
                frames.clear();
                frames.extend(path.iter().map(|id| space.names[*id as usize].as_str()));
                row(&frames, ticks);
            },
        );
    }

    /// Sum of exclusive ticks over everything added: the merged
    /// [`Profile::total_ticks`].
    pub fn total_ticks(&self) -> u64 {
        self.total_ticks
    }

    /// The processes added: the merged [`Profile::pids`].
    pub fn pids(&self) -> &BTreeSet<u64> {
        &self.pids
    }

    /// The merged [`Profile`]: the method and folded tables of
    /// [`ProfileMerge::method_rows`] and [`ProfileMerge::folded_rows`]
    /// with every method's thread set, and the tree's caller edges beside
    /// the profiles', sorted by inclusive ticks descending, then name pair
    /// (unique, so the order is total) — the only code that makes a
    /// [`Profile`].
    pub fn finish(&self, space: &mut NameSpace) -> Profile {
        let root = space.id(ROOT_NAME);
        let space = &*space;
        let mut edges = self.edges.clone();
        let tree = &space.stacks;
        for ((_, parent, name), stack) in tree.rows().zip(self.stacks.iter().skip(1)) {
            if stack.counts.calls > 0 {
                let caller = match parent {
                    PathId::ROOT => root,
                    parent => tree.key(parent) as u32,
                };
                let c = &stack.counts;
                add_edge(
                    &mut edges,
                    (caller, name as u32),
                    (c.calls, c.inclusive, c.exclusive),
                );
            }
        }
        let name = |id: u32| space.names[id as usize].clone();

        let methods: Vec<MethodStats> = self
            .methods_in_order(space)
            .into_iter()
            .map(|(id, addr, counts)| {
                let threads = self.method_threads.get(id as usize);
                let threads = threads.into_iter().flatten().copied().collect();
                method_stats(name(id), addr, counts, threads)
            })
            .collect();

        let (folded, symbols, folded_ids) = space.spell_folded(|id| self.ticks(id));

        let mut caller_edges: Vec<CallerEdge> = edges
            .into_iter()
            .map(
                |((caller, callee), (calls, inclusive, exclusive))| CallerEdge {
                    caller: name(caller),
                    callee: name(callee),
                    calls,
                    inclusive,
                    exclusive,
                },
            )
            .collect();
        caller_edges.sort_by(|a, b| {
            b.inclusive.cmp(&a.inclusive).then_with(|| {
                (a.caller.as_str(), a.callee.as_str()).cmp(&(b.caller.as_str(), b.callee.as_str()))
            })
        });

        Profile {
            methods,
            folded,
            symbols,
            folded_ids,
            caller_edges,
            threads: self.threads.clone(),
            total_ticks: self.total_ticks,
            anomalies: self.anomalies,
            pids: self.pids.clone(),
        }
    }
}

/// Method rows summed straight by name, and nothing else: what a ranked
/// window query reads instead of a [`ProfileMerge`] and its [`Profile`].
/// Each aggregate row goes, through its session's [`PathNames`] memo, to
/// the row of its stack's innermost name, and adds its `calls`,
/// `inclusive` and `exclusive` as a merge's method row would — so these
/// rows are the merge's method rows, fed the same aggregates. Built for
/// one question: with a thread asked for, a name also remembers whether a
/// row added under it ran on that thread.
#[derive(Debug, Default)]
pub struct NameSums {
    /// The thread asked for, if any.
    tid: Option<u64>,
    /// Indexed by name id.
    rows: Vec<NameSum>,
}

/// One name's sums, and whether the asked-for thread ran it.
#[derive(Debug, Default, Clone, Copy)]
struct NameSum {
    calls: u64,
    inclusive: u64,
    exclusive: u64,
    on_tid: bool,
}

impl NameSums {
    /// Nothing summed yet. With `tid` set, [`NameSums::rows`] keeps only
    /// the names a row of thread `tid` was added under, a thread of any
    /// process being `tid` when its [`merged_thread_key`] keeps that tid —
    /// so a `tid` of 2^32 or more names none.
    pub fn new(tid: Option<u64>) -> NameSums {
        NameSums {
            tid,
            rows: Vec::new(),
        }
    }

    /// Add the rows of an aggregate over `paths`; `memo` is its session's
    /// (of `space`), as for [`ProfileMerge::add_aggregates`].
    pub fn add(
        &mut self,
        space: &mut NameSpace,
        aggregates: &Aggregates,
        paths: &PathTable,
        symbolizer: &Symbolizer,
        memo: &mut PathNames,
    ) {
        memo.extend(paths, symbolizer, space);
        let stacks = memo.by_path.iter().skip(1);
        for (at, row) in stacks.zip(aggregates.rows.iter().skip(1)) {
            if row.counts.calls == 0 {
                continue;
            }
            let sum = row_at(&mut self.rows, space.stacks.key(*at) as usize);
            sum.calls += row.counts.calls;
            sum.inclusive += row.counts.inclusive;
            sum.exclusive += row.counts.exclusive;
            if let Some(tid) = self.tid {
                let on = |t: &u64| merged_thread_key(0, *t) == tid;
                sum.on_tid = sum.on_tid || row.threads.iter().any(on);
            }
        }
    }

    /// Every name with calls — and with a thread asked for, on it — as
    /// `(name, calls, inclusive, exclusive)`, in name-id order.
    pub fn rows<'a>(&'a self, space: &'a NameSpace) -> impl Iterator<Item = MethodRow<'a>> + 'a {
        let kept = |sum: &&NameSum| sum.calls > 0 && (self.tid.is_none() || sum.on_tid);
        let names = space.names.iter().map(String::as_str);
        names
            .zip(&self.rows)
            .filter(move |(_, sum)| kept(sum))
            .map(|(name, sum)| (name, sum.calls, sum.inclusive, sum.exclusive))
    }
}

/// Merge per-process profiles into one cross-process view: each part is
/// `(pid, profile)`, folded through a [`ProfileMerge`]. Part order does
/// not affect the result.
pub fn merge_profiles(parts: &[(u64, &Profile)]) -> Profile {
    let mut space = NameSpace::new();
    let mut merge = ProfileMerge::new();
    for (pid, profile) in parts {
        merge.add_profile(&mut space, *pid, profile);
    }
    merge.finish(&mut space)
}

impl Profile {
    /// Look up a method's stats by name.
    pub fn method(&self, name: &str) -> Option<&MethodStats> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Fraction of total profiled time spent exclusively in `name`.
    pub fn exclusive_fraction(&self, name: &str) -> f64 {
        if self.total_ticks == 0 {
            return 0.0;
        }
        self.method(name)
            .map_or(0.0, |m| m.exclusive as f64 / self.total_ticks as f64)
    }

    /// The method table as `(name, calls, inclusive, exclusive)` rows, in
    /// table order.
    pub fn method_rows(&self) -> impl Iterator<Item = MethodRow<'_>> {
        let rows = self.methods.iter();
        rows.map(|m| (m.name.as_str(), m.calls, m.inclusive, m.exclusive))
    }

    /// The dynamic call graph as a queryable dataframe
    /// (`caller, callee, calls, incl, excl`).
    pub fn callers_frame(&self) -> Frame {
        let mut f = Frame::new();
        f.push_str_column(
            "caller",
            self.caller_edges.iter().map(|e| e.caller.clone()).collect(),
        );
        f.push_str_column(
            "callee",
            self.caller_edges.iter().map(|e| e.callee.clone()).collect(),
        );
        f.push_int_column(
            "calls",
            self.caller_edges.iter().map(|e| e.calls as i64).collect(),
        );
        f.push_int_column(
            "incl",
            self.caller_edges
                .iter()
                .map(|e| e.inclusive as i64)
                .collect(),
        );
        f.push_int_column(
            "excl",
            self.caller_edges
                .iter()
                .map(|e| e.exclusive as i64)
                .collect(),
        );
        f
    }

    /// The method table as a queryable dataframe.
    pub fn methods_frame(&self) -> Frame {
        let mut f = Frame::new();
        f.push_str_column(
            "method",
            self.methods.iter().map(|m| m.name.clone()).collect(),
        );
        f.push_int_column(
            "calls",
            self.methods.iter().map(|m| m.calls as i64).collect(),
        );
        f.push_int_column(
            "incl",
            self.methods.iter().map(|m| m.inclusive as i64).collect(),
        );
        f.push_int_column(
            "excl",
            self.methods.iter().map(|m| m.exclusive as i64).collect(),
        );
        f.push_float_column(
            "excl_pct",
            self.methods
                .iter()
                .map(|m| {
                    if self.total_ticks == 0 {
                        0.0
                    } else {
                        100.0 * m.exclusive as f64 / self.total_ticks as f64
                    }
                })
                .collect(),
        );
        f.push_int_column(
            "min",
            self.methods
                .iter()
                .map(|m| {
                    if m.calls == 0 {
                        0
                    } else {
                        m.min_inclusive as i64
                    }
                })
                .collect(),
        );
        f.push_int_column(
            "max",
            self.methods
                .iter()
                .map(|m| m.max_inclusive as i64)
                .collect(),
        );
        f.push_int_column(
            "threads",
            self.methods
                .iter()
                .map(|m| m.threads.len() as i64)
                .collect(),
        );
        f
    }
}

/// The raw event table as a queryable dataframe (`seq, tid, kind, counter,
/// addr, method`): one row per record in log order, `seq` its log index,
/// incomplete and zero-address records dismissed as the grouped reader
/// ([`reader::group_entries`]) dismisses them.
pub fn events_frame(log: &LogFile, symbolizer: &Symbolizer) -> Frame {
    let mut seq = Vec::new();
    let mut tid = Vec::new();
    let mut kind = Vec::new();
    let mut counter = Vec::new();
    let mut addr = Vec::new();
    let mut method = Vec::new();
    for (i, e) in log.entries.iter().enumerate() {
        if reader::is_incomplete(e) || e.addr == 0 {
            continue;
        }
        seq.push(i as i64);
        tid.push(e.tid as i64);
        kind.push(if e.kind.is_call() { "call" } else { "return" }.to_string());
        counter.push(e.counter as i64);
        addr.push(e.addr as i64);
        method.push(symbolizer.name_of(e.addr));
    }
    let mut f = Frame::new();
    f.push_int_column("seq", seq);
    f.push_int_column("tid", tid);
    f.push_str_column("kind", kind);
    f.push_int_column("counter", counter);
    f.push_int_column("addr", addr);
    f.push_str_column("method", method);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcvm::DebugInfo;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use teeperf_core::layout::{EventKind, LogEntry, LogHeader, LOG_VERSION};

    /// The reference's caller address for top-level frames.
    const ROOT_ADDR: u64 = u64::MAX;

    fn make_log(entries: Vec<LogEntry>) -> LogFile {
        LogFile::new(
            LogHeader {
                active: false,
                trace_calls: true,
                trace_returns: true,
                multithread: true,
                version: LOG_VERSION,
                pid: 1,
                size: 1000,
                tail: entries.len() as u64,
                anchor: 0,
                shm_addr: 0,
            },
            entries,
        )
    }

    fn e(kind: EventKind, counter: u64, addr: u64, tid: u64) -> LogEntry {
        LogEntry {
            kind,
            counter,
            addr,
            tid,
        }
    }

    fn debug() -> DebugInfo {
        DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5), ("leaf", 4, 9)])
    }

    fn addr(i: u16) -> u64 {
        debug().entry_addr(i)
    }

    #[test]
    fn aggregates_inclusive_exclusive_and_counts() {
        use EventKind::{Call, Return};
        // main(0..100) -> work(10..60) -> leaf(20..30); work again (70..90).
        let log = make_log(vec![
            e(Call, 0, addr(0), 0),
            e(Call, 10, addr(1), 0),
            e(Call, 20, addr(2), 0),
            e(Return, 30, addr(2), 0),
            e(Return, 60, addr(1), 0),
            e(Call, 70, addr(1), 0),
            e(Return, 90, addr(1), 0),
            e(Return, 100, addr(0), 0),
        ]);
        let p = build(&log, &Symbolizer::without_relocation(debug()));
        let main = p.method("main").unwrap();
        assert_eq!(main.calls, 1);
        assert_eq!(main.inclusive, 100);
        assert_eq!(main.exclusive, 100 - 50 - 20);
        let work = p.method("work").unwrap();
        assert_eq!(work.calls, 2);
        assert_eq!(work.inclusive, 50 + 20);
        assert_eq!(work.exclusive, 70 - 10);
        assert_eq!(work.min_inclusive, 20);
        assert_eq!(work.max_inclusive, 50);
        let leaf = p.method("leaf").unwrap();
        assert_eq!(leaf.exclusive, 10);
        assert_eq!(p.total_ticks, 100);
        // Sorted by exclusive descending.
        assert!(p.methods[0].exclusive >= p.methods[1].exclusive);
    }

    #[test]
    fn folded_stacks_cover_total_time() {
        use EventKind::{Call, Return};
        let log = make_log(vec![
            e(Call, 0, addr(0), 0),
            e(Call, 10, addr(1), 0),
            e(Return, 60, addr(1), 0),
            e(Return, 100, addr(0), 0),
        ]);
        let p = build(&log, &Symbolizer::without_relocation(debug()));
        let total: u64 = p.folded.iter().map(|(_, t)| t).sum();
        assert_eq!(total, p.total_ticks);
        assert!(p
            .folded
            .iter()
            .any(|(path, _)| path == &vec!["main".to_string(), "work".to_string()]));
    }

    #[test]
    fn folded_ids_mirror_folded() {
        use EventKind::{Call, Return};
        let log = make_log(vec![
            e(Call, 0, addr(0), 0),
            e(Call, 10, addr(1), 0),
            e(Return, 60, addr(1), 0),
            e(Return, 100, addr(0), 0),
        ]);
        let p = build(&log, &Symbolizer::without_relocation(debug()));
        assert_eq!(p.folded.len(), p.folded_ids.len());
        for ((path, ticks), (ids, id_ticks)) in p.folded.iter().zip(&p.folded_ids) {
            assert_eq!(ticks, id_ticks);
            let named: Vec<&str> = ids
                .iter()
                .map(|i| p.symbols[*i as usize].as_str())
                .collect();
            let expect: Vec<&str> = path.iter().map(String::as_str).collect();
            assert_eq!(named, expect);
        }
        // The symbol table is deduplicated.
        let unique: BTreeSet<&String> = p.symbols.iter().collect();
        assert_eq!(unique.len(), p.symbols.len());
    }

    #[test]
    fn threads_are_reconstructed_independently() {
        use EventKind::{Call, Return};
        // Interleaved in the log but separate per thread.
        let log = make_log(vec![
            e(Call, 0, addr(1), 1),
            e(Call, 5, addr(1), 2),
            e(Return, 20, addr(1), 1),
            e(Return, 35, addr(1), 2),
        ]);
        let p = build(&log, &Symbolizer::without_relocation(debug()));
        let work = p.method("work").unwrap();
        assert_eq!(work.calls, 2);
        assert_eq!(work.inclusive, 20 + 30);
        assert_eq!(work.threads.len(), 2);
        assert_eq!(p.anomalies.orphan_returns, 0);
    }

    #[test]
    fn sharded_build_is_byte_identical_to_sequential() {
        use EventKind::{Call, Return};
        // Four threads with different shapes: nesting, recursion, an
        // orphan return, and a truncated frame.
        let log = make_log(vec![
            e(Call, 0, addr(0), 0),
            e(Call, 1, addr(1), 1),
            e(Return, 2, addr(2), 2), // orphan on thread 2
            e(Call, 3, addr(1), 3),
            e(Call, 10, addr(1), 0),
            e(Call, 12, addr(1), 3), // recursion on thread 3
            e(Return, 20, addr(1), 0),
            e(Return, 25, addr(1), 1),
            e(Call, 30, addr(2), 2),
            e(Return, 40, addr(2), 2),
            e(Return, 44, addr(1), 3),
            e(Return, 60, addr(0), 0),
            e(Call, 70, addr(2), 1), // never returns on thread 1
        ]);
        let sequential = build(&log, &Symbolizer::without_relocation(debug()));
        for shards in [2, 3, 4, 8] {
            let parallel =
                build_with_shards(&log, &Symbolizer::without_relocation(debug()), shards);
            assert_eq!(parallel, sequential, "{shards} shards");
        }
    }

    #[test]
    fn partition_by_load_balances_and_is_deterministic() {
        let loads = [100, 1, 1, 1, 97, 1, 1, 1];
        let p = partition_by_load(&loads, 2);
        assert_eq!(p.len(), 2);
        let total = |bucket: &Vec<usize>| -> usize { bucket.iter().map(|i| loads[*i]).sum() };
        let (a, b) = (total(&p[0]), total(&p[1]));
        assert_eq!(a + b, 203);
        assert!(a.abs_diff(b) <= 3, "{a} vs {b}");
        assert_eq!(p, partition_by_load(&loads, 2), "deterministic");
        // Every index appears exactly once.
        let mut all: Vec<usize> = p.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..loads.len()).collect::<Vec<_>>());
        // Degenerate shapes: empty input yields one empty bucket, and
        // requesting more shards than items clamps to the item count.
        assert_eq!(partition_by_load(&[], 4), vec![Vec::<usize>::new()]);
        assert_eq!(partition_by_load(&[7, 7], 8).len(), 2);
    }

    #[test]
    fn anomaly_counters_propagate() {
        use EventKind::{Call, Return};
        let mut log = make_log(vec![
            e(Return, 5, addr(2), 0), // orphan
            e(Call, 10, addr(0), 0),  // never returns -> truncated
        ]);
        log.header.tail = 1500; // 500 dropped
        let p = build(&log, &Symbolizer::without_relocation(debug()));
        assert_eq!(p.anomalies.orphan_returns, 1);
        assert_eq!(p.anomalies.truncated_frames, 1);
        assert_eq!(p.anomalies.dropped_entries, 500);
    }

    #[test]
    fn events_frame_has_expected_shape() {
        use EventKind::{Call, Return};
        // Two threads interleaved, an incomplete record and a torn one
        // (zero address) between them.
        let log = make_log(vec![
            e(Call, 1, addr(0), 0),
            e(Call, 5, addr(1), 1),
            LogEntry::unpack([0, 0, 0]),
            e(Return, 9, addr(0), 0),
            e(Call, 7, 0, 1),
            e(Return, 12, addr(1), 1),
        ]);
        let f = events_frame(&log, &Symbolizer::without_relocation(debug()));
        assert_eq!(f.len(), 4);
        assert_eq!(
            f.column_names(),
            vec!["seq", "tid", "kind", "counter", "addr", "method"]
        );
        let int = |name| match f.column(name) {
            Some(crate::query::frame::Column::Int(v)) => v.clone(),
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(int("seq"), [0, 1, 3, 5], "log order, log indices");
        assert_eq!(int("tid"), [0, 1, 0, 1]);
        assert_eq!(int("counter"), [1, 5, 9, 12]);
    }

    #[test]
    fn caller_edges_distinguish_call_sites() {
        use EventKind::{Call, Return};
        // main calls work twice directly, and leaf is called once from
        // main and once from work: leaf's cost splits by caller.
        let log = make_log(vec![
            e(Call, 0, addr(0), 0),  // main
            e(Call, 10, addr(1), 0), // work (from main)
            e(Call, 20, addr(2), 0), // leaf (from work)
            e(Return, 30, addr(2), 0),
            e(Return, 40, addr(1), 0),
            e(Call, 50, addr(2), 0), // leaf (from main)
            e(Return, 80, addr(2), 0),
            e(Return, 100, addr(0), 0),
        ]);
        let p = build(&log, &Symbolizer::without_relocation(debug()));
        let leaf_callers: Vec<&CallerEdge> = p
            .caller_edges
            .iter()
            .filter(|c| c.callee == "leaf")
            .collect();
        assert_eq!(leaf_callers.len(), 2);
        let from_work = leaf_callers
            .iter()
            .find(|c| c.caller == "work")
            .expect("leaf called from work");
        let from_main = leaf_callers
            .iter()
            .find(|c| c.caller == "main")
            .expect("leaf called from main");
        assert_eq!(from_work.calls, 1);
        assert_eq!(from_work.inclusive, 10);
        assert_eq!(from_main.inclusive, 30);
        // Top-level frames hang off the synthetic root.
        assert!(p
            .caller_edges
            .iter()
            .any(|c| c.caller == "<root>" && c.callee == "main"));
        // Edges are queryable.
        let out = crate::query::run_query(
            &p.callers_frame(),
            r#"select caller, incl where callee == "leaf" sort incl desc"#,
        )
        .expect("query runs");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn recursion_produces_a_self_edge() {
        use EventKind::{Call, Return};
        let log = make_log(vec![
            e(Call, 0, addr(1), 0),
            e(Call, 10, addr(1), 0),
            e(Return, 20, addr(1), 0),
            e(Return, 40, addr(1), 0),
        ]);
        let p = build(&log, &Symbolizer::without_relocation(debug()));
        assert!(p
            .caller_edges
            .iter()
            .any(|c| c.caller == "work" && c.callee == "work" && c.calls == 1));
    }

    /// The same binary loaded `slide` bytes higher: every name moves to a
    /// different address, and (at a slide of one function stride) one
    /// address names different functions in the two processes.
    fn slid(slide: u64) -> Symbolizer {
        let mut header = make_log(Vec::new()).header;
        header.anchor = addr(0) + slide;
        Symbolizer::new(debug(), &header)
    }

    #[test]
    fn merge_profiles_keys_by_name_and_namespaces_threads() {
        use EventKind::{Call, Return};
        let slide = addr(1) - addr(0);
        // Process 7: main { work@entry, work@entry+4 } on thread 0, an
        // orphan return on thread 1.
        let mut a = make_log(vec![
            e(Call, 0, addr(0), 0),
            e(Call, 10, addr(1), 0),
            e(Return, 30, addr(1), 0),
            e(Call, 40, addr(1) + 4, 0),
            e(Return, 45, addr(1) + 4, 0),
            e(Return, 100, addr(0), 0),
            e(Return, 101, addr(2), 1),
        ]);
        a.header.pid = 7;
        // Process 9, slid by one function: work { leaf } on thread 0 and
        // a raw-hex frame that never returns.
        let mut b = make_log(vec![
            e(Call, 0, addr(1) + slide, 0),
            e(Call, 5, addr(2) + slide, 0),
            e(Return, 25, addr(2) + slide, 0),
            e(Return, 60, addr(1) + slide, 0),
            e(Call, 70, 0x10, 0),
        ]);
        b.header.pid = 9;
        let pa = build(&a, &Symbolizer::without_relocation(debug()));
        let pb = build(&b, &slid(slide));
        let merged = merge_profiles(&[(7, &pa), (9, &pb)]);

        // One row per name; the representative address is the smallest.
        let work = merged.method("work").unwrap();
        assert_eq!(
            merged.methods.iter().filter(|m| m.name == "work").count(),
            1
        );
        assert_eq!(work.addr, addr(1));
        assert_eq!(work.calls, 3);
        assert_eq!(work.inclusive, 20 + 5 + 60);
        assert_eq!(work.exclusive, 20 + 5 + 40);
        assert_eq!((work.min_inclusive, work.max_inclusive), (5, 60));
        // Thread 0 of pid 7 and thread 0 of pid 9 are different threads.
        assert_eq!(
            work.threads,
            BTreeSet::from([merged_thread_key(7, 0), merged_thread_key(9, 0)])
        );
        assert_eq!(
            merged.threads,
            BTreeSet::from([
                merged_thread_key(7, 0),
                merged_thread_key(7, 1),
                merged_thread_key(9, 0)
            ])
        );

        // Every counter is the sum of the parts.
        assert_eq!(merged.total_ticks, pa.total_ticks + pb.total_ticks);
        assert_eq!(merged.anomalies.orphan_returns, 1);
        assert_eq!(merged.anomalies.truncated_frames, 1);
        assert_eq!(merged.pids, BTreeSet::from([7, 9]));

        // Folded paths and caller edges join on names.
        let path = |names: &[&str]| names.iter().map(|n| (*n).to_string()).collect::<Vec<_>>();
        assert_eq!(
            merged.folded,
            vec![
                (path(&["main"]), 75),
                (path(&["main", "work"]), 25),
                (path(&["work"]), 40),
                (path(&["work", "leaf"]), 20),
            ],
            "the zero-tick 0x10 frame has no folded row"
        );
        let edge = |caller: &str, callee: &str| {
            merged
                .caller_edges
                .iter()
                .find(|c| c.caller == caller && c.callee == callee)
                .map(|c| (c.calls, c.inclusive, c.exclusive))
        };
        assert_eq!(edge("main", "work"), Some((2, 25, 25)));
        assert_eq!(edge("<root>", "work"), Some((1, 60, 40)));
        assert_eq!(edge("<root>", "0x10"), Some((1, 0, 0)));
        // The tables' orders: methods by exclusive descending then name,
        // edges by inclusive descending then names.
        let names: Vec<&str> = merged.methods.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["main", "work", "leaf", "0x10"]);
        let edges: Vec<(&str, &str)> = merged
            .caller_edges
            .iter()
            .map(|c| (c.caller.as_str(), c.callee.as_str()))
            .collect();
        assert_eq!(
            edges,
            [
                ("<root>", "main"),
                ("<root>", "work"),
                ("main", "work"),
                ("work", "leaf"),
                ("<root>", "0x10"),
            ]
        );
        // The interned copy mirrors the folded table.
        assert_eq!(merged.symbols, ["main", "work", "leaf"]);
        assert_eq!(
            merged.folded_ids,
            vec![
                (vec![0], 75),
                (vec![0, 1], 25),
                (vec![1], 40),
                (vec![1, 2], 20)
            ]
        );

        // Part order does not matter, and a one-process profile merged
        // alone under its own pid is itself: it was read as a merge of one.
        assert_eq!(merge_profiles(&[(9, &pb), (7, &pa)]), merged);
        assert_eq!(merge_profiles(&[(7, &pa)]), pa);
    }

    #[test]
    fn same_name_addresses_in_one_process_are_one_method_row() {
        use EventKind::{Call, Return};
        // Process 7: main { work@entry } on thread 0, work@entry+4 { leaf }
        // on thread 1 — two addresses of `work`.
        let log = make_log(vec![
            e(Call, 0, addr(0), 0),
            e(Call, 10, addr(1), 0),
            e(Return, 30, addr(1), 0),
            e(Call, 40, addr(1) + 4, 1),
            e(Call, 42, addr(2), 1),
            e(Return, 44, addr(2), 1),
            e(Return, 45, addr(1) + 4, 1),
            e(Return, 100, addr(0), 0),
        ]);
        let sym = Symbolizer::without_relocation(debug());
        let p = build_entries(&log.entries, 7, 0, &sym, 1);
        let rows: Vec<&MethodStats> = p.methods.iter().filter(|m| m.name == "work").collect();
        assert_eq!(rows.len(), 1, "one row per name: {:?}", p.methods);
        let work = rows[0];
        assert_eq!(work.addr, addr(1), "the smallest address represents it");
        assert_eq!((work.calls, work.inclusive, work.exclusive), (2, 25, 23));
        assert_eq!((work.min_inclusive, work.max_inclusive), (5, 20));
        let keys = BTreeSet::from([merged_thread_key(7, 0), merged_thread_key(7, 1)]);
        assert_eq!(work.threads, keys, "threads keyed by process and tid");
        assert_eq!(p.threads, keys);
        assert_eq!(p.pids, BTreeSet::from([7]));
        // One edge per name pair: `<root>` → work (thread 1's work is
        // top-level) and main → work.
        let edges: Vec<(&str, &str, u64)> = p
            .caller_edges
            .iter()
            .filter(|c| c.callee == "work")
            .map(|c| (c.caller.as_str(), c.callee.as_str(), c.calls))
            .collect();
        assert_eq!(edges, [("main", "work", 1), ("<root>", "work", 1)]);
        for shards in 2..=3 {
            assert_eq!(build_entries(&log.entries, 7, 0, &sym, shards), p);
        }
    }

    #[test]
    fn exclusive_fraction() {
        use EventKind::{Call, Return};
        let log = make_log(vec![
            e(Call, 0, addr(0), 0),
            e(Call, 0, addr(1), 0),
            e(Return, 75, addr(1), 0),
            e(Return, 100, addr(0), 0),
        ]);
        let p = build(&log, &Symbolizer::without_relocation(debug()));
        assert!((p.exclusive_fraction("work") - 0.75).abs() < 1e-9);
        assert_eq!(p.exclusive_fraction("nonexistent"), 0.0);
    }

    #[test]
    fn folds_of_the_touched_rows_add_up_to_the_whole_walk() {
        // Each of T threads runs `main { (work { leaf } leaf) × 8 }` with
        // irregular durations — N calls over S stacks (main, main;work,
        // main;work;leaf, main;leaf) — walked under its own scale a few
        // entries at a time, and folded after every k-th stretch: a mark
        // holds each stack at most once, and the folds add what adding
        // the whole aggregate adds.
        use EventKind::{Call, Return};
        const T: u64 = 3;
        const S: usize = 4;
        let mut threads: Vec<Vec<LogEntry>> = Vec::new();
        for tid in 0..T {
            let mut counter = 0;
            let mut at = |step: u64| {
                counter += 1 + (step * (tid + 3)) % 7;
                counter
            };
            let mut entries = vec![e(Call, at(0), addr(0), tid)];
            for i in 0..8 {
                entries.push(e(Call, at(i), addr(1), tid));
                entries.push(e(Call, at(i + 1), addr(2), tid));
                entries.push(e(Return, at(i + 2), addr(2), tid));
                entries.push(e(Return, at(i + 3), addr(1), tid));
                entries.push(e(Call, at(i + 4), addr(2), tid));
                entries.push(e(Return, at(i + 5), addr(2), tid));
            }
            entries.push(e(Return, at(9), addr(0), tid));
            threads.push(entries);
        }
        let sym = Symbolizer::without_relocation(debug());
        for every in [1, 3, usize::MAX] {
            let (mut walker, mut mark) = (Walker::new(), FoldMark::default());
            let (mut space, mut merge, mut memo) =
                (NameSpace::new(), ProfileMerge::new(), PathNames::new());
            let stretches =
                (0..T).flat_map(|tid| threads[tid as usize].chunks(5).map(move |c| (tid, c)));
            let mut calls = 0;
            for (n, (tid, stretch)) in stretches.enumerate() {
                walker.ingest(stretch, tid + 1, |_, call| {
                    mark.touch(call.path);
                    calls += 1;
                });
                assert!(mark.touched.len() <= S, "a stack is touched once");
                if (n + 1) % every == 0 {
                    merge.add_since(&mut space, 7, &walker, &mut mark, &sym, &mut memo);
                    assert!(mark.touched.is_empty());
                }
            }
            merge.add_since(&mut space, 7, &walker, &mut mark, &sym, &mut memo);
            assert_eq!((calls, walker.paths().rows().count()), (T * 25, S));
            let whole = walker.materialize(&sym, 7, 0);
            assert_eq!(merge.finish(&mut space), whole, "a fold every {every}");
        }
    }

    #[test]
    fn interleaved_folds_note_each_method_thread_once() {
        // `main { work × 8 }` on thread 0, walked by 64 processes an entry
        // at a time and folded after each, the processes taking turns:
        // the last-key check never hits, so only the mark keeps a pair
        // from being noted once a call.
        let mut entries = vec![e(EventKind::Call, 1, addr(0), 0)];
        for i in 0..8 {
            entries.push(e(EventKind::Call, 10 * i + 2, addr(1), 0));
            entries.push(e(EventKind::Return, 10 * i + 9, addr(1), 0));
        }
        entries.push(e(EventKind::Return, 100, addr(0), 0));
        const PIDS: u64 = 64;
        let sym = Symbolizer::without_relocation(debug());
        let (mut space, mut merge) = (NameSpace::new(), ProfileMerge::new());
        let mut processes: Vec<(Walker, FoldMark, PathNames)> = (0..PIDS)
            .map(|_| (Walker::new(), FoldMark::default(), PathNames::new()))
            .collect();
        for entry in entries.chunks(1) {
            for (pid, (walker, mark, memo)) in (1..=PIDS).zip(&mut processes) {
                walker.ingest(entry, 1, |_, call| mark.touch(call.path));
                merge.add_since(&mut space, pid, walker, mark, &sym, memo);
            }
        }
        let noted: usize = merge.method_threads.iter().map(Vec::len).sum();
        assert_eq!(noted, 2 * PIDS as usize, "main and work, once per process");
        let work = merge.finish(&mut space);
        let work = work.methods.iter().find(|m| m.name == "work").unwrap();
        assert_eq!((work.calls, work.threads.len()), (8 * PIDS, PIDS as usize));
    }

    /// `(calls, inclusive, exclusive, min, max, threads)` of one address.
    type RefMethod = (u64, u64, u64, u64, u64, BTreeSet<u64>);

    /// The aggregate as it was before stacks were interned: three maps —
    /// by address, by the call's whole address path, by address pair — fed
    /// from the call's stack, then re-keyed by name the obvious way, threads by
    /// [`merged_thread_key`]: an address pair's edge joins its name pair's,
    /// and an address's method row joins its name's at the smallest
    /// address. The reference a walker's profile is held to.
    #[derive(Default)]
    struct PathKeyed {
        methods: BTreeMap<u64, RefMethod>,
        folded: BTreeMap<Vec<u64>, u64>,
        edges: BTreeMap<(u64, u64), (u64, u64, u64)>,
        threads: BTreeSet<u64>,
    }

    impl PathKeyed {
        fn add_call(&mut self, tid: u64, stack: &[u64], call: ClosedCall, scale: u64) {
            let scale = scale.max(1);
            let (inclusive, exclusive) = (call.inclusive(), call.exclusive());
            self.threads.insert(tid);
            let m =
                self.methods
                    .entry(call.addr)
                    .or_insert((0, 0, 0, u64::MAX, 0, BTreeSet::new()));
            m.0 += scale;
            m.1 += scale * inclusive;
            m.2 += scale * exclusive;
            m.3 = m.3.min(inclusive);
            m.4 = m.4.max(inclusive);
            m.5.insert(tid);
            if exclusive > 0 {
                *self.folded.entry(stack.to_vec()).or_default() += scale * exclusive;
            }
            let caller = match stack.len() {
                0 | 1 => ROOT_ADDR,
                n => stack[n - 2],
            };
            let e = self.edges.entry((caller, call.addr)).or_default();
            e.0 += scale;
            e.1 += scale * inclusive;
            e.2 += scale * exclusive;
        }

        fn materialize(&self, symbolizer: &Symbolizer, pid: u64, anomalies: Anomalies) -> Profile {
            let key = |tid: &u64| merged_thread_key(pid, *tid);
            let mut by_name: BTreeMap<String, MethodStats> = BTreeMap::new();
            for (addr, m) in &self.methods {
                let name = symbolizer.name_of(*addr);
                let row = by_name.entry(name.clone()).or_insert(MethodStats {
                    name,
                    addr: *addr,
                    calls: 0,
                    inclusive: 0,
                    exclusive: 0,
                    min_inclusive: u64::MAX,
                    max_inclusive: 0,
                    threads: BTreeSet::new(),
                });
                row.addr = row.addr.min(*addr);
                row.calls += m.0;
                row.inclusive += m.1;
                row.exclusive += m.2;
                row.min_inclusive = row.min_inclusive.min(m.3);
                row.max_inclusive = row.max_inclusive.max(m.4);
                row.threads.extend(m.5.iter().map(key));
            }
            let mut methods: Vec<MethodStats> = by_name.into_values().collect();
            methods.sort_by(|a, b| {
                (std::cmp::Reverse(a.exclusive), &a.name, a.addr).cmp(&(
                    std::cmp::Reverse(b.exclusive),
                    &b.name,
                    b.addr,
                ))
            });
            let mut named: BTreeMap<Vec<String>, u64> = BTreeMap::new();
            for (path, ticks) in &self.folded {
                let names = path.iter().map(|a| symbolizer.name_of(*a)).collect();
                *named.entry(names).or_default() += ticks;
            }
            let folded: Vec<(Vec<String>, u64)> = named.into_iter().collect();
            let mut symbols: Vec<String> = Vec::new();
            let folded_ids = folded
                .iter()
                .map(|(path, ticks)| {
                    let ids = path
                        .iter()
                        .map(|name| {
                            let known = symbols.iter().position(|s| s == name);
                            known.unwrap_or_else(|| {
                                symbols.push(name.clone());
                                symbols.len() - 1
                            }) as u32
                        })
                        .collect();
                    (ids, *ticks)
                })
                .collect();
            let mut edges: BTreeMap<(String, String), (u64, u64, u64)> = BTreeMap::new();
            for ((caller, callee), (calls, inclusive, exclusive)) in &self.edges {
                let caller = match *caller {
                    ROOT_ADDR => ROOT_NAME.to_string(),
                    addr => symbolizer.name_of(addr),
                };
                let e = edges
                    .entry((caller, symbolizer.name_of(*callee)))
                    .or_default();
                e.0 += calls;
                e.1 += inclusive;
                e.2 += exclusive;
            }
            let mut caller_edges: Vec<CallerEdge> = edges
                .into_iter()
                .map(
                    |((caller, callee), (calls, inclusive, exclusive))| CallerEdge {
                        caller,
                        callee,
                        calls,
                        inclusive,
                        exclusive,
                    },
                )
                .collect();
            caller_edges.sort_by(|a, b| {
                (std::cmp::Reverse(a.inclusive), &a.caller, &a.callee).cmp(&(
                    std::cmp::Reverse(b.inclusive),
                    &b.caller,
                    &b.callee,
                ))
            });
            Profile {
                total_ticks: methods.iter().map(|m| m.exclusive).sum(),
                methods,
                folded,
                symbols,
                folded_ids,
                caller_edges,
                threads: self.threads.iter().map(key).collect(),
                anomalies,
                pids: BTreeSet::from([pid]),
            }
        }
    }

    /// Any call/return sequence at all over addresses that are function
    /// entries, an interior alias of `main` (another address, the same
    /// name) and addresses with no debug info: recursion, returns that
    /// name a frame below the top (an unwind) or no open frame (an
    /// orphan), frames left open for `finish`.
    fn arbitrary_events() -> impl Strategy<Value = Vec<Event>> {
        proptest::collection::vec((0u64..6, 0u8..3, 0u64..9), 0..90).prop_map(|ops| {
            let mut counter = 0u64;
            ops.into_iter()
                .map(|(choice, kind, gap)| {
                    counter += gap;
                    Event {
                        kind: if kind == 0 {
                            EventKind::Return
                        } else {
                            EventKind::Call
                        },
                        counter,
                        addr: match choice {
                            0..=2 => addr(choice as u16),
                            3 => addr(0) + 4,
                            c => 0x90_0000 + c * 16,
                        },
                        seq: 0,
                    }
                })
                .collect()
        })
    }

    /// Walk `threads` through the stack machine the way a session does —
    /// round-robin over the threads, each fed `cut` events a turn under the
    /// turn's scale, everything force-closed at the end — handing every
    /// completed call to `sink(tid, call, scale)`. Returns the orphans.
    fn walk(
        paths: &mut PathTable,
        threads: &[Vec<Event>],
        cut: usize,
        scales: &[u64],
        mut sink: impl FnMut(u64, ClosedCall, u64),
    ) -> u64 {
        let mut stacks: Vec<ResumableStacks> = threads.iter().map(|_| Default::default()).collect();
        let mut orphans = 0;
        let turns = threads
            .iter()
            .map(|t| t.len().div_ceil(cut))
            .max()
            .unwrap_or(0);
        for turn in 0..turns {
            let scale = scales[turn % scales.len()];
            for (tid, events) in threads.iter().enumerate() {
                let chunk = events.chunks(cut).nth(turn).unwrap_or(&[]);
                orphans += stacks[tid].feed(paths, chunk, |call| sink(tid as u64, call, scale));
            }
        }
        let scale = scales[turns % scales.len()];
        for (tid, stack) in stacks.iter_mut().enumerate() {
            stack.finish(|call| sink(tid as u64, call, scale));
        }
        orphans
    }

    /// What the sequential build was before it walked in place: group the
    /// entries per thread, then run one shard over all of them.
    fn grouped_walk(entries: &[LogEntry], pid: u64, dropped: u64, sym: &Symbolizer) -> Profile {
        let grouped = reader::group_entries(entries);
        let views: Vec<(u64, &[Event])> = grouped
            .threads
            .iter()
            .map(|(tid, events)| (*tid, events.as_slice()))
            .collect();
        let (paths, agg) = analyze_shard(&views);
        let walker = Walker {
            paths,
            agg,
            incomplete: grouped.incomplete,
            ..Walker::default()
        };
        walker.materialize(sym, pid, dropped)
    }

    /// A hostile log: 1 to 40 threads interleaved in runs of any length,
    /// each run maybe preceded by an all-zero hole, a torn slot (a zero
    /// address under a live word) or a zero-address slot with a zero
    /// counter; the events are [`arbitrary_events`]' mix, so there are
    /// orphan returns, unwinds and frames left open.
    fn adversarial_log() -> impl Strategy<Value = Vec<LogEntry>> {
        let runs = proptest::collection::vec((0u64..40, 0u8..8, arbitrary_events()), 0..60);
        (1u64..=40, runs).prop_map(|(threads, runs)| {
            let (mut log, mut counter) = (Vec::new(), 0u64);
            for (tid, slot, events) in runs {
                let tid = tid % threads;
                match slot {
                    0 => log.push(e(EventKind::Return, 0, 0, 0)),
                    1 => log.push(e(EventKind::Call, counter + 1, 0, tid)),
                    2 => log.push(e(EventKind::Return, 0, 0, tid)),
                    _ => {}
                }
                for ev in events.iter().take(usize::from(slot) * 3 + 1) {
                    counter += ev.counter % 7 + 1;
                    log.push(e(ev.kind, counter, ev.addr, tid));
                }
            }
            log
        })
    }

    proptest! {
        #[test]
        fn prop_the_in_place_walk_equals_the_grouped_walk_and_every_shard_count(
            entries in adversarial_log(),
            dropped in 0u64..3,
        ) {
            let sym = Symbolizer::without_relocation(debug());
            let walked = build_entries(&entries, 7, dropped, &sym, 1);
            prop_assert_eq!(&walked, &grouped_walk(&entries, 7, dropped, &sym));
            for shards in 2..=4 {
                prop_assert_eq!(&walked, &build_entries(&entries, 7, dropped, &sym, shards));
            }
        }

        #[test]
        fn prop_aggregates_equal_the_path_keyed_reference(
            threads in proptest::collection::vec(arbitrary_events(), 1..4),
            cut in 1usize..40,
            scales in proptest::collection::vec(1u64..4, 1..4),
        ) {
            let sym = Symbolizer::without_relocation(debug());
            let (mut walker, mut reference) = (Walker::new(), PathKeyed::default());
            let mut truncated = 0;
            let mut closed = Vec::new();
            let orphans = walk(&mut walker.paths, &threads, cut, &scales, |tid, call, scale| {
                closed.push((tid, call, scale));
            });
            // The reference is keyed by each call's stack, spelled from
            // its path; the stack tests pin that the path spells it.
            for (tid, call, scale) in closed {
                let (mut stack, mut id) = (Vec::new(), call.path);
                while id != PathId::ROOT {
                    stack.push(walker.paths.key(id));
                    id = walker.paths.parent(id);
                }
                stack.reverse();
                prop_assert_eq!(stack.last(), Some(&call.addr));
                walker.agg.add_call(tid, call, scale);
                reference.add_call(tid, &stack, call, scale);
                truncated += u64::from(call.truncated);
            }
            walker.agg.orphan_returns = orphans;
            let anomalies = Anomalies {
                orphan_returns: orphans,
                truncated_frames: truncated,
                ..Anomalies::default()
            };
            prop_assert_eq!(walker.agg.truncated_frames, truncated);
            prop_assert_eq!(
                walker.materialize(&sym, 7, 0),
                reference.materialize(&sym, 7, anomalies)
            );
        }
    }
}
