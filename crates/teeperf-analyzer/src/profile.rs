//! Method-level profile aggregation — sequential or sharded across worker
//! threads.
//!
//! The pass is the paper's: group the entries per thread, walk each
//! thread's events through the stack machine, and add every call to an
//! [`Aggregates`] as it closes ([`Aggregates::add_call`], the one way in).
//! Threads in a log are independent by construction (the recorder holds
//! each thread until its entry is written, so per-thread order is program
//! order), which makes the pass embarrassingly parallel: shard the
//! threads over workers, run it per shard, then merge. Every aggregate
//! operation is commutative and associative and every output table is
//! finished with a total sort, so the sharded result is byte-identical to
//! the sequential one — the invariant `build_with_shards` is tested against.
//!
//! Across processes an address means nothing — the same function loads at
//! different addresses, different functions at the same one — so a
//! cross-process view is a second table, keyed by name: [`ProfileMerge`],
//! fed with finished [`Profile`]s or with [`Aggregates`] that are still
//! address-keyed, and materialized once, in its `finish`.

use std::collections::{BTreeSet, HashMap};

use crate::query::frame::Frame;
use crate::reader::{self, Event};
use crate::stacks::{CompletedCall, ResumableStacks};
use crate::symbolize::{SymId, Symbolizer};
use teeperf_core::layout::LogEntry;
use teeperf_core::LogFile;

/// Sentinel caller address for top-level frames.
pub const ROOT_ADDR: u64 = u64::MAX;

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
    /// Threads that executed the method.
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
    /// Every thread observed, even one with zero completed calls (re-keyed
    /// with [`merged_thread_key`] in a cross-process merge).
    pub threads: BTreeSet<u64>,
    /// Sum of exclusive ticks over all methods (== total profiled time).
    pub total_ticks: u64,
    /// Data-quality counters.
    pub anomalies: Anomalies,
    /// Process ids this profile covers (one for a single-log build, the
    /// union for a [`merge_profiles`] result; empty when the producer did
    /// not stamp a process dimension, e.g. a bare rolling aggregate).
    pub pids: BTreeSet<u64>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RawMethod {
    calls: u64,
    inclusive: u64,
    exclusive: u64,
    min_inclusive: u64,
    max_inclusive: u64,
    threads: BTreeSet<u64>,
}

impl Default for RawMethod {
    /// The identity of [`RawMethod::add`]: no calls, so no fastest one.
    fn default() -> RawMethod {
        RawMethod {
            calls: 0,
            inclusive: 0,
            exclusive: 0,
            min_inclusive: u64::MAX,
            max_inclusive: 0,
            threads: BTreeSet::new(),
        }
    }
}

impl RawMethod {
    /// Fold another row's counters into this one. Threads are the
    /// caller's to add: a cross-process merge re-keys them first.
    fn add(&mut self, calls: u64, inclusive: u64, exclusive: u64, min: u64, max: u64) {
        self.calls += calls;
        self.inclusive += inclusive;
        self.exclusive += exclusive;
        self.min_inclusive = self.min_inclusive.min(min);
        self.max_inclusive = self.max_inclusive.max(max);
    }
}

/// Add `ticks` to `path`'s row, cloning the path only when it is new.
fn add_path<K: std::hash::Hash + Eq + Clone>(
    folded: &mut HashMap<Vec<K>, u64>,
    path: &[K],
    ticks: u64,
) {
    match folded.get_mut(path) {
        Some(t) => *t += ticks,
        None => {
            folded.insert(path.to_vec(), ticks);
        }
    }
}

/// Add one caller→callee contribution `(calls, inclusive, exclusive)` to
/// `edge`'s row.
fn add_edge<K: std::hash::Hash + Eq>(
    edges: &mut HashMap<K, (u64, u64, u64)>,
    edge: K,
    (calls, inclusive, exclusive): (u64, u64, u64),
) {
    let e = edges.entry(edge).or_default();
    e.0 += calls;
    e.1 += inclusive;
    e.2 += exclusive;
}

/// The method table's total order: exclusive ticks descending, then name,
/// then address.
fn sort_methods(methods: &mut [MethodStats]) {
    methods.sort_by(|a, b| {
        b.exclusive
            .cmp(&a.exclusive)
            .then_with(|| a.name.cmp(&b.name))
            .then_with(|| a.addr.cmp(&b.addr))
    });
}

/// Address-keyed aggregation state over completed calls.
///
/// This is the merge kernel shared by the batch analyzer (one per shard)
/// and `teeperf-live`'s rolling profile (one per session): symbolization
/// is deferred until [`Aggregates::materialize`], so accumulation touches
/// only integers. Merging two aggregates is commutative and associative —
/// the property that makes shard merge order irrelevant.
#[derive(Debug, Clone, Default)]
pub struct Aggregates {
    methods: HashMap<u64, RawMethod>,
    folded: HashMap<Vec<u64>, u64>,
    edges: HashMap<(u64, u64), (u64, u64, u64)>,
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

    /// Threads observed so far: every thread a call was added for or
    /// [`Aggregates::observe_thread`] named.
    pub fn thread_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.threads.iter().copied()
    }

    /// Register `tid` as observed. A thread whose events complete no call
    /// (orphan returns only, or frames still open) is still a thread of
    /// the profile.
    pub fn observe_thread(&mut self, tid: u64) {
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
    pub fn add_call(&mut self, tid: u64, call: &CompletedCall, scale: u64) {
        let scale = scale.max(1);
        let (inclusive, exclusive) = (call.inclusive(), call.exclusive());
        self.threads.insert(tid);
        self.truncated_frames += u64::from(call.truncated);
        let m = self.methods.entry(call.addr).or_default();
        m.add(
            scale,
            scale * inclusive,
            scale * exclusive,
            inclusive,
            inclusive,
        );
        m.threads.insert(tid);
        if exclusive > 0 {
            add_path(&mut self.folded, &call.stack, scale * exclusive);
        }
        let caller = match call.stack.len() {
            0 | 1 => ROOT_ADDR,
            n => call.stack[n - 2],
        };
        add_edge(
            &mut self.edges,
            (caller, call.addr),
            (scale, scale * inclusive, scale * exclusive),
        );
    }

    /// Merge another shard's aggregate into this one.
    pub fn merge(&mut self, other: Aggregates) {
        for (addr, raw) in other.methods {
            match self.methods.entry(addr) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(raw);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let m = e.get_mut();
                    m.add(
                        raw.calls,
                        raw.inclusive,
                        raw.exclusive,
                        raw.min_inclusive,
                        raw.max_inclusive,
                    );
                    m.threads.extend(raw.threads);
                }
            }
        }
        for (path, ticks) in other.folded {
            *self.folded.entry(path).or_default() += ticks;
        }
        for (edge, counters) in other.edges {
            add_edge(&mut self.edges, edge, counters);
        }
        self.threads.extend(other.threads);
        self.orphan_returns += other.orphan_returns;
        self.truncated_frames += other.truncated_frames;
    }

    /// Materialize the aggregate as a [`Profile`]: symbolize (through the
    /// symbolizer's address cache — each unique address resolves once),
    /// merge folded paths integer-keyed on interned [`SymId`]s, and finish
    /// every table with a total sort so the output is independent of both
    /// hash-map iteration order and shard assignment.
    pub fn materialize(&self, symbolizer: &Symbolizer, anomalies: Anomalies) -> Profile {
        let mut methods: Vec<MethodStats> = self
            .methods
            .iter()
            .map(|(addr, raw)| MethodStats {
                name: symbolizer.name_of(*addr),
                addr: *addr,
                calls: raw.calls,
                inclusive: raw.inclusive,
                exclusive: raw.exclusive,
                min_inclusive: raw.min_inclusive,
                max_inclusive: raw.max_inclusive,
                threads: raw.threads.clone(),
            })
            .collect();
        sort_methods(&mut methods);
        let total_ticks = methods.iter().map(|m| m.exclusive).sum();

        // Folded stacks: intern each address once (the symbolizer caches
        // addr → id), merge paths that symbolize identically by comparing
        // id slices — the hot join is integer-keyed; strings appear only
        // in the final materialization.
        let mut by_ids: HashMap<Vec<SymId>, u64> = HashMap::with_capacity(self.folded.len());
        let mut id_buf: Vec<SymId> = Vec::new();
        for (path, ticks) in &self.folded {
            id_buf.clear();
            id_buf.extend(path.iter().map(|a| symbolizer.intern(*a)));
            add_path(&mut by_ids, &id_buf, *ticks);
        }
        let mut names: HashMap<SymId, String> = HashMap::new();
        let mut folded: Vec<(Vec<String>, u64)> = by_ids
            .into_iter()
            .map(|(ids, ticks)| {
                let path = ids
                    .iter()
                    .map(|id| {
                        names
                            .entry(*id)
                            .or_insert_with(|| symbolizer.resolve(*id))
                            .clone()
                    })
                    .collect();
                (path, ticks)
            })
            .collect();
        // Paths are already distinct (id equality ⟺ name equality), so a
        // plain sort fully determines the order.
        folded.sort();

        let (symbols, folded_ids) = intern_folded(&folded);

        // Caller edges keep their address pair through the sort as the
        // final tiebreak, making the order total even when distinct
        // address pairs symbolize to the same names.
        let mut rows: Vec<((u64, u64), CallerEdge)> = self
            .edges
            .iter()
            .map(|((caller, callee), (calls, inclusive, exclusive))| {
                (
                    (*caller, *callee),
                    CallerEdge {
                        caller: if *caller == ROOT_ADDR {
                            ROOT_NAME.to_string()
                        } else {
                            symbolizer.name_of(*caller)
                        },
                        callee: symbolizer.name_of(*callee),
                        calls: *calls,
                        inclusive: *inclusive,
                        exclusive: *exclusive,
                    },
                )
            })
            .collect();
        rows.sort_by(|(ka, a), (kb, b)| {
            b.inclusive
                .cmp(&a.inclusive)
                .then_with(|| {
                    (a.caller.as_str(), a.callee.as_str())
                        .cmp(&(b.caller.as_str(), b.callee.as_str()))
                })
                .then_with(|| ka.cmp(kb))
        });
        let caller_edges = rows.into_iter().map(|(_, e)| e).collect();

        Profile {
            methods,
            folded,
            symbols,
            folded_ids,
            caller_edges,
            threads: self.thread_ids().collect(),
            total_ticks,
            anomalies,
            pids: BTreeSet::new(),
        }
    }
}

/// Build the profile-local symbol table over sorted folded stacks: ids in
/// order of first appearance, deterministic by construction. Shared by
/// [`Aggregates::materialize`] and [`ProfileMerge::finish`]. A name is
/// copied once, into the table, the first time it appears.
fn intern_folded(folded: &[(Vec<String>, u64)]) -> (Vec<String>, Vec<(Vec<u32>, u64)>) {
    let mut local: HashMap<&str, u32> = HashMap::new();
    let mut first_seen: Vec<&str> = Vec::new();
    let folded_ids: Vec<(Vec<u32>, u64)> = folded
        .iter()
        .map(|(path, ticks)| {
            let ids = path
                .iter()
                .map(|name| {
                    *local.entry(name.as_str()).or_insert_with(|| {
                        first_seen.push(name);
                        u32::try_from(first_seen.len() - 1).expect("fewer than 2^32 symbols")
                    })
                })
                .collect();
            (ids, *ticks)
        })
        .collect();
    let symbols = first_seen.into_iter().map(str::to_string).collect();
    (symbols, folded_ids)
}

/// The pass over one shard of threads: walk each thread's events through
/// the stack machine and add every call to the shard's aggregate as it
/// closes.
fn analyze_shard(threads: &[(u64, &[Event])]) -> Aggregates {
    let mut agg = Aggregates::new();
    for (tid, events) in threads {
        agg.observe_thread(*tid);
        let mut stacks = ResumableStacks::new();
        let mut add = |call: &CompletedCall| agg.add_call(*tid, call, 1);
        let orphans = stacks.feed(events, &mut add);
        stacks.finish(add);
        agg.orphan_returns += orphans;
    }
    agg
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
/// sequential build (`shards == 1` or a single-thread log short-circuits
/// to the sequential path).
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
/// [`build_with_shards`]).
pub fn build_entries(
    entries: &[LogEntry],
    pid: u64,
    dropped: u64,
    symbolizer: &Symbolizer,
    shards: usize,
) -> Profile {
    let grouped = reader::group_entries(entries);
    let anomalies_base = Anomalies {
        incomplete_entries: grouped.incomplete,
        dropped_entries: dropped,
        ..Anomalies::default()
    };
    let threads: Vec<(u64, Vec<Event>)> = grouped.threads.into_iter().collect();
    let shards = shards.max(1).min(threads.len().max(1));

    let agg = if shards <= 1 {
        let views: Vec<(u64, &[Event])> = threads
            .iter()
            .map(|(tid, events)| (*tid, events.as_slice()))
            .collect();
        analyze_shard(&views)
    } else {
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
        let workers = shard_workers(shards);
        let results: Vec<Aggregates> = if workers <= 1 {
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
                                .map(|(index, bucket)| {
                                    (index, analyze_shard(&bucket_views(bucket)))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let mut ordered: Vec<Option<Aggregates>> = Vec::new();
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
        let mut agg = Aggregates::new();
        for shard_agg in results {
            agg.merge(shard_agg);
        }
        agg
    };

    let anomalies = Anomalies {
        orphan_returns: agg.orphan_returns,
        truncated_frames: agg.truncated_frames,
        ..anomalies_base
    };
    let mut profile = agg.materialize(symbolizer, anomalies);
    profile.pids = BTreeSet::from([pid]);
    profile
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
/// namespaces them as `pid << 32 | tid` (truncating tids to 32 bits).
pub fn merged_thread_key(pid: u64, tid: u64) -> u64 {
    (pid << 32) | (tid & 0xffff_ffff)
}

/// The name-space accumulator under every cross-process view: per-process
/// contributions go in — already materialized ([`ProfileMerge::add_profile`])
/// or still address-keyed ([`ProfileMerge::add_aggregates`]) — and one
/// [`Profile`] comes out ([`ProfileMerge::finish`]).
///
/// Different processes may load the same function at different addresses
/// (and different functions at the same address), so the merge keys
/// methods, folded stacks and caller edges by *name*, taking the smallest
/// address as a method's representative; threads and per-thread calls are
/// re-keyed with [`merged_thread_key`]. Inside the accumulator a name is a
/// small integer: each contribution maps its own names (or addresses) to
/// ids once, every table merges on ids, and names become strings again
/// only in `finish`. Every counter is summed, so the merged totals equal
/// the sum of the per-process totals; contributions commute, and the two
/// ways in agree — adding a process's aggregate gives the same result as
/// adding the profile [`Aggregates::materialize`] builds from it.
#[derive(Debug, Default)]
pub struct ProfileMerge {
    /// name → id, ids dense in order of first appearance.
    names: HashMap<String, u32>,
    /// name id → (smallest address seen, merged row).
    methods: HashMap<u32, (u64, RawMethod)>,
    folded: HashMap<Vec<u32>, u64>,
    edges: HashMap<(u32, u32), (u64, u64, u64)>,
    threads: BTreeSet<u64>,
    total_ticks: u64,
    anomalies: Anomalies,
    pids: BTreeSet<u64>,
}

/// The id of `name` in a [`ProfileMerge`]'s table, assigned on first sight
/// (the only time the name is copied).
fn name_id(names: &mut HashMap<String, u32>, name: &str) -> u32 {
    if let Some(id) = names.get(name) {
        return *id;
    }
    let id = u32::try_from(names.len()).expect("fewer than 2^32 names");
    names.insert(name.to_string(), id);
    id
}

/// The merged row of method `name`, whose representative address is the
/// smallest of those it was seen at.
fn method_row(
    methods: &mut HashMap<u32, (u64, RawMethod)>,
    name: u32,
    addr: u64,
) -> &mut RawMethod {
    let (representative, row) = methods
        .entry(name)
        .or_insert_with(|| (addr, RawMethod::default()));
    *representative = (*representative).min(addr);
    row
}

impl ProfileMerge {
    /// An empty merge.
    pub fn new() -> ProfileMerge {
        ProfileMerge::default()
    }

    fn add_anomalies(&mut self, anomalies: Anomalies) {
        self.anomalies.orphan_returns += anomalies.orphan_returns;
        self.anomalies.truncated_frames += anomalies.truncated_frames;
        self.anomalies.incomplete_entries += anomalies.incomplete_entries;
        self.anomalies.dropped_entries += anomalies.dropped_entries;
    }

    /// Add process `pid`'s materialized profile.
    pub fn add_profile(&mut self, pid: u64, profile: &Profile) {
        self.pids.insert(pid);
        self.pids.extend(&profile.pids);
        self.total_ticks += profile.total_ticks;
        self.add_anomalies(profile.anomalies);
        for m in &profile.methods {
            let name = name_id(&mut self.names, &m.name);
            let row = method_row(&mut self.methods, name, m.addr);
            row.add(
                m.calls,
                m.inclusive,
                m.exclusive,
                m.min_inclusive,
                m.max_inclusive,
            );
            row.threads
                .extend(m.threads.iter().map(|t| merged_thread_key(pid, *t)));
        }
        let mut ids: Vec<u32> = Vec::new();
        for (path, ticks) in &profile.folded {
            ids.clear();
            ids.extend(path.iter().map(|name| name_id(&mut self.names, name)));
            add_path(&mut self.folded, &ids, *ticks);
        }
        for edge in &profile.caller_edges {
            let caller = name_id(&mut self.names, &edge.caller);
            let callee = name_id(&mut self.names, &edge.callee);
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

    /// Add process `pid`'s address-keyed aggregate without materializing
    /// it: the contribution of `aggregates.materialize(symbolizer,
    /// anomalies)` stamped with `pid`, which is how a rolling or window
    /// aggregate freezes. `anomalies` is the caller's to
    /// state, as it is for `materialize` — a session reports its counters,
    /// a window span reports none.
    ///
    /// Each distinct address of the aggregate goes through `symbolizer`
    /// once per call; methods, folded paths and caller edges then merge as
    /// integers.
    pub fn add_aggregates(
        &mut self,
        pid: u64,
        aggregates: &Aggregates,
        symbolizer: &Symbolizer,
        anomalies: Anomalies,
    ) {
        self.pids.insert(pid);
        self.add_anomalies(anomalies);
        let root = name_id(&mut self.names, ROOT_NAME);
        let names = &mut self.names;
        let mut seen: HashMap<u64, u32> = HashMap::with_capacity(aggregates.methods.len());
        let mut id_of = |addr: u64| {
            *seen
                .entry(addr)
                .or_insert_with(|| name_id(names, &symbolizer.name_of(addr)))
        };
        for (addr, raw) in &aggregates.methods {
            self.total_ticks += raw.exclusive;
            let row = method_row(&mut self.methods, id_of(*addr), *addr);
            row.add(
                raw.calls,
                raw.inclusive,
                raw.exclusive,
                raw.min_inclusive,
                raw.max_inclusive,
            );
            row.threads
                .extend(raw.threads.iter().map(|t| merged_thread_key(pid, *t)));
        }
        let mut ids: Vec<u32> = Vec::new();
        for (path, ticks) in &aggregates.folded {
            ids.clear();
            ids.extend(path.iter().map(|addr| id_of(*addr)));
            add_path(&mut self.folded, &ids, *ticks);
        }
        for ((caller, callee), counters) in &aggregates.edges {
            let caller = if *caller == ROOT_ADDR {
                root
            } else {
                id_of(*caller)
            };
            add_edge(&mut self.edges, (caller, id_of(*callee)), *counters);
        }
        let keys = aggregates
            .thread_ids()
            .map(|tid| merged_thread_key(pid, tid));
        self.threads.extend(keys);
    }

    /// Turn ids back into names and finish every table with the same
    /// total sorts as [`Aggregates::materialize`] — the only place a
    /// cross-process view is sorted, and where its strings are made.
    pub fn finish(self) -> Profile {
        let mut names: Vec<&str> = vec![""; self.names.len()];
        for (name, id) in &self.names {
            names[*id as usize] = name;
        }
        let name = |id: u32| names[id as usize].to_string();

        let mut methods: Vec<MethodStats> = self
            .methods
            .into_iter()
            .map(|(id, (addr, raw))| MethodStats {
                name: name(id),
                addr,
                calls: raw.calls,
                inclusive: raw.inclusive,
                exclusive: raw.exclusive,
                min_inclusive: raw.min_inclusive,
                max_inclusive: raw.max_inclusive,
                threads: raw.threads,
            })
            .collect();
        sort_methods(&mut methods);

        // Id paths are distinct and ids stand for distinct names, so the
        // named paths are distinct and a plain sort is total.
        let mut folded: Vec<(Vec<String>, u64)> = self
            .folded
            .into_iter()
            .map(|(ids, ticks)| (ids.into_iter().map(name).collect(), ticks))
            .collect();
        folded.sort();
        let (symbols, folded_ids) = intern_folded(&folded);

        // Name pairs are unique keys here, so no address tiebreak is
        // needed for a total order.
        let mut caller_edges: Vec<CallerEdge> = self
            .edges
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
            threads: self.threads,
            total_ticks: self.total_ticks,
            anomalies: self.anomalies,
            pids: self.pids,
        }
    }
}

/// Merge per-process profiles into one cross-process view: each part is
/// `(pid, profile)`, folded through a [`ProfileMerge`]. Part order does
/// not affect the result.
pub fn merge_profiles(parts: &[(u64, &Profile)]) -> Profile {
    let mut merge = ProfileMerge::new();
    for (pid, profile) in parts {
        merge.add_profile(*pid, profile);
    }
    merge.finish()
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

    /// Caller breakdown for one method: who calls it, how often, and how
    /// expensive it is from each call site.
    pub fn callers_of(&self, name: &str) -> Vec<&CallerEdge> {
        self.caller_edges
            .iter()
            .filter(|e| e.callee == name)
            .collect()
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
/// addr, method`).
pub fn events_frame(log: &LogFile, symbolizer: &Symbolizer) -> Frame {
    let grouped = reader::group_by_thread(log);
    let mut seq = Vec::new();
    let mut tid_col = Vec::new();
    let mut kind = Vec::new();
    let mut counter = Vec::new();
    let mut addr = Vec::new();
    let mut method = Vec::new();
    let mut rows: Vec<(u64, u64, reader::Event)> = Vec::new();
    for (tid, events) in &grouped.threads {
        for e in events {
            rows.push((e.seq, *tid, *e));
        }
    }
    rows.sort_by_key(|(s, _, _)| *s);
    for (s, tid, e) in rows {
        seq.push(s as i64);
        tid_col.push(tid as i64);
        kind.push(if e.kind.is_call() { "call" } else { "return" }.to_string());
        counter.push(e.counter as i64);
        addr.push(e.addr as i64);
        method.push(symbolizer.name_of(e.addr));
    }
    let mut f = Frame::new();
    f.push_int_column("seq", seq);
    f.push_int_column("tid", tid_col);
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
    use teeperf_core::layout::{EventKind, LogEntry, LogHeader, LOG_VERSION};

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
        let log = make_log(vec![e(Call, 0, addr(0), 0), e(Return, 9, addr(0), 0)]);
        let f = events_frame(&log, &Symbolizer::without_relocation(debug()));
        assert_eq!(f.len(), 2);
        assert_eq!(
            f.column_names(),
            vec!["seq", "tid", "kind", "counter", "addr", "method"]
        );
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
        let leaf_callers = p.callers_of("leaf");
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
        assert_eq!(pa.methods.iter().filter(|m| m.name == "work").count(), 2);
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
        // The tables keep materialize's orders: methods by exclusive
        // descending then name, edges by inclusive descending then names.
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

        // Part order does not matter, and merging one part re-keys it.
        assert_eq!(merge_profiles(&[(9, &pb), (7, &pa)]), merged);
        let alone = merge_profiles(&[(7, &pa)]);
        assert_eq!(
            alone.methods.len(),
            2,
            "the two work addresses fold into one row"
        );
        assert_eq!(alone.method("work").unwrap().calls, 2);
        assert_eq!(alone.total_ticks, pa.total_ticks);
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
}
