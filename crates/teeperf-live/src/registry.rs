//! The pid-keyed session registry: continuous profiling over N processes.
//!
//! A [`SessionRegistry`] multiplexes any number of [`EventSource`]s — one
//! per profiled process — into independent [`LiveSession`]s keyed by the
//! process id stamped in each source's log header. Every session keeps its
//! own drain cursor, epoch counter and rolling profile; the registry adds
//! the cross-process views: per-pid snapshots on demand, plus a *merged*
//! snapshot whose profile is the commutative merge of every per-pid
//! profile, so the merged totals are exactly the sum of the per-pid
//! totals.
//!
//! The merged profile is folded at pump time and read at poll time. The
//! registry keeps one running [`ProfileMerge`], the *fleet table*: right
//! after a session's pump (or its finish) the rows its calls touched are
//! added to it as deltas ([`ProfileMerge::add_since`]), each call having
//! been aggregated once, by the session, through the session's memo of
//! where its stacks sit in the registry's [`NameSpace`] (names and stacks
//! of names as small integers, which only ever grow) — so an address is
//! symbolized once in a session's life and a poll hashes nothing. Every
//! merged column is a sum, so the table is the merge of every session of
//! the run, attached or retired, after every pump. `/snapshot`'s text
//! ([`SessionRegistry::merged_text`]) is written from that table, and
//! only the per-session scalars around it — status, anomalies, the regime
//! block and the events list, borrowed per session — are gathered per
//! read. A window query (`/query`) builds no merge: each contributing
//! session adds its selected slots' rows to one per-name table of sums in
//! the same name space ([`NameSums`]), through the same memo; a ranked
//! query ranks that table as rows
//! ([`teeperf_analyzer::query::windowed::rank_rows`]), and a `diff=`
//! sums each of its two windows so and joins the two tables
//! ([`teeperf_analyzer::diff`]). Only a single-process view (`snapshot_pid`, the per-pid towers of a
//! render) reads a session by itself, as a merge of one process in a name
//! space of its own.
//!
//! Sessions come and go while the registry runs: [`SessionRegistry::attach`]
//! accepts a new source at any point and [`SessionRegistry::detach`] ends
//! one early: the session is finished in place — its source released —
//! and its pid marked *retired*; it pumps nothing more, and every view,
//! merged or per pid, windows included, keeps reading it. The registry
//! asks a source nothing between drains: what it knows of one is what the
//! session kept of its last drain's report ([`teeperf_core::SourceBatch`]),
//! read right after the pump that made it. A source whose drain reports
//! it dead ([`teeperf_core::SourceState::dead`]) is retired the same way,
//! involuntarily: *quarantined* — finished, retired, and recorded as a
//! [`SessionEvent::Quarantined`] naming the cause its salvage report
//! gives, so one crashed process never poisons the run for the
//! survivors. The medium decides: the in-memory log goes dead on a
//! corrupt header, a file on a corrupt or cut header or (with the daemon's
//! probe) a vanished writer process, and a replay never does — it is
//! exhausted. A registry feature no front-end arms,
//! [`SessionRegistry::with_watchdog`], can also quarantine a source whose
//! tail stays flat for a number of pumps; it cannot tell a quiet producer
//! from a dead one.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use teeperf_analyzer::query::windowed::rank_rows;
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_analyzer::{
    diff, Aggregates, NameSpace, NameSums, PathNames, PathTable, Profile, ProfileMerge, WindowSpec,
};
use teeperf_core::layout::PID_UNSET;
use teeperf_core::{EventSource, SalvageReason, SalvageReport, SourceBatch};
use teeperf_flamegraph::{live, LiveStatus, SvgOptions};

use crate::session::{LiveConfig, LiveSession};
use crate::snapshot::{self, RegimeInfo, SessionEvent, Snapshot};
use crate::window::{PidWindows, WindowMeta, WindowSel};

/// Why a source could not be attached to the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachError {
    /// The source reports pid 0 ([`PID_UNSET`]): the recorder never
    /// stamped a real process id into the log header, so the registry has
    /// no key to file the session under. Fix the producer (the recorder
    /// stamps the host pid at init) or override the pid on the source.
    ZeroPid,
    /// A session for this pid is already attached. Detach it first, or
    /// override the pid on the new source if the two logs really come from
    /// different processes.
    DuplicatePid(u64),
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::ZeroPid => write!(
                f,
                "source reports pid 0 (PID_UNSET): the log header was never \
                 stamped with a real process id, so the registry cannot key \
                 a session for it"
            ),
            AttachError::DuplicatePid(pid) => {
                write!(f, "a session for pid {pid} is already attached")
            }
        }
    }
}

impl Error for AttachError {}

/// The final word on a multi-process session: one snapshot per pid plus
/// the merged cross-process snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryRun {
    /// Final per-process snapshots, keyed by pid — including sessions that
    /// were detached or quarantined before the run ended, so the merged
    /// totals always equal the sum over `per_pid`.
    pub per_pid: BTreeMap<u64, Snapshot>,
    /// The cross-process merge: totals equal the sum over `per_pid`.
    pub merged: Snapshot,
}

/// Liveness-watchdog tuning for a [`SessionRegistry`].
///
/// The heartbeat is tail progress: a pump that consumes at least one entry
/// (or reports drops) proves the producer alive. A source missing
/// `timeout_pumps` consecutive heartbeats strikes out once; each strike
/// doubles the deadline (bounded backoff), and after `max_retries`
/// additional strikes the source is declared dead and quarantined.
/// Exhausted replay sources are exempt — done is not dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Consecutive progress-free pumps before the first strike.
    pub timeout_pumps: u64,
    /// Strikes tolerated after the first before quarantining (0 means the
    /// first timeout is final).
    pub max_retries: u32,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            timeout_pumps: 64,
            max_retries: 2,
        }
    }
}

/// Per-session watchdog ledger.
#[derive(Debug, Clone, Copy, Default)]
struct WatchState {
    /// Progress-free pumps since the last heartbeat or strike.
    missed: u64,
    /// Strikes so far (each doubles the next deadline).
    retries: u32,
}

/// N profiled processes, one [`LiveSession`] each, keyed by pid.
#[derive(Debug)]
pub struct SessionRegistry {
    config: LiveConfig,
    /// Every session of the run, attached or retired, keyed by pid.
    sessions: BTreeMap<u64, LiveSession>,
    watchdog: Option<WatchdogConfig>,
    watch: BTreeMap<u64, WatchState>,
    /// The pids detached or quarantined so far: their sessions were
    /// finished in place, pump nothing, and stay in every view.
    retired: BTreeSet<u64>,
    events: Vec<SessionEvent>,
    /// The name ids of every merged view of this run. Sessions remember
    /// their stacks' ids in it, so it only ever grows (and merged views
    /// only read the registry, hence the cell).
    space: RefCell<NameSpace>,
    /// The fleet table: every call of every session of the run, folded in
    /// as the session's pump or finish completed it.
    fleet: ProfileMerge,
    /// The one buffer every session pumps and finishes through, lent to
    /// each in turn: it settles at the largest stretch a source hands
    /// over at once — one bulk read for a file — so a steady drain needs
    /// no new batch whichever session is attached or retired.
    batch: SourceBatch,
}

impl SessionRegistry {
    /// An empty registry; every attached session inherits `config`.
    pub fn new(config: LiveConfig) -> SessionRegistry {
        SessionRegistry {
            config,
            sessions: BTreeMap::new(),
            watchdog: None,
            watch: BTreeMap::new(),
            retired: BTreeSet::new(),
            events: Vec::new(),
            space: RefCell::new(NameSpace::new()),
            fleet: ProfileMerge::new(),
            batch: SourceBatch::default(),
        }
    }

    /// Enable the per-source liveness watchdog (off by default: a registry
    /// of replay sources has no liveness to watch).
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> SessionRegistry {
        self.watchdog = Some(watchdog);
        self
    }

    /// Attach a source and start its session — at construction time or hot,
    /// in the middle of a run. The session is keyed by
    /// [`EventSource::pid`]; returns that pid on success.
    ///
    /// # Errors
    /// [`AttachError::ZeroPid`] when the source reports [`PID_UNSET`]
    /// (the producer never stamped a real pid), and
    /// [`AttachError::DuplicatePid`] when a session with the same pid is
    /// already attached — or was retired (detached/quarantined) earlier in
    /// this run, since its session is still keyed under that pid in every
    /// view.
    pub fn attach(
        &mut self,
        source: Box<dyn EventSource>,
        symbolizer: Symbolizer,
    ) -> Result<u64, AttachError> {
        let pid = source.pid();
        if pid == PID_UNSET {
            return Err(AttachError::ZeroPid);
        }
        if self.sessions.contains_key(&pid) {
            return Err(AttachError::DuplicatePid(pid));
        }
        let mut session = LiveSession::from_source(source, symbolizer, self.config.clone());
        // In the merged view from the start, calls or not.
        session.fold_into(&mut self.fleet, self.space.get_mut());
        self.sessions.insert(pid, session);
        self.events.push(SessionEvent::Attached { pid });
        Ok(pid)
    }

    /// Hot-detach the session for `pid`: end it in place (final drain,
    /// close open frames, release the source) and retire its pid; every
    /// view keeps reading it. Returns the final snapshot, or `None` when
    /// no such session is attached.
    pub fn detach(&mut self, pid: u64) -> Option<Snapshot> {
        if !self.retire(pid) {
            return None;
        }
        self.events.push(SessionEvent::Detached { pid });
        self.snapshot_pid(pid)
    }

    /// Declare `pid`'s producer dead: finish what can still be drained
    /// (published entries of the final epoch are salvaged on the way out),
    /// retire the session, and record the quarantine event.
    fn quarantine(&mut self, pid: u64, reason: String) {
        if self.retire(pid) {
            self.events.push(SessionEvent::Quarantined { pid, reason });
        }
    }

    /// Finish the attached session for `pid` in place, fold what the
    /// finish completed, and retire its pid; `false` when none is
    /// attached.
    fn retire(&mut self, pid: u64) -> bool {
        let Some(session) = self.sessions.get_mut(&pid) else {
            return false;
        };
        if !self.retired.insert(pid) {
            return false;
        }
        self.watch.remove(&pid);
        session.finish_into(&mut self.batch, &mut self.fleet, self.space.get_mut());
        true
    }

    /// Registry lifecycle events so far (attach/detach/quarantine), in
    /// order of occurrence.
    pub fn session_events(&self) -> &[SessionEvent] {
        &self.events
    }

    /// Pids quarantined or detached so far, ascending.
    pub fn retired_pids(&self) -> Vec<u64> {
        self.retired.iter().copied().collect()
    }

    /// Salvage accounting across the whole registry: every session's
    /// report, attached or retired.
    pub fn salvage(&self) -> SalvageReport {
        let mut total = SalvageReport::default();
        for s in self.sessions.values() {
            total.absorb(s.salvage());
        }
        total
    }

    /// Every pid of the run, attached or retired, ascending.
    pub fn run_pids(&self) -> Vec<u64> {
        self.sessions.keys().copied().collect()
    }

    /// The attached pids, ascending.
    pub fn pids(&self) -> Vec<u64> {
        let attached = self.sessions.keys().filter(|p| !self.retired.contains(p));
        attached.copied().collect()
    }

    /// Whether no session is attached.
    pub fn is_empty(&self) -> bool {
        self.sessions.len() == self.retired.len()
    }

    /// The session for `pid`, attached or retired, if `pid` is part of
    /// the run.
    pub fn session(&self, pid: u64) -> Option<&LiveSession> {
        self.sessions.get(&pid)
    }

    /// Pump every session once (each drains its own source and merges into
    /// its own rolling profile, and the calls it completed are folded into
    /// the fleet table). Returns the total entries consumed.
    ///
    /// A session whose source was already exhausted — its writer finished
    /// and every promised slot drained — is not pumped: a finished,
    /// drained log is never read again, and it stays attached. A retired
    /// session holds no source, so it is skipped too.
    ///
    /// A source whose drain reports it dead is quarantined right after
    /// that pump, under the cause its salvage report names. With a watchdog
    /// enabled, each pump also checks every source's heartbeat: consuming
    /// entries (or reporting drops) resets its ledger; a source silent
    /// past the timeout strikes out with doubled deadlines until
    /// [`WatchdogConfig::max_retries`] is exhausted, at which point it is
    /// quarantined.
    pub fn pump(&mut self) -> usize {
        let mut total = 0;
        let mut condemned: Vec<(u64, String)> = Vec::new();
        let watchdog = self.watchdog;
        for (pid, session) in &mut self.sessions {
            if session.source_exhausted() {
                continue;
            }
            let before_dropped = session.dropped();
            let n = session.pump_through(&mut self.batch);
            // An idle pump touches nothing to fold: `attach` already put
            // the pid in the fleet table.
            if n > 0 {
                session.fold_into(&mut self.fleet, self.space.get_mut());
            }
            total += n;
            if session.source_dead() {
                condemned.push((*pid, cause_of_death(session.salvage()).to_string()));
                continue;
            }
            let Some(dog) = watchdog else { continue };
            if session.source_exhausted() {
                self.watch.remove(pid);
                continue;
            }
            let state = self.watch.entry(*pid).or_default();
            if n > 0 || session.dropped() > before_dropped {
                *state = WatchState::default();
                continue;
            }
            state.missed += 1;
            let deadline = dog
                .timeout_pumps
                .checked_shl(state.retries)
                .unwrap_or(u64::MAX);
            if state.missed >= deadline {
                state.missed = 0;
                if state.retries >= dog.max_retries {
                    condemned.push((
                        *pid,
                        format!(
                            "no progress after {} strikes of {} pumps",
                            dog.max_retries + 1,
                            dog.timeout_pumps
                        ),
                    ));
                } else {
                    state.retries += 1;
                }
            }
        }
        for (pid, reason) in condemned {
            self.quarantine(pid, reason);
        }
        total
    }

    /// Events merged so far, across all processes — including sessions
    /// already retired.
    pub fn events(&self) -> u64 {
        self.sessions.values().map(LiveSession::events).sum()
    }

    /// Cumulative overflow loss, across all processes — including
    /// sessions already retired.
    pub fn dropped(&self) -> u64 {
        self.sessions.values().map(LiveSession::dropped).sum()
    }

    /// Cumulative overflow loss per process, ascending by pid — attached
    /// sessions as of the last pump, retired sessions at their final
    /// count.
    /// This is the breakdown behind the daemon's per-pid
    /// `teeperf_dropped_total` gauge: the fleet total is the sum of these.
    pub fn dropped_by_pid(&self) -> BTreeMap<u64, u64> {
        let dropped = self.sessions.iter().map(|(pid, s)| (*pid, s.dropped()));
        dropped.collect()
    }

    /// Each session's fidelity-regime block, attached or retired (at its
    /// final state), ascending by pid. Sessions without one (no budget, no
    /// faults) are absent — every entry here is either budget-controlled
    /// or has salvaged a corrupt regime word.
    pub fn regimes_by_pid(&self) -> BTreeMap<u64, RegimeInfo> {
        self.sessions
            .iter()
            .filter_map(|(pid, s)| s.regime_info().map(|r| (*pid, r)))
            .collect()
    }

    /// Per-pid budget headroom (budget minus windowed loss, percent —
    /// negative while a session overruns), ascending by pid, retired
    /// sessions at their final headroom. Only budget-controlled sessions
    /// appear.
    pub fn budget_headroom_by_pid(&self) -> BTreeMap<u64, i64> {
        self.sessions
            .iter()
            .filter_map(|(pid, s)| s.budget_headroom_pct().map(|h| (*pid, h)))
            .collect()
    }

    /// The snapshot of process `pid`: its session frozen now — while it
    /// is attached, or finished once it was detached or quarantined — so
    /// every pid the merged view counts answers here. `None` for a pid
    /// that never was part of the run.
    pub fn snapshot_pid(&self, pid: u64) -> Option<Snapshot> {
        self.sessions.get(&pid).map(LiveSession::snapshot)
    }

    /// The merged view of the run so far: the returned snapshot's profile
    /// covers all attached pids plus the retired ones, its method and
    /// tick totals are the sums of the per-pid profiles, its status sums
    /// the sessions' counters, and its events list records every
    /// attach/detach/quarantine so far. Equal to merging the per-pid
    /// [`Self::snapshot_pid`]s; materialized from the fleet table, with
    /// the sessions' anomalies summed beside it.
    pub fn merged_snapshot(&self) -> Snapshot {
        let mut profile = self.fleet.finish(&mut self.space.borrow_mut());
        for s in self.sessions.values() {
            profile.anomalies.add(&s.anomalies());
        }
        let (status, events, regime) = self.merged_head();
        Snapshot {
            status,
            profile,
            events: events.concat(),
            regime,
        }
    }

    /// [`Self::merged_snapshot`]`.to_text()`, byte for byte, written from
    /// the fleet table as it stands — the daemon's `/snapshot` body. No
    /// profile is built and no session's table is read: the cost is the
    /// table's size plus a few counters per session.
    pub fn merged_text(&self) -> String {
        let (status, events, regime) = self.merged_head();
        let space = self.space.borrow();
        snapshot::merged_text(&status, &self.fleet, &space, &events, regime.as_ref())
    }

    /// The rest of a merged snapshot besides its profile, in one walk over
    /// the sessions: the status, every counter the sum over the sessions
    /// (epochs included — each process rotates its own log, so the merged
    /// epoch counts rotations fleet-wide), retired sessions at their final
    /// counters; the merged events list
    /// as the slices it is made of, borrowed, not copied — the registry's
    /// lifecycle log, then each session's own events (retention
    /// transitions, regime changes and faults) in pid order, so the merged
    /// `[events]` section never hides history loss.
    ///
    /// Regime blocks merge conservatively: the merged regime is the *most
    /// degraded* across the contributing sessions (each registry entry runs
    /// its own independent controller), counters are summed, and the stated
    /// budget is the tightest one — so a merged snapshot never claims more
    /// fidelity than its worst member delivers. Sessions without a block
    /// contribute nothing; when none has one, the merge has none.
    fn merged_head(&self) -> (LiveStatus, Vec<&[SessionEvent]>, Option<RegimeInfo>) {
        let mut status = LiveStatus::default();
        let mut events = vec![self.events.as_slice()];
        let mut regime: Option<RegimeInfo> = None;
        for session in self.sessions.values() {
            add_status(&mut status, &session.status());
            events.push(session.session_events());
            if let Some(r) = session.regime_info() {
                regime = Some(match regime {
                    None => r,
                    Some(m) => RegimeInfo {
                        regime: m.regime.max(r.regime),
                        budget_pct: match (m.budget_pct, r.budget_pct) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        },
                        transitions: m.transitions + r.transitions,
                        estimated_events: m.estimated_events + r.estimated_events,
                        faults: m.faults + r.faults,
                    },
                });
            }
        }
        (status, events, regime)
    }

    /// Render the merged view as SVG, one `pid <n>` tower per process,
    /// every session freshly frozen.
    pub fn render_svg(&self, options: &SvgOptions) -> String {
        let per_pid: Vec<(u64, Profile)> = self
            .sessions
            .iter()
            .map(|(pid, s)| (*pid, s.snapshot().profile))
            .collect();
        let parts: Vec<teeperf_flamegraph::PidFolded> = per_pid
            .iter()
            .map(|(pid, p)| (*pid, p.folded.as_slice()))
            .collect();
        live::render_svg_multi(&parts, &self.merged_head().0, options)
    }

    /// Per-pid retained-window listings across the sessions, attached or
    /// retired, ascending by pid. Each session owns its own
    /// [`RetentionRing`] (see [`crate::window`]), so one chatty process
    /// never ages out another's history, and a retired one keeps what it
    /// retained. Sessions running without retention are absent.
    ///
    /// [`RetentionRing`]: crate::window::RetentionRing
    pub fn windows(&self) -> Vec<PidWindows> {
        self.sessions
            .values()
            .filter_map(LiveSession::windows)
            .collect()
    }

    /// Evaluate a window span across the fleet: with `pid` set, the span
    /// profile of that one session; without, the commutative merge of
    /// every session's span, attached or retired (a session with nothing
    /// retained in the span simply contributes nothing). Returns the contributing
    /// `(pid, span)` pairs ascending plus the merged profile, or `None`
    /// when no session holds data in the span. No query reads it: it is
    /// the reference the query tests hold [`Self::query_text`]'s
    /// per-name sums to.
    pub fn span_query(
        &self,
        sel: &WindowSel,
        pid: Option<u64>,
    ) -> Option<(Vec<(u64, WindowMeta)>, Profile)> {
        let space = &mut *self.space.borrow_mut();
        let mut merge = ProfileMerge::new();
        let spans = self.spans(sel, pid, |pid, agg, paths, symbolizer, memo| {
            merge.add_aggregates(space, pid, agg, paths, symbolizer, memo);
        });
        (!spans.is_empty()).then(|| (spans, merge.finish(space)))
    }

    /// Hand every slot `sel` picks to `add`, with its session's pid and
    /// what [`LiveSession::span_into`] lends with it, from one session
    /// with `pid` set (none when it is not part of the run) or every
    /// session of the run without. Returns the contributing `(pid, span)`
    /// pairs ascending.
    fn spans(
        &self,
        sel: &WindowSel,
        pid: Option<u64>,
        mut add: impl FnMut(u64, &Aggregates, &PathTable, &Symbolizer, &mut PathNames),
    ) -> Vec<(u64, WindowMeta)> {
        let sessions = match pid {
            Some(p) => self.sessions.range(p..=p),
            None => self.sessions.range(..),
        };
        let span = |(pid, s): (&u64, &LiveSession)| {
            let meta = s.span_into(sel, |agg, paths, sym, memo| {
                add(*pid, agg, paths, sym, memo)
            });
            Some((*pid, meta?))
        };
        sessions.filter_map(span).collect()
    }

    /// Evaluate a parsed window-query spec into text inside the snapshot
    /// wire contract. Top queries render a `[query]` header (the
    /// canonical spec plus every contributing pid's span) followed by a
    /// `[methods]` table that [`Snapshot::methods_from_text`] parses
    /// unchanged; diff queries render the batch comparator's table under
    /// `[diff]`. `None` when nothing retained matches the spec, or for a
    /// diff, either of its windows.
    ///
    /// Every query reads its windows summed by name, no merge and no
    /// profile built: one pass per contributing session adds its selected
    /// slots' rows to one [`NameSums`]. A top query sums once, `tid=`
    /// marking names as it goes, and [`rank_rows`] filters, ranks and
    /// truncates the table. A diff sums once per window — window `a` the
    /// baseline, window `b` the candidate, only `pid=` applied — and
    /// [`diff`], the comparator `teeperf diff` runs over two recordings,
    /// joins the two tables. The rows and order are those
    /// [`Self::span_query`]'s profiles would give.
    pub fn query_text(&self, spec: &WindowSpec) -> Option<String> {
        let space = &mut *self.space.borrow_mut();
        let mut sum = |sel: &WindowSel, tid| {
            let mut sums = NameSums::new(tid);
            let spans = self.spans(sel, spec.pid, |_, agg, paths, symbolizer, memo| {
                sums.add(space, agg, paths, symbolizer, memo);
            });
            (!spans.is_empty()).then_some((sums, spans))
        };
        let mut out = format!("[query]\nspec {}\n", spec.to_query_string());
        if let Some((a, b)) = spec.diff {
            let (a_sums, _) = sum(&WindowSel::Range(a, a), None)?;
            let (b_sums, _) = sum(&WindowSel::Range(b, b), None)?;
            out.push_str(&format!("diff {a} vs {b}\n[diff]\n"));
            out.push_str(&diff(a_sums.rows(space), b_sums.rows(space)).to_table());
            if !out.ends_with('\n') {
                out.push('\n');
            }
            return Some(out);
        }
        let (sums, spans) = sum(&spec.sel, spec.tid)?;
        for (pid, m) in spans {
            out.push_str(&format!(
                "pid {pid} span {}..={} ticks {}..={} calls {}\n",
                m.first, m.last, m.start_tick, m.end_tick, m.calls
            ));
        }
        out.push_str("[methods]\n");
        for (name, calls, incl, excl) in rank_rows(sums.rows(space), spec) {
            out.push_str(&format!("{name} {calls} {incl} {excl}\n"));
        }
        Some(out)
    }

    /// End every session (drain final partial epochs, close open frames,
    /// release the sources) and return the per-pid snapshots plus the
    /// merged view. A retired session is already finished, so finishing
    /// it again changes nothing, and it is reported under its pid: the
    /// merged totals equal the sum over `per_pid` even after quarantines.
    /// A second `finish` returns the same run.
    pub fn finish(&mut self) -> RegistryRun {
        for s in self.sessions.values_mut() {
            s.finish_into(&mut self.batch, &mut self.fleet, self.space.get_mut());
        }
        let per_pid = self.sessions.iter().map(|(pid, s)| (*pid, s.snapshot()));
        RegistryRun {
            per_pid: per_pid.collect(),
            merged: self.merged_snapshot(),
        }
    }
}

/// Why a source declared itself dead, read from its salvage report: a
/// source that distrusts its header or finds its file cut short records
/// that incident as it goes dead, so a death with neither on record is the
/// producer's own (the daemon's liveness probe found its process gone).
fn cause_of_death(salvage: &SalvageReport) -> &'static str {
    if salvage.count(SalvageReason::CorruptHeader) > 0 {
        "source header corrupted"
    } else if salvage.count(SalvageReason::TruncatedFile) > 0 {
        "log file truncated"
    } else {
        "producer gone"
    }
}

/// Add one session's counters to a fleet's: every one of them is a sum.
fn add_status(fleet: &mut LiveStatus, one: &LiveStatus) {
    fleet.epoch += one.epoch;
    fleet.events += one.events;
    fleet.dropped += one.dropped;
    fleet.threads += one.threads;
    fleet.open_frames += one.open_frames;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mcvm::DebugInfo;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::path::{Path, PathBuf};
    use teeperf_core::layout::{EventKind, LogEntry, LogHeader, LOG_VERSION};
    use teeperf_core::{FileShmSource, FileShmWriter, LogFile};

    use crate::rolling::RollingProfile;
    use crate::window::RingConfig;

    /// A scratch directory of its own per test (removed on drop).
    pub(crate) struct ScratchDir(pub(crate) PathBuf);

    pub(crate) fn scratch(label: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("teeperf-live-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// `log` saved into `dir` and opened the way the daemon attaches a
    /// finished recording. Each save takes a fresh name, so a second log
    /// of one pid never rewrites a file a source holds open.
    pub(crate) fn saved(dir: &ScratchDir, log: &LogFile) -> Box<FileShmSource> {
        let n = std::fs::read_dir(&dir.0).expect("scratch dir").count();
        let path = dir.0.join(format!("{}-{n}.tplog", log.header.pid));
        log.save(&path).expect("save the log");
        Box::new(FileShmSource::open(&path).expect("open the saved log"))
    }

    /// A recording written to its `.tplog` `chunk` entries per
    /// [`Feed::step`] by a live [`FileShmWriter`], which finishes with the
    /// last entry: a writer that keeps pace with the registry's pumps.
    pub(crate) struct Feed {
        writer: FileShmWriter,
        entries: std::vec::IntoIter<LogEntry>,
        chunk: usize,
        finished: bool,
    }

    impl Feed {
        /// The writer for `log`'s pid in `dir`, nothing written yet, and
        /// the source that drains it.
        pub(crate) fn new(dir: &Path, log: &LogFile, chunk: usize) -> (Feed, Box<FileShmSource>) {
            let writer = FileShmWriter::create(dir, &log.header).expect("create the log");
            let source = FileShmSource::open(writer.path()).expect("open the log");
            let feed = Feed {
                writer,
                entries: log.entries.clone().into_iter(),
                chunk: chunk.max(1),
                finished: false,
            };
            (feed, Box::new(source))
        }

        /// Write the next chunk and publish it, finishing the session
        /// after the last entry.
        pub(crate) fn step(&mut self) {
            for e in self.entries.by_ref().take(self.chunk) {
                self.writer.write(&e).expect("write an entry");
            }
            if self.entries.len() == 0 && !self.finished {
                self.writer.finish().expect("finish the log");
                self.finished = true;
            }
        }
    }

    fn debug() -> DebugInfo {
        DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)])
    }

    fn sym() -> Symbolizer {
        Symbolizer::without_relocation(debug())
    }

    fn header(pid: u64, entries: u64) -> LogHeader {
        LogHeader {
            active: false,
            trace_calls: true,
            trace_returns: true,
            multithread: true,
            version: LOG_VERSION,
            pid,
            size: entries,
            tail: entries,
            anchor: 0,
            shm_addr: 0,
        }
    }

    /// A file whose single thread runs `main { work }` with `work_ticks`
    /// inside `work` and 100 ticks in `main` overall.
    fn file(pid: u64, work_ticks: u64) -> LogFile {
        let d = debug();
        let (a0, a1) = (d.entry_addr(0), d.entry_addr(1));
        let e = |kind, counter, addr| LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        };
        let entries = vec![
            e(EventKind::Call, 1, a0),
            e(EventKind::Call, 10, a1),
            e(EventKind::Return, 10 + work_ticks, a1),
            e(EventKind::Return, 101, a0),
        ];
        LogFile::new(header(pid, entries.len() as u64), entries)
    }

    #[test]
    fn attach_rejects_pid_zero_with_a_clear_error() {
        use std::sync::Arc;
        use tee_sim::SharedMem;
        use teeperf_core::log::{make_header, region_bytes};
        use teeperf_core::{LiveLogSource, SharedLog};

        // A file naming no writer never opens; an in-process log can.
        let shm = Arc::new(SharedMem::new(region_bytes(8)));
        let log = SharedLog::init(shm, &make_header(0, 8, true, 0, 0));
        let mut reg = SessionRegistry::new(LiveConfig::default());
        let src = LiveLogSource::new(log, 75);
        let err = reg.attach(Box::new(src), sym()).unwrap_err();
        assert_eq!(err, AttachError::ZeroPid);
        let msg = err.to_string();
        assert!(msg.contains("pid 0"), "must name the bad pid: {msg}");
        assert!(msg.contains("PID_UNSET"), "must name the sentinel: {msg}");
        assert!(reg.is_empty());
    }

    #[test]
    fn attach_rejects_duplicate_pids() {
        let dir = scratch("duplicate");
        let mut reg = SessionRegistry::new(LiveConfig::default());
        reg.attach(saved(&dir, &file(7, 10)), sym()).unwrap();
        let err = reg.attach(saved(&dir, &file(7, 20)), sym()).unwrap_err();
        assert_eq!(err, AttachError::DuplicatePid(7));
        assert_eq!(err.to_string(), "a session for pid 7 is already attached");
        // Another pid does not collide.
        assert_eq!(reg.attach(saved(&dir, &file(8, 20)), sym()), Ok(8));
        assert_eq!(reg.pids(), vec![7, 8]);
    }

    #[test]
    fn three_processes_merge_to_the_sum_of_per_pid_views() {
        let dir = scratch("three");
        let mut reg = SessionRegistry::new(LiveConfig::default());
        let works = [(11u64, 20u64), (22, 30), (33, 40)];
        let mut feeds = Vec::new();
        for (pid, work) in works {
            let (feed, src) = Feed::new(&dir.0, &file(pid, work), 1);
            reg.attach(src, sym()).unwrap();
            feeds.push(feed);
        }
        // Interleave: each writer publishes one entry between pumps.
        while reg.events() < 12 {
            feeds.iter_mut().for_each(Feed::step);
            assert!(reg.pump() > 0, "sources must still be producing");
        }
        let run = reg.finish();

        assert_eq!(run.per_pid.len(), 3);
        let ticks_sum: u64 = run.per_pid.values().map(|s| s.profile.total_ticks).sum();
        assert_eq!(run.merged.profile.total_ticks, ticks_sum);
        assert_eq!(run.merged.profile.total_ticks, 300, "3 × 100 ticks of main");

        let calls_sum: u64 = run
            .per_pid
            .values()
            .map(|s| s.profile.method("work").unwrap().calls)
            .sum();
        let merged_work = run.merged.profile.method("work").unwrap();
        assert_eq!(merged_work.calls, calls_sum);
        assert_eq!(merged_work.inclusive, 20 + 30 + 40);

        assert_eq!(
            run.merged.profile.pids,
            BTreeSet::from([11, 22, 33]),
            "merged profile must record every contributing process"
        );
        let events_sum: u64 = run.per_pid.values().map(|s| s.status.events).sum();
        assert_eq!(run.merged.status.events, events_sum);
        assert_eq!(run.merged.status.open_frames, 0);

        // The merged snapshot announces its processes when serialized.
        let text = run.merged.to_text();
        assert!(text.contains("[processes]\npid 11\npid 22\npid 33\n"));
        // Per-pid snapshots are single-process: no [processes] section.
        assert!(!run.per_pid[&11].to_text().contains("[processes]"));
    }

    #[test]
    fn a_fleet_of_identical_streams_folds_to_exact_multiples() {
        // `main { work × 8 }` on one thread; two entries a pump, so the
        // sessions' calls reach the fleet table interleaved, one by one.
        let d = debug();
        let (main, work) = (d.entry_addr(0), d.entry_addr(1));
        let e = |kind, counter, addr| LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        };
        let mut entries = vec![e(EventKind::Call, 1, main)];
        for i in 0..8 {
            entries.push(e(EventKind::Call, 10 * i + 2, work));
            entries.push(e(EventKind::Return, 10 * i + 9, work));
        }
        entries.push(e(EventKind::Return, 100, main));
        let stream = |pid| LogFile::new(header(pid, entries.len() as u64), entries.clone());
        const FLEET: u64 = 512;
        let dir = scratch("fleet");
        let mut reg = SessionRegistry::new(LiveConfig::default());
        let mut feeds = Vec::new();
        for pid in 1..=FLEET {
            let (feed, src) = Feed::new(&dir.0, &stream(pid), 2);
            reg.attach(src, sym()).unwrap();
            feeds.push(feed);
        }
        loop {
            feeds.iter_mut().for_each(Feed::step);
            if reg.pump() == 0 {
                break;
            }
        }
        let one = reg.snapshot_pid(1).unwrap().profile;
        let merged = reg.merged_snapshot();
        for name in ["main", "work"] {
            let (m, o) = (
                merged.profile.method(name).unwrap(),
                one.method(name).unwrap(),
            );
            assert_eq!(m.calls, FLEET * o.calls, "{name}");
            assert_eq!(
                (m.inclusive, m.exclusive),
                (FLEET * o.inclusive, FLEET * o.exclusive)
            );
            assert_eq!(
                m.threads.len() as u64,
                FLEET,
                "{name}: thread 0 of every process"
            );
        }
        assert_eq!(merged.profile.total_ticks, FLEET * one.total_ticks);
        assert_eq!(reg.merged_text(), merged.to_text());
        let (stacks, threads) = (merged.profile.folded.len(), merged.profile.threads.len());
        assert_eq!((stacks, threads), (2, FLEET as usize));
    }

    #[test]
    fn hot_detach_keeps_the_contribution_and_blocks_reattach() {
        let dir = scratch("hotdetach");
        let mut reg = SessionRegistry::new(LiveConfig::default());
        for (pid, work) in [(11u64, 20u64), (22, 30)] {
            reg.attach(saved(&dir, &file(pid, work)), sym()).unwrap();
        }
        while reg.pump() > 0 {}
        let gone = reg.detach(11).expect("session 11 is attached");
        assert_eq!(gone.profile.total_ticks, 100);
        assert!(reg.detach(11).is_none(), "already detached");
        assert_eq!(reg.pids(), vec![22]);
        assert_eq!(reg.retired_pids(), vec![11]);
        // Its pid stays reserved: the retired contribution is keyed by it.
        let err = reg.attach(saved(&dir, &file(11, 5)), sym()).unwrap_err();
        assert_eq!(err, AttachError::DuplicatePid(11));
        // A third process attaches hot, after the run started.
        reg.attach(saved(&dir, &file(33, 40)), sym()).unwrap();
        while reg.pump() > 0 {}
        let run = reg.finish();
        assert_eq!(run.per_pid.len(), 3, "retired pid 11 still reported");
        let ticks_sum: u64 = run.per_pid.values().map(|s| s.profile.total_ticks).sum();
        assert_eq!(run.merged.profile.total_ticks, ticks_sum);
        assert_eq!(run.merged.profile.total_ticks, 300);
        assert_eq!(
            run.merged.events,
            vec![
                SessionEvent::Attached { pid: 11 },
                SessionEvent::Attached { pid: 22 },
                SessionEvent::Detached { pid: 11 },
                SessionEvent::Attached { pid: 33 },
            ]
        );
        let text = run.merged.to_text();
        assert!(text.contains("[events]\n"));
        assert!(text.contains("detached pid 11\n"));
    }

    #[test]
    fn a_retired_pid_still_answers_with_its_final_snapshot() {
        let dir = scratch("retired");
        let mut reg = SessionRegistry::new(LiveConfig::default());
        for (pid, work) in [(11u64, 20u64), (22, 30)] {
            reg.attach(saved(&dir, &file(pid, work)), sym()).unwrap();
        }
        while reg.pump() > 0 {}
        let gone = reg.detach(11).expect("session 11 is attached");
        // Every pid the merged view lists and counts answers for itself.
        assert_eq!(reg.snapshot_pid(11), Some(gone));
        let merged = reg.merged_snapshot();
        assert_eq!(merged.profile.pids, BTreeSet::from([11, 22]));
        let per_pid: Vec<Snapshot> = merged
            .profile
            .pids
            .iter()
            .map(|pid| reg.snapshot_pid(*pid).expect("listed under [processes]"))
            .collect();
        let sum = |f: &dyn Fn(&Snapshot) -> u64| per_pid.iter().map(f).sum::<u64>();
        assert_eq!(merged.profile.total_ticks, sum(&|s| s.profile.total_ticks));
        assert_eq!(merged.status.events, sum(&|s| s.status.events));
        assert_eq!(
            merged.profile.method("work").unwrap().calls,
            sum(&|s| s.profile.method("work").unwrap().calls)
        );
        assert!(reg.snapshot_pid(99).is_none(), "never part of the run");
    }

    /// A fleet with retention on, one process per end state: pid 11 stays
    /// attached, pid 22 is detached, and pid 33, a live log that runs
    /// `main { work }` (40 ticks in `work`) and falls silent, is
    /// quarantined by the watchdog.
    fn retired_fleet(dir: &ScratchDir) -> SessionRegistry {
        use crate::window::RingConfig;
        use std::sync::Arc;
        use tee_sim::SharedMem;
        use teeperf_core::log::{make_header, region_bytes};
        use teeperf_core::{LiveLogSource, SharedLog};

        let config = LiveConfig {
            retention: Some(RingConfig {
                interval: 16,
                capacity: 8,
                max_width: 4,
            }),
            ..LiveConfig::default()
        };
        let mut reg = SessionRegistry::new(config).with_watchdog(WatchdogConfig {
            timeout_pumps: 1,
            max_retries: 0,
        });
        for (pid, work) in [(11u64, 20u64), (22, 30)] {
            reg.attach(saved(dir, &file(pid, work)), sym()).unwrap();
        }
        let shm = Arc::new(SharedMem::new(region_bytes(8)));
        let log = SharedLog::init(shm, &make_header(33, 8, true, 0, 0));
        reg.attach(Box::new(LiveLogSource::new(log.clone(), 75)), sym())
            .unwrap();
        for e in &file(33, 40).entries {
            log.write_live(e);
        }
        reg.pump();
        reg.pump();
        reg.detach(22).expect("pid 22 is attached");
        assert_eq!(reg.pids(), vec![11]);
        assert_eq!(reg.retired_pids(), vec![22, 33]);
        assert_eq!(reg.run_pids(), vec![11, 22, 33]);
        let quarantined = |e: &SessionEvent| matches!(e, SessionEvent::Quarantined { pid: 33, .. });
        assert!(reg.session_events().iter().any(quarantined));
        reg
    }

    #[test]
    fn a_quarantined_session_keeps_its_windows_queryable() {
        let dir = scratch("quarantinedwindows");
        let reg = retired_fleet(&dir);
        let listing = reg.windows();
        let pids: Vec<u64> = listing.iter().map(|w| w.pid).collect();
        assert_eq!(pids, [11, 22, 33], "retired processes stay listed");
        let metas: Vec<(u64, u64)> = listing[2]
            .windows
            .iter()
            .map(|w| (w.first, w.last))
            .collect();
        assert_eq!(metas, vec![(3, 3), (6, 6)], "work exits at 50, main at 101");

        let (spans, span) = reg
            .span_query(&WindowSel::All, Some(33))
            .expect("pid 33's windows are retained");
        assert_eq!(spans.iter().map(|(p, _)| *p).collect::<Vec<_>>(), [33]);
        let work = span.method("work").unwrap();
        assert_eq!((work.calls, work.inclusive), (1, 40));
        // The fleet-wide merge counts it beside the others.
        let (spans, all) = reg.span_query(&WindowSel::All, None).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(all.method("work").unwrap().inclusive, 20 + 30 + 40);
    }

    #[test]
    fn finishing_twice_changes_nothing() {
        let dir = scratch("finishtwice");
        let mut reg = retired_fleet(&dir);
        let first = reg.finish();
        assert_eq!(
            first.per_pid.keys().copied().collect::<Vec<_>>(),
            [11, 22, 33]
        );
        let (text, windows) = (reg.merged_text(), reg.windows());
        assert_eq!(text, first.merged.to_text());
        assert_eq!(reg.finish(), first);
        assert_eq!(reg.merged_text(), text);
        assert_eq!(reg.windows(), windows);
        for (pid, snapshot) in &first.per_pid {
            assert_eq!(reg.snapshot_pid(*pid).as_ref(), Some(snapshot), "pid {pid}");
        }
    }

    #[test]
    fn watchdog_exempts_exhausted_replays() {
        let dir = scratch("exhausted");
        let mut reg = SessionRegistry::new(LiveConfig::default()).with_watchdog(WatchdogConfig {
            timeout_pumps: 2,
            max_retries: 0,
        });
        reg.attach(saved(&dir, &file(7, 10)), sym()).unwrap();
        for _ in 0..20 {
            reg.pump();
        }
        assert_eq!(reg.pids(), vec![7], "done is not dead");
        assert!(reg.session_events().len() == 1, "only the attach event");
    }

    #[test]
    fn watchdog_quarantines_a_silent_live_source_with_backoff() {
        use std::sync::Arc;
        use tee_sim::SharedMem;
        use teeperf_core::log::{make_header, region_bytes};
        use teeperf_core::{LiveLogSource, SharedLog};

        let shm = Arc::new(SharedMem::new(region_bytes(8)));
        let log = SharedLog::init(shm, &make_header(9, 8, true, 0, 0));
        let mut reg = SessionRegistry::new(LiveConfig::default()).with_watchdog(WatchdogConfig {
            timeout_pumps: 2,
            max_retries: 1,
        });
        reg.attach(Box::new(LiveLogSource::new(log.clone(), 75)), sym())
            .unwrap();
        // One heartbeat proves it alive and resets the ledger.
        log.write_live(&LogEntry {
            kind: EventKind::Call,
            counter: 1,
            addr: debug().entry_addr(0),
            tid: 0,
        });
        reg.pump();
        assert_eq!(reg.pids(), vec![9]);
        // Silence: strike after 2 pumps, doubled deadline of 4 more pumps,
        // then quarantine — exactly 6 progress-free pumps in total.
        for _ in 0..5 {
            reg.pump();
            assert_eq!(reg.pids(), vec![9], "still within the backoff budget");
        }
        reg.pump();
        assert!(reg.pids().is_empty(), "quarantined on the final strike");
        assert_eq!(reg.retired_pids(), vec![9]);
        let quarantines: Vec<_> = reg
            .session_events()
            .iter()
            .filter(|e| matches!(e, SessionEvent::Quarantined { pid: 9, .. }))
            .collect();
        assert_eq!(quarantines.len(), 1);
        // The heartbeat entry it consumed stays in the merged profile.
        let run = reg.finish();
        assert_eq!(run.per_pid[&9].status.events, 1);
        assert_eq!(run.merged.status.events, 1);
        let text = run.merged.to_text();
        assert!(text.contains("quarantined pid 9"), "{text}");
    }

    /// A source that forwards to a file source and counts the pumps it is
    /// given.
    #[derive(Debug)]
    struct Counted(Box<FileShmSource>, std::sync::Arc<std::sync::Mutex<u64>>);

    impl EventSource for Counted {
        fn pid(&self) -> u64 {
            self.0.pid()
        }
        fn drain(
            &mut self,
            batch: &mut SourceBatch,
            to_end: bool,
            walk: &mut dyn FnMut(&mut Vec<LogEntry>),
        ) {
            *self.1.lock().unwrap() += 1;
            self.0.drain(batch, to_end, walk);
        }
    }

    #[test]
    fn a_finished_drained_log_is_never_pumped_again() {
        use std::sync::{Arc, Mutex};
        let dir = scratch("exhausted");
        let pumps = Arc::new(Mutex::new(0));
        let mut reg = SessionRegistry::new(LiveConfig::default());
        let source = Counted(saved(&dir, &file(8, 20)), pumps.clone());
        reg.attach(Box::new(source), sym()).unwrap();
        reg.attach(saved(&dir, &file(9, 30)), sym()).unwrap();
        assert_eq!(reg.pump(), 8, "both finished logs drain whole");
        assert!(reg.session(8).unwrap().source_exhausted());
        let (text, pumped) = (reg.merged_text(), *pumps.lock().unwrap());
        assert_eq!(pumped, 1);
        for _ in 0..5 {
            assert_eq!(reg.pump(), 0);
        }
        assert_eq!(*pumps.lock().unwrap(), pumped, "no read after exhaustion");
        assert_eq!(reg.merged_text(), text);
        assert_eq!(reg.pids(), vec![8, 9], "still attached");
    }

    /// A source whose first drain reports it dead, with `salvage` on
    /// record.
    #[derive(Debug)]
    struct Dead(SalvageReport);

    impl EventSource for Dead {
        fn pid(&self) -> u64 {
            5
        }
        fn drain(
            &mut self,
            batch: &mut SourceBatch,
            _to_end: bool,
            _walk: &mut dyn FnMut(&mut Vec<LogEntry>),
        ) {
            batch.reset();
            batch.salvaged = std::mem::take(&mut self.0);
            batch.state.dead = true;
        }
    }

    /// The `[events]` line of a registry whose one source pumps `dead`.
    fn quarantine_line(dead: Dead) -> String {
        let mut reg = SessionRegistry::new(LiveConfig::default());
        reg.attach(Box::new(dead), sym()).unwrap();
        reg.pump();
        assert_eq!(reg.retired_pids(), vec![5], "quarantined at its first pump");
        let text = reg.merged_snapshot().to_text();
        let line = text.lines().find(|l| l.starts_with("quarantined pid 5"));
        line.unwrap_or_else(|| panic!("no quarantine line: {text}"))
            .to_string()
    }

    #[test]
    fn a_distrusted_header_is_named_as_the_cause() {
        let mut salvage = SalvageReport::default();
        salvage.incident(SalvageReason::CorruptHeader);
        assert_eq!(
            quarantine_line(Dead(salvage)),
            "quarantined pid 5: source header corrupted"
        );
    }

    #[test]
    fn a_cut_log_is_named_as_the_cause() {
        let mut salvage = SalvageReport::default();
        salvage.drop_n(SalvageReason::TruncatedFile, 3);
        assert_eq!(
            quarantine_line(Dead(salvage)),
            "quarantined pid 5: log file truncated"
        );
    }

    #[test]
    fn a_death_the_source_did_not_account_is_the_producers() {
        // What the daemon's liveness probe reports: a sound log whose
        // writer process is gone.
        let mut salvage = SalvageReport::default();
        salvage.drop_n(SalvageReason::TornEntry, 1);
        assert_eq!(
            quarantine_line(Dead(salvage)),
            "quarantined pid 5: producer gone"
        );
    }

    #[test]
    fn a_retired_session_releases_its_source() {
        use std::sync::Arc;
        use tee_sim::SharedMem;
        use teeperf_core::log::{make_header, region_bytes};
        use teeperf_core::{LiveLogSource, SharedLog};

        let mut reg = SessionRegistry::new(LiveConfig::default()).with_watchdog(WatchdogConfig {
            timeout_pumps: 1,
            max_retries: 0,
        });
        let logs: Vec<SharedLog> = [3, 4]
            .map(|pid| {
                let shm = Arc::new(SharedMem::new(region_bytes(8)));
                SharedLog::init(shm, &make_header(pid, 8, true, 0, 0))
            })
            .into();
        let holders = |log: &SharedLog| Arc::strong_count(log.shm());
        let own: Vec<usize> = logs.iter().map(holders).collect();
        for (log, own) in logs.iter().zip(&own) {
            reg.attach(Box::new(LiveLogSource::new(log.clone(), 75)), sym())
                .unwrap();
            assert!(holders(log) > *own, "an attached session holds its log");
        }
        reg.detach(3).expect("pid 3 is attached");
        assert_eq!(holders(&logs[0]), own[0], "detached: the log is let go");
        // Silent from the start: pid 4 strikes out at its first pump.
        reg.pump();
        assert_eq!(reg.retired_pids(), vec![3, 4]);
        assert_eq!(holders(&logs[1]), own[1], "quarantined: the log is let go");
    }

    #[test]
    fn fleet_window_queries_merge_across_pids() {
        use crate::window::RingConfig;
        let config = LiveConfig {
            retention: Some(RingConfig {
                interval: 16,
                capacity: 8,
                max_width: 4,
            }),
            ..LiveConfig::default()
        };
        let dir = scratch("fleetwindows");
        let mut reg = SessionRegistry::new(config);
        // pid 11: work exits at tick 30 (window 1); pid 22: work exits at
        // tick 40 (window 2); both mains exit at tick 101 (window 6).
        for (pid, work) in [(11u64, 20u64), (22, 30)] {
            reg.attach(saved(&dir, &file(pid, work)), sym()).unwrap();
        }
        while reg.pump() > 0 {}

        let listing = reg.windows();
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0].pid, 11);
        assert_eq!(listing[1].pid, 22);
        assert_eq!(listing[0].interval, 16);
        let metas: Vec<(u64, u64)> = listing[0]
            .windows
            .iter()
            .map(|w| (w.first, w.last))
            .collect();
        assert_eq!(metas, vec![(1, 1), (6, 6)], "work then main, by exit tick");

        // Fleet-wide merge over all retained windows sums the per-pid spans.
        let (spans, all) = reg
            .span_query(&WindowSel::All, None)
            .expect("data retained");
        assert_eq!(spans.iter().map(|(p, _)| *p).collect::<Vec<_>>(), [11, 22]);
        let work = all.method("work").unwrap();
        assert_eq!((work.calls, work.inclusive), (2, 50));

        // A single pid's single window isolates one call exactly.
        let (_, w1) = reg
            .span_query(&WindowSel::Range(1, 1), Some(11))
            .expect("window 1 retained for pid 11");
        let work = w1.method("work").unwrap();
        assert_eq!((work.calls, work.inclusive, work.exclusive), (1, 20, 20));
        assert!(w1.method("main").is_none(), "main exits in window 6");

        // The rendered query stays inside the snapshot wire contract:
        // `methods_from_text` parses a `/query` body unchanged.
        let spec = teeperf_analyzer::WindowSpec::parse("windows=all&top=1&by=total").unwrap();
        let text = reg.query_text(&spec).unwrap();
        assert!(
            text.starts_with("[query]\nspec windows=all&top=1&by=total\n"),
            "{text}"
        );
        assert!(text.contains("pid 11 span 1..=6"), "{text}");
        let rows = Snapshot::methods_from_text(&text).unwrap();
        assert_eq!(rows.len(), 1, "top=1 truncates");
        assert_eq!(rows[0].0, "main", "by=total ranks main first");
        // Two-window diff flows through the batch comparator.
        let spec = teeperf_analyzer::WindowSpec::parse("diff=1,2").unwrap();
        let text = reg.query_text(&spec).unwrap();
        assert!(text.contains("diff 1 vs 2\n[diff]\n"), "{text}");
        assert!(text.contains("work"), "{text}");
        let spec = teeperf_analyzer::WindowSpec::parse("diff=1,9").unwrap();
        assert!(reg.query_text(&spec).is_none(), "window 9 never existed");
    }

    /// A registry retaining every window of its sessions, each `(pid, tid)`
    /// running `main { work }` on that one thread.
    fn retaining_fleet(dir: &ScratchDir, threads: &[(u64, u64)]) -> SessionRegistry {
        use crate::window::RingConfig;
        let config = LiveConfig {
            retention: Some(RingConfig {
                interval: 16,
                capacity: 64,
                max_width: 4,
            }),
            ..LiveConfig::default()
        };
        let mut reg = SessionRegistry::new(config);
        for (pid, tid) in threads {
            let mut log = file(*pid, 20);
            log.entries.iter_mut().for_each(|e| e.tid = *tid);
            reg.attach(saved(dir, &log), sym()).unwrap();
        }
        while reg.pump() > 0 {}
        reg
    }

    #[test]
    fn a_tid_query_matches_that_thread_of_the_pid_or_of_any() {
        let dir = scratch("tidquery");
        let reg = retaining_fleet(&dir, &[(11, 0), (22, 0), (33, 1), (44, 1 << 32)]);
        let names = |spec: &str| -> Vec<String> {
            let spec = teeperf_analyzer::WindowSpec::parse(spec).unwrap();
            let text = reg.query_text(&spec).expect("windows are retained");
            let rows = Snapshot::methods_from_text(&text).unwrap();
            rows.into_iter().map(|row| row.0).collect()
        };
        assert_eq!(names("windows=all&tid=0"), ["main", "work"]);
        assert_eq!(names("windows=all&tid=0&pid=11"), ["main", "work"]);
        assert_eq!(names("windows=all&tid=1"), ["main", "work"]);
        assert_eq!(names("windows=all&tid=1&pid=33"), ["main", "work"]);
        assert!(names("windows=all&tid=1&pid=11").is_empty());
        assert!(names("windows=all&tid=0&pid=33").is_empty());
        assert!(names("windows=all&tid=2").is_empty());
        // A thread key keeps a tid's low 32 bits: pid 44's thread 2^32 is
        // its thread 0, and a `tid=` wider than that names no thread.
        assert_eq!(names("windows=all&tid=0&pid=44"), ["main", "work"]);
        assert!(names("windows=all&tid=4294967296").is_empty());
        assert!(names("windows=all&tid=4294967296&pid=44").is_empty());
    }

    #[test]
    fn a_pid_and_its_whole_span_key_threads_alike() {
        let dir = scratch("threadkeys");
        let reg = retaining_fleet(&dir, &[(11, 3), (22, 5)]);
        for pid in [11, 22] {
            let whole = reg.snapshot_pid(pid).unwrap().profile;
            let (_, span) = reg.span_query(&WindowSel::All, Some(pid)).unwrap();
            let threads = |p: &Profile| -> Vec<(String, BTreeSet<u64>)> {
                let rows = p.methods.iter();
                rows.map(|m| (m.name.clone(), m.threads.clone())).collect()
            };
            assert_eq!(threads(&span), threads(&whole), "pid {pid}");
            assert_eq!(span.threads, whole.threads, "pid {pid}");
        }
    }

    #[test]
    fn retention_transitions_surface_in_the_merged_events() {
        use crate::window::RingConfig;
        let config = LiveConfig {
            retention: Some(RingConfig {
                interval: 16,
                capacity: 1,
                max_width: 1,
            }),
            ..LiveConfig::default()
        };
        let dir = scratch("evicted");
        let mut reg = SessionRegistry::new(config);
        reg.attach(saved(&dir, &file(7, 10)), sym()).unwrap();
        while reg.pump() > 0 {}
        let run = reg.finish();
        assert_eq!(
            run.merged.events,
            vec![
                SessionEvent::Attached { pid: 7 },
                SessionEvent::WindowsEvicted {
                    pid: 7,
                    first: 1,
                    last: 1,
                    calls: 1
                },
            ]
        );
        let text = run.merged.to_text();
        assert!(
            text.contains("evicted windows 1..=1 of pid 7 (1 calls)"),
            "{text}"
        );
        // The evicted call still counts in the whole-session totals.
        assert_eq!(run.merged.profile.method("work").unwrap().calls, 1);
    }

    #[test]
    fn per_entry_budgets_degrade_independently_and_merge_most_degraded() {
        use crate::session::OverheadBudget;
        use std::sync::Arc;
        use tee_sim::SharedMem;
        use teeperf_core::log::{make_header, region_bytes};
        use teeperf_core::{LiveLogSource, Regime, SharedLog};

        let mk = |pid: u64, cap: u64| {
            let shm = Arc::new(SharedMem::new(region_bytes(cap)));
            SharedLog::init(shm, &make_header(pid, cap, true, 0, 0))
        };
        let hot = mk(1, 4);
        let calm = mk(2, 64);
        let config = LiveConfig {
            budget: Some(OverheadBudget { pct: 5 }),
            ..LiveConfig::default()
        };
        let mut reg = SessionRegistry::new(config);
        reg.attach(Box::new(LiveLogSource::new(hot.clone(), 100)), sym())
            .unwrap();
        reg.attach(Box::new(LiveLogSource::new(calm.clone(), 75)), sym())
            .unwrap();
        let d = debug();
        let pair = |log: &SharedLog, base: u64| {
            log.write_live(&LogEntry {
                kind: EventKind::Call,
                counter: base,
                addr: d.entry_addr(1),
                tid: 0,
            });
            log.write_live(&LogEntry {
                kind: EventKind::Return,
                counter: base + 10,
                addr: d.entry_addr(1),
                tid: 0,
            });
        };
        // Overload pid 1's tiny log; keep pid 2 comfortable.
        let mut base = 1;
        while reg.session(1).unwrap().regime() == Regime::Full {
            for _ in 0..8 {
                pair(&hot, base);
                base += 100;
            }
            pair(&calm, base);
            reg.pump();
            assert!(base < 1_000_000, "pid 1 never degraded");
        }
        assert_eq!(
            reg.session(2).unwrap().regime(),
            Regime::Full,
            "each registry entry runs its own independent controller"
        );
        let regimes = reg.regimes_by_pid();
        assert_eq!(regimes[&1].regime, Regime::sampled(2));
        assert_eq!(regimes[&2].regime, Regime::Full);
        let drops = reg.dropped_by_pid();
        assert!(drops[&1] > 0, "pid 1's pressure was real loss");
        assert_eq!(drops[&2], 0);
        let snap = reg.merged_snapshot();
        let merged = snap.regime.clone().expect("budgeted fleet has a block");
        assert_eq!(merged.regime, Regime::sampled(2), "most degraded wins");
        assert_eq!(merged.budget_pct, Some(5));
        let text = snap.to_text();
        assert!(text.contains("[regime]\nmode sampled 1/2\n"), "{text}");
        assert!(
            text.contains("regime of pid 1: full -> sampled(1/2)"),
            "{text}"
        );
    }

    #[test]
    fn multi_process_render_towers_per_pid() {
        let dir = scratch("towers");
        let mut reg = SessionRegistry::new(LiveConfig::default());
        for (pid, work) in [(5u64, 50u64), (6, 60)] {
            reg.attach(saved(&dir, &file(pid, work)), sym()).unwrap();
        }
        while reg.pump() > 0 {}
        // Freezing and rendering only read: a shared borrow is enough.
        let reg: &SessionRegistry = &reg;
        let svg = reg.render_svg(&SvgOptions::default());
        assert!(svg.contains("pid 5") && svg.contains("pid 6"));
        let per_pid_ticks: u64 = [5, 6]
            .iter()
            .map(|pid| reg.snapshot_pid(*pid).unwrap().profile.total_ticks)
            .sum();
        assert_eq!(reg.merged_snapshot().profile.total_ticks, per_pid_ticks);
    }

    /// A source that forwards to a file source and records the widest
    /// stretch it hands a walk.
    #[derive(Debug)]
    struct Widest(Box<FileShmSource>, std::sync::Arc<std::sync::Mutex<usize>>);

    impl EventSource for Widest {
        fn pid(&self) -> u64 {
            self.0.pid()
        }
        fn drain(
            &mut self,
            batch: &mut SourceBatch,
            to_end: bool,
            walk: &mut dyn FnMut(&mut Vec<LogEntry>),
        ) {
            let widest = &self.1;
            self.0.drain(batch, to_end, &mut |entries| {
                let mut widest = widest.lock().unwrap();
                *widest = (*widest).max(entries.len());
                walk(entries);
            });
        }
    }

    /// The memory bound of the chunked drain: ten bulk reads' worth of
    /// entries reach the walk one read at a time, and leave the
    /// registry's lent batch with room for one, whether a pump, a detach
    /// or the registry's finish drains them. And retention is enforced
    /// once per drain, not once per bulk read: the first read, thread 0's
    /// calls a million ticks on, would evict every window the later reads'
    /// thread 1 fills, which one ingest of the same entries retains until
    /// the drain ends and then evicts.
    #[test]
    fn a_pump_of_many_chunks_lends_a_batch_of_one() {
        use std::sync::{Arc, Mutex};
        use teeperf_core::shm_file::READ_CHUNK_ENTRIES;
        let dir = scratch("onechunk");
        let a0 = debug().entry_addr(0);
        let pairs = |tid: u64, from: u64, n: u64| {
            (0..n).flat_map(move |k| {
                [EventKind::Call, EventKind::Return].map(|kind| LogEntry {
                    kind,
                    counter: from + 2 * k + u64::from(kind == EventKind::Return),
                    addr: a0,
                    tid,
                })
            })
        };
        let half = READ_CHUNK_ENTRIES / 2;
        let entries: Vec<LogEntry> = pairs(0, 1_000_001, half)
            .chain(pairs(1, 1, 9 * half))
            .collect();
        let log = LogFile::new(header(3, entries.len() as u64), entries);
        let retention = RingConfig {
            interval: 1000,
            capacity: 2,
            max_width: 1,
        };
        let mut whole = RollingProfile::for_process(3, Some(&retention));
        whole.ingest(&log.entries);
        let ring = whole.ring().unwrap();
        for end in ["pump", "detach", "finish"] {
            let mut reg = SessionRegistry::new(LiveConfig {
                retention: Some(retention.clone()),
                ..LiveConfig::default()
            });
            let widest = Arc::new(Mutex::new(0));
            let source = Widest(saved(&dir, &log), widest.clone());
            reg.attach(Box::new(source), sym()).unwrap();
            match end {
                "pump" => assert_eq!(reg.pump() as u64, 10 * READ_CHUNK_ENTRIES),
                "detach" => assert!(reg.detach(3).is_some()),
                _ => assert_eq!(reg.finish().merged.status.events, 10 * READ_CHUNK_ENTRIES),
            }
            let widest = *widest.lock().unwrap() as u64;
            assert_eq!(widest, READ_CHUNK_ENTRIES, "{end}: the widest stretch");
            assert!(reg.batch.entries.capacity() as u64 <= READ_CHUNK_ENTRIES);
            let listed = reg.session(3).unwrap().windows().unwrap();
            assert_eq!(listed.windows, ring.windows(), "{end}");
            assert_eq!(listed.evicted_windows, ring.evicted_windows(), "{end}");
            assert_eq!(
                listed.evicted_windows, 40,
                "37 windows of thread 1, 3 of thread 0"
            );
            let main = reg.merged_snapshot().profile;
            assert_eq!(main.method("main").unwrap().calls, 10 * half, "{end}");
        }
    }

    /// One process's writer in a property run: the entries it writes are
    /// a pure function of the burst's seed.
    struct Writer {
        writer: FileShmWriter,
        counter: u64,
    }

    impl Writer {
        /// Write `len` entries drawn from `seed` — calls and returns of
        /// three addresses (one the symbol table does not know) on two
        /// threads — with one torn (`fault` 1) or unpublished (`fault` 2)
        /// slot among them, and publish them.
        fn burst(&mut self, len: usize, seed: u64, fault: u8) {
            let d = debug();
            let addrs = [d.entry_addr(0), d.entry_addr(1), 0x7777];
            let mut rng = seed | 1;
            for k in 0..len {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                self.counter += 1 + rng % 9;
                let entry = LogEntry {
                    kind: if rng >> 8 & 1 == 0 {
                        EventKind::Call
                    } else {
                        EventKind::Return
                    },
                    counter: self.counter,
                    addr: addrs[(rng >> 16) as usize % 3],
                    tid: rng >> 24 & 1,
                };
                match (fault, k == len / 2) {
                    (1, true) => self.writer.write_torn(&entry).unwrap(),
                    (2, true) => self.writer.skip_slot_unwritten().unwrap(),
                    _ => {
                        self.writer.write(&entry).unwrap();
                    }
                }
            }
        }
    }

    /// What `query_text` wrote before it summed rows by name: for a
    /// ranked query the merged span profile of
    /// [`SessionRegistry::span_query`], filtered, ranked and truncated as
    /// a [`Profile`]'s method table; for a diff the comparator over the
    /// two windows' span profiles, each side's share total its
    /// `total_ticks`.
    fn profile_query_text(reg: &SessionRegistry, spec: &WindowSpec) -> Option<String> {
        let mut out = format!("[query]\nspec {}\n", spec.to_query_string());
        if let Some((a, b)) = spec.diff {
            let side = |w| {
                let (_, p) = reg.span_query(&WindowSel::Range(w, w), spec.pid)?;
                let names: BTreeSet<&str> = p.methods.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(names.len(), p.methods.len(), "one row per name");
                let exclusive: u64 = p.methods.iter().map(|m| m.exclusive).sum();
                assert_eq!(p.total_ticks, exclusive, "the share total");
                Some(p)
            };
            let (pa, pb) = (side(a)?, side(b)?);
            let frame = teeperf_analyzer::diff(pa.method_rows(), pb.method_rows());
            out.push_str(&format!("diff {a} vs {b}\n[diff]\n{}", frame.to_table()));
            if !out.ends_with('\n') {
                out.push('\n');
            }
            return Some(out);
        }
        let (spans, profile) = reg.span_query(&spec.sel, spec.pid)?;
        for (pid, m) in &spans {
            out.push_str(&format!(
                "pid {pid} span {}..={} ticks {}..={} calls {}\n",
                m.first, m.last, m.start_tick, m.end_tick, m.calls
            ));
        }
        let mut rows: Vec<_> = profile
            .methods
            .iter()
            .filter(|m| {
                spec.method
                    .as_ref()
                    .is_none_or(|needle| m.name.contains(needle.as_str()))
                    && spec.tid.is_none_or(|tid| {
                        let of = |key: u64| {
                            teeperf_analyzer::profile::merged_thread_key(
                                spec.pid.unwrap_or(key >> 32),
                                tid,
                            )
                        };
                        tid >> 32 == 0 && m.threads.iter().any(|key| *key == of(*key))
                    })
            })
            .collect();
        rows.sort_by(|a, b| {
            let key = |m: &teeperf_analyzer::MethodStats| match spec.by {
                teeperf_analyzer::RankBy::SelfTicks => m.exclusive,
                teeperf_analyzer::RankBy::TotalTicks => m.inclusive,
                teeperf_analyzer::RankBy::Calls => m.calls,
            };
            key(b)
                .cmp(&key(a))
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.addr.cmp(&b.addr))
        });
        if spec.top > 0 {
            rows.truncate(spec.top);
        }
        out.push_str("[methods]\n");
        for m in rows {
            out.push_str(&format!(
                "{} {} {} {}\n",
                m.name, m.calls, m.inclusive, m.exclusive
            ));
        }
        Some(out)
    }

    /// Entries drawn from `seed`: calls and returns of the addresses
    /// `mask` picks out of four functions (`work` at two addresses) and
    /// one the symbol table does not know, on threads 0, 1, 2^32 and
    /// 2^32 + 1 (whose low halves are 0 and 1).
    fn drawn_entries(len: usize, seed: u64, mask: u8) -> Vec<LogEntry> {
        let d = parity_debug();
        let all = [
            d.entry_addr(0),
            d.entry_addr(1),
            d.instr_addr(1, 2),
            d.entry_addr(2),
            d.entry_addr(3),
            0x7777,
        ];
        let addrs: Vec<u64> = (0..all.len())
            .filter(|k| k == &0 || mask >> k & 1 == 1)
            .map(|k| all[k])
            .collect();
        let tids = [0, 1, 1 << 32, (1 << 32) + 1];
        let (mut rng, mut counter) = (seed | 1, 0);
        (0..len)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                counter += 1 + rng % 9;
                LogEntry {
                    kind: if rng >> 8 & 1 == 0 {
                        EventKind::Call
                    } else {
                        EventKind::Return
                    },
                    counter,
                    addr: addrs[(rng >> 16) as usize % addrs.len()],
                    tid: tids[(rng >> 24) as usize % tids.len()],
                }
            })
            .collect()
    }

    fn parity_debug() -> DebugInfo {
        DebugInfo::from_functions([
            ("main", 4, 1),
            ("work", 4, 5),
            ("leaf", 4, 9),
            ("spin", 4, 13),
        ])
    }

    /// A spec drawn from every clause a ranked query takes, or a
    /// `diff=` of two windows with `pid=` alone (the one clause a diff
    /// takes beside it): `pid=` one of `pids`, a pid of no session, or
    /// none.
    fn drawn_spec(pids: &'static [u64]) -> impl Strategy<Value = WindowSpec> {
        let tids = [
            None,
            Some(0),
            Some(1),
            Some(2),
            Some(1 << 32),
            Some((1 << 32) + 1),
        ];
        let methods = [None, Some("ma"), Some("w"), Some("0x"), Some("zzz")];
        let by = [
            teeperf_analyzer::RankBy::SelfTicks,
            teeperf_analyzer::RankBy::TotalTicks,
            teeperf_analyzer::RankBy::Calls,
        ];
        let sel = (0u8..4, 0u64..80, 0u64..80).prop_map(|(kind, a, b)| match kind {
            0 => (WindowSel::All, None),
            1 => (WindowSel::Last(a % 8), None),
            2 => (WindowSel::Range(a, b), None),
            _ => (WindowSel::All, Some((a, b))),
        });
        let clauses = (
            0..pids.len() + 2,
            0..tids.len(),
            0..methods.len(),
            0..by.len(),
        );
        let spec = (sel, clauses, 0usize..6);
        spec.prop_map(move |((sel, diff), (pid, tid, method, rank), top)| {
            let pid = match pid {
                0 => None,
                1 => Some(99),
                k => Some(pids[k - 2]),
            };
            if diff.is_some() {
                return WindowSpec {
                    pid,
                    diff,
                    ..WindowSpec::default()
                };
            }
            WindowSpec {
                sel,
                pid,
                method: methods[method].map(str::to_string),
                tid: tids[tid],
                top,
                by: by[rank],
                diff,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Two writers' files drained by one registry, bursts of up to three
        /// bulk reads between pumps — some holding a torn or unpublished
        /// slot, some past capacity — and one session detached mid-run:
        /// after every pump the fleet table reads as the merge of the
        /// per-pid snapshots and its text as the merged snapshot's, and at
        /// the end each session has salvaged and dropped what one drain of
        /// its whole file does.
        #[test]
        fn prop_a_chunked_drain_folds_what_a_merge_of_the_sessions_holds(
            bursts in collection::vec(
                (0u64..2, 1usize..=3 * 4096, any::<u64>(), 0u8..3),
                1..6,
            ),
            capacities in (1u64..12_000, 1u64..12_000),
            detach_at in 0usize..6,
        ) {
            let dir = scratch("chunkedfleet");
            let mut reg = SessionRegistry::new(LiveConfig::default());
            let mut writers = Vec::new();
            for (pid, capacity) in [(1, capacities.0), (2, capacities.1)] {
                let writer = FileShmWriter::create(&dir.0, &header(pid, capacity)).unwrap();
                let source = FileShmSource::open(writer.path()).unwrap();
                reg.attach(Box::new(source), sym()).unwrap();
                writers.push(Writer { writer, counter: 0 });
            }
            for (step, (who, len, seed, fault)) in bursts.iter().enumerate() {
                // A detached process writes no more: its file then holds
                // what its session drained.
                let who = if reg.retired_pids().contains(&(who + 1)) { 1 - who } else { *who };
                writers[who as usize].burst(*len, *seed, *fault);
                reg.pump();
                if step == detach_at {
                    prop_assert!(reg.detach(1).is_some());
                }
                let merged = reg.merged_snapshot();
                let per_pid: Vec<(u64, Profile)> = reg
                    .run_pids()
                    .into_iter()
                    .map(|pid| (pid, reg.snapshot_pid(pid).unwrap().profile))
                    .collect();
                let parts: Vec<(u64, &Profile)> = per_pid.iter().map(|(pid, p)| (*pid, p)).collect();
                prop_assert_eq!(&merged.profile, &teeperf_analyzer::merge_profiles(&parts));
                prop_assert_eq!(reg.merged_text(), merged.to_text());
            }
            for w in &writers {
                let mut once = FileShmSource::open(w.writer.path()).unwrap();
                let drained = once.drain_to_end();
                let session = reg.session(once.pid()).unwrap();
                prop_assert_eq!(session.salvage(), &drained.salvaged);
                prop_assert_eq!(session.dropped(), drained.state.dropped_total);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A query summed by name writes what the merged span profiles
        /// gave — ranked, or two windows diffed — for every clause mix,
        /// the clauses a diff ignores included: over a fleet of file
        /// sessions holding different stacks (one detached) and a live
        /// one that goes silent and is quarantined, with retention
        /// coarsening and evicting.
        #[test]
        fn prop_a_ranked_query_reads_what_the_merged_span_ranks(
            logs in collection::vec((1usize..160, any::<u64>(), any::<u8>()), 2..5),
            quarantined in (1usize..160, any::<u64>(), any::<u8>()),
            specs in collection::vec(drawn_spec(&[1, 2, 3, 4, 9]), 24),
        ) {
            use std::sync::Arc;
            use tee_sim::SharedMem;
            use teeperf_core::log::{make_header, region_bytes};
            use teeperf_core::{LiveLogSource, SharedLog};

            let dir = scratch("queryparity");
            let config = LiveConfig {
                retention: Some(RingConfig { interval: 16, capacity: 6, max_width: 4 }),
                ..LiveConfig::default()
            };
            let mut reg = SessionRegistry::new(config).with_watchdog(WatchdogConfig {
                timeout_pumps: 1,
                max_retries: 0,
            });
            let parity_sym = || Symbolizer::without_relocation(parity_debug());
            for (pid, (len, seed, mask)) in (1u64..).zip(&logs) {
                let entries = drawn_entries(*len, *seed, *mask);
                let log = LogFile::new(header(pid, entries.len() as u64), entries);
                reg.attach(saved(&dir, &log), parity_sym()).unwrap();
            }
            let (len, seed, mask) = quarantined;
            let entries = drawn_entries(len, seed, mask);
            let shm = Arc::new(SharedMem::new(region_bytes(2 * len as u64)));
            let live = SharedLog::init(shm, &make_header(9, 2 * len as u64, true, 0, 0));
            reg.attach(Box::new(LiveLogSource::new(live.clone(), 75)), parity_sym()).unwrap();
            for e in &entries {
                live.write_live(e);
            }
            reg.pump();
            reg.detach(1).expect("pid 1 is attached");
            reg.pump();
            prop_assert!(reg.retired_pids().contains(&9), "pid 9 is quarantined");
            // A diff's windows are drawn among the one-window slots the
            // sessions it reads retain, and one no session holds.
            let listing = reg.windows();
            for mut spec in specs {
                let read = listing.iter().filter(|w| spec.pid.is_none_or(|pid| w.pid == pid));
                let metas = read.flat_map(|w| &w.windows).filter(|m| m.first == m.last);
                let mut fine: Vec<u64> = metas.map(|m| m.first).collect();
                fine.sort_unstable();
                fine.dedup();
                fine.push(999);
                let pick = |k: u64| fine[k as usize % fine.len()];
                spec.diff = spec.diff.map(|(a, b)| (pick(a), pick(b)));
                let spec = &spec;
                prop_assert_eq!(
                    reg.query_text(spec),
                    profile_query_text(&reg, spec),
                    "{}",
                    spec.to_query_string()
                );
            }
        }
    }
}
