//! The live session: one event source drained into one rolling profile.
//!
//! A [`LiveSession`] is the single host-side object a continuous-profiling
//! consumer holds. Pumping it drains its [`EventSource`] — in process a
//! [`LiveLogSource`] holding the single cursor over the shared log, across
//! processes and for recordings a [`teeperf_core::FileShmSource`] reading
//! a log file, behind the same pump — and merges the stream into the
//! rolling profile. Freezing
//! ([`LiveSession::snapshot`]) and rendering ([`LiveSession::render_ascii`])
//! read that profile on demand and keep nothing: a session that nobody
//! asks draws nothing.

use std::cell::RefCell;
use std::collections::VecDeque;

use teeperf_analyzer::profile::Anomalies;
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_analyzer::{NameSpace, PathNames, ProfileMerge};
use teeperf_core::{EventSource, LiveLogSource, Regime, SalvageReport, SharedLog, SourceBatch};
use teeperf_flamegraph::{live, LiveStatus};

use crate::rolling::RollingProfile;
use crate::snapshot::{RegimeInfo, SessionEvent, Snapshot};
use crate::window::{PidWindows, RingConfig, RingEvent, WindowMeta, WindowSel};

/// How much the profiler may lean on the workload before it backs off.
///
/// The controller's pressure signal is the drain's own backpressure
/// accounting, all of it on the virtual clock: the per-pump drop delta
/// (entries lost to overflow) relative to entries drained, and the log's
/// occupancy at the end of a pump. Once windowed loss exceeds `pct`
/// percent — or the log pins at 100% occupancy, which is what a starved
/// drain looks like from the outside — the session degrades one fidelity
/// step; a fully clean window upgrades one step back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadBudget {
    /// Tolerated stream loss in percent of the events offered
    /// (`dropped / (dropped + drained)` over the sliding window).
    pub pct: u8,
}

impl Default for OverheadBudget {
    fn default() -> OverheadBudget {
        OverheadBudget { pct: 5 }
    }
}

/// Pumps per sliding controller window: decisions look at the last 8
/// pumps, not at a single noisy sample.
const CONTROL_WINDOW: usize = 8;

/// Cool-down after a *degrade* before the next transition may fire, in
/// pumps. Back-to-back transitions double it (see
/// [`FidelityController::shift`]), so an oscillating load right at the
/// threshold produces O(log pumps) transitions instead of one per window.
const COOLDOWN_BASE_PUMPS: u64 = 8;

/// Cool-down after an *upgrade*, in pumps. Deliberately short and flat: an
/// upgrade is a probe, and if the restored fidelity re-overruns the budget
/// the very next decision must be free to revoke it. Were probes subject
/// to the doubling cool-down, a sustained storm would pin the session in
/// the lossy probed regime for as long as it had sat in the fitting one —
/// a ~50% lossy duty cycle instead of a decaying one.
const PROBE_COOLDOWN_PUMPS: u64 = CONTROL_WINDOW as u64;

/// Deepest sampling regime before the controller gives up on sampling and
/// goes quiescent: 1-in-64.
const MAX_SAMPLED_N: u32 = 64;

/// Decision-eligible pumps without a transition before the cool-down
/// streak resets. Deliberately much longer than one control window: a
/// load oscillating with the window period must keep doubling, not get a
/// fresh cheap cool-down every cycle.
const STREAK_RESET_PUMPS: u64 = 8 * CONTROL_WINDOW as u64;

/// One pump's backpressure accounting.
#[derive(Debug, Clone, Copy, Default)]
struct PumpSample {
    drained: u64,
    dropped: u64,
    /// Log occupancy right after the pump, in percent.
    occupancy: u8,
}

/// The overhead-budget regime controller: a three-regime state machine
/// `Full → Sampled(1-in-N) → Quiescent` driven by the drain's windowed
/// backpressure, with hysteresis (degrade on budget overrun, upgrade only
/// on a fully clean window) and a doubling cool-down so regimes never
/// flap. Pure bookkeeping on pump statistics — publication of the chosen
/// regime to the writers goes through the source's shared regime word.
#[derive(Debug)]
pub(crate) struct FidelityController {
    budget: OverheadBudget,
    window: VecDeque<PumpSample>,
    regime: Regime,
    /// Pumps left before the next transition may fire.
    cooldown: u64,
    /// Transitions since the last stable stretch — each doubles the next
    /// cool-down.
    streak: u32,
    /// Decision-eligible pumps without a transition; a full window of
    /// them resets the streak (the load has genuinely settled).
    stable_pumps: u64,
    transitions: u64,
}

impl FidelityController {
    fn new(budget: OverheadBudget) -> FidelityController {
        FidelityController {
            budget,
            window: VecDeque::with_capacity(CONTROL_WINDOW),
            regime: Regime::Full,
            cooldown: 0,
            streak: 0,
            stable_pumps: 0,
            transitions: 0,
        }
    }

    pub(crate) fn regime(&self) -> Regime {
        self.regime
    }

    pub(crate) fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Stream loss over the sliding window, in percent (0 while nothing
    /// has flowed).
    pub(crate) fn windowed_loss_pct(&self) -> u64 {
        let (drained, dropped) = self
            .window
            .iter()
            .fold((0u64, 0u64), |(dr, dp), s| (dr + s.drained, dp + s.dropped));
        if dropped == 0 {
            0
        } else {
            dropped * 100 / (dropped + drained)
        }
    }

    /// Budget minus windowed loss: positive while the session is inside
    /// its budget, negative while it overruns.
    pub(crate) fn headroom_pct(&self) -> i64 {
        i64::from(self.budget.pct) - self.windowed_loss_pct() as i64
    }

    /// Feed one pump's accounting; returns `(from, to)` when a regime
    /// transition fires.
    pub(crate) fn observe(
        &mut self,
        drained: u64,
        dropped: u64,
        occupancy: u8,
    ) -> Option<(Regime, Regime)> {
        self.window.push_back(PumpSample {
            drained,
            dropped,
            occupancy,
        });
        if self.window.len() > CONTROL_WINDOW {
            self.window.pop_front();
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let over = self.windowed_loss_pct() > u64::from(self.budget.pct) || occupancy >= 100;
        if over && self.regime != Regime::Quiescent {
            return Some(self.shift(degrade(self.regime)));
        }
        // Upgrade wants a full window of clean samples: no loss anywhere
        // and the log never saturated. In `Quiescent` the writers are
        // silent, so the window fills with trivially clean samples and
        // the session self-probes back up to the deepest sampling step.
        let clean = self.window.len() == CONTROL_WINDOW
            && self
                .window
                .iter()
                .all(|s| s.dropped == 0 && s.occupancy < 100);
        if clean && self.regime != Regime::Full {
            return Some(self.shift(upgrade(self.regime)));
        }
        self.stable_pumps += 1;
        if self.stable_pumps >= STREAK_RESET_PUMPS {
            self.streak = 0;
        }
        None
    }

    /// Commit a transition: fresh window (pre-transition samples describe
    /// the old regime's load) and a direction-dependent cool-down —
    /// degrades double per streak step, upgrades stay one short flat probe
    /// window so a failed probe is revoked at the first post-probe
    /// decision. `Regime`'s `Ord` ranks by degradation, so `to > from` is
    /// exactly "this transition sheds fidelity".
    fn shift(&mut self, to: Regime) -> (Regime, Regime) {
        let from = self.regime;
        self.regime = to;
        self.transitions += 1;
        self.cooldown = if to > from {
            COOLDOWN_BASE_PUMPS
                .checked_shl(self.streak)
                .unwrap_or(u64::MAX)
        } else {
            PROBE_COOLDOWN_PUMPS
        };
        self.streak = self.streak.saturating_add(1);
        self.stable_pumps = 0;
        self.window.clear();
        (from, to)
    }
}

/// One step down the fidelity ladder:
/// `Full → 1-in-2 → 1-in-4 → … → 1-in-64 → Quiescent`.
fn degrade(regime: Regime) -> Regime {
    match regime {
        Regime::Full => Regime::sampled(2),
        Regime::Sampled(n) if n >= MAX_SAMPLED_N => Regime::Quiescent,
        Regime::Sampled(n) => Regime::sampled(n * 2),
        Regime::Quiescent => Regime::Quiescent,
    }
}

/// One step back up the ladder (the quiescent probe re-enters at the
/// deepest sampling step, not at full blast).
fn upgrade(regime: Regime) -> Regime {
    match regime {
        Regime::Quiescent => Regime::sampled(MAX_SAMPLED_N),
        Regime::Sampled(n) if n <= 2 => Regime::Full,
        Regime::Sampled(n) => Regime::sampled(n / 2),
        Regime::Full => Regime::Full,
    }
}

/// When a session over a live log forces a rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPolicy {
    /// Rotate once the epoch has filled this percentage of the log's
    /// capacity (entries *reserved*, including overflow). Clamped to
    /// `1..=99`: a rotation that waited for a completely full log would
    /// always be too late.
    pub watermark_pct: u8,
}

impl Default for DrainPolicy {
    fn default() -> Self {
        // Leave headroom: writers keep appending while the rotation's
        // quiesce runs, so rotating at three quarters full avoids drops in
        // steady state.
        DrainPolicy { watermark_pct: 75 }
    }
}

/// Columns of the ASCII flame view, the width every front-end draws at.
const ASCII_WIDTH: usize = 60;

/// Session tuning.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveConfig {
    /// When the session rotates a live log.
    pub policy: DrainPolicy,
    /// Retain every drained entry for replay through the offline stages.
    /// Off by default: the whole point of the rolling profile is that the
    /// session's memory does not grow with the stream.
    pub keep_replay: bool,
    /// Windowed retention: keep a ring of per-interval aggregates (window
    /// boundaries on the virtual clock) next to the all-time rolling
    /// profile, so the session answers time-scoped queries. Off by
    /// default — the all-time-only session costs nothing extra.
    pub retention: Option<RingConfig>,
    /// Overhead budget: when set, a fidelity controller watches the
    /// drain's backpressure and degrades the session through the fidelity
    /// regimes (`Full → Sampled → Quiescent`) whenever the budget is
    /// overrun, upgrading back on clean windows. `None` (the default)
    /// keeps the session pinned to full fidelity, exactly as before.
    pub budget: Option<OverheadBudget>,
}

/// A running continuous-profiling session over one event source. For live
/// logs exactly one session may exist per log: its [`LiveLogSource`] owns
/// the read cursor, and only the cursor owner may rotate.
#[derive(Debug)]
pub struct LiveSession {
    source: Box<dyn EventSource>,
    rolling: RollingProfile,
    symbolizer: Symbolizer,
    /// Where this session's stacks sit in its registry's name space,
    /// remembered across merged views (which only read the session, hence
    /// the cell).
    fleet_names: RefCell<PathNames>,
    config: LiveConfig,
    replay: Vec<teeperf_core::layout::LogEntry>,
    /// Retention transitions (evictions, coarsenings) so far, already
    /// stamped with this session's pid — surfaced in every snapshot's
    /// `[events]` section so history loss is never silent.
    window_events: Vec<SessionEvent>,
    /// The overhead-budget regime controller (present iff
    /// [`LiveConfig::budget`] is set and the source carries regimes).
    controller: Option<FidelityController>,
    /// Corrupt regime words the source salvaged so far.
    regime_faults: u64,
    /// `dropped_total` at the end of the previous pump, so each pump
    /// attributes exactly its own drop delta to the controller
    /// (`dropped_total` includes the current epoch's overflow, so a
    /// start-of-pump read would already contain the drops this pump is
    /// about to observe).
    dropped_seen: u64,
}

impl LiveSession {
    /// Start a session draining `log`, symbolizing with `symbolizer`.
    pub fn new(log: SharedLog, symbolizer: Symbolizer, config: LiveConfig) -> LiveSession {
        let source = LiveLogSource::new(log, config.policy.watermark_pct);
        LiveSession::from_source(Box::new(source), symbolizer, config)
    }

    /// Start a session over an arbitrary [`EventSource`] — a live log, a
    /// file replay, or anything else that implements the trait. This is
    /// what a session registry uses to run one session per profiled
    /// process.
    pub fn from_source(
        source: Box<dyn EventSource>,
        symbolizer: Symbolizer,
        config: LiveConfig,
    ) -> LiveSession {
        let controller = config.budget.map(FidelityController::new);
        LiveSession {
            rolling: RollingProfile::for_process(source.pid(), config.retention.as_ref()),
            source,
            symbolizer,
            fleet_names: RefCell::new(PathNames::new()),
            config,
            replay: Vec::new(),
            window_events: Vec::new(),
            controller,
            regime_faults: 0,
            dropped_seen: 0,
        }
    }

    /// Process id of the profiled process behind this session's source.
    pub fn pid(&self) -> u64 {
        self.source.pid()
    }

    /// Drain whatever the writers have published and merge it. Returns the
    /// number of entries consumed.
    ///
    /// With an overhead budget configured, every pump also feeds the
    /// fidelity controller with this pump's backpressure (drop delta and
    /// log occupancy); a controller decision is published to the writers
    /// through the shared regime word right away — the writer-side gate
    /// keeps call/return pairs coherent across mid-epoch changes, so
    /// publication never waits for a rotation — and recorded as a
    /// [`SessionEvent::RegimeChanged`].
    pub fn pump(&mut self) -> usize {
        self.pump_into(&mut SourceBatch::default())
    }

    /// [`LiveSession::pump`] through a batch the caller keeps, so that
    /// every session of a registry drains into one buffer. The source
    /// hands its entries over a stretch at a time
    /// ([`EventSource::pump_chunks`]) and each is walked while it is fresh
    /// in the batch; retention, the controller and the regime check act
    /// once per pump, after the last stretch.
    pub(crate) fn pump_into(&mut self, batch: &mut SourceBatch) -> usize {
        // Occupancy is sampled *before* the drain: it is the fill level
        // the writers ran against, and it resets to zero the moment the
        // pump rotates.
        let occupancy = self.source.occupancy_pct().unwrap_or(0);
        // Entries drained now were admitted under the regime published to
        // the writers before this pump — that is the factor that
        // bias-corrects them back into estimated totals.
        let scale = self.published_regime().scale();
        self.rolling.set_scale(scale);
        let (rolling, replay) = (&mut self.rolling, &mut self.replay);
        let keep_replay = self.config.keep_replay;
        let n = self.source.pump_chunks(batch, &mut |entries| {
            if keep_replay {
                replay.extend_from_slice(entries);
            }
            rolling.walk(entries);
        });
        self.rolling.enforce_retention();
        self.collect_window_events();
        if self.source.take_regime_fault() {
            self.regime_faults += 1;
            self.window_events.push(SessionEvent::RegimeFault {
                pid: self.source.pid(),
            });
        }
        // `dropped_total` already includes the current epoch's overflow,
        // so the per-pump delta is taken against the *previous* pump's
        // end-of-pump total — sampling it at the start of this pump would
        // hide exactly the drops this pump is supposed to observe.
        let dropped_now = self.source.dropped_total();
        let dropped_delta = dropped_now.saturating_sub(self.dropped_seen);
        self.dropped_seen = dropped_now;
        let decision = self
            .controller
            .as_mut()
            .and_then(|ctl| ctl.observe(n as u64, dropped_delta, occupancy));
        if let Some((from, to)) = decision {
            if self.source.set_regime(to) {
                self.window_events.push(SessionEvent::RegimeChanged {
                    pid: self.source.pid(),
                    from,
                    to,
                });
            } else {
                // The source has no regime transport (a file replay):
                // nothing to throttle, the session runs pinned to full
                // fidelity and the controller retires.
                self.controller = None;
            }
        }
        n
    }

    /// The regime currently published to this session's writers (`Full`
    /// for sources without regime transport).
    fn published_regime(&self) -> Regime {
        self.source.regime().unwrap_or(Regime::Full)
    }

    /// The fidelity regime the session runs in: the controller's choice
    /// under a budget, otherwise whatever is published on the source
    /// (always `Full` for unbudgeted sessions over healthy sources).
    pub fn regime(&self) -> Regime {
        self.controller
            .as_ref()
            .map_or_else(|| self.published_regime(), FidelityController::regime)
    }

    /// Regime transitions the controller has performed so far.
    pub fn regime_transitions(&self) -> u64 {
        self.controller
            .as_ref()
            .map_or(0, FidelityController::transitions)
    }

    /// Corrupt regime words the source salvaged so far (each fell back
    /// to the full interpretation and was re-published).
    pub fn regime_faults(&self) -> u64 {
        self.regime_faults
    }

    /// Bias-corrected estimate of the events the writers offered (equals
    /// [`LiveSession::events`] while the session never left full
    /// fidelity).
    pub fn estimated_events(&self) -> u64 {
        self.rolling.estimated_events()
    }

    /// Budget headroom in percent — budget minus windowed loss, negative
    /// while overrunning. `None` without an active controller.
    pub fn budget_headroom_pct(&self) -> Option<i64> {
        self.controller
            .as_ref()
            .map(FidelityController::headroom_pct)
    }

    /// The session's fidelity-regime block for snapshots: present while
    /// the budget controller is active (it retires on sources without
    /// regime transport), or when a regime fault was ever salvaged — an
    /// unbudgeted session must still surface a corrupt word.
    pub fn regime_info(&self) -> Option<RegimeInfo> {
        if self.controller.is_none() && self.regime_faults == 0 {
            return None;
        }
        Some(RegimeInfo {
            regime: self.regime(),
            budget_pct: self.config.budget.map(|b| b.pct),
            transitions: self.regime_transitions(),
            estimated_events: self.estimated_events(),
            faults: self.regime_faults,
        })
    }

    /// Events merged so far.
    pub fn events(&self) -> u64 {
        self.rolling.events()
    }

    /// Cumulative overflow loss.
    pub fn dropped(&self) -> u64 {
        self.source.dropped_total()
    }

    /// Salvage accounting of this session's source: records skipped,
    /// holes closed, rotations abandoned (see
    /// [`teeperf_core::EventSource::salvage`]).
    pub fn salvage(&self) -> SalvageReport {
        self.source.salvage()
    }

    /// Whether this session's source has declared its producer dead
    /// (corrupted header or unrecoverable transport).
    pub fn source_dead(&self) -> bool {
        self.source.is_dead()
    }

    /// Whether this session's source can never produce another entry (a
    /// finished replay; live sources never exhaust).
    pub fn source_exhausted(&self) -> bool {
        self.source.is_exhausted()
    }

    /// The one-line session state.
    pub fn status(&self) -> LiveStatus {
        self.rolling.status(self.source.epoch(), self.dropped())
    }

    /// Render the current rolling aggregate as a 60-column ASCII flame
    /// view with the status banner.
    pub fn render_ascii(&self) -> String {
        let profile = self.rolling.snapshot(&self.symbolizer, self.dropped());
        live::render_ascii(&profile.folded, &self.status(), ASCII_WIDTH)
    }

    /// Freeze the current aggregate into a [`Snapshot`], its profile the
    /// source's process's. Two freezes compare through
    /// [`Snapshot::diff_since`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            status: self.status(),
            profile: self.rolling.snapshot(&self.symbolizer, self.dropped()),
            events: self.window_events.clone(),
            regime: self.regime_info(),
        }
    }

    /// Fold what this session's aggregate gained since its last fold —
    /// the rows its pumps (or its finish) touched — into a running
    /// cross-process merge under its pid: pump after pump, the merge then
    /// holds what the one-process merge under [`LiveSession::snapshot`]
    /// holds, anomalies aside. A session folds into one merge only, and
    /// every merge it contributes to must be in one name space: its
    /// registry's.
    pub(crate) fn fold_into(&mut self, merge: &mut ProfileMerge, space: &mut NameSpace) {
        let memo = self.fleet_names.get_mut();
        self.rolling.fold_into(merge, space, &self.symbolizer, memo);
    }

    /// The session's data-quality counters: its snapshot profile's
    /// anomalies.
    pub(crate) fn anomalies(&self) -> Anomalies {
        self.rolling.anomalies(self.dropped())
    }

    /// The session's own events so far (retention transitions, regime
    /// changes and faults) — the `events` of every snapshot it freezes.
    pub(crate) fn session_events(&self) -> &[SessionEvent] {
        &self.window_events
    }

    /// End the session: drain the final partial epoch, force-close open
    /// frames, release the source, and return the final snapshot. The
    /// writers should have stopped (anything they write afterwards lands
    /// in the next epoch and is simply not part of this session). A
    /// finished session keeps its profile and answers every read as it
    /// did at the end, but holds no transport — no log, no file, no read
    /// buffer — and pumps nothing; finishing it again changes nothing.
    pub fn finish(&mut self) -> Snapshot {
        self.finish_into();
        self.snapshot()
    }

    /// [`LiveSession::finish`] without the final snapshot.
    pub(crate) fn finish_into(&mut self) {
        // The final drain is still scaled by the published regime — the
        // writers' last entries were admitted under it.
        self.rolling.set_scale(self.published_regime().scale());
        loop {
            let batch = self.source.drain_to_end();
            if batch.entries.is_empty() && batch.dropped == 0 {
                break;
            }
            if self.config.keep_replay {
                self.replay.extend_from_slice(&batch.entries);
            }
            self.rolling.ingest(&batch.entries);
        }
        self.rolling.finish();
        self.collect_window_events();
        if self.source.take_regime_fault() {
            self.regime_faults += 1;
            self.window_events.push(SessionEvent::RegimeFault {
                pid: self.source.pid(),
            });
        }
        self.source = Box::new(ClosedSource {
            pid: self.source.pid(),
            epoch: self.source.epoch(),
            dropped_total: self.source.dropped_total(),
            salvage: self.source.salvage(),
            regime: self.source.regime(),
        });
    }

    /// Drain the ring's retention transitions into this session's event
    /// log, stamped with the source's pid.
    fn collect_window_events(&mut self) {
        let pid = self.source.pid();
        for e in self.rolling.take_ring_events() {
            self.window_events.push(match e {
                RingEvent::Evicted { first, last, calls } => SessionEvent::WindowsEvicted {
                    pid,
                    first,
                    last,
                    calls,
                },
                RingEvent::Coarsened { first, last } => {
                    SessionEvent::WindowsCoarsened { pid, first, last }
                }
            });
        }
    }

    /// This session's retained-window listing (`None` when retention is
    /// disabled) — one entry of the `/windows` wire format.
    pub fn windows(&self) -> Option<PidWindows> {
        let ring = self.rolling.ring()?;
        Some(PidWindows {
            pid: self.source.pid(),
            interval: ring.interval(),
            evicted_windows: ring.evicted_windows(),
            evicted_calls: ring.evicted_calls(),
            windows: ring.windows(),
        })
    }

    /// The rolling profile this session drains its source into, and the
    /// symbolizer its addresses are read with.
    pub fn profile_parts(&self) -> (&RollingProfile, &Symbolizer) {
        (&self.rolling, &self.symbolizer)
    }

    /// Contribute the exact merge of the selected retained windows to a
    /// merge under this session's pid, without materializing it. Returns
    /// the span's metadata; `None` (and nothing added) when retention is
    /// disabled or the selection matches nothing.
    pub(crate) fn merge_span_into(
        &self,
        sel: &WindowSel,
        merge: &mut ProfileMerge,
        space: &mut NameSpace,
    ) -> Option<WindowMeta> {
        self.rolling.merge_span_into(
            sel,
            merge,
            space,
            &self.symbolizer,
            &mut self.fleet_names.borrow_mut(),
        )
    }

    /// The raw drained stream, in order (empty unless
    /// [`LiveConfig::keep_replay`] is set).
    pub fn replay_entries(&self) -> &[teeperf_core::layout::LogEntry] {
        &self.replay
    }
}

/// The source of a finished session: the counters its snapshots read, as
/// the real source left them, and nothing that holds the transport open.
#[derive(Debug)]
struct ClosedSource {
    pid: u64,
    epoch: u64,
    dropped_total: u64,
    salvage: SalvageReport,
    regime: Option<Regime>,
}

impl EventSource for ClosedSource {
    fn pid(&self) -> u64 {
        self.pid
    }

    fn pump_into(&mut self, batch: &mut SourceBatch) {
        batch.reset(self.epoch);
    }

    fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn is_exhausted(&self) -> bool {
        true
    }

    fn salvage(&self) -> SalvageReport {
        self.salvage.clone()
    }

    fn regime(&self) -> Option<Regime> {
        self.regime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcvm::DebugInfo;
    use std::sync::Arc;
    use tee_sim::SharedMem;
    use teeperf_analyzer::SymbolCacheStats;
    use teeperf_core::layout::{EventKind, LogEntry};
    use teeperf_core::log::{make_header, region_bytes};

    fn debug() -> DebugInfo {
        DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)])
    }

    fn fresh(max_entries: u64) -> SharedLog {
        let shm = Arc::new(SharedMem::new(region_bytes(max_entries)));
        SharedLog::init(
            shm,
            &make_header(1, max_entries, true, 0, tee_sim::SHM_BASE),
        )
    }

    fn session(log: &SharedLog) -> LiveSession {
        LiveSession::new(
            log.clone(),
            Symbolizer::without_relocation(debug()),
            LiveConfig {
                policy: DrainPolicy { watermark_pct: 50 },
                ..LiveConfig::default()
            },
        )
    }

    fn write_pair(log: &SharedLog, base: u64) {
        let d = debug();
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
    }

    #[test]
    fn pump_rotates_and_accumulates_across_epochs() {
        let log = fresh(4);
        let mut s = session(&log);
        for i in 0..4 {
            write_pair(&log, 100 * (i + 1));
            s.pump();
        }
        assert!(s.status().epoch >= 3, "4 pumps at 50% watermark of 4 slots");
        assert_eq!(s.events(), 8);
        assert_eq!(s.dropped(), 0);
        let snap = s.finish();
        assert_eq!(snap.profile.method("work").unwrap().calls, 4);
        assert_eq!(snap.status.open_frames, 0);
    }

    #[test]
    fn finish_collects_the_partial_epoch() {
        let log = fresh(1024);
        let mut s = session(&log);
        write_pair(&log, 50);
        // Never reached the watermark — finish must still see everything.
        let snap = s.finish();
        assert_eq!(snap.status.events, 2);
        assert_eq!(snap.profile.total_ticks, 10);
    }

    #[test]
    fn unbudgeted_sessions_have_no_regime_block() {
        let log = fresh(64);
        let mut s = session(&log);
        write_pair(&log, 100);
        s.pump();
        assert_eq!(s.regime(), Regime::Full);
        assert_eq!(s.budget_headroom_pct(), None);
        let snap = s.finish();
        assert_eq!(snap.regime, None);
        assert!(!snap.to_text().contains("[regime]"));
        assert_eq!(s.estimated_events(), s.events(), "full fidelity is exact");
    }

    #[test]
    fn budgeted_session_degrades_under_loss_and_recovers() {
        let log = fresh(8);
        let mut s = LiveSession::new(
            log.clone(),
            Symbolizer::without_relocation(debug()),
            LiveConfig {
                policy: DrainPolicy { watermark_pct: 100 },
                budget: Some(OverheadBudget { pct: 5 }),
                ..LiveConfig::default()
            },
        );
        assert_eq!(s.regime(), Regime::Full);
        // Overload: offer far more pairs per pump than the log holds, so
        // every pump observes a fat drop delta.
        let mut base = 1;
        while s.regime() == Regime::Full {
            for _ in 0..16 {
                write_pair(&log, base);
                base += 100;
            }
            s.pump();
            assert!(base < 1_000_000, "controller never degraded");
        }
        assert_eq!(s.regime(), Regime::sampled(2));
        assert!(s.regime_transitions() >= 1);
        assert!(s.dropped() > 0, "the pressure signal was real loss");
        // The transition was published to the writers...
        assert!(
            matches!(log.regime_observed(), (Regime::Sampled(2), _, false)),
            "shared word carries the new regime"
        );
        // ...and recorded in the snapshot's [events] and [regime] blocks.
        let snap = s.snapshot();
        let info = snap.regime.clone().expect("budgeted session has a block");
        assert_eq!(info.regime, Regime::sampled(2));
        assert_eq!(info.budget_pct, Some(5));
        assert_eq!(info.confidence(), "estimated");
        assert!(snap.events.iter().any(|e| matches!(
            e,
            SessionEvent::RegimeChanged {
                from: Regime::Full,
                ..
            }
        )));
        let text = snap.to_text();
        assert!(text.contains("[regime]\nmode sampled 1/2\n"), "{text}");
        // Calm: pump an idle log until a clean window upgrades back.
        let mut pumps = 0;
        while s.regime() != Regime::Full {
            s.pump();
            pumps += 1;
            assert!(pumps < 10_000, "controller never recovered");
        }
        assert!(
            matches!(log.regime_observed(), (Regime::Full, _, false)),
            "recovery published too"
        );
    }

    #[test]
    fn controller_does_not_flap_under_oscillating_load_at_the_threshold() {
        let mut ctl = FidelityController::new(OverheadBudget { pct: 10 });
        // Loss oscillates right around 10%: alternating windows of 20%
        // and 0% loss — the pathological flapping input.
        for pump in 0..1_000u64 {
            let lossy = (pump / CONTROL_WINDOW as u64).is_multiple_of(2);
            let (drained, dropped) = if lossy { (80, 20) } else { (100, 0) };
            ctl.observe(drained, dropped, 50);
        }
        // The doubling cool-down bounds transitions logarithmically: a
        // flapping controller would transition ~every window (125 times).
        assert!(
            ctl.transitions() <= 12,
            "{} transitions over 1000 oscillating pumps — the cool-down \
             is not biting",
            ctl.transitions()
        );
        assert!(
            ctl.transitions() >= 1,
            "the controller must still react to the overload at all"
        );
    }

    #[test]
    fn probe_upgrades_are_revoked_quickly_under_sustained_storm() {
        // A storm where sampling at 1-in-4 (or deeper) fits the drain but
        // anything shallower overruns badly: the regime the controller
        // *should* spend its time in is sampled(4)+, and every upgrade
        // probe below that re-overruns. The probe cool-down is short and
        // flat while degrade cool-downs double, so the lossy duty cycle
        // must decay instead of hovering near 50%.
        let mut ctl = FidelityController::new(OverheadBudget { pct: 10 });
        let mut lossy_pumps = 0u64;
        const PUMPS: u64 = 4_000;
        for _ in 0..PUMPS {
            let overrun = match ctl.regime() {
                Regime::Full => true,
                Regime::Sampled(n) => n < 4,
                Regime::Quiescent => false,
            };
            let (drained, dropped) = if overrun { (50, 50) } else { (100, 0) };
            if overrun {
                lossy_pumps += 1;
            }
            ctl.observe(drained, dropped, if overrun { 100 } else { 40 });
        }
        assert!(
            lossy_pumps * 5 < PUMPS,
            "{lossy_pumps}/{PUMPS} pumps spent in over-budget regimes — \
             failed probes are not being revoked promptly"
        );
        assert!(
            ctl.transitions() >= 3,
            "the controller must still probe upward at all"
        );
    }

    #[test]
    fn controller_quiescent_probe_returns_via_deepest_sampling() {
        let mut ctl = FidelityController::new(OverheadBudget { pct: 1 });
        // Relentless overload marches the ladder all the way down.
        let mut steps = 0;
        while ctl.regime() != Regime::Quiescent {
            ctl.observe(10, 1_000, 100);
            steps += 1;
            assert!(steps < 100_000, "never reached quiescence");
        }
        // Silence: the first upgrade probe re-enters at 1-in-64.
        let mut probed = None;
        for _ in 0..100_000 {
            if let Some((_, to)) = ctl.observe(0, 0, 0) {
                probed = Some(to);
                break;
            }
        }
        assert_eq!(probed, Some(Regime::sampled(64)));
    }

    /// A complete 4-ary call tree, 5 levels deep, on one thread: 341
    /// distinct stacks over 17 functions (`f0` at the root, `f<level>_<child>`
    /// below), every frame with ticks of its own — recorded by a process
    /// that loaded the binary `slide` bytes above its static addresses.
    fn call_tree(pid: u64, slide: u64) -> (teeperf_core::LogFile, Symbolizer) {
        let names: Vec<String> = std::iter::once("f0".to_string())
            .chain((1..5).flat_map(|level| (0..4).map(move |child| format!("f{level}_{child}"))))
            .collect();
        let d = DebugInfo::from_functions(names.iter().map(|n| (n.as_str(), 4, 1)));
        fn visit(d: &DebugInfo, slide: u64, level: u16, f: u16, out: &mut Vec<LogEntry>) {
            let event = |kind, out: &Vec<LogEntry>| LogEntry {
                kind,
                counter: out.len() as u64 + 1,
                addr: d.entry_addr(f) + slide,
                tid: 0,
            };
            out.push(event(EventKind::Call, out));
            if level < 4 {
                for child in 0..4 {
                    visit(d, slide, level + 1, 1 + 4 * level + child, out);
                }
            }
            out.push(event(EventKind::Return, out));
        }
        let mut entries = Vec::new();
        visit(&d, slide, 0, 0, &mut entries);
        let anchor = d.entry_addr(0) + slide;
        let n = entries.len() as u64;
        let header = teeperf_core::layout::LogHeader {
            active: false,
            tail: n,
            ..make_header(pid, n, true, anchor, 0)
        };
        let symbolizer = Symbolizer::new(d, &header);
        (teeperf_core::LogFile::new(header, entries), symbolizer)
    }

    /// The counted guard on the fleet view's cost (in this module because
    /// the count is read off each session's private symbolizer): it cannot
    /// flake on host speed.
    #[test]
    fn a_merged_snapshot_names_each_address_once_in_a_sessions_life() {
        use crate::registry::tests::{saved, scratch};
        use crate::registry::SessionRegistry;
        let dir = scratch("namedonce");
        let mut reg = SessionRegistry::new(LiveConfig::default());
        // Every process loads the binary somewhere else.
        for pid in 1..=8 {
            let (log, symbolizer) = call_tree(pid, 0x1000 * (9 - pid));
            reg.attach(saved(&dir, &log), symbolizer).unwrap();
        }
        let stats = |reg: &SessionRegistry| -> Vec<SymbolCacheStats> {
            (1..=8)
                .map(|pid| reg.session(pid).unwrap().symbolizer.cache_stats())
                .collect()
        };
        // Counted from before the first pump: the fleet table is folded
        // pump by pump, so every lookup the merged view needs is paid
        // there.
        let before = stats(&reg);
        while reg.pump() > 0 {}
        let merged = reg.merged_snapshot();
        let once = stats(&reg);
        assert_eq!(merged.profile.folded.len(), 341, "a row per distinct stack");
        assert_eq!(merged.profile.methods.len(), 17, "a row per function");
        for (before, once) in before.iter().zip(&once) {
            // Symbolization is O(distinct addresses), not O(stacks × depth):
            // 17 here, where naming every frame of every stack would take
            // 1 593.
            let cost = (once.hits + once.misses) - (before.hits + before.misses);
            assert!(
                cost <= 17,
                "{cost} symbolizer lookups for 17 distinct addresses"
            );
        }
        // And it is paid once, across every pump and fold: a second view
        // of unchanged sessions asks the symbolizers nothing.
        assert_eq!(reg.merged_snapshot(), merged);
        assert_eq!(stats(&reg), once, "the counters repeat exactly");
        // One function, eight addresses: one row, under the smallest.
        let (log, _) = call_tree(8, 0x1000);
        let f0 = merged.profile.method("f0").unwrap();
        assert_eq!((f0.addr, f0.calls), (log.entries[0].addr, 8));
        assert_eq!(f0.threads.len(), 8, "thread 0 of eight processes");
    }

    #[test]
    fn budgeted_session_over_a_replay_stays_full_fidelity() {
        use crate::registry::tests::{scratch, Feed};
        use teeperf_core::LogFile;
        let log = fresh(64);
        write_pair(&log, 100);
        let file = LogFile::new(log.header(), log.drain_entries());
        let dir = scratch("budgetedfile");
        let (mut feed, source) = Feed::new(&dir.0, &file, 1);
        let mut s = LiveSession::from_source(
            source,
            Symbolizer::without_relocation(debug()),
            LiveConfig {
                budget: Some(OverheadBudget { pct: 0 }),
                ..LiveConfig::default()
            },
        );
        // A zero budget plus drops would degrade a live source; a file
        // has no regime transport, so the controller retires instead of
        // pretending to throttle a writer it cannot reach.
        for _ in 0..64 {
            feed.step();
            s.pump();
        }
        assert_eq!(s.regime(), Regime::Full);
        assert_eq!(s.finish().status.events, 2);
    }
}
