//! Overhead-budgeted profiling under overload: the fidelity-regime ramp.
//!
//! A synthetic workload drives the live writer path through three phases —
//! **calm** (offered load fits the log comfortably), **storm** (offered
//! load several times the log's capacity per pump), **recovery** (calm
//! again) — three ways:
//!
//! 1. **native** — no profiler attached: the ground-truth offered event
//!    stream and the bare workload wall time;
//! 2. **full** — unbudgeted recording: every event is written, so the
//!    storm overflows the log and the stream loss far exceeds any sane
//!    budget (the failure mode the regimes exist to prevent);
//! 3. **budgeted** — the same writes go through a [`FidelityGate`] and the
//!    session carries an [`OverheadBudget`]: the controller degrades
//!    `Full → Sampled(1/N)` until the admitted stream fits, probes back up
//!    between storms, and returns to `Full` during recovery.
//!
//! The measured "overhead" is the budget's own metric — stream loss as a
//! percentage of events offered to the log — because in this recorder
//! loss *is* the profiling overhead that matters: a lost event silently
//! corrupts the profile, while a gate-suppressed event is disclosed and
//! compensated by the estimator. The interesting cells are the storm
//! column (full ≫ budget, budgeted ≤ budget once settled) and the
//! budgeted run's accounting identity: every offered event is either
//! admitted or disclosed-suppressed, and every admitted event is either
//! drained or counted dropped — nothing is silent. Emits
//! `results/BENCH_regime_overhead.json`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mcvm::DebugInfo;
use tee_sim::SharedMem;
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_core::layout::{EventKind, LogEntry};
use teeperf_core::log::{make_header, region_bytes};
use teeperf_core::{BatchWriter, FidelityGate, LiveLogSource, Regime, SharedLog};
use teeperf_live::{LiveConfig, LiveSession, OverheadBudget, SessionEvent};

/// The three load phases of the ramp, in order.
pub const PHASES: [&str; 3] = ["calm", "storm", "recovery"];

/// Harness options.
#[derive(Debug, Clone)]
pub struct RegimeBenchOptions {
    /// Shared-log capacity in entries.
    pub capacity: u64,
    /// Call/return pairs offered per pump during calm and recovery.
    pub calm_pairs: u64,
    /// Pairs offered per pump during the storm (sized to overflow the log
    /// several times over at full fidelity).
    pub storm_pairs: u64,
    /// Pumps per calm phase.
    pub calm_pumps: usize,
    /// Pumps the storm lasts.
    pub storm_pumps: usize,
    /// Upper bound on recovery pumps (the run also records how many were
    /// actually needed to re-reach `Full`).
    pub recovery_pumps: usize,
    /// Tolerated stream loss, percent.
    pub budget_pct: u8,
}

impl Default for RegimeBenchOptions {
    fn default() -> Self {
        RegimeBenchOptions {
            capacity: 256,
            calm_pairs: 32,
            storm_pairs: 512,
            calm_pumps: 64,
            storm_pumps: 256,
            recovery_pumps: 6_000,
            budget_pct: 10,
        }
    }
}

impl RegimeBenchOptions {
    /// A tiny ramp for CI smoke runs (finishes in well under a second).
    pub fn smoke() -> Self {
        RegimeBenchOptions {
            capacity: 64,
            calm_pairs: 8,
            storm_pairs: 128,
            calm_pumps: 16,
            storm_pumps: 120,
            recovery_pumps: 4_000,
            ..RegimeBenchOptions::default()
        }
    }
}

/// One phase's accounting for one run.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Events the workload produced in this phase.
    pub offered: u64,
    /// Events actually written to the shared log (after the gate, where
    /// one exists).
    pub written: u64,
    /// Events the gate suppressed (disclosed omissions; 0 without a gate).
    pub suppressed: u64,
    /// Events lost to log overflow (accounted drops).
    pub dropped: u64,
}

impl PhaseStats {
    /// Stream loss as a percentage of events written toward the log.
    pub fn loss_pct(&self) -> f64 {
        if self.written == 0 {
            0.0
        } else {
            self.dropped as f64 * 100.0 / self.written as f64
        }
    }
}

/// One configuration's full-ramp outcome.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// "native", "full" or "budgeted".
    pub name: &'static str,
    /// Per-phase accounting, in [`PHASES`] order.
    pub phases: Vec<PhaseStats>,
    /// Loss over the second half of the storm, where the budgeted
    /// controller has settled into a fitting regime.
    pub settled_storm_loss_pct: f64,
    /// Whether the session ever left `Full` (always false for native and
    /// full runs).
    pub reached_sampled: bool,
    /// Regime at the end of the ramp, as its display label.
    pub final_regime: String,
    /// Regime transitions over the whole ramp.
    pub transitions: u64,
    /// Events ingested into the rolling profile.
    pub ingested: u64,
    /// Bias-corrected event estimate (== ingested when never sampled).
    pub estimated: u64,
    /// Pumps the recovery phase needed to re-reach `Full` (recovery_pumps
    /// if it never did; 0 when there is nothing to recover from).
    pub pumps_to_recover: usize,
    /// Host wall time of the ramp, milliseconds.
    pub wall_ms: u128,
    /// Regime lines from the final snapshot's `[events]` block.
    pub event_lines: Vec<String>,
}

/// The whole three-way comparison.
#[derive(Debug, Clone)]
pub struct RegimeBenchResult {
    /// Native, full, budgeted — in that order.
    pub runs: Vec<RunStats>,
    /// The budget the budgeted run carried.
    pub budget_pct: u8,
}

const PID: u64 = 7;

fn debug() -> DebugInfo {
    DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)])
}

fn fresh_log(capacity: u64) -> SharedLog {
    let shm = Arc::new(SharedMem::new(region_bytes(capacity)));
    SharedLog::init(shm, &make_header(PID, capacity, true, 0, tee_sim::SHM_BASE))
}

/// Offer one call/return pair; returns how many of the two events were
/// written (gate permitting).
fn offer_pair(
    writer: &mut BatchWriter,
    gate: Option<&mut FidelityGate>,
    addr: u64,
    base: u64,
) -> u64 {
    let call = LogEntry {
        kind: EventKind::Call,
        counter: base,
        addr,
        tid: 0,
    };
    let ret = LogEntry {
        kind: EventKind::Return,
        counter: base + 2,
        addr,
        tid: 0,
    };
    match gate {
        None => {
            writer.append(&call);
            writer.append(&ret);
            2
        }
        Some(gate) => {
            let mut written = 0;
            for entry in [call, ret] {
                if gate.needs_refresh() {
                    gate.observe(writer.log().regime_word());
                }
                if gate.admit(entry.tid, entry.kind) {
                    writer.append(&entry);
                    written += 1;
                }
            }
            written
        }
    }
}

enum Mode {
    /// No log, no session: just the workload generating its event stream.
    Native,
    /// Unbudgeted full-fidelity recording.
    Full,
    /// Budgeted recording through the writer-side gate.
    Budgeted(u8),
}

fn run_one(options: &RegimeBenchOptions, mode: Mode) -> RunStats {
    let name = match mode {
        Mode::Native => "native",
        Mode::Full => "full",
        Mode::Budgeted(_) => "budgeted",
    };
    let budget = match mode {
        Mode::Budgeted(pct) => Some(OverheadBudget { pct }),
        _ => None,
    };
    let session_wanted = !matches!(mode, Mode::Native);
    let log = fresh_log(options.capacity);
    let mut session = session_wanted.then(|| {
        LiveSession::from_source(
            Box::new(LiveLogSource::new(log.clone(), 50)),
            Symbolizer::without_relocation(debug()),
            LiveConfig {
                budget,
                ..LiveConfig::default()
            },
        )
    });
    let mut gate = budget.map(|_| FidelityGate::new());
    let mut writer = log.batch_writer(1);
    let addr = debug().entry_addr(1);

    let wall = Instant::now();
    let mut base = 1u64;
    let mut phases = Vec::new();
    let mut storm_first_half = PhaseStats::default();
    let mut pumps_to_recover = 0usize;
    let schedule = [
        ("calm", options.calm_pairs, options.calm_pumps),
        ("storm", options.storm_pairs, options.storm_pumps),
        ("recovery", options.calm_pairs, options.recovery_pumps),
    ];
    for (phase, pairs, pumps) in schedule {
        let mut stats = PhaseStats::default();
        // `dropped_total` is cumulative and already includes the current
        // epoch's pending overflow, so per-phase loss is a delta against
        // the phase-start total — a per-pump before/after delta would read
        // zero (the rotation only moves drops between the two terms).
        let phase_dropped_base = session.as_ref().map_or(0, LiveSession::dropped);
        for pump in 0..pumps {
            for _ in 0..pairs {
                stats.offered += 2;
                if session_wanted {
                    stats.written += offer_pair(&mut writer, gate.as_mut(), addr, base);
                }
                base += 4;
            }
            if let Some(s) = session.as_mut() {
                s.pump();
                stats.dropped = s.dropped() - phase_dropped_base;
            }
            if phase == "storm" && pump + 1 == pumps / 2 {
                storm_first_half = stats.clone();
            }
            if phase == "recovery" {
                let recovered = session.as_ref().is_none_or(|s| s.regime() == Regime::Full);
                if !recovered {
                    pumps_to_recover = pump + 1;
                }
            }
        }
        if matches!(mode, Mode::Native) {
            // Without a log attached "written" is meaningless; report the
            // offered stream as what the workload itself emits.
            stats.written = stats.offered;
        }
        stats.suppressed = stats.offered - stats.written;
        phases.push(stats);
    }

    // Second-half storm loss: total minus the first-half checkpoint.
    let storm = &phases[1];
    let half = PhaseStats {
        offered: storm.offered - storm_first_half.offered,
        written: storm.written - storm_first_half.written,
        suppressed: 0,
        dropped: storm.dropped - storm_first_half.dropped,
    };

    let (reached_sampled, final_regime, transitions, ingested, estimated, event_lines) =
        match session {
            None => (false, Regime::Full.to_string(), 0, 0, 0, Vec::new()),
            Some(mut s) => {
                let transitions = s.regime_transitions();
                let final_regime = s.regime().to_string();
                let snap = s.finish();
                let event_lines = snap
                    .events
                    .iter()
                    .filter(|e| matches!(e, SessionEvent::RegimeChanged { .. }))
                    .map(ToString::to_string)
                    .collect();
                (
                    transitions > 0,
                    final_regime,
                    transitions,
                    snap.status.events,
                    snap.regime
                        .as_ref()
                        .map_or(snap.status.events, |r| r.estimated_events),
                    event_lines,
                )
            }
        };

    RunStats {
        name,
        phases,
        settled_storm_loss_pct: half.loss_pct(),
        reached_sampled,
        final_regime,
        transitions,
        ingested,
        estimated,
        pumps_to_recover,
        wall_ms: wall.elapsed().as_millis(),
        event_lines,
    }
}

/// Run the three-way ramp.
pub fn run_regime_overhead(options: &RegimeBenchOptions) -> RegimeBenchResult {
    RegimeBenchResult {
        runs: vec![
            run_one(options, Mode::Native),
            run_one(options, Mode::Full),
            run_one(options, Mode::Budgeted(options.budget_pct)),
        ],
        budget_pct: options.budget_pct,
    }
}

impl RegimeBenchResult {
    fn run(&self, name: &str) -> &RunStats {
        self.runs
            .iter()
            .find(|r| r.name == name)
            .expect("all three runs present")
    }

    /// Render the comparison as an ASCII table (one row per run × phase).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .runs
            .iter()
            .flat_map(|r| {
                r.phases.iter().zip(PHASES).map(move |(p, phase)| {
                    vec![
                        r.name.to_string(),
                        phase.to_string(),
                        p.offered.to_string(),
                        p.written.to_string(),
                        p.suppressed.to_string(),
                        p.dropped.to_string(),
                        format!("{:.1}", p.loss_pct()),
                    ]
                })
            })
            .collect();
        crate::util::render_table(
            &[
                "run",
                "phase",
                "offered",
                "written",
                "suppressed",
                "dropped",
                "loss_pct",
            ],
            &rows,
        )
    }

    /// Serialize as the `BENCH_regime_overhead.json` artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"bench\": \"regime_overhead\",");
        let _ = writeln!(s, "  \"budget_pct\": {},", self.budget_pct);
        let _ = writeln!(
            s,
            "  \"note\": \"overhead is stream loss pct (lost events corrupt the profile \
             silently; gate-suppressed events are disclosed and bias-corrected by the \
             estimator); settled_storm_loss_pct covers the storm's second half\","
        );
        let _ = writeln!(s, "  \"runs\": [");
        for (i, r) in self.runs.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
            let _ = writeln!(s, "      \"phases\": [");
            for (j, (p, phase)) in r.phases.iter().zip(PHASES).enumerate() {
                let _ = write!(
                    s,
                    "        {{\"phase\": \"{phase}\", \"offered\": {}, \"written\": {}, \
                     \"suppressed\": {}, \"dropped\": {}, \"loss_pct\": {:.2}}}",
                    p.offered,
                    p.written,
                    p.suppressed,
                    p.dropped,
                    p.loss_pct(),
                );
                let _ = writeln!(s, "{}", if j + 1 < r.phases.len() { "," } else { "" });
            }
            let _ = writeln!(s, "      ],");
            let _ = writeln!(
                s,
                "      \"settled_storm_loss_pct\": {:.2},",
                r.settled_storm_loss_pct
            );
            let _ = writeln!(s, "      \"reached_sampled\": {},", r.reached_sampled);
            let _ = writeln!(s, "      \"final_regime\": \"{}\",", r.final_regime);
            let _ = writeln!(s, "      \"transitions\": {},", r.transitions);
            let _ = writeln!(s, "      \"ingested\": {},", r.ingested);
            let _ = writeln!(s, "      \"estimated\": {},", r.estimated);
            let _ = writeln!(s, "      \"pumps_to_recover\": {},", r.pumps_to_recover);
            let _ = writeln!(s, "      \"wall_ms\": {}", r.wall_ms);
            let _ = writeln!(
                s,
                "    }}{}",
                if i + 1 < self.runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ]");
        s.push_str("}\n");
        s
    }

    /// The acceptance criteria of the experiment.
    ///
    /// # Errors
    /// Returns a description of the first violated criterion.
    pub fn check(&self) -> Result<(), String> {
        let budget = f64::from(self.budget_pct);
        let full = self.run("full");
        let budgeted = self.run("budgeted");
        // 1. Unbudgeted full fidelity blows the budget during the storm.
        if full.phases[1].loss_pct() <= budget {
            return Err(format!(
                "full run storm loss {:.1}% did not exceed the {budget}% budget — \
                 the storm is not a storm",
                full.phases[1].loss_pct()
            ));
        }
        // 2. The budgeted controller degraded, settled within budget, and
        //    came back.
        if !budgeted.reached_sampled {
            return Err("budgeted run never left Full".into());
        }
        if budgeted.settled_storm_loss_pct > budget {
            return Err(format!(
                "budgeted settled storm loss {:.1}% exceeds the {budget}% budget",
                budgeted.settled_storm_loss_pct
            ));
        }
        if budgeted.final_regime != "full" {
            return Err(format!(
                "budgeted run ended in {} — never recovered to full",
                budgeted.final_regime
            ));
        }
        if budgeted.transitions < 2 {
            return Err("a degrade and a recovery need at least two transitions".into());
        }
        if budgeted.event_lines.len() < 2 {
            return Err("regime transitions missing from the [events] block".into());
        }
        // 3. Zero *silent* drops: every offered event is written or
        //    disclosed-suppressed, every written event drained or counted
        //    dropped.
        for (p, phase) in budgeted.phases.iter().zip(PHASES) {
            if p.offered != p.written + p.suppressed {
                return Err(format!("{phase}: gate accounting does not balance"));
            }
        }
        let written: u64 = budgeted.phases.iter().map(|p| p.written).sum();
        let dropped: u64 = budgeted.phases.iter().map(|p| p.dropped).sum();
        if budgeted.ingested + dropped != written {
            return Err(format!(
                "silent drops: written {written} != ingested {} + dropped {dropped}",
                budgeted.ingested
            ));
        }
        // 4. The estimator compensates for disclosed suppression: the
        //    corrected total must land far closer to the offered stream
        //    than the raw admitted count does.
        let offered: u64 = budgeted.phases.iter().map(|p| p.offered).sum();
        let err = |v: u64| (v as f64 - offered as f64).abs();
        if budgeted.estimated <= budgeted.ingested
            || err(budgeted.estimated) >= err(budgeted.ingested)
        {
            return Err(format!(
                "estimate {} is no better than the raw count {} against offered {offered}",
                budgeted.estimated, budgeted.ingested
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ramp_degrades_recovers_and_accounts_for_everything() {
        let result = run_regime_overhead(&RegimeBenchOptions::smoke());
        result.check().expect("acceptance criteria");
        let budgeted = result.run("budgeted");
        assert!(
            budgeted.pumps_to_recover > 0,
            "recovery took at least a pump"
        );
        assert!(budgeted
            .event_lines
            .iter()
            .any(|l| l.contains("full -> sampled(1/2)")));
        let table = result.render();
        assert!(table.contains("loss_pct"), "{table}");
        let json = result.to_json();
        assert!(json.contains("\"bench\": \"regime_overhead\""), "{json}");
        let count = |c: char| json.matches(c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
    }

    #[test]
    fn native_run_carries_no_profiler_state() {
        let result = run_regime_overhead(&RegimeBenchOptions::smoke());
        let native = result.run("native");
        assert!(!native.reached_sampled);
        assert_eq!(native.transitions, 0);
        assert_eq!(native.ingested, 0);
        for p in &native.phases {
            assert_eq!(p.dropped, 0);
            assert_eq!(p.offered, p.written);
        }
    }
}
