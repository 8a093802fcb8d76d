//! The protocol harness: runs the *real* shared-log protocol
//! (`BatchWriter::append` / `poll` / `rotate`) under the virtual scheduler
//! and checks machine-readable invariants against independently tracked ground
//! truth.
//!
//! Roles (one virtual thread each, in fixed [`VTid`] order so schedules
//! replay):
//!
//! * **writers** `0..W` — each appends `entries_per_writer` entries with
//!   globally unique addresses through its own `BatchWriter`, recording
//!   every attempt and its outcome.
//! * **drainer** `W` — owns the `LogCursor`: polls, performs up to
//!   `mid_rotations` rotations while writers are still running (this is
//!   what exercises slot reuse across epochs), then one final rotation
//!   after every writer has finished.
//! * **observer** `W+1` (optional) — reads `dropped_total()` concurrently
//!   and checks it against the over-count bound; this is the only role
//!   that can see the historical drop double-counting bug, whose final
//!   totals are correct and only its *transient* values lie.
//!
//! ## Invariants
//!
//! 1. **Exactly-once drain:** the multiset of drained entry addresses
//!    equals the multiset of successfully written ones — a stale-slot
//!    resurrection shows up as a duplicate, a lost entry as a hole.
//! 2. **Drop accounting:** after the final rotation, `dropped_total()`
//!    equals attempts − successes.
//! 3. **No transient drop over-count:** every observer read of
//!    `dropped_total()` is ≤ completed drops + writers still inside the
//!    protocol (each can contribute at most one unreported drop). Transient
//!    *under*-reporting is documented and allowed; over-reporting means the
//!    same drop was visible in two words at once.
//! 4. **Validity:** nothing drained is torn or unpublished.
//! 5. **Termination:** the execution completes — a schedule under which
//!    every unfinished thread is parked is a livelock of the rotation
//!    handshake (checked by the scheduler itself).

use std::sync::{Arc, Mutex, MutexGuard};

use tee_sim::SharedMem;
use teeperf_core::layout::{EntryValidity, EventKind, LogEntry};
use teeperf_core::log::{make_header, mutation::Mutation, region_bytes, LogCursor, SharedLog};
use teeperf_core::Regime;

use crate::sched::{ChoiceSource, ExecOutcome, ExecRecord, Fleet, VTid};

/// Which historical bug class to re-introduce (mapped onto
/// `teeperf_core::log::mutation`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MutationKind {
    /// The shipped protocol, no bug.
    #[default]
    None,
    /// PR-1 class: rotation keeps stale publication words on reused slots.
    StaleSlotResurrection,
    /// PR-1-review / PR-5 class: rotation counts the closing epoch's drops
    /// into the cumulative word before resetting the tail.
    DroppedDoubleCount,
    /// Batched-reservation class: rotation charges over-capacity batch
    /// hand-backs as drops while also counting them as abandoned, so each
    /// hand-back is accounted twice.
    AbandonedAsDropped,
    /// Fidelity-regime class: a writer reads the shared regime word as two
    /// 32-bit halves instead of one word, so a concurrent publish can tear
    /// the epoch half away from the regime half.
    TornRegimeRead,
}

impl MutationKind {
    fn arm(self) -> Mutation {
        match self {
            MutationKind::None => Mutation::None,
            MutationKind::StaleSlotResurrection => Mutation::SkipSlotClear,
            MutationKind::DroppedDoubleCount => Mutation::CountDropsBeforeTailReset,
            MutationKind::AbandonedAsDropped => Mutation::CountAbandonedAsDropped,
            MutationKind::TornRegimeRead => Mutation::TornRegimeRead,
        }
    }

    /// Stable kebab-case name (trace files, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::None => "none",
            MutationKind::StaleSlotResurrection => "stale-slot-resurrection",
            MutationKind::DroppedDoubleCount => "drop-double-count",
            MutationKind::AbandonedAsDropped => "abandoned-as-dropped",
            MutationKind::TornRegimeRead => "torn-regime-read",
        }
    }

    /// Parse a [`MutationKind::name`] back.
    pub fn parse(s: &str) -> Option<MutationKind> {
        match s {
            "none" => Some(MutationKind::None),
            "stale-slot-resurrection" => Some(MutationKind::StaleSlotResurrection),
            "drop-double-count" => Some(MutationKind::DroppedDoubleCount),
            "abandoned-as-dropped" => Some(MutationKind::AbandonedAsDropped),
            "torn-regime-read" => Some(MutationKind::TornRegimeRead),
            _ => None,
        }
    }
}

/// One checked scenario: how many writers, how much log, how much drainer
/// and observer activity, and which mutation (if any) is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Concurrent writer threads.
    pub writers: usize,
    /// Entries each writer appends.
    pub entries_per_writer: u64,
    /// Log capacity in entries (small on purpose: forces reuse + drops).
    pub capacity: u64,
    /// Rotations the drainer performs while writers may still be running.
    pub mid_rotations: u64,
    /// Concurrent `dropped_total()` reads by the observer role (0 = no
    /// observer thread).
    pub observer_reads: u64,
    /// Slots each writer's `BatchWriter` claims per tail reservation: `1`
    /// is one slot per event, `> 1` exercises the reserve-run / publish /
    /// abandon interleavings.
    pub batch_slots: u64,
    /// Fidelity-regime transitions the drainer publishes through the
    /// shared regime word at its mid-rotations (cycling a fixed ladder).
    /// With flips armed (or the torn-read mutation), every writer decodes
    /// the regime word before each append and the decode is checked
    /// against the published set. 0 leaves the regime machinery — and the
    /// schedule space of pre-regime configs — untouched.
    pub regime_flips: u64,
    /// Armed protocol mutation.
    pub mutation: MutationKind,
}

impl Config {
    /// Virtual threads this config schedules.
    pub fn participants(&self) -> usize {
        self.writers + 1 + usize::from(self.observer_reads > 0)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}w x {}e cap={} rot={} obs={} batch={} flips={} mut={}",
            self.writers,
            self.entries_per_writer,
            self.capacity,
            self.mid_rotations,
            self.observer_reads,
            self.batch_slots,
            self.regime_flips,
            self.mutation.name()
        )
    }
}

impl Default for Config {
    fn default() -> Config {
        Config {
            writers: 2,
            entries_per_writer: 1,
            capacity: 1,
            mid_rotations: 1,
            observer_reads: 0,
            batch_slots: 1,
            regime_flips: 0,
            mutation: MutationKind::None,
        }
    }
}

/// An invariant the execution broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// The same published entry was drained more than once (stale-slot
    /// resurrection manifests here).
    DuplicateDrain,
    /// A successfully written entry was never drained.
    LostEntry,
    /// A drained record was torn or unpublished.
    InvalidEntry,
    /// Final `dropped_total()` disagrees with attempts − successes.
    DropAccounting,
    /// Final `abandoned_total()` disagrees with the batch writers' ground
    /// truth (remainders + hand-backs + rotation-discarded runs): an
    /// abandoned slot was counted twice or not at all.
    AbandonAccounting,
    /// A concurrent `dropped_total()` read exceeded the over-count bound
    /// (the drop double-counting bug manifests here).
    ObserverOverCount,
    /// A writer decoded the regime word to a `(regime, epoch)` pair the
    /// drainer never published, or hit the corrupt-word fallback on an
    /// uncorrupted log (the torn regime read manifests here: a non-atomic
    /// read pairs one publish's epoch with another's regime).
    RegimeDecode,
    /// Every unfinished thread was parked: the handshake livelocked.
    Livelock,
    /// Protocol code panicked under this schedule.
    Panic,
}

impl ViolationKind {
    /// Stable kebab-case name (trace files, reports).
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::DuplicateDrain => "duplicate-drain",
            ViolationKind::LostEntry => "lost-entry",
            ViolationKind::InvalidEntry => "invalid-entry",
            ViolationKind::DropAccounting => "drop-accounting",
            ViolationKind::AbandonAccounting => "abandon-accounting",
            ViolationKind::ObserverOverCount => "observer-over-count",
            ViolationKind::RegimeDecode => "regime-decode",
            ViolationKind::Livelock => "livelock",
            ViolationKind::Panic => "panic",
        }
    }
}

/// A broken invariant plus the exact schedule that broke it. Feeding
/// `schedule` back through [`crate::sched::Prescribed`] reproduces the
/// violation deterministically.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
    /// The schedule (granted thread per step) that exposed it.
    pub schedule: Vec<VTid>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} [schedule: {} steps]",
            self.kind.name(),
            self.detail,
            self.schedule.len()
        )
    }
}

/// Ground truth maintained outside the shared region. Only ever touched by
/// the single currently-granted virtual thread (the scheduler serializes
/// everything), so the mutex is for the borrow checker, not for real
/// contention.
#[derive(Debug, Default)]
struct Truth {
    attempts: u64,
    written: Vec<u64>,
    completed_drops: u64,
    writers_done: usize,
    /// Slots batch writers abandoned: exit remainders + over-capacity
    /// hand-backs + runs discarded under rotation. Every one must surface
    /// exactly once in `abandoned_total()` after the final rotation.
    expected_abandoned: u64,
    observer_overcounts: Vec<String>,
    drained: Vec<LogEntry>,
    /// Every `(regime, epoch)` pair the drainer published (seeded with the
    /// init word `Full@0`). Recorded *before* the word is stored, so no
    /// writer can observe an unrecorded publish.
    published_regimes: Vec<(Regime, u32)>,
    /// Every writer decode of the regime word: `(regime, epoch, fallback)`.
    regime_observations: Vec<(Regime, u32, bool)>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The regime sequence the drainer publishes when flips are armed: each
/// step changes both halves of the word relative to its neighbours, so a
/// torn lo/hi recombination can never alias a published pair.
const REGIME_LADDER: [Regime; 4] = [
    Regime::Sampled(2),
    Regime::Sampled(8),
    Regime::Quiescent,
    Regime::Full,
];

/// Run one serialized execution of `cfg` under `choices` and check every
/// invariant. Returns the raw execution record plus the first violation
/// found, if any.
pub fn execute(
    fleet: &mut Fleet,
    cfg: &Config,
    choices: &mut dyn ChoiceSource,
    step_budget: usize,
) -> (ExecRecord, Option<Violation>) {
    assert!(cfg.writers >= 1, "need at least one writer");
    assert!(
        fleet.slots() >= cfg.participants(),
        "fleet too small for config"
    );
    let shm = Arc::new(SharedMem::new_modeled(
        region_bytes(cfg.capacity),
        fleet.model(),
    ));
    let log = SharedLog::init(
        Arc::clone(&shm),
        &make_header(1, cfg.capacity, true, 0x40_0000, tee_sim::SHM_BASE),
    );
    let truth = Arc::new(Mutex::new(Truth::default()));
    // The init word is all-zero, which decodes as `Full` at regime epoch 0.
    lock(&truth).published_regimes.push((Regime::Full, 0));
    // Regime decodes only run when the config exercises regimes, so
    // pre-regime configs keep their exact schedule spaces.
    let observe_regimes = cfg.regime_flips > 0 || cfg.mutation == MutationKind::TornRegimeRead;

    let mut jobs: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for w in 0..cfg.writers {
        // The torn-read mutation lives on the *writer* side (the gate's
        // refresh path is what decodes the word); arm it on every writer
        // handle so any writer's decode can tear against a publish.
        let log = if cfg.mutation == MutationKind::TornRegimeRead {
            log.clone().with_mutation(cfg.mutation.arm())
        } else {
            log.clone()
        };
        let truth = Arc::clone(&truth);
        let entries = cfg.entries_per_writer;
        let batch_slots = cfg.batch_slots;
        jobs.push(Box::new(move || {
            let mut writer = log.batch_writer(batch_slots);
            for k in 1..=entries {
                if observe_regimes {
                    let obs = log.regime_observed();
                    lock(&truth).regime_observations.push(obs);
                }
                let addr = (w as u64 + 1) * 1_000 + k;
                let entry = LogEntry {
                    kind: EventKind::Call,
                    counter: k,
                    addr,
                    tid: w as u64,
                };
                let stored = writer.append(&entry).slot.is_some();
                let mut t = lock(&truth);
                t.attempts += 1;
                if stored {
                    t.written.push(addr);
                } else {
                    t.completed_drops += 1;
                }
            }
            let mut t = lock(&truth);
            // Everything this writer reserved but never published must end
            // up counted as abandoned exactly once: the unfinished run's
            // remainder (holes for the next rotation), the over-capacity
            // hand-backs, and runs already discarded because the epoch
            // rotated under them.
            t.expected_abandoned += writer.pending() + writer.handed_back() + writer.discarded();
            t.writers_done += 1;
        }));
    }
    {
        // The drainer: the single cursor owner. Mutations arm on this handle —
        // both historical bugs lived in the rotation path it runs.
        let log = log.clone().with_mutation(cfg.mutation.arm());
        let truth = Arc::clone(&truth);
        let writers = cfg.writers;
        let mid_rotations = cfg.mid_rotations;
        let regime_flips = cfg.regime_flips;
        jobs.push(Box::new(move || {
            let mut cursor = LogCursor::default();
            let mut drained = Vec::new();
            let mut rotations_done = 0u64;
            loop {
                drained.extend(log.poll(&mut cursor));
                if lock(&truth).writers_done == writers {
                    // All writers finished: one final rotation drains
                    // everything still in the closing epoch.
                    drained.extend(log.rotate(&mut cursor).entries);
                    break;
                }
                if rotations_done < mid_rotations {
                    drained.extend(log.rotate(&mut cursor).entries);
                    rotations_done += 1;
                    // Walk the regime ladder: one publish per mid-rotation
                    // (recorded in ground truth *before* the word lands, so
                    // an observed-but-unrecorded publish cannot exist).
                    let flips = lock(&truth).published_regimes.len() as u64 - 1;
                    if flips < regime_flips {
                        let regime = REGIME_LADDER[(flips % 4) as usize];
                        let epoch = u32::try_from(flips + 1).unwrap_or(u32::MAX);
                        lock(&truth).published_regimes.push((regime, epoch));
                        log.set_regime(regime, epoch);
                    }
                } else {
                    // Out of rotation budget and writers still running:
                    // park until some writer makes progress (every writer
                    // step that matters is a store/RMW).
                    log.shm().spin_hint();
                }
            }
            lock(&truth).drained = drained;
        }));
    }
    if cfg.observer_reads > 0 {
        let log = log.clone();
        let truth = Arc::clone(&truth);
        let writers = cfg.writers;
        let reads = cfg.observer_reads;
        let batch_slots = cfg.batch_slots.max(1);
        jobs.push(Box::new(move || {
            for _ in 0..reads {
                let observed = log.dropped_total();
                let t = lock(&truth);
                // Each writer still inside the protocol can have raised the
                // tail by at most one reservation whose append has not
                // returned yet: `batch_slots` slots (the over-capacity part
                // only counts as a drop until the hand-back lands a few
                // steps later).
                let bound = t.completed_drops + (writers - t.writers_done) as u64 * batch_slots;
                if observed > bound {
                    let detail = format!(
                        "dropped_total()={observed} > bound {bound} \
                         (completed drops {} + {} writers in flight x batch {})",
                        t.completed_drops,
                        writers - t.writers_done,
                        batch_slots
                    );
                    drop(t);
                    lock(&truth).observer_overcounts.push(detail);
                }
            }
        }));
    }

    let rec = fleet.run_execution(jobs, choices, step_budget);
    let violation = match &rec.outcome {
        ExecOutcome::Completed => check_invariants(cfg, &log, &lock(&truth), &rec),
        ExecOutcome::Livelock => Some(Violation {
            kind: ViolationKind::Livelock,
            detail: "all unfinished threads parked in spin-waits with no writer left".to_string(),
            schedule: rec.schedule.clone(),
        }),
        ExecOutcome::Panicked(msg) => Some(Violation {
            kind: ViolationKind::Panic,
            detail: msg.clone(),
            schedule: rec.schedule.clone(),
        }),
        // Abandoned: not a verdict about the protocol. The caller's report
        // marks the exploration truncated.
        ExecOutcome::BudgetExceeded => None,
    };
    (rec, violation)
}

fn check_invariants(
    cfg: &Config,
    log: &SharedLog,
    truth: &Truth,
    rec: &ExecRecord,
) -> Option<Violation> {
    let fail = |kind: ViolationKind, detail: String| {
        Some(Violation {
            kind,
            detail,
            schedule: rec.schedule.clone(),
        })
    };
    if let Some(detail) = truth.observer_overcounts.first() {
        return fail(ViolationKind::ObserverOverCount, detail.clone());
    }
    // Every writer decode of the regime word must name a published
    // `(regime, epoch)` pair, and the corrupt-word fallback must never
    // fire on a log nothing corrupted. A torn (non-atomic) read fails the
    // pair check: it welds one publish's epoch to another's regime.
    for (regime, epoch, fallback) in &truth.regime_observations {
        if *fallback {
            return fail(
                ViolationKind::RegimeDecode,
                format!("corrupt-word fallback on an uncorrupted log (epoch {epoch})"),
            );
        }
        if !truth.published_regimes.contains(&(*regime, *epoch)) {
            return fail(
                ViolationKind::RegimeDecode,
                format!(
                    "writer observed unpublished pair {regime:?}@{epoch} \
                     (published: {:?}) [{}]",
                    truth.published_regimes,
                    cfg.summary()
                ),
            );
        }
    }
    for e in &truth.drained {
        if e.validity() != EntryValidity::Valid {
            return fail(
                ViolationKind::InvalidEntry,
                format!("drained a {:?} record: {e:?}", e.validity()),
            );
        }
    }
    // Exactly-once: compare drained vs written as multisets of addresses
    // (addresses are globally unique by construction).
    let mut counts = std::collections::BTreeMap::<u64, i64>::new();
    for addr in &truth.written {
        *counts.entry(*addr).or_insert(0) += 1;
    }
    for e in &truth.drained {
        *counts.entry(e.addr).or_insert(0) -= 1;
    }
    for (addr, n) in &counts {
        if *n < 0 {
            return fail(
                ViolationKind::DuplicateDrain,
                format!("entry addr {addr} drained {} times", 1 - n),
            );
        }
        if *n > 0 {
            return fail(
                ViolationKind::LostEntry,
                format!("entry addr {addr} written but never drained"),
            );
        }
    }
    let expected_drops = truth.attempts - truth.written.len() as u64;
    let final_drops = log.dropped_total();
    if final_drops != expected_drops {
        return fail(
            ViolationKind::DropAccounting,
            format!(
                "final dropped_total()={final_drops}, ground truth {expected_drops} \
                 ({} attempts, {} stored) [{}]",
                truth.attempts,
                truth.written.len(),
                cfg.summary()
            ),
        );
    }
    let final_abandoned = log.abandoned_total();
    if final_abandoned != truth.expected_abandoned {
        return fail(
            ViolationKind::AbandonAccounting,
            format!(
                "final abandoned_total()={final_abandoned}, ground truth {} [{}]",
                truth.expected_abandoned,
                cfg.summary()
            ),
        );
    }
    if log.writers_in_flight() != 0 {
        return fail(
            ViolationKind::DropAccounting,
            format!(
                "writers_in_flight()={} after completion",
                log.writers_in_flight()
            ),
        );
    }
    None
}
