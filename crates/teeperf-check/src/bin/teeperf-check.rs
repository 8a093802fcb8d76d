//! Schedule-exploring model checker for the lock-free shared-memory log.
//!
//! ```text
//! teeperf-check --smoke                 # per-PR entry point: the two small
//!                                       # exhaustive configs + seeded PCT
//!                                       # sweeps + mutation detection
//! teeperf-check --exhaustive            # --smoke plus the two large clean
//!                                       # exhaustive configs (batched,
//!                                       # regime) — minutes, not seconds
//! teeperf-check --mutation <name>       # hunt one mutation (dfs then pct)
//! teeperf-check --pct N --seed S        # seeded random sweep only
//! teeperf-check --replay <trace-file>   # re-run a recorded regression
//!                                       # trace; fails unless the expected
//!                                       # violation is re-found
//! teeperf-check --record <trace-file> --mutation <name>
//!                                       # hunt, then write the finding as
//!                                       # a replayable trace file
//! ```
//!
//! Exit status: 0 when every expectation holds (clean configs stay clean,
//! armed mutations are caught, replays re-find their violation), 1
//! otherwise, 2 on usage errors.

#![forbid(unsafe_code)]

use teeperf_check::explore::{self, CheckReport};
use teeperf_check::harness::{Config, MutationKind};

/// Preemption bound for exhaustive runs; both historical bug classes need
/// exactly one forced switch, so 2 adds safety margin while staying small.
const DFS_PREEMPTION_BOUND: usize = 2;
/// Cap on executions per exhaustive run (honestly reported as truncation
/// if hit; the smoke configs finish well under it).
const DFS_EXECUTION_CAP: usize = 200_000;
/// PCT depth (number of priority change points + 1).
const PCT_DEPTH: usize = 3;

fn usage() -> ! {
    eprintln!(
        "usage: teeperf-check --smoke | --exhaustive\n\
         \x20      teeperf-check --mutation <none|stale-slot-resurrection|drop-double-count\n\
         \x20                    |abandoned-as-dropped|torn-regime-read>\n\
         \x20                    [--pct N] [--seed S] [--record <file>]\n\
         \x20      teeperf-check --pct N [--seed S]\n\
         \x20      teeperf-check --replay <trace-file>"
    );
    std::process::exit(2);
}

/// Small config whose bounded schedule space is fully enumerable; the
/// stale-slot bug is reachable here with one preemption. No observer: the
/// extra role inflates the bounded space past what exhaustion can cover in
/// a smoke budget, and only the drop-accounting invariant needs it.
fn small_config(mutation: MutationKind) -> Config {
    Config {
        writers: 2,
        entries_per_writer: 1,
        capacity: 1,
        mid_rotations: 1,
        observer_reads: 0,
        batch_slots: 1,
        regime_flips: 0,
        mutation,
    }
}

/// [`small_config`] plus the concurrent `dropped_total()` observer — the
/// role that can see transient drop double-counting.
fn observer_config(mutation: MutationKind) -> Config {
    Config {
        observer_reads: 2,
        ..small_config(mutation)
    }
}

/// Larger config for the PCT sweep: enough writers and epochs that
/// interesting interleavings are dense, too many to enumerate.
fn sweep_config(mutation: MutationKind) -> Config {
    Config {
        writers: 3,
        entries_per_writer: 2,
        capacity: 2,
        mid_rotations: 2,
        observer_reads: 3,
        batch_slots: 1,
        regime_flips: 0,
        mutation,
    }
}

/// Small batched config whose bounded space is still enumerable: two
/// writers claiming runs of two slots over a three-slot log, so one run
/// always straddles the capacity edge and hands back its over-capacity
/// remainder. The abandoned-slot accounting bugs are reachable here.
fn batched_config(mutation: MutationKind) -> Config {
    Config {
        writers: 2,
        entries_per_writer: 2,
        capacity: 3,
        mid_rotations: 1,
        observer_reads: 0,
        batch_slots: 2,
        regime_flips: 0,
        mutation,
    }
}

/// Small regime-flipping config whose bounded space is still enumerable:
/// two writers decode the regime word before each append while the drainer
/// publishes one flip at its mid-rotation. The torn regime read needs one
/// preemption (flip lands between a decode's two halves) to surface.
fn regime_config(mutation: MutationKind) -> Config {
    Config {
        entries_per_writer: 2,
        capacity: 2,
        regime_flips: 1,
        ..small_config(mutation)
    }
}

/// [`sweep_config`] with regime flips at every mid-rotation, for PCT over
/// decode/publish interleavings (and exactly-once drain across flips).
fn regime_sweep_config(mutation: MutationKind) -> Config {
    Config {
        regime_flips: 2,
        ..sweep_config(mutation)
    }
}

/// [`sweep_config`] with batched reservation, for PCT over the
/// reserve-run/publish/abandon interleavings of the batched protocol.
fn batched_sweep_config(mutation: MutationKind) -> Config {
    Config {
        batch_slots: 2,
        ..sweep_config(mutation)
    }
}

/// The PCT sweep config that can expose `mutation`: the abandoned-slot
/// mutation needs hand-backs, which only batched reservation produces.
fn sweep_for(mutation: MutationKind) -> Config {
    match mutation {
        MutationKind::AbandonedAsDropped => batched_sweep_config(mutation),
        // The torn read needs regime publishes to tear against.
        MutationKind::TornRegimeRead => regime_sweep_config(mutation),
        _ => sweep_config(mutation),
    }
}

/// Run one check and assert the expectation; prints the report either way.
fn expect(report: &CheckReport, expect_violation: bool) -> bool {
    println!("{}", report.summary());
    if expect_violation == report.violation.is_some() {
        return true;
    }
    if expect_violation {
        eprintln!("FAIL: armed mutation survived the schedule budget");
    } else {
        eprintln!("FAIL: the clean protocol violated an invariant");
        if let Some(v) = &report.violation {
            eprintln!("  {v}");
            eprintln!("  replay schedule: {:?}", v.schedule);
        }
    }
    false
}

/// Hunt a mutation: exhaustive DFS on the smallest config that can expose
/// it first, then a PCT sweep on the larger one. Returns the first finding
/// report.
fn hunt(mutation: MutationKind, pct_schedules: usize, base_seed: u64) -> CheckReport {
    let dfs_config = match mutation {
        // Transient over-counts are only visible to the observer role.
        MutationKind::DroppedDoubleCount => observer_config(mutation),
        // Mis-charged hand-backs need batched reservation to exist at all.
        MutationKind::AbandonedAsDropped => batched_config(mutation),
        // A torn decode needs a regime publish to tear against.
        MutationKind::TornRegimeRead => regime_config(mutation),
        _ => small_config(mutation),
    };
    let dfs = explore::check_exhaustive(&dfs_config, DFS_PREEMPTION_BOUND, DFS_EXECUTION_CAP);
    if dfs.violation.is_some() || mutation == MutationKind::None {
        // For the clean protocol the caller wants both phases; for a
        // mutation the DFS finding is already the answer.
        if dfs.violation.is_some() {
            return dfs;
        }
    }
    println!("{}", dfs.summary());
    explore::check_pct(&sweep_for(mutation), PCT_DEPTH, base_seed, pct_schedules)
}

/// Every check: `exhaustive` adds the two large clean DFS runs (1c, 1d) to
/// the set `--smoke` runs — seven eighths of the wall time, and needed
/// only when the protocol or the checker itself changed.
fn check_all(exhaustive: bool) -> bool {
    let mut ok = true;
    // 1. Clean protocol, exhaustively: every schedule with <= 2 preemptions
    //    of the small config upholds every invariant.
    let clean_dfs = explore::check_exhaustive(
        &small_config(MutationKind::None),
        DFS_PREEMPTION_BOUND,
        DFS_EXECUTION_CAP,
    );
    ok &= expect(&clean_dfs, false);
    if !clean_dfs.exhausted {
        eprintln!("FAIL: smoke DFS did not exhaust its bounded space");
        ok = false;
    }
    // 1b. Same, with the concurrent observer role, under a tighter
    //     preemption bound (the fourth role inflates the bound-2 space
    //     past a smoke budget; one preemption still covers every
    //     single-switch interleaving of reads against the rotation).
    let clean_obs =
        explore::check_exhaustive(&observer_config(MutationKind::None), 1, DFS_EXECUTION_CAP);
    ok &= expect(&clean_obs, false);
    if !clean_obs.exhausted {
        eprintln!("FAIL: smoke observer DFS did not exhaust its bounded space");
        ok = false;
    }
    // 1c. Clean batched protocol, exhaustively: every schedule of the
    //     reserve-run/publish/abandon state machine with <= 2 preemptions
    //     upholds exactly-once drain and abandoned-slot accounting.
    // 1d. Clean regime-flipping protocol, exhaustively: whole-word decodes
    //     always name a published `(regime, epoch)` pair, and exactly-once
    //     drain holds across every transition interleaving.
    if exhaustive {
        for (name, config) in [
            ("batched", batched_config(MutationKind::None)),
            ("regime", regime_config(MutationKind::None)),
        ] {
            let clean = explore::check_exhaustive(&config, DFS_PREEMPTION_BOUND, DFS_EXECUTION_CAP);
            ok &= expect(&clean, false);
            if !clean.exhausted {
                eprintln!("FAIL: {name} DFS did not exhaust its bounded space");
                ok = false;
            }
        }
    }
    // 2. Clean protocol, 200 seeded PCT schedules of the larger config,
    //    classic, batched, and regime-flipping.
    let clean_pct = explore::check_pct(&sweep_config(MutationKind::None), PCT_DEPTH, 1, 200);
    ok &= expect(&clean_pct, false);
    let clean_batched_pct =
        explore::check_pct(&batched_sweep_config(MutationKind::None), PCT_DEPTH, 1, 200);
    ok &= expect(&clean_batched_pct, false);
    let clean_regime_pct =
        explore::check_pct(&regime_sweep_config(MutationKind::None), PCT_DEPTH, 1, 200);
    ok &= expect(&clean_regime_pct, false);
    // 3. Each historical bug class, re-introduced, is caught.
    for mutation in [
        MutationKind::StaleSlotResurrection,
        MutationKind::DroppedDoubleCount,
        MutationKind::AbandonedAsDropped,
        MutationKind::TornRegimeRead,
    ] {
        let found = hunt(mutation, 200, 1);
        ok &= expect(&found, true);
        // 4. The recorded evidence replays deterministically.
        if let Some(v) = &found.violation {
            let replayed = explore::replay(&found.config, v.schedule.clone());
            match replayed {
                Some(rv) if rv.kind == v.kind => {
                    println!(
                        "  replay({} steps) re-found {}",
                        v.schedule.len(),
                        rv.kind.name()
                    );
                }
                other => {
                    eprintln!(
                        "FAIL: schedule replay for {} found {:?}, expected {}",
                        mutation.name(),
                        other.map(|v| v.kind.name().to_string()),
                        v.kind.name()
                    );
                    ok = false;
                }
            }
        }
    }
    ok
}

fn replay_trace(path: &str) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("read {path}: {e}");
            return false;
        }
    };
    let (cfg, depth, seed, expect_kind) = match explore::parse_trace(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("parse {path}: {e}");
            return false;
        }
    };
    let report = explore::replay_seed(&cfg, depth, seed);
    println!("{}", report.summary());
    let found = report
        .violation
        .as_ref()
        .map_or("none".to_string(), |v| v.kind.name().to_string());
    if found == expect_kind {
        println!("trace {path}: re-found `{expect_kind}` from seed {seed}");
        true
    } else {
        eprintln!("FAIL: trace {path} expected `{expect_kind}`, got `{found}`");
        false
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke_mode = false;
    let mut exhaustive = false;
    let mut mutation: Option<MutationKind> = None;
    let mut pct: Option<usize> = None;
    let mut seed = 1u64;
    let mut replay_path: Option<String> = None;
    let mut record_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--smoke" => smoke_mode = true,
            "--exhaustive" => exhaustive = true,
            "--mutation" => {
                let v = value("--mutation");
                mutation = Some(MutationKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown mutation: {v}");
                    usage()
                }));
            }
            "--pct" => {
                let v = value("--pct");
                pct = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --pct count: {v}");
                    usage()
                }));
            }
            "--seed" => {
                let v = value("--seed");
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --seed: {v}");
                    usage()
                });
            }
            "--replay" => replay_path = Some(value("--replay")),
            "--record" => record_path = Some(value("--record")),
            _ => {
                eprintln!("unknown argument: {arg}");
                usage()
            }
        }
    }

    let ok = if smoke_mode || exhaustive {
        check_all(exhaustive)
    } else if let Some(path) = replay_path {
        replay_trace(&path)
    } else if let Some(mutation) = mutation {
        let report = if record_path.is_some() {
            // A recorded trace replays a single PCT seed, so the hunt must
            // come from the PCT phase; skip the DFS one.
            explore::check_pct(&sweep_for(mutation), PCT_DEPTH, seed, pct.unwrap_or(200))
        } else {
            hunt(mutation, pct.unwrap_or(200), seed)
        };
        let ok = expect(&report, mutation != MutationKind::None);
        if ok {
            if let (Some(path), Some(found_seed)) = (&record_path, report.seed) {
                let text = explore::format_trace(&report.config, PCT_DEPTH, found_seed, &report);
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("write {path}: {e}");
                    std::process::exit(1);
                }
                println!("recorded trace to {path}");
            } else if record_path.is_some() {
                eprintln!("note: --record needs a PCT finding (none recorded)");
            }
        }
        ok
    } else if let Some(schedules) = pct {
        let report = explore::check_pct(
            &sweep_config(MutationKind::None),
            PCT_DEPTH,
            seed,
            schedules,
        );
        expect(&report, false)
    } else {
        usage()
    };
    std::process::exit(i32::from(!ok));
}
