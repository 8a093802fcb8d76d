//! `teeperf-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke]`
//!
//! Without `--workload` every workload runs in turn. The last line of
//! standard output is the JSON result the driver reads.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use teeperf_benchmark::catalog::WORKLOADS;
use teeperf_benchmark::fleet::{self, Plan};
use teeperf_benchmark::json::Json;
use teeperf_benchmark::report::{self, Header, WorkloadResult};
use teeperf_benchmark::{batch, trace};

/// Segments the measured phase is cut into.
const SEGMENTS: usize = 8;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    teeperfd: PathBuf,
    /// Where the registration directory is created: tmpfs, as deployed.
    shm_parent: PathBuf,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: teeperf-benchmark [--workload {}] [--seed N] [--seconds N] [--trace 0|1] [--smoke] \
         [--teeperfd PATH] [--shm-parent DIR] [--out DIR]",
        WORKLOADS.map(|w| w.name).join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("teeperfd")))
        .unwrap_or_else(|| PathBuf::from("teeperfd"));
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        teeperfd: sibling,
        shm_parent: teeperf_core::shm_file::default_shm_dir(),
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name}\n{}", usage()));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed: not a whole number")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                // NaN fails the range check too.
                if !(0.001..=3600.0).contains(&parsed.seconds) {
                    return Err("--seconds must lie between 0.001 and 3600".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--teeperfd" => parsed.teeperfd = PathBuf::from(value()?),
            "--shm-parent" => parsed.shm_parent = PathBuf::from(value()?),
            "--out" => parsed.out = PathBuf::from(value()?),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if parsed.smoke {
        // Same shapes, at most 2 s per workload; bounds are not meaningful.
        parsed.seconds = parsed.seconds.min(2.0);
    }
    Ok(parsed)
}

/// Run one workload; a traced run also returns its spans.
fn run_workload(
    name: &'static str,
    args: &Args,
) -> std::io::Result<(WorkloadResult, Option<Json>)> {
    let measure = Duration::from_secs_f64(args.seconds);
    let plan = Plan {
        warmup: if args.smoke {
            Duration::from_millis(200)
        } else {
            Duration::from_secs(1)
        },
        measure,
        segments: SEGMENTS,
        setups: if args.smoke { 1 } else { 3 },
    };
    if args.trace {
        let traced = trace::run(name, &plan, args.seed, &args.teeperfd, &args.shm_parent)?;
        return Ok((traced.result, Some(traced.spans)));
    }
    let result = match fleet::shape_of(name) {
        Some(shape) => fleet::run(&shape, &plan, args.seed, &args.teeperfd, &args.shm_parent)?.0,
        None => batch::run(args.seed, measure, plan.setups, &args.shm_parent)?,
    };
    Ok((result, None))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|only| only == *name));
    let mut results = Vec::new();
    let mut spans = Vec::new();
    for name in names {
        match run_workload(name, &args) {
            Ok((result, traced)) => {
                result.print();
                results.push(result);
                spans.extend(traced.map(|s| (name.to_string(), s)));
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let header = Header {
        seed: args.seed,
        seconds: args.seconds,
        segments: SEGMENTS,
        smoke: args.smoke,
        traced: args.trace,
    };
    if let Err(e) = report::write_results(&args.out, &header, &results, spans) {
        eprintln!("writing results: {e}");
        return ExitCode::from(1);
    }
    // The driver reads the last line; with several workloads it is the
    // last workload's.
    if let Some(last) = results.last() {
        println!("{}", last.result_line());
    }
    if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
