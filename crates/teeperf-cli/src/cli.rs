//! Command implementations, kept pure enough to unit-test: every command
//! returns the text it would print. Each command is a row of [`COMMANDS`]:
//! a name, the flags it declares ([`teeperf_daemon::flags`]) and the
//! function that runs a parsed argv.

use std::fmt::Write as _;

use mcvm::{DebugInfo, RunConfig};
use tee_sim::{CostModel, TeeKind, TransitionMode};
use teeperf_analyzer::Analyzer;
use teeperf_compiler::{compile_instrumented, profile_program, run_native, InstrumentOptions};
use teeperf_core::{EventSource, FileShmSource, LogFile, RecorderConfig};
use teeperf_daemon::flags::{self, Command, Flag, Parsed, IN_PROCESS_FLAGS, SESSION_FLAGS};
use teeperf_flamegraph::{FlameGraph, SvgOptions};
use teeperf_live::{live_profile_processes, LiveRunConfig, Snapshot};

/// A CLI failure with a user-facing message and a process exit code.
#[derive(Debug)]
pub struct CliError {
    /// What went wrong, user-facing.
    pub message: String,
    /// Exit code for the process: 1 for usage and pipeline errors, 2 when
    /// a named input path does not exist or cannot be read/parsed — so
    /// scripts can tell "bad invocation" from "bad file" without grepping
    /// stderr.
    pub code: u8,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Flag errors ([`Command::parse`], the typed getters) are usage errors.
impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError { message, code: 1 }
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError::from(msg.into())
}

/// A per-path failure: the message always leads with the offending path,
/// and the process exits with code 2.
fn path_err(path: &str, e: impl std::fmt::Display) -> CliError {
    CliError {
        message: format!("{path}: {e}"),
        code: 2,
    }
}

const ARCH_FLAGS: &[Flag] = &[
    Flag::value("arch", "<kind>", "see `teeperf archs` (default sgx-v1)"),
    Flag::value("transition-mode", "<mode>", "classic (default)|switchless"),
];
const BATCH: Flag = Flag::value("batch-slots", "<n>", "log slots per tail RMW (default 1)");
const SALVAGE: Flag = Flag::value("salvage", "yes|no", "keep a torn log's valid records");
const THREADS: Flag = Flag::value(
    "analyzer-threads",
    "<n>",
    "shards (default 1; 0 = all cores)",
);
const RECORDING_FLAGS: &[Flag] = &[SALVAGE, THREADS];

const COMPILE: Command = Command {
    operands: "<prog.mc>",
    about: "compile Mini-C to an object file, instrumented for recording",
    groups: &[&[
        Flag::value("out", "<prog.tpo>", "default: beside the source"),
        Flag::value("instrument", "yes|no", "insert the hooks (default yes)"),
        Flag::value("only", "<fn,fn>", "instrument these functions only"),
    ]],
};
const RUN: Command = Command {
    operands: "<prog.mc|prog.tpo>",
    about: "run a program uninstrumented and report its modelled cycles",
    groups: &[ARCH_FLAGS],
};
const RECORD_FLAGS: &[Flag] = &[
    Flag::value("out", "<base>", "default: the program's basename"),
    Flag::value("max-entries", "<n>", "log capacity (default 1048576)"),
    Flag::value("pid", "<n>", "header pid (default: this process's)"),
    BATCH,
];
const RECORD: Command = Command {
    operands: "<prog.mc|prog.tpo>",
    about: "run a program under the recorder and save <base>.tplog + <base>.sym",
    groups: &[ARCH_FLAGS, RECORD_FLAGS],
};
const LIVE_FLAGS: &[Flag] = &[
    Flag::value("max-entries", "<n>", "log capacity (default 1024)"),
    Flag::value("refresh", "<events>", "events per rendered flame view"),
    Flag::value("frames", "yes|no", "print the flame views (default no)"),
    Flag::value("svg", "<file>", "write the final flame graph here"),
    Flag::value("out", "<base>", "write the snapshot to <base>.live"),
    Flag::value("follow-pids", "<n>", "n simulated processes (1..=64)"),
    BATCH,
];
const LIVE: Command = Command {
    operands: "<prog.mc|prog.tpo>",
    about: "profile continuously over a small rotating log\n\
            one program, or n simulated processes of it (--follow-pids)",
    groups: &[ARCH_FLAGS, LIVE_FLAGS, IN_PROCESS_FLAGS, SESSION_FLAGS],
};
const ANALYZE: Command = Command {
    operands: "<base.tplog> <base.sym>",
    about: "print the per-method report of a recording or a deployed session's log",
    groups: &[RECORDING_FLAGS],
};
const CONNECT_FLAGS: &[Flag] = &[Flag::value("connect", "<addr>", "the daemon to ask")];
const QUERY: Command = Command {
    operands: "<base.tplog> <base.sym> <query> | [windows | <clause> ...]",
    about: "query a recorded log, or with --connect a daemon's retention rings\n\
            query: \"select method, calls, excl where excl > 100 sort excl desc limit 10\"\n\
            clauses: windows=all|last:<n>|<a>..=<b>  pid=<n>  method=<substr>  tid=<n>  \
            top=<n>  by=self|total|calls  diff=<a>,<b>\n\
            the single word `windows` fetches the /windows listing instead",
    groups: &[CONNECT_FLAGS, RECORDING_FLAGS],
};
const FLAMEGRAPH_FLAGS: &[Flag] = &[
    Flag::value("svg", "<file>", "write an SVG instead of printing text"),
    Flag::value("title", "<t>", "the SVG's title"),
];
const FLAMEGRAPH: Command = Command {
    operands: "<base.tplog> <base.sym>",
    about: "draw a recorded log's flame graph, as text or SVG",
    groups: &[FLAMEGRAPH_FLAGS, RECORDING_FLAGS],
};
const DIFF_FLAGS: &[Flag] = &[Flag::value("svg", "<file>", "also draw the diff here")];
const DIFF: Command = Command {
    operands: "<a.tplog> <a.sym> <b.tplog> <b.sym>",
    about: "compare two recorded logs by exclusive-time share",
    groups: &[DIFF_FLAGS, &[THREADS]],
};
const BENCH_FLAGS: &[Flag] = &[Flag::value("bench", "<name>", "this benchmark only")];
const PHOENIX: Command = Command {
    operands: "",
    about: "run and verify the Phoenix suite at small scale",
    groups: &[BENCH_FLAGS, ARCH_FLAGS],
};
const TOP_FLAGS: &[Flag] = &[
    Flag::value("iterations", "<n>", "polls (default 0 = forever)"),
    Flag::value("interval-ms", "<n>", "between polls (default 1000)"),
    Flag::value("window", "<n>", "newest n retained windows instead"),
];
const TOP: Command = Command {
    operands: "",
    about: "poll a daemon's /snapshot and render its method table, diffed poll to poll",
    groups: &[CONNECT_FLAGS, TOP_FLAGS],
};
const ARCHS: Command = Command {
    operands: "",
    about: "list the architectures --arch accepts",
    groups: &[],
};

/// The dispatch table: a command's name, its declared surface, and the
/// function that runs an argv that passed it.
type Run = fn(&Parsed) -> Result<String, CliError>;
const COMMANDS: &[(&str, &Command, Run)] = &[
    ("compile", &COMPILE, cmd_compile),
    ("run", &RUN, cmd_run),
    ("record", &RECORD, cmd_record),
    ("live", &LIVE, cmd_live),
    ("analyze", &ANALYZE, cmd_analyze),
    ("query", &QUERY, cmd_query),
    ("flamegraph", &FLAMEGRAPH, cmd_flamegraph),
    ("diff", &DIFF, cmd_diff),
    ("phoenix", &PHOENIX, cmd_phoenix),
    ("daemon", &teeperf_daemon::DAEMON, cmd_daemon),
    ("top", &TOP, cmd_top),
    ("archs", &ARCHS, cmd_archs),
];

/// `teeperf help`: the command list, generated from [`COMMANDS`].
fn help() -> String {
    let mut out = String::from(
        "usage: teeperf <command> [<operand> ...] [--flag <value> ...]\n       \
         teeperf <command> --help lists that command's flags\n\ncommands:\n",
    );
    for (name, spec, _) in COMMANDS {
        let line = spec.about.lines().next().unwrap_or_default();
        writeln!(out, "  {name:<11}{line}").expect("writing to string");
    }
    out
}

/// Entry point used by `main` and by the tests.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let command = args.first().map_or("help", String::as_str);
    if matches!(command, "help" | "--help" | "-h") {
        return Ok(help());
    }
    let Some((name, spec, run)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(err(format!("unknown command `{command}`\n\n{}", help())));
    };
    let parsed = spec.parse(&format!("teeperf {name}"), &args[1..])?;
    if parsed.help {
        return Ok(parsed.usage());
    }
    run(&parsed)
}

/// The `index`th operand, or an error saying `what` is missing.
fn operand<'a>(args: &'a Parsed, index: usize, what: &str) -> Result<&'a str, CliError> {
    args.positional
        .get(index)
        .map(String::as_str)
        .ok_or_else(|| err(format!("missing {what}\n\n{}", args.usage())))
}

fn arch(args: &Parsed) -> Result<CostModel, CliError> {
    let name = args.text("arch").unwrap_or("sgx-v1");
    let cost = TeeKind::parse(name)
        .map(CostModel::for_kind)
        .ok_or_else(|| err(format!("unknown architecture `{name}`")))?;
    let mode = args.text("transition-mode").unwrap_or("classic");
    let mode = TransitionMode::parse(mode).ok_or_else(|| {
        err(format!(
            "unknown transition mode `{mode}` (want classic|switchless)"
        ))
    })?;
    Ok(cost.with_transition_mode(mode))
}

fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| err(format!("{path}: {e}")))
}

/// What a program printed, then its exit code.
fn program_output(lines: &[String], exit_code: impl std::fmt::Display) -> String {
    let mut out: String = lines.iter().map(|line| format!("{line}\n")).collect();
    writeln!(out, "exit code: {exit_code}").expect("writing to string");
    out
}

fn cmd_archs(_: &Parsed) -> Result<String, CliError> {
    Ok(TeeKind::ALL.map(|k| format!("{}\n", k.name())).concat())
}

/// Load a program from either Mini-C source (`.mc`, compiled on the fly,
/// uninstrumented) or a prebuilt object file (`.tpo`, possibly
/// instrumented by `teeperf compile`).
fn load_program(path: &str, instrument_sources: bool) -> Result<mcvm::CompiledProgram, CliError> {
    if path.ends_with(".tpo") {
        let bytes = std::fs::read(path).map_err(|e| path_err(path, e))?;
        return mcvm::objfile::from_bytes(&bytes).map_err(|e| path_err(path, e));
    }
    let source = std::fs::read_to_string(path).map_err(|e| path_err(path, e))?;
    if instrument_sources {
        compile_instrumented(&source, &InstrumentOptions::default()).map_err(|e| err(e.to_string()))
    } else {
        mcvm::compile(&source).map_err(|e| err(e.to_string()))
    }
}

fn cmd_compile(args: &Parsed) -> Result<String, CliError> {
    let path = operand(args, 0, "program path")?;
    let source = std::fs::read_to_string(path).map_err(|e| path_err(path, e))?;
    let program = if args.yes_no("instrument")?.unwrap_or(true) {
        let options = match args.text("only") {
            Some(names) => InstrumentOptions {
                filter: Some(teeperf_compiler::NameFilter::include(names.split(','))),
            },
            None => InstrumentOptions::default(),
        };
        compile_instrumented(&source, &options).map_err(|e| err(e.to_string()))?
    } else {
        mcvm::compile(&source).map_err(|e| err(e.to_string()))?
    };
    let out = args
        .text("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}.tpo", path.trim_end_matches(".mc")));
    write_file(&out, mcvm::objfile::to_bytes(&program))?;
    let hooks = program
        .functions
        .iter()
        .flat_map(|f| &f.code)
        .filter(|i| i.is_hook())
        .count();
    Ok(format!(
        "compiled {} functions ({} instructions, {hooks} hooks) -> {out}\n",
        program.functions.len(),
        program.instruction_count(),
    ))
}

fn cmd_run(args: &Parsed) -> Result<String, CliError> {
    let path = operand(args, 0, "program path")?;
    let cost = arch(args)?;
    let kind = cost.kind;
    let program = load_program(path, false)?;
    let run = run_native(program, cost, RunConfig::default(), |_| Ok(()))
        .map_err(|e| err(e.to_string()))?;
    let mut out = program_output(&run.output, run.exit_code);
    writeln!(
        out,
        "{} cycles on {kind} ({} instructions)",
        run.cycles, run.instructions
    )
    .expect("writing to string");
    Ok(out)
}

fn cmd_record(args: &Parsed) -> Result<String, CliError> {
    let path = operand(args, 0, "program path")?;
    let cost = arch(args)?;
    let kind = cost.kind;
    let base = args
        .text("out")
        .unwrap_or_else(|| path.trim_end_matches(".mc").trim_end_matches(".tpo"));
    let defaults = RecorderConfig::default();
    let recorder = RecorderConfig {
        max_entries: args.num("max-entries")?.unwrap_or(1 << 20),
        // The recording process's real pid unless overridden: simulated
        // multi-process recordings need distinct pids.
        pid: args
            .num_in("pid", 1.., "a nonzero integer")?
            .unwrap_or(defaults.pid),
        batch_slots: args.num_in("batch-slots", 1.., ">= 1")?.unwrap_or(1),
        ..defaults
    };
    let program = load_program(path, true)?;
    let run = profile_program(program, cost, RunConfig::default(), &recorder, |_| Ok(()))
        .map_err(|e| err(e.to_string()))?;

    let log_path = format!("{base}.tplog");
    let sym_path = format!("{base}.sym");
    run.log
        .save(&log_path)
        .map_err(|e| err(format!("{log_path}: {e}")))?;
    write_file(&sym_path, run.debug.to_text())?;

    let mut out = program_output(&run.output, run.exit_code);
    writeln!(
        out,
        "recorded {} events in {} cycles on {kind}",
        run.log.entries.len(),
        run.cycles
    )
    .expect("writing to string");
    writeln!(out, "log:     {log_path}").expect("writing to string");
    writeln!(out, "symbols: {sym_path}").expect("writing to string");
    Ok(out)
}

/// `teeperf live`: one program under one session, unless
/// `--follow-pids <n>` asks for a multi-process one.
fn cmd_live(args: &Parsed) -> Result<String, CliError> {
    let live = flags::in_process_config(args)?;
    let path = operand(args, 0, "program path")?;
    let cost = arch(args)?;
    let kind = cost.kind;
    // Live mode exists to run unbounded sessions over a *small* log, so the
    // default capacity is three orders of magnitude below `record`'s.
    let max_entries = args.num("max-entries")?.unwrap_or(1 << 10);
    let recorder = RecorderConfig {
        max_entries,
        batch_slots: args.num_in("batch-slots", 1.., ">= 1")?.unwrap_or(1),
        ..RecorderConfig::default()
    };
    let defaults = LiveRunConfig::default();
    let refresh = args.num("refresh")?.unwrap_or(defaults.refresh_events);
    let show_frames = args.yes_no("frames")?.unwrap_or(false);
    // A frame is drawn only to be printed.
    let live = LiveRunConfig {
        live,
        refresh_events: if show_frames { refresh } else { 0 },
        ..defaults
    };
    let follow = args.num_in("follow-pids", 1..=64, "1..=64")?;
    let program = load_program(path, true)?;
    // Pids run from the real host pid upward, under one session registry.
    let base_pid = recorder.pid;
    let pids: Vec<u64> = (0..follow.unwrap_or(1)).map(|i| base_pid + i).collect();
    let run = live_profile_processes(
        &program,
        &cost,
        &RunConfig::default(),
        &recorder,
        &live,
        &pids,
        |_| Ok(()),
    )
    .map_err(|e| err(e.to_string()))?;

    let mut out = String::new();
    if show_frames {
        for (i, frame) in run.frames.iter().enumerate() {
            writeln!(out, "--- refresh {} ---", i + 1).expect("writing to string");
            out.push_str(frame);
            out.push('\n');
        }
    }
    if let Some(count) = follow {
        let status = &run.merged.status;
        writeln!(
            out,
            "{count} simulated processes on {kind} (pids {base_pid}..={}): {} events, {} dropped",
            base_pid + count - 1,
            status.events,
            status.dropped
        )
        .expect("writing to string");
        for (pid, process) in &run.per_pid {
            let banner = process.snapshot.status.banner();
            writeln!(out, "pid {pid}: {banner}").expect("writing to string");
        }
        // The per-process flame view; the `.live` file carries the merged
        // snapshot, `[processes]` included.
        let parts: Vec<teeperf_flamegraph::PidFolded> = run
            .per_pid
            .iter()
            .map(|(pid, p)| (*pid, p.snapshot.profile.folded.as_slice()))
            .collect();
        out.push_str(&teeperf_flamegraph::live::render_ascii_multi(
            &parts, status, 60,
        ));
        let svg = || {
            teeperf_flamegraph::live::render_svg_multi(
                &parts,
                status,
                &SvgOptions::default().with_title("TEE-Perf multi-process live session"),
            )
        };
        write_live_files(&mut out, args, svg, &run.merged)?;
        return Ok(out);
    }
    let process = &run.per_pid[&base_pid];
    let snapshot = &process.snapshot;
    let status = &snapshot.status;
    out.push_str(&program_output(&process.output, process.exit_code));
    writeln!(
        out,
        "live session on {kind}: {} events over {} epochs ({} entries/epoch), {} dropped, {} cycles",
        status.events, status.epoch, max_entries, status.dropped, process.cycles
    )
    .expect("writing to string");
    out.push_str(&status.banner());
    out.push('\n');
    let fg = FlameGraph::from_folded_ids(&snapshot.profile.symbols, &snapshot.profile.folded_ids);
    out.push_str(&fg.to_ascii(60));
    let svg = || {
        teeperf_flamegraph::live::render_svg(
            &snapshot.profile.folded,
            status,
            &SvgOptions::default().with_title("TEE-Perf live session"),
        )
    };
    write_live_files(&mut out, args, svg, snapshot)?;
    Ok(out)
}

/// `--svg` / `--out`: the files a live session leaves behind.
fn write_live_files(
    out: &mut String,
    args: &Parsed,
    svg: impl FnOnce() -> String,
    snapshot: &Snapshot,
) -> Result<(), CliError> {
    if let Some(svg_path) = args.text("svg") {
        write_file(svg_path, svg())?;
        writeln!(out, "wrote {svg_path}").expect("writing to string");
    }
    if let Some(base) = args.text("out") {
        let snap_path = format!("{base}.live");
        write_file(&snap_path, snapshot.to_text())?;
        writeln!(out, "wrote {snap_path}").expect("writing to string");
    }
    Ok(())
}

/// The analyzer over the log image (a recording or a deployed session's
/// `.tplog`) and the `.sym` that are operands `at` and `at + 1`. With
/// `salvage`, a torn or truncated log is drained by a [`FileShmSource`] —
/// the reader the daemon attaches — instead of rejected, and the
/// accounting report is returned for the caller to print.
fn load_analyzer(
    args: &Parsed,
    at: usize,
    salvage: bool,
) -> Result<(Analyzer, Option<teeperf_core::SalvageReport>), CliError> {
    let log_path = operand(args, at, "log path")?;
    let sym_path = operand(args, at + 1, "symbol path")?;
    let threads = args.num("analyzer-threads")?.unwrap_or(1);
    let (log, report) = if salvage {
        let mut src = FileShmSource::open(log_path.as_ref()).map_err(|e| path_err(log_path, e))?;
        let entries = src.drain_to_end().entries;
        (LogFile::new(*src.header(), entries), Some(src.salvage()))
    } else {
        let log = LogFile::load(log_path).map_err(|e| path_err(log_path, e))?;
        (log, None)
    };
    let text = std::fs::read_to_string(sym_path).map_err(|e| path_err(sym_path, e))?;
    let debug =
        DebugInfo::from_text(&text).ok_or_else(|| path_err(sym_path, "malformed symbol file"))?;
    let analyzer = Analyzer::new(log, debug)
        .map_err(|e| err(e.to_string()))?
        .with_analyzer_threads(threads);
    Ok((analyzer, report))
}

fn cmd_analyze(args: &Parsed) -> Result<String, CliError> {
    let (analyzer, salvage) = load_analyzer(args, 0, args.yes_no("salvage")?.unwrap_or(false))?;
    let mut out = String::new();
    if let Some(report) = salvage {
        writeln!(out, "{}", report.to_line()).expect("writing to string");
    }
    out.push_str(&analyzer.report());
    Ok(out)
}

/// `GET path` from the daemon at `addr`; anything but a 200 is an error.
fn daemon_get(addr: &str, path: &str) -> Result<String, CliError> {
    let (status, body) = teeperf_daemon::http::get(addr, path, std::time::Duration::from_secs(5))
        .map_err(|e| err(format!("{addr}: {e}")))?;
    if status != 200 {
        return Err(err(format!(
            "{addr}: {path} returned {status}: {}",
            body.trim()
        )));
    }
    Ok(body)
}

fn cmd_query(args: &Parsed) -> Result<String, CliError> {
    if let Some(addr) = args.text("connect") {
        // Time-travel queries against a running daemon's retention rings:
        // clause tokens are joined with `&` into the `/query` query string
        // (the spec grammar is the same word on the shell and on the wire),
        // and the single word `windows` fetches the `/windows` listing.
        let path = if args.positional.is_empty() || args.positional == ["windows"] {
            "/windows".to_string()
        } else {
            format!("/query?{}", args.positional.join("&"))
        };
        return daemon_get(addr, &path);
    }
    let (analyzer, _) = load_analyzer(args, 0, args.yes_no("salvage")?.unwrap_or(false))?;
    let query = operand(args, 2, "query string")?;
    let result = analyzer.query(query).map_err(|e| err(e.to_string()))?;
    Ok(result.to_table())
}

fn cmd_flamegraph(args: &Parsed) -> Result<String, CliError> {
    let (analyzer, _) = load_analyzer(args, 0, args.yes_no("salvage")?.unwrap_or(false))?;
    let profile = analyzer.profile();
    let fg = FlameGraph::from_folded_ids(&profile.symbols, &profile.folded_ids);
    let mut out = String::new();
    if let Some(svg_path) = args.text("svg") {
        let title = args.text("title").unwrap_or("TEE-Perf Flame Graph");
        let svg = fg.to_svg(&SvgOptions::default().with_title(title));
        write_file(svg_path, svg)?;
        writeln!(out, "wrote {svg_path}").expect("writing to string");
    } else {
        out.push_str(&fg.to_ascii(60));
    }
    Ok(out)
}

fn cmd_diff(args: &Parsed) -> Result<String, CliError> {
    if args.positional.len() != 4 {
        return Err(err(format!(
            "diff needs <a.tplog> <a.sym> <b.tplog> <b.sym>\n\n{}",
            args.usage()
        )));
    }
    let a = load_analyzer(args, 0, false)?.0.profile();
    let b = load_analyzer(args, 2, false)?.0.profile();
    let d = teeperf_analyzer::diff(&a, &b);
    let mut out = String::from(
        "profile diff (delta_pct = b - a in exclusive-time share; negative = improved)\n\n",
    );
    out.push_str(&d.to_table());
    if let Some(svg_path) = args.text("svg") {
        let before = FlameGraph::from_folded_ids(&a.symbols, &a.folded_ids);
        let after = FlameGraph::from_folded_ids(&b.symbols, &b.folded_ids);
        let svg = after.to_diff_svg(
            &before,
            &SvgOptions::default()
                .with_title("Differential flame graph (b vs a)")
                .with_subtitle("red = share grew, blue = share shrank"),
        );
        write_file(svg_path, svg)?;
        out.push_str(&format!("\nwrote differential flame graph: {svg_path}\n"));
    }
    Ok(out)
}

fn cmd_phoenix(args: &Parsed) -> Result<String, CliError> {
    let cost = arch(args)?;
    let kind = cost.kind;
    let only = args.text("bench");
    let mut out = format!("phoenix suite on {kind} (small scale)\n");
    let mut matched = false;
    for b in phoenix::suite(phoenix::Scale::Small, 42) {
        if let Some(name) = only {
            if b.name() != name {
                continue;
            }
        }
        matched = true;
        let vm = phoenix::run_and_verify(b.as_ref(), cost.clone()).map_err(err)?;
        writeln!(
            out,
            "{:20} ok   {:>12} cycles  {:>10} instructions",
            b.name(),
            vm.machine().clock().now(),
            vm.executed_instructions()
        )
        .expect("writing to string");
    }
    if !matched {
        return Err(err(format!(
            "no benchmark named `{}`",
            only.unwrap_or_default()
        )));
    }
    Ok(out)
}

/// `teeperf daemon`: run a fleet profiling daemon in the foreground — the
/// `teeperfd` binary under another name, flags and all. Blocks until
/// `GET /shutdown` or stdin EOF, then returns the closing report (the one
/// command that prints early: the listen banner precedes the loop).
fn cmd_daemon(args: &Parsed) -> Result<String, CliError> {
    teeperf_daemon::launch("teeperf daemon", args).map_err(|(_, message)| err(message))
}

/// A parsed `[methods]` row: name, calls, inclusive ticks, exclusive ticks.
type MethodRow = (String, u64, u64, u64);

/// One rendered `teeperf top` frame: the live counters plus the method
/// table sorted by exclusive ticks, each row diffed against the previous
/// poll. Pure — the wire text in, the frame text out — so the rendering is
/// unit-testable without a daemon.
fn top_frame(
    poll: u64,
    text: &str,
    prev: &[MethodRow],
) -> Result<(String, Vec<MethodRow>), String> {
    let status = Snapshot::summary_from_text(text)?;
    let rows = sorted_method_rows(text)?;
    // Degraded fidelity is never silent: a daemon running under an
    // overhead budget reports its regime, and the badge carries it into
    // every frame header next to the counters it qualifies.
    let badge = match Snapshot::regime_from_text(text)? {
        None => String::new(),
        Some(info) => format!(" [{} \u{00b7} {}]", info.regime, info.confidence()),
    };
    let mut out = format!("--- poll {poll}: {}{badge}\n", status.banner());
    out.push_str(&method_table(&rows, prev));
    Ok((out, rows))
}

/// One rendered `teeperf top --window <n>` frame: a `/query` body for the
/// newest `n` windows re-rendered as the same rolling table. The `[methods]`
/// rows of a query response share the snapshot wire shape, so the windowed
/// frame reuses the snapshot parser; the banner is the span lines the
/// daemon reported instead of the whole-session counters.
fn top_window_frame(
    poll: u64,
    window: u64,
    text: &str,
    prev: &[MethodRow],
) -> Result<(String, Vec<MethodRow>), String> {
    let rows = sorted_method_rows(text)?;
    let spans: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("pid ") && l.contains(" span "))
        .collect();
    let mut out = format!(
        "--- poll {poll}: last {window} windows ({})\n",
        if spans.is_empty() {
            "no spans".to_string()
        } else {
            spans.join("; ")
        }
    );
    out.push_str(&method_table(&rows, prev));
    Ok((out, rows))
}

fn sorted_method_rows(text: &str) -> Result<Vec<MethodRow>, String> {
    let mut rows = Snapshot::methods_from_text(text)?;
    rows.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    Ok(rows)
}

/// The shared table body of both `top` frame renderers: rows sorted by
/// exclusive ticks, each diffed against the previous poll's rows.
fn method_table(rows: &[MethodRow], prev: &[MethodRow]) -> String {
    let mut out = format!(
        "{:<24} {:>8} {:>10} {:>10} {:>10}\n",
        "method", "calls", "incl", "excl", "excl+"
    );
    for (name, calls, incl, excl) in rows {
        let before = prev
            .iter()
            .find(|(n, _, _, _)| n == name)
            .map_or(0, |(_, _, _, e)| *e);
        let delta = excl.saturating_sub(before);
        out.push_str(&format!(
            "{name:<24} {calls:>8} {incl:>10} {excl:>10} {:>10}\n",
            if delta > 0 {
                format!("+{delta}")
            } else {
                "·".to_string()
            }
        ));
    }
    out
}

/// `teeperf top --connect <addr>`: poll a running daemon's `/snapshot` and
/// render it as a rolling method table. The client consumes nothing but
/// the stable snapshot text format — the same bytes a human can curl — so
/// the text format is the wire contract, not an implementation detail.
fn cmd_top(args: &Parsed) -> Result<String, CliError> {
    let addr = args
        .text("connect")
        .ok_or_else(|| err(format!("top needs --connect <addr>\n\n{}", args.usage())))?;
    let iterations: u64 = args.num("iterations")?.unwrap_or(0); // 0 = forever
    let interval = std::time::Duration::from_millis(args.num("interval-ms")?.unwrap_or(1_000));
    let window: Option<u64> = args.num_in("window", 1.., ">= 1")?;
    let path = match window {
        Some(w) => format!("/query?windows=last:{w}"),
        None => "/snapshot".to_string(),
    };
    let mut prev: Vec<(String, u64, u64, u64)> = Vec::new();
    let mut poll = 0u64;
    loop {
        poll += 1;
        let body = daemon_get(addr, &path)?;
        let (frame, rows) = match window {
            Some(w) => top_window_frame(poll, w, &body, &prev),
            None => top_frame(poll, &body, &prev),
        }
        .map_err(|e| err(format!("{addr}: {e}")))?;
        print!("{frame}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
        prev = rows;
        if iterations > 0 && poll >= iterations {
            return Ok(format!("teeperf top: {poll} polls of {addr}\n"));
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teeperf_live::RingConfig;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// A directory of one test's own, `label` naming it, removed on drop:
    /// tests run in parallel, so none may share one.
    struct ScratchDir(std::path::PathBuf);

    impl std::ops::Deref for ScratchDir {
        type Target = std::path::Path;
        fn deref(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir(label: &str) -> ScratchDir {
        let d = std::env::temp_dir().join(format!("teeperf-cli-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        ScratchDir(d)
    }

    #[test]
    fn no_args_prints_usage() {
        let out = dispatch(&[]).unwrap();
        assert!(out.contains("usage:"));
    }

    #[test]
    fn every_command_rejects_an_undeclared_flag_by_name() {
        assert_eq!(COMMANDS.len(), 12);
        for (name, ..) in COMMANDS {
            let e = dispatch(&strs(&[name, "--no-such-flag", "x"])).unwrap_err();
            assert_eq!(e.code, 1, "{name}");
            let message = e.to_string();
            assert!(
                message.starts_with("unknown flag --no-such-flag\n\nusage: teeperf "),
                "{name}: {message}"
            );
            assert!(
                message.contains(&format!("usage: teeperf {name}")),
                "{message}"
            );
        }
        // The regression this grammar exists for: a misspelled --arch used
        // to exit 0 and report sgx-v1 cycles as if they were native ones.
        let e = dispatch(&strs(&[
            "phoenix",
            "--bench",
            "histogram",
            "--arhc",
            "native",
        ]))
        .unwrap_err();
        assert!(e.to_string().starts_with("unknown flag --arhc"), "{e}");
        // A misspelled value of a yes|no flag is no longer read as "no".
        let e = dispatch(&strs(&["live", "x.mc", "--frames", "ye"])).unwrap_err();
        assert_eq!(e.to_string(), "bad --frames `ye` (want yes|no)");
        // Commands without operands refuse strays instead of dropping them.
        assert!(dispatch(&strs(&["archs", "native"])).is_err());
        // A retired mode is refused like any undeclared flag: the fleet
        // post-mortem of finished logs is `teeperf daemon --snapshot-out`.
        let e = dispatch(&strs(&["live", "--logs", "x"])).unwrap_err();
        assert!(e.to_string().starts_with("unknown flag --logs"), "{e}");
    }

    #[test]
    fn help_is_generated_from_the_tables() {
        let listing = dispatch(&strs(&["help"])).unwrap();
        assert_eq!(listing, dispatch(&strs(&["--help"])).unwrap());
        let listed: Vec<&str> = listing
            .lines()
            .skip_while(|l| *l != "commands:")
            .skip(1)
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        let declared: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(listed, declared);

        // Every command answers --help with one line per flag it declares:
        // the flags `live` reads are the flags `live --help` lists.
        for (name, ..) in COMMANDS {
            let usage = dispatch(&strs(&[name, "--help"])).unwrap();
            assert!(
                usage.starts_with(&format!("usage: teeperf {name}")),
                "{usage}"
            );
        }
        let flags_of = |name: &str| -> Vec<String> {
            dispatch(&strs(&[name, "-h"]))
                .unwrap()
                .lines()
                .filter_map(|l| l.strip_prefix("  --"))
                .map(|l| l.split(' ').next().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            flags_of("live"),
            [
                "arch",
                "transition-mode",
                "max-entries",
                "refresh",
                "frames",
                "svg",
                "out",
                "follow-pids",
                "batch-slots",
                "watermark",
                "window-interval",
                "retain",
                "max-width",
                "overhead-budget"
            ]
        );
        assert!(flags_of("daemon").contains(&"max-width".to_string()));
        assert_eq!(
            flags_of("query"),
            ["connect", "salvage", "analyzer-threads"]
        );
        assert!(flags_of("archs").is_empty());
    }

    #[test]
    fn top_frame_diffs_against_the_previous_poll() {
        let text = "[live]\nepoch 0\nevents 8\ndropped 0\nthreads 1\nopen 0\ntotal_ticks 100\n\
                    [methods]\nwork 2 80 60\nmain 1 100 40\n[folded]\nmain;work 60\n";
        let (frame, rows) = top_frame(1, text, &[]).unwrap();
        assert!(frame.contains("--- poll 1:"), "{frame}");
        // Sorted by exclusive ticks, first poll shows the full count as new.
        let work_line = frame.lines().find(|l| l.starts_with("work")).unwrap();
        assert!(work_line.ends_with("+60"), "{work_line}");
        assert_eq!(rows[0].0, "work");

        // Second poll: only the growth since the previous rows is marked.
        let text2 = text.replace("work 2 80 60", "work 3 95 75");
        let (frame2, _) = top_frame(2, &text2, &rows).unwrap();
        let work_line = frame2.lines().find(|l| l.starts_with("work")).unwrap();
        assert!(work_line.ends_with("+15"), "{work_line}");
        let main_line = frame2.lines().find(|l| l.starts_with("main")).unwrap();
        assert!(
            main_line.ends_with('·'),
            "unchanged rows show a dot: {main_line}"
        );
    }

    #[test]
    fn top_frame_rejects_unparseable_snapshots() {
        assert!(top_frame(1, "not a snapshot", &[]).is_err());
        assert!(top_frame(1, "[live]\nepoch 0\n", &[]).is_err());
    }

    #[test]
    fn top_frame_badges_a_degraded_regime() {
        let text = "[live]\nepoch 0\nevents 8\ndropped 4\nthreads 1\nopen 0\ntotal_ticks 100\n\
                    [regime]\nmode sampled 1/4\nbudget 5\ntransitions 1\nestimated_events 32\n\
                    faults 0\nconfidence estimated\n\
                    [methods]\nwork 2 80 60\n[folded]\nwork 60\n";
        let (frame, _) = top_frame(1, text, &[]).unwrap();
        let header = frame.lines().next().unwrap();
        assert!(
            header.contains("[sampled(1/4) \u{00b7} estimated]"),
            "{header}"
        );
        // No [regime] section, no badge — full-fidelity output is unchanged.
        let plain = "[live]\nepoch 0\nevents 8\ndropped 0\nthreads 1\nopen 0\ntotal_ticks 100\n\
                     [methods]\nwork 2 80 60\n[folded]\nwork 60\n";
        let (frame, _) = top_frame(1, plain, &[]).unwrap();
        let header = frame.lines().next().unwrap();
        assert!(!header.contains('['), "{header}");
    }

    #[test]
    fn top_polls_a_live_daemon_over_tcp() {
        use teeperf_core::layout::{EventKind, LogEntry};
        use teeperf_core::log::make_header;
        use teeperf_core::shm_file::{publish_sidecar, FileShmWriter};

        let dir = tmpdir("top");
        let debug = mcvm::DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)]);
        publish_sidecar(&dir, 41, "sym", &debug.to_text()).unwrap();
        let mut w = FileShmWriter::create(&dir, &make_header(41, 64, true, 0, 0)).unwrap();
        let (a0, a1) = (debug.entry_addr(0), debug.entry_addr(1));
        let e = |kind, counter, addr| LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        };
        w.write(&e(EventKind::Call, 1, a0)).unwrap();
        w.write(&e(EventKind::Call, 10, a1)).unwrap();
        w.write(&e(EventKind::Return, 60, a1)).unwrap();
        w.write(&e(EventKind::Return, 101, a0)).unwrap();
        w.finish().unwrap();

        let daemon = teeperf_daemon::Daemon::new(teeperf_daemon::DaemonConfig {
            dir: dir.to_path_buf(),
            listen: "127.0.0.1:0".to_string(),
            pump_interval: std::time::Duration::from_millis(1),
            ..teeperf_daemon::DaemonConfig::default()
        })
        .unwrap()
        .without_liveness_probe();
        let addr = daemon.addr().to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || daemon.run(&rx));

        let out = dispatch(&strs(&[
            "top",
            "--connect",
            &addr,
            "--iterations",
            "2",
            "--interval-ms",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("2 polls"), "{out}");

        tx.send("test done".to_string()).unwrap();
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.attached, vec![41]);

        // Usage errors: missing --connect, unreachable daemon.
        assert!(dispatch(&strs(&["top"])).is_err());
        let e = dispatch(&strs(&[
            "top",
            "--connect",
            "127.0.0.1:1",
            "--iterations",
            "1",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("127.0.0.1:1"));
    }

    #[test]
    fn top_window_frame_renders_query_bodies() {
        let text = "[query]\nspec windows=last:2&top=0\n\
                    pid 41 span 3..=6 ticks 48..=111 calls 2\n\
                    [methods]\nwork 1 50 50\nmain 1 100 40\n";
        let (frame, rows) = top_window_frame(1, 2, text, &[]).unwrap();
        assert!(
            frame.contains("--- poll 1: last 2 windows (pid 41 span 3..=6"),
            "{frame}"
        );
        assert_eq!(rows[0].0, "work", "sorted by exclusive ticks");
        let work_line = frame.lines().find(|l| l.starts_with("work")).unwrap();
        assert!(work_line.ends_with("+50"), "{work_line}");

        // A span-less body still renders (empty table, honest banner).
        let (frame, rows) = top_window_frame(2, 2, "[query]\nspec x\n[methods]\n", &rows).unwrap();
        assert!(frame.contains("(no spans)"), "{frame}");
        assert!(rows.is_empty());

        assert!(top_window_frame(1, 2, "not a query body", &[]).is_err());
    }

    #[test]
    fn query_connect_and_windowed_top_against_a_retaining_daemon() {
        use teeperf_core::layout::{EventKind, LogEntry};
        use teeperf_core::log::make_header;
        use teeperf_core::shm_file::{publish_sidecar, FileShmWriter};

        let dir = tmpdir("query");
        let debug = mcvm::DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)]);
        publish_sidecar(&dir, 41, "sym", &debug.to_text()).unwrap();
        let mut w = FileShmWriter::create(&dir, &make_header(41, 64, true, 0, 0)).unwrap();
        let (a0, a1) = (debug.entry_addr(0), debug.entry_addr(1));
        let e = |kind, counter, addr| LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        };
        w.write(&e(EventKind::Call, 1, a0)).unwrap();
        w.write(&e(EventKind::Call, 10, a1)).unwrap();
        w.write(&e(EventKind::Return, 60, a1)).unwrap();
        w.write(&e(EventKind::Return, 101, a0)).unwrap();
        w.finish().unwrap();

        let daemon = teeperf_daemon::Daemon::new(teeperf_daemon::DaemonConfig {
            dir: dir.to_path_buf(),
            listen: "127.0.0.1:0".to_string(),
            pump_interval: std::time::Duration::from_millis(1),
            retention: Some(RingConfig {
                interval: 16,
                ..RingConfig::default()
            }),
            ..teeperf_daemon::DaemonConfig::default()
        })
        .unwrap()
        .without_liveness_probe();
        let addr = daemon.addr().to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || daemon.run(&rx));

        // The daemon attaches the writer asynchronously: poll until the
        // retention ring answers.
        let mut listing = String::new();
        for _ in 0..2_000 {
            let out = dispatch(&strs(&["query", "--connect", &addr, "windows"])).unwrap();
            if out.contains("window 6..=6") {
                listing = out;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // work exits at tick 60 -> window 3; main at 101 -> window 6.
        assert!(listing.contains("pid 41 interval 16"), "{listing}");
        assert!(listing.contains("window 3..=3"), "{listing}");
        assert!(listing.contains("window 6..=6"), "{listing}");

        // Spec clauses are positional tokens, joined with `&` on the wire.
        let out = dispatch(&strs(&[
            "query",
            "--connect",
            &addr,
            "windows=3..=3",
            "pid=41",
        ]))
        .unwrap();
        assert!(out.contains("pid 41 span 3..=3"), "{out}");
        assert!(out.contains("work 1 50 50"), "{out}");
        assert!(!out.contains("main"), "main exits outside window 3: {out}");

        let out = dispatch(&strs(&[
            "query",
            "--connect",
            &addr,
            "windows=all",
            "top=5",
        ]))
        .unwrap();
        assert!(out.contains("work"), "{out}");
        assert!(out.contains("main"), "{out}");

        // A malformed clause surfaces the daemon's 400 with the offender.
        let e = dispatch(&strs(&["query", "--connect", &addr, "windows=sideways"])).unwrap_err();
        assert!(e.to_string().contains("400"), "{e}");
        assert!(e.to_string().contains("sideways"), "{e}");

        // An out-of-range window is a 404, not an empty table.
        let e = dispatch(&strs(&["query", "--connect", &addr, "windows=9..=9"])).unwrap_err();
        assert!(e.to_string().contains("404"), "{e}");

        // top --window renders frames from the same /query endpoint.
        let out = dispatch(&strs(&[
            "top",
            "--connect",
            &addr,
            "--window",
            "8",
            "--iterations",
            "2",
            "--interval-ms",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("2 polls"), "{out}");
        assert!(dispatch(&strs(&["top", "--connect", &addr, "--window", "0"])).is_err());

        tx.send("test done".to_string()).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn daemon_command_rejects_bad_flags() {
        for bad in [
            &["daemon", "--pump-ms", "x"][..],
            &["daemon", "--max-loops", "x"],
        ] {
            assert!(dispatch(&strs(bad)).is_err(), "{bad:?}");
        }
        // The rescan cadence is no longer a knob: a stale script that still
        // passes it is refused like any undeclared flag.
        let e = dispatch(&strs(&["daemon", "--scan-every", "1"])).unwrap_err();
        assert!(e.message.starts_with("unknown flag --scan-every"), "{e}");
        assert_eq!(e.code, 1, "a usage error of `teeperf`");
    }

    #[test]
    fn daemon_command_runs_to_its_loop_limit() {
        let dir = tmpdir("daemon");
        let out = dispatch(&strs(&[
            "daemon",
            "--dir",
            dir.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--pump-ms",
            "1",
            "--max-loops",
            "3",
            "--no-liveness-probe",
        ]))
        .unwrap();
        // Under the test harness stdin is already at EOF, so the run may
        // shut down via the stdin watcher before the loop limit: either
        // way the command returns a clean closing report.
        assert!(out.contains("teeperfd: shut down"), "{out}");
        assert!(out.contains("attached pids: -"), "{out}");
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&strs(&["frobnicate"])).is_err());
    }

    #[test]
    fn archs_lists_all() {
        let out = dispatch(&strs(&["archs"])).unwrap();
        for k in ["native", "sgx-v1", "trustzone"] {
            assert!(out.contains(k));
        }
    }

    #[test]
    fn run_record_analyze_query_flamegraph_pipeline() {
        let dir = tmpdir("pipeline");
        let prog = dir.join("demo.mc");
        std::fs::write(
            &prog,
            "fn work(n: int) -> int { let s: int = 0; for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }
             fn main() -> int { print_int(work(100)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("demo").to_str().unwrap().to_string();

        let out = dispatch(&strs(&["run", &prog, "--arch", "native"])).unwrap();
        assert!(out.contains("4950"));
        assert!(out.contains("exit code: 0"));

        let out = dispatch(&strs(&[
            "record", &prog, "--arch", "sgx-v1", "--out", &base,
        ]))
        .unwrap();
        assert!(out.contains("recorded 4 events"), "{out}");

        let log = format!("{base}.tplog");
        let sym = format!("{base}.sym");
        let out = dispatch(&strs(&["analyze", &log, &sym])).unwrap();
        assert!(out.contains("work"));
        assert!(out.contains("main"));

        // The sharded analyzer must render the identical report.
        let sharded = dispatch(&strs(&["analyze", &log, &sym, "--analyzer-threads", "4"])).unwrap();
        assert_eq!(sharded, out);
        let e = dispatch(&strs(&["analyze", &log, &sym, "--analyzer-threads", "x"])).unwrap_err();
        assert!(e.to_string().contains("analyzer-threads"));

        let out = dispatch(&strs(&[
            "query",
            &log,
            &sym,
            "select method, calls sort calls desc limit 1",
        ]))
        .unwrap();
        assert!(out.contains("method"));

        let out = dispatch(&strs(&["flamegraph", &log, &sym])).unwrap();
        assert!(out.contains("work"));

        let svg = dir.join("demo.svg").to_str().unwrap().to_string();
        dispatch(&strs(&["flamegraph", &log, &sym, "--svg", &svg])).unwrap();
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
    }

    #[test]
    fn query_picks_its_frame_by_the_columns_it_references_not_by_its_text() {
        let dir = tmpdir("columns");
        let prog = dir.join("names.mc");
        std::fs::write(
            &prog,
            "fn kind_of(x: int) -> int { return x + 1; }
             fn stid(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(kind_of(stid(3)) + stid(1)); return 0; }",
        )
        .unwrap();
        let base = dir.join("names").to_str().unwrap().to_string();
        dispatch(&strs(&["record", prog.to_str().unwrap(), "--out", &base])).unwrap();
        let (log, sym) = (format!("{base}.tplog"), format!("{base}.sym"));
        let query = |q: &str| dispatch(&strs(&["query", &log, &sym, q]));
        // A method merely *called* kind_of / stid is a string, not a column:
        // these are methods queries, exactly like the one about main.
        for (method, calls) in [("kind_of", "1"), ("stid", "2"), ("main", "1")] {
            let q = format!(r#"select method, calls where method == "{method}""#);
            let out = query(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
            let row: Vec<&str> = out.lines().last().unwrap().split_whitespace().collect();
            assert_eq!(row, [method, calls], "{out}");
        }
        // Per-event columns still go to the events frame: 3 calls, 4 with
        // main, a call and a return each.
        let out = query("select tid, counter sort seq").unwrap();
        assert!(out.lines().next().unwrap().contains("counter"), "{out}");
        assert_eq!(out.lines().count(), 2 + 8, "{out}");
        let e = query("select tid, calls").unwrap_err();
        assert!(e.to_string().contains("unknown column `calls`"), "{e}");
    }

    #[test]
    fn compile_then_run_and_record_object_file() {
        let dir = tmpdir("object");
        let prog = dir.join("obj.mc");
        std::fs::write(
            &prog,
            "fn f(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(f(21)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let tpo = dir.join("obj.tpo").to_str().unwrap().to_string();

        let out = dispatch(&strs(&["compile", &prog, "--out", &tpo])).unwrap();
        assert!(out.contains("hooks"), "{out}");
        assert!(out.contains(&tpo));

        // Run the prebuilt object directly.
        let out = dispatch(&strs(&["run", &tpo, "--arch", "native"])).unwrap();
        assert!(out.contains("42"));

        // Record it: the hooks baked into the object fire.
        let base = dir.join("obj").to_str().unwrap().to_string();
        let out = dispatch(&strs(&["record", &tpo, "--arch", "sgx-v1", "--out", &base])).unwrap();
        assert!(out.contains("recorded 4 events"), "{out}");

        // Selective compile-time instrumentation via --only.
        let tpo2 = dir.join("obj_only.tpo").to_str().unwrap().to_string();
        dispatch(&strs(&["compile", &prog, "--out", &tpo2, "--only", "f"])).unwrap();
        let out = dispatch(&strs(&[
            "record", &tpo2, "--arch", "sgx-v1", "--out", &base,
        ]))
        .unwrap();
        assert!(out.contains("recorded 2 events"), "{out}");
    }

    #[test]
    fn diff_compares_two_recordings() {
        let dir = tmpdir("diff");
        let write_prog = |name: &str, body: &str| -> String {
            let p = dir.join(name);
            std::fs::write(&p, body).unwrap();
            p.to_str().unwrap().to_string()
        };
        let a = write_prog(
            "before.mc",
            "fn hot() -> int { let s: int = 0; for (let i: int = 0; i < 500; i = i + 1) { s = s + i; } return s; }
             fn main() -> int { hot(); return 0; }",
        );
        let b = write_prog(
            "after.mc",
            "fn hot() -> int { return 124750; }
             fn main() -> int { hot(); return 0; }",
        );
        let base_a = dir.join("before").to_str().unwrap().to_string();
        let base_b = dir.join("after").to_str().unwrap().to_string();
        dispatch(&strs(&["record", &a, "--out", &base_a])).unwrap();
        dispatch(&strs(&["record", &b, "--out", &base_b])).unwrap();
        let svg = dir.join("diff.svg").to_str().unwrap().to_string();
        let out = dispatch(&strs(&[
            "diff",
            &format!("{base_a}.tplog"),
            &format!("{base_a}.sym"),
            &format!("{base_b}.tplog"),
            &format!("{base_b}.sym"),
            "--svg",
            &svg,
        ]))
        .unwrap();
        assert!(out.contains("hot"));
        assert!(out.contains("delta_pct"));
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.contains("Differential"));
    }

    #[test]
    fn live_session_over_a_tiny_log() {
        let dir = tmpdir("live");
        let prog = dir.join("live.mc");
        std::fs::write(
            &prog,
            "fn work(n: int) -> int { let s: int = 0; for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }
             fn main() -> int { let acc: int = 0; for (let r: int = 0; r < 20; r = r + 1) { acc = acc + work(10); } print_int(acc); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let svg = dir.join("live.svg").to_str().unwrap().to_string();
        let base = dir.join("live").to_str().unwrap().to_string();

        // 42 events through an 8-entry log: the session must rotate.
        let out = dispatch(&strs(&[
            "live",
            &prog,
            "--max-entries",
            "8",
            "--refresh",
            "10",
            "--frames",
            "yes",
            "--svg",
            &svg,
            "--out",
            &base,
        ]))
        .unwrap();
        assert!(out.contains("exit code: 0"), "{out}");
        assert!(out.contains("42 events"), "{out}");
        assert!(out.contains("0 dropped"), "{out}");
        // One frame per 10 new events, banner first, 60 columns wide.
        assert_eq!(out.matches("--- refresh ").count(), 4, "{out}");
        let bar = "█".repeat(60);
        let first = format!(
            "--- refresh 1 ---\n\
             live · epoch 1 · 10 events · 1 threads · 2 open · 0 dropped\n\
             main 100.0% |{bar}|\n  work 100.0% |{bar}|\n\n--- refresh 2 ---\n"
        );
        assert!(out.starts_with(&first), "{out}");

        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
        let snap_text = std::fs::read_to_string(format!("{base}.live")).unwrap();
        assert!(snap_text.contains("[live]"));
        assert!(snap_text.contains("dropped 0"));

        assert!(dispatch(&strs(&["live", &prog, "--watermark", "0"])).is_err());
        assert!(dispatch(&strs(&["live", &prog, "--max-entries", "x"])).is_err());
    }

    #[test]
    fn follow_pids_runs_a_multi_process_session() {
        let dir = tmpdir("follow");
        let prog = dir.join("multi.mc");
        std::fs::write(
            &prog,
            "fn work(n: int) -> int { let s: int = 0; for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }
             fn main() -> int { let acc: int = 0; for (let r: int = 0; r < 20; r = r + 1) { acc = acc + work(10); } print_int(acc); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("multi").to_str().unwrap().to_string();

        // 42 events per process × 3 processes through 8-entry logs.
        let out = dispatch(&strs(&[
            "live",
            &prog,
            "--follow-pids",
            "3",
            "--max-entries",
            "8",
            "--out",
            &base,
        ]))
        .unwrap();
        assert!(out.contains("3 simulated processes"), "{out}");
        assert!(out.contains("126 events, 0 dropped"), "{out}");
        let host = u64::from(std::process::id());
        for pid in host..host + 3 {
            assert!(out.contains(&format!("pid {pid}")), "{out}");
        }
        let snap_text = std::fs::read_to_string(format!("{base}.live")).unwrap();
        assert!(snap_text.contains("[processes]"), "{snap_text}");
        assert!(snap_text.contains(&format!("pid {host}\n")), "{snap_text}");

        // The frame history works at every pid count: frames of the running
        // process every 10 new events, starting over for each of the three.
        let out = dispatch(&strs(&[
            "live",
            &prog,
            "--follow-pids",
            "3",
            "--max-entries",
            "8",
            "--refresh",
            "10",
            "--frames",
            "yes",
        ]))
        .unwrap();
        let first = "--- refresh 1 ---\nlive · epoch 1 · 10 events · 1 threads · 2 open";
        assert!(out.starts_with(first), "{out}");
        assert_eq!(out.matches(" · 10 events · ").count(), 3, "{out}");
        assert!(out.contains("126 events, 0 dropped"), "{out}");

        assert!(dispatch(&strs(&["live", &prog, "--follow-pids", "0"])).is_err());
        assert!(dispatch(&strs(&["live", &prog, "--follow-pids", "x"])).is_err());
    }

    #[test]
    fn recordings_in_one_directory_are_a_fleet_post_mortem() {
        let dir = tmpdir("post-mortem");
        let prog = dir.join("replay.mc");
        std::fs::write(
            &prog,
            "fn f(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(f(21)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        assert!(dispatch(&strs(&["record", &prog, "--pid", "0"])).is_err());
        // `--out <dir>/<pid>` leaves `<pid>.tplog` + `<pid>.sym`: the
        // registration-directory entry the daemon attaches.
        let reg = dir.join("reg");
        std::fs::create_dir_all(&reg).unwrap();
        for pid in ["71", "72"] {
            let base = reg.join(pid).to_str().unwrap().to_string();
            let out = dispatch(&strs(&["record", &prog, "--out", &base, "--pid", pid])).unwrap();
            assert!(out.contains(&format!("log:     {base}.tplog")), "{out}");
        }

        let merged = dir.join("merged.live");
        let out = dispatch(&strs(&[
            "daemon",
            "--dir",
            reg.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--max-loops",
            "1",
            "--snapshot-out",
            merged.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("attached pids: 71, 72\n"), "{out}");
        assert!(!out.contains("rejected "), "{out}");
        let snap_text = std::fs::read_to_string(&merged).unwrap();
        assert!(
            snap_text.contains("[processes]\npid 71\npid 72\n"),
            "{snap_text}"
        );
        assert_eq!(Snapshot::summary_from_text(&snap_text).unwrap().events, 8);
    }

    #[test]
    fn missing_input_paths_exit_with_code_2() {
        let e = dispatch(&strs(&[
            "analyze",
            "/no/such/log.tplog",
            "/no/such/log.sym",
        ]))
        .unwrap_err();
        assert_eq!(e.code, 2, "missing log path is a path error: {e}");
        assert!(e.to_string().starts_with("/no/such/log.tplog:"), "{e}");
        let e = dispatch(&strs(&["live", "/no/such/prog.mc"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.to_string().starts_with("/no/such/prog.mc:"), "{e}");

        // Usage errors stay exit code 1.
        let e = dispatch(&strs(&["analyze"])).unwrap_err();
        assert_eq!(e.code, 1);
    }

    #[test]
    fn analyze_salvages_a_truncated_log() {
        let dir = tmpdir("salvage");
        let prog = dir.join("salv.mc");
        std::fs::write(
            &prog,
            "fn f(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(f(21)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("salv").to_str().unwrap().to_string();
        dispatch(&strs(&["record", &prog, "--out", &base])).unwrap();

        // Tear the tail off the recording, as a crash mid-save would.
        let log = format!("{base}.tplog");
        let sym = format!("{base}.sym");
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 10]).unwrap();

        let e = dispatch(&strs(&["analyze", &log, &sym])).unwrap_err();
        assert_eq!(e.code, 2, "a torn log is rejected by default: {e}");

        let out = dispatch(&strs(&["analyze", &log, &sym, "--salvage", "yes"])).unwrap();
        assert!(out.starts_with("salvage: kept 3 dropped 1"), "{out}");
        assert!(out.contains("truncated-file: 1"), "{out}");
        assert!(out.contains("main"), "the surviving records still analyze");
    }

    #[test]
    fn a_registration_directory_log_is_an_operand_like_any_recording() {
        use teeperf_core::layout::{EventKind, LogEntry};
        use teeperf_core::log::make_header;
        use teeperf_core::shm_file::{publish_sidecar, FileShmWriter};

        // What `teeperf-shm-writer` leaves in a registration directory: a
        // finished session (pid 41) and one whose writer was killed (pid
        // 42, ACTIVE never cleared), each preallocated far past its tail.
        let dir = tmpdir("operand");
        let debug = mcvm::DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)]);
        let (a0, a1) = (debug.entry_addr(0), debug.entry_addr(1));
        for (pid, finish) in [(41, true), (42, false)] {
            publish_sidecar(&dir, pid, "sym", &debug.to_text()).unwrap();
            let mut w = FileShmWriter::create(&dir, &make_header(pid, 64, true, 0, 0)).unwrap();
            for (kind, counter, addr) in [
                (EventKind::Call, 1, a0),
                (EventKind::Call, 10, a1),
                (EventKind::Return, 60, a1),
                (EventKind::Return, 101, a0),
            ] {
                let tid = 0;
                w.write(&LogEntry {
                    kind,
                    counter,
                    addr,
                    tid,
                })
                .unwrap();
            }
            if finish {
                w.finish().unwrap();
            }
        }
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        // Everything below the title line, which names the pid.
        let body = |out: &str| out[out.find("total profiled time").unwrap()..].to_string();
        let finished = dispatch(&strs(&["analyze", &path("41.tplog"), &path("41.sym")])).unwrap();
        assert!(
            finished.contains("pid 41, 4 events (1 threads)"),
            "{finished}"
        );
        assert!(finished.contains("log coverage: complete (4 events, capacity 64)"));
        for salvage in ["no", "yes"] {
            let (log, sym) = (path("42.tplog"), path("42.sym"));
            let killed = dispatch(&strs(&["analyze", &log, &sym, "--salvage", salvage])).unwrap();
            assert_eq!(body(&killed), body(&finished), "--salvage {salvage}");
        }
        let q = "select method, excl sort method";
        let out = dispatch(&strs(&["query", &path("42.tplog"), &path("42.sym"), q])).unwrap();
        let rows: Vec<&str> = out.lines().skip(2).collect();
        assert_eq!(rows.len(), 2, "{out}");
        assert!(
            rows[0].starts_with("main") && rows[1].starts_with("work"),
            "{out}"
        );
        let out = dispatch(&strs(&["flamegraph", &path("41.tplog"), &path("41.sym")])).unwrap();
        assert!(out.contains("work"), "{out}");
    }

    #[test]
    fn a_recording_in_the_old_framing_is_refused_not_guessed_at() {
        // `TPERFLG1`, six header words, a count, the entries: what `teeperf
        // record` wrote before a recording became the log image.
        let dir = tmpdir("old-framing");
        let mut old = b"TPERFLG1".to_vec();
        for word in [0b111u64 | 3 << 17, 41, 64, 2, 0, 0, 2] {
            old.extend_from_slice(&word.to_le_bytes());
        }
        old.extend_from_slice(&[0x11; 48]);
        let tpf = dir.join("old.tpf").to_str().unwrap().to_string();
        let sym = dir.join("old.sym").to_str().unwrap().to_string();
        std::fs::write(&tpf, &old).unwrap();
        std::fs::write(&sym, mcvm::DebugInfo::default().to_text()).unwrap();
        for salvage in ["no", "yes"] {
            let e = dispatch(&strs(&["analyze", &tpf, &sym, "--salvage", salvage])).unwrap_err();
            assert_eq!(e.code, 2, "{e}");
            let want = format!("{tpf}: not a log image");
            assert!(e.to_string().starts_with(&want), "{e}");
        }
    }

    #[test]
    fn retention_flags_thread_through_live() {
        let dir = tmpdir("retention");
        let prog = dir.join("ring.mc");
        std::fs::write(
            &prog,
            "fn work(n: int) -> int { let s: int = 0; for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }
             fn main() -> int { let acc: int = 0; for (let r: int = 0; r < 20; r = r + 1) { acc = acc + work(10); } print_int(acc); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("ring").to_str().unwrap().to_string();

        // A tiny ring over a long run must evict, and the transitions land
        // in the snapshot's [events] section.
        let out = dispatch(&strs(&[
            "live",
            &prog,
            "--window-interval",
            "50",
            "--retain",
            "1",
            "--max-width",
            "1",
            "--out",
            &base,
        ]))
        .unwrap();
        assert!(out.contains("exit code: 0"), "{out}");
        let snap_text = std::fs::read_to_string(format!("{base}.live")).unwrap();
        assert!(snap_text.contains("evicted windows"), "{snap_text}");

        for bad in [
            &["live", &prog, "--window-interval", "0"][..],
            &["live", &prog, "--retain", "x"],
            &["live", &prog, "--max-width", "0"],
        ] {
            assert!(dispatch(&strs(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn batch_slots_and_transition_mode_thread_through_record_and_live() {
        let dir = tmpdir("knobs");
        let prog = dir.join("knobs.mc");
        std::fs::write(
            &prog,
            "fn f(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(f(21)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("knobs").to_str().unwrap().to_string();

        // Both knobs are performance knobs: they reshape the timeline (the
        // counter is the cycle clock, and switchless transitions are
        // cheaper) but must not change *what* was recorded — same events,
        // same methods, same call counts.
        let calls_query = "select method, calls sort method asc";
        let classic = dispatch(&strs(&["record", &prog, "--out", &base])).unwrap();
        assert!(classic.contains("recorded 4 events"), "{classic}");
        let log = format!("{base}.tplog");
        let sym = format!("{base}.sym");
        let classic_calls = dispatch(&strs(&["query", &log, &sym, calls_query])).unwrap();

        let tuned = dispatch(&strs(&[
            "record",
            &prog,
            "--out",
            &base,
            "--batch-slots",
            "8",
            "--transition-mode",
            "switchless",
        ]))
        .unwrap();
        assert!(tuned.contains("recorded 4 events"), "{tuned}");
        let tuned_calls = dispatch(&strs(&["query", &log, &sym, calls_query])).unwrap();
        assert_eq!(
            classic_calls, tuned_calls,
            "knobs must not change what was recorded"
        );

        // Live sessions accept both knobs too.
        let out = dispatch(&strs(&[
            "live",
            &prog,
            "--max-entries",
            "8",
            "--batch-slots",
            "2",
            "--transition-mode",
            "switchless",
        ]))
        .unwrap();
        assert!(out.contains("exit code: 0"), "{out}");
        assert!(out.contains("0 dropped"), "{out}");

        for bad in [
            &["record", &prog, "--batch-slots", "0"][..],
            &["record", &prog, "--batch-slots", "x"],
            &["record", &prog, "--transition-mode", "teleport"],
            &["live", &prog, "--batch-slots", "0"],
        ] {
            assert!(dispatch(&strs(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn bad_arch_rejected() {
        let dir = tmpdir("bad-arch");
        let prog = dir.join("p.mc");
        std::fs::write(&prog, "fn main() -> int { return 0; }").unwrap();
        let e = dispatch(&strs(&["run", prog.to_str().unwrap(), "--arch", "sgx-v9"])).unwrap_err();
        assert!(e.to_string().contains("unknown architecture"));
    }

    #[test]
    fn phoenix_single_bench_runs() {
        let out = dispatch(&strs(&[
            "phoenix",
            "--bench",
            "linear_regression",
            "--arch",
            "native",
        ]))
        .unwrap();
        assert!(out.contains("linear_regression"));
        assert!(out.contains("ok"));
        assert!(dispatch(&strs(&["phoenix", "--bench", "nope"])).is_err());
    }

    #[test]
    fn missing_flag_value_rejected() {
        assert!(dispatch(&strs(&["run", "--arch"])).is_err());
    }

    /// What `teeperf <argv>` prints and returns, as `main` turns a
    /// dispatch result into stdout, stderr and an exit code.
    fn as_main(argv: &[&str]) -> (String, String, u8) {
        match dispatch(&strs(argv)) {
            Ok(out) => (out, String::new(), 0),
            Err(e) => (String::new(), format!("teeperf: {e}\n"), e.code),
        }
    }

    /// `analyze|query|flamegraph --salvage yes` over five logs — a clean
    /// recording, a killed writer's `.tplog` (ACTIVE set, preallocated
    /// remainder), a session with one torn slot below its tail, the
    /// recording cut mid-slot and the recording with its magic word
    /// smashed — each run's stdout, stderr and exit code in one
    /// transcript, the scratch directory written `$DIR`.
    fn salvage_transcript() -> String {
        use teeperf_core::layout::{EventKind, LogEntry, OFF_MAGIC};
        use teeperf_core::log::make_header;
        use teeperf_core::shm_file::{publish_sidecar, FileShmWriter};

        let dir = tmpdir("salvage-golden");
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        std::fs::write(
            path("clean.mc"),
            "fn f(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(f(21)); return 0; }",
        )
        .unwrap();
        dispatch(&strs(&[
            "record",
            &path("clean.mc"),
            "--pid",
            "71",
            "--out",
            &path("clean"),
        ]))
        .unwrap();
        let clean = std::fs::read(path("clean.tplog")).unwrap();
        std::fs::write(path("cut.tplog"), &clean[..clean.len() - 10]).unwrap();
        let mut smashed = clean.clone();
        smashed[OFF_MAGIC as usize..][..8].copy_from_slice(&[0xbd; 8]);
        std::fs::write(path("smashed.tplog"), &smashed).unwrap();

        let debug = mcvm::DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)]);
        let (a0, a1) = (debug.entry_addr(0), debug.entry_addr(1));
        let e = |kind, counter, addr| LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        };
        // pid 42 is killed after its fourth entry; pid 43 tears its second
        // slot and finishes.
        for pid in [42, 43] {
            publish_sidecar(&dir, pid, "sym", &debug.to_text()).unwrap();
            let mut w = FileShmWriter::create(&dir, &make_header(pid, 64, true, 0, 0)).unwrap();
            w.write(&e(EventKind::Call, 1, a0)).unwrap();
            if pid == 43 {
                w.write_torn(&e(EventKind::Call, 5, a1)).unwrap();
            }
            w.write(&e(EventKind::Call, 10, a1)).unwrap();
            w.write(&e(EventKind::Return, 60, a1)).unwrap();
            w.write(&e(EventKind::Return, 101, a0)).unwrap();
            if pid == 43 {
                w.finish().unwrap();
            }
        }

        let fixtures = [
            ("clean.tplog", "clean.sym"),
            ("42.tplog", "42.sym"),
            ("43.tplog", "43.sym"),
            ("cut.tplog", "clean.sym"),
            ("smashed.tplog", "clean.sym"),
        ];
        let mut transcript = String::new();
        for (log, sym) in fixtures {
            let (log, sym) = (path(log), path(sym));
            for argv in [
                &["analyze", &log, &sym, "--salvage", "yes"][..],
                &[
                    "query",
                    &log,
                    &sym,
                    "select method, calls, excl sort method",
                    "--salvage",
                    "yes",
                ],
                &["flamegraph", &log, &sym, "--salvage", "yes"],
            ] {
                let (stdout, stderr, code) = as_main(argv);
                writeln!(transcript, "$ teeperf {}", argv.join(" ")).unwrap();
                writeln!(transcript, "exit {code}").unwrap();
                write!(transcript, "{stdout}-- stderr\n{stderr}-- end\n").unwrap();
            }
        }
        transcript.replace(dir.to_str().unwrap(), "$DIR")
    }

    /// What [`salvage_transcript`] must read, byte for byte: the salvage
    /// path's reports, tables, error lines and exit codes.
    const SALVAGE_GOLDEN: &str = r#"$ teeperf analyze $DIR/clean.tplog $DIR/clean.sym --salvage yes
exit 0

TEE-Perf profile — pid 71, 4 events (1 threads)
total profiled time: 3608 ticks
log coverage: complete (4 events, capacity 1048576)

method  calls  incl  excl  excl_pct   min   max  threads
------  -----  ----  ----  --------  ----  ----  -------
main        1  3608  3442    95.399  3608  3608        1
f           1   166   166     4.601   166   166        1

hottest call edges:
  <root> -> main  (1 calls, 3608 incl ticks)
  main -> f  (1 calls, 166 incl ticks)
-- stderr
-- end
$ teeperf query $DIR/clean.tplog $DIR/clean.sym select method, calls, excl sort method --salvage yes
exit 0
method  calls  excl
------  -----  ----
f           1   166
main        1  3442
-- stderr
-- end
$ teeperf flamegraph $DIR/clean.tplog $DIR/clean.sym --salvage yes
exit 0
main 100.0% |████████████████████████████████████████████████████████████|
  f   4.6% |███|
-- stderr
-- end
$ teeperf analyze $DIR/42.tplog $DIR/42.sym --salvage yes
exit 0

TEE-Perf profile — pid 42, 4 events (1 threads)
total profiled time: 100 ticks
log coverage: complete (4 events, capacity 64)

method  calls  incl  excl  excl_pct  min  max  threads
------  -----  ----  ----  --------  ---  ---  -------
main        1   100    50    50.000  100  100        1
work        1    50    50    50.000   50   50        1

hottest call edges:
  <root> -> main  (1 calls, 100 incl ticks)
  main -> work  (1 calls, 50 incl ticks)
-- stderr
-- end
$ teeperf query $DIR/42.tplog $DIR/42.sym select method, calls, excl sort method --salvage yes
exit 0
method  calls  excl
------  -----  ----
main        1    50
work        1    50
-- stderr
-- end
$ teeperf flamegraph $DIR/42.tplog $DIR/42.sym --salvage yes
exit 0
main 100.0% |████████████████████████████████████████████████████████████|
  work  50.0% |██████████████████████████████|
-- stderr
-- end
$ teeperf analyze $DIR/43.tplog $DIR/43.sym --salvage yes
exit 0
salvage: kept 4 dropped 1 (torn-entry: 1)
TEE-Perf profile — pid 43, 4 events (1 threads)
total profiled time: 100 ticks
log coverage: 4 of 5 events recorded, 1 dropped on overflow (20.0% lost)

method  calls  incl  excl  excl_pct  min  max  threads
------  -----  ----  ----  --------  ---  ---  -------
main        1   100    50    50.000  100  100        1
work        1    50    50    50.000   50   50        1

hottest call edges:
  <root> -> main  (1 calls, 100 incl ticks)
  main -> work  (1 calls, 50 incl ticks)
-- stderr
-- end
$ teeperf query $DIR/43.tplog $DIR/43.sym select method, calls, excl sort method --salvage yes
exit 0
method  calls  excl
------  -----  ----
main        1    50
work        1    50
-- stderr
-- end
$ teeperf flamegraph $DIR/43.tplog $DIR/43.sym --salvage yes
exit 0
main 100.0% |████████████████████████████████████████████████████████████|
  work  50.0% |██████████████████████████████|
-- stderr
-- end
$ teeperf analyze $DIR/cut.tplog $DIR/clean.sym --salvage yes
exit 0
salvage: kept 3 dropped 1 (truncated-file: 1)
TEE-Perf profile — pid 71, 3 events (1 threads)
total profiled time: 331 ticks
log coverage: 3 of 4 events recorded, 1 dropped on overflow (25.0% lost)

method  calls  incl  excl  excl_pct  min  max  threads
------  -----  ----  ----  --------  ---  ---  -------
f           1   166   166    50.151  166  166        1
main        1   331   165    49.849  331  331        1

hottest call edges:
  <root> -> main  (1 calls, 331 incl ticks)
  main -> f  (1 calls, 166 incl ticks)

warning: 1 frames force-closed at end of log
-- stderr
-- end
$ teeperf query $DIR/cut.tplog $DIR/clean.sym select method, calls, excl sort method --salvage yes
exit 0
method  calls  excl
------  -----  ----
f           1   166
main        1   165
-- stderr
-- end
$ teeperf flamegraph $DIR/cut.tplog $DIR/clean.sym --salvage yes
exit 0
main 100.0% |████████████████████████████████████████████████████████████|
  f  50.2% |██████████████████████████████|
-- stderr
-- end
$ teeperf analyze $DIR/smashed.tplog $DIR/clean.sym --salvage yes
exit 2
-- stderr
teeperf: $DIR/smashed.tplog: not a log image: magic 0xbdbdbdbdbdbdbdbd != 0x474f4c4652455054
-- end
$ teeperf query $DIR/smashed.tplog $DIR/clean.sym select method, calls, excl sort method --salvage yes
exit 2
-- stderr
teeperf: $DIR/smashed.tplog: not a log image: magic 0xbdbdbdbdbdbdbdbd != 0x474f4c4652455054
-- end
$ teeperf flamegraph $DIR/smashed.tplog $DIR/clean.sym --salvage yes
exit 2
-- stderr
teeperf: $DIR/smashed.tplog: not a log image: magic 0xbdbdbdbdbdbdbdbd != 0x474f4c4652455054
-- end
"#;

    #[test]
    fn salvage_output_is_pinned_byte_for_byte() {
        let got = salvage_transcript();
        for (n, (got, want)) in got.lines().zip(SALVAGE_GOLDEN.lines()).enumerate() {
            assert_eq!(got, want, "transcript line {}", n + 1);
        }
        assert_eq!(got, SALVAGE_GOLDEN);
    }
}
