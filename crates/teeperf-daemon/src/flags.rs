//! One flag grammar for every front-end: `teeperf`'s commands, `teeperfd`
//! and `teeperf-shm-writer` are tables over this module, which lives in the
//! lowest crate both binaries' crates link.
//!
//! A command is a static table: its operands, a line about it, and rows of
//! [`Flag`]s (`--name <value>`, or a bare `--name` switch) in groups, so a
//! set that several commands share is declared once. [`Command::parse`]
//! checks an argv against the table — an undeclared flag, a missing value
//! or a value handed to a switch is an error naming the flag, followed by
//! the command's usage, generated from the same rows — and returns a
//! [`Parsed`] whose typed getters word every bad value one way
//! (``bad --watermark `x` (want 1..=99)``) and panic when asked for a flag
//! the command does not declare: a flag that is read is in the help. A
//! repeated flag's last value wins.

use std::fmt::Write as _;
use std::ops::RangeBounds;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use teeperf_live::{LiveConfig, LiveRunConfig, OverheadBudget, RingConfig};

/// One declared flag.
#[derive(Debug)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// How the value reads in the usage (`<pct>`); empty for a switch.
    pub value: &'static str,
    /// The usage line's explanation.
    pub help: &'static str,
}

impl Flag {
    /// A `--name <value>` row.
    pub const fn value(name: &'static str, value: &'static str, help: &'static str) -> Flag {
        Flag { name, value, help }
    }

    /// A bare `--name` row.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag::value(name, "", help)
    }
}

/// One command's declared surface.
#[derive(Debug)]
pub struct Command {
    /// The operands as the usage shows them; empty when the command takes
    /// none, and then a stray operand is an error.
    pub operands: &'static str,
    /// What the command does: the first line is its entry in a command
    /// list, the whole text heads its own usage.
    pub about: &'static str,
    /// The flag rows, in groups.
    pub groups: &'static [&'static [Flag]],
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }

    /// The usage of this command run as `invoked_as`: a synopsis, the
    /// about text, and one line per declared flag.
    pub fn usage(&self, invoked_as: &str) -> String {
        let mut out = format!("usage: {invoked_as}");
        if !self.operands.is_empty() {
            write!(out, " {}", self.operands).expect("writing to string");
        }
        if self.flags().next().is_some() {
            out.push_str(" [--flag <value> ...]");
        }
        writeln!(out, "\n{}", self.about).expect("writing to string");
        let head = |f: &Flag| format!("--{} {}", f.name, f.value);
        let width = self.flags().map(|f| head(f).len()).max().unwrap_or(0);
        for flag in self.flags() {
            writeln!(out, "  {:<width$} {}", head(flag), flag.help).expect("writing to string");
        }
        out
    }

    /// Check `argv` against the table; the error names the offending flag
    /// or operand, then gives this command's usage.
    pub fn parse(&'static self, invoked_as: &str, argv: &[String]) -> Result<Parsed, String> {
        let mut parsed = Parsed {
            command: self,
            invoked_as: invoked_as.to_string(),
            positional: Vec::new(),
            given: Vec::new(),
            help: false,
        };
        let fail = |why: String| format!("{why}\n\n{}", self.usage(invoked_as));
        let mut args = argv.iter();
        let mut after_switch = None;
        while let Some(arg) = args.next() {
            let switch = after_switch.take();
            if arg == "--help" || arg == "-h" {
                parsed.help = true;
            } else if let Some(name) = arg.strip_prefix("--") {
                let flag = self
                    .flag(name)
                    .ok_or_else(|| fail(format!("unknown flag --{name}")))?;
                let value = if flag.value.is_empty() {
                    after_switch = Some(flag.name);
                    String::new()
                } else {
                    args.next()
                        .ok_or_else(|| fail(format!("flag --{name} needs a value")))?
                        .clone()
                };
                parsed.given.push((flag.name, value));
            } else if !self.operands.is_empty() {
                parsed.positional.push(arg.clone());
            } else if let Some(name) = switch {
                return Err(fail(format!("--{name} is a switch: no value (`{arg}`)")));
            } else {
                return Err(fail(format!("unexpected argument `{arg}`")));
            }
        }
        Ok(parsed)
    }

    /// The `main` of a binary that is this one command: parse its arguments
    /// (a bad argv exits 2), answer `--help` with the usage, otherwise `run`
    /// and print its text, or exit with its error's code and message.
    pub fn main(
        &'static self,
        invoked_as: &str,
        run: impl FnOnce(&Parsed) -> Result<String, (u8, String)>,
    ) -> ExitCode {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let outcome = match self.parse(invoked_as, &argv) {
            Ok(parsed) if parsed.help => Ok(parsed.usage()),
            Ok(parsed) => run(&parsed),
            Err(message) => Err((2, format!("{invoked_as}: {message}"))),
        };
        match outcome {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err((code, message)) => {
                eprintln!("{message}");
                ExitCode::from(code)
            }
        }
    }
}

/// An argv that passed its command's table.
#[derive(Debug)]
pub struct Parsed {
    command: &'static Command,
    invoked_as: String,
    /// The operands, in order.
    pub positional: Vec<String>,
    given: Vec<(&'static str, String)>,
    /// `--help` or `-h` was among the arguments.
    pub help: bool,
}

impl Parsed {
    /// The usage of the command this argv was parsed for.
    pub fn usage(&self) -> String {
        self.command.usage(&self.invoked_as)
    }

    /// The value given for `--name`, if it was given.
    pub fn text(&self, name: &str) -> Option<&str> {
        assert!(
            self.command.flag(name).is_some(),
            "{} reads --{name} but does not declare it",
            self.invoked_as
        );
        let given = self.given.iter().rev().find(|(given, _)| *given == name);
        given.map(|(_, value)| value.as_str())
    }

    /// Whether the switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value given for `--name`, as a path.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.text(name).map(PathBuf::from)
    }

    /// The value given for `--name`, as a number; ``bad --name `value` ``
    /// when it is not one.
    pub fn num<T: FromStr + PartialOrd>(&self, name: &str) -> Result<Option<T>, String> {
        self.num_in(name, .., "")
    }

    /// The value given for `--name`, as a number inside `range`;
    /// ``bad --name `value` (want <want>)`` when it is not one.
    pub fn num_in<T: FromStr + PartialOrd>(
        &self,
        name: &str,
        range: impl RangeBounds<T>,
        want: &str,
    ) -> Result<Option<T>, String> {
        let checked = |value: &str| {
            let n = value.parse().ok().filter(|n| range.contains(n));
            n.ok_or_else(|| bad(name, value, want))
        };
        self.text(name).map(checked).transpose()
    }

    /// The value given for the `yes|no` flag `--name`; ``bad --name `value`
    /// (want yes|no)`` when it is neither.
    pub fn yes_no(&self, name: &str) -> Result<Option<bool>, String> {
        let checked = |value| match value {
            "yes" => Ok(true),
            "no" => Ok(false),
            _ => Err(bad(name, value, "yes|no")),
        };
        self.text(name).map(checked).transpose()
    }
}

fn bad(name: &str, value: &str, want: &str) -> String {
    if want.is_empty() {
        format!("bad --{name} `{value}`")
    } else {
        format!("bad --{name} `{value}` (want {want})")
    }
}

const WATERMARK: Flag = Flag::value("watermark", "<pct>", "rotate a log this full (1..=99)");
const WINDOW_INTERVAL: Flag = Flag::value(
    "window-interval",
    "<ticks>",
    "keep a retention ring of per-interval window profiles over the virtual clock",
);
const RETAIN: Flag = Flag::value(
    "retain",
    "<n>",
    "windows kept; older ones coarsen, then evict",
);
const MAX_WIDTH: Flag = Flag::value("max-width", "<n>", "widest coarsened window, in intervals");
const OVERHEAD_BUDGET: Flag = Flag::value(
    "overhead-budget",
    "<pct>",
    "tolerated stream loss (1..=100): a per-session controller degrades full -> sampled 1/N -> \
     quiescent under pressure and recovers, sampled totals tagged `estimated`. Inert where the \
     source cannot carry a regime word: the file transport teeperfd attaches",
);

/// The session flags every profiling front-end shares, read by
/// [`session_config`].
pub const SESSION_FLAGS: &[Flag] = &[WINDOW_INTERVAL, RETAIN, MAX_WIDTH, OVERHEAD_BUDGET];
/// The further session flags of a front-end that drains in process, read
/// by [`in_process_config`].
pub const IN_PROCESS_FLAGS: &[Flag] = &[WATERMARK];

/// The retention ring and overhead budget an argv asks for; whatever was
/// not given keeps [`LiveConfig::default`].
pub fn session_config(parsed: &Parsed) -> Result<LiveConfig, String> {
    let mut ring: Option<RingConfig> = None;
    if let Some(ticks) = parsed.num_in(WINDOW_INTERVAL.name, 1.., "ticks >= 1")? {
        ring.get_or_insert_with(RingConfig::default).interval = ticks;
    }
    if let Some(n) = parsed.num_in(RETAIN.name, 1.., ">= 1")? {
        ring.get_or_insert_with(RingConfig::default).capacity = n;
    }
    if let Some(n) = parsed.num_in(MAX_WIDTH.name, 1.., ">= 1")? {
        ring.get_or_insert_with(RingConfig::default).max_width = n;
    }
    let budget = parsed.num_in(OVERHEAD_BUDGET.name, 1..=100, "1..=100")?;
    Ok(LiveConfig {
        retention: ring,
        budget: budget.map(|pct| OverheadBudget { pct }),
        ..LiveConfig::default()
    })
}

/// The in-process driver's config: [`session_config`] plus the rotation
/// watermark an argv asks for; the rest keeps [`LiveRunConfig::default`].
pub fn in_process_config(parsed: &Parsed) -> Result<LiveRunConfig, String> {
    let mut run = LiveRunConfig {
        live: session_config(parsed)?,
        ..LiveRunConfig::default()
    };
    if let Some(pct) = parsed.num_in(WATERMARK.name, 1..=99, "1..=99")? {
        run.watermark_pct = pct;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OWN: &[Flag] = &[
        Flag::value("out", "<file>", "where to write"),
        Flag::switch("hold", "stay alive"),
    ];
    const WITH_OPERANDS: Command = Command {
        operands: "<prog>",
        about: "a command with an operand\nand a second line",
        groups: &[OWN, IN_PROCESS_FLAGS, SESSION_FLAGS],
    };
    const BARE: Command = Command {
        operands: "",
        about: "a command without operands",
        groups: &[OWN, SESSION_FLAGS],
    };

    fn parse(command: &'static Command, argv: &[&str]) -> Result<Parsed, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        command.parse("tool cmd", &argv)
    }

    #[test]
    fn a_valid_argv_parses_and_the_last_value_wins() {
        let p = parse(
            &WITH_OPERANDS,
            &["a.mc", "--out", "x", "--hold", "--out", "y", "b"],
        )
        .unwrap();
        assert_eq!(p.positional, ["a.mc", "b"]);
        assert_eq!(p.text("out"), Some("y"));
        assert_eq!(p.path("out"), Some(PathBuf::from("y")));
        assert!(p.switch("hold"));
        assert!(!p.help);
        let p = parse(&WITH_OPERANDS, &[]).unwrap();
        assert_eq!(p.text("out"), None);
        assert!(!p.switch("hold"));
        assert!(parse(&BARE, &["-h"]).unwrap().help);
        assert!(parse(&BARE, &["--hold", "--help"]).unwrap().help);
    }

    #[test]
    fn a_bad_argv_names_the_offender_and_prints_the_usage() {
        for (command, argv, needle) in [
            (
                &WITH_OPERANDS,
                &["--arhc", "native"][..],
                "unknown flag --arhc",
            ),
            (
                &BARE,
                &["--no-such-flag", "x"],
                "unknown flag --no-such-flag",
            ),
            (&WITH_OPERANDS, &["--out"], "flag --out needs a value"),
            (&BARE, &["--hold", "yes"], "--hold is a switch"),
            (&BARE, &["stray"], "unexpected argument `stray`"),
            (
                &BARE,
                &["--out", "x", "stray"],
                "unexpected argument `stray`",
            ),
        ] {
            let e = parse(command, argv).unwrap_err();
            assert!(e.starts_with(needle), "{argv:?}: {e}");
            assert!(e.contains("\n\nusage: tool cmd"), "{argv:?}: {e}");
        }
    }

    #[test]
    fn the_usage_has_one_line_per_declared_flag_and_no_other() {
        let usage = BARE.usage("tool cmd");
        assert!(usage.starts_with("usage: tool cmd [--flag <value> ...]\na command without"));
        let listed: Vec<&str> = usage
            .lines()
            .filter_map(|l| l.strip_prefix("  --"))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        let declared: Vec<&str> = BARE.flags().map(|f| f.name).collect();
        assert_eq!(listed, declared);
        assert_eq!(
            declared,
            [
                "out",
                "hold",
                "window-interval",
                "retain",
                "max-width",
                "overhead-budget"
            ]
        );
        assert!(WITH_OPERANDS.usage("tool cmd").starts_with(
            "usage: tool cmd <prog> [--flag <value> ...]\na command with an operand\nand"
        ));
    }

    #[test]
    fn typed_getters_word_every_bad_value_one_way() {
        let p = parse(
            &WITH_OPERANDS,
            &[
                "--watermark",
                "x",
                "--retain",
                "0",
                "--out",
                "maybe",
                "--max-width",
                "7",
            ],
        )
        .unwrap();
        assert_eq!(
            p.num_in::<u8>("watermark", 1..=99, "1..=99").unwrap_err(),
            "bad --watermark `x` (want 1..=99)"
        );
        assert_eq!(
            p.num_in::<usize>("retain", 1.., ">= 1").unwrap_err(),
            "bad --retain `0` (want >= 1)"
        );
        assert_eq!(p.num::<u64>("out").unwrap_err(), "bad --out `maybe`");
        assert_eq!(
            p.yes_no("out").unwrap_err(),
            "bad --out `maybe` (want yes|no)"
        );
        assert_eq!(p.num::<u64>("max-width"), Ok(Some(7)));
        assert_eq!(p.num::<u64>("window-interval"), Ok(None));
        let p = parse(&BARE, &["--out", "yes"]).unwrap();
        assert_eq!(p.yes_no("out"), Ok(Some(true)));
    }

    #[test]
    #[should_panic(expected = "reads --frames but does not declare it")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let _ = parse(&BARE, &[]).unwrap().text("frames");
    }

    #[test]
    fn the_session_configs_are_the_one_reader_of_the_session_flags() {
        let run = in_process_config(&parse(&WITH_OPERANDS, &[]).unwrap()).unwrap();
        assert_eq!(run, LiveRunConfig::default());

        let argv = ["--watermark", "40", "--retain", "3"];
        let run = in_process_config(&parse(&WITH_OPERANDS, &argv).unwrap()).unwrap();
        assert_eq!(run.watermark_pct, 40);
        let live = run.live;
        let ring = live.retention.unwrap();
        let defaults = RingConfig::default();
        assert_eq!(
            (ring.capacity, ring.interval, ring.max_width),
            (3, defaults.interval, defaults.max_width)
        );
        assert_eq!(live.budget, None);

        // A front-end without an in-process session declares, and so
        // reads, only the shared rows.
        let argv = [
            "--window-interval",
            "12",
            "--max-width",
            "2",
            "--overhead-budget",
            "10",
        ];
        let live = session_config(&parse(&BARE, &argv).unwrap()).unwrap();
        let ring = live.retention.unwrap();
        assert_eq!((ring.interval, ring.max_width), (12, 2));
        assert_eq!(live.budget, Some(OverheadBudget { pct: 10 }));
        assert!(parse(&BARE, &["--watermark", "40"]).is_err());

        for (argv, message) in [
            (["--watermark", "0"], "bad --watermark `0` (want 1..=99)"),
            (
                ["--window-interval", "0"],
                "bad --window-interval `0` (want ticks >= 1)",
            ),
            (["--retain", "x"], "bad --retain `x` (want >= 1)"),
            (["--max-width", "0"], "bad --max-width `0` (want >= 1)"),
            (
                ["--overhead-budget", "101"],
                "bad --overhead-budget `101` (want 1..=100)",
            ),
        ] {
            let e = in_process_config(&parse(&WITH_OPERANDS, &argv).unwrap()).unwrap_err();
            assert_eq!(e, message);
        }
    }
}
