//! `teeperf` — the command-line face of the TEE-Perf pipeline.
//!
//! `teeperf help` lists the commands, `teeperf <command> --help` a command's
//! flags.

#![forbid(unsafe_code)]

mod cli;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::dispatch(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("teeperf: {e}");
            // Code 2 = a named input path was missing or unreadable; 1 =
            // everything else (see `cli::CliError`).
            ExitCode::from(e.code)
        }
    }
}
