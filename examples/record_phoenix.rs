//! Record the seven Phoenix programs at full scale, as `teeperf record`
//! would, into a directory of recordings to analyze.
//!
//! ```text
//! cargo run --release --example record_phoenix <dir>
//! ```
//!
//! Writes `<dir>/<name>.tplog` and `<dir>/<name>.sym` per program, on
//! SGXv1 under one fixed pid, so two checkouts record the same bytes and
//! their analyzers can be compared output for output
//! (`scripts/cmp_cli.sh`).

use teeperf::compiler::{compile_instrumented, profile_program, InstrumentOptions};
use teeperf::core::RecorderConfig;
use teeperf::mc::RunConfig;
use teeperf::phoenix::{suite, Scale};
use teeperf::sim::CostModel;

/// The pid every recording is stamped with.
const PID: u64 = 4242;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args()
        .nth(1)
        .ok_or("usage: record_phoenix <dir>")?;
    std::fs::create_dir_all(&dir)?;
    let recorder = RecorderConfig {
        pid: PID,
        ..RecorderConfig::default()
    };
    for bench in suite(Scale::Full, 1) {
        let program = compile_instrumented(bench.source(), &InstrumentOptions::default())?;
        let run = profile_program(
            program,
            CostModel::sgx_v1(),
            RunConfig::default(),
            &recorder,
            |vm| bench.setup(vm),
        )?;
        let base = format!("{dir}/{}", bench.name());
        run.log.save(format!("{base}.tplog"))?;
        std::fs::write(format!("{base}.sym"), run.debug.to_text())?;
        println!(
            "{}: {} events, {} dropped",
            bench.name(),
            run.log.entries.len(),
            run.log.header.dropped_entries()
        );
    }
    Ok(())
}
