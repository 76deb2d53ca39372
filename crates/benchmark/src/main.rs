//! `benchmark`: runs the named workloads and prints their metrics.
//!
//! ```text
//! cargo run --release -p stigmergy-benchmark --bin benchmark                 # every workload, e2e
//! cargo run --release -p stigmergy-benchmark --bin benchmark -- --traced     # every workload, traced
//! … -- --workload gateway-jobs --seed 3 --seconds 24 --trace 0              # one workload
//! ```
//!
//! With `--workload` the run happens in this process, and the last line
//! of standard output is the result object. Without it, each workload
//! runs in its own child process, one after another. The exit code is 0
//! only when every run completed and every output checked out.

use std::io::Write;
use std::process::{Command, ExitCode};

use stigmergy_benchmark::cli::{self, USAGE};
use stigmergy_benchmark::run::{run_workload, Options};
use stigmergy_benchmark::workload::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let flags = match cli::parse(&args) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match flags.workload {
        Some(workload) => run_one(workload, &flags.options),
        None => run_all(&flags.options),
    }
}

/// Runs one workload here and prints its two lines.
fn run_one(workload: Workload, options: &Options) -> ExitCode {
    match run_workload(workload, options) {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("benchmark: {}: {problem}", workload.name());
            }
            let mut out = std::io::stdout().lock();
            let printed = writeln!(out, "{}", outcome.detail_line())
                .and_then(|()| writeln!(out, "{}", outcome.result_line()))
                .and_then(|()| out.flush());
            if printed.is_ok() && outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in its own child process, waiting for each.
fn run_all(options: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        match Command::new(&exe)
            .args(cli::to_args(workload, options))
            .status()
        {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("benchmark: {} exited with {status}", workload.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("benchmark: {} did not start: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
