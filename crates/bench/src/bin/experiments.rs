//! Runs the paper-reproduction experiments.
//!
//! ```text
//! cargo run --release -p stigmergy-bench --bin experiments          # all
//! cargo run --release -p stigmergy-bench --bin experiments -- fig4  # one
//! cargo run --release -p stigmergy-bench --bin experiments -- list  # ids
//!
//! # fleet batch sweeps (--algorithms swaps in the distributed-algorithm matrix)
//! … -- batch --workers 4 --seeds 16 --metrics-out metrics.json
//! … -- batch --algorithms --workers 4 --seeds 8 --metrics-out algo.json
//!
//! # the gateway (stigmergyd)
//! … -- serve --addr 127.0.0.1:7841 --capacity 8
//! … -- submit --addr 127.0.0.1:7841 --workers 4 --seeds 16 --metrics-out m.json
//! … -- submit --algorithms --addr 127.0.0.1:7841 --workers 4 --metrics-out a.json
//! … -- cancel --addr 127.0.0.1:7841 --job 3
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;
use stigmergy_bench::{experiments, fleet_sweep};
use stigmergy_fleet::{run_batch, BatchSpec};
use stigmergy_gateway::{termination_flag, Client, Gateway, GatewayConfig, JobRequest};

/// Prints to stdout, exiting quietly when the reader hung up (e.g. the
/// output is piped into `head`) instead of panicking on a broken pipe.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if writeln!(out, "{text}").is_err() {
        std::process::exit(0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            for artifact in experiments::all() {
                banner(artifact.id, artifact.paper_ref);
                for table in (artifact.run)() {
                    emit(&table.to_string());
                }
            }
            ExitCode::SUCCESS
        }
        Some("render") => {
            let dir = std::path::Path::new("target/figures");
            match stigmergy_bench::experiments::figures::render_all(dir) {
                Ok(files) => {
                    for f in files {
                        emit(&format!("wrote {}", f.display()));
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("render failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("batch") => run_batch_cmd(&args[1..]),
        Some("serve") => run_serve_cmd(&args[1..]),
        Some("submit") => run_submit_cmd(&args[1..]),
        Some("cancel") => run_cancel_cmd(&args[1..]),
        Some("list") => {
            for artifact in experiments::all() {
                emit(&format!("{:6} {}", artifact.id, artifact.paper_ref));
            }
            ExitCode::SUCCESS
        }
        Some(id) => match experiments::run_by_id(id) {
            Some(tables) => {
                let artifact = experiments::all()
                    .into_iter()
                    .find(|a| a.id == id)
                    .expect("id resolved above");
                banner(artifact.id, artifact.paper_ref);
                for table in tables {
                    emit(&table.to_string());
                }
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment id {id:?}; try `list`");
                ExitCode::FAILURE
            }
        },
    }
}

/// Flags shared by the fleet and gateway subcommands. Each subcommand
/// reads the subset it cares about; the parser validates every value it
/// accepts, so degenerate inputs (`--workers 0`, `--seeds 0`,
/// `--budget-cap 0`, `--capacity 0`) fail with a clear message instead
/// of panicking deep inside the runtime.
#[derive(Debug, PartialEq)]
struct FleetFlags {
    workers: usize,
    seeds: u64,
    algorithms: bool,
    budget_cap: Option<u64>,
    out: Option<String>,
    addr: String,
    capacity: usize,
    max_workers: u64,
    deadline_ms: u64,
    job: Option<u64>,
}

impl Default for FleetFlags {
    fn default() -> Self {
        Self {
            workers: 1,
            seeds: 8,
            algorithms: false,
            budget_cap: None,
            out: None,
            addr: "127.0.0.1:7841".into(),
            capacity: 8,
            max_workers: 32,
            deadline_ms: 0,
            job: None,
        }
    }
}

/// Parses `--workers N --seeds K --budget-cap B --metrics-out PATH` plus
/// the gateway flags `--addr --capacity --max-workers --deadline-ms
/// --job`.
fn parse_fleet_flags(args: &[String]) -> Result<FleetFlags, String> {
    let mut flags = FleetFlags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let positive = |name: &str, v: &String| -> Result<u64, String> {
            let n: u64 = v.parse().map_err(|e| format!("{name}: {e}"))?;
            if n == 0 {
                return Err(format!("{name} must be at least 1"));
            }
            Ok(n)
        };
        match flag.as_str() {
            "--workers" => {
                flags.workers = usize::try_from(positive("--workers", value("--workers")?)?)
                    .map_err(|_| "--workers: value out of range".to_string())?;
            }
            "--seeds" => {
                flags.seeds = positive("--seeds", value("--seeds")?)?;
            }
            "--algorithms" => flags.algorithms = true,
            "--budget-cap" => {
                flags.budget_cap = Some(positive("--budget-cap", value("--budget-cap")?)?);
            }
            "--metrics-out" => {
                flags.out = Some(value("--metrics-out")?.clone());
            }
            "--addr" => {
                let addr = value("--addr")?;
                if addr.is_empty() {
                    return Err("--addr must not be empty".into());
                }
                flags.addr = addr.clone();
            }
            "--capacity" => {
                flags.capacity = usize::try_from(positive("--capacity", value("--capacity")?)?)
                    .map_err(|_| "--capacity: value out of range".to_string())?;
            }
            "--max-workers" => {
                flags.max_workers = positive("--max-workers", value("--max-workers")?)?;
            }
            "--deadline-ms" => {
                // 0 is meaningful here: "no deadline", the wire default.
                flags.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            "--job" => {
                flags.job = Some(value("--job")?.parse().map_err(|e| format!("--job: {e}"))?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(flags)
}

fn fleet_spec(flags: &FleetFlags) -> BatchSpec {
    let seeds: Vec<u64> = (0..flags.seeds).collect();
    let base = if flags.algorithms {
        BatchSpec::algorithm_matrix(seeds)
    } else {
        BatchSpec::conformance_matrix(seeds)
    };
    BatchSpec {
        budget_cap: flags.budget_cap,
        ..base
    }
}

/// `batch`: one run of the conformance matrix through the fleet. The
/// metrics JSON written by `--metrics-out` is fully deterministic (no
/// timings), so two invocations at different worker counts must produce
/// byte-identical files — CI's fleet-smoke job diffs exactly that.
fn run_batch_cmd(args: &[String]) -> ExitCode {
    let flags = match parse_fleet_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("batch: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = run_batch(&fleet_spec(&flags), flags.workers);
    let matrix = if flags.algorithms {
        "algorithm matrix"
    } else {
        "conformance matrix"
    };
    banner(
        "batch",
        &format!(
            "{matrix}, {} sessions, {} workers",
            report.runs.len(),
            flags.workers
        ),
    );
    emit(&fleet_sweep::batch_table(&report).to_string());
    if let Some(path) = &flags.out {
        if let Err(e) = std::fs::write(path, report.metrics.to_json()) {
            eprintln!("batch: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        emit(&format!("wrote {path}"));
    }
    ExitCode::SUCCESS
}

/// `serve`: runs `stigmergyd` in the foreground until SIGTERM/SIGINT or
/// a client-initiated `Shutdown`, then drains every accepted job and
/// exits 0 — the graceful-shutdown contract CI's gateway-smoke job
/// checks.
fn run_serve_cmd(args: &[String]) -> ExitCode {
    let flags = match parse_fleet_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let gateway = match Gateway::bind(
        flags.addr.as_str(),
        GatewayConfig {
            capacity: flags.capacity,
            max_workers: flags.max_workers,
        },
    ) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("serve: binding {}: {e}", flags.addr);
            return ExitCode::FAILURE;
        }
    };
    emit(&format!(
        "stigmergyd listening on {} (capacity {}, max workers {})",
        gateway.local_addr(),
        flags.capacity,
        flags.max_workers
    ));
    let term = termination_flag();
    loop {
        if term.load(Ordering::SeqCst) {
            emit("stigmergyd: termination signal, draining accepted jobs");
            break;
        }
        if gateway.finished() {
            emit("stigmergyd: client-initiated shutdown, drained");
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    gateway.shutdown_and_join();
    emit("stigmergyd: drained, exiting");
    ExitCode::SUCCESS
}

/// `submit`: sends the conformance matrix to a running gateway, streams
/// progress to stderr, and prints/writes the returned metrics JSON —
/// byte-identical to what `batch --metrics-out` writes for the same
/// flags, which is exactly what CI diffs.
fn run_submit_cmd(args: &[String]) -> ExitCode {
    let flags = match parse_fleet_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(flags.addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("submit: connecting to {}: {e}", flags.addr);
            return ExitCode::FAILURE;
        }
    };
    let request = JobRequest {
        spec: fleet_spec(&flags),
        workers: flags.workers as u64,
        deadline_ms: flags.deadline_ms,
    };
    let ticket = match client.submit(&request) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    banner(
        "submit",
        &format!(
            "job {} accepted ({} ahead), {} workers",
            ticket.job, ticket.queued_ahead, flags.workers
        ),
    );
    let mut events = 0u64;
    let result = match client.wait(ticket.job, |completed, total| {
        events += 1;
        if completed == total {
            eprintln!("job {}: {completed}/{total} sessions", ticket.job);
        }
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    emit(&format!(
        "job {}: {} sessions, {} progress events",
        result.job,
        result.fingerprints.len(),
        events
    ));
    if let Some(path) = &flags.out {
        if let Err(e) = std::fs::write(path, &result.metrics_json) {
            eprintln!("submit: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        emit(&format!("wrote {path}"));
    } else {
        emit(&result.metrics_json);
    }
    ExitCode::SUCCESS
}

/// `cancel`: cancels a job by id on a running gateway and reports the
/// typed outcome.
fn run_cancel_cmd(args: &[String]) -> ExitCode {
    let flags = match parse_fleet_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cancel: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(job) = flags.job else {
        eprintln!("cancel: --job <id> is required");
        return ExitCode::FAILURE;
    };
    let mut client = match Client::connect(flags.addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cancel: connecting to {}: {e}", flags.addr);
            return ExitCode::FAILURE;
        }
    };
    match client.cancel(job) {
        Ok(state) => {
            emit(&format!("job {job}: {state:?}"));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cancel: {e}");
            ExitCode::FAILURE
        }
    }
}

fn banner(id: &str, paper_ref: &str) {
    let bar = "=".repeat(72);
    emit(&bar);
    emit(&format!("{id}: {paper_ref}"));
    emit(&bar);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FleetFlags, String> {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_fleet_flags(&owned)
    }

    #[test]
    fn defaults_parse_from_no_flags() {
        assert_eq!(parse(&[]).unwrap(), FleetFlags::default());
    }

    #[test]
    fn all_flags_parse() {
        let flags = parse(&[
            "--workers",
            "4",
            "--seeds",
            "16",
            "--algorithms",
            "--budget-cap",
            "500",
            "--metrics-out",
            "metrics.json",
            "--addr",
            "127.0.0.1:9000",
            "--capacity",
            "3",
            "--max-workers",
            "8",
            "--deadline-ms",
            "0",
            "--job",
            "7",
        ])
        .unwrap();
        assert_eq!(flags.workers, 4);
        assert_eq!(flags.seeds, 16);
        assert!(flags.algorithms);
        assert_eq!(flags.budget_cap, Some(500));
        assert_eq!(flags.out.as_deref(), Some("metrics.json"));
        assert_eq!(flags.addr, "127.0.0.1:9000");
        assert_eq!(flags.capacity, 3);
        assert_eq!(flags.max_workers, 8);
        assert_eq!(flags.deadline_ms, 0);
        assert_eq!(flags.job, Some(7));
    }

    #[test]
    fn degenerate_values_are_rejected_with_clear_errors() {
        for (args, needle) in [
            (vec!["--workers", "0"], "--workers must be at least 1"),
            (vec!["--seeds", "0"], "--seeds must be at least 1"),
            (vec!["--budget-cap", "0"], "--budget-cap must be at least 1"),
            (vec!["--capacity", "0"], "--capacity must be at least 1"),
            (
                vec!["--max-workers", "0"],
                "--max-workers must be at least 1",
            ),
            (vec!["--addr", ""], "--addr must not be empty"),
        ] {
            let err = parse(&args).expect_err(needle);
            assert_eq!(err, needle);
        }
    }

    #[test]
    fn malformed_and_missing_values_are_rejected() {
        assert!(parse(&["--workers"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--seeds", "many"])
            .unwrap_err()
            .starts_with("--seeds:"));
        assert!(parse(&["--job", "-1"]).unwrap_err().starts_with("--job:"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown flag"));
    }
}
