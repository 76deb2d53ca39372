//! The traced run: spans recorded from the benchmark's own files, around
//! calls into each layer's public API, folded into the per-layer ledger.
//!
//! It collects three kinds of data after one untraced repetition:
//!
//! * **(a) serial pass** — each `fleet::run_session_contained` call timed
//!   on its own (every session of `sweep-864`, every 16th elsewhere), and
//!   its report compared with the pool's;
//! * **(b) replica pass** — [`crate::replica::replay`] of the conformance
//!   sessions (every 4th of `sweep-864`, every 16th elsewhere), whose
//!   fingerprint must equal the pool's `trace_hash`;
//! * **(c) gateway spans** — `Client::submit` and `Client::wait` per job,
//!   the gateway's own histograms, and every job run again directly.

use std::collections::BTreeMap;
use std::time::Instant;

use stigmergy_fleet::{run_batch, BatchSpec, RunReport, SessionSpec};
use stigmergy_gateway::Message;

use crate::metrics::{median, percentile, ratio, Ledger, Value, PER_LAYER};
use crate::replica::{self, Spans};
use crate::run::{
    check_served, check_sessions, describe, matches_direct, provenance, secs, serial_pass,
    warm_machine, Options, Outcome, SerialRun, Served, Serving,
};
use crate::workload::{self, Workload, WORKERS};

/// Serial-pass stride for a workload.
fn serial_every(workload: Workload) -> usize {
    if workload == Workload::Sweep864 {
        1
    } else {
        16
    }
}

/// Replica-pass stride; a multiple of the serial stride, so every
/// replicated session also has a serial time to compare against.
fn replica_every(workload: Workload) -> usize {
    if workload == Workload::Sweep864 {
        4
    } else {
        16
    }
}

/// The traced run of `workload`.
///
/// # Errors
///
/// As [`crate::run::run_workload`].
pub(crate) fn trace(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let jobs = workload.jobs(opts.seed, opts.scale);
    warm_machine(&jobs, opts);
    let sessions = workload::expand(&jobs);
    let mut ledger = Ledger::new(PER_LAYER);
    ledger.set(
        "trace.span_cost_ns",
        Value::single(span_cost_ns(), SPAN_CALIBRATION),
    );
    let mut problems = Vec::new();

    let (runs, wall, attempted, failed) = if workload.served() {
        serve_traced(&jobs, &mut ledger, &mut problems)?
    } else {
        let t = Instant::now();
        let runs: Vec<RunReport> = jobs
            .iter()
            .flat_map(|job| run_batch(job, WORKERS).runs)
            .collect();
        let wall = secs(t);
        let failed = runs.iter().filter(|r| r.error.is_some()).count() as u64;
        (runs, wall, sessions.len() as u64, failed)
    };
    problems.extend(check_sessions(&sessions, &runs));
    // The passes index `runs` by session; a missing report is already a
    // problem above.
    if runs.len() == sessions.len() {
        let serial = serial_pass(&sessions, &runs, serial_every(workload), &mut problems);
        let replicas = replica_pass(&sessions, &runs, replica_every(workload), &mut problems);
        record_pool(&mut ledger, &serial, sessions.len(), wall);
        record_sessions(&mut ledger, &serial);
        record_replicas(&mut ledger, &replicas, &serial);
        record_counts(&mut ledger, &runs);
    }
    let mut provenance = provenance(workload, opts, 1, &sessions, jobs.len());
    provenance.push(("serial_every", serial_every(workload).to_string()));
    provenance.push(("replica_every", replica_every(workload).to_string()));
    Ok(Outcome {
        attempted,
        failed,
        problems,
        ledger,
        provenance,
    })
}

/// Empty spans timed to calibrate [`span_cost_ns`].
const SPAN_CALIBRATION: usize = 100_000;

/// What one span costs by itself — two clock reads — so nanosecond-scale
/// spans can be read against it.
fn span_cost_ns() -> f64 {
    let t = Instant::now();
    for _ in 0..SPAN_CALIBRATION {
        std::hint::black_box(replica::nanos(Instant::now()));
    }
    secs(t) * 1e9 / SPAN_CALIBRATION as f64
}

/// (b): replays every `every`-th conformance session with spans; each
/// fingerprint must equal the pool's.
fn replica_pass(
    sessions: &[SessionSpec],
    runs: &[RunReport],
    every: usize,
    problems: &mut Vec<String>,
) -> Vec<(usize, &'static str, Spans)> {
    let mut out = Vec::new();
    for i in (0..sessions.len()).step_by(every) {
        let spec = &sessions[i];
        if spec.algorithm.is_some() {
            continue;
        }
        match replica::replay(spec) {
            Err(e) => problems.push(format!(
                "replica of session {i} ({}) failed: {e}",
                describe(spec)
            )),
            Ok(spans) => {
                let run = &runs[i];
                if spans.fingerprint != run.trace_hash
                    || spans.trace_len != run.trace_len
                    || spans.steps != run.steps
                {
                    problems.push(format!(
                        "replica of session {i} ({}) fingerprint {:016x} ({} bytes, {} steps) != run_session's {:016x} ({} bytes, {} steps)",
                        describe(spec),
                        spans.fingerprint,
                        spans.trace_len,
                        spans.steps,
                        run.trace_hash,
                        run.trace_len,
                        run.steps
                    ));
                }
                out.push((i, spec.protocol.name(), spans));
            }
        }
    }
    out
}

fn record_pool(ledger: &mut Ledger, serial: &[SerialRun], sessions: usize, wall: f64) {
    let sampled: f64 = serial.iter().map(|s| s.secs).sum();
    // The serial pass samples every k-th session; scale to the whole rep.
    let busy = sampled * ratio(sessions as f64, serial.len() as f64);
    let speedup = ratio(busy, wall);
    ledger.set("fleet.pool.speedup", Value::single(speedup, serial.len()));
    ledger.set(
        "fleet.pool.busy_frac",
        Value::single(speedup / WORKERS as f64, serial.len()),
    );
    ledger.set(
        "fleet.pool.overhead_us_per_session",
        Value::single(
            ratio(wall * WORKERS as f64 - busy, sessions as f64) * 1e6,
            sessions,
        ),
    );
}

fn record_sessions(ledger: &mut Ledger, serial: &[SerialRun]) {
    // Microseconds of the serial sessions that satisfy `keep`.
    let us_where = |keep: &dyn Fn(&RunReport) -> bool| -> Vec<f64> {
        serial
            .iter()
            .filter(|s| keep(&s.report))
            .map(|s| s.secs * 1e6)
            .collect()
    };
    let us = us_where(&|_| true);
    let n = us.len();
    let total: f64 = us.iter().sum();
    ledger.set("fleet.session.p50_us", Value::single(median(&us), n));
    ledger.set(
        "fleet.session.p99_us",
        Value::single(percentile(&us, 99.0), n),
    );
    ledger.set(
        "fleet.session.max_ms",
        Value::single(percentile(&us, 100.0) / 1e3, n),
    );
    let mut by_name: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for s in serial {
        let e = by_name
            .entry(s.report.algorithm.unwrap_or(s.report.protocol))
            .or_default();
        e.0 += s.secs * 1e6;
        e.1 += 1;
    }
    for (name, (us, count)) in by_name {
        ledger.set(
            &format!("fleet.session.share.{name}"),
            Value::single(ratio(us, total), count),
        );
    }
    let undelivered = us_where(&|r| !r.delivered);
    ledger.set(
        "fleet.session.undelivered_share",
        Value::single(ratio(undelivered.iter().sum(), total), undelivered.len()),
    );
    let algo = us_where(&|r| r.algorithm.is_some());
    if !algo.is_empty() {
        ledger.set(
            "algo.session_p50_us",
            Value::single(median(&algo), algo.len()),
        );
    }
    let steps: u64 = serial.iter().map(|s| s.report.steps).sum();
    ledger.set(
        "robots.engine.steps_per_s",
        Value::single(ratio(steps as f64, total / 1e6), n),
    );
}

fn record_replicas(
    ledger: &mut Ledger,
    replicas: &[(usize, &'static str, Spans)],
    serial: &[SerialRun],
) {
    let n = replicas.len();
    if n == 0 {
        return;
    }
    let sum = |f: fn(&Spans) -> u64| replicas.iter().map(|(_, _, s)| f(s)).sum::<u64>() as f64;
    let mean_us = |f: fn(&Spans) -> u64| sum(f) / n as f64 / 1e3;
    ledger.set(
        "scheduler.build_us",
        Value::single(mean_us(|s| s.schedule_ns), n),
    );
    ledger.set(
        "fleet.session.setup_us",
        Value::single(mean_us(|s| s.build_ns), n),
    );
    ledger.set(
        "core.preprocess.t0_us",
        Value::single(mean_us(|s| s.t0_ns), n),
    );
    let labels: Vec<f64> = replicas
        .iter()
        .filter_map(|(_, _, s)| s.label_ns)
        .map(|ns| ns as f64 / 1e3)
        .collect();
    if !labels.is_empty() {
        let mean = labels.iter().sum::<f64>() / labels.len() as f64;
        ledger.set("core.naming.label_us", Value::single(mean, labels.len()));
    }
    let mut by_protocol: BTreeMap<&str, (u64, u64, usize)> = BTreeMap::new();
    for (_, name, s) in replicas {
        let e = by_protocol.entry(name).or_default();
        e.0 += s.activate_ns;
        e.1 += s.activations;
        e.2 += 1;
    }
    for (name, (ns, activations, count)) in by_protocol {
        ledger.set(
            &format!("core.on_activate_ns.{name}"),
            Value::single(ratio(ns as f64, activations as f64), count),
        );
    }
    ledger.set(
        "robots.engine.self_ns_per_step",
        Value::single(ratio(sum(Spans::engine_self_ns), sum(|s| s.steps)), n),
    );
    ledger.set(
        "fleet.trace_codec.ns_per_event",
        Value::single(ratio(sum(|s| s.codec_ns), sum(|s| s.events)), n),
    );
    // Each replicated index was also timed serially (the strides nest).
    let serial_ns: f64 = replicas
        .iter()
        .filter_map(|(i, _, _)| serial.iter().find(|t| t.index == *i))
        .map(|t| t.secs * 1e9)
        .sum();
    ledger.set(
        "trace.overhead",
        Value::single(ratio(sum(|s| s.total_ns), serial_ns), n),
    );
}

fn record_counts(ledger: &mut Ledger, runs: &[RunReport]) {
    let total = |f: fn(&RunReport) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let n = runs.len();
    let steps = total(|r| r.steps);
    let bits = total(|r| r.delivered_bits + r.algo.map_or(0, |a| a.bits));
    let kbits = bits / 1e3;
    ledger.set(
        "robots.engine.activations_per_step",
        Value::single(ratio(total(|r| r.activations), steps), n),
    );
    ledger.set(
        "robots.engine.moves_per_delivered_bit",
        Value::single(ratio(total(|r| r.moves), bits), n),
    );
    ledger.set(
        "fleet.trace_codec.bytes_per_step",
        Value::single(ratio(total(|r| r.trace_len as u64), steps), n),
    );
    ledger.set(
        "coding.fec.corrected_per_kbit",
        Value::single(ratio(total(|r| r.fec_corrected), kbits), n),
    );
    ledger.set(
        "coding.fec.rejected_per_kbit",
        Value::single(ratio(total(|r| r.fec_rejected), kbits), n),
    );
    ledger.set(
        "coding.corrupt_per_kbit",
        Value::single(ratio(total(|r| r.corrupt), kbits), n),
    );
    let algo: Vec<_> = runs.iter().filter_map(|r| r.algo).collect();
    if algo.is_empty() {
        return;
    }
    let decided: Vec<u64> = algo
        .iter()
        .filter_map(|a| a.activations_to_decision)
        .collect();
    ledger.set(
        "algo.rounds_per_session",
        Value::single(
            ratio(
                algo.iter().map(|a| a.rounds).sum::<u64>() as f64,
                algo.len() as f64,
            ),
            algo.len(),
        ),
    );
    ledger.set(
        "algo.activations_to_decision",
        Value::single(
            ratio(decided.iter().sum::<u64>() as f64, decided.len() as f64),
            decided.len(),
        ),
    );
    ledger.set(
        "algo.bits_per_decision",
        Value::single(
            ratio(
                algo.iter().map(|a| a.bits).sum::<u64>() as f64,
                decided.len() as f64,
            ),
            decided.len(),
        ),
    );
}

/// (c): one closed-loop repetition with submit/wait spans, the gateway's
/// own histograms, and every job run again directly. Returns the direct
/// runs (the reference for the serial and replica passes), the loop's
/// wall time, and the attempted/failed job counts.
fn serve_traced(
    jobs: &[BatchSpec],
    ledger: &mut Ledger,
    problems: &mut Vec<String>,
) -> Result<(Vec<RunReport>, f64, u64, u64), String> {
    let mut serving = Serving::open(jobs)?;
    let before = serving.gateway.metrics();
    let (served, wall) = serving.closed_loop(jobs);
    let after = serving.gateway.metrics();
    serving.close();
    let failed = check_served(jobs, &served, problems);

    let mut runs = Vec::new();
    let mut direct_ms = Vec::with_capacity(jobs.len());
    let mut overhead_ms = Vec::with_capacity(jobs.len());
    for (job, s) in jobs.iter().zip(&served) {
        let t = Instant::now();
        let report = run_batch(job, WORKERS);
        let ms = secs(t) * 1e3;
        direct_ms.push(ms);
        overhead_ms.push(s.latency_s * 1e3 - ms);
        if let Ok(result) = &s.result {
            if !matches_direct(result, &report) {
                problems.push(format!(
                    "job {} served bytes that differ from a direct run_batch",
                    s.index
                ));
            }
        }
        runs.extend(report.runs);
    }
    record_gateway(ledger, &served, &direct_ms, &overhead_ms, &before, &after);
    Ok((runs, wall, jobs.len() as u64, failed))
}

fn record_gateway(
    ledger: &mut Ledger,
    served: &[Served],
    direct_ms: &[f64],
    overhead_ms: &[f64],
    before: &stigmergy_gateway::GatewayMetricsSnapshot,
    after: &stigmergy_gateway::GatewayMetricsSnapshot,
) {
    let n = served.len();
    let submit_us: Vec<f64> = served.iter().map(|s| s.submit_s * 1e6).collect();
    let wait_ms: Vec<f64> = served
        .iter()
        .map(|s| (s.latency_s - s.submit_s) * 1e3)
        .collect();
    for (base, samples) in [
        ("gateway.submit_us", &submit_us),
        ("gateway.wait_ms", &wait_ms),
        ("gateway.direct_ms", &direct_ms.to_vec()),
        ("gateway.overhead_ms", &overhead_ms.to_vec()),
    ] {
        ledger.set(&format!("{base}.p50"), Value::single(median(samples), n));
        ledger.set(
            &format!("{base}.p95"),
            Value::single(percentile(samples, 95.0), n),
        );
    }
    let mean_delta = |b: &stigmergy_fleet::HistogramSnapshot,
                      a: &stigmergy_fleet::HistogramSnapshot| {
        ratio((a.sum - b.sum) as f64, (a.count - b.count) as f64)
    };
    let server_e2e = mean_delta(&before.e2e_ms, &after.e2e_ms);
    let jobs_seen = (after.e2e_ms.count - before.e2e_ms.count) as usize;
    ledger.set(
        "gateway.queue_wait_ms_mean",
        Value::single(
            mean_delta(&before.queue_wait_ms, &after.queue_wait_ms),
            jobs_seen,
        ),
    );
    ledger.set(
        "gateway.server_e2e_ms_mean",
        Value::single(server_e2e, jobs_seen),
    );
    let latency_mean = served.iter().map(|s| s.latency_s * 1e3).sum::<f64>() / n.max(1) as f64;
    ledger.set(
        "gateway.delivery_ms",
        Value::single(latency_mean - server_e2e, n),
    );
    let frames = served.iter().map(|s| s.progress + 2).sum::<u64>() as f64;
    ledger.set(
        "gateway.frames_per_job",
        Value::single(ratio(frames, n as f64), n),
    );
    let done: Vec<f64> = served
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .map(|r| {
            Message::Done {
                job: r.job,
                fingerprints: r.fingerprints.clone(),
                metrics_json: r.metrics_json.clone(),
            }
            .encode()
            .len() as f64
        })
        .collect();
    ledger.set(
        "gateway.wire.done_bytes",
        Value::single(ratio(done.iter().sum(), done.len() as f64), done.len()),
    );
}
