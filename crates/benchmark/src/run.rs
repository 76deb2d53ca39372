//! One workload, end to end: set-up, timed repetitions, and the checks
//! that the program's outputs are correct.
//!
//! Every repetition submits the same jobs, so its outputs must equal the
//! first repetition's. On top of that, the sweeps re-run every 16th
//! session serially with `run_session_contained` and compare the whole
//! report with the pool's, and `gateway-jobs` re-runs every 25th job
//! directly with `run_batch` and compares fingerprints and metrics JSON
//! byte for byte. A session that errors (poisoned included) or a job that
//! is refused or fails counts as failed; it does not make the run
//! incorrect.

use std::thread;
use std::time::{Duration, Instant};

use stigmergy_fleet::{
    run_batch, run_session_contained, BatchReport, BatchSpec, MetricsSnapshot, RunReport,
    SessionSpec,
};
use stigmergy_gateway::{Client, Gateway, GatewayConfig, JobRequest, JobResult};

use crate::metrics::{median, percentile, ratio, resolvable_percentile, Ledger, Value, END_TO_END};
use crate::workload::{self, Scale, Workload, WORKERS};

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub(crate) const SETUP_REPEATS: usize = 11;

/// Seconds of load run before anything is timed (never more than
/// `--seconds`). A process that starts on an idle shared machine runs its
/// first second or so at reduced speed; without this, that slowdown lands
/// on set-up and the first repetition.
pub(crate) const WARM_UP_SECONDS: f64 = 1.0;

/// The sweeps re-run every this-many-th session serially.
pub(crate) const SERIAL_CHECK_EVERY: usize = 16;

/// `gateway-jobs` re-runs every this-many-th job directly.
pub(crate) const DIRECT_CHECK_EVERY: usize = 25;

/// Closed-loop clients (one connection each) driving `gateway-jobs`.
pub(crate) const CLIENTS: usize = 2;

/// How one workload run is asked to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time: repetitions start while they still fit (at least one).
    pub seconds: u64,
    /// Whether to run the traced pass instead of the end-to-end one.
    pub traced: bool,
    /// Input size.
    pub scale: Scale,
}

/// What a run measured and found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: sessions for the sweeps, jobs for the gateway.
    pub attempted: u64,
    /// Operations that errored, were poisoned, refused, or failed.
    pub failed: u64,
    /// Correctness misses; empty means every output checked out.
    pub problems: Vec<String>,
    /// The metrics printed on the result line.
    pub ledger: Ledger,
    /// `"key":value` JSON members for the detail line.
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Whether every output checked out.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The detail line: provenance, counters, every metric with its unit
    /// and sample count, and each correctness miss.
    #[must_use]
    pub fn detail_line(&self) -> String {
        let mut members: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        members.push(format!(
            "\"failed_ppm\":{}",
            crate::metrics::num(ratio(self.failed as f64 * 1e6, self.attempted as f64))
        ));
        members.push(format!("\"metrics\":{}", self.ledger.detail_json()));
        let problems: Vec<String> = self.problems.iter().map(|p| json_string(p)).collect();
        members.push(format!("\"problems\":[{}]", problems.join(",")));
        format!("{{{}}}", members.join(","))
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.ledger.result_json()
        )
    }
}

/// Runs `workload` once, end to end or traced.
///
/// # Errors
///
/// Fails when the run cannot happen at all (socket errors, unreadable
/// `/proc/self/status`); correctness misses are reported in the
/// [`Outcome`] instead.
pub fn run_workload(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    if opts.traced {
        return crate::traced::trace(workload, opts);
    }
    let measured = if workload.served() {
        measure_served(workload, opts)?
    } else {
        measure_direct(workload, opts)?
    };
    measured.into_outcome(workload, opts)
}

/// Seconds since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs small batches shaped like the workload's first job until the
/// warm-up time has passed.
pub(crate) fn warm_machine(jobs: &[BatchSpec], opts: &Options) {
    let warm = workload::warm_up(&jobs[0]);
    let t = Instant::now();
    while secs(t) < WARM_UP_SECONDS.min(opts.seconds as f64) {
        std::hint::black_box(run_batch(&warm, WORKERS));
    }
}

/// Whether another repetition as long as the last still fits.
fn another_fits(start: Instant, last: f64, seconds: u64) -> bool {
    start.elapsed() + Duration::from_secs_f64(last) <= Duration::from_secs(seconds)
}

/// Work counters of one repetition (identical in every repetition).
#[derive(Debug, Clone)]
pub(crate) struct Counters {
    /// The merged fleet metrics of every job.
    pub fleet: MetricsSnapshot,
    /// Activations that moved a robot (direct runs only; the gateway's
    /// metrics JSON does not carry it).
    pub moves: Option<u64>,
    /// FNV-1a fold of (trace hash, trace length) in report order, as the
    /// committed `BENCH_*.json` rows compute `trace_fingerprint`.
    pub trace_fingerprint: Option<u64>,
}

impl Counters {
    fn of_direct(reports: &[BatchReport]) -> Self {
        let runs = reports.iter().flat_map(|r| &r.runs);
        Self {
            fleet: MetricsSnapshot::merge_all(reports.iter().map(|r| &r.metrics)),
            moves: Some(runs.clone().map(|r| r.moves).sum()),
            trace_fingerprint: Some(runs.fold(0xCBF2_9CE4_8422_2325, |h, r| {
                let h = stigmergy_fleet::fnv1a64_update(h, &r.trace_hash.to_le_bytes());
                stigmergy_fleet::fnv1a64_update(h, &(r.trace_len as u64).to_le_bytes())
            })),
        }
    }

    /// Channel bits the workload moved: delivered payload bits plus the
    /// algorithm layer's frame bits.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.fleet.delivered_bits + self.fleet.algo_bits
    }

    fn to_json(&self) -> String {
        let m = &self.fleet;
        let mut members: Vec<String> = [
            ("sessions", m.sessions),
            ("delivered", m.delivered),
            ("timed_out", m.timed_out),
            ("steps", m.steps),
            ("activations", m.activations),
            ("faults", m.faults),
            ("corrupt", m.corrupt),
            ("delivered_bits", m.delivered_bits),
            ("fec_corrected", m.fec_corrected),
            ("fec_rejected", m.fec_rejected),
            ("algo_rounds", m.algo_rounds),
            ("algo_bits", m.algo_bits),
            ("algo_decided", m.algo_decided),
        ]
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
        if let Some(moves) = self.moves {
            members.push(format!("\"moves\":{moves}"));
        }
        if let Some(fp) = self.trace_fingerprint {
            members.push(format!("\"trace_fingerprint\":{fp}"));
        }
        format!("{{{}}}", members.join(","))
    }
}

/// Raw measurements of an end-to-end run.
#[derive(Debug, Clone)]
struct Measured {
    setup_s: Vec<f64>,
    rep_walls: Vec<f64>,
    /// Job latencies in milliseconds, one vector per repetition.
    job_ms: Vec<Vec<f64>>,
    sessions: Vec<SessionSpec>,
    jobs_per_rep: usize,
    /// Sessions completed per repetition (failed jobs excluded).
    sessions_done: u64,
    counters: Counters,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Measured {
    fn into_outcome(self, workload: Workload, opts: &Options) -> Result<Outcome, String> {
        let mut ledger = Ledger::new(END_TO_END);
        ledger.set(
            "setup_s",
            Value::of_runs(
                median(&self.setup_s),
                self.setup_s.clone(),
                self.setup_s.len(),
            ),
        );
        let rates: Vec<f64> = self
            .rep_walls
            .iter()
            .map(|&w| ratio(self.sessions_done as f64, w))
            .collect();
        let reps = rates.len();
        // Timings report the run's fastest repetition: other tenants of a
        // shared machine only ever add time, so the fastest repetition is
        // the least disturbed measure of what the code costs. The detail
        // line keeps every repetition's min/median/max.
        let fastest = rates.iter().copied().fold(0.0, f64::max);
        ledger.set("sessions_per_s", Value::of_runs(fastest, rates, reps));
        // A tail percentile needs ten samples beyond it: with fewer jobs
        // per repetition than p95 needs, the tail metric reports the
        // highest percentile that has them, and never less than the median.
        let tail = resolvable_percentile(self.jobs_per_rep, 10).map_or(50, |p| p.clamp(50, 95));
        let jobs = self.job_ms.iter().map(Vec::len).sum();
        for (name, p) in [("job_p50_ms", 50.0), ("job_p95_ms", f64::from(tail))] {
            let per_rep: Vec<f64> = self.job_ms.iter().map(|ms| percentile(ms, p)).collect();
            let fastest = per_rep.iter().copied().fold(f64::INFINITY, f64::min);
            ledger.set(name, Value::of_runs(fastest, per_rep, jobs));
        }
        let fleet = &self.counters.fleet;
        ledger.set(
            "steps_per_delivered_bit",
            Value::single(
                ratio(fleet.steps as f64, self.counters.bits() as f64),
                fleet.sessions as usize,
            ),
        );
        ledger.set(
            "delivered_ppm",
            Value::single(
                ratio(fleet.delivered as f64 * 1e6, fleet.sessions as f64),
                fleet.sessions as usize,
            ),
        );
        ledger.set("peak_rss_mb", Value::single(peak_rss_mib()?, 1));
        let mut provenance = provenance(workload, opts, reps, &self.sessions, self.jobs_per_rep);
        provenance.push(("setup_repeats", SETUP_REPEATS.to_string()));
        provenance.push(("job_p95_ms_percentile", tail.to_string()));
        provenance.push(("counters", self.counters.to_json()));
        Ok(Outcome {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            ledger,
            provenance,
        })
    }
}

/// The provenance members every output line carries.
pub(crate) fn provenance(
    workload: Workload,
    opts: &Options,
    reps: usize,
    sessions: &[SessionSpec],
    jobs: usize,
) -> Vec<(&'static str, String)> {
    let nproc = thread::available_parallelism().map_or(1, std::num::NonZero::get);
    vec![
        ("workload", json_string(workload.name())),
        (
            "mode",
            json_string(if opts.traced { "traced" } else { "e2e" }),
        ),
        ("seed", opts.seed.to_string()),
        ("scale", json_string(opts.scale.name())),
        ("seconds", opts.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("workers", WORKERS.to_string()),
        ("repetitions", reps.to_string()),
        ("jobs_per_rep", jobs.to_string()),
        ("sessions_per_rep", sessions.len().to_string()),
        (
            "spec_fnv",
            json_string(&format!("{:016x}", workload::spec_fnv(sessions))),
        ),
    ]
}

/// The sweeps: jobs straight into `run_batch`, one after another.
fn measure_direct(workload: Workload, opts: &Options) -> Result<Measured, String> {
    warm_machine(&workload.jobs(opts.seed, opts.scale), opts);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let jobs = workload.jobs(opts.seed, opts.scale);
        let sessions = workload::expand(&jobs);
        let warm = workload::warm_up(&jobs[0]).sessions();
        std::hint::black_box(run_session_contained(&warm[0]));
        setup_s.push(secs(t));
        prepared = Some((jobs, sessions));
    }
    let (jobs, sessions) = prepared.expect("set-up ran at least once");

    let mut problems = Vec::new();
    let mut rep_walls = Vec::new();
    let mut job_ms = Vec::new();
    let mut first: Option<Vec<BatchReport>> = None;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let mut latencies = Vec::with_capacity(jobs.len());
        let reports: Vec<BatchReport> = jobs
            .iter()
            .map(|job| {
                let t = Instant::now();
                let report = run_batch(job, WORKERS);
                latencies.push(secs(t) * 1e3);
                report
            })
            .collect();
        rep_walls.push(secs(t));
        job_ms.push(latencies);
        match &first {
            None => first = Some(reports),
            Some(f) => {
                if !same_outputs(f, &reports) {
                    problems.push(format!(
                        "repetition {} produced different reports than repetition 1",
                        rep_walls.len()
                    ));
                }
            }
        }
        if !another_fits(start, rep_walls[rep_walls.len() - 1], opts.seconds) {
            break;
        }
    }
    let reports = first.expect("at least one repetition");
    let runs: Vec<RunReport> = reports.iter().flat_map(|r| r.runs.clone()).collect();
    problems.extend(check_sessions(&sessions, &runs));
    if runs.len() == sessions.len() {
        serial_pass(&sessions, &runs, SERIAL_CHECK_EVERY, &mut problems);
    }
    let failed_per_rep = runs.iter().filter(|r| r.error.is_some()).count() as u64;
    let reps = rep_walls.len() as u64;
    Ok(Measured {
        setup_s,
        job_ms,
        jobs_per_rep: jobs.len(),
        sessions_done: sessions.len() as u64,
        counters: Counters::of_direct(&reports),
        attempted: sessions.len() as u64 * reps,
        failed: failed_per_rep * reps,
        rep_walls,
        sessions,
        problems,
    })
}

fn same_outputs(a: &[BatchReport], b: &[BatchReport]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.runs == y.runs && x.metrics == y.metrics)
}

/// One session re-run serially, and how long that took.
#[derive(Debug, Clone)]
pub(crate) struct SerialRun {
    /// Index in the repetition's session list.
    pub index: usize,
    /// The serial run's report (equal to the pool's when correct).
    pub report: RunReport,
    /// Wall time of the `run_session_contained` call, in seconds.
    pub secs: f64,
}

/// Re-runs every `every`-th session with `run_session_contained`, timed,
/// and records a problem wherever the report differs from the pool's.
pub(crate) fn serial_pass(
    sessions: &[SessionSpec],
    runs: &[RunReport],
    every: usize,
    problems: &mut Vec<String>,
) -> Vec<SerialRun> {
    (0..sessions.len())
        .step_by(every)
        .map(|index| {
            let t = Instant::now();
            let report = run_session_contained(&sessions[index]);
            let secs = secs(t);
            if report != runs[index] {
                problems.push(format!(
                    "session {index} ({}) differs between the pool and a serial run",
                    describe(&sessions[index])
                ));
            }
            SerialRun {
                index,
                report,
                secs,
            }
        })
        .collect()
}

/// Per-session output checks that hold for every correct run.
pub(crate) fn check_sessions(sessions: &[SessionSpec], runs: &[RunReport]) -> Vec<String> {
    let mut problems = Vec::new();
    if sessions.len() != runs.len() {
        problems.push(format!(
            "{} sessions submitted, {} reports returned",
            sessions.len(),
            runs.len()
        ));
        return problems;
    }
    for (i, (spec, run)) in sessions.iter().zip(runs).enumerate() {
        let payload_bits = 8 * spec.payload.len() as u64;
        let bits_ok = spec.algorithm.is_some()
            || run.delivered_bits == if run.delivered { payload_bits } else { 0 };
        // One benign preprocessing instant, then at most the budget.
        let steps_ok = run.error.is_some() || run.steps <= spec.budget() + 1;
        if run.seed != spec.seed || !bits_ok || !steps_ok {
            problems.push(format!(
                "session {i} ({}): report inconsistent with its spec (delivered {}, bits {}, steps {} of budget {})",
                describe(spec),
                run.delivered,
                run.delivered_bits,
                run.steps,
                spec.budget()
            ));
        }
    }
    problems
}

/// A short, unique description of a session for error messages.
pub(crate) fn describe(spec: &SessionSpec) -> String {
    format!(
        "{}/{}/{}/{}, seed {}",
        spec.protocol.name(),
        spec.algorithm.map_or("-", |a| a.name()),
        spec.schedule.name(),
        spec.plan.name(),
        spec.seed
    )
}

/// One job as a client saw it.
#[derive(Debug, Clone)]
pub(crate) struct Served {
    /// Index in the repetition's job list.
    pub index: usize,
    /// `Client::submit`, in seconds.
    pub submit_s: f64,
    /// Submit to `Done`/`Failed`, in seconds.
    pub latency_s: f64,
    /// Progress frames received.
    pub progress: u64,
    /// The job's result, or why it was refused or failed.
    pub result: Result<JobResult, String>,
}

/// A loopback gateway with its clients connected and one warm-up job
/// served.
pub(crate) struct Serving {
    pub gateway: Gateway,
    pub clients: Vec<Client>,
}

impl Serving {
    /// Binds, connects [`CLIENTS`] clients, and serves a warm-up job.
    pub(crate) fn open(jobs: &[BatchSpec]) -> Result<Self, String> {
        let gateway = Gateway::bind(("127.0.0.1", 0), GatewayConfig::default())
            .map_err(|e| format!("gateway bind: {e}"))?;
        let mut serving = Serving {
            clients: Vec::with_capacity(CLIENTS),
            gateway,
        };
        for _ in 0..CLIENTS {
            let client = Client::connect(serving.gateway.local_addr())
                .map_err(|e| format!("gateway connect: {e}"))?;
            serving.clients.push(client);
        }
        let warm = request(&workload::warm_up(&jobs[0]));
        serving.clients[0]
            .submit_and_wait(&warm, |_, _| {})
            .map_err(|e| format!("warm-up job: {e}"))?;
        Ok(serving)
    }

    /// Closes the connections, drains the gateway and joins its threads.
    pub(crate) fn close(self) {
        drop(self.clients);
        self.gateway.shutdown_and_join();
    }

    /// Every job once, from [`CLIENTS`] closed-loop clients with zero
    /// think time; client `c` submits jobs `c`, `c + CLIENTS`, …. Returns
    /// the jobs in list order and the loop's wall time in seconds.
    pub(crate) fn closed_loop(&mut self, jobs: &[BatchSpec]) -> (Vec<Served>, f64) {
        let stride = self.clients.len();
        let start = Instant::now();
        let mut served: Vec<Served> = thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        (c..jobs.len())
                            .step_by(stride)
                            .map(|j| serve_one(client, j, &jobs[j]))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = secs(start);
        served.sort_by_key(|s| s.index);
        (served, wall)
    }
}

fn request(spec: &BatchSpec) -> JobRequest {
    JobRequest {
        spec: spec.clone(),
        workers: WORKERS as u64,
        deadline_ms: 0,
    }
}

fn serve_one(client: &mut Client, index: usize, spec: &BatchSpec) -> Served {
    let request = request(spec);
    let t = Instant::now();
    let ticket = client.submit(&request);
    let submit_s = secs(t);
    let mut progress = 0;
    let result = ticket
        .and_then(|ticket| client.wait(ticket.job, |_, _| progress += 1))
        .map_err(|e| e.to_string());
    Served {
        index,
        submit_s,
        latency_s: secs(t),
        progress,
        result,
    }
}

/// Checks one repetition of served jobs: each must be `Done` with one
/// fingerprint per session (a refused or failed job is a failure, not a
/// miss). Returns the number failed.
pub(crate) fn check_served(
    jobs: &[BatchSpec],
    served: &[Served],
    problems: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for s in served {
        match &s.result {
            Err(_) => failed += 1,
            Ok(result) => {
                let expected = jobs[s.index].sessions().len();
                if result.fingerprints.len() != expected {
                    problems.push(format!(
                        "job {} returned {} fingerprints for {expected} sessions",
                        s.index,
                        result.fingerprints.len()
                    ));
                }
            }
        }
    }
    failed
}

/// Whether a served job answered exactly what a direct run answers.
pub(crate) fn matches_direct(result: &JobResult, direct: &BatchReport) -> bool {
    let fingerprints: Vec<u64> = direct.runs.iter().map(|r| r.trace_hash).collect();
    result.fingerprints == fingerprints && result.metrics_json == direct.metrics.to_json()
}

/// `gateway-jobs`: every job through a loopback gateway.
fn measure_served(workload: Workload, opts: &Options) -> Result<Measured, String> {
    warm_machine(&workload.jobs(opts.seed, opts.scale), opts);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared: Option<(Vec<BatchSpec>, Serving)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, serving)) = prepared.take() {
            serving.close();
        }
        let t = Instant::now();
        let jobs = workload.jobs(opts.seed, opts.scale);
        let serving = Serving::open(&jobs)?;
        setup_s.push(secs(t));
        prepared = Some((jobs, serving));
    }
    let (jobs, mut serving) = prepared.expect("set-up ran at least once");

    let mut problems = Vec::new();
    let mut rep_walls = Vec::new();
    let mut job_ms = Vec::new();
    let mut failed = 0;
    let mut first: Option<Vec<Served>> = None;
    let start = Instant::now();
    loop {
        let (served, wall) = serving.closed_loop(&jobs);
        rep_walls.push(wall);
        job_ms.push(served.iter().map(|s| s.latency_s * 1e3).collect());
        failed += check_served(&jobs, &served, &mut problems);
        match &first {
            None => first = Some(served),
            Some(f) => {
                let same = f
                    .iter()
                    .zip(&served)
                    .all(|(a, b)| match (&a.result, &b.result) {
                        (Ok(x), Ok(y)) => {
                            x.fingerprints == y.fingerprints && x.metrics_json == y.metrics_json
                        }
                        _ => true,
                    });
                if !same {
                    problems.push(format!(
                        "repetition {} served different results than repetition 1",
                        rep_walls.len()
                    ));
                }
            }
        }
        if !another_fits(start, wall, opts.seconds) {
            break;
        }
    }
    serving.close();

    let served = first.expect("at least one repetition");
    for s in served.iter().step_by(DIRECT_CHECK_EVERY) {
        if let Ok(result) = &s.result {
            if !matches_direct(result, &run_batch(&jobs[s.index], WORKERS)) {
                problems.push(format!(
                    "job {} served bytes that differ from a direct run_batch",
                    s.index
                ));
            }
        }
    }
    let mut fleet = MetricsSnapshot::empty();
    let mut sessions_done = 0;
    for s in &served {
        if let Ok(result) = &s.result {
            match snapshot_from_json(&result.metrics_json) {
                Some(m) => {
                    sessions_done += m.sessions;
                    fleet.merge(&m);
                }
                None => problems.push(format!("job {} returned unreadable metrics JSON", s.index)),
            }
        }
    }
    let reps = rep_walls.len() as u64;
    Ok(Measured {
        setup_s,
        job_ms,
        jobs_per_rep: jobs.len(),
        sessions_done,
        counters: Counters {
            fleet,
            moves: None,
            trace_fingerprint: None,
        },
        attempted: jobs.len() as u64 * reps,
        failed,
        rep_walls,
        sessions: workload::expand(&jobs),
        problems,
    })
}

/// The counters of a served `MetricsSnapshot::to_json` (histograms are
/// left empty: no metric reads them).
pub(crate) fn snapshot_from_json(json: &str) -> Option<MetricsSnapshot> {
    let field = |key: &str| -> Option<u64> {
        let tag = format!("\"{key}\":");
        let tail = &json[json.find(&tag)? + tag.len()..];
        tail[..tail.find([',', '}'])?].parse().ok()
    };
    Some(MetricsSnapshot {
        sessions: field("sessions")?,
        delivered: field("delivered")?,
        timed_out: field("timed_out")?,
        steps: field("steps")?,
        activations: field("activations")?,
        faults: field("faults")?,
        retransmissions: field("retransmissions")?,
        corrupt: field("corrupt")?,
        delivered_bits: field("delivered_bits")?,
        fec_corrected: field("fec_corrected")?,
        fec_rejected: field("fec_rejected")?,
        algo_rounds: field("algo_rounds")?,
        algo_bits: field("algo_bits")?,
        algo_decided: field("algo_decided")?,
        ..MetricsSnapshot::empty()
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` has no `VmHWM` line.
pub(crate) fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// A JSON string literal (the benchmark's strings need only `"` and `\`
/// escaped, plus control characters).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_metrics_json_round_trips_its_counters() {
        let report = run_batch(
            &BatchSpec {
                budget_cap: Some(150),
                ..BatchSpec::conformance_matrix(vec![0])
            },
            1,
        );
        let parsed = snapshot_from_json(&report.metrics.to_json()).unwrap();
        assert_eq!(parsed.sessions, report.metrics.sessions);
        assert_eq!(parsed.steps, report.metrics.steps);
        assert_eq!(parsed.delivered, report.metrics.delivered);
        assert_eq!(parsed.delivered_bits, report.metrics.delivered_bits);
        assert_eq!(parsed.algo_bits, report.metrics.algo_bits);
        assert!(snapshot_from_json("{\"sessions\":1}").is_none());
    }

    #[test]
    fn inconsistent_reports_are_named() {
        let spec = &BatchSpec {
            budget_cap: Some(100),
            ..BatchSpec::conformance_matrix(vec![0])
        }
        .sessions()[..1];
        let mut runs = vec![run_session_contained(&spec[0])];
        assert!(check_sessions(spec, &runs).is_empty());
        let mut problems = Vec::new();
        assert_eq!(serial_pass(spec, &runs, 1, &mut problems).len(), 1);
        assert!(problems.is_empty());
        runs[0].steps = spec[0].budget() + 2;
        let problems = check_sessions(spec, &runs);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("sync2/-/lagging-robot/non-rigid, seed 0"),
            "{}",
            problems[0]
        );
        let mut problems = Vec::new();
        serial_pass(spec, &runs, 1, &mut problems);
        assert!(problems[0].contains("differs between the pool and a serial run"));
        assert!(!check_sessions(spec, &[]).is_empty());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
