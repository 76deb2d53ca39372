//! The `stigmergyd` daemon: a TCP gateway serving fleet sweeps.
//!
//! # Architecture
//!
//! Four kinds of thread, all hand-rolled on `std` (the offline-vendored
//! constraint rules out tokio, and the fleet's own pool pattern —
//! `Mutex` + `Condvar` + scoped threads — extends naturally to serving):
//!
//! * **listener** — blocking accept loop; spawns one handler per
//!   client, survives transient accept errors, and exits once shutdown
//!   begins (the shutdown path wakes it with one loopback connect);
//! * **connection handlers** — one per client, polling reads through a
//!   [`FrameBuffer`] so a read timeout can never desynchronize a frame;
//!   responses and streamed events share a per-connection writer mutex,
//!   so frames from the runner and the handler never interleave;
//! * **runner** — pops accepted jobs from the bounded queue in FIFO
//!   order and executes each on the fleet pool via `run_batch_with`,
//!   streaming one `Progress` frame per finished session;
//! * **watchdog** — expires deadlines: queued jobs are failed in place,
//!   the running job gets its cancel token set.
//!
//! # Admission control
//!
//! The queue is bounded by [`GatewayConfig::capacity`], counting
//! accepted-but-unfinished jobs (queued + running). A submission over
//! the bound is rejected immediately with a typed
//! [`RejectReason::QueueFull`] — the gateway never buffers unboundedly
//! and never blocks a client on someone else's backlog. Validation
//! failures and draining are equally explicit ([`RejectReason::InvalidSpec`],
//! [`RejectReason::ShuttingDown`]).
//!
//! # Determinism
//!
//! A job is executed by the same `run_batch_with` a local caller would
//! use, with the decoded spec `==` to the submitted one, so the returned
//! fingerprints and metrics JSON are byte-identical to a direct
//! `run_batch` at any worker count. Cancellation only stops *pending*
//! sessions; everything that ran is untouched.
//!
//! # Graceful shutdown
//!
//! [`Gateway::begin_shutdown`] (or a client `Shutdown` frame, or
//! SIGTERM via [`termination_flag`]) stops the listener, flips
//! admission to reject-with-`ShuttingDown`, and lets the runner drain
//! every already-accepted job — each still streams progress and gets
//! its `Done` frame — before the process exits.

// The daemon is the workspace's wall-clock/threading boundary: deadlines
// and queue-wait metrics need real time, and each connection gets a real
// thread. Everything deterministic happens below run_batch_with.
#![allow(clippy::disallowed_methods)]

use std::collections::VecDeque;
use std::io::Read;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stigmergy_fleet::{run_batch_with, CancelToken};

use crate::metrics::{GatewayMetrics, GatewayMetricsSnapshot};
use crate::wire::{
    write_frame, CancelState, FailReason, FrameBuffer, JobRequest, Message, RejectReason,
    WIRE_VERSION,
};

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bound on accepted-but-unfinished jobs (queued + running).
    pub capacity: usize,
    /// Ceiling on the per-job fleet worker count a client may request.
    pub max_workers: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            capacity: 8,
            max_workers: 32,
        }
    }
}

/// Ceiling on a job's expanded session count.
pub const MAX_SESSIONS: usize = 250_000;
/// Ceiling on a job's payload length in bytes.
pub const MAX_PAYLOAD: usize = 1_024;
/// Ceiling on a job's swarm cohort.
pub const MAX_COHORT: usize = 64;

/// Read timeout on accepted sockets: how often a connection handler
/// wakes to observe shutdown. It bounds the drain, not request latency.
const READ_POLL: Duration = Duration::from_millis(25);
/// Pause after a failed `accept` (`ECONNABORTED`, `EMFILE`, …) before
/// the listener tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// Bound on the loopback connect that wakes the listener at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Validates a job request against the serving limits, so a hostile or
/// buggy spec is rejected at admission instead of panicking the runner.
/// Whether a spec is legal at all is the spec's own rule
/// (`ScheduleSpec::validate` and its siblings, `fleet::paced_config` for
/// the coding); this adds only what the gateway is willing to serve.
///
/// # Errors
///
/// A human-readable description of the first violated limit.
pub fn validate_request(req: &JobRequest, config: &GatewayConfig) -> Result<(), String> {
    if req.workers == 0 {
        return Err("workers must be at least 1".into());
    }
    if req.workers > config.max_workers {
        return Err(format!(
            "workers {} exceeds the gateway cap {}",
            req.workers, config.max_workers
        ));
    }
    let spec = &req.spec;
    if spec.protocols.is_empty() && spec.algorithms.is_empty() {
        return Err("spec has no protocols or algorithms".into());
    }
    if spec.schedules.is_empty() {
        return Err("spec has no schedules".into());
    }
    if spec.plans.is_empty() {
        return Err("spec has no fault plans".into());
    }
    if spec.seeds.is_empty() {
        return Err("spec has no seeds".into());
    }
    if !(2..=MAX_COHORT).contains(&spec.cohort) {
        return Err(format!("cohort {} outside 2..={MAX_COHORT}", spec.cohort));
    }
    if spec.payload.is_empty() || spec.payload.len() > MAX_PAYLOAD {
        return Err(format!(
            "payload length {} outside 1..={MAX_PAYLOAD}",
            spec.payload.len()
        ));
    }
    if spec.budget_cap == Some(0) {
        return Err("budget cap must be at least 1".into());
    }
    if spec.keep_traces {
        return Err("keep_traces is not servable; traces are returned as fingerprints".into());
    }
    let sessions = spec
        .protocols
        .len()
        .checked_add(spec.algorithms.len())
        .and_then(|n| n.checked_mul(spec.schedules.len()))
        .and_then(|n| n.checked_mul(spec.plans.len()))
        .and_then(|n| n.checked_mul(spec.seeds.len()))
        .ok_or("session count overflows")?;
    if sessions > MAX_SESSIONS {
        return Err(format!("{sessions} sessions exceed the {MAX_SESSIONS} cap"));
    }
    // Each spec's own rule: the contract of what the sessions build.
    for algorithm in &spec.algorithms {
        algorithm.validate(spec.cohort)?;
    }
    for schedule in &spec.schedules {
        schedule.validate(spec.cohort)?;
    }
    for plan in &spec.plans {
        plan.validate(spec.cohort)?;
    }
    stigmergy_fleet::paced_config(spec.coding)
        .map_err(|e| format!("{} coding: {e}", spec.coding.name()))?;
    Ok(())
}

/// One accepted job, parked in the bounded queue.
struct Job {
    id: u64,
    request: JobRequest,
    accepted_at: Instant,
    deadline: Option<Instant>,
    cancel: Arc<CancelToken>,
    fail_reason: Arc<Mutex<Option<FailReason>>>,
    conn: Arc<ConnWriter>,
}

/// The running job's control surface, visible to cancel/watchdog while
/// the runner owns the `Job` itself.
struct RunningJob {
    id: u64,
    deadline: Option<Instant>,
    cancel: Arc<CancelToken>,
    fail_reason: Arc<Mutex<Option<FailReason>>>,
}

struct State {
    queue: VecDeque<Job>,
    running: Option<RunningJob>,
    next_id: u64,
    shutting_down: bool,
    paused: bool,
}

/// Per-connection writer: every frame (response or streamed event) is
/// written whole under the mutex.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    outstanding: AtomicUsize,
}

impl ConnWriter {
    /// Best-effort send; a client that hung up just stops receiving.
    fn send(&self, msg: &Message) {
        let mut stream = self.stream.lock().expect("writer poisoned");
        // stiglint: allow(lock-discipline) -- by design: the mutex exists to serialize whole-frame writes on this stream; only this connection's threads contend, and the frame is already encoded
        let _ = write_frame(&mut *stream, msg);
    }

    fn job_finished(&self, msg: &Message) {
        self.send(msg);
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

struct Shared {
    config: GatewayConfig,
    /// Where [`Shared::begin_shutdown`] connects to wake the listener.
    wake_addr: SocketAddr,
    metrics: GatewayMetrics,
    state: Mutex<State>,
    work: Condvar,
    shutdown: AtomicBool,
    drained: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

impl Shared {
    /// Admission control: validate, then accept under the capacity bound
    /// or reject with a typed reason.
    fn submit(&self, request: JobRequest, conn: &Arc<ConnWriter>) -> Message {
        if let Err(detail) = validate_request(&request, &self.config) {
            self.metrics.record_rejected_invalid();
            return Message::Rejected {
                reason: RejectReason::InvalidSpec { detail },
            };
        }
        let mut st = self.state.lock().expect("state poisoned");
        if st.shutting_down {
            self.metrics.record_rejected_shutdown();
            return Message::Rejected {
                reason: RejectReason::ShuttingDown,
            };
        }
        let in_flight = st.queue.len() + usize::from(st.running.is_some());
        if in_flight >= self.config.capacity {
            self.metrics.record_rejected_full();
            return Message::Rejected {
                reason: RejectReason::QueueFull {
                    capacity: self.config.capacity as u64,
                },
            };
        }
        let id = st.next_id;
        st.next_id += 1;
        let deadline = (request.deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(request.deadline_ms));
        conn.outstanding.fetch_add(1, Ordering::AcqRel);
        st.queue.push_back(Job {
            id,
            request,
            accepted_at: Instant::now(),
            deadline,
            cancel: Arc::new(CancelToken::new()),
            fail_reason: conn_reason_none(),
            conn: Arc::clone(conn),
        });
        drop(st);
        self.metrics.record_accepted();
        self.work.notify_all();
        Message::Accepted {
            job: id,
            queued_ahead: in_flight as u64,
        }
    }

    /// Cancels a job wherever it currently is.
    fn cancel(&self, id: u64) -> CancelState {
        let mut st = self.state.lock().expect("state poisoned");
        if let Some(pos) = st.queue.iter().position(|j| j.id == id) {
            let job = st.queue.remove(pos).expect("position just found");
            drop(st);
            self.metrics.record_cancelled();
            job.conn.job_finished(&Message::Failed {
                job: id,
                reason: FailReason::Cancelled,
            });
            return CancelState::Dequeued;
        }
        if let Some(running) = st.running.as_ref().filter(|r| r.id == id) {
            let mut reason = running.fail_reason.lock().expect("reason poisoned");
            reason.get_or_insert(FailReason::Cancelled);
            running.cancel.cancel();
            return CancelState::Signalled;
        }
        if id < st.next_id {
            CancelState::Finished
        } else {
            CancelState::Unknown
        }
    }

    /// Flips the gateway into draining mode. Idempotent.
    fn begin_shutdown(&self) {
        let first = !self.shutdown.swap(true, Ordering::AcqRel);
        let mut st = self.state.lock().expect("state poisoned");
        st.shutting_down = true;
        // Drain overrides pause: shutdown must terminate.
        st.paused = false;
        drop(st);
        self.work.notify_all();
        if first {
            // Wake the listener out of its blocking accept; it sees the
            // flag and drops this connection. If the connect fails, the
            // listener is either erroring already (and checks the flag
            // after its backoff) or has a full backlog to accept from.
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        }
    }

    /// The runner: FIFO over accepted jobs, drain-then-exit on shutdown.
    fn runner(self: &Arc<Self>) {
        loop {
            let job = {
                let mut st = self.state.lock().expect("state poisoned");
                loop {
                    if !st.paused {
                        if let Some(job) = st.queue.pop_front() {
                            st.running = Some(RunningJob {
                                id: job.id,
                                deadline: job.deadline,
                                cancel: Arc::clone(&job.cancel),
                                fail_reason: Arc::clone(&job.fail_reason),
                            });
                            break job;
                        }
                        if st.shutting_down {
                            drop(st);
                            self.drained.store(true, Ordering::Release);
                            return;
                        }
                    }
                    st = self.work.wait(st).expect("state poisoned");
                }
            };
            let (conn, outcome) = self.run_job(job);
            // Clear `running` before the final frame goes out: once a
            // client has seen Done/Failed, a cancel must find Finished,
            // never a stale running entry.
            self.state.lock().expect("state poisoned").running = None;
            conn.job_finished(&outcome);
        }
    }

    /// Executes one job, streaming progress; returns the final frame
    /// (Done or Failed) for the runner to deliver after it clears the
    /// running slot.
    fn run_job(&self, job: Job) -> (Arc<ConnWriter>, Message) {
        self.metrics
            .record_started(duration_ms(job.accepted_at.elapsed()));
        let expired_in_queue = job.deadline.is_some_and(|d| Instant::now() >= d);
        if !expired_in_queue {
            let workers = usize::try_from(job.request.workers).unwrap_or(usize::MAX);
            // The spec passed validation, but the engine's invariants are
            // deeper than admission checks: a panic inside one job must
            // become a Failed frame, never take down the daemon.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_batch_with(
                    &job.request.spec,
                    workers,
                    |p| {
                        job.conn.send(&Message::Progress {
                            job: job.id,
                            completed: p.completed as u64,
                            total: p.total as u64,
                        });
                    },
                    &job.cancel,
                )
            }));
            match outcome {
                Ok(Ok(report)) => {
                    self.metrics
                        .record_completed(duration_ms(job.accepted_at.elapsed()));
                    return (
                        Arc::clone(&job.conn),
                        Message::Done {
                            job: job.id,
                            fingerprints: report.runs.iter().map(|r| r.trace_hash).collect(),
                            metrics_json: report.metrics.to_json(),
                        },
                    );
                }
                Ok(Err(_interrupted)) => {} // fall through to the recorded reason
                Err(panic) => {
                    let detail = panic
                        .downcast_ref::<&str>()
                        .map(ToString::to_string)
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "job panicked".into());
                    let mut reason = job.fail_reason.lock().expect("reason poisoned");
                    reason.get_or_insert(FailReason::Internal { detail });
                }
            }
        }
        let reason = job
            .fail_reason
            .lock()
            .expect("reason poisoned")
            .clone()
            .unwrap_or(if expired_in_queue {
                FailReason::DeadlineExceeded
            } else {
                FailReason::Cancelled
            });
        match reason {
            FailReason::Cancelled | FailReason::Internal { .. } => self.metrics.record_cancelled(),
            FailReason::DeadlineExceeded => self.metrics.record_deadline_expired(),
        }
        (
            Arc::clone(&job.conn),
            Message::Failed {
                job: job.id,
                reason,
            },
        )
    }

    /// The watchdog: expires deadlines every few milliseconds.
    fn watchdog(&self) {
        while !self.drained.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5));
            let now = Instant::now();
            let mut expired = Vec::new();
            {
                let mut st = self.state.lock().expect("state poisoned");
                if let Some(running) = st.running.as_ref() {
                    if running.deadline.is_some_and(|d| now >= d) {
                        let mut reason = running.fail_reason.lock().expect("reason poisoned");
                        reason.get_or_insert(FailReason::DeadlineExceeded);
                        drop(reason);
                        running.cancel.cancel();
                    }
                }
                let mut i = 0;
                while i < st.queue.len() {
                    if st.queue[i].deadline.is_some_and(|d| now >= d) {
                        expired.push(st.queue.remove(i).expect("index in range"));
                    } else {
                        i += 1;
                    }
                }
            }
            for job in expired {
                self.metrics.record_deadline_expired();
                job.conn.job_finished(&Message::Failed {
                    job: job.id,
                    reason: FailReason::DeadlineExceeded,
                });
            }
        }
    }

    /// The accept loop: blocks in `accept` until a client connects or
    /// [`Shared::begin_shutdown`] wakes it; an accept error never ends it
    /// before shutdown.
    fn listener(self: &Arc<Self>, listener: &TcpListener) {
        loop {
            let accepted = listener.accept();
            if self.shutdown.load(Ordering::Acquire) {
                // The wake connect, or a client too late to be served.
                return;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(self);
                    let handle = std::thread::spawn(move || shared.connection(stream));
                    self.conns.lock().expect("conns poisoned").push(handle);
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
    }

    /// One client connection: poll reads, dispatch frames.
    fn connection(self: Arc<Self>, stream: TcpStream) {
        if configure_accepted(&stream).is_err() {
            return;
        }
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let writer = Arc::new(ConnWriter {
            stream: Mutex::new(write_half),
            outstanding: AtomicUsize::new(0),
        });
        let mut reader = stream;
        let mut frames = FrameBuffer::new();
        let mut buf = [0u8; 4096];
        let mut greeted = false;
        loop {
            // After the drain completes there is nothing left to serve.
            if self.drained.load(Ordering::Acquire)
                && writer.outstanding.load(Ordering::Acquire) == 0
            {
                return;
            }
            match reader.read(&mut buf) {
                Ok(0) => return, // EOF; any running job finishes unobserved
                Ok(n) => {
                    frames.extend(&buf[..n]);
                    loop {
                        match frames.next_frame() {
                            Ok(Some(msg)) => {
                                if !self.handle(&writer, &mut greeted, msg) {
                                    return;
                                }
                            }
                            Ok(None) => break,
                            // Corrupt or malformed stream: unrecoverable.
                            Err(_) => return,
                        }
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => return,
            }
        }
    }

    /// Dispatches one client frame; `false` closes the connection.
    fn handle(&self, writer: &Arc<ConnWriter>, greeted: &mut bool, msg: Message) -> bool {
        match msg {
            Message::Hello { version } => {
                writer.send(&Message::HelloOk {
                    version: WIRE_VERSION,
                });
                *greeted = version == WIRE_VERSION;
                *greeted
            }
            _ if !*greeted => false, // protocol violation: speak Hello first
            Message::Submit { request } => {
                let response = self.submit(request, writer);
                writer.send(&response);
                true
            }
            Message::Cancel { job } => {
                let state = self.cancel(job);
                writer.send(&Message::CancelOk { job, state });
                true
            }
            Message::Stats => {
                writer.send(&Message::StatsOk {
                    json: self.metrics.snapshot().to_json(),
                });
                true
            }
            Message::Shutdown => {
                writer.send(&Message::ShutdownOk);
                self.begin_shutdown();
                true
            }
            // Server-to-client frames arriving at the server are a
            // protocol violation.
            _ => false,
        }
    }
}

/// Puts an accepted socket in the state the handler relies on: blocking
/// (whatever the platform lets it inherit from the listener), Nagle off
/// so every response frame leaves at once instead of waiting on the
/// client's delayed ACK, and a [`READ_POLL`] read timeout so the handler
/// can observe shutdown between reads.
fn configure_accepted(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))
}

/// The address that reaches a listener bound to `bound`: an unspecified
/// bind address (`0.0.0.0`, `::`) maps to the loopback of its family.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    bound
}

/// A `None` fail reason, freshly allocated per job.
fn conn_reason_none() -> Arc<Mutex<Option<FailReason>>> {
    Arc::new(Mutex::new(None))
}

/// A running gateway daemon. Dropping without
/// [`Gateway::shutdown_and_join`] leaves threads detached; prefer the
/// explicit drain.
#[derive(Debug)]
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    runner: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// Binds and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind(addr: impl ToSocketAddrs, config: GatewayConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            wake_addr: wake_addr(addr),
            metrics: GatewayMetrics::new(),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                running: None,
                next_id: 0,
                shutting_down: false,
                paused: false,
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.listener(&listener))
        };
        let runner = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.runner())
        };
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.watchdog())
        };
        Ok(Self {
            addr,
            shared,
            listener: Some(accept),
            runner: Some(runner),
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the serving metrics.
    #[must_use]
    pub fn metrics(&self) -> GatewayMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Stops admission and accepting, lets accepted jobs drain.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether the drain has completed (every accepted job finished).
    #[must_use]
    pub fn finished(&self) -> bool {
        self.shared.drained.load(Ordering::Acquire)
    }

    /// Holds the runner before its next job — admission stays open, so
    /// tests and benchmarks can fill the queue deterministically.
    pub fn pause(&self) {
        self.shared.state.lock().expect("state poisoned").paused = true;
    }

    /// Releases [`Gateway::pause`].
    pub fn resume(&self) {
        self.shared.state.lock().expect("state poisoned").paused = false;
        self.shared.work.notify_all();
    }

    /// Initiates shutdown (idempotent), drains every accepted job, and
    /// joins all serving threads.
    ///
    /// # Panics
    ///
    /// Propagates a panic from a serving thread.
    pub fn shutdown_and_join(mut self) {
        self.shared.begin_shutdown();
        for handle in [
            self.listener.take(),
            self.runner.take(),
            self.watchdog.take(),
        ]
        .into_iter()
        .flatten()
        {
            handle.join().expect("serving thread panicked");
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns poisoned"));
        for handle in conns {
            handle.join().expect("connection thread panicked");
        }
    }
}

/// A process-wide flag set by SIGTERM/SIGINT, for daemon main loops:
/// poll it and call [`Gateway::shutdown_and_join`] when it flips. The
/// first call installs the handlers.
#[cfg(unix)]
#[must_use]
pub fn termination_flag() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    static INSTALL: std::sync::Once = std::sync::Once::new();
    extern "C" fn on_signal(_sig: i32) {
        // A store to a static atomic is async-signal-safe.
        FLAG.store(true, Ordering::SeqCst);
    }
    INSTALL.call_once(|| {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is the C library's handler registration; the
        // handler only stores to an atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    });
    &FLAG
}

/// Non-unix stub: a flag nothing ever sets.
#[cfg(not(unix))]
#[must_use]
pub fn termination_flag() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    &FLAG
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_fleet::{BatchSpec, ProtocolKind};

    fn small_request() -> JobRequest {
        JobRequest {
            spec: BatchSpec {
                budget_cap: Some(300),
                ..BatchSpec::conformance_matrix(vec![0])
            },
            workers: 2,
            deadline_ms: 0,
        }
    }

    #[test]
    fn validation_accepts_the_conformance_request() {
        assert_eq!(
            validate_request(&small_request(), &GatewayConfig::default()),
            Ok(())
        );
    }

    #[test]
    fn validation_rejects_degenerate_requests() {
        let config = GatewayConfig::default();
        let cases: Vec<(JobRequest, &str)> = vec![
            (
                JobRequest {
                    workers: 0,
                    ..small_request()
                },
                "workers",
            ),
            (
                JobRequest {
                    workers: config.max_workers + 1,
                    ..small_request()
                },
                "cap",
            ),
            (
                JobRequest {
                    spec: BatchSpec {
                        seeds: vec![],
                        ..small_request().spec
                    },
                    ..small_request()
                },
                "seeds",
            ),
            (
                JobRequest {
                    spec: BatchSpec {
                        cohort: 1,
                        ..small_request().spec
                    },
                    ..small_request()
                },
                "cohort",
            ),
            (
                JobRequest {
                    spec: BatchSpec {
                        payload: vec![],
                        ..small_request().spec
                    },
                    ..small_request()
                },
                "payload",
            ),
            (
                JobRequest {
                    spec: BatchSpec {
                        budget_cap: Some(0),
                        ..small_request().spec
                    },
                    ..small_request()
                },
                "budget",
            ),
            (
                JobRequest {
                    spec: BatchSpec {
                        keep_traces: true,
                        ..small_request().spec
                    },
                    ..small_request()
                },
                "keep_traces",
            ),
            (
                JobRequest {
                    spec: BatchSpec {
                        seeds: (0..100_000).collect(),
                        ..small_request().spec
                    },
                    ..small_request()
                },
                "cap",
            ),
        ];
        for (request, needle) in cases {
            let err = validate_request(&request, &config).expect_err(needle);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn validation_rejects_malformed_schedules_and_plans() {
        use stigmergy_scheduler::{FaultSpec, ScheduleSpec};
        let mut bad_script = small_request();
        bad_script.spec.schedules = vec![ScheduleSpec::Scripted {
            script: vec![vec![0], vec![]],
        }];
        assert!(validate_request(&bad_script, &GatewayConfig::default())
            .expect_err("empty step")
            .contains("activates no robot"));

        let mut out_of_range = small_request();
        out_of_range.spec.schedules = vec![ScheduleSpec::Scripted {
            script: vec![vec![99]],
        }];
        assert!(validate_request(&out_of_range, &GatewayConfig::default())
            .expect_err("robot outside cohort")
            .contains("outside cohort"));

        let mut bad_p = small_request();
        bad_p.spec.schedules = vec![ScheduleSpec::FairAsync {
            seed: 1,
            p: 1.5,
            max_gap: 4,
        }];
        assert!(validate_request(&bad_p, &GatewayConfig::default())
            .expect_err("p out of range")
            .contains("outside (0, 1]"));

        let mut bad_prob = small_request();
        bad_prob.spec.plans = vec![FaultSpec::Dropout { prob: 2.0 }];
        assert!(validate_request(&bad_prob, &GatewayConfig::default())
            .expect_err("prob out of range")
            .contains("outside [0, 1]"));

        // Shapes that break a constructor's `# Panics` contract: each
        // would panic every session it ran in.
        let schedules = [
            ScheduleSpec::Bursty {
                seed: 1,
                burst_len: 3,
                lull_len: 0,
            },
            ScheduleSpec::LaggingReceiver { max_gap: 0 },
            ScheduleSpec::Lagging {
                victim: 0,
                max_gap: 0,
            },
        ];
        for schedule in schedules {
            let mut request = small_request();
            request.spec.schedules = vec![schedule.clone()];
            assert!(
                validate_request(&request, &GatewayConfig::default())
                    .expect_err("zero-length phase or gap")
                    .contains("must be positive"),
                "{schedule:?}"
            );
        }
        let plans = [
            FaultSpec::NonRigid {
                delta: 0.0,
                prob: 0.5,
            },
            FaultSpec::Crash {
                robot: 1,
                time: 35,
                delta: 0.0,
                prob: 0.25,
            },
        ];
        for plan in plans {
            let mut request = small_request();
            request.spec.plans = vec![plan.clone()];
            assert!(
                validate_request(&request, &GatewayConfig::default())
                    .expect_err("delta of zero")
                    .contains("outside (0, 1]"),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn validation_rejects_a_crash_outside_the_cohort() {
        use stigmergy_scheduler::FaultSpec;
        let crash = |robot| FaultSpec::Crash {
            robot,
            time: 35,
            delta: 0.5,
            prob: 0.25,
        };
        let mut request = small_request();
        request.spec.plans = vec![crash(2)];
        assert_eq!(
            validate_request(&request, &GatewayConfig::default()),
            Ok(())
        );
        request.spec.plans = vec![crash(3)];
        assert!(validate_request(&request, &GatewayConfig::default())
            .expect_err("crash robot outside cohort")
            .contains("crash robot 3 outside cohort 3"));
    }

    #[test]
    fn validation_rejects_an_invalid_coding() {
        use stigmergy_scheduler::CodingSpec;
        let mut request = small_request();
        // Asynchronous sessions ignore the coding, but a spec carrying an
        // invalid one is still malformed.
        request.spec.protocols = vec![ProtocolKind::Async2];
        request.spec.coding = CodingSpec::MultiLevel {
            levels: 3,
            dwell: 10,
        };
        assert!(validate_request(&request, &GatewayConfig::default())
            .expect_err("3 levels is not a power of two")
            .contains("coding"));
        request.spec.coding = CodingSpec::Fec {
            levels: 8,
            dwell: 0,
        };
        assert!(validate_request(&request, &GatewayConfig::default()).is_err());
    }

    #[test]
    fn accepted_sockets_are_blocking_with_nodelay_and_the_poll_timeout() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        // Start from the state a non-blocking listener can hand down.
        stream.set_nonblocking(true).unwrap();
        configure_accepted(&stream).unwrap();
        assert!(stream.nodelay().unwrap());
        // The kernel rounds the timeout up to its clock tick.
        let timeout = stream.read_timeout().unwrap().expect("read timeout set");
        assert!(
            (READ_POLL..READ_POLL + Duration::from_millis(10)).contains(&timeout),
            "{timeout:?}"
        );
        // Blocking mode: an idle read waits out the timeout instead of
        // failing at once with WouldBlock.
        let start = Instant::now();
        let err = (&stream).read(&mut [0u8; 1]).unwrap_err();
        assert!(matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ));
        assert!(start.elapsed() >= READ_POLL / 2, "{:?}", start.elapsed());
    }

    #[test]
    fn wake_addr_maps_unspecified_binds_to_loopback() {
        let cases = [
            ("0.0.0.0:7841", "127.0.0.1:7841"),
            ("[::]:7841", "[::1]:7841"),
            ("127.0.0.1:7841", "127.0.0.1:7841"),
            ("192.0.2.7:7841", "192.0.2.7:7841"),
        ];
        for (bound, want) in cases {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_addr(bound), want.parse::<SocketAddr>().unwrap());
        }
    }

    #[test]
    fn termination_flag_is_installable_and_unset() {
        assert!(!termination_flag().load(Ordering::SeqCst));
    }
}
