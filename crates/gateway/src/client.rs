//! A blocking client for the gateway.
//!
//! One [`Client`] owns one connection. The server may interleave
//! streamed frames (progress for an earlier job) with responses to
//! later requests on the same connection, so every receive path drains
//! through a pending buffer: frames that answer someone else's question
//! are parked, not dropped, and [`Client::wait`] finds them later. This
//! keeps the client a strictly blocking, thread-free loop while still
//! supporting several in-flight jobs per connection.
//!
//! Reads go through a `BufReader`: the server sends every frame as its
//! own segment, and a streamed job is dozens of them, so one `read` per
//! arrival instead of two per frame keeps the client's share of the
//! machine small.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use crate::wire::{read_frame, write_frame, CancelState, JobRequest, Message, WIRE_VERSION};
use crate::GatewayError;

/// Admission receipt for a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// Server-assigned job id.
    pub job: u64,
    /// Accepted-but-unfinished jobs ahead at admission time.
    pub queued_ahead: u64,
}

/// A finished job's results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The job id.
    pub job: u64,
    /// Per-session trace fingerprints, in spec order — byte-equal to a
    /// direct `run_batch` of the same spec.
    pub fingerprints: Vec<u64>,
    /// Stable-order merged metrics JSON (`MetricsSnapshot::to_json`).
    pub metrics_json: String,
}

/// A blocking gateway connection.
#[derive(Debug)]
pub struct Client {
    /// Frames are read through the buffer and written to the inner
    /// stream via `get_mut`; the two directions never share bytes.
    stream: BufReader<TcpStream>,
    pending: VecDeque<Message>,
}

impl Client {
    /// Connects and performs the version handshake.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`GatewayError::Protocol`] on a version
    /// mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, GatewayError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            stream: BufReader::new(stream),
            pending: VecDeque::new(),
        };
        write_frame(
            client.stream.get_mut(),
            &Message::Hello {
                version: WIRE_VERSION,
            },
        )?;
        match read_frame(&mut client.stream)? {
            Message::HelloOk { version } if version == WIRE_VERSION => Ok(client),
            Message::HelloOk { version } => Err(GatewayError::Protocol(format!(
                "server speaks wire version {version}, client speaks {WIRE_VERSION}"
            ))),
            other => Err(unexpected(&other)),
        }
    }

    /// Receives the next frame, preferring parked ones that `accept`
    /// claims; frames nobody has claimed yet stay parked in order.
    fn recv(&mut self, accept: impl Fn(&Message) -> bool) -> Result<Message, GatewayError> {
        if let Some(pos) = self.pending.iter().position(&accept) {
            if let Some(msg) = self.pending.remove(pos) {
                return Ok(msg);
            }
        }
        loop {
            let msg = read_frame(&mut self.stream)?;
            if accept(&msg) {
                return Ok(msg);
            }
            self.pending.push_back(msg);
        }
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Rejected`] with the server's typed reason if the
    /// job was not admitted, otherwise transport or protocol errors.
    pub fn submit(&mut self, request: &JobRequest) -> Result<Ticket, GatewayError> {
        write_frame(
            self.stream.get_mut(),
            &Message::Submit {
                request: request.clone(),
            },
        )?;
        match self.recv(|m| matches!(m, Message::Accepted { .. } | Message::Rejected { .. }))? {
            Message::Accepted { job, queued_ahead } => Ok(Ticket { job, queued_ahead }),
            Message::Rejected { reason } => Err(GatewayError::Rejected(reason)),
            other => Err(unexpected(&other)),
        }
    }

    /// Blocks until `job` finishes, reporting each progress frame as
    /// `(completed, total)` to `on_progress`.
    ///
    /// # Errors
    ///
    /// [`GatewayError::JobFailed`] if the server reports the job
    /// cancelled, expired, or internally failed; otherwise transport or
    /// protocol errors.
    pub fn wait(
        &mut self,
        job: u64,
        mut on_progress: impl FnMut(u64, u64),
    ) -> Result<JobResult, GatewayError> {
        loop {
            let claimed = self.recv(|m| {
                matches!(
                    m,
                    Message::Progress { job: j, .. }
                    | Message::Done { job: j, .. }
                    | Message::Failed { job: j, .. } if *j == job
                )
            })?;
            match claimed {
                Message::Progress {
                    completed, total, ..
                } => on_progress(completed, total),
                Message::Done {
                    job,
                    fingerprints,
                    metrics_json,
                } => {
                    return Ok(JobResult {
                        job,
                        fingerprints,
                        metrics_json,
                    })
                }
                Message::Failed { reason, .. } => return Err(GatewayError::JobFailed(reason)),
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// [`Client::submit`] then [`Client::wait`].
    ///
    /// # Errors
    ///
    /// As the two steps.
    pub fn submit_and_wait(
        &mut self,
        request: &JobRequest,
        on_progress: impl FnMut(u64, u64),
    ) -> Result<JobResult, GatewayError> {
        let ticket = self.submit(request)?;
        self.wait(ticket.job, on_progress)
    }

    /// Cancels a job by id. Any connection may cancel any job.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors; the outcome itself is the typed
    /// [`CancelState`].
    pub fn cancel(&mut self, job: u64) -> Result<CancelState, GatewayError> {
        write_frame(self.stream.get_mut(), &Message::Cancel { job })?;
        match self.recv(|m| matches!(m, Message::CancelOk { job: j, .. } if *j == job))? {
            Message::CancelOk { state, .. } => Ok(state),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the gateway's serving-metrics snapshot as JSON.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn stats(&mut self) -> Result<String, GatewayError> {
        write_frame(self.stream.get_mut(), &Message::Stats)?;
        match self.recv(|m| matches!(m, Message::StatsOk { .. }))? {
            Message::StatsOk { json } => Ok(json),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the gateway to begin its graceful drain-and-exit.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn shutdown(&mut self) -> Result<(), GatewayError> {
        write_frame(self.stream.get_mut(), &Message::Shutdown)?;
        match self.recv(|m| matches!(m, Message::ShutdownOk))? {
            Message::ShutdownOk => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(msg: &Message) -> GatewayError {
    GatewayError::Protocol(format!("unexpected frame {msg:?}"))
}
