//! `stigmergy-gateway` — fleet sweeps as a network service.
//!
//! The fleet runtime (PR 2) runs deterministic batch sweeps in-process;
//! this crate puts them behind a TCP daemon, `stigmergyd`, so sweeps can
//! be submitted, observed, and cancelled from other processes. It is
//! built entirely on `std::net` and the workspace's own hand-rolled
//! pool pattern — no async runtime, no external dependencies — and its
//! wire protocol is protected by the same CRC-8 the robots' wireless
//! backup channel uses (`stigmergy-coding::checksum`).
//!
//! The crate ships both halves:
//!
//! * [`Gateway`] ([`server`]) — the daemon: bounded job queue with
//!   typed admission control, per-job deadlines, client-initiated
//!   cancellation, streamed progress, serving metrics, and a graceful
//!   shutdown that drains every accepted job;
//! * [`Client`] ([`client`]) — a blocking client library used by the
//!   `experiments` CLI, the loopback tests, and the CI smoke job.
//!
//! The contract that matters: a job submitted through the gateway
//! returns the *same bytes* a direct `run_batch` of the same spec
//! returns — identical per-seed trace fingerprints, identical
//! stable-order metrics JSON — at any worker count. Serving adds
//! transport and scheduling, never nondeterminism.

pub mod client;
pub mod metrics;
pub mod server;
pub mod wire;

pub use client::{Client, JobResult, Ticket};
pub use metrics::{GatewayMetrics, GatewayMetricsSnapshot, LATENCY_MS_BOUNDS};
pub use server::{termination_flag, Gateway, GatewayConfig};
pub use wire::{
    CancelState, FailReason, FrameBuffer, JobRequest, Message, RejectReason, MAX_FRAME,
    WIRE_VERSION,
};

use stigmergy_scheduler::wire::WireError;

/// Everything that can go wrong speaking to (or serving) the gateway.
#[derive(Debug)]
pub enum GatewayError {
    /// A transport error (including EOF mid-frame).
    Io(std::io::Error),
    /// A structurally malformed frame body.
    Wire(WireError),
    /// A frame whose CRC-8 trailer did not verify.
    Corrupt,
    /// A well-formed frame that violates the protocol state machine.
    Protocol(String),
    /// The server refused to admit a submission.
    Rejected(RejectReason),
    /// The server accepted the job but it did not complete.
    JobFailed(FailReason),
    /// A length prefix exceeding [`MAX_FRAME`].
    FrameTooLarge(usize),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Io(e) => write!(f, "gateway I/O error: {e}"),
            GatewayError::Wire(e) => write!(f, "malformed frame: {e}"),
            GatewayError::Corrupt => write!(f, "frame failed CRC verification"),
            GatewayError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            GatewayError::Rejected(reason) => write!(f, "submission rejected: {reason}"),
            GatewayError::JobFailed(reason) => write!(f, "job failed: {reason}"),
            GatewayError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GatewayError::Io(e) => Some(e),
            GatewayError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GatewayError {
    fn from(e: std::io::Error) -> Self {
        GatewayError::Io(e)
    }
}

impl From<WireError> for GatewayError {
    fn from(e: WireError) -> Self {
        GatewayError::Wire(e)
    }
}
