//! The gateway's wire protocol: versioned, length-prefixed, CRC-protected
//! frames.
//!
//! Every message travels as one frame:
//!
//! ```text
//! [len: u32 LE] [kind: u8] [body …] [crc8(kind‖body): u8]
//! ```
//!
//! where `len` counts everything after itself and the trailer is the
//! CRC-8 from `stigmergy-coding::checksum` — the same integrity check the
//! robots' wireless backup channel uses, so the serving layer eats its
//! own dogfood: a flipped bit anywhere in a frame is detected and the
//! frame rejected, never silently misparsed. This module knows only the
//! framing: every payload inside a body is a `scheduler::wire::Wire`
//! value whose codec lives with its type — the specs in
//! `scheduler::wire`, [`BatchSpec`] and `ProtocolKind` in `fleet::batch`,
//! and the job request and reply enums here. A [`BatchSpec`] submitted
//! over the wire decodes to a value `==` to the one the client held,
//! which is what makes the gateway's determinism guarantee meaningful end
//! to end; `tests/golden/submit-v3.hex` and `done-v3.hex` pin the bytes.
//!
//! The first frame on a connection must be [`Message::Hello`] carrying
//! [`WIRE_VERSION`]; the server answers [`Message::HelloOk`] or closes.
//! Frames larger than [`MAX_FRAME`] are rejected before allocation.

use stigmergy_coding::checksum;
use stigmergy_fleet::BatchSpec;
use stigmergy_scheduler::wire::{
    get_seq, put_bytes, put_seq, put_u32, put_u64, put_u8, Reader, Wire, WireError,
};

use crate::GatewayError;

/// Protocol version carried in the handshake.
///
/// Version 2 added the `algorithms` sequence to the [`BatchSpec`]
/// encoding; version 3 appended the `coding` spec (multi-symbol
/// signalling and FEC knobs). An older peer cannot parse the newer spec
/// frame, so the handshake rejects the mismatch up front.
pub const WIRE_VERSION: u16 = 3;

/// Hard ceiling on one frame's length field (16 MiB): a corrupt or
/// hostile length must fail fast, not allocate.
pub const MAX_FRAME: usize = 1 << 24;

/// One job submission: the sweep to run plus serving knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The sweep to run.
    pub spec: BatchSpec,
    /// Fleet worker threads for this job.
    pub workers: u64,
    /// Wall-clock deadline in milliseconds from acceptance; `0` = none.
    pub deadline_ms: u64,
}

impl Wire for JobRequest {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        put_u64(out, self.workers);
        put_u64(out, self.deadline_ms);
        self.spec.encode_wire(out);
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Fields in wire order: a struct literal evaluates in source order.
        Ok(JobRequest {
            workers: r.u64()?,
            deadline_ms: r.u64()?,
            spec: BatchSpec::decode_wire(r)?,
        })
    }
}

/// Why a submission was not accepted. Typed, so clients can distinguish
/// back-pressure from misuse without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity; retry later.
    QueueFull {
        /// The configured bound on accepted-but-unfinished jobs.
        capacity: u64,
    },
    /// The gateway is draining for shutdown; no new work is admitted.
    ShuttingDown,
    /// The request failed validation.
    InvalidSpec {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::ShuttingDown => write!(f, "gateway is shutting down"),
            RejectReason::InvalidSpec { detail } => write!(f, "invalid spec: {detail}"),
        }
    }
}

impl Wire for RejectReason {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        match self {
            RejectReason::QueueFull { capacity } => {
                put_u8(out, 0);
                put_u64(out, *capacity);
            }
            RejectReason::ShuttingDown => put_u8(out, 1),
            RejectReason::InvalidSpec { detail } => {
                put_u8(out, 2);
                put_bytes(out, detail.as_bytes());
            }
        }
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => RejectReason::QueueFull { capacity: r.u64()? },
            1 => RejectReason::ShuttingDown,
            2 => RejectReason::InvalidSpec {
                detail: decode_string(r, "reject detail")?,
            },
            tag => return Err(WireError::bad_tag("reject reason", tag)),
        })
    }
}

/// Why an accepted job did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailReason {
    /// A client cancelled it.
    Cancelled,
    /// Its deadline expired before it finished.
    DeadlineExceeded,
    /// The gateway failed internally.
    Internal {
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailReason::Cancelled => write!(f, "cancelled"),
            FailReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            FailReason::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl Wire for FailReason {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        match self {
            FailReason::Cancelled => put_u8(out, 0),
            FailReason::DeadlineExceeded => put_u8(out, 1),
            FailReason::Internal { detail } => {
                put_u8(out, 2);
                put_bytes(out, detail.as_bytes());
            }
        }
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => FailReason::Cancelled,
            1 => FailReason::DeadlineExceeded,
            2 => FailReason::Internal {
                detail: decode_string(r, "fail detail")?,
            },
            tag => return Err(WireError::bad_tag("fail reason", tag)),
        })
    }
}

/// What a cancellation request found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelState {
    /// The job was still queued and has been removed.
    Dequeued,
    /// The job was running; its cancel token is set and it will stop at
    /// the next session boundary.
    Signalled,
    /// The job already finished (delivered, failed, or was cancelled).
    Finished,
    /// No job with that id was ever accepted.
    Unknown,
}

impl Wire for CancelState {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        put_u8(
            out,
            match self {
                CancelState::Dequeued => 0,
                CancelState::Signalled => 1,
                CancelState::Finished => 2,
                CancelState::Unknown => 3,
            },
        );
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => CancelState::Dequeued,
            1 => CancelState::Signalled,
            2 => CancelState::Finished,
            3 => CancelState::Unknown,
            tag => return Err(WireError::bad_tag("cancel state", tag)),
        })
    }
}

/// Every frame the protocol speaks, both directions.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: handshake.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u16,
    },
    /// Server → client: handshake accepted.
    HelloOk {
        /// The server's [`WIRE_VERSION`].
        version: u16,
    },
    /// Client → server: submit a job.
    Submit {
        /// The job.
        request: JobRequest,
    },
    /// Server → client: the job was admitted.
    Accepted {
        /// Server-assigned job id (process-unique, monotone).
        job: u64,
        /// Accepted-but-unfinished jobs ahead of this one.
        queued_ahead: u64,
    },
    /// Server → client: the job was not admitted.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Server → client: streamed after each finished session.
    Progress {
        /// The job.
        job: u64,
        /// Sessions finished so far.
        completed: u64,
        /// Sessions in the job.
        total: u64,
    },
    /// Server → client: the job finished; results attached.
    Done {
        /// The job.
        job: u64,
        /// Per-session XXH64 trace fingerprints (`RunReport::trace_hash`),
        /// in spec order — byte-equal to a direct `run_batch` of the
        /// same spec.
        fingerprints: Vec<u64>,
        /// `MetricsSnapshot::to_json` of the merged metrics.
        metrics_json: String,
    },
    /// Server → client: the job was accepted but did not complete.
    Failed {
        /// The job.
        job: u64,
        /// Why.
        reason: FailReason,
    },
    /// Client → server: cancel a job by id (any connection may send it).
    Cancel {
        /// The job.
        job: u64,
    },
    /// Server → client: cancellation outcome.
    CancelOk {
        /// The job.
        job: u64,
        /// What the request found.
        state: CancelState,
    },
    /// Client → server: request the serving-metrics snapshot.
    Stats,
    /// Server → client: the metrics snapshot as JSON.
    StatsOk {
        /// `GatewayMetricsSnapshot::to_json` output.
        json: String,
    },
    /// Client → server: begin graceful shutdown (drain, then exit).
    Shutdown,
    /// Server → client: shutdown initiated.
    ShutdownOk,
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => 0x01,
            Message::HelloOk { .. } => 0x02,
            Message::Submit { .. } => 0x10,
            Message::Accepted { .. } => 0x11,
            Message::Rejected { .. } => 0x12,
            Message::Progress { .. } => 0x13,
            Message::Done { .. } => 0x14,
            Message::Failed { .. } => 0x15,
            Message::Cancel { .. } => 0x20,
            Message::CancelOk { .. } => 0x21,
            Message::Stats => 0x30,
            Message::StatsOk { .. } => 0x31,
            Message::Shutdown => 0x40,
            Message::ShutdownOk => 0x41,
        }
    }

    /// Encodes the message body (kind byte included, CRC excluded).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.kind()];
        match self {
            Message::Hello { version } | Message::HelloOk { version } => {
                put_u32(&mut out, u32::from(*version));
            }
            Message::Submit { request } => request.encode_wire(&mut out),
            Message::Accepted { job, queued_ahead } => {
                put_u64(&mut out, *job);
                put_u64(&mut out, *queued_ahead);
            }
            Message::Rejected { reason } => reason.encode_wire(&mut out),
            Message::Progress {
                job,
                completed,
                total,
            } => {
                put_u64(&mut out, *job);
                put_u64(&mut out, *completed);
                put_u64(&mut out, *total);
            }
            Message::Done {
                job,
                fingerprints,
                metrics_json,
            } => {
                put_u64(&mut out, *job);
                put_seq(&mut out, fingerprints);
                put_bytes(&mut out, metrics_json.as_bytes());
            }
            Message::Failed { job, reason } => {
                put_u64(&mut out, *job);
                reason.encode_wire(&mut out);
            }
            Message::Cancel { job } => put_u64(&mut out, *job),
            Message::CancelOk { job, state } => {
                put_u64(&mut out, *job);
                state.encode_wire(&mut out);
            }
            Message::StatsOk { json } => put_bytes(&mut out, json.as_bytes()),
            Message::Stats | Message::Shutdown | Message::ShutdownOk => {}
        }
        out
    }

    /// Decodes a message body (as produced by [`Message::encode`]).
    ///
    /// # Errors
    ///
    /// [`WireError`] on any structural problem, including trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let kind = r.u8()?;
        let msg = match kind {
            0x01 => Message::Hello {
                version: decode_version(&mut r)?,
            },
            0x02 => Message::HelloOk {
                version: decode_version(&mut r)?,
            },
            0x10 => Message::Submit {
                request: JobRequest::decode_wire(&mut r)?,
            },
            0x11 => Message::Accepted {
                job: r.u64()?,
                queued_ahead: r.u64()?,
            },
            0x12 => Message::Rejected {
                reason: RejectReason::decode_wire(&mut r)?,
            },
            0x13 => Message::Progress {
                job: r.u64()?,
                completed: r.u64()?,
                total: r.u64()?,
            },
            0x14 => Message::Done {
                job: r.u64()?,
                fingerprints: get_seq(&mut r, "fingerprints")?,
                metrics_json: decode_string(&mut r, "metrics json")?,
            },
            0x15 => Message::Failed {
                job: r.u64()?,
                reason: FailReason::decode_wire(&mut r)?,
            },
            0x20 => Message::Cancel { job: r.u64()? },
            0x21 => Message::CancelOk {
                job: r.u64()?,
                state: CancelState::decode_wire(&mut r)?,
            },
            0x30 => Message::Stats,
            0x31 => Message::StatsOk {
                json: decode_string(&mut r, "stats json")?,
            },
            0x40 => Message::Shutdown,
            0x41 => Message::ShutdownOk,
            tag => return Err(WireError::bad_tag("message kind", tag)),
        };
        r.finish()?;
        Ok(msg)
    }
}

fn decode_version(r: &mut Reader<'_>) -> Result<u16, WireError> {
    u16::try_from(r.u32()?).map_err(|_| WireError::BadValue {
        what: "protocol version",
    })
}

fn decode_string(r: &mut Reader<'_>, what: &'static str) -> Result<String, WireError> {
    String::from_utf8(r.bytes(what)?).map_err(|_| WireError::BadValue { what })
}

/// Writes one CRC-protected frame with a single `write_all`.
///
/// The length prefix and the protected body go out in one buffer: split
/// across two writes on a socket with Nagle's algorithm on, the body
/// would wait for the peer's delayed ACK of the prefix.
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidInput`] if the frame would exceed
/// [`MAX_FRAME`] (nothing is written); otherwise I/O errors from the
/// writer.
pub fn write_frame(w: &mut impl std::io::Write, msg: &Message) -> std::io::Result<()> {
    let body = msg.encode();
    let len = body.len() + 1; // the CRC-8 trailer
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("outgoing frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut frame = Vec::with_capacity(4 + len);
    // MAX_FRAME is far below u32::MAX, so the cast cannot truncate.
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame.push(checksum::crc8(&body));
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame from a blocking stream, verifying length and CRC.
///
/// # Errors
///
/// [`GatewayError::Io`] on transport errors (including EOF),
/// [`GatewayError::FrameTooLarge`] on an oversized length prefix,
/// [`GatewayError::Corrupt`] on CRC mismatch, and
/// [`GatewayError::Wire`] on a malformed body.
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Message, GatewayError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(GatewayError::FrameTooLarge(len));
    }
    let mut protected = vec![0u8; len];
    r.read_exact(&mut protected)?;
    decode_protected(&protected)
}

fn decode_protected(protected: &[u8]) -> Result<Message, GatewayError> {
    let body = checksum::verify(protected).map_err(|_| GatewayError::Corrupt)?;
    Ok(Message::decode(&body)?)
}

/// Incremental frame parser for non-blocking reads.
///
/// The server polls sockets with a short read timeout so it can observe
/// shutdown; a timeout can land mid-frame, so raw `read_exact` would
/// desynchronize the stream. The buffer accumulates whatever bytes
/// arrive and yields a frame only once it is complete.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one has fully arrived.
    ///
    /// # Errors
    ///
    /// [`GatewayError::FrameTooLarge`], [`GatewayError::Corrupt`], or
    /// [`GatewayError::Wire`] exactly as [`read_frame`]; the stream is
    /// unrecoverable after an error.
    pub fn next_frame(&mut self) -> Result<Option<Message>, GatewayError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&self.buf[..4]);
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME {
            return Err(GatewayError::FrameTooLarge(len));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let protected: Vec<u8> = self.buf.drain(..4 + len).skip(4).collect();
        decode_protected(&protected).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use stigmergy_scheduler::CodingSpec;

    fn sample_spec() -> BatchSpec {
        BatchSpec {
            budget_cap: Some(2_000),
            ..BatchSpec::conformance_matrix(vec![0, 1, 2])
        }
    }

    fn corpus() -> Vec<Message> {
        vec![
            Message::Hello {
                version: WIRE_VERSION,
            },
            Message::HelloOk {
                version: WIRE_VERSION,
            },
            Message::Submit {
                request: JobRequest {
                    spec: sample_spec(),
                    workers: 4,
                    deadline_ms: 30_000,
                },
            },
            Message::Accepted {
                job: 7,
                queued_ahead: 2,
            },
            Message::Rejected {
                reason: RejectReason::QueueFull { capacity: 8 },
            },
            Message::Rejected {
                reason: RejectReason::ShuttingDown,
            },
            Message::Rejected {
                reason: RejectReason::InvalidSpec {
                    detail: "cohort too small".into(),
                },
            },
            Message::Progress {
                job: 7,
                completed: 12,
                total: 162,
            },
            Message::Done {
                job: 7,
                fingerprints: vec![0xDEAD_BEEF, 1, u64::MAX],
                metrics_json: "{\"sessions\":3}".into(),
            },
            Message::Failed {
                job: 7,
                reason: FailReason::DeadlineExceeded,
            },
            Message::Failed {
                job: 9,
                reason: FailReason::Internal {
                    detail: "worker panicked".into(),
                },
            },
            Message::Cancel { job: 7 },
            Message::CancelOk {
                job: 7,
                state: CancelState::Signalled,
            },
            Message::Stats,
            Message::StatsOk {
                json: "{\"accepted\":1}".into(),
            },
            Message::Shutdown,
            Message::ShutdownOk,
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in corpus() {
            let decoded = Message::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn frames_round_trip_through_a_byte_pipe() {
        let mut pipe = Vec::new();
        for msg in corpus() {
            write_frame(&mut pipe, &msg).unwrap();
        }
        let mut cursor = std::io::Cursor::new(pipe);
        for want in corpus() {
            assert_eq!(read_frame(&mut cursor).unwrap(), want);
        }
    }

    #[test]
    fn frame_buffer_handles_arbitrary_splits() {
        let mut bytes = Vec::new();
        for msg in corpus() {
            write_frame(&mut bytes, &msg).unwrap();
        }
        // Feed the stream one byte at a time — worst-case fragmentation.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for b in bytes {
            fb.extend(&[b]);
            while let Some(msg) = fb.next_frame().unwrap() {
                got.push(msg);
            }
        }
        assert_eq!(got, corpus());
    }

    /// A writer that records how many `write` calls each frame takes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_write() {
        for msg in corpus() {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &msg).unwrap();
            assert_eq!(w.writes, 1, "{msg:?}");
            let mut cursor = std::io::Cursor::new(w.bytes);
            assert_eq!(read_frame(&mut cursor).unwrap(), msg);
        }
    }

    #[test]
    fn oversized_outgoing_frame_is_an_error_not_a_panic() {
        // String fields are capped at `MAX_SEQ` (1 MiB) by `put_bytes`,
        // so only the fingerprint list can push a frame past 16 MiB.
        let msg = Message::Done {
            job: 1,
            fingerprints: vec![0; MAX_FRAME / 8 + 1],
            metrics_json: String::new(),
        };
        let mut w = CountingWriter::default();
        let err = write_frame(&mut w, &msg).expect_err("frame over MAX_FRAME");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(w.writes, 0, "nothing of a rejected frame is written");
    }

    #[test]
    fn corrupted_frames_are_detected_not_misparsed() {
        let mut bytes = Vec::new();
        write_frame(
            &mut bytes,
            &Message::Accepted {
                job: 3,
                queued_ahead: 0,
            },
        )
        .unwrap();
        // Flip one bit in every position after the length prefix: CRC-8
        // detects all single-bit errors.
        for i in 4..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x04;
            let mut cursor = std::io::Cursor::new(corrupted);
            let err = read_frame(&mut cursor).expect_err("corruption must fail");
            assert!(
                matches!(err, GatewayError::Corrupt | GatewayError::Wire(_)),
                "byte {i}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(GatewayError::FrameTooLarge(_))
        ));
        let mut fb = FrameBuffer::new();
        fb.extend(&huge);
        assert!(matches!(
            fb.next_frame(),
            Err(GatewayError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn batch_spec_round_trips_exactly() {
        // Cover every coding arm: the conformance default (FEC), the
        // uncoded legacy channel, and bare multi-level signalling.
        let codings = [
            CodingSpec::Fec {
                levels: 8,
                dwell: 10,
            },
            CodingSpec::Binary,
            CodingSpec::MultiLevel {
                levels: 4,
                dwell: 7,
            },
        ];
        for coding in codings {
            let spec = BatchSpec {
                keep_traces: true,
                budget_cap: None,
                coding,
                ..sample_spec()
            };
            assert_eq!(BatchSpec::from_wire(&spec.to_wire()).unwrap(), spec);
        }
    }

    #[test]
    fn unknown_message_kind_rejected() {
        assert!(matches!(
            Message::decode(&[0xFF]),
            Err(WireError::BadTag {
                what: "message kind",
                ..
            })
        ));
    }
}
