//! The [`Wire`] trait and the canonical wire encoding of the Send-safe specs.
//!
//! The network gateway ships specs between processes. The workspace's
//! only serialization is hand-written codecs (this one, the fleet's trace
//! codec and the gateway's frames), so every type that crosses the wire
//! implements [`Wire`]: one `encode_wire`/`decode_wire` pair per type,
//! next to the spec it encodes. The format is a tag byte per
//! variant, little-endian `u64` integers (a `usize` travels as a `u64`),
//! IEEE-754 bit patterns for floats (so encode→decode is the identity on
//! every representable value, NaN excluded), and `u32` length prefixes for
//! sequences ([`put_seq`]/[`get_seq`]). The round-trip property — every
//! `ScheduleSpec × FaultSpec` survives encode→decode unchanged — is pinned
//! by proptest in `tests/wire_roundtrip.rs`, and whole gateway frames are
//! pinned byte for byte under `tests/golden/`.
//!
//! Integrity is the caller's concern: the gateway wraps whole frames in a
//! CRC-8 trailer (`stigmergy-coding::checksum`), so this layer only
//! validates structure (tags, lengths, finiteness, nesting depth) and
//! reports a typed [`WireError`] instead of panicking on malformed input.
//! Whether a well-formed spec is *legal* is a separate question, answered
//! by each spec's `validate` in [`crate::factory`].

use crate::factory::{AlgorithmSpec, CodingSpec, FaultSpec, ScheduleSpec};

/// Upper bound on any length prefix accepted by [`Reader::bytes`] and the
/// sequence decoders — a corrupt length must fail, not allocate.
pub const MAX_SEQ: u32 = 1 << 20;

/// Upper bound on nested-spec recursion (e.g. stacked
/// [`ScheduleSpec::CrashFiltered`] wrappers) accepted by
/// [`Reader::nested`] — a malicious tag chain must fail, not blow the
/// stack.
pub const MAX_NEST: u32 = 8;

/// Structural decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// An unknown variant tag.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix beyond [`MAX_SEQ`].
    Oversize {
        /// What was being decoded.
        what: &'static str,
        /// The claimed length.
        len: u32,
    },
    /// A float field decoded to NaN or infinity.
    BadValue {
        /// The offending field.
        what: &'static str,
    },
    /// Bytes remained after the value was fully decoded.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A nested spec recursed beyond [`MAX_NEST`] layers.
    TooDeep {
        /// What was being decoded.
        what: &'static str,
    },
}

impl WireError {
    /// [`WireError::BadTag`]: `tag` names no `what` variant.
    #[must_use]
    pub fn bad_tag(what: &'static str, tag: u8) -> Self {
        WireError::BadTag { what, tag }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire value truncated"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::Oversize { what, len } => {
                write!(f, "{what} length {len} exceeds the {MAX_SEQ} cap")
            }
            WireError::BadValue { what } => write!(f, "{what} is not a finite number"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after value"),
            WireError::TooDeep { what } => {
                write!(f, "nested {what} exceeds the {MAX_NEST}-layer cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A value with one canonical wire encoding.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self`.
    fn encode_wire(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// The canonical encoding as a fresh buffer.
    #[must_use]
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_wire(&mut out);
        out
    }

    /// Decodes a value that must span the whole buffer.
    ///
    /// # Errors
    ///
    /// Any [`WireError`], including [`WireError::Trailing`] on excess
    /// bytes.
    fn from_wire(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let value = Self::decode_wire(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

/// Cursor over an encoded buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    /// [`Reader::nested`] layers currently open.
    depth: u32,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, depth: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless the buffer was consumed exactly.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Trailing`] when bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing {
                extra: self.buf.len(),
            })
        }
    }

    /// Runs `decode` one nesting layer deeper — the recursion guard for
    /// self-referential specs.
    ///
    /// # Errors
    ///
    /// [`WireError::TooDeep`] once [`MAX_NEST`] layers are open, else
    /// whatever `decode` returns.
    pub fn nested<T>(
        &mut self,
        what: &'static str,
        decode: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.depth >= MAX_NEST {
            return Err(WireError::TooDeep { what });
        }
        self.depth += 1;
        let value = decode(self);
        self.depth -= 1;
        value
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of buffer.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of buffer.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of buffer.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` stored as its IEEE-754 bit pattern, rejecting
    /// non-finite values.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of buffer, [`WireError::BadValue`]
    /// on NaN or infinity.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        let x = f64::from_bits(self.u64()?);
        if x.is_finite() {
            Ok(x)
        } else {
            Err(WireError::BadValue { what })
        }
    }

    /// Reads a `u32`-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] past [`MAX_SEQ`], [`WireError::Truncated`]
    /// at end of buffer.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let len = self.seq_len(what)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads and bounds-checks a `u32` sequence length.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] past [`MAX_SEQ`], [`WireError::Truncated`]
    /// at end of buffer.
    pub fn seq_len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let len = self.u32()?;
        if len > MAX_SEQ {
            return Err(WireError::Oversize { what, len });
        }
        Ok(len as usize)
    }
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, x: u8) {
    out.push(x);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, x: f64) {
    put_u64(out, x.to_bits());
}

/// Appends the `u32` length prefix of a sequence of `len` items — the
/// one length-prefix encoder every sequence shares.
///
/// # Panics
///
/// Panics if `len` does not fit a `u32`.
pub fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u32(out, u32::try_from(len).expect("sequence fits u32"));
}

/// Appends a `u32`-prefixed byte string.
///
/// # Panics
///
/// Panics if `bytes` is longer than [`MAX_SEQ`] — encoding something the
/// decoder is required to reject is a logic error at the call site.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    assert!(
        bytes.len() <= MAX_SEQ as usize,
        "sequence exceeds the wire cap"
    );
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Appends a `u32`-prefixed sequence of values. A list past [`MAX_SEQ`]
/// encodes, but [`get_seq`] rejects it.
///
/// # Panics
///
/// As [`put_len`].
pub fn put_seq<T: Wire>(out: &mut Vec<u8>, items: &[T]) {
    put_len(out, items.len());
    for item in items {
        item.encode_wire(out);
    }
}

/// Reads a sequence written by [`put_seq`].
///
/// # Errors
///
/// [`WireError::Oversize`] past [`MAX_SEQ`], else any error of an item.
pub fn get_seq<T: Wire>(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<T>, WireError> {
    let n = r.seq_len(what)?;
    // Every item takes at least one byte, so a lying prefix cannot
    // reserve more than the buffer could hold.
    let mut items = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        items.push(T::decode_wire(r)?);
    }
    Ok(items)
}

impl Wire for u64 {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

/// An index or count, carried as a `u64`.
impl Wire for usize {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError::BadValue {
            what: "index exceeds usize",
        })
    }
}

impl Wire for ScheduleSpec {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        match *self {
            ScheduleSpec::Synchronous => put_u8(out, 0),
            ScheduleSpec::RoundRobin => put_u8(out, 1),
            ScheduleSpec::FairAsync { seed, p, max_gap } => {
                put_u8(out, 2);
                put_u64(out, seed);
                put_f64(out, p);
                put_u64(out, max_gap);
            }
            ScheduleSpec::SingleActive { seed, max_gap } => {
                put_u8(out, 3);
                put_u64(out, seed);
                put_u64(out, max_gap);
            }
            ScheduleSpec::LaggingReceiver { max_gap } => {
                put_u8(out, 4);
                put_u64(out, max_gap);
            }
            ScheduleSpec::Lagging { victim, max_gap } => {
                put_u8(out, 5);
                victim.encode_wire(out);
                put_u64(out, max_gap);
            }
            ScheduleSpec::Bursty {
                seed,
                burst_len,
                lull_len,
            } => {
                put_u8(out, 6);
                put_u64(out, seed);
                put_u64(out, burst_len);
                put_u64(out, lull_len);
            }
            ScheduleSpec::WorstCaseFair { max_gap } => {
                put_u8(out, 7);
                put_u64(out, max_gap);
            }
            ScheduleSpec::Scripted { ref script } => {
                put_u8(out, 8);
                put_len(out, script.len());
                for step in script {
                    put_seq(out, step);
                }
            }
            ScheduleSpec::CrashFiltered { ref inner } => {
                put_u8(out, 9);
                inner.encode_wire(out);
            }
        }
    }

    /// Stacked [`ScheduleSpec::CrashFiltered`] layers past [`MAX_NEST`]
    /// fail with [`WireError::TooDeep`].
    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => ScheduleSpec::Synchronous,
            1 => ScheduleSpec::RoundRobin,
            2 => ScheduleSpec::FairAsync {
                seed: r.u64()?,
                p: r.f64("fair-async p")?,
                max_gap: r.u64()?,
            },
            3 => ScheduleSpec::SingleActive {
                seed: r.u64()?,
                max_gap: r.u64()?,
            },
            4 => ScheduleSpec::LaggingReceiver { max_gap: r.u64()? },
            5 => ScheduleSpec::Lagging {
                victim: usize::decode_wire(r)?,
                max_gap: r.u64()?,
            },
            6 => ScheduleSpec::Bursty {
                seed: r.u64()?,
                burst_len: r.u64()?,
                lull_len: r.u64()?,
            },
            7 => ScheduleSpec::WorstCaseFair { max_gap: r.u64()? },
            8 => {
                let steps = r.seq_len("script")?;
                let mut script = Vec::with_capacity(steps.min(r.remaining()));
                for _ in 0..steps {
                    script.push(get_seq(r, "script step")?);
                }
                ScheduleSpec::Scripted { script }
            }
            9 => ScheduleSpec::CrashFiltered {
                inner: Box::new(r.nested("schedule spec", Self::decode_wire)?),
            },
            tag => return Err(WireError::bad_tag("schedule spec", tag)),
        })
    }
}

impl Wire for FaultSpec {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        match *self {
            FaultSpec::Benign => put_u8(out, 0),
            FaultSpec::NonRigid { delta, prob } => {
                put_u8(out, 1);
                put_f64(out, delta);
                put_f64(out, prob);
            }
            FaultSpec::Dropout { prob } => {
                put_u8(out, 2);
                put_f64(out, prob);
            }
            FaultSpec::Crash {
                robot,
                time,
                delta,
                prob,
            } => {
                put_u8(out, 3);
                robot.encode_wire(out);
                put_u64(out, time);
                put_f64(out, delta);
                put_f64(out, prob);
            }
        }
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => FaultSpec::Benign,
            1 => FaultSpec::NonRigid {
                delta: r.f64("non-rigid delta")?,
                prob: r.f64("non-rigid prob")?,
            },
            2 => FaultSpec::Dropout {
                prob: r.f64("dropout prob")?,
            },
            3 => FaultSpec::Crash {
                robot: usize::decode_wire(r)?,
                time: r.u64()?,
                delta: r.f64("crash delta")?,
                prob: r.f64("crash prob")?,
            },
            tag => return Err(WireError::bad_tag("fault spec", tag)),
        })
    }
}

impl Wire for AlgorithmSpec {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        match *self {
            AlgorithmSpec::Flood { initiator } => {
                put_u8(out, 0);
                initiator.encode_wire(out);
            }
            AlgorithmSpec::Election => put_u8(out, 1),
            AlgorithmSpec::Agreement { inputs } => {
                put_u8(out, 2);
                put_u64(out, inputs);
            }
        }
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => AlgorithmSpec::Flood {
                initiator: usize::decode_wire(r)?,
            },
            1 => AlgorithmSpec::Election,
            2 => AlgorithmSpec::Agreement { inputs: r.u64()? },
            tag => return Err(WireError::bad_tag("algorithm spec", tag)),
        })
    }
}

impl Wire for CodingSpec {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        match *self {
            CodingSpec::Binary => put_u8(out, 0),
            CodingSpec::MultiLevel { levels, dwell } => {
                put_u8(out, 1);
                put_u8(out, levels);
                put_u8(out, dwell);
            }
            CodingSpec::Fec { levels, dwell } => {
                put_u8(out, 2);
                put_u8(out, levels);
                put_u8(out, dwell);
            }
        }
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => CodingSpec::Binary,
            1 => CodingSpec::MultiLevel {
                levels: r.u8()?,
                dwell: r.u8()?,
            },
            2 => CodingSpec::Fec {
                levels: r.u8()?,
                dwell: r.u8()?,
            },
            tag => return Err(WireError::bad_tag("coding spec", tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_corpus() -> Vec<ScheduleSpec> {
        vec![
            ScheduleSpec::Synchronous,
            ScheduleSpec::RoundRobin,
            ScheduleSpec::FairAsync {
                seed: u64::MAX,
                p: 0.25,
                max_gap: 16,
            },
            ScheduleSpec::SingleActive {
                seed: 9,
                max_gap: 3,
            },
            ScheduleSpec::LaggingReceiver { max_gap: 8 },
            ScheduleSpec::Lagging {
                victim: 2,
                max_gap: 5,
            },
            ScheduleSpec::Bursty {
                seed: 0x0AD5_CEDD,
                burst_len: 3,
                lull_len: 5,
            },
            ScheduleSpec::WorstCaseFair { max_gap: 6 },
            ScheduleSpec::Scripted {
                script: vec![vec![0], vec![1, 2], vec![]],
            },
            ScheduleSpec::CrashFiltered {
                inner: Box::new(ScheduleSpec::WorstCaseFair { max_gap: 6 }),
            },
            ScheduleSpec::CrashFiltered {
                inner: Box::new(ScheduleSpec::CrashFiltered {
                    inner: Box::new(ScheduleSpec::RoundRobin),
                }),
            },
        ]
    }

    fn algorithm_corpus() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::Flood { initiator: 2 },
            AlgorithmSpec::Election,
            AlgorithmSpec::Agreement {
                inputs: 0b1011_0101,
            },
        ]
    }

    fn coding_corpus() -> Vec<CodingSpec> {
        vec![
            CodingSpec::Binary,
            CodingSpec::MultiLevel {
                levels: 4,
                dwell: 6,
            },
            CodingSpec::Fec {
                levels: 8,
                dwell: 10,
            },
        ]
    }

    fn fault_corpus() -> Vec<FaultSpec> {
        vec![
            FaultSpec::Benign,
            FaultSpec::NonRigid {
                delta: 0.35,
                prob: 0.5,
            },
            FaultSpec::Dropout { prob: 0.1 },
            FaultSpec::Crash {
                robot: 1,
                time: 35,
                delta: 0.5,
                prob: 0.25,
            },
        ]
    }

    #[test]
    fn corpus_round_trips() {
        for spec in schedule_corpus() {
            assert_eq!(ScheduleSpec::from_wire(&spec.to_wire()).unwrap(), spec);
        }
        for spec in fault_corpus() {
            assert_eq!(FaultSpec::from_wire(&spec.to_wire()).unwrap(), spec);
        }
        for spec in algorithm_corpus() {
            assert_eq!(AlgorithmSpec::from_wire(&spec.to_wire()).unwrap(), spec);
        }
        for spec in coding_corpus() {
            assert_eq!(CodingSpec::from_wire(&spec.to_wire()).unwrap(), spec);
        }
    }

    #[test]
    fn concatenated_specs_stream_decode() {
        let mut buf = Vec::new();
        for spec in schedule_corpus() {
            spec.encode_wire(&mut buf);
        }
        for spec in fault_corpus() {
            spec.encode_wire(&mut buf);
        }
        for spec in algorithm_corpus() {
            spec.encode_wire(&mut buf);
        }
        for spec in coding_corpus() {
            spec.encode_wire(&mut buf);
        }
        let mut r = Reader::new(&buf);
        for want in schedule_corpus() {
            assert_eq!(ScheduleSpec::decode_wire(&mut r).unwrap(), want);
        }
        for want in fault_corpus() {
            assert_eq!(FaultSpec::decode_wire(&mut r).unwrap(), want);
        }
        for want in algorithm_corpus() {
            assert_eq!(AlgorithmSpec::decode_wire(&mut r).unwrap(), want);
        }
        for want in coding_corpus() {
            assert_eq!(CodingSpec::decode_wire(&mut r).unwrap(), want);
        }
        r.finish().unwrap();
    }

    #[test]
    fn unknown_tags_rejected() {
        assert_eq!(
            ScheduleSpec::from_wire(&[0xEE]),
            Err(WireError::BadTag {
                what: "schedule spec",
                tag: 0xEE
            })
        );
        assert_eq!(
            FaultSpec::from_wire(&[0x7F]),
            Err(WireError::BadTag {
                what: "fault spec",
                tag: 0x7F
            })
        );
        assert_eq!(
            AlgorithmSpec::from_wire(&[0x63]),
            Err(WireError::BadTag {
                what: "algorithm spec",
                tag: 0x63
            })
        );
        assert_eq!(
            CodingSpec::from_wire(&[0x44]),
            Err(WireError::BadTag {
                what: "coding spec",
                tag: 0x44
            })
        );
    }

    #[test]
    fn over_deep_nesting_rejected() {
        // MAX_NEST wrappers around a leaf round-trip…
        let mut spec = ScheduleSpec::RoundRobin;
        for _ in 0..MAX_NEST {
            spec = ScheduleSpec::CrashFiltered {
                inner: Box::new(spec),
            };
        }
        assert_eq!(ScheduleSpec::from_wire(&spec.to_wire()).unwrap(), spec);
        // …one more layer — hand-built, since the encoder itself has no
        // reason to refuse — trips the decoder's depth cap.
        let mut buf = vec![9u8; MAX_NEST as usize + 1];
        buf.push(1); // RoundRobin leaf
        assert_eq!(
            ScheduleSpec::from_wire(&buf),
            Err(WireError::TooDeep {
                what: "schedule spec"
            })
        );
    }

    #[test]
    fn truncation_and_trailing_rejected() {
        let bytes = ScheduleSpec::Bursty {
            seed: 1,
            burst_len: 2,
            lull_len: 3,
        }
        .to_wire();
        assert_eq!(
            ScheduleSpec::from_wire(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(
            ScheduleSpec::from_wire(&padded),
            Err(WireError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn non_finite_floats_rejected() {
        let mut buf = vec![2u8]; // FairAsync
        put_u64(&mut buf, 1);
        put_f64(&mut buf, f64::NAN);
        put_u64(&mut buf, 4);
        assert_eq!(
            ScheduleSpec::from_wire(&buf),
            Err(WireError::BadValue {
                what: "fair-async p"
            })
        );
    }

    #[test]
    fn oversize_script_rejected() {
        let mut buf = vec![8u8]; // Scripted
        put_u32(&mut buf, MAX_SEQ + 1);
        assert_eq!(
            ScheduleSpec::from_wire(&buf),
            Err(WireError::Oversize {
                what: "script",
                len: MAX_SEQ + 1
            })
        );
    }

    #[test]
    fn errors_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::BadTag {
            what: "fault spec",
            tag: 0xAB
        }
        .to_string()
        .contains("0xab"));
        assert!(WireError::TooDeep {
            what: "schedule spec"
        }
        .to_string()
        .contains("cap"));
    }
}
