//! A compact, canonical byte encoding for traces.
//!
//! The workspace's only serialization is hand-written codecs, and this
//! is the one for traces. The encoding is canonical: positions are
//! written as the raw IEEE-754 bit patterns (`f64::to_bits`, little
//! endian), so two traces encode to the same bytes **iff** they are
//! bit-for-bit the same run — the representation the determinism
//! regression and golden-trace tests compare. The format is
//! versioned; goldens regenerate (`UPDATE_GOLDEN=1`) on a version bump.
//!
//! A session that keeps only a fingerprint of its trace keeps
//! [`fingerprint`] of these bytes: XXH64 with seed 0. The hash is not
//! part of the format, so changing it moves no byte and no golden.

use stigmergy_geometry::Point;
use stigmergy_robots::{FaultEvent, Trace, TraceEvent};
use stigmergy_scheduler::ActivationSet;

/// Magic prefix of every encoded trace.
pub const MAGIC: &[u8; 4] = b"STRC";
/// Current format version.
pub const VERSION: u8 = 1;

fn put_fault(out: &mut Vec<u8>, fault: &FaultEvent) {
    match *fault {
        FaultEvent::CrashStop { time, robot } => {
            out.push(1);
            put_u64(out, time);
            put_u32(out, robot as u32);
        }
        FaultEvent::NonRigidMotion {
            time,
            robot,
            fraction,
        } => {
            out.push(2);
            put_u64(out, time);
            put_u32(out, robot as u32);
            put_u64(out, fraction.to_bits());
        }
        FaultEvent::ObservationDropout {
            time,
            observer,
            observed,
        } => {
            out.push(3);
            put_u64(out, time);
            put_u32(out, observer as u32);
            put_u32(out, observed as u32);
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_u64(out, p.x.to_bits());
    put_u64(out, p.y.to_bits());
}

/// The one writer of the canonical layout: an incremental encoder that
/// never materializes a [`Trace`] ([`TraceEncoder::from_trace`] replays
/// a recorded one through it).
///
/// Layout (all integers little endian):
/// `"STRC" | version u8 | n u32 | n initial points | step count u32 |`
/// per step `{ time u64 | activation bitmap (n bits, LSB-first bytes) |`
/// `position count u32 | points } | fault count u32 | tagged faults`.
///
/// Feed it the engine's [`TraceEvent`] stream (via
/// [`stigmergy_robots::Engine::observe_trace`]) and it appends each step
/// to an arena buffer as the step happens — no per-step `Vec<Point>`
/// clones, no retained step records. Because the canonical layout puts
/// the step count *before* the step records (and the fault count before
/// the faults), the final byte string is assembled on demand by
/// [`TraceEncoder::to_bytes`]; [`TraceEncoder::encoded_len`] and
/// [`TraceEncoder::fingerprint`] answer without assembling.
///
/// A streaming run and a recorded run of the same session must hash
/// identically; tests below and every golden-trace file pin it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEncoder {
    /// `MAGIC | version | n | initial points` — fixed at construction.
    header: Vec<u8>,
    /// Concatenated step records (time, bitmap, count, points).
    steps: Vec<u8>,
    step_count: u32,
    /// Concatenated tagged fault records.
    faults: Vec<u8>,
    fault_count: u32,
    n: usize,
}

impl TraceEncoder {
    /// Starts an encoder from the initial configuration.
    #[must_use]
    pub fn new(initial: &[Point]) -> Self {
        let n = initial.len();
        let mut header = Vec::with_capacity(4 + 1 + 4 + n * 16);
        header.extend_from_slice(MAGIC);
        header.push(VERSION);
        put_u32(&mut header, n as u32);
        for &p in initial {
            put_point(&mut header, p);
        }
        Self {
            header,
            steps: Vec::new(),
            step_count: 0,
            faults: Vec::new(),
            fault_count: 0,
            n,
        }
    }

    /// An encoder fed a recorded trace's steps and faults: what a
    /// streaming encoder holds at the end of the same run.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let initial = trace.initial();
        let mut encoder = Self::new(initial);
        encoder
            .steps
            .reserve(trace.steps().len() * (16 + initial.len() * 16));
        for step in trace.steps() {
            encoder.record_step(step.time, &step.active, &step.positions);
        }
        for fault in trace.faults() {
            encoder.record_fault(fault);
        }
        encoder
    }

    /// Appends one instant's record.
    fn record_step(&mut self, time: u64, active: &ActivationSet, positions: &[Point]) {
        put_u64(&mut self.steps, time);
        let start = self.steps.len();
        self.steps.resize(start + self.n.div_ceil(8), 0);
        for i in active.iter() {
            self.steps[start + i / 8] |= 1 << (i % 8);
        }
        put_u32(&mut self.steps, positions.len() as u32);
        for &p in positions {
            put_point(&mut self.steps, p);
        }
        self.step_count += 1;
    }

    /// Appends one injected-fault record.
    pub fn record_fault(&mut self, fault: &FaultEvent) {
        put_fault(&mut self.faults, fault);
        self.fault_count += 1;
    }

    /// Routes an engine trace event to the matching record method.
    pub fn record_event(&mut self, event: &TraceEvent<'_>) {
        match *event {
            TraceEvent::Step {
                time,
                active,
                positions,
            } => self.record_step(time, active, positions),
            TraceEvent::Fault(fault) => self.record_fault(fault),
        }
    }

    /// Length of the assembled encoding, in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.header.len() + 4 + self.steps.len() + 4 + self.faults.len()
    }

    /// [`fingerprint`] of the assembled encoding, computed without
    /// assembling.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fingerprint::new();
        hash.write(&self.header);
        hash.write(&self.step_count.to_le_bytes());
        hash.write(&self.steps);
        hash.write(&self.fault_count.to_le_bytes());
        hash.write(&self.faults);
        hash.finish()
    }

    /// Assembles the canonical byte string.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.header);
        put_u32(&mut out, self.step_count);
        out.extend_from_slice(&self.steps);
        put_u32(&mut out, self.fault_count);
        out.extend_from_slice(&self.faults);
        out
    }
}

/// Hex-formats already-encoded trace bytes in the golden-file layout
/// (64 chars per line, trailing newline).
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut hex = String::with_capacity(bytes.len() * 2 + bytes.len() / 32 + 1);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && i % 32 == 0 {
            hex.push('\n');
        }
        hex.push_str(&format!("{b:02x}"));
    }
    hex.push('\n');
    hex
}

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes per XXH64 stripe: four 8-byte lanes.
const STRIPE: usize = 32;

/// Streaming XXH64 with seed 0 — the trace fingerprint.
///
/// XXH64 keeps four independent 64-bit accumulators and feeds each one
/// 8-byte word per 32-byte stripe, so the four multiply chains overlap
/// and it runs at several bytes per cycle; FNV-1a's one serial multiply
/// per byte cannot overlap at all. Bytes may arrive in any split:
/// writing `a` then `b` finishes to the same value as [`fingerprint`]
/// of `a ++ b`, which is what lets [`TraceEncoder::fingerprint`] hash
/// its segments without concatenating them.
#[derive(Debug, Clone)]
struct Fingerprint {
    lanes: [u64; 4],
    total_len: u64,
    /// Bytes not yet folded into the lanes; only the first `tail_len`
    /// are live.
    tail: [u8; STRIPE],
    tail_len: usize,
}

impl Fingerprint {
    /// The hasher of the empty string.
    #[must_use]
    fn new() -> Self {
        Self {
            lanes: [
                PRIME64_1.wrapping_add(PRIME64_2),
                PRIME64_2,
                0,
                PRIME64_1.wrapping_neg(),
            ],
            total_len: 0,
            tail: [0; STRIPE],
            tail_len: 0,
        }
    }

    /// Appends `bytes` to the hashed string.
    fn write(&mut self, bytes: &[u8]) {
        self.total_len = self.total_len.wrapping_add(bytes.len() as u64);
        let (head, bytes) = bytes.split_at(bytes.len().min(STRIPE - self.tail_len));
        if let Some(free) = self.tail.get_mut(self.tail_len..self.tail_len + head.len()) {
            free.copy_from_slice(head);
        }
        self.tail_len += head.len();
        if self.tail_len < STRIPE {
            return;
        }
        consume(&mut self.lanes, &self.tail);
        let mut stripes = bytes.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            consume(&mut self.lanes, stripe);
        }
        let rest = stripes.remainder();
        if let Some(tail) = self.tail.get_mut(..rest.len()) {
            tail.copy_from_slice(rest);
        }
        self.tail_len = rest.len();
    }

    /// The XXH64 of everything written so far.
    #[must_use]
    fn finish(&self) -> u64 {
        let mut hash = if self.total_len >= STRIPE as u64 {
            let [v1, v2, v3, v4] = self.lanes;
            let hash = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.lanes.iter().fold(hash, |hash, &lane| {
                (hash ^ round(0, lane))
                    .wrapping_mul(PRIME64_1)
                    .wrapping_add(PRIME64_4)
            })
        } else {
            PRIME64_5
        };
        hash = hash.wrapping_add(self.total_len);
        let mut words = self
            .tail
            .get(..self.tail_len)
            .unwrap_or(&[])
            .chunks_exact(8);
        for word in &mut words {
            hash = (hash ^ round(0, read_u64(word)))
                .rotate_left(27)
                .wrapping_mul(PRIME64_1)
                .wrapping_add(PRIME64_4);
        }
        let mut halves = words.remainder().chunks_exact(4);
        for half in &mut halves {
            let half = half.try_into().map_or(0, u32::from_le_bytes);
            hash = (hash ^ u64::from(half).wrapping_mul(PRIME64_1))
                .rotate_left(23)
                .wrapping_mul(PRIME64_2)
                .wrapping_add(PRIME64_3);
        }
        for &byte in halves.remainder() {
            hash = (hash ^ u64::from(byte).wrapping_mul(PRIME64_5))
                .rotate_left(11)
                .wrapping_mul(PRIME64_1);
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(PRIME64_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(PRIME64_3);
        hash ^ (hash >> 32)
    }
}

/// Folds one 32-byte stripe into the four lanes, one word per lane.
fn consume(lanes: &mut [u64; 4], stripe: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
        *lane = round(*lane, read_u64(word));
    }
}

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

/// Reads a little-endian word from an 8-byte chunk.
fn read_u64(word: &[u8]) -> u64 {
    word.try_into().map_or(0, u64::from_le_bytes)
}

/// XXH64 (seed 0) of `bytes`: the trace fingerprint that
/// [`RunReport::trace_hash`](crate::RunReport::trace_hash) carries.
#[must_use]
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut hash = Fingerprint::new();
    hash.write(bytes);
    hash.finish()
}

/// The FNV-1a 64-bit offset basis — the hash of the empty string.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit hash. Byte-serial, so it suits the short folds over
/// per-session `(trace_hash, trace_len)` pairs that pin a whole batch;
/// traces themselves are hashed with [`fingerprint`].
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_BASIS, bytes)
}

/// Folds more bytes into a running FNV-1a 64 hash. Because FNV is a plain
/// left-to-right fold, `fnv1a64(ab) == fnv1a64_update(fnv1a64(a), b)`.
#[must_use]
pub fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_geometry::Point;
    use stigmergy_robots::{Engine, MovementProtocol, View};
    use stigmergy_scheduler::{FaultPlan, RoundRobin};

    fn encode(trace: &Trace) -> Vec<u8> {
        TraceEncoder::from_trace(trace).to_bytes()
    }

    struct Walker;
    impl MovementProtocol for Walker {
        fn on_activate(&mut self, view: &View) -> Point {
            view.own_position() + stigmergy_geometry::Vec2::new(0.25, 0.125)
        }
    }

    fn sample_trace(seed: u64) -> Trace {
        let mut e = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(7.0, 0.0)])
            .protocols([Walker, Walker])
            .unit_frames()
            .schedule(RoundRobin)
            .sigma(1.0)
            .build()
            .unwrap();
        e.set_fault_plan(FaultPlan::new(seed).non_rigid(0.5, 0.5));
        e.run(12).unwrap();
        e.trace().clone()
    }

    #[test]
    fn header_and_determinism() {
        let bytes = encode(&sample_trace(5));
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(bytes[4], VERSION);
        assert_eq!(bytes, encode(&sample_trace(5)), "same run, same bytes");
    }

    #[test]
    fn different_runs_encode_differently() {
        assert_ne!(encode(&sample_trace(5)), encode(&sample_trace(6)));
    }

    #[test]
    fn encoding_is_injective_on_positions() {
        // Two traces identical except one position bit differ in bytes:
        // codec must not round positions through text.
        let a = Trace::new(vec![Point::new(0.1, 0.0)]);
        let b = Trace::new(vec![Point::new(0.1 + f64::EPSILON, 0.0)]);
        assert_ne!(encode(&a), encode(&b));
    }

    #[test]
    fn hex_roundtrips_bytes() {
        let trace = sample_trace(9);
        let hex = to_hex(&encode(&trace));
        assert!(hex.ends_with('\n'));
        let joined: String = hex.split_whitespace().collect();
        let decoded: Vec<u8> = (0..joined.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&joined[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(decoded, encode(&trace));
        assert!(hex.lines().all(|l| l.len() <= 64));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn streaming_encoder_matches_batch_encode() {
        let trace = sample_trace(5);
        let mut enc = TraceEncoder::new(trace.initial());
        for step in trace.steps() {
            enc.record_step(step.time, &step.active, &step.positions);
        }
        for fault in trace.faults() {
            enc.record_fault(fault);
        }
        let expected = encode(&trace);
        assert_eq!(enc.to_bytes(), expected, "streaming bytes differ");
        assert_eq!(enc.encoded_len(), expected.len());
        assert_eq!(enc.fingerprint(), fingerprint(&expected));
    }

    #[test]
    fn streaming_encoder_from_engine_observer_matches_recorded_trace() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let build = |record: bool| {
            let mut e = Engine::builder()
                .positions([Point::new(0.0, 0.0), Point::new(7.0, 0.0)])
                .protocols([Walker, Walker])
                .unit_frames()
                .schedule(RoundRobin)
                .sigma(1.0)
                .record_trace(record)
                .build()
                .unwrap();
            e.set_fault_plan(FaultPlan::new(5).non_rigid(0.5, 0.5));
            e
        };
        // Streaming engine: no in-memory step records at all.
        let mut streaming = build(false);
        let enc = Rc::new(RefCell::new(TraceEncoder::new(streaming.positions())));
        let sink = Rc::clone(&enc);
        streaming.observe_trace(move |ev| sink.borrow_mut().record_event(&ev));
        streaming.run(12).unwrap();
        // Recorded engine: the legacy full-trace path.
        let mut recorded = build(true);
        recorded.run(12).unwrap();
        assert_eq!(enc.borrow().to_bytes(), encode(recorded.trace()));
        assert_eq!(
            enc.borrow().fingerprint(),
            fingerprint(&encode(recorded.trace()))
        );
    }

    #[test]
    fn empty_encoder_matches_empty_trace() {
        let initial = vec![Point::new(1.0, -2.0)];
        let enc = TraceEncoder::new(&initial);
        let trace = Trace::new(initial);
        assert_eq!(enc.to_bytes(), encode(&trace));
        assert_eq!(enc.fingerprint(), fingerprint(&encode(&trace)));
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 (seed 0) vectors; the last is 39 bytes, so it
        // takes the stripe path, then a half word and bytes.
        assert_eq!(fingerprint(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(fingerprint(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(fingerprint(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            fingerprint(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        // xxhsum's self-test buffer, which also reaches the 8-byte word
        // path: 14 bytes is a word, a half word and two bytes; 222 is six
        // stripes, three words, a half word and two bytes.
        let mut state: u64 = 2_654_435_761;
        let sanity: Vec<u8> = (0..222)
            .map(|_| {
                let byte = (state >> 56) as u8;
                state = state.wrapping_mul(11_400_714_785_074_694_797);
                byte
            })
            .collect();
        assert_eq!(fingerprint(&sanity[..14]), 0x8282_DCC4_994E_35C8);
        assert_eq!(fingerprint(&sanity), 0xB641_AE8C_B691_C174);
    }

    /// `bytes` hashed as the given consecutive segments, with an empty
    /// write before each one.
    fn segmented(bytes: &[u8], cuts: &[usize]) -> u64 {
        let mut hash = Fingerprint::new();
        let mut start = 0;
        for &cut in cuts.iter().chain([&bytes.len()]) {
            hash.write(&[]);
            hash.write(&bytes[start..cut]);
            start = cut;
        }
        hash.finish()
    }

    /// Deterministic filler bytes (SplitMix64).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn fingerprint_streams_over_every_three_way_split() {
        let mut state = 28;
        let bytes: Vec<u8> = (0..100).map(|_| splitmix(&mut state) as u8).collect();
        for len in 0..=bytes.len() {
            let bytes = &bytes[..len];
            let whole = fingerprint(bytes);
            for i in 0..=len {
                for j in i..=len {
                    assert_eq!(segmented(bytes, &[i, j]), whole, "len {len}, cuts {i}/{j}");
                }
            }
        }
    }

    #[test]
    #[ignore = "large budget: random segmentations up to 64 KiB; CI runs it with --include-ignored"]
    fn fingerprint_streams_over_random_segmentations() {
        let mut state = 0x5EED;
        for _ in 0..2_000 {
            let len = (splitmix(&mut state) % (64 * 1024 + 1)) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
            let mut cuts: Vec<usize> = (0..splitmix(&mut state) % 12)
                .map(|_| (splitmix(&mut state) % (len as u64 + 1)) as usize)
                .collect();
            cuts.sort_unstable();
            assert_eq!(
                segmented(&bytes, &cuts),
                fingerprint(&bytes),
                "len {len}, cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn fnv_update_is_a_fold() {
        let bytes = b"deaf dumb chatting";
        for split in 0..=bytes.len() {
            let (a, b) = bytes.split_at(split);
            assert_eq!(fnv1a64_update(fnv1a64(a), b), fnv1a64(bytes));
        }
        assert_eq!(FNV_BASIS, fnv1a64(b""));
    }

    #[test]
    fn activation_bitmap_survives_encoding() {
        // Round-robin on 2 robots: step t activates robot t % 2. The
        // bitmap byte sits right after the 8-byte time in each step
        // record; walk the steps and check it.
        let trace = sample_trace(5);
        let bytes = encode(&trace);
        let n = 2usize;
        let mut cursor = 4 + 1 + 4 + n * 16; // magic, version, n, initial
        cursor += 4; // step count
        for step in trace.steps() {
            cursor += 8; // time
            let bitmap = bytes[cursor];
            let expect: u8 = step.active.iter().map(|i| 1 << i).sum();
            assert_eq!(bitmap, expect, "t={}", step.time);
            cursor += 1; // bitmap (n=2 fits one byte)
            let count = u32::from_le_bytes(bytes[cursor..cursor + 4].try_into().unwrap()) as usize;
            cursor += 4 + count * 16;
        }
    }
}
