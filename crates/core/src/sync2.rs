//! Protocol P1 (§3.1, Fig. 1): synchronous coding with two robots.
//!
//! Time alternates between **signal** instants and **return** instants.
//! On a signal instant, a robot with a bit to send steps sideways: to send
//! `0` it moves to its *right* with respect to the direction toward its
//! peer, to send `1` to its left (with shared chirality both robots agree
//! on right/left). On the return instant it steps back home. A robot with
//! nothing to send stays put — the protocol is *silent*.
//!
//! Decoding is symmetric: on a return instant (when the peer's signal
//! position is visible in the snapshot) the observer projects the peer's
//! displacement on the peer's right-hand direction and reads the bit.
//!
//! Since both robots move perpendicular to the line between their homes,
//! their distance never decreases — collision-free without any granular
//! machinery.
//!
//! # Byte coding
//!
//! §3.1's optimisation — "the total distance `2σ` … can be divided by the
//! number of possible bytes" — is [`Sync2::with_alphabet`]: with a
//! [`LevelAlphabet`], an excursion's *side* and *magnitude* (a fraction of
//! the lateral step, so scale-invariant) together carry one symbol of
//! `log2(2·levels)` bits. [`Sync2::new`] is the one-level, one-bit case.
//! Frames are padded to whole symbols; the receiver drops the tail of the
//! symbol that completes a frame, so back-to-back messages stay aligned.

use crate::session::Chat;
use std::collections::VecDeque;
use stigmergy_coding::alphabet::{Displacement, LevelAlphabet};
use stigmergy_coding::framing::{encode_frame, FrameDecoder};
use stigmergy_coding::{Bit, BitString};
use stigmergy_geometry::{Point, Tolerance, Vec2};
use stigmergy_robots::{MovementProtocol, View};

/// What a pair protocol ([`Sync2`], and [`Paced2`](crate::paced::Paced2))
/// fixes at its first activation: t0 in the synchronous model, with both
/// robots at their homes. Homes are fixed from then on, so both
/// right-hand directions are too — computed once, not per signal/decode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairFrame {
    pub(crate) home: Point,
    pub(crate) peer_home: Point,
    my_right: Vec2,
    /// The peer's right-hand direction facing this robot: the direction
    /// its zero-side displacements point to.
    pub(crate) peer_right: Vec2,
    /// The reach of a full excursion.
    pub(crate) lateral_step: f64,
}

impl PairFrame {
    /// Fixes `frame` at the first activation that sees a two-robot cohort
    /// and returns it; `None` means stay put. With any other cohort size
    /// the "direction given by the peer" is ill-defined, so the robot
    /// waits (the swarm protocols handle n > 2). A peer hidden at that
    /// first activation leaves the robot put for good.
    pub(crate) fn fix(frame: &mut Option<Option<Self>>, view: &View) -> Option<Self> {
        if frame.is_none() {
            if view.cohort() != 2 {
                return None;
            }
            *frame = Some(Self::at_t0(view));
        }
        (*frame).flatten()
    }

    fn at_t0(view: &View) -> Option<Self> {
        let home = view.own_position();
        let peer_home = view.others().first()?.position;
        Some(Self {
            home,
            peer_home,
            // A quarter of the separation keeps signals unambiguous and
            // well within any sane σ; still capped by σ.
            lateral_step: (home.distance(peer_home) / 4.0).min(view.sigma()),
            my_right: (peer_home - home).normalized().ok()?.perp_cw(),
            peer_right: (home - peer_home).normalized().ok()?.perp_cw(),
        })
    }

    /// The point `fraction` of the lateral step from home, to this
    /// robot's right facing its peer, or to its left when `one_side`.
    pub(crate) fn excursion(&self, one_side: bool, fraction: f64) -> Point {
        let dir = if one_side {
            -self.my_right
        } else {
            self.my_right
        };
        self.home + dir * (self.lateral_step * fraction)
    }
}

/// The two-robot synchronous movement-coding protocol.
#[derive(Debug, Clone)]
pub struct Sync2 {
    alphabet: LevelAlphabet,
    counter: u64,
    /// Unset until the first two-robot activation; `Some(None)` if the
    /// peer was hidden then.
    frame: Option<Option<PairFrame>>,
    outgoing: VecDeque<usize>,
    decoder: FrameDecoder,
    inbox: Vec<Vec<u8>>,
    decoded_bits: Vec<Bit>,
    signals_sent: u64,
}

impl Default for Sync2 {
    fn default() -> Self {
        Self::with_alphabet(LevelAlphabet::binary())
    }
}

impl Sync2 {
    /// Creates an idle protocol instance with the binary alphabet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an idle instance signalling with `alphabet` (the §3.1
    /// byte coding); both robots must use the same one.
    #[must_use]
    pub fn with_alphabet(alphabet: LevelAlphabet) -> Self {
        Self {
            alphabet,
            counter: 0,
            frame: None,
            outgoing: VecDeque::new(),
            decoder: FrameDecoder::new(),
            inbox: Vec::new(),
            decoded_bits: Vec::new(),
            signals_sent: 0,
        }
    }

    /// The alphabet in use.
    #[must_use]
    pub fn alphabet(&self) -> LevelAlphabet {
        self.alphabet
    }

    /// Queues a message for the peer. The framed bit stream is packed
    /// into symbols; the tail is padded to a whole symbol.
    pub fn send(&mut self, payload: &[u8]) {
        self.send_raw(&encode_frame(payload));
    }

    /// Queues raw bits, bypassing framing — the peer will *decode* the
    /// bits but complete no message until a well-formed frame arrives.
    /// Diagnostics and figure reproductions only.
    pub fn send_raw(&mut self, bits: &BitString) {
        self.outgoing.extend(self.alphabet.pack(bits));
    }

    /// Messages received so far, in order.
    #[must_use]
    pub fn inbox(&self) -> &[Vec<u8>] {
        &self.inbox
    }

    /// Raw bits decoded so far (diagnostics / Fig. 1 reproduction).
    #[must_use]
    pub fn decoded_bits(&self) -> &[Bit] {
        &self.decoded_bits
    }

    /// Whether all queued symbols have been sent.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.outgoing.is_empty()
    }

    /// Number of signal moves made (one per symbol).
    #[must_use]
    pub fn signals_sent(&self) -> u64 {
        self.signals_sent
    }

    fn decode_peer(&mut self, frame: &PairFrame, peer_pos: Point) {
        let disp = peer_pos - frame.peer_home;
        let tol = Tolerance::default();
        if tol.zero(disp.norm()) {
            return; // silence
        }
        let u = disp.dot(frame.peer_right);
        let d = Displacement {
            one_side: u < 0.0,
            fraction: (u.abs() / frame.lateral_step).clamp(0.0, 1.0),
        };
        let Ok(symbol) = self.alphabet.decode(d) else {
            return;
        };
        // Unpack the symbol's bits; if a frame completes mid-symbol, the
        // remaining bits are sender-side padding — drop them.
        for i in (0..self.alphabet.bits_per_symbol()).rev() {
            let bit = Bit::from_bool(symbol & (1 << i) != 0);
            self.decoded_bits.push(bit);
            if let Some(msg) = self.decoder.push_bit(bit) {
                self.inbox.push(msg);
                break;
            }
        }
    }
}

impl MovementProtocol for Sync2 {
    fn on_activate(&mut self, view: &View) -> Point {
        let c = self.counter;
        self.counter += 1;

        let Some(frame) = PairFrame::fix(&mut self.frame, view) else {
            return view.own_position();
        };
        let home = frame.home;

        if c.is_multiple_of(2) {
            // Signal instant.
            let Some(symbol) = self.outgoing.pop_front() else {
                return home; // silent
            };
            self.signals_sent += 1;
            let d = self
                .alphabet
                .encode(symbol)
                .expect("queued symbols are in range");
            frame.excursion(d.one_side, d.fraction)
        } else {
            // Return instant; the snapshot shows the peer's signal
            // position — decode it first.
            if let Some(peer) = view.others().first() {
                self.decode_peer(&frame, peer.position);
            }
            home
        }
    }
}

impl Chat for Sync2 {
    fn queue(&mut self, _label: usize, payload: &[u8]) {
        self.send(payload);
    }
    fn queue_broadcast(&mut self, payload: &[u8]) {
        self.send(payload);
    }
    fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.inbox().iter().map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_geometry::Point;
    use stigmergy_robots::Engine;
    use stigmergy_scheduler::Synchronous;

    fn engine(seed: u64) -> Engine<Sync2> {
        Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
            .protocols([Sync2::new(), Sync2::new()])
            .schedule(Synchronous)
            .frame_seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn one_way_message_delivery() {
        let mut e = engine(1);
        e.protocol_mut(0).send(b"hi");
        e.run_until(500, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        assert_eq!(e.protocol(1).inbox(), &[b"hi".to_vec()]);
        assert!(e.protocol(0).is_drained());
    }

    #[test]
    fn duplex_chat() {
        let mut e = engine(2);
        e.protocol_mut(0).send(b"ping");
        e.protocol_mut(1).send(b"pong!");
        e.run_until(800, |e| {
            !e.protocol(0).inbox().is_empty() && !e.protocol(1).inbox().is_empty()
        })
        .unwrap();
        assert_eq!(e.protocol(1).inbox(), &[b"ping".to_vec()]);
        assert_eq!(e.protocol(0).inbox(), &[b"pong!".to_vec()]);
    }

    #[test]
    fn multiple_messages_in_order() {
        let mut e = engine(3);
        e.protocol_mut(0).send(b"one");
        e.protocol_mut(0).send(b"two");
        e.protocol_mut(0).send(b"three");
        e.run_until(2000, |e| e.protocol(1).inbox().len() == 3)
            .unwrap();
        assert_eq!(
            e.protocol(1).inbox(),
            &[b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
    }

    #[test]
    fn silent_when_idle() {
        let mut e = engine(4);
        e.run(50).unwrap();
        // Nobody moved: the protocol is silent.
        assert_eq!(e.trace().path_length(0), 0.0);
        assert_eq!(e.trace().path_length(1), 0.0);
        assert_eq!(e.protocol(0).signals_sent(), 0);
    }

    #[test]
    fn robots_always_return_home() {
        let mut e = engine(5);
        e.protocol_mut(0).send(b"zigzag");
        let homes: Vec<Point> = e.positions().to_vec();
        for _ in 0..100 {
            e.step().unwrap();
            e.step().unwrap();
            // After every (signal, return) pair both robots are home.
            assert!(e.positions()[0].approx_eq(homes[0]));
            assert!(e.positions()[1].approx_eq(homes[1]));
        }
    }

    #[test]
    fn distance_never_decreases_below_initial() {
        let mut e = engine(6);
        e.protocol_mut(0).send(&[0xAA, 0x55]);
        e.protocol_mut(1).send(&[0xFF, 0x00]);
        let d0 = e.positions()[0].distance(e.positions()[1]);
        for _ in 0..400 {
            e.step().unwrap();
            let d = e.positions()[0].distance(e.positions()[1]);
            assert!(d >= d0 - 1e-9, "robots approached: {d} < {d0}");
        }
    }

    #[test]
    fn works_under_random_frames_and_scales() {
        // The protocol must be frame-invariant: rotated/scaled private
        // frames cannot corrupt the bits.
        for seed in 0..10u64 {
            let mut e = engine(1000 + seed);
            e.protocol_mut(0).send(b"R");
            e.protocol_mut(1).send(b"L");
            let out = e
                .run_until(600, |e| {
                    !e.protocol(0).inbox().is_empty() && !e.protocol(1).inbox().is_empty()
                })
                .unwrap();
            assert!(out.satisfied, "seed {seed} failed to deliver");
            assert_eq!(e.protocol(1).inbox()[0], b"R".to_vec());
            assert_eq!(e.protocol(0).inbox()[0], b"L".to_vec());
        }
    }

    #[test]
    fn fig1_bit_pattern() {
        // Reproduce Fig. 1: the sender's very first signal for bit 0 is on
        // its right w.r.t. the peer; for bit 1 on its left. With identity
        // frames, robot 0 at origin facing +x: right = -y.
        let mut e = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
            .protocols([Sync2::new(), Sync2::new()])
            .unit_frames()
            .build()
            .unwrap();
        // Frame a raw pattern: first bit of the length prefix of b"" is 0 —
        // instead drive single bits through the queue directly.
        e.protocol_mut(0)
            .send_raw(&stigmergy_coding::BitString::parse("01").unwrap());
        e.step().unwrap(); // signal 0
        assert!(e.positions()[0].y < 0.0, "bit 0 goes right (south)");
        e.step().unwrap(); // return
        assert!(e.positions()[0].approx_eq(Point::ORIGIN));
        e.step().unwrap(); // signal 1
        assert!(e.positions()[0].y > 0.0, "bit 1 goes left (north)");
        // And the peer decoded exactly 01.
        e.step().unwrap();
        assert_eq!(e.protocol(1).decoded_bits(), &[Bit::Zero, Bit::One]);
    }

    #[test]
    fn wrong_cohort_size_stays_put() {
        // Three robots running Sync2: everyone safely freezes instead of
        // mis-signalling — with the byte coding too, which would otherwise
        // deliver garbage to one robot and the message to the other.
        for alphabet in [LevelAlphabet::binary(), LevelAlphabet::new(8).unwrap()] {
            let mut e = Engine::builder()
                .positions([
                    Point::new(0.0, 0.0),
                    Point::new(8.0, 0.0),
                    Point::new(4.0, 6.0),
                ])
                .protocols([0, 1, 2].map(|_| Sync2::with_alphabet(alphabet)))
                .unit_frames()
                .build()
                .unwrap();
            e.protocol_mut(0).send(b"nope");
            e.run(40).unwrap();
            for i in 0..3 {
                assert_eq!(
                    e.trace().path_length(i),
                    0.0,
                    "{alphabet:?}: robot {i} moved"
                );
                assert!(e.protocol(i).inbox().is_empty(), "{alphabet:?}: robot {i}");
            }
        }
    }

    #[test]
    fn lateral_step_respects_sigma() {
        let mut e = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
            .protocols([Sync2::new(), Sync2::new()])
            .unit_frames()
            .sigma(0.5) // far below d0/4 = 2
            .build()
            .unwrap();
        e.protocol_mut(0).send(b"\xF0");
        e.run_until(200, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        assert_eq!(e.protocol(1).inbox()[0], b"\xF0".to_vec());
    }

    fn coded(levels: usize, seed: u64) -> Engine<Sync2> {
        let a = LevelAlphabet::new(levels).unwrap();
        Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
            .protocols([Sync2::with_alphabet(a), Sync2::with_alphabet(a)])
            .frame_seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn binary_alphabet_delivers() {
        let mut e = coded(1, 1);
        e.protocol_mut(0).send(b"plain");
        let out = e
            .run_until(500, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(1).inbox()[0], b"plain".to_vec());
        assert_eq!(e.protocol(0).alphabet(), LevelAlphabet::binary());
    }

    #[test]
    fn larger_alphabets_deliver() {
        for levels in [2usize, 4, 8, 128] {
            let mut e = coded(levels, 10 + levels as u64);
            e.protocol_mut(0).send(b"waggle dance!");
            let out = e
                .run_until(800, |e| !e.protocol(1).inbox().is_empty())
                .unwrap();
            assert!(out.satisfied, "levels={levels}");
            assert_eq!(e.protocol(1).inbox()[0], b"waggle dance!".to_vec());
        }
    }

    #[test]
    fn byte_alphabet_cuts_moves_eightfold() {
        // levels = 128 → 256 symbols → 8 bits per move (the paper's
        // "bytes").
        let payload = vec![0xC3u8; 32];
        let mut bin = coded(1, 2);
        bin.protocol_mut(0).send(&payload);
        bin.run_until(2_000, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        let mut byte = coded(128, 3);
        byte.protocol_mut(0).send(&payload);
        byte.run_until(2_000, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        let (b, y) = (
            bin.protocol(0).signals_sent(),
            byte.protocol(0).signals_sent(),
        );
        assert_eq!(b, y * 8, "binary {b} vs byte {y}");
        assert_eq!(byte.protocol(1).inbox()[0], payload);
    }

    #[test]
    fn back_to_back_messages_stay_aligned() {
        // The padding-discard logic must keep frame boundaries straight.
        let mut e = coded(4, 4); // 3 bits per symbol: frames misalign
        e.protocol_mut(0).send(b"a");
        e.protocol_mut(0).send(b"bc");
        e.protocol_mut(0).send(b"def");
        let out = e
            .run_until(2_000, |e| e.protocol(1).inbox().len() == 3)
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(
            e.protocol(1).inbox(),
            &[b"a".to_vec(), b"bc".to_vec(), b"def".to_vec()]
        );
    }

    #[test]
    fn duplex_with_different_directions() {
        let mut e = coded(8, 5);
        e.protocol_mut(0).send(b"fwd");
        e.protocol_mut(1).send(b"rev");
        let out = e
            .run_until(1_000, |e| {
                !e.protocol(0).inbox().is_empty() && !e.protocol(1).inbox().is_empty()
            })
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(1).inbox()[0], b"fwd".to_vec());
        assert_eq!(e.protocol(0).inbox()[0], b"rev".to_vec());
    }

    #[test]
    fn coded_silent_when_idle() {
        let mut e = coded(8, 6);
        e.run(50).unwrap();
        assert_eq!(e.trace().path_length(0), 0.0);
        assert!(e.protocol(0).is_drained());
        assert_eq!(e.protocol(0).alphabet().size(), 16);
    }
}
