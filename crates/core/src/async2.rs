//! Protocol P5 (§4.1, Fig. 5): asynchronous one-to-one communication
//! between two robots.
//!
//! In the asynchronous SSM only fairness is guaranteed, so a receiver can
//! miss movements. The paper's remedy is the *implicit acknowledgement* of
//! Lemma 4.1: a robot that keeps moving in one direction and sees its
//! peer's position change **twice** knows the peer observed it. Protocol
//! `Async2` is built entirely from that primitive:
//!
//! * **Horizon walk** — while idle (and between bits), walk along the
//!   horizon line `H` through the two initial positions, away from the
//!   peer (`North_r`). A robot *always* moves when active (Remark 4.3),
//!   with one exception: an activation whose view lost the peer to
//!   observation dropout stays put. Lemma 4.1's premise is that every
//!   change of a robot follows an observation of its peer; a move made
//!   blind would read to the peer as an acknowledgement it never gave.
//! * **Signal** — to send `0` (`1`), step off `H` to the East (West) side
//!   with respect to `North_r` and keep stepping until the peer has been
//!   seen to change twice — the peer is then guaranteed to have seen the
//!   excursion. Return to `H` in one move, then walk North until the peer
//!   changes twice again, separating this bit from the next. The return
//!   runs straight across `H`, so a move cut short leaves the robot on
//!   the excursion's side, which the peer already read as this bit; the
//!   North phase finishes the landing (DESIGN.md §8).
//!
//! Decoding mirrors it: the receiver classifies every observation of the
//! sender as on-`H` / East / West (relative to the *sender's* North) and
//! registers a bit on each entry into East or West.
//!
//! # Drift policies
//!
//! The base protocol ([`DriftPolicy::Diverge`]) makes the robots drift
//! apart forever — the drawback §4.1 discusses. The remedy
//! ([`DriftPolicy::AlternateContract`]) alternates the walk direction per
//! bit and divides every step by `x > 1`, keeping the drift bounded at the
//! cost of ever-smaller movements. True infinitely-small movements are
//! impossible in `f64`, so the contraction floors at `2⁻³⁰` of the base
//! step — far above the decode threshold and rounding noise; experiment
//! E3 quantifies both policies.

use crate::ack::ChangeTracker;
use crate::session::Chat;
use stigmergy_coding::bits::BitQueue;
use stigmergy_coding::framing::{encode_frame, FrameDecoder};
use stigmergy_coding::Bit;
use stigmergy_geometry::{Point, Vec2};
use stigmergy_robots::{MovementProtocol, View};

/// How the robots manage their drift along the horizon line (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DriftPolicy {
    /// The base protocol: always walk away from the peer with constant
    /// steps. Robust, but the robots drift apart without bound.
    #[default]
    Diverge,
    /// The §4.1 remedy: alternate the walk direction at each new bit and
    /// divide every step by `x > 1`. Bounded drift, shrinking movements.
    AlternateContract {
        /// The contraction divisor (must be `> 1`; `2.0` is typical).
        x: f64,
    },
}

/// Contraction floor: steps never shrink below `2⁻³⁰` of the base step.
///
/// The floor keeps the smallest genuine lateral offset (`base·2⁻³⁰ ≈
/// d₀·10⁻¹⁰`) two orders of magnitude above the decoder's noise threshold
/// (see [`Async2::classify_peer`]), while the residual drift it admits —
/// `base` per ~10⁹ moves — is negligible for any realizable run.
const MIN_SCALE: f64 = 9.313225746154785e-10; // 2^-30

/// Zone of the peer relative to the horizon line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HZone {
    On,
    East,
    West,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Walking along `H`; may start a bit once the peer changed twice.
    North,
    /// Holding an excursion for the given bit.
    Out(Bit),
}

/// The asynchronous two-robot protocol.
#[derive(Debug, Clone)]
pub struct Async2 {
    policy: DriftPolicy,
    // Geometry, fixed at t0.
    home: Option<Point>,
    peer_home: Option<Point>,
    north: Vec2,
    east: Vec2,
    base_step: f64,
    zone_tol: f64,
    // Walk state.
    scale: f64,
    north_sign: f64,
    phase: Phase,
    tracker: ChangeTracker,
    // Sending.
    outgoing: BitQueue,
    bits_sent: u64,
    // Receiving.
    last_zone: Option<HZone>,
    decoder: FrameDecoder,
    inbox: Vec<Vec<u8>>,
    decoded_bits: Vec<Bit>,
}

impl Async2 {
    /// Creates a protocol instance with the given drift policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is [`DriftPolicy::AlternateContract`] with
    /// `x <= 1`.
    #[must_use]
    pub fn new(policy: DriftPolicy) -> Self {
        if let DriftPolicy::AlternateContract { x } = policy {
            assert!(x > 1.0, "contraction divisor must exceed 1");
        }
        Self {
            policy,
            home: None,
            peer_home: None,
            north: Vec2::NORTH,
            east: Vec2::EAST,
            base_step: 0.0,
            zone_tol: 0.0,
            scale: 1.0,
            north_sign: 1.0,
            phase: Phase::North,
            tracker: ChangeTracker::new(1),
            outgoing: BitQueue::new(),
            bits_sent: 0,
            last_zone: None,
            decoder: FrameDecoder::new(),
            inbox: Vec::new(),
            decoded_bits: Vec::new(),
        }
    }

    /// Queues a message for the peer.
    pub fn send(&mut self, payload: &[u8]) {
        self.outgoing.enqueue(&encode_frame(payload));
    }

    /// Queues raw bits, bypassing framing (diagnostics and the Fig. 5
    /// reproduction).
    pub fn send_raw(&mut self, bits: &stigmergy_coding::BitString) {
        self.outgoing.enqueue(bits);
    }

    /// Messages received, in order.
    #[must_use]
    pub fn inbox(&self) -> &[Vec<u8>] {
        &self.inbox
    }

    /// Raw decoded bit stream (Fig. 5 reproduction / diagnostics).
    #[must_use]
    pub fn decoded_bits(&self) -> &[Bit] {
        &self.decoded_bits
    }

    /// Whether all queued bits are on the wire (sent *and* acknowledged).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.outgoing.is_empty() && matches!(self.phase, Phase::North)
    }

    /// Excursions made so far.
    #[must_use]
    pub fn bits_sent(&self) -> u64 {
        self.bits_sent
    }

    /// The current step length (diagnostics for experiment E3).
    #[must_use]
    pub fn current_step(&self) -> f64 {
        self.base_step * self.scale
    }

    fn init(&mut self, view: &View) {
        let own = view.own_position();
        let peer = view
            .others()
            .first()
            .map(|o| o.position)
            .expect("Async2 needs exactly one peer");
        self.home = Some(own);
        self.peer_home = Some(peer);
        // North_r: away from the peer along the horizon line.
        self.north = (own - peer).normalized().expect("distinct robots");
        self.east = self.north.perp_cw();
        let d0 = own.distance(peer);
        self.base_step = (d0 / 8.0).min(view.sigma());
        self.zone_tol = d0 * 1e-12;
    }

    /// Consumes one step length, applying the contraction policy.
    fn take_step(&mut self) -> f64 {
        let s = self.base_step * self.scale;
        if let DriftPolicy::AlternateContract { x } = self.policy {
            self.scale = (self.scale / x).max(MIN_SCALE);
        }
        s
    }

    /// The peer's East direction expressed in *my* frame: the peer's North
    /// is the opposite of mine, so its East is the opposite of mine too
    /// (chirality: both rotate North clockwise to get East).
    fn peer_east(&self) -> Vec2 {
        -self.east
    }

    fn classify_peer(&self, peer_pos: Point) -> HZone {
        let peer_home = self.peer_home.expect("initialized");
        let u = (peer_pos - peer_home).dot(self.peer_east());
        // Frame-transform rounding noise grows with the peer's distance
        // from its home (the Diverge policy walks arbitrarily far), so the
        // on-H band must widen with it; genuine lateral offsets are at
        // least `base·2⁻³⁰`, far above this threshold at any range.
        let tol = self.zone_tol + peer_pos.distance(peer_home) * 1e-13;
        if u > tol {
            HZone::East
        } else if u < -tol {
            HZone::West
        } else {
            HZone::On
        }
    }

    fn decode(&mut self, peer_pos: Point) {
        let zone = self.classify_peer(peer_pos);
        let prev = self.last_zone.replace(zone);
        if prev == Some(zone) {
            return;
        }
        let bit = match zone {
            HZone::East => Bit::Zero,
            HZone::West => Bit::One,
            HZone::On => return,
        };
        self.decoded_bits.push(bit);
        if let Some(msg) = self.decoder.push_bit(bit) {
            self.inbox.push(msg);
        }
    }

    /// Direction of the excursion for `bit` (my East encodes 0).
    fn out_dir(&self, bit: Bit) -> Vec2 {
        if bit.as_bool() {
            -self.east
        } else {
            self.east
        }
    }

    /// The move back onto `H`: straight along East/West, so a non-rigid
    /// truncation stops the robot on the side of `H` it is leaving, which
    /// the peer already read as this bit. The return from an excursion is
    /// this one move; a shortened landing is finished by the North phase.
    ///
    /// Return moves are **not** contracted: a geometrically shrinking
    /// sequence that already spent `s·(1 + 1/x + …)` going out can never
    /// cover that distance coming back. The contraction exists to bound
    /// the on-`H` drift (where robots can approach each other); the return
    /// leg is perpendicular to `H`, collision-free, and bounded by the
    /// excursion itself.
    fn to_horizon(&self, own: Point) -> Point {
        let lateral = (own - self.home.expect("initialized")).dot(self.east);
        own - self.east * lateral
    }
}

impl Default for Async2 {
    fn default() -> Self {
        Self::new(DriftPolicy::default())
    }
}

impl MovementProtocol for Async2 {
    fn on_activate(&mut self, view: &View) -> Point {
        let own = view.own_position();
        let peer = view.others().first().map(|o| o.position);
        if self.home.is_none() {
            if peer.is_none() {
                // Cannot establish the horizon frame without seeing the
                // peer (transient observation dropout): wait for a clean
                // view before bootstrapping.
                return own;
            }
            self.init(view);
        }

        // Observe: acknowledgement counting + decoding. A transiently
        // hidden peer yields no observation this instant, so the robot
        // stays put: Lemma 4.1 needs every change of mine to follow an
        // observation of the peer, or the peer would count a move made
        // blind as an acknowledgement.
        let Some(peer_pos) = peer else {
            return own;
        };
        self.tracker.observe(0, peer_pos);
        self.decode(peer_pos);

        match self.phase {
            Phase::North => {
                // A non-rigid (shortened) landing can leave the robot east
                // or west of `H` even though the return phase has ended.
                // Finish the landing first: a lateral offset reads as a
                // signal zone to the peer, so neither walking nor a fresh
                // excursion is safe until back on `H`. Restarting the
                // acknowledgement count at each correction keeps the
                // "peer saw me on H between excursions" argument intact.
                let lateral = (own - self.home.expect("initialized")).dot(self.east);
                if lateral.abs() > self.zone_tol {
                    self.tracker.reset();
                    return self.to_horizon(own);
                }
                if self.tracker.changed_at_least(0, 2) {
                    if let Some(bit) = self.outgoing.dequeue() {
                        // Start an excursion.
                        self.bits_sent += 1;
                        if matches!(self.policy, DriftPolicy::AlternateContract { .. }) {
                            self.north_sign = -self.north_sign;
                        }
                        self.tracker.reset();
                        self.phase = Phase::Out(bit);
                        let step = self.take_step();
                        return own + self.out_dir(bit) * step;
                    }
                }
                // Keep walking the horizon (Remark 4.3: always move).
                let step = self.take_step();
                own + self.north * (self.north_sign * step)
            }
            Phase::Out(bit) => {
                if self.tracker.changed_at_least(0, 2) {
                    // Acknowledged: land back on H. The North walk that
                    // follows counts its acknowledgements afresh.
                    self.phase = Phase::North;
                    self.tracker.reset();
                    return self.to_horizon(own);
                }
                let step = self.take_step();
                own + self.out_dir(bit) * step
            }
        }
    }
}

impl Chat for Async2 {
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
    use stigmergy_robots::Engine;
    use stigmergy_scheduler::{
        FairAsync, FaultPlan, RoundRobin, Scripted, SingleActive, Synchronous, WakeAllFirst,
    };

    fn engine<S: stigmergy_scheduler::Schedule + 'static>(
        schedule: S,
        policy: DriftPolicy,
        frame_seed: u64,
    ) -> Engine<Async2> {
        Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(16.0, 0.0)])
            .protocols([Async2::new(policy), Async2::new(policy)])
            .schedule(WakeAllFirst::new(schedule))
            .frame_seed(frame_seed)
            .build()
            .unwrap()
    }

    #[test]
    fn delivery_under_fair_async() {
        let mut e = engine(FairAsync::new(7, 0.5, 8), DriftPolicy::Diverge, 1);
        e.protocol_mut(0).send(b"async!");
        let out = e
            .run_until(20_000, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        assert!(out.satisfied, "not delivered");
        assert_eq!(e.protocol(1).inbox()[0], b"async!".to_vec());
    }

    #[test]
    fn delivery_under_single_active_adversary() {
        // The harshest fair scheduler: one robot at a time.
        let mut e = engine(SingleActive::new(3, 16), DriftPolicy::Diverge, 2);
        e.protocol_mut(0).send(b"1@z");
        let out = e
            .run_until(60_000, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(1).inbox()[0], b"1@z".to_vec());
    }

    #[test]
    fn duplex_under_round_robin() {
        let mut e = engine(RoundRobin, DriftPolicy::Diverge, 3);
        e.protocol_mut(0).send(b"fwd");
        e.protocol_mut(1).send(b"rev");
        let out = e
            .run_until(40_000, |e| {
                !e.protocol(0).inbox().is_empty() && !e.protocol(1).inbox().is_empty()
            })
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(1).inbox()[0], b"fwd".to_vec());
        assert_eq!(e.protocol(0).inbox()[0], b"rev".to_vec());
    }

    #[test]
    fn fig5_bit_streams() {
        // Fig. 5: r sends "001…", r′ sends "0…" — drive raw bits and check
        // both decoded streams.
        let mut e = engine(FairAsync::new(21, 0.6, 8), DriftPolicy::Diverge, 4);
        e.protocol_mut(0)
            .send_raw(&stigmergy_coding::BitString::parse("001").unwrap());
        e.protocol_mut(1)
            .send_raw(&stigmergy_coding::BitString::parse("0").unwrap());
        let out = e
            .run_until(20_000, |e| {
                e.protocol(1).decoded_bits().len() >= 3 && !e.protocol(0).decoded_bits().is_empty()
            })
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(
            &e.protocol(1).decoded_bits()[..3],
            &[Bit::Zero, Bit::Zero, Bit::One]
        );
        assert_eq!(&e.protocol(0).decoded_bits()[..1], &[Bit::Zero]);
    }

    #[test]
    fn many_seeds_never_corrupt() {
        for seed in 0..8u64 {
            let mut e = engine(
                FairAsync::new(seed, 0.4, 10),
                DriftPolicy::Diverge,
                50 + seed,
            );
            e.protocol_mut(0).send(&[seed as u8, 0x5A]);
            let out = e
                .run_until(40_000, |e| !e.protocol(1).inbox().is_empty())
                .unwrap();
            assert!(out.satisfied, "seed {seed}");
            assert_eq!(e.protocol(1).inbox()[0], vec![seed as u8, 0x5A]);
        }
    }

    #[test]
    fn diverge_policy_drifts_apart() {
        let mut e = engine(FairAsync::new(5, 0.5, 8), DriftPolicy::Diverge, 5);
        e.protocol_mut(0).send(b"drift");
        e.run_until(20_000, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        // The robots walked away from their homes along H.
        assert!(
            e.trace().max_drift() > 4.0,
            "drift {}",
            e.trace().max_drift()
        );
    }

    #[test]
    fn alternate_contract_bounds_drift() {
        let mut e = engine(
            FairAsync::new(5, 0.5, 8),
            DriftPolicy::AlternateContract { x: 2.0 },
            6,
        );
        e.protocol_mut(0).send(b"X");
        let out = e
            .run_until(40_000, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(1).inbox()[0], b"X".to_vec());
        // Total travel per robot ≤ base·x/(x−1) = 2·(d0/8) = d0/4 = 4.
        assert!(
            e.trace().max_drift() <= 4.0 + 1e-6,
            "drift {}",
            e.trace().max_drift()
        );
        // And they never met.
        assert!(e.trace().min_pairwise_distance() >= 8.0 - 1e-6);
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn bad_contraction_rejected() {
        let _ = Async2::new(DriftPolicy::AlternateContract { x: 1.0 });
    }

    #[test]
    fn idle_robots_still_move() {
        // Remark 4.3: an active robot always moves.
        let mut e = engine(RoundRobin, DriftPolicy::Diverge, 7);
        e.run(50).unwrap();
        assert!(e.trace().move_count(0) > 0);
        assert!(e.trace().move_count(1) > 0);
        assert!(e.protocol(0).is_drained());
    }

    #[test]
    fn a_robot_that_cannot_see_its_peer_stays_put() {
        let mut e = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(16.0, 0.0)])
            .protocols([Async2::default(), Async2::default()])
            .schedule(WakeAllFirst::new(FairAsync::new(5, 0.5, 8)))
            .frame_seed(5)
            .build()
            .unwrap();
        e.set_fault_plan(FaultPlan::new(5).observation_dropout(0.3));
        e.protocol_mut(0).send(b"blind");
        e.run(3_000).unwrap();
        let (blind, moved) = crate::ack::blind_activations(e.trace());
        assert!(blind > 100, "dropout blinded only {blind} activations");
        assert_eq!(moved, 0, "moves made without seeing the peer");
    }

    #[test]
    fn adversarial_scripted_schedule() {
        // Long one-sided bursts: robot 1 wakes 1 instant of every 10.
        let script: Vec<Vec<usize>> = (0..10)
            .map(|k| if k == 9 { vec![1] } else { vec![0] })
            .collect();
        let mut e = engine(Scripted::new(script), DriftPolicy::Diverge, 8);
        e.protocol_mut(0).send(b"burst");
        let out = e
            .run_until(80_000, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(1).inbox()[0], b"burst".to_vec());
    }

    #[test]
    fn truncated_returns_stay_on_their_side() {
        // The return is one move straight across H, so wherever non-rigid
        // motion stops it the peer still reads the excursion's side (the
        // bit it already has) or H: never the other side, which would
        // forge a bit.
        let mut truncated = 0;
        for seed in 0..64 {
            let mut e = engine(FairAsync::new(seed, 0.5, 8), DriftPolicy::Diverge, seed);
            e.step().unwrap();
            e.set_fault_plan(FaultPlan::new(seed).non_rigid(0.35, 0.5));
            e.protocol_mut(0).send(b"leg");
            let mut side = None;
            while !e.protocol(0).is_drained() || e.protocol(1).inbox().is_empty() {
                assert!(e.time() < 40_000, "seed {seed}: not delivered");
                e.step().unwrap();
                if let Phase::Out(bit) = e.protocol(0).phase {
                    side = Some(if bit.as_bool() {
                        HZone::West
                    } else {
                        HZone::East
                    });
                }
                let local = e.frames()[1].to_local(e.positions()[0]);
                let zone = e.protocol(1).classify_peer(local);
                assert!(
                    zone == HZone::On || Some(zone) == side,
                    "seed {seed}, t {}: peer reads {zone:?} after an excursion to {side:?}",
                    e.time()
                );
            }
            assert_eq!(e.protocol(1).inbox()[0], b"leg".to_vec(), "seed {seed}");
            truncated += e.stats().faults_injected;
        }
        assert!(truncated > 10_000, "only {truncated} moves were truncated");
    }

    #[test]
    fn each_return_is_one_activation() {
        // Synchronous and fault-free: the activation that sees the
        // acknowledgement lands back on H, so the sender is off H only
        // while an excursion is held.
        let mut e = engine(Synchronous, DriftPolicy::Diverge, 11);
        e.protocol_mut(0).send(b"1");
        let mut returns = 0;
        while !e.protocol(0).is_drained() || e.protocol(1).inbox().is_empty() {
            assert!(e.time() < 10_000, "not delivered");
            let was_out = matches!(e.protocol(0).phase, Phase::Out(_));
            e.step().unwrap();
            let local = e.frames()[1].to_local(e.positions()[0]);
            let on_h = e.protocol(1).classify_peer(local) == HZone::On;
            if e.protocol(0).phase == Phase::North {
                assert!(on_h, "t {}: still off H after the return", e.time());
                returns += u64::from(was_out);
            }
        }
        assert_eq!(e.protocol(0).bits_sent(), 24);
        assert_eq!(returns, 24);
    }

    #[test]
    fn current_step_reports_contraction() {
        let mut e = engine(RoundRobin, DriftPolicy::AlternateContract { x: 2.0 }, 9);
        e.step().unwrap();
        let s0 = e.protocol(0).current_step();
        e.run(20).unwrap();
        assert!(e.protocol(0).current_step() < s0);
        assert!(e.protocol(0).current_step() >= e.protocol(0).base_step * MIN_SCALE);
    }
}
