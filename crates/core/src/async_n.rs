//! Protocol P6 (§4.2, Fig. 6): asynchronous one-to-one communication for
//! any number of robots.
//!
//! The synchronous keyboard of §3 meets the implicit acknowledgements of
//! §4.1. Each granular is sliced into `n + 1` diameters: `n` addressing
//! diameters plus the extra slice **κ** on the SEC radius through the
//! robot, playing the role of the two-robot horizon line:
//!
//! * **κ oscillation** — a robot with nothing to say shuffles along κ,
//!   reversing direction each time it has seen *every* other robot change
//!   position twice. It always moves (Remark 4.3) unless observation
//!   dropout hid part of the cohort — a move made blind would read as an
//!   acknowledgement the hidden robot never gave — and never reaches the
//!   granular border or centre: each step is a fraction of the room left
//!   (the paper's "divide the covered distance by `x > 1`").
//! * **Signal** — to send a bit to the robot labelled `j`, move to the
//!   granular centre, stride out on diameter `j` (side = bit value), and
//!   keep inching outward until every robot has been seen to change
//!   twice — by Lemma 4.1 applied pairwise, every robot has then observed
//!   the excursion. Return to the centre, then hold a κ stint until every
//!   robot changed twice again, separating this bit from the next.
//! * **Travel legs** — κ → centre and half-slice → centre are one move
//!   each: the SSM caps a move only at σ. Both run along a radius of the
//!   granular, so a move cut short (non-rigid motion, or σ) leaves the
//!   robot in the zone it is leaving, κ or the excursion's half-slice;
//!   no observer reads a half-slice the sender did not mean, and the next
//!   activation finishes the leg (DESIGN.md §8).
//!
//! Observers classify every robot's position on that robot's keyboard and
//! register a bit whenever a robot *enters* an addressing half-slice; the
//! interposed κ stint guarantees consecutive identical bits remain
//! distinguishable. Every observer decodes every stream (redundancy), and
//! the keyboards, SEC naming and κ directions are all similarity-invariant
//! — anonymous robots with chirality only suffice, though the protocol
//! also runs with IDs or sense of direction (§4.2's remark).

use crate::ack::ChangeTracker;
use crate::decode::{Dest, InboxEntry, OverheardEntry, SwarmMailbox, ZoneTracker};
use crate::preprocess::{NamingScheme, SwarmGeometry};
use crate::session::Chat;
use std::cmp::Ordering;
use stigmergy_geometry::granular::SliceSide;
use stigmergy_geometry::{Point, Vec2};
use stigmergy_robots::{MovementProtocol, View, VisibleId};

/// Inner (centre-side) bound of the κ oscillation, as a fraction of the
/// granular radius.
const KAPPA_LO: f64 = 0.125;
/// Outer (border-side) bound of every excursion, as a fraction of the
/// granular radius.
const WALK_HI: f64 = 0.875;
/// Fraction of the remaining room consumed per κ move and per inching
/// move on an excursion — the paper's `1/x` contraction, applied
/// adaptively so bounds are never hit. The κ walk's first step out of the
/// centre is this fraction of the radius. Travel legs to the centre are
/// not contracted: each is a single move (see `center_move`).
const ROOM_FRACTION: f64 = 0.25;
/// Distance (relative to the radius) below which a robot counts as being
/// at its granular centre.
const CENTER_EPS: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Shuffling on κ; `outward` is the current direction.
    Kappa { outward: bool },
    /// Walking back to the centre to start an excursion.
    GoCenter { slice: usize, side: SliceSide },
    /// Holding an excursion on `(slice, side)`.
    Out { slice: usize, side: SliceSide },
    /// Returning to the centre after an acknowledged excursion.
    Return { slice: usize, side: SliceSide },
}

/// The asynchronous swarm protocol.
#[derive(Debug, Clone)]
pub struct AsyncSwarm {
    mailbox: SwarmMailbox,
    phase: Phase,
    tracker: ChangeTracker,
    /// Home indices excluded from the acknowledgement condition: always
    /// `0` (self) plus every peer the view reports crashed. Kept sorted
    /// for deterministic iteration.
    excluded: Vec<usize>,
    /// Length of the view's crashed list when it was last read; crashes
    /// are permanent, so only a longer list can name a new one.
    crashed_seen: usize,
    stint_ready: bool,
    bits_sent: u64,
    zones: ZoneTracker,
}

impl AsyncSwarm {
    /// Addresses peers by `scheme`; [`AsyncSwarm::anonymous`] is the
    /// paper's choice.
    #[must_use]
    pub fn with_scheme(scheme: NamingScheme) -> Self {
        Self {
            mailbox: SwarmMailbox::new(scheme, true),
            phase: Phase::Kappa { outward: true },
            tracker: ChangeTracker::new(0),
            excluded: vec![0],
            crashed_seen: 0,
            stint_ready: false,
            bits_sent: 0,
            zones: ZoneTracker::new(),
        }
    }

    /// The paper's §4.2 protocol: anonymous robots, chirality only (SEC
    /// naming).
    #[must_use]
    pub fn anonymous() -> Self {
        Self::with_scheme(NamingScheme::BySec)
    }

    /// Queues a message for the robot labelled `dest_label` under this
    /// robot's naming.
    pub fn send_label(&mut self, dest_label: usize, payload: &[u8]) {
        self.mailbox.post(Dest::Label(dest_label), payload);
    }

    /// Queues a message for the robot with visible ID `dest`.
    pub fn send_id(&mut self, dest: VisibleId, payload: &[u8]) {
        self.mailbox.post(Dest::Id(dest), payload);
    }

    /// Queues a broadcast (§5 one-to-all).
    pub fn send_broadcast(&mut self, payload: &[u8]) {
        self.mailbox.post(Dest::Broadcast, payload);
    }

    /// Messages addressed to this robot.
    #[must_use]
    pub fn inbox(&self) -> &[InboxEntry] {
        self.mailbox.streams().inbox()
    }

    /// Every decoded message (redundancy log).
    #[must_use]
    pub fn overheard(&self) -> &[OverheardEntry] {
        self.mailbox.streams().overheard()
    }

    /// The preprocessed geometry, once built.
    #[must_use]
    pub fn geometry(&self) -> Option<&SwarmGeometry> {
        self.mailbox.geometry()
    }

    /// Whether all queued traffic has been sent and acknowledged.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.mailbox.is_drained() && matches!(self.phase, Phase::Kappa { .. })
    }

    /// Excursions launched so far. The count rises when the robot leaves
    /// the centre on an addressing half-slice, before that excursion is
    /// acknowledged.
    #[must_use]
    pub fn bits_sent(&self) -> u64 {
        self.bits_sent
    }

    /// Excludes the peer at local home index `home` from the implicit
    /// acknowledgement condition.
    ///
    /// The §4.2 sending rule waits until *every* other robot changed
    /// position twice — so one crash-stopped peer wedges every sender
    /// forever. The engine is the perfect failure detector: every view
    /// lists the crash-stopped peers ([`View::crashed`]), and
    /// `on_activate` suspects each of them, after which excursions are
    /// acknowledged by the live peers alone (Lemma 4.1 still applies
    /// pairwise to each of them). Suspecting is deliberately one-way —
    /// crash-stop faults are permanent in this model.
    ///
    /// Suspecting `0` (self) or an out-of-range index is a no-op: self is
    /// always excluded already, and unknown homes never gate an ack.
    fn suspect(&mut self, home: usize) {
        if home != 0 && !self.excluded.contains(&home) {
            self.excluded.push(home);
            self.excluded.sort_unstable();
        }
    }

    /// Everyone (but me and the suspected crashed peers) has changed at
    /// least twice this stint.
    fn acked(&self) -> bool {
        self.tracker.all_changed_at_least_except(2, &self.excluded)
    }

    fn observe_and_decode(&mut self, view: &View) {
        let Some((g, streams)) = self.mailbox.decoding() else {
            return;
        };
        for o in view.others() {
            // A peer at exactly the position it was last observed at
            // identifies to the same home, keeps its change count, and
            // stays in its zone: nothing below would change.
            if self.tracker.is_last_position(o.position) {
                continue;
            }
            let Some(home) = g.identify(o.position) else {
                continue;
            };
            self.tracker.observe(home, o.position);
            if let Some((slice, side)) = self.zones.observe(g, home, o.position) {
                streams.on_signal(g, home, slice, side);
            }
        }
    }

    /// κ direction: outward is the zero side of slice κ (the SEC radius
    /// through this robot, pointing away from the SEC centre).
    fn kappa_dir(&self, outward: bool) -> Vec2 {
        let g = self.mailbox.geometry().expect("initialized");
        let kappa = g.kappa_slice().expect("async keyboards have kappa");
        let d = g
            .keyboard(0)
            .direction(kappa, SliceSide::Zero)
            .expect("kappa is a valid slice");
        if outward {
            d
        } else {
            -d
        }
    }

    /// One constrained κ move from the current radial distance `d`.
    fn kappa_move(&self, own: Point, outward: bool) -> Point {
        let g = self.mailbox.geometry().expect("initialized");
        let radius = g.keyboard(0).radius();
        let d = own.distance(g.home(0));
        let room = if outward {
            WALK_HI * radius - d
        } else {
            d - KAPPA_LO * radius
        };
        // `room` can be ≤ 0 only at t0 (we start at the centre, below the
        // inner bound): bootstrap outward with a quarter radius.
        let step = if room > 0.0 {
            room * ROOM_FRACTION
        } else {
            radius * ROOM_FRACTION
        };
        own + self.kappa_dir(outward || room <= 0.0) * step
    }

    fn at_center(&self, own: Point) -> bool {
        let g = self.mailbox.geometry().expect("initialized");
        let (home, bound) = (g.home(0), g.keyboard(0).radius() * CENTER_EPS);
        match own.distance_cmp(home, bound) {
            Some(order) => order == Ordering::Less,
            None => own.distance(home) < bound,
        }
    }

    /// A travel leg to the centre — from κ, or back from the excursion's
    /// half-slice — in one move. A move cut short stays on the same
    /// radius, in the zone it is leaving (module docs, *Travel legs*).
    fn center_move(&self) -> Point {
        self.mailbox.geometry().expect("initialized").home(0)
    }

    /// One outward move on an addressing slice: first stride to half the
    /// radius, then contracted steps toward (never to) the outer bound.
    ///
    /// The stride test carries a relative tolerance: the half-radius
    /// launch point round-trips through the robot's local frame between
    /// activations, and for some frame rotations the re-observed distance
    /// lands one ULP *below* `radius / 2`. An exact `d < radius / 2`
    /// would then re-issue the identical jump target forever — a frozen
    /// sender that also wedges every peer waiting on its double-change.
    fn slice_move(&self, own: Point, slice: usize, side: SliceSide) -> Point {
        let g = self.mailbox.geometry().expect("initialized");
        let radius = g.keyboard(0).radius();
        let d = own.distance(g.home(0));
        if d < radius * (0.5 - 1e-9) {
            g.keyboard(0)
                .target(slice, side, 0.5)
                .expect("valid addressing slice")
        } else {
            let dir = g
                .keyboard(0)
                .direction(slice, side)
                .expect("valid addressing slice");
            let room = WALK_HI * radius - d;
            own + dir * (room.max(0.0) * ROOM_FRACTION).max(radius * 1e-12)
        }
    }
}

impl MovementProtocol for AsyncSwarm {
    fn on_activate(&mut self, view: &View) -> Point {
        let fresh = self.mailbox.geometry().is_none();
        let Some(cohort) = self.mailbox.prepare(view).map(SwarmGeometry::cohort) else {
            return view.own_position();
        };
        if fresh {
            self.tracker = ChangeTracker::new(cohort);
        }
        let crashed = view.crashed();
        if crashed.len() > self.crashed_seen {
            self.crashed_seen = crashed.len();
            for &p in crashed {
                if let Some(home) = self.mailbox.geometry().and_then(|g| g.identify(p)) {
                    self.suspect(home);
                }
            }
        }

        self.observe_and_decode(view);
        let own = view.own_position();
        // A robot that does not see its whole cohort stays put: Lemma
        // 4.1 needs every change of mine to follow an observation of
        // each peer, or a hidden peer would count it as an
        // acknowledgement.
        if view.others().len() + 1 < cohort {
            return own;
        }

        match self.phase {
            Phase::Kappa { outward } => {
                if self.acked() {
                    self.stint_ready = true;
                }
                if self.stint_ready {
                    if let Some((slice, bit)) = self.mailbox.next_bit() {
                        let side = SliceSide::from_bit(bit.as_bool());
                        // Head for the centre to start the excursion.
                        self.stint_ready = false;
                        self.phase = Phase::GoCenter { slice, side };
                        return self.step_go_center(own, slice, side);
                    }
                    // Nothing to send: reverse the κ direction (fresh
                    // stint), as the paper prescribes.
                    self.stint_ready = false;
                    self.tracker.reset();
                    let flipped = !outward;
                    self.phase = Phase::Kappa { outward: flipped };
                    return self.kappa_move(own, flipped);
                }
                self.kappa_move(own, outward)
            }
            Phase::GoCenter { slice, side } => self.step_go_center(own, slice, side),
            Phase::Out { slice, side } => {
                if self.acked() {
                    self.phase = Phase::Return { slice, side };
                    return self.step_return(own);
                }
                self.slice_move(own, slice, side)
            }
            Phase::Return { .. } => self.step_return(own),
        }
    }
}

impl AsyncSwarm {
    fn step_go_center(&mut self, own: Point, slice: usize, side: SliceSide) -> Point {
        if self.at_center(own) {
            // Launch the excursion: fresh acknowledgement stint.
            self.tracker.reset();
            self.phase = Phase::Out { slice, side };
            self.bits_sent += 1;
            return self.slice_move(own, slice, side);
        }
        self.center_move()
    }

    fn step_return(&mut self, own: Point) -> Point {
        if self.at_center(own) {
            // Back home: hold a κ stint before the next bit.
            self.tracker.reset();
            self.stint_ready = false;
            self.phase = Phase::Kappa { outward: true };
            return self.kappa_move(own, true);
        }
        self.center_move()
    }
}

impl Default for AsyncSwarm {
    fn default() -> Self {
        Self::anonymous()
    }
}

impl Chat for AsyncSwarm {
    fn queue(&mut self, label: usize, payload: &[u8]) {
        self.send_label(label, payload);
    }
    fn queue_broadcast(&mut self, payload: &[u8]) {
        self.send_broadcast(payload);
    }
    fn inbox_entries(&self) -> &[InboxEntry] {
        self.inbox()
    }
    fn swarm_geometry(&self) -> Option<&SwarmGeometry> {
        self.geometry()
    }
    fn failure(&self) -> Option<&crate::CoreError> {
        self.mailbox.init_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_robots::{Capabilities, Engine};
    use stigmergy_scheduler::{
        FairAsync, FaultPlan, RoundRobin, SingleActive, Synchronous, WakeAllFirst,
    };

    fn ring(n: usize) -> Vec<Point> {
        (0..n)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
                let r = 20.0 + (k as f64) * 0.2;
                Point::new(r * theta.sin(), r * theta.cos())
            })
            .collect()
    }

    fn engine<S: stigmergy_scheduler::Schedule + 'static>(
        n: usize,
        schedule: S,
        seed: u64,
    ) -> Engine<AsyncSwarm> {
        Engine::builder()
            .positions(ring(n))
            .protocols((0..n).map(|_| AsyncSwarm::anonymous()))
            .capabilities(Capabilities::anonymous())
            .schedule(WakeAllFirst::new(schedule))
            .frame_seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn a_robot_that_misses_part_of_its_cohort_stays_put() {
        let mut e = Engine::builder()
            .positions(ring(4))
            .protocols((0..4).map(|_| AsyncSwarm::anonymous()))
            .capabilities(Capabilities::anonymous())
            .schedule(WakeAllFirst::new(FairAsync::new(5, 0.5, 8)))
            .frame_seed(5)
            .build()
            .unwrap();
        // The t0 preprocessing view is complete (§4.2); dropout starts
        // after it.
        e.step().unwrap();
        e.set_fault_plan(FaultPlan::new(5).observation_dropout(0.1));
        e.run(3_000).unwrap();
        let (blind, moved) = crate::ack::blind_activations(e.trace());
        assert!(blind > 100, "dropout blinded only {blind} activations");
        assert_eq!(moved, 0, "moves made without seeing the whole cohort");
    }

    /// Local home index of engine robot `target` from `observer`'s
    /// perspective, computed via world-home matching.
    fn home_of(e: &Engine<AsyncSwarm>, observer: usize, target: usize) -> usize {
        let g = e.protocol(observer).geometry().expect("preprocessed");
        let world_home = e.trace().initial()[target];
        let local_home = e.frames()[observer].to_local(world_home);
        (0..g.cohort())
            .find(|&h| g.home(h).approx_eq(local_home))
            .expect("home present")
    }

    /// Label of engine robot `target` from `sender`'s perspective.
    fn label_of(e: &Engine<AsyncSwarm>, sender: usize, target: usize) -> usize {
        let g = e.protocol(sender).geometry().expect("preprocessed");
        g.label_for(0, home_of(e, sender, target))
    }

    #[test]
    fn three_robot_delivery_fair() {
        let mut e = engine(3, FairAsync::new(11, 0.5, 8), 1);
        e.step().unwrap();
        let label = label_of(&e, 0, 2);
        e.protocol_mut(0).send_label(label, b"n-ary");
        let out = e
            .run_until(60_000, |e| {
                e.protocol(2).inbox().iter().any(|m| m.payload == b"n-ary")
            })
            .unwrap();
        assert!(out.satisfied, "not delivered");
    }

    #[test]
    fn unresolvable_label_is_dropped_not_stuck() {
        let mut e = engine(3, FairAsync::new(53, 0.5, 8), 14);
        e.step().unwrap();
        let good = label_of(&e, 0, 1);
        crate::decode::tests::unresolvable_label_is_dropped_not_stuck(
            &mut e,
            AsyncSwarm::overheard,
            good,
            60_000,
        );
    }

    #[test]
    fn five_robot_delivery_single_active() {
        let mut e = engine(5, SingleActive::new(13, 16), 2);
        e.step().unwrap();
        let label = label_of(&e, 1, 4);
        e.protocol_mut(1).send_label(label, b"Z");
        let out = e
            .run_until(400_000, |e| {
                e.protocol(4).inbox().iter().any(|m| m.payload == b"Z")
            })
            .unwrap();
        assert!(out.satisfied, "not delivered under the harshest scheduler");
    }

    #[test]
    fn concurrent_senders() {
        let mut e = engine(4, FairAsync::new(17, 0.5, 8), 3);
        e.step().unwrap();
        let l01 = label_of(&e, 0, 1);
        let l23 = label_of(&e, 2, 3);
        e.protocol_mut(0).send_label(l01, b"ab");
        e.protocol_mut(2).send_label(l23, b"cd");
        let out = e
            .run_until(150_000, |e| {
                e.protocol(1).inbox().iter().any(|m| m.payload == b"ab")
                    && e.protocol(3).inbox().iter().any(|m| m.payload == b"cd")
            })
            .unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn everyone_overhears() {
        let mut e = engine(4, FairAsync::new(19, 0.6, 8), 4);
        e.step().unwrap();
        let label = label_of(&e, 0, 1);
        e.protocol_mut(0).send_label(label, b"loud");
        let out = e
            .run_until(150_000, |e| {
                (2..4).all(|i| {
                    e.protocol(i)
                        .overheard()
                        .iter()
                        .any(|m| m.payload == b"loud")
                })
            })
            .unwrap();
        assert!(out.satisfied, "bystanders missed the traffic");
    }

    #[test]
    fn broadcast() {
        let mut e = engine(4, FairAsync::new(23, 0.5, 8), 5);
        e.step().unwrap();
        e.protocol_mut(1).send_broadcast(b"all");
        let out = e
            .run_until(150_000, |e| {
                [0usize, 2, 3]
                    .iter()
                    .all(|&i| e.protocol(i).inbox().iter().any(|m| m.payload == b"all"))
            })
            .unwrap();
        assert!(out.satisfied);
    }

    /// Regression: under this frame seed, the half-radius launch point of
    /// an excursion round-trips through a robot's local frame to a
    /// distance one ULP below `radius / 2`, and the old exact `d < r/2`
    /// stride test re-issued the identical jump target forever — a
    /// bitwise-frozen sender that wedged every peer's double-change ack.
    /// Three simultaneous broadcasters made the freeze near-certain.
    #[test]
    fn half_radius_roundtrip_cannot_freeze_a_sender() {
        use stigmergy_scheduler::WorstCaseFair;
        let mut e = Engine::builder()
            .positions(ring(3))
            .protocols((0..3).map(|_| AsyncSwarm::anonymous()))
            .capabilities(Capabilities::anonymous())
            .schedule(WakeAllFirst::new(WorstCaseFair::new(6)))
            .frame_seed(0xAA71_E90F_553B_6904)
            .build()
            .unwrap();
        e.step().unwrap();
        for i in 0..3 {
            e.protocol_mut(i).send_broadcast(b"zzzzzz");
        }
        let out = e
            .run_until(400_000, |e| {
                (0..3).all(|i| e.protocol(i).inbox().len() >= 2)
            })
            .unwrap();
        assert!(out.satisfied, "a broadcaster froze mid-excursion");
    }

    #[test]
    fn robots_never_leave_granulars_or_collide() {
        let mut e = engine(4, FairAsync::new(29, 0.5, 8), 6);
        e.step().unwrap();
        let label = label_of(&e, 0, 3);
        e.protocol_mut(0).send_label(label, &[0xF0]);
        let homes = e.trace().initial().to_vec();
        let radii: Vec<f64> = (0..4)
            .map(|i| {
                (0..4)
                    .filter(|&j| j != i)
                    .map(|j| homes[i].distance(homes[j]))
                    .fold(f64::INFINITY, f64::min)
                    / 2.0
            })
            .collect();
        for _ in 0..20_000 {
            e.step().unwrap(); // engine also checks collisions
            for i in 0..4 {
                assert!(
                    homes[i].distance(e.positions()[i]) <= radii[i] + 1e-9,
                    "robot {i} left its granular"
                );
            }
        }
    }

    #[test]
    fn idle_robots_oscillate_on_kappa() {
        let mut e = engine(3, RoundRobin, 7);
        e.run(200).unwrap();
        // Everyone moved (Remark 4.3) …
        for i in 0..3 {
            assert!(e.trace().move_count(i) > 10, "robot {i} too still");
        }
        // …and nobody decoded any bits (κ walks are not signals).
        for i in 0..3 {
            assert!(e.protocol(i).overheard().is_empty());
            assert!(e.protocol(i).inbox().is_empty());
        }
    }

    #[test]
    fn multi_message_sequencing() {
        let mut e = engine(3, FairAsync::new(31, 0.6, 8), 8);
        e.step().unwrap();
        let l1 = label_of(&e, 0, 1);
        let l2 = label_of(&e, 0, 2);
        e.protocol_mut(0).send_label(l1, b"first");
        e.protocol_mut(0).send_label(l2, b"second");
        let out = e
            .run_until(300_000, |e| {
                e.protocol(1).inbox().iter().any(|m| m.payload == b"first")
                    && e.protocol(2).inbox().iter().any(|m| m.payload == b"second")
            })
            .unwrap();
        assert!(out.satisfied);
        // The receiver gets the last bit while the sender is still on its
        // final return leg; give the sender time to finish.
        let settled = e.run_until(10_000, |e| e.protocol(0).is_drained()).unwrap();
        assert!(settled.satisfied);
    }

    #[test]
    fn works_with_ids_and_direction_variants() {
        let positions = ring(3);
        let mut e = Engine::builder()
            .positions(positions)
            .protocols((0..3).map(|_| AsyncSwarm::with_scheme(NamingScheme::ById)))
            .capabilities(Capabilities::identified_with_direction())
            .schedule(WakeAllFirst::new(FairAsync::new(37, 0.5, 8)))
            .frame_seed(9)
            .build()
            .unwrap();
        e.step().unwrap();
        let id = e.ids().unwrap()[2];
        e.protocol_mut(0).send_id(id, b"id-routed");
        let out = e
            .run_until(100_000, |e| {
                e.protocol(2)
                    .inbox()
                    .iter()
                    .any(|m| m.payload == b"id-routed")
            })
            .unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn two_robots_work_too() {
        let mut e = engine(2, FairAsync::new(41, 0.5, 8), 10);
        e.step().unwrap();
        let label = label_of(&e, 0, 1);
        e.protocol_mut(0).send_label(label, b"pair");
        let out = e
            .run_until(60_000, |e| {
                e.protocol(1).inbox().iter().any(|m| m.payload == b"pair")
            })
            .unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn the_engines_detector_unwedges_the_sender() {
        // Without a detector the crashed robot never moves again, so the
        // plain §4.2 ack condition (everyone changes twice) can never be
        // met and the sender wedges. The engine lists the crashed peer in
        // every live view from the instant after its crash; survivors
        // exclude it and stints complete on live acks alone.
        let when = 5;
        let mut e = engine(3, FairAsync::new(47, 0.5, 8), 12);
        e.step().unwrap();
        e.set_fault_plan(FaultPlan::new(0xC4A5).crash_stop(2, when));
        e.protocol_mut(0).send_broadcast(b"x");
        e.run(when).unwrap();
        for i in 0..2 {
            assert_eq!(e.protocol(i).excluded, [0], "robot {i} accused early");
        }
        let out = e
            .run_until(120_000, |e| {
                e.protocol(0).is_drained()
                    && e.protocol(1).inbox().iter().any(|m| m.payload == b"x")
            })
            .unwrap();
        assert!(out.satisfied, "a detected crash still wedges the channel");
        for i in 0..2 {
            let home = home_of(&e, i, 2);
            assert_eq!(e.protocol(i).excluded, [0, home], "robot {i}");
        }
    }

    #[test]
    fn suspect_dedups_and_ignores_self() {
        let mut p = AsyncSwarm::anonymous();
        assert_eq!(p.excluded, [0]);
        p.suspect(0); // self: no-op
        p.suspect(2);
        p.suspect(2); // duplicate: no-op
        p.suspect(1);
        assert_eq!(p.excluded, [0, 1, 2]);
    }

    /// The half-slice of the excursion robot 0 has in flight, if any.
    fn excursion(e: &Engine<AsyncSwarm>) -> Option<(usize, SliceSide)> {
        match e.protocol(0).phase {
            Phase::Out { slice, side } | Phase::Return { slice, side } => Some((slice, side)),
            Phase::Kappa { .. } | Phase::GoCenter { .. } => None,
        }
    }

    /// Asserts that, in every peer's geometry, robot 0's position reads as
    /// its centre, κ, or the half-slice of the excursion in flight.
    fn assert_in_zone(e: &Engine<AsyncSwarm>, seed: u64) {
        use stigmergy_geometry::granular::SliceZone;
        let world = e.positions()[0];
        let excursion = excursion(e);
        for observer in 1..e.positions().len() {
            let g = e.protocol(observer).geometry().expect("preprocessed");
            let kappa = g.kappa_slice().expect("async keyboards have kappa");
            let local = e.frames()[observer].to_local(world);
            let zone = g
                .keyboard(home_of(e, observer, 0))
                .classify(local, stigmergy_geometry::Tolerance::default());
            let ok = match zone {
                SliceZone::Center => true,
                SliceZone::OnSlice { slice, side, .. } => {
                    slice == kappa || excursion == Some((slice, side))
                }
            };
            assert!(
                ok,
                "seed {seed}, t {}: robot {observer} reads {zone:?} during {:?}",
                e.time(),
                e.protocol(0).phase
            );
        }
    }

    #[test]
    fn truncated_legs_stay_in_their_zones() {
        // Every leg is one move aimed along a radius of the sender's
        // granular, so wherever non-rigid motion stops it, each peer
        // reads the zone the sender is leaving or heading to: never
        // another half-slice, which would forge a bit.
        let mut truncated = 0;
        for seed in 0..64 {
            let mut e = engine(3, FairAsync::new(seed, 0.5, 8), seed);
            e.step().unwrap();
            e.set_fault_plan(FaultPlan::new(seed).non_rigid(0.35, 0.5));
            let label = label_of(&e, 0, 2);
            e.protocol_mut(0).send_label(label, b"leg");
            while !e.protocol(0).is_drained() || e.protocol(2).inbox().is_empty() {
                assert!(e.time() < 60_000, "seed {seed}: not delivered");
                e.step().unwrap();
                assert_in_zone(&e, seed);
            }
            assert_eq!(e.protocol(2).inbox()[0].payload, b"leg", "seed {seed}");
            truncated += e.stats().faults_injected;
        }
        assert!(truncated > 10_000, "only {truncated} moves were truncated");
    }

    #[test]
    fn each_leg_is_one_activation() {
        // Synchronous and fault-free: the sender is active at every
        // instant and every move lands, so each leg to the centre shows
        // in exactly one instant's phase.
        let mut e = engine(3, Synchronous, 13);
        e.step().unwrap();
        let label = label_of(&e, 0, 1);
        e.protocol_mut(0).send_label(label, b"1");
        let (mut to_center, mut back) = (0, 0);
        while !e.protocol(0).is_drained() || e.protocol(1).inbox().is_empty() {
            assert!(e.time() < 10_000, "not delivered");
            e.step().unwrap();
            match e.protocol(0).phase {
                Phase::GoCenter { .. } => to_center += 1,
                Phase::Return { .. } => back += 1,
                Phase::Kappa { .. } | Phase::Out { .. } => {}
            }
        }
        let bits = e.protocol(0).bits_sent();
        assert_eq!(bits, 24);
        assert_eq!((to_center, back), (bits, bits));
    }

    #[test]
    fn bits_sent_counts_excursions() {
        let mut e = engine(3, FairAsync::new(43, 0.7, 8), 11);
        e.step().unwrap();
        let label = label_of(&e, 0, 1);
        e.protocol_mut(0).send_label(label, b"");
        // An empty payload is still a 16-bit frame header.
        let out = e
            .run_until(100_000, |e| e.protocol(0).is_drained())
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(0).bits_sent(), 16);
        assert_eq!(e.protocol(1).inbox()[0].payload, Vec::<u8>::new());
    }
}
