//! Protocols P2–P4 (§3.2–§3.4): synchronous one-to-one communication in a
//! swarm of `n ≥ 2` robots.
//!
//! All three share the same machinery and differ only in the naming
//! mechanism used to label keyboard slices:
//!
//! * [`SyncRouted`] (§3.2) — observable-ID order; requires identified
//!   robots with sense of direction;
//! * [`SyncAnonDir`] (§3.3) — lexicographic position order; anonymous
//!   robots with sense of direction;
//! * [`SyncAnonChir`] (§3.4) — observer-relative SEC radial order;
//!   anonymous robots with chirality only.
//!
//! At `t0` every robot runs the preprocessing of [`SwarmGeometry`]: Voronoi
//! granulars (collision avoidance) sliced into `n` labelled diameters (the
//! routing keyboard). Signal instants and return instants then alternate
//! exactly as in [`Sync2`](crate::sync2::Sync2): to send a bit to the robot
//! labelled `j`, move out on diameter `j` — Northern/Eastern side for `0`,
//! Southern/Western for `1` — and step back home on the next instant.
//!
//! Every robot decodes every excursion (the redundancy property); messages
//! addressed to a robot land in its inbox, the rest in its overheard log.
//! Sending to *yourself* is reinterpreted as **broadcast** (§5's
//! one-to-all): your own slice is otherwise meaningless, and every observer
//! can detect it.

use crate::decode::{Dest, InboxEntry, OverheardEntry, SwarmMailbox};
use crate::preprocess::{NamingScheme, SwarmGeometry};
use crate::session::Chat;
use stigmergy_geometry::granular::{SliceSide, SliceZone};
use stigmergy_geometry::Point;
use stigmergy_robots::{MovementProtocol, View, VisibleId};

/// The fraction of the granular radius used for signal excursions.
const SIGNAL_FRACTION: f64 = 0.5;

/// The synchronous swarm protocol, parameterized by naming scheme.
///
/// Use the constructors [`SyncSwarm::routed`],
/// [`SyncSwarm::anonymous_with_direction`], [`SyncSwarm::anonymous`] — or
/// the matching type aliases.
#[derive(Debug, Clone)]
pub struct SyncSwarm {
    counter: u64,
    mailbox: SwarmMailbox,
    signals_sent: u64,
}

/// P2: identified robots with sense of direction (§3.2).
pub type SyncRouted = SyncSwarm;

/// P3: anonymous robots with sense of direction (§3.3).
pub type SyncAnonDir = SyncSwarm;

/// P4: anonymous robots with chirality only (§3.4).
pub type SyncAnonChir = SyncSwarm;

impl Default for SyncSwarm {
    fn default() -> Self {
        Self::anonymous()
    }
}

impl SyncSwarm {
    /// Routes by `scheme`; the named constructors below pick one each.
    #[must_use]
    pub fn with_scheme(scheme: NamingScheme) -> Self {
        Self {
            counter: 0,
            mailbox: SwarmMailbox::new(scheme, false),
            signals_sent: 0,
        }
    }

    /// P2 (§3.2): route by observable-ID order.
    #[must_use]
    pub fn routed() -> Self {
        Self::with_scheme(NamingScheme::ById)
    }

    /// P3 (§3.3): route by lexicographic position order.
    #[must_use]
    pub fn anonymous_with_direction() -> Self {
        Self::with_scheme(NamingScheme::ByLex)
    }

    /// P4 (§3.4): route by SEC radial order.
    #[must_use]
    pub fn anonymous() -> Self {
        Self::with_scheme(NamingScheme::BySec)
    }

    /// Queues a message for the robot labelled `dest_label` under this
    /// robot's naming.
    pub fn send_label(&mut self, dest_label: usize, payload: &[u8]) {
        self.mailbox.post(Dest::Label(dest_label), payload);
    }

    /// Queues a message for the robot with visible identifier `dest`
    /// (identified systems).
    pub fn send_id(&mut self, dest: VisibleId, payload: &[u8]) {
        self.mailbox.post(Dest::Id(dest), payload);
    }

    /// Queues a broadcast to every robot (§5 one-to-all).
    pub fn send_broadcast(&mut self, payload: &[u8]) {
        self.mailbox.post(Dest::Broadcast, payload);
    }

    /// Messages addressed to this robot, in arrival order.
    #[must_use]
    pub fn inbox(&self) -> &[InboxEntry] {
        self.mailbox.streams().inbox()
    }

    /// Every message this robot decoded, including other pairs' traffic.
    #[must_use]
    pub fn overheard(&self) -> &[OverheardEntry] {
        self.mailbox.streams().overheard()
    }

    /// The preprocessed geometry (available after the first activation).
    #[must_use]
    pub fn geometry(&self) -> Option<&SwarmGeometry> {
        self.mailbox.geometry()
    }

    /// Whether all queued traffic has been put on the wire.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.mailbox.is_drained()
    }

    /// Signal moves made so far.
    #[must_use]
    pub fn signals_sent(&self) -> u64 {
        self.signals_sent
    }

    /// A preprocessing failure, if the initial configuration was degenerate
    /// (e.g. a robot at the SEC centre under [`SyncSwarm::anonymous`]).
    /// Such a robot stays put forever; sessions surface this error.
    #[must_use]
    pub fn init_error(&self) -> Option<&crate::CoreError> {
        self.mailbox.init_error()
    }

    fn decode_snapshot(&mut self, view: &View) {
        let Some((g, streams, peers)) = self.mailbox.decoding_view(view) else {
            return;
        };
        for &(_, classified) in peers {
            let Some((home, zone)) = classified else {
                continue;
            };
            if let SliceZone::OnSlice {
                slice,
                side,
                distance,
                deviation,
            } = zone
            {
                // Reject noise: a genuine signal is a substantial excursion
                // dead on a diameter.
                if distance > g.keyboard(home).radius() * 1e-6
                    && deviation <= g.keyboard(home).decode_tolerance()
                {
                    streams.on_signal(g, home, slice, side);
                }
            }
        }
    }
}

impl MovementProtocol for SyncSwarm {
    fn on_activate(&mut self, view: &View) -> Point {
        let c = self.counter;
        self.counter += 1;

        let Some(home) = self.mailbox.prepare(view).map(|g| g.home(0)) else {
            return view.own_position();
        };

        if c.is_multiple_of(2) {
            // Signal instant: put the next queued bit on the wire.
            let Some((slice, bit)) = self.mailbox.next_bit() else {
                return home; // silent
            };
            self.signals_sent += 1;
            let g = self.mailbox.geometry().expect("geometry initialized");
            let side = SliceSide::from_bit(bit.as_bool());
            g.keyboard(0)
                .target(slice, side, SIGNAL_FRACTION)
                .unwrap_or(home)
        } else {
            // Return instant: the snapshot shows everyone's signal
            // excursions — decode them, then go home.
            self.decode_snapshot(view);
            home
        }
    }
}

impl Chat for SyncSwarm {
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
        self.init_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_robots::{Capabilities, Engine};
    use stigmergy_scheduler::Synchronous;

    /// Builds an engine with `n` robots on a ring.
    fn ring_engine(
        n: usize,
        caps: Capabilities,
        proto: fn() -> SyncSwarm,
        seed: u64,
    ) -> Engine<SyncSwarm> {
        let positions: Vec<Point> = (0..n)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
                // Slightly irregular ring: no robot at the SEC centre, no
                // symmetric degeneracies.
                let r = 10.0 + (k as f64) * 0.1;
                Point::new(r * theta.sin(), r * theta.cos())
            })
            .collect();
        Engine::builder()
            .positions(positions)
            .protocols((0..n).map(|_| proto()))
            .capabilities(caps)
            .schedule(Synchronous)
            .frame_seed(seed)
            .build()
            .unwrap()
    }

    /// The label of engine robot `target` as seen by engine robot
    /// `sender`, computed from the sender's own geometry via home
    /// matching in world space.
    fn label_of(e: &Engine<SyncSwarm>, sender: usize, target: usize) -> usize {
        let g = e.protocol(sender).geometry().expect("preprocessed");
        let world_home = e.trace().initial()[target];
        let local_home = e.frames()[sender].to_local(world_home);
        let home_idx = (0..g.cohort())
            .find(|&h| g.home(h).approx_eq(local_home))
            .expect("home present");
        g.label_for(0, home_idx)
    }

    fn deliver(
        e: &mut Engine<SyncSwarm>,
        sender: usize,
        target: usize,
        payload: &[u8],
        max_steps: u64,
    ) {
        // One warm-up step so geometry exists for label computation.
        e.step().unwrap();
        let label = label_of(e, sender, target);
        e.protocol_mut(sender).send_label(label, payload);
        let out = e
            .run_until(max_steps, |e| {
                e.protocol(target)
                    .inbox()
                    .iter()
                    .any(|m| m.payload == payload)
            })
            .unwrap();
        assert!(out.satisfied, "message not delivered in {max_steps} steps");
    }

    #[test]
    fn anon_dir_delivery() {
        let mut e = ring_engine(
            5,
            Capabilities::anonymous_with_direction(),
            SyncSwarm::anonymous_with_direction,
            11,
        );
        deliver(&mut e, 0, 3, b"hello 3", 600);
    }

    #[test]
    fn routed_delivery_by_id() {
        let mut e = ring_engine(
            4,
            Capabilities::identified_with_direction(),
            SyncSwarm::routed,
            12,
        );
        e.step().unwrap();
        let target_id = e.ids().unwrap()[2];
        e.protocol_mut(0).send_id(target_id, b"for id");
        let out = e
            .run_until(600, |e| !e.protocol(2).inbox().is_empty())
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(2).inbox()[0].payload, b"for id");
    }

    #[test]
    fn chirality_only_delivery() {
        let mut e = ring_engine(6, Capabilities::anonymous(), SyncSwarm::anonymous, 13);
        deliver(&mut e, 1, 4, b"sec naming", 800);
    }

    #[test]
    fn chirality_only_with_wild_frames() {
        // Every robot's frame is rotated and scaled differently; SEC naming
        // must still route correctly.
        for seed in [100u64, 200, 300] {
            let mut e = ring_engine(5, Capabilities::anonymous(), SyncSwarm::anonymous, seed);
            deliver(&mut e, 2, 0, b"frame-proof", 800);
        }
    }

    #[test]
    fn concurrent_senders_do_not_interfere() {
        let mut e = ring_engine(
            4,
            Capabilities::anonymous_with_direction(),
            SyncSwarm::anonymous_with_direction,
            14,
        );
        e.step().unwrap();
        let l01 = label_of(&e, 0, 1);
        let l23 = label_of(&e, 2, 3);
        let l30 = label_of(&e, 3, 0);
        e.protocol_mut(0).send_label(l01, b"a->b");
        e.protocol_mut(2).send_label(l23, b"c->d");
        e.protocol_mut(3).send_label(l30, b"d->a");
        let out = e
            .run_until(800, |e| {
                !e.protocol(1).inbox().is_empty()
                    && !e.protocol(3).inbox().is_empty()
                    && !e.protocol(0).inbox().is_empty()
            })
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(1).inbox()[0].payload, b"a->b");
        assert_eq!(e.protocol(3).inbox()[0].payload, b"c->d");
        assert_eq!(e.protocol(0).inbox()[0].payload, b"d->a");
    }

    #[test]
    fn everyone_overhears_everything() {
        let mut e = ring_engine(
            4,
            Capabilities::anonymous_with_direction(),
            SyncSwarm::anonymous_with_direction,
            15,
        );
        deliver(&mut e, 0, 1, b"secret", 600);
        // Robots 2 and 3 decoded the message too (fault-tolerance by
        // redundancy).
        for observer in [2usize, 3] {
            let heard = e.protocol(observer).overheard();
            assert!(
                heard.iter().any(|m| m.payload == b"secret"),
                "robot {observer} missed the traffic"
            );
        }
    }

    #[test]
    fn broadcast_reaches_all() {
        let mut e = ring_engine(
            5,
            Capabilities::anonymous_with_direction(),
            SyncSwarm::anonymous_with_direction,
            16,
        );
        e.step().unwrap();
        e.protocol_mut(2).send_broadcast(b"to all");
        let out = e
            .run_until(800, |e| {
                (0..5)
                    .filter(|&i| i != 2)
                    .all(|i| e.protocol(i).inbox().iter().any(|m| m.payload == b"to all"))
            })
            .unwrap();
        assert!(out.satisfied, "broadcast not delivered to everyone");
    }

    #[test]
    fn silence_when_idle() {
        let mut e = ring_engine(
            4,
            Capabilities::anonymous_with_direction(),
            SyncSwarm::anonymous_with_direction,
            17,
        );
        e.run(40).unwrap();
        for i in 0..4 {
            assert_eq!(e.trace().path_length(i), 0.0, "robot {i} moved while idle");
        }
    }

    #[test]
    fn robots_stay_inside_granulars() {
        let mut e = ring_engine(
            5,
            Capabilities::anonymous_with_direction(),
            SyncSwarm::anonymous_with_direction,
            18,
        );
        e.step().unwrap();
        let label = label_of(&e, 0, 2);
        e.protocol_mut(0).send_label(label, &[0xAB, 0xCD, 0xEF]);
        let homes = e.trace().initial().to_vec();
        // Granular radii in world units = half nearest-neighbour distance.
        let radii: Vec<f64> = (0..5)
            .map(|i| {
                (0..5)
                    .filter(|&j| j != i)
                    .map(|j| homes[i].distance(homes[j]))
                    .fold(f64::INFINITY, f64::min)
                    / 2.0
            })
            .collect();
        for _ in 0..200 {
            e.step().unwrap();
            for i in 0..5 {
                let d = homes[i].distance(e.positions()[i]);
                assert!(d <= radii[i] + 1e-9, "robot {i} left its granular");
            }
        }
    }

    #[test]
    fn degenerate_sec_reports_init_error() {
        // A robot exactly at the SEC centre breaks the chirality-only
        // naming; the protocol must fail gracefully, not panic.
        let mut e = Engine::builder()
            .positions([
                Point::new(0.0, 5.0),
                Point::new(0.0, -5.0),
                Point::new(0.0, 0.0),
            ])
            .protocols((0..3).map(|_| SyncSwarm::anonymous()))
            .build()
            .unwrap();
        e.step().unwrap();
        assert!(e.protocol(2).init_error().is_some());
        assert!(e.protocol(2).geometry().is_none());
    }

    #[test]
    fn unresolvable_label_is_dropped_not_stuck() {
        // A label beyond the cohort is a caller bug; the protocol drops
        // it and later messages still flow.
        let mut e = ring_engine(
            3,
            Capabilities::anonymous_with_direction(),
            SyncSwarm::anonymous_with_direction,
            20,
        );
        e.step().unwrap();
        let good = label_of(&e, 0, 1);
        crate::decode::tests::unresolvable_label_is_dropped_not_stuck(
            &mut e,
            SyncSwarm::overheard,
            good,
            600,
        );
    }

    #[test]
    fn two_robot_swarm_degenerates_to_sync2_semantics() {
        let mut e = ring_engine(
            2,
            Capabilities::anonymous_with_direction(),
            SyncSwarm::anonymous_with_direction,
            19,
        );
        deliver(&mut e, 0, 1, b"pairwise", 600);
    }
}
