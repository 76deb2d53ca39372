//! Self-stabilization for the synchronous protocols (§5).
//!
//! "It seems that, in our case, stabilization can be achieved in the
//! synchronous case by carefully adapting the protocols proposed in
//! Section 3; say by assuming a global clock (using GPS input) returning
//! to the initial location and (re)computing the preprocessing phase every
//! round timestamp." — §5, *Stabilization*.
//!
//! [`StabilizingSync`] realizes that sketch. Time is divided into
//! **epochs** of `period` instants (the global clock comes from the
//! engine's `global_clock` option — the paper's GPS assumption). At every
//! epoch boundary each robot discards *all* volatile protocol state and
//! re-runs the `t0` preprocessing from the current configuration. A robot
//! whose memory was corrupted by a transient fault (the classic
//! self-stabilization fault model of Dolev's book, the paper's ref. 9)
//! simply idles until the next boundary and then rejoins — the system
//! converges to correct behaviour within one epoch of the last fault.
//!
//! Identity must survive faults, so the wrapper uses the observable-ID
//! naming (§3.2): applications address robots by [`VisibleId`], and a
//! message interrupted by an epoch boundary is retransmitted from its
//! first bit in the next epoch (the receiver's partial frame died with
//! the old epoch, so no duplicates arise).

use crate::sync_swarm::SyncSwarm;
use std::collections::VecDeque;
use stigmergy_geometry::Point;
use stigmergy_robots::{MovementProtocol, View, VisibleId};

/// Self-stabilizing wrapper over the identified synchronous protocol.
#[derive(Debug, Clone)]
pub struct StabilizingSync {
    period: u64,
    inner: SyncSwarm,
    epoch: Option<u64>,
    epochs_started: u64,
    queue: VecDeque<(VisibleId, Vec<u8>)>,
    current: Option<(VisibleId, Vec<u8>)>,
    harvested: usize,
    inbox: Vec<(VisibleId, Vec<u8>)>,
}

impl StabilizingSync {
    /// Creates a wrapper with the given epoch length (instants).
    ///
    /// # Panics
    ///
    /// Panics unless `period` is even and at least 4 (an epoch must hold
    /// at least one signal/return pair after the preprocessing instant,
    /// and boundaries must land on signal instants so every robot is at
    /// its home position when geometry is recomputed).
    #[must_use]
    pub fn new(period: u64) -> Self {
        assert!(
            period >= 4 && period.is_multiple_of(2),
            "epoch period must be even and ≥ 4"
        );
        Self {
            period,
            inner: SyncSwarm::routed(),
            epoch: None,
            epochs_started: 0,
            queue: VecDeque::new(),
            current: None,
            harvested: 0,
            inbox: Vec::new(),
        }
    }

    /// Queues a message for the robot with visible ID `dest`.
    ///
    /// # Panics
    ///
    /// Panics if the framed message cannot fit within one epoch
    /// (`2 × frame_bits + 2 > period`): such a message would be
    /// retransmitted forever.
    pub fn send_id(&mut self, dest: VisibleId, payload: &[u8]) {
        let frame_bits = 16 + 8 * payload.len() as u64;
        assert!(
            2 * frame_bits + 2 <= self.period,
            "message of {frame_bits} frame bits cannot complete within an epoch of {}",
            self.period
        );
        self.queue.push_back((dest, payload.to_vec()));
    }

    /// Messages received, as `(sender_id, payload)`, across all epochs.
    #[must_use]
    pub fn inbox(&self) -> &[(VisibleId, Vec<u8>)] {
        &self.inbox
    }

    /// Whether all queued traffic has been transmitted.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty() && self.current.is_none()
    }

    /// Moves newly decoded inner-inbox entries into the cross-epoch inbox,
    /// translating home indices to stable IDs.
    fn harvest(&mut self) {
        let Some(g) = self.inner.geometry() else {
            return;
        };
        for e in &self.inner.inbox()[self.harvested..] {
            if let Some(id) = g.id_of(e.sender) {
                self.inbox.push((id, e.payload.clone()));
            }
        }
        self.harvested = self.inner.inbox().len();
    }

    /// Starts a fresh epoch: harvest, reset volatile state, retransmit the
    /// interrupted message (if any).
    fn begin_epoch(&mut self, epoch: u64) {
        self.harvest();
        self.inner = SyncSwarm::routed();
        self.harvested = 0;
        self.epoch = Some(epoch);
        self.epochs_started += 1;
        if let Some((dest, payload)) = self.current.clone() {
            self.inner.send_id(dest, &payload);
        }
    }
}

impl MovementProtocol for StabilizingSync {
    fn on_activate(&mut self, view: &View) -> Point {
        // The stabilization scheme is defined only with the global clock
        // (the paper's GPS assumption); without it, stay safely put.
        let Some(t) = view.time() else {
            return view.own_position();
        };
        let epoch = t / self.period;
        if self.epoch != Some(epoch) {
            if t % self.period == 0 {
                self.begin_epoch(epoch);
            } else {
                // Mid-epoch recovery (e.g. right after a memory fault):
                // idle until the boundary so the rebuilt geometry is
                // computed from an all-home configuration.
                return view.own_position();
            }
        }

        // Message lifecycle: an in-flight message is done once the inner
        // protocol has put all its bits on the wire (in the synchronous
        // setting every sent bit is decoded on the following instant).
        if self.current.is_some() && self.inner.is_drained() {
            self.current = None;
        }
        if self.current.is_none() && self.inner.is_drained() {
            // Only start a message that can finish before the boundary.
            if let Some((dest, payload)) = self.queue.front() {
                let frame_bits = 16 + 8 * payload.len() as u64;
                let remaining = self.period - (t % self.period);
                if 2 * frame_bits + 2 <= remaining {
                    let (dest, payload) = (*dest, payload.clone());
                    self.queue.pop_front();
                    self.inner.send_id(dest, &payload);
                    self.current = Some((dest, payload));
                }
            }
        }

        let target = self.inner.on_activate(view);
        self.harvest();
        target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_robots::{Capabilities, Engine};
    use stigmergy_scheduler::Synchronous;

    fn ring(n: usize) -> Vec<Point> {
        (0..n)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
                let r = 20.0 + (k as f64) * 0.2;
                Point::new(r * theta.sin(), r * theta.cos())
            })
            .collect()
    }

    fn engine(n: usize, period: u64, seed: u64) -> Engine<StabilizingSync> {
        Engine::builder()
            .positions(ring(n))
            .protocols((0..n).map(|_| StabilizingSync::new(period)))
            .capabilities(Capabilities::identified_with_direction())
            .schedule(Synchronous)
            .global_clock()
            .frame_seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn basic_delivery_within_an_epoch() {
        let mut e = engine(4, 128, 1);
        let dest = e.ids().unwrap()[2];
        let me = e.ids().unwrap()[0];
        e.protocol_mut(0).send_id(dest, b"epoch");
        let out = e
            .run_until(2_000, |e| {
                e.protocol(2).inbox().contains(&(me, b"epoch".to_vec()))
            })
            .unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn interrupted_message_is_retransmitted_across_the_boundary() {
        // Period 64 holds only (64 − 2)/2 = 31 bits; an 8-bit payload is
        // a 24-bit frame = 48 instants + preprocessing. Queue it late in
        // the epoch so it cannot start until the next one.
        let mut e = engine(3, 64, 2);
        e.run(40).unwrap(); // deep into epoch 0
        let dest = e.ids().unwrap()[1];
        let me = e.ids().unwrap()[0];
        e.protocol_mut(0).send_id(dest, b"Z");
        let out = e
            .run_until(2_000, |e| {
                e.protocol(1).inbox().contains(&(me, b"Z".to_vec()))
            })
            .unwrap();
        assert!(out.satisfied);
        // It had to wait for epoch 1 (t ≥ 64) to even start.
        assert!(e.time() > 64);
    }

    #[test]
    fn memory_wipe_recovers_after_the_boundary() {
        let mut e = engine(4, 256, 3);
        e.run(10).unwrap();
        // Transient fault: robot 2 loses its entire volatile state
        // mid-epoch (Dolev-style memory corruption).
        *e.protocol_mut(2) = StabilizingSync::new(256);
        // It idles until the next boundary…
        e.run(5).unwrap();
        assert_eq!(e.trace().move_count(2), 0, "faulty robot must stay put");
        // Run past the boundary: the system has converged (the classic
        // self-stabilization guarantee covers behaviour *after* the last
        // fault's recovery, not messages sent while a robot is down).
        while e.time() < 256 {
            e.step().unwrap();
        }
        let dest = e.ids().unwrap()[2];
        let me = e.ids().unwrap()[0];
        e.protocol_mut(0).send_id(dest, b"recovered");
        let out = e
            .run_until(4_000, |e| {
                e.protocol(2).inbox().contains(&(me, b"recovered".to_vec()))
            })
            .unwrap();
        assert!(out.satisfied, "stabilization failed to recover");
        assert!(e.protocol(2).epochs_started >= 1);
    }

    #[test]
    fn plain_protocol_breaks_under_the_same_fault() {
        // The control experiment: wipe a plain SyncSwarm mid-run while a
        // sender is mid-excursion; the wiped robot rebuilds geometry from
        // a non-home snapshot and never decodes the retried message.
        use crate::sync_swarm::SyncSwarm;
        let mut e = Engine::builder()
            .positions(ring(4))
            .protocols((0..4).map(|_| SyncSwarm::routed()))
            .capabilities(Capabilities::identified_with_direction())
            .schedule(Synchronous)
            .frame_seed(4)
            .build()
            .unwrap();
        e.step().unwrap();
        let dest2 = e.ids().unwrap()[2];
        // Keep robot 0 transmitting so the snapshot at the wipe instant
        // has an out-of-home robot.
        e.protocol_mut(0).send_id(dest2, &[0xAA; 8]);
        e.run(10).unwrap(); // 11 instants done: the next activation is
                            // t = 11, whose snapshot shows robot 0 mid-excursion — the fresh
                            // instance rebuilds geometry from a non-home configuration AND
                            // starts with misaligned signal/return parity.
        *e.protocol_mut(3) = SyncSwarm::routed();
        // A later message to robot 3 (whose geometry is now corrupt).
        let dest3 = e.ids().unwrap()[3];
        e.protocol_mut(1).send_id(dest3, b"lost");
        let out = e
            .run_until(2_000, |e| {
                e.protocol(3).inbox().iter().any(|m| m.payload == b"lost")
            })
            .unwrap();
        assert!(
            !out.satisfied,
            "expected the unstabilized protocol to lose the message"
        );
    }

    #[test]
    fn repeated_faults_every_epoch_still_converge() {
        let mut e = engine(3, 256, 5);
        let dest = e.ids().unwrap()[1];
        let me = e.ids().unwrap()[2];
        // Fault robot 0 three times, then send from robot 2.
        for _ in 0..3 {
            e.run(100).unwrap();
            *e.protocol_mut(0) = StabilizingSync::new(256);
        }
        e.protocol_mut(2).send_id(dest, b"still here");
        let out = e
            .run_until(4_000, |e| {
                e.protocol(1)
                    .inbox()
                    .contains(&(me, b"still here".to_vec()))
            })
            .unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn positional_fault_self_heals_by_homing() {
        // The other §5 fault flavour: a robot knocked to a new position
        // (engine-level teleport). The paper's phrase "returning to the
        // initial location" is literal here: every activation of the
        // synchronous protocol targets the robot's recorded home, so the
        // displaced robot walks straight back and messaging continues
        // without even waiting for an epoch boundary.
        let mut e = engine(4, 256, 11);
        e.run(10).unwrap();
        let original = e.positions()[2];
        e.displace_robot(2, stigmergy_geometry::Vec2::new(5.0, 7.0))
            .unwrap();
        assert!(e.positions()[2].distance(original) > 8.0);
        e.run(4).unwrap();
        assert!(
            e.positions()[2].distance(original) < 1e-6,
            "robot must home back after a positional fault"
        );
        let dest = e.ids().unwrap()[2];
        let me = e.ids().unwrap()[1];
        e.protocol_mut(1).send_id(dest, b"new home");
        let out = e
            .run_until(4_000, |e| {
                e.protocol(2).inbox().contains(&(me, b"new home".to_vec()))
            })
            .unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn without_global_clock_robots_stay_safe() {
        let mut e = Engine::builder()
            .positions(ring(3))
            .protocols((0..3).map(|_| StabilizingSync::new(64)))
            .capabilities(Capabilities::identified_with_direction())
            .schedule(Synchronous)
            .frame_seed(6)
            .build()
            .unwrap();
        let dest = e.ids().unwrap()[1];
        e.protocol_mut(0).send_id(dest, b"x");
        e.run(100).unwrap();
        // No clock ⇒ no epochs ⇒ nobody ever moves (safe no-op).
        for i in 0..3 {
            assert_eq!(e.trace().move_count(i), 0);
        }
        assert_eq!(e.protocol(0).epochs_started, 0);
    }

    #[test]
    fn many_messages_across_many_epochs() {
        let mut e = engine(3, 64, 7);
        let ids: Vec<VisibleId> = e.ids().unwrap().to_vec();
        for k in 0..6u8 {
            e.protocol_mut(0).send_id(ids[1], &[k]);
        }
        let me = ids[0];
        let out = e
            .run_until(10_000, |e| e.protocol(1).inbox().len() >= 6)
            .unwrap();
        assert!(out.satisfied);
        // In order, all from robot 0.
        let got: Vec<(VisibleId, Vec<u8>)> = e.protocol(1).inbox().to_vec();
        for (k, (sender, payload)) in got.iter().enumerate().take(6) {
            assert_eq!(*sender, me);
            assert_eq!(payload, &vec![k as u8]);
        }
        // The run definitely crossed epoch boundaries.
        assert!(e.protocol(0).epochs_started >= 2);
    }

    #[test]
    #[should_panic(expected = "even and ≥ 4")]
    fn odd_period_rejected() {
        let _ = StabilizingSync::new(7);
    }

    #[test]
    #[should_panic(expected = "cannot complete within an epoch")]
    fn oversized_message_rejected() {
        let mut s = StabilizingSync::new(16);
        s.send_id(VisibleId::new(1), &[0u8; 100]);
    }
}
