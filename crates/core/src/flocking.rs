//! Flocking composition (§5).
//!
//! "The robots may decide to flock in a certain direction, subtracting the
//! agreed upon global flocking movement in order to preserve the relative
//! movements used for communication." [`Flocking`] realizes that remark as
//! a protocol combinator: the whole swarm translates by a common velocity
//! `v` per instant while chatting. Before delegating to the inner
//! protocol, the wrapper shifts the observed configuration back by the
//! accumulated flock displacement — the inner protocol sees a stationary
//! swarm — and then adds the next instant's displacement to the returned
//! target.
//!
//! The composition is *synchronous-only*: the displacement is `t·v`, and
//! counting instants requires being active at every one of them.

use stigmergy_geometry::{Point, Vec2};
use stigmergy_robots::{MovementProtocol, View};

/// A synchronous protocol riding a flocking swarm.
///
/// The engine's motion cap must leave headroom for the drift: every
/// instant's move is `excursion + v`, and a σ-truncated move would fall
/// behind the agreed drift and silently corrupt decoding (debug builds
/// assert `|v| < σ`).
#[derive(Debug, Clone)]
pub struct Flocking<P> {
    inner: P,
    velocity: Vec2,
    instants: u64,
}

impl<P> Flocking<P> {
    /// Wraps `inner` with a per-instant flocking velocity, expressed in
    /// **this robot's local frame** (the swarm agrees on a world velocity;
    /// each robot knows it in its own coordinates).
    #[must_use]
    pub fn new(inner: P, velocity: Vec2) -> Self {
        Self {
            inner,
            velocity,
            instants: 0,
        }
    }

    /// The wrapped protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped protocol (to queue messages).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// The flocking velocity (local units per instant).
    #[must_use]
    pub fn velocity(&self) -> Vec2 {
        self.velocity
    }

    /// Instants elapsed so far.
    #[must_use]
    pub fn instants(&self) -> u64 {
        self.instants
    }
}

impl<P: MovementProtocol> MovementProtocol for Flocking<P> {
    fn on_activate(&mut self, view: &View) -> Point {
        // The composition is only sound if the σ cap can never truncate a
        // combined flock+excursion move: a truncated move would leave the
        // robot behind the agreed drift and desynchronize every decoder.
        // The engine's σ reaches us through the view (local units).
        debug_assert!(
            self.velocity.norm() < view.sigma(),
            "flocking velocity {} must stay below σ {} (excursions add more)",
            self.velocity.norm(),
            view.sigma()
        );
        // The swarm has drifted `instants·v` so far; normalize it away.
        let drift = self.velocity * (self.instants as f64);
        let normalized = view.translated(-drift);
        let target = self.inner.on_activate(&normalized);
        self.instants += 1;
        // Re-apply the drift, plus this instant's flocking move.
        target + self.velocity * (self.instants as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync2::Sync2;
    use crate::sync_swarm::SyncSwarm;
    use stigmergy_robots::{Capabilities, Engine};
    use stigmergy_scheduler::Synchronous;

    #[test]
    fn flocking_sync2_chat_while_moving() {
        // Identity frames: both robots share the world velocity directly.
        let v = Vec2::new(0.3, 0.1);
        let mut e = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
            .protocols([
                Flocking::new(Sync2::new(), v),
                Flocking::new(Sync2::new(), v),
            ])
            .unit_frames()
            .schedule(Synchronous)
            .build()
            .unwrap();
        e.protocol_mut(0).inner_mut().send(b"on the move");
        let out = e
            .run_until(600, |e| !e.protocol(1).inner().inbox().is_empty())
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(1).inner().inbox()[0], b"on the move".to_vec());
        // The swarm genuinely travelled.
        let t = e.trace().len() as f64;
        let expected = Point::new(0.0, 0.0) + v * t;
        assert!(
            e.positions()[0].distance(expected) < 1e-6,
            "robot 0 at {}, expected {expected}",
            e.positions()[0]
        );
    }

    #[test]
    fn flocking_swarm_delivery() {
        let v = Vec2::new(0.05, -0.02);
        let positions = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 8.0),
        ];
        let mut e = Engine::builder()
            .positions(positions)
            .protocols((0..3).map(|_| Flocking::new(SyncSwarm::anonymous_with_direction(), v)))
            .capabilities(Capabilities::anonymous_with_direction())
            .unit_frames()
            .schedule(Synchronous)
            .build()
            .unwrap();
        // Warm-up so geometry exists; then address robot 2 by its label.
        e.step().unwrap();
        let g = e.protocol(0).inner().geometry().unwrap().clone();
        // Home of world robot 2 in robot 0's (identity) frame is its
        // initial position.
        let home2 = (0..3).find(|&h| g.home(h).approx_eq(positions[2])).unwrap();
        let label = g.label_for(0, home2);
        e.protocol_mut(0).inner_mut().send_label(label, b"flock");
        let out = e
            .run_until(2_000, |e| {
                e.protocol(2)
                    .inner()
                    .inbox()
                    .iter()
                    .any(|m| m.payload == b"flock")
            })
            .unwrap();
        assert!(out.satisfied);
        // And the whole swarm drifted together.
        let t = e.trace().len() as f64;
        for (i, &p0) in positions.iter().enumerate() {
            assert!(
                e.positions()[i].distance(p0 + v * t) < 1e-6,
                "robot {i} strayed"
            );
        }
    }

    #[test]
    fn zero_velocity_is_transparent() {
        let mut plain = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
            .protocols([Sync2::new(), Sync2::new()])
            .unit_frames()
            .build()
            .unwrap();
        let mut flocked = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
            .protocols([
                Flocking::new(Sync2::new(), Vec2::ZERO),
                Flocking::new(Sync2::new(), Vec2::ZERO),
            ])
            .unit_frames()
            .build()
            .unwrap();
        plain.protocol_mut(0).send(b"same");
        flocked.protocol_mut(0).inner_mut().send(b"same");
        for _ in 0..100 {
            plain.step().unwrap();
            flocked.step().unwrap();
            assert_eq!(plain.positions(), flocked.positions());
        }
        assert_eq!(
            plain.protocol(1).inbox(),
            flocked.protocol(1).inner().inbox()
        );
    }

    #[test]
    fn flocking_under_rotated_private_frames() {
        // The swarm agrees on a WORLD velocity; each robot expresses it in
        // its own frame. Frames are deterministic per seed, so a probe
        // engine reveals them first.
        let world_v = Vec2::new(0.04, -0.03);
        let positions = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 8.0),
        ];
        let seed = 77u64;
        // Chirality-only: frames carry arbitrary rotations AND scales.
        let probe = Engine::builder()
            .positions(positions)
            .protocols((0..3).map(|_| Flocking::new(SyncSwarm::anonymous(), Vec2::ZERO)))
            .capabilities(Capabilities::anonymous())
            .frame_seed(seed)
            .build()
            .unwrap();
        assert!(
            probe.frames().iter().any(|f| f.rotation().abs() > 0.1),
            "frames should be genuinely rotated"
        );
        let local_vs: Vec<Vec2> = probe
            .frames()
            .iter()
            .map(|f| f.dir_to_local(world_v))
            .collect();
        let mut e = Engine::builder()
            .positions(positions)
            .protocols(
                local_vs
                    .iter()
                    .map(|&v| Flocking::new(SyncSwarm::anonymous(), v)),
            )
            .capabilities(Capabilities::anonymous())
            .frame_seed(seed)
            .build()
            .unwrap();
        e.step().unwrap();
        // Robot 2's label under the sender's SEC naming, from world homes.
        let label = crate::label_by_sec(e.trace().initial(), 0)
            .unwrap()
            .label_of(2)
            .unwrap();
        e.protocol_mut(0).inner_mut().send_label(label, b"rotated");
        let out = e
            .run_until(2_000, |e| {
                e.protocol(2)
                    .inner()
                    .inbox()
                    .iter()
                    .any(|m| m.payload == b"rotated")
            })
            .unwrap();
        assert!(out.satisfied);
        // The swarm drifted along the WORLD velocity despite every robot
        // computing in its own frame.
        let t = e.trace().len() as f64;
        for (i, &p0) in positions.iter().enumerate() {
            let ideal = p0 + world_v * t;
            assert!(
                e.positions()[i].distance(ideal) < 1e-6,
                "robot {i} strayed by {}",
                e.positions()[i].distance(ideal)
            );
        }
    }

    #[test]
    fn accessors() {
        let f = Flocking::new(Sync2::new(), Vec2::new(1.0, 0.0));
        assert_eq!(f.velocity(), Vec2::new(1.0, 0.0));
        assert_eq!(f.instants(), 0);
        assert!(f.inner().inbox().is_empty());
    }
}
