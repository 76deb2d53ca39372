//! A CORDA-style engine: Look, Compute, and Move as decoupled phases.
//!
//! §5 of the paper asks whether its protocols survive "a fully
//! asynchronous model (e.g., CORDA)". In CORDA a robot's cycle is
//! Look → Compute → Move with **arbitrary delays between the phases**: a
//! robot may move long after the observation its move was computed from,
//! and other robots move in between. The SSM collapses all three into one
//! instant.
//!
//! [`CordaEngine`] runs the same [`MovementProtocol`]s under that weaker
//! model: at a robot's Look instant it receives a view and computes its
//! target; the move is applied `delay` instants later, where `delay` is
//! drawn per cycle from `0..=max_delay`. With `max_delay = 0` the engine
//! coincides with the SSM's semi-synchronous step, so the parameter
//! interpolates between the two models — which is exactly what experiment
//! E14 sweeps to show *where* the implicit-acknowledgement machinery of
//! §4 stops being sound.

use crate::frame::{FrameGenerator, LocalFrame};
use crate::protocol::MovementProtocol;
use crate::trace::{StepRecord, Trace};
use crate::view::{Observed, View};
use crate::ModelError;
use stigmergy_geometry::Point;
use stigmergy_scheduler::rng::SplitMix64;
use stigmergy_scheduler::ActivationSet;

/// A pending Move: the world target computed at the last Look, due at
/// `due` (inclusive).
#[derive(Debug, Clone, Copy)]
struct PendingMove {
    due: u64,
    target: Point,
}

/// The CORDA engine. Deliberately minimal compared to
/// [`Engine`](crate::Engine): anonymous cohorts, uniform σ, seeded phase
/// delays — enough to study the §5 open problem.
#[derive(Debug)]
pub struct CordaEngine<P> {
    positions: Vec<Point>,
    frames: Vec<LocalFrame>,
    protocols: Vec<P>,
    speed: f64,
    max_delay: u64,
    rng: SplitMix64,
    pending: Vec<Option<PendingMove>>,
    trace: Trace,
    time: u64,
}

impl<P: MovementProtocol> CordaEngine<P> {
    /// Builds a CORDA engine over the given robots.
    ///
    /// Every robot Looks as soon as it has no pending Move (maximal
    /// concurrency — the hardest case), and each cycle's Move lands
    /// `0..=max_delay` instants after its Look.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CoincidentRobots`] for coincident starting
    /// positions or [`ModelError::CardinalityMismatch`] for mismatched
    /// inputs.
    pub fn new(
        positions: Vec<Point>,
        protocols: Vec<P>,
        max_delay: u64,
        seed: u64,
    ) -> Result<Self, ModelError> {
        Self::with_speed(positions, protocols, max_delay, f64::INFINITY, seed)
    }

    /// As [`CordaEngine::new`], additionally making movement
    /// **interruptible**: a Move executes at most `speed` world units per
    /// instant, so robots are observable mid-move — the full CORDA
    /// weakening ("a robot may be seen while moving").
    ///
    /// # Errors
    ///
    /// As [`CordaEngine::new`]; additionally rejects a non-positive speed
    /// via [`ModelError::NonPositiveSigma`].
    pub fn with_speed(
        positions: Vec<Point>,
        protocols: Vec<P>,
        max_delay: u64,
        speed: f64,
        seed: u64,
    ) -> Result<Self, ModelError> {
        if speed.is_nan() || speed <= 0.0 {
            return Err(ModelError::NonPositiveSigma);
        }
        if protocols.len() != positions.len() {
            return Err(ModelError::CardinalityMismatch {
                what: "protocols",
                expected: positions.len(),
                got: protocols.len(),
            });
        }
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if positions[i].distance(positions[j]) < 1e-9 {
                    return Err(ModelError::CoincidentRobots {
                        first: i,
                        second: j,
                    });
                }
            }
        }
        let frames = FrameGenerator::new(seed, false).frames(&positions);
        let trace = Trace::new(positions.clone());
        let n = positions.len();
        Ok(Self {
            positions,
            frames,
            protocols,
            speed,
            max_delay,
            rng: SplitMix64::new(seed ^ 0xC0DA),
            pending: vec![None; n],
            trace,
            time: 0,
        })
    }

    /// Executes one instant: due Moves are applied, then every robot
    /// without a pending Move Looks and computes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Collision`] if two robots (nearly) meet.
    pub fn step(&mut self) -> Result<(), ModelError> {
        let n = self.positions.len();
        let mut active = ActivationSet::empty(n);

        // Move phase: advance all due moves (computed from old looks) by
        // at most `speed`; a slow robot stays observable mid-move and its
        // cycle ends only when the target is reached.
        for i in 0..n {
            if let Some(m) = self.pending[i] {
                if m.due <= self.time {
                    let from = self.positions[i];
                    let d = from.distance(m.target);
                    if d <= self.speed {
                        self.positions[i] = m.target;
                        self.pending[i] = None;
                    } else {
                        self.positions[i] = from.lerp(m.target, self.speed / d);
                    }
                    active.insert(i);
                }
            }
        }

        // Look phase: everyone idle observes the *current* configuration
        // and commits to a future move.
        let snapshot = self.positions.clone();
        for i in 0..n {
            if self.pending[i].is_some() {
                continue;
            }
            let view = self.view_of(i, &snapshot);
            let local_target = self.protocols[i].on_activate(&view);
            let world_target = self.frames[i].to_world(local_target);
            let delay = if self.max_delay == 0 {
                0
            } else {
                self.rng.below(self.max_delay as usize + 1) as u64
            };
            if delay == 0 && self.positions[i].distance(world_target) <= self.speed {
                // Look + complete Move in the same instant: the SSM case.
                self.positions[i] = world_target;
                active.insert(i);
            } else {
                self.pending[i] = Some(PendingMove {
                    due: self.time + delay.max(1),
                    target: world_target,
                });
            }
        }

        self.trace.record(StepRecord {
            time: self.time,
            active,
            positions: self.positions.clone(),
        });
        self.time += 1;

        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.positions[i].distance(self.positions[j]);
                if d < 1e-9 {
                    return Err(ModelError::Collision {
                        time: self.time - 1,
                        first: i,
                        second: j,
                        distance: d,
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs until `predicate` holds or `max_steps` elapse; returns whether
    /// it held.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CordaEngine::step`] error.
    pub fn run_until<F>(&mut self, max_steps: u64, mut predicate: F) -> Result<bool, ModelError>
    where
        F: FnMut(&Self) -> bool,
    {
        for _ in 0..max_steps {
            self.step()?;
            if predicate(self) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn view_of(&self, i: usize, snapshot: &[Point]) -> View {
        let frame = &self.frames[i];
        let own = Observed {
            position: frame.to_local(snapshot[i]),
            id: None,
        };
        let others = snapshot
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &p)| Observed {
                position: frame.to_local(p),
                id: None,
            })
            .collect();
        View::new(own, others, frame.len_to_local(1.0e6))
    }

    /// Current world positions.
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The protocol instance of robot `i`.
    #[must_use]
    pub fn protocol(&self, i: usize) -> &P {
        &self.protocols[i]
    }

    /// Mutable access to robot `i`'s protocol instance.
    pub fn protocol_mut(&mut self, i: usize) -> &mut P {
        &mut self.protocols[i]
    }

    /// The recorded trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Instants executed so far.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_geometry::Vec2;

    struct NorthWalker;
    impl MovementProtocol for NorthWalker {
        fn on_activate(&mut self, view: &View) -> Point {
            view.own_position() + Vec2::NORTH * 1.0
        }
    }

    #[test]
    fn zero_delay_moves_every_instant() {
        let mut e = CordaEngine::new(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            vec![NorthWalker, NorthWalker],
            0,
            1,
        )
        .unwrap();
        for _ in 0..5 {
            e.step().unwrap();
        }
        // With delay 0, every robot moves at every instant (the SSM case).
        assert_eq!(e.trace().move_count(0), 5);
        assert_eq!(e.trace().move_count(1), 5);
    }

    #[test]
    fn delayed_moves_land_late_but_land() {
        let mut e = CordaEngine::new(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            vec![NorthWalker, NorthWalker],
            6,
            2,
        )
        .unwrap();
        for _ in 0..60 {
            e.step().unwrap();
        }
        // Far fewer moves than instants, but steady progress.
        let moves = e.trace().move_count(0);
        assert!(moves >= 5, "made only {moves} moves");
        assert!(e.positions()[0].distance(Point::new(0.0, 0.0)) > 3.0);
    }

    #[test]
    fn validation() {
        assert!(matches!(
            CordaEngine::new(
                vec![Point::ORIGIN, Point::ORIGIN],
                vec![NorthWalker, NorthWalker],
                0,
                0
            ),
            Err(ModelError::CoincidentRobots { .. })
        ));
        assert!(matches!(
            CordaEngine::new(vec![Point::ORIGIN], Vec::<NorthWalker>::new(), 0, 0),
            Err(ModelError::CardinalityMismatch { .. })
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut e = CordaEngine::new(
                vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
                vec![NorthWalker, NorthWalker],
                4,
                seed,
            )
            .unwrap();
            for _ in 0..30 {
                e.step().unwrap();
            }
            format!("{:?}", e.positions())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn run_until_works() {
        let mut e = CordaEngine::new(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            vec![NorthWalker, NorthWalker],
            2,
            3,
        )
        .unwrap();
        let hit = e.run_until(200, |e| e.positions()[0].y >= 5.0).unwrap();
        assert!(hit);
    }
}
