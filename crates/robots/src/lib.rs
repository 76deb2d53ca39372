//! The Semi-Synchronous Model (SSM) robot simulator.
//!
//! This crate is the "hardware" of the reproduction: it simulates the exact
//! model of *Deaf, Dumb, and Chatting Robots* — `n` autonomous robots,
//! viewed as points in the Euclidean plane, each with a **private
//! coordinate system** (own origin, own unit of measure, own axis
//! orientation) but **shared chirality** (common handedness). Robots are
//! **non-oblivious**: a protocol instance persists across activations and
//! may remember anything it observed.
//!
//! At each time instant, an activation [`Schedule`](stigmergy_scheduler::Schedule)
//! picks the active robots. Every active robot receives a [`View`] — the
//! instantaneous configuration expressed in *its own frame* — and returns a
//! destination point; the engine applies all moves simultaneously, capping
//! each robot's travel by its `σ` bound, exactly as in the paper's model.
//!
//! Information flows **only** through views: a protocol never sees world
//! coordinates, the time index, other robots' internal state, or stable
//! robot indices (views are sorted by local coordinates, so any identity a
//! protocol needs must be *derived*, e.g. from granular membership — which
//! is precisely what the paper's protocols do).
//!
//! # Examples
//!
//! A "protocol" where every robot walks North in its own frame:
//!
//! ```
//! use stigmergy_geometry::{Point, Vec2};
//! use stigmergy_robots::{Engine, MovementProtocol, View};
//! use stigmergy_scheduler::Synchronous;
//!
//! struct NorthWalker;
//! impl MovementProtocol for NorthWalker {
//!     fn on_activate(&mut self, view: &View) -> Point {
//!         view.own_position() + Vec2::NORTH * 0.5
//!     }
//! }
//!
//! let mut engine = Engine::builder()
//!     .positions([Point::new(0.0, 0.0), Point::new(5.0, 0.0)])
//!     .protocols([NorthWalker, NorthWalker])
//!     .schedule(Synchronous)
//!     .build()?;
//! engine.step()?;
//! # Ok::<(), stigmergy_robots::ModelError>(())
//! ```

pub mod capabilities;
pub mod corda;
pub mod engine;
pub mod frame;
pub mod identity;
pub mod protocol;
pub mod trace;
pub mod view;

pub use capabilities::Capabilities;
pub use corda::CordaEngine;
pub use engine::{Engine, EngineBuilder, EngineStats, RunOutcome, StepReport, TraceObserver};
pub use frame::{FrameGenerator, LocalFrame};
pub use identity::VisibleId;
pub use protocol::MovementProtocol;
pub use trace::{FaultEvent, StepRecord, Trace, TraceEvent};
pub use view::{Observed, View};

use std::error::Error;
use std::fmt;

/// Errors from building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// The builder was missing a required component.
    IncompleteBuilder {
        /// Which component is missing.
        missing: &'static str,
    },
    /// Mismatched cardinalities (positions vs protocols vs ids …).
    CardinalityMismatch {
        /// What was mismatched.
        what: &'static str,
        /// Expected count.
        expected: usize,
        /// Actual count.
        got: usize,
    },
    /// Two robots were placed at (nearly) the same position.
    CoincidentRobots {
        /// First robot index.
        first: usize,
        /// Second robot index.
        second: usize,
    },
    /// A collision occurred during simulation — two robots (nearly) met.
    Collision {
        /// Time instant of the collision.
        time: u64,
        /// First robot index.
        first: usize,
        /// Second robot index.
        second: usize,
        /// Their distance.
        distance: f64,
    },
    /// A non-positive motion cap `σ` was supplied.
    NonPositiveSigma,
    /// A geometric construction failed (degenerate configuration).
    Geometry(stigmergy_geometry::GeometryError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::IncompleteBuilder { missing } => {
                write!(f, "engine builder is missing {missing}")
            }
            ModelError::CardinalityMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected}, got {got}"),
            ModelError::CoincidentRobots { first, second } => {
                write!(f, "robots {first} and {second} start at the same position")
            }
            ModelError::Collision {
                time,
                first,
                second,
                distance,
            } => write!(
                f,
                "collision at t={time}: robots {first} and {second} at distance {distance:e}"
            ),
            ModelError::NonPositiveSigma => write!(f, "the motion cap is not positive"),
            ModelError::Geometry(e) => write!(f, "geometry error: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stigmergy_geometry::GeometryError> for ModelError {
    fn from(e: stigmergy_geometry::GeometryError) -> Self {
        ModelError::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errors = [
            ModelError::IncompleteBuilder {
                missing: "positions",
            },
            ModelError::CardinalityMismatch {
                what: "protocols",
                expected: 3,
                got: 2,
            },
            ModelError::CoincidentRobots {
                first: 0,
                second: 1,
            },
            ModelError::Collision {
                time: 4,
                first: 1,
                second: 2,
                distance: 1e-12,
            },
            ModelError::NonPositiveSigma,
            ModelError::Geometry(stigmergy_geometry::GeometryError::ZeroDirection),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn geometry_error_has_source() {
        let e = ModelError::Geometry(stigmergy_geometry::GeometryError::NonPositiveRadius);
        assert!(Error::source(&e).is_some());
    }
}
