//! **stigmergy** — movement-signal communication for deaf, dumb robots.
//!
//! A faithful, executable reproduction of *Deaf, Dumb, and Chatting Robots:
//! Enabling Distributed Computation and Fault-Tolerance Among Stigmergic
//! Robots* (Dieudonné, Dolev, Petit, Segal — PODC 2009 brief announcement /
//! INRIA RR inria-00363081).
//!
//! Robots that can observe each other but have **no communication device**
//! exchange arbitrary messages by *moving*: a bit is a small excursion whose
//! direction encodes the value and whose granular slice encodes the
//! addressee. This crate implements all six protocols of the paper on top
//! of the [`stigmergy_robots`] SSM simulator:
//!
//! | Protocol | Paper § | Setting | Capabilities |
//! |----------|---------|---------|--------------|
//! | [`Sync2`](sync2::Sync2) | 3.1 | synchronous, n = 2 | chirality |
//! | [`SyncRouted`](sync_swarm::SyncRouted) | 3.2 | synchronous, n ≥ 2 | IDs + direction |
//! | [`SyncAnonDir`](sync_swarm::SyncAnonDir) | 3.3 | synchronous, n ≥ 2 | direction |
//! | [`SyncAnonChir`](sync_swarm::SyncAnonChir) | 3.4 | synchronous, n ≥ 2 | chirality only |
//! | [`Async2`](async2::Async2) | 4.1 | asynchronous, n = 2 | chirality |
//! | [`AsyncSwarm`](async_n::AsyncSwarm) | 4.2 | asynchronous, n ≥ 2 | chirality only |
//!
//! plus the §5 extensions: broadcast, `k`-segment addressing, byte-level
//! coding, flocking composition, and the wireless-failover backup channel.
//! The [`paced`] module adds multi-symbol signalling with forward error
//! correction — the byte optimisation re-derived so it survives
//! adversarial fair schedulers and lossy movement.
//!
//! Most applications use the [`session`] façade, which wires protocols,
//! frames, and schedulers together and exposes a message-passing API:
//!
//! ```
//! use stigmergy::session::SyncNetwork;
//! use stigmergy_geometry::Point;
//!
//! let mut net = SyncNetwork::anonymous_with_direction(
//!     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(5.0, 8.0)],
//!     42,
//! )?;
//! net.send(0, 2, b"hello")?;
//! net.run_until_delivered(10_000)?;
//! assert_eq!(net.inbox(2), vec![(0, b"hello".to_vec())]);
//! # Ok::<(), stigmergy::CoreError>(())
//! ```

pub mod ack;
pub mod async2;
pub mod async_n;
pub mod backup;
pub mod broadcast;
pub mod decode;
pub mod flocking;
pub mod kslice;
pub mod naming;
pub mod paced;
pub mod preprocess;
pub mod session;
pub mod stabilize;
pub mod sync2;
pub mod sync_swarm;

pub use naming::{
    election_signature, election_signatures, label_by_id, label_by_lex, label_by_sec,
    rotational_symmetries, Labeling, NamingError,
};
pub use preprocess::{NamingScheme, SwarmGeometry};

use std::error::Error;
use std::fmt;

/// Errors from protocol construction and sessions.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The protocol requires a different cohort size.
    WrongCohortSize {
        /// What the protocol needs.
        needed: &'static str,
        /// What was supplied.
        got: usize,
    },
    /// A destination index/label does not exist.
    UnknownDestination {
        /// The offending destination.
        dest: usize,
        /// Cohort size.
        cohort: usize,
    },
    /// A robot tried to send a message to itself.
    SelfAddressed,
    /// Naming failed (degenerate configuration).
    Naming(NamingError),
    /// The underlying model failed.
    Model(stigmergy_robots::ModelError),
    /// The underlying geometry failed.
    Geometry(stigmergy_geometry::GeometryError),
    /// A run exhausted its step budget before the goal was reached.
    Timeout {
        /// Steps executed.
        steps: u64,
    },
    /// A payload is longer than the protocol's frame carries.
    PayloadTooLarge {
        /// The offending payload length.
        len: usize,
        /// The longest payload the protocol frames.
        max: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::WrongCohortSize { needed, got } => {
                write!(f, "protocol needs {needed} robots, got {got}")
            }
            CoreError::UnknownDestination { dest, cohort } => {
                write!(f, "destination {dest} out of range for cohort {cohort}")
            }
            CoreError::SelfAddressed => write!(f, "a robot cannot message itself"),
            CoreError::Naming(e) => write!(f, "naming failed: {e}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Geometry(e) => write!(f, "geometry error: {e}"),
            CoreError::Timeout { steps } => {
                write!(f, "goal not reached within {steps} steps")
            }
            CoreError::PayloadTooLarge { len, max } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the {max}-byte frame maximum"
                )
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Naming(e) => Some(e),
            CoreError::Model(e) => Some(e),
            CoreError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NamingError> for CoreError {
    fn from(e: NamingError) -> Self {
        CoreError::Naming(e)
    }
}

impl From<stigmergy_robots::ModelError> for CoreError {
    fn from(e: stigmergy_robots::ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<stigmergy_geometry::GeometryError> for CoreError {
    fn from(e: stigmergy_geometry::GeometryError) -> Self {
        CoreError::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errors: Vec<CoreError> = vec![
            CoreError::WrongCohortSize {
                needed: "exactly 2",
                got: 5,
            },
            CoreError::UnknownDestination { dest: 9, cohort: 3 },
            CoreError::SelfAddressed,
            CoreError::Naming(NamingError::RobotAtSecCenter { robot: 0 }),
            CoreError::Timeout { steps: 100 },
            CoreError::Geometry(stigmergy_geometry::GeometryError::ZeroDirection),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn sources_chain() {
        let e: CoreError = NamingError::RobotAtSecCenter { robot: 1 }.into();
        assert!(Error::source(&e).is_some());
    }
}
