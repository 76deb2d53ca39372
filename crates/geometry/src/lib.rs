//! Planar computational geometry substrate for the `stigmergy` workspace.
//!
//! The protocols of *Deaf, Dumb, and Chatting Robots* (Dieudonné, Dolev,
//! Petit, Segal — PODC 2009) rest on a handful of geometric constructions
//! performed by every robot at time `t0`:
//!
//! * the **Voronoi diagram** of the robot positions (collision avoidance),
//! * each robot's **granular** — the largest disc centred on the robot and
//!   enclosed in its Voronoi cell — sliced into labelled diameters that act
//!   as a movement "keyboard",
//! * the **smallest enclosing circle** (SEC) of the positions, used by the
//!   chirality-only naming mechanism.
//!
//! This crate implements those constructions from scratch, plus the vector,
//! line and circle primitives they need. All computations use `f64` with the
//! explicit tolerance predicates of [`approx`]; the paper assumes infinite
//! precision, and the tolerances are documented wherever they matter.
//!
//! # Examples
//!
//! Computing a granular keyboard for a small swarm:
//!
//! ```
//! use stigmergy_geometry::{Point, voronoi::granular_radius, granular::SlicedGranular};
//!
//! let sites = [Point::new(0.0, 0.0), Point::new(4.0, 0.0), Point::new(0.0, 4.0)];
//! let radius = granular_radius(&sites, 0).unwrap();
//! assert_eq!(radius, 2.0);
//! let keyboard = SlicedGranular::new(sites[0], radius, 3).unwrap();
//! assert_eq!(keyboard.slice_count(), 3);
//! ```

pub mod angle;
pub mod approx;
pub mod circle;
#[cfg(test)]
mod exactness;
pub mod granular;
pub mod hull;
pub mod line;
pub mod point;
pub mod sec;
pub mod voronoi;

pub use angle::Angle;
pub use approx::{approx_eq, approx_zero, Tolerance};
pub use circle::Circle;
pub use granular::SlicedGranular;
pub use line::{HalfPlane, Line};
pub use point::{Point, Rotation, Vec2};
pub use sec::smallest_enclosing_circle;

use std::error::Error;
use std::fmt;

/// Errors produced by geometric constructions.
///
/// Degenerate inputs the paper implicitly excludes (coincident robots, empty
/// point sets, a robot exactly at the SEC centre) surface here as typed
/// errors rather than panics, so the simulator can reject bad configurations
/// up front.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeometryError {
    /// The operation needs at least this many distinct points.
    TooFewPoints {
        /// How many points the operation requires.
        needed: usize,
        /// How many points were supplied.
        got: usize,
    },
    /// Two supposedly distinct sites coincide (within tolerance).
    CoincidentPoints {
        /// Index of the first coincident site.
        first: usize,
        /// Index of the second coincident site.
        second: usize,
    },
    /// A radius that must be strictly positive was zero or negative.
    NonPositiveRadius,
    /// An index referred to a site outside the supplied set.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The size of the set.
        len: usize,
    },
    /// A direction vector had (near-)zero length where a unit direction is
    /// required.
    ZeroDirection,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::TooFewPoints { needed, got } => {
                write!(f, "operation needs at least {needed} points, got {got}")
            }
            GeometryError::CoincidentPoints { first, second } => {
                write!(f, "sites {first} and {second} coincide")
            }
            GeometryError::NonPositiveRadius => write!(f, "radius must be strictly positive"),
            GeometryError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for {len} sites")
            }
            GeometryError::ZeroDirection => write!(f, "direction vector has zero length"),
        }
    }
}

impl Error for GeometryError {}

/// A seeded stream of uniform draws in `[0, 1)`, for the sweep tests
/// that compare cached values with the expressions they replace.
#[cfg(test)]
pub(crate) fn uniform_draws(seed: u64) -> impl Iterator<Item = f64> {
    let mut state = seed;
    std::iter::repeat_with(move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            GeometryError::TooFewPoints { needed: 2, got: 0 },
            GeometryError::CoincidentPoints {
                first: 0,
                second: 1,
            },
            GeometryError::NonPositiveRadius,
            GeometryError::IndexOutOfRange { index: 5, len: 3 },
            GeometryError::ZeroDirection,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
            assert!(!format!("{e:?}").is_empty());
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeometryError>();
    }
}
