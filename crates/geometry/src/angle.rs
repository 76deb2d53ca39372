//! Angles and clockwise ordering.
//!
//! The granular "keyboard" (Fig. 2 of the paper) labels diameters clockwise
//! from a reference direction, and the chirality-only naming (Fig. 4) ranks
//! robots by a clockwise radial sweep. Both need a well-defined *clockwise
//! angle from a reference vector*, which is what [`Angle`] provides.

use crate::point::Vec2;
use crate::GeometryError;
use std::f64::consts::TAU;
use std::fmt;

/// An angle normalized to `[0, 2π)`.
///
/// Stored in radians. Ordering is the numeric ordering of the normalized
/// value, which corresponds to *clockwise* sweep order when angles are
/// produced by [`Angle::clockwise_from`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Angle(f64);

impl Angle {
    /// The zero angle.
    pub const ZERO: Angle = Angle(0.0);

    /// Creates an angle from radians, normalizing into `[0, 2π)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use stigmergy_geometry::Angle;
    /// use std::f64::consts::{PI, TAU};
    /// assert!((Angle::from_radians(-PI).radians() - PI).abs() < 1e-12);
    /// assert_eq!(Angle::from_radians(TAU).radians(), 0.0);
    /// ```
    #[must_use]
    pub fn from_radians(radians: f64) -> Self {
        // `fmod` is exact, and returns its argument unchanged when that
        // is already shorter than the modulus (signed zeros included).
        let mut r = if radians.abs() < TAU {
            radians
        } else {
            radians % TAU
        };
        if r < 0.0 {
            r += TAU;
        }
        // `r` can still round to TAU itself when `radians` is a tiny
        // negative number; fold that back to zero.
        if r >= TAU {
            r = 0.0;
        }
        Angle(r)
    }

    /// The normalized value in radians, in `[0, 2π)`.
    #[must_use]
    pub fn radians(self) -> f64 {
        self.0
    }

    /// The clockwise angle swept from `reference` to `v`, in `[0, 2π)`.
    ///
    /// With shared chirality every robot computes the same value regardless
    /// of its private axis orientation, which is why the paper can label
    /// slices and rank robots "in the clockwise direction".
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::ZeroDirection`] when either vector has
    /// (near-)zero length.
    pub fn clockwise_from(reference: Vec2, v: Vec2) -> Result<Self, GeometryError> {
        let r = reference.normalized()?;
        let u = v.normalized()?;
        Ok(Angle::clockwise_between_units(r, u))
    }

    /// [`Angle::clockwise_from`] for two vectors that are already the
    /// results of [`Vec2::normalized`].
    pub(crate) fn clockwise_between_units(r: Vec2, u: Vec2) -> Self {
        // Counter-clockwise angle from r to u is atan2(cross, dot); clockwise
        // is its negation.
        let ccw = r.cross(u).atan2(r.dot(u));
        Angle::from_radians(-ccw)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}rad", self.0)
    }
}

impl From<Angle> for f64 {
    fn from(a: Angle) -> f64 {
        a.radians()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn normalization_into_range() {
        assert_eq!(Angle::from_radians(0.0).radians(), 0.0);
        assert!(crate::approx_eq(
            Angle::from_radians(-FRAC_PI_2).radians(),
            1.5 * PI
        ));
        assert!(crate::approx_eq(
            Angle::from_radians(3.0 * PI).radians(),
            PI
        ));
        assert!(Angle::from_radians(-1e-18).radians() < TAU);
    }

    /// The normalization as written before the `|r| < 2π` fast path.
    fn from_radians_via_fmod(radians: f64) -> f64 {
        let mut r = radians % TAU;
        if r < 0.0 {
            r += TAU;
        }
        if r >= TAU {
            r = 0.0;
        }
        r
    }

    #[test]
    fn fast_path_matches_fmod_bit_for_bit() {
        let edges = [
            PI,
            -PI,
            TAU,
            -TAU,
            TAU.next_down(),
            -TAU.next_down(),
            TAU.next_up(),
            0.0,
            -0.0,
            -1e-18,
            -f64::MIN_POSITIVE,
            -5e-324,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let sweep = crate::uniform_draws(0xC0FFEE).map(|u| (u - 0.5) * 8.0 * PI);
        for r in edges.into_iter().chain(sweep.take(10_000)) {
            assert_eq!(
                Angle::from_radians(r).radians().to_bits(),
                from_radians_via_fmod(r).to_bits(),
                "{r:e}"
            );
        }
    }

    #[test]
    fn clockwise_sweep_from_north() {
        // Clockwise from North: East is a quarter turn, South a half turn,
        // West three quarters.
        let n = Vec2::NORTH;
        let east = Angle::clockwise_from(n, Vec2::EAST).unwrap();
        let south = Angle::clockwise_from(n, -Vec2::NORTH).unwrap();
        let west = Angle::clockwise_from(n, -Vec2::EAST).unwrap();
        assert!(crate::approx_eq(east.radians(), FRAC_PI_2));
        assert!(crate::approx_eq(south.radians(), PI));
        assert!(crate::approx_eq(west.radians(), 1.5 * PI));
    }

    #[test]
    fn clockwise_zero_for_aligned() {
        let v = Vec2::new(2.5, -1.0);
        let a = Angle::clockwise_from(v, v * 3.0).unwrap();
        assert!(a.radians() < 1e-9 || a.radians() > TAU - 1e-9);
    }

    #[test]
    fn zero_direction_rejected() {
        assert_eq!(
            Angle::clockwise_from(Vec2::ZERO, Vec2::EAST),
            Err(GeometryError::ZeroDirection)
        );
        assert_eq!(
            Angle::clockwise_from(Vec2::EAST, Vec2::ZERO),
            Err(GeometryError::ZeroDirection)
        );
    }

    #[test]
    fn direction_roundtrip() {
        let reference = Vec2::NORTH;
        for k in 0..8 {
            let theta = Angle::from_radians(f64::from(k) * TAU / 8.0);
            let dir = reference.rotated(-theta.radians());
            let back = Angle::clockwise_from(reference, dir).unwrap();
            let diff = (back.radians() - theta.radians()).abs();
            assert!(diff < 1e-9 || (TAU - diff) < 1e-9, "k={k} diff={diff}");
        }
    }

    #[test]
    fn ordering_is_clockwise_rank() {
        let n = Vec2::NORTH;
        let mut dirs = [-Vec2::EAST, Vec2::EAST, -Vec2::NORTH];
        dirs.sort_by(|a, b| {
            Angle::clockwise_from(n, *a)
                .unwrap()
                .partial_cmp(&Angle::clockwise_from(n, *b).unwrap())
                .unwrap()
        });
        // Clockwise from North: East, South, West.
        assert!(dirs[0].approx_eq(Vec2::EAST));
        assert!(dirs[1].approx_eq(-Vec2::NORTH));
        assert!(dirs[2].approx_eq(-Vec2::EAST));
    }
}
