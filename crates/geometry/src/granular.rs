//! The sliced granular — the robots' movement "keyboard".
//!
//! §3.2 of the paper slices each robot's granular disc by `n` diameters
//! (adjacent diameters at angle `π/n`), labelled `0..n-1` clockwise from a
//! reference direction (North, or the robot's horizon line). Moving out on
//! the diameter labelled `k` addresses robot `k`; which *half* of the
//! diameter encodes the bit value.
//!
//! # Side convention
//!
//! The paper says bit 0 is sent on the "Northern/Eastern/North-Eastern"
//! half and bit 1 on the "Southern/Western/South-Western" half. We make
//! this precise: the diameter labelled `k` has direction `d_k` obtained by
//! rotating the reference clockwise by `k·π/n`, with `k·π/n ∈ [0, π)`. The
//! **zero side** is `+d_k` and the **one side** is `−d_k`. Since the
//! clockwise rotation never reaches `π`, `+d_k` always has a non-negative
//! "East" component (positive for `0 < kπ/n < π`, pure North for `k = 0`),
//! matching the paper's description while being exactly computable by every
//! observer with the same reference.

use crate::angle::Angle;
use crate::approx::Tolerance;
use crate::point::{banded_cmp, Point, Vec2};
use crate::GeometryError;
use std::cmp::Ordering;
use std::f64::consts::PI;
use std::fmt;

/// Which half of a diameter a move is on: the bit it encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceSide {
    /// The `+d_k` half (Northern/Eastern): encodes bit 0.
    Zero,
    /// The `−d_k` half (Southern/Western): encodes bit 1.
    One,
}

impl SliceSide {
    /// The bit this side encodes.
    #[must_use]
    pub fn bit(self) -> bool {
        matches!(self, SliceSide::One)
    }

    /// The side encoding `bit`.
    #[must_use]
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            SliceSide::One
        } else {
            SliceSide::Zero
        }
    }
}

impl fmt::Display for SliceSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceSide::Zero => f.write_str("zero-side"),
            SliceSide::One => f.write_str("one-side"),
        }
    }
}

/// Where within a granular an observed position lies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SliceZone {
    /// At (or indistinguishably near) the centre.
    Center,
    /// On the half-slice `(slice, side)`, at `distance` from the centre.
    OnSlice {
        /// Diameter label in `0..slice_count`.
        slice: usize,
        /// Which half of the diameter.
        side: SliceSide,
        /// Distance from the granular centre.
        distance: f64,
        /// Angular deviation (radians) from the exact half-slice direction.
        deviation: f64,
    },
}

/// A granular disc sliced into labelled diameters.
///
/// The slice directions and the unit reference [`SlicedGranular::classify`]
/// measures from are fixed by construction, so they are evaluated once
/// there, with the expressions the lookups would otherwise repeat.
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedGranular {
    center: Point,
    radius: f64,
    reference: Vec2,
    /// `reference.normalized()`: the reference as
    /// [`Angle::clockwise_from`] re-normalizes it.
    unit_reference: Vec2,
    /// Each slice's zero-side direction,
    /// `reference.rotated(-(slice·π/slices))`; one per diameter.
    zero_directions: Vec<Vec2>,
}

/// [`banded_cmp`] of `d·(1 − rel)` against `r + abs`, given the squared
/// distance `d²`: `tol.le(d, r)` holds exactly when `d·(1 − rel) ≤
/// r + abs`, and `tol.zero(d)` is the same test with `r = 0`. Only for
/// a tolerance whose evaluation cannot stray from that edge by more
/// than a few ulps of it, a non-negative `abs` and a `rel` of at most
/// one half; `None` for any other.
fn tol_cmp(tol: Tolerance, dist_sq: f64, r: f64) -> Option<Ordering> {
    let shrink = (tol.abs >= 0.0 && (0.0..=0.5).contains(&tol.rel)).then_some(1.0 - tol.rel)?;
    banded_cmp(dist_sq * shrink * shrink, r + tol.abs)
}

impl SlicedGranular {
    /// Creates a granular centred at `center` with `radius`, sliced into
    /// `slices` diameters, labelled clockwise from North (`+y`).
    ///
    /// # Errors
    ///
    /// * [`GeometryError::NonPositiveRadius`] if `radius ≤ 0`.
    /// * [`GeometryError::TooFewPoints`] if `slices == 0`.
    pub fn new(center: Point, radius: f64, slices: usize) -> Result<Self, GeometryError> {
        Self::with_reference(center, radius, slices, Vec2::NORTH)
    }

    /// Like [`SlicedGranular::new`] but labelling diameters clockwise from
    /// an arbitrary reference direction (used by the chirality-only and
    /// asynchronous protocols, whose reference is the robot's horizon
    /// line).
    ///
    /// # Errors
    ///
    /// As [`SlicedGranular::new`], plus [`GeometryError::ZeroDirection`]
    /// for a zero reference vector.
    pub fn with_reference(
        center: Point,
        radius: f64,
        slices: usize,
        reference: Vec2,
    ) -> Result<Self, GeometryError> {
        if radius.is_nan() || radius <= 0.0 {
            return Err(GeometryError::NonPositiveRadius);
        }
        if slices == 0 {
            return Err(GeometryError::TooFewPoints { needed: 1, got: 0 });
        }
        let reference = reference.normalized()?;
        let zero_directions = (0..slices)
            .map(|slice| {
                let theta = (slice as f64) * PI / (slices as f64);
                // Clockwise rotation by theta.
                reference.rotated(-theta)
            })
            .collect();
        Ok(Self {
            center,
            radius,
            reference,
            unit_reference: reference.normalized()?,
            zero_directions,
        })
    }

    /// The centre of the granular (the robot's home position).
    #[must_use]
    pub fn center(&self) -> Point {
        self.center
    }

    /// The granular radius.
    #[must_use]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of diameters.
    #[must_use]
    pub fn slice_count(&self) -> usize {
        self.zero_directions.len()
    }

    /// The reference ("North") direction of diameter 0's zero side.
    #[must_use]
    pub fn reference(&self) -> Vec2 {
        self.reference
    }

    /// Unit direction of the *zero side* of the diameter labelled `slice`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::IndexOutOfRange`] if `slice` is not a valid
    /// label.
    pub fn zero_direction(&self, slice: usize) -> Result<Vec2, GeometryError> {
        self.zero_directions
            .get(slice)
            .copied()
            .ok_or(GeometryError::IndexOutOfRange {
                index: slice,
                len: self.slice_count(),
            })
    }

    /// Unit direction of `(slice, side)`.
    ///
    /// # Errors
    ///
    /// As [`SlicedGranular::zero_direction`].
    pub fn direction(&self, slice: usize, side: SliceSide) -> Result<Vec2, GeometryError> {
        let d = self.zero_direction(slice)?;
        Ok(match side {
            SliceSide::Zero => d,
            SliceSide::One => -d,
        })
    }

    /// The point at `fraction` of the radius out along `(slice, side)`.
    ///
    /// `fraction` is clamped to `[0, 1]`; the protocols use strictly
    /// interior fractions so moves never leave the granular.
    ///
    /// # Errors
    ///
    /// As [`SlicedGranular::zero_direction`].
    pub fn target(
        &self,
        slice: usize,
        side: SliceSide,
        fraction: f64,
    ) -> Result<Point, GeometryError> {
        let d = self.direction(slice, side)?;
        let f = fraction.clamp(0.0, 1.0);
        Ok(self.center + d * (self.radius * f))
    }

    /// Whether `p` is inside the (closed) granular disc.
    ///
    /// `tol.le(d, r)` holds exactly when `d ≤ (r + abs)/(1 − rel)`, so a
    /// point clearly inside `r` or clearly beyond that edge is answered
    /// from the squared distance; only a point within the band of either
    /// needs the distance itself.
    #[must_use]
    pub fn contains(&self, p: Point, tol: Tolerance) -> bool {
        let dist_sq = self.center.distance_sq(p);
        if tol_cmp(tol, dist_sq, self.radius) == Some(Ordering::Greater) {
            return false;
        }
        if banded_cmp(dist_sq, self.radius) == Some(Ordering::Less) {
            return true;
        }
        tol.le(self.center.distance(p), self.radius)
    }

    /// The half-slice `p` is on, or `None` at the centre: the zone of
    /// [`SlicedGranular::classify`] without its distance and deviation.
    ///
    /// The centre test compares the squared distance with `tol`'s
    /// threshold, and the half-slice is the one whose direction has the
    /// largest dot product with `p − centre`. When the distance is within
    /// the band of the threshold, or the best dot product does not beat
    /// the runner-up by `1e-9·(|v.x| + |v.y|)` — far more than either
    /// side's rounding — the answer is `classify`'s own.
    #[must_use]
    pub fn half_slice(&self, p: Point, tol: Tolerance) -> Option<(usize, SliceSide)> {
        if let Some(zone) = self.half_slice_by_dots(p, tol) {
            return zone;
        }
        match self.classify(p, tol) {
            SliceZone::Center => None,
            SliceZone::OnSlice { slice, side, .. } => Some((slice, side)),
        }
    }

    /// [`SlicedGranular::half_slice`] where the squared distance and the
    /// dot products decide it; `None` defers to `classify`.
    fn half_slice_by_dots(&self, p: Point, tol: Tolerance) -> Option<Option<(usize, SliceSide)>> {
        if tol_cmp(tol, self.center.distance_sq(p), 0.0)? != Ordering::Greater {
            return Some(None);
        }
        let v = p - self.center;
        // Finite, or infinite: a NaN coordinate made the distance NaN.
        let scale = v.x.abs() + v.y.abs();
        if scale >= 1e300 {
            return None; // keep every dot product finite
        }
        let slices = self.slice_count();
        let (mut best, mut runner_up) = ((f64::NEG_INFINITY, 0), f64::NEG_INFINITY);
        for (k, d) in self.zero_directions.iter().enumerate() {
            let dot = v.dot(*d);
            // Half-slice `m` is `(m, Zero)` below `slices`, and
            // `(m − slices, One)`, along `−d`, from there.
            for (value, m) in [(dot, k), (-dot, k + slices)] {
                if value > best.0 {
                    runner_up = best.0;
                    best = (value, m);
                } else if value > runner_up {
                    runner_up = value;
                }
            }
        }
        if best.0 - runner_up <= 1e-9 * scale {
            return None;
        }
        let m = best.1;
        Some(Some(if m < slices {
            (m, SliceSide::Zero)
        } else {
            (m - slices, SliceSide::One)
        }))
    }

    /// Classifies an observed position into a half-slice.
    ///
    /// Positions within `tol` of the centre are [`SliceZone::Center`];
    /// otherwise the nearest half-slice is returned together with the
    /// angular deviation, letting callers enforce how exact a "keyboard
    /// press" must be. Exact protocol moves have deviation ≈ 0; a strict
    /// decoder can reject anything with deviation above a fraction of the
    /// inter-slice angle `π / slice_count`.
    #[must_use]
    pub fn classify(&self, p: Point, tol: Tolerance) -> SliceZone {
        let v = p - self.center;
        let dist = v.norm();
        if tol.zero(dist) {
            return SliceZone::Center;
        }
        // Clockwise angle from the reference, in [0, 2π). `v / dist` is
        // `v.normalized()`, whose length is the `dist` just checked.
        let phi = Angle::clockwise_between_units(self.unit_reference, v / dist).radians();
        let slices = self.slice_count();
        let step = PI / (slices as f64);
        let m = (phi / step).round() as usize % (2 * slices);
        let (slice, side) = if m < slices {
            (m, SliceSide::Zero)
        } else {
            (m - slices, SliceSide::One)
        };
        let exact = (m as f64) * step;
        let mut deviation = (phi - exact).abs();
        if deviation > PI {
            deviation = std::f64::consts::TAU - deviation;
        }
        SliceZone::OnSlice {
            slice,
            side,
            distance: dist,
            deviation,
        }
    }

    /// The maximum angular deviation a decoder should accept: half the
    /// angle between adjacent half-slices, scaled by a safety factor.
    #[must_use]
    pub fn decode_tolerance(&self) -> f64 {
        0.25 * PI / (self.slice_count() as f64)
    }
}

impl fmt::Display for SlicedGranular {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "granular at {} radius {:.6} with {} slices",
            self.center,
            self.radius,
            self.slice_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tol() -> Tolerance {
        Tolerance::default()
    }

    #[test]
    fn construction_validation() {
        assert!(SlicedGranular::new(Point::ORIGIN, 1.0, 4).is_ok());
        assert!(matches!(
            SlicedGranular::new(Point::ORIGIN, 0.0, 4),
            Err(GeometryError::NonPositiveRadius)
        ));
        assert!(matches!(
            SlicedGranular::new(Point::ORIGIN, 1.0, 0),
            Err(GeometryError::TooFewPoints { .. })
        ));
        assert!(matches!(
            SlicedGranular::with_reference(Point::ORIGIN, 1.0, 4, Vec2::ZERO),
            Err(GeometryError::ZeroDirection)
        ));
    }

    #[test]
    fn slice_zero_points_north() {
        let g = SlicedGranular::new(Point::ORIGIN, 2.0, 6).unwrap();
        assert!(g.zero_direction(0).unwrap().approx_eq(Vec2::NORTH));
        assert!(g
            .direction(0, SliceSide::One)
            .unwrap()
            .approx_eq(-Vec2::NORTH));
    }

    #[test]
    fn slices_rotate_clockwise() {
        // With 2 slices, slice 1 is at 90° clockwise from North = East.
        let g = SlicedGranular::new(Point::ORIGIN, 1.0, 2).unwrap();
        assert!(g.zero_direction(1).unwrap().approx_eq(Vec2::EAST));
    }

    #[test]
    fn zero_side_has_nonnegative_east_component() {
        // The documented convention: +d_k always has East component ≥ 0.
        for n in [1usize, 2, 3, 5, 8, 13] {
            let g = SlicedGranular::new(Point::ORIGIN, 1.0, n).unwrap();
            for k in 0..n {
                let d = g.zero_direction(k).unwrap();
                let east = d.dot(Vec2::NORTH.perp_cw());
                assert!(
                    east >= -1e-12,
                    "n={n} k={k}: zero side must be on the eastern half"
                );
            }
        }
    }

    #[test]
    fn out_of_range_slice() {
        let g = SlicedGranular::new(Point::ORIGIN, 1.0, 3).unwrap();
        assert!(matches!(
            g.zero_direction(3),
            Err(GeometryError::IndexOutOfRange { index: 3, len: 3 })
        ));
    }

    #[test]
    fn target_stays_inside() {
        let g = SlicedGranular::new(Point::new(5.0, -2.0), 1.5, 7).unwrap();
        for k in 0..7 {
            for side in [SliceSide::Zero, SliceSide::One] {
                for f in [0.0, 0.3, 0.5, 1.0, 2.0] {
                    let p = g.target(k, side, f).unwrap();
                    assert!(g.contains(p, tol()), "k={k} f={f}");
                }
            }
        }
    }

    #[test]
    fn classify_roundtrip() {
        let g = SlicedGranular::new(Point::new(1.0, 1.0), 2.0, 9).unwrap();
        for k in 0..9 {
            for side in [SliceSide::Zero, SliceSide::One] {
                let p = g.target(k, side, 0.5).unwrap();
                match g.classify(p, tol()) {
                    SliceZone::OnSlice {
                        slice,
                        side: s,
                        distance,
                        deviation,
                    } => {
                        assert_eq!(slice, k);
                        assert_eq!(s, side);
                        assert!(crate::approx_eq(distance, 1.0));
                        assert!(deviation < 1e-9);
                    }
                    SliceZone::Center => panic!("misclassified as centre"),
                }
            }
        }
    }

    #[test]
    fn classify_center() {
        let g = SlicedGranular::new(Point::ORIGIN, 1.0, 4).unwrap();
        assert_eq!(g.classify(Point::ORIGIN, tol()), SliceZone::Center);
        assert_eq!(
            g.classify(Point::new(1e-12, -1e-12), tol()),
            SliceZone::Center
        );
    }

    #[test]
    fn classify_reports_deviation() {
        let g = SlicedGranular::new(Point::ORIGIN, 1.0, 4).unwrap();
        // A point 10° off the North diameter.
        let p = Point::ORIGIN + Vec2::NORTH.rotated(-10.0_f64.to_radians()) * 0.5;
        match g.classify(p, tol()) {
            SliceZone::OnSlice {
                slice,
                side,
                deviation,
                ..
            } => {
                assert_eq!(slice, 0);
                assert_eq!(side, SliceSide::Zero);
                assert!(crate::approx_eq(deviation, 10.0_f64.to_radians()));
                assert!(deviation < g.decode_tolerance() * 4.0);
            }
            SliceZone::Center => panic!("not at centre"),
        }
    }

    #[test]
    fn custom_reference() {
        // Reference pointing East: slice 0 zero-side is East.
        let g = SlicedGranular::with_reference(Point::ORIGIN, 1.0, 4, Vec2::new(3.0, 0.0)).unwrap();
        assert!(g.zero_direction(0).unwrap().approx_eq(Vec2::EAST));
        // Slice 1 is 45° clockwise from East: pointing south-east.
        let d = g.zero_direction(1).unwrap();
        assert!(d.x > 0.0 && d.y < 0.0);
    }

    /// [`SlicedGranular::classify`] as written before the unit reference
    /// was cached: re-normalize the reference on every call.
    fn classify_uncached(g: &SlicedGranular, p: Point, tol: Tolerance) -> SliceZone {
        let v = p - g.center();
        let dist = v.norm();
        if tol.zero(dist) {
            return SliceZone::Center;
        }
        let phi = Angle::clockwise_from(g.reference(), v).unwrap().radians();
        let step = PI / (g.slice_count() as f64);
        let m = (phi / step).round() as usize % (2 * g.slice_count());
        let (slice, side) = if m < g.slice_count() {
            (m, SliceSide::Zero)
        } else {
            (m - g.slice_count(), SliceSide::One)
        };
        let mut deviation = (phi - (m as f64) * step).abs();
        if deviation > PI {
            deviation = std::f64::consts::TAU - deviation;
        }
        SliceZone::OnSlice {
            slice,
            side,
            distance: dist,
            deviation,
        }
    }

    /// The zone with its floats as bits, so `-0.0` and NaN compare exactly.
    fn zone_bits(zone: SliceZone) -> Option<(usize, SliceSide, u64, u64)> {
        match zone {
            SliceZone::Center => None,
            SliceZone::OnSlice {
                slice,
                side,
                distance,
                deviation,
            } => Some((slice, side, distance.to_bits(), deviation.to_bits())),
        }
    }

    #[test]
    fn cached_keyboards_match_the_uncached_expressions_bit_for_bit() {
        let mut draws = crate::uniform_draws(0x6A4E);
        let mut next = move || draws.next().expect("endless");
        for n in 1..=13usize {
            for _ in 0..8 {
                let center = Point::new(next() * 40.0 - 20.0, next() * 40.0 - 20.0);
                let reference = Vec2::new(next() - 0.5, next() - 0.5) * (next() * 10.0);
                let radius = 0.1 + next() * 3.0;
                let g = SlicedGranular::with_reference(center, radius, n, reference).unwrap();
                for k in 0..n {
                    let want = g.reference().rotated(-((k as f64) * PI / (n as f64)));
                    let got = g.zero_direction(k).unwrap();
                    assert_eq!(
                        (got.x.to_bits(), got.y.to_bits()),
                        (want.x.to_bits(), want.y.to_bits()),
                        "n={n} k={k}"
                    );
                }
                let on_slices = (0..n).flat_map(|k| {
                    [SliceSide::Zero, SliceSide::One].map(|side| g.target(k, side, 0.5).unwrap())
                });
                let scattered: Vec<Point> = (0..32)
                    .map(|_| center + Vec2::new(next() - 0.5, next() - 0.5) * (radius * 2.0))
                    .collect();
                for p in on_slices.chain(scattered).chain([center]) {
                    assert_eq!(
                        zone_bits(g.classify(p, tol())),
                        zone_bits(classify_uncached(&g, p, tol())),
                        "n={n} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn side_bit_mapping() {
        assert!(!SliceSide::Zero.bit());
        assert!(SliceSide::One.bit());
        assert_eq!(SliceSide::from_bit(false), SliceSide::Zero);
        assert_eq!(SliceSide::from_bit(true), SliceSide::One);
    }

    #[test]
    fn display_forms() {
        let g = SlicedGranular::new(Point::ORIGIN, 1.0, 4).unwrap();
        assert!(format!("{g}").contains("granular"));
        assert!(format!("{}", SliceSide::Zero).contains("zero"));
    }

    #[test]
    fn half_turn_wraps_to_one_side() {
        // A point just "before" North going counter-clockwise (i.e. at
        // clockwise angle close to 2π) must classify as slice 0, zero side.
        let g = SlicedGranular::new(Point::ORIGIN, 1.0, 4).unwrap();
        let p = Point::ORIGIN + Vec2::NORTH.rotated(1e-6) * 0.5;
        match g.classify(p, tol()) {
            SliceZone::OnSlice { slice, side, .. } => {
                assert_eq!(slice, 0);
                assert_eq!(side, SliceSide::Zero);
            }
            SliceZone::Center => panic!("not at centre"),
        }
    }
}
