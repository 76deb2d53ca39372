//! Points and vectors in the Euclidean plane.
//!
//! [`Point`] is a location; [`Vec2`] is a displacement. Keeping them distinct
//! catches a whole family of frame-confusion bugs at compile time: robot
//! positions are `Point`s expressed in some coordinate frame, while movement
//! decisions are `Vec2`s.

use crate::approx::Tolerance;
use crate::GeometryError;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A displacement (direction + magnitude) in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };
    /// Unit vector pointing along +x ("East" when a frame has sense of
    /// direction).
    pub const EAST: Vec2 = Vec2 { x: 1.0, y: 0.0 };
    /// Unit vector pointing along +y ("North").
    pub const NORTH: Vec2 = Vec2 { x: 0.0, y: 1.0 };

    /// Creates a vector from components.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean length.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean length (avoids the square root).
    #[must_use]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[must_use]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    ///
    /// Positive when `other` lies counter-clockwise of `self`.
    #[must_use]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Returns the unit vector with the same direction.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::ZeroDirection`] when the vector has
    /// (near-)zero length.
    pub fn normalized(self) -> Result<Vec2, GeometryError> {
        let n = self.norm();
        if Tolerance::default().zero(n) {
            return Err(GeometryError::ZeroDirection);
        }
        Ok(self / n)
    }

    /// Rotates the vector counter-clockwise by `radians`.
    ///
    /// The same as `Rotation::new(radians).apply(self)`; callers that
    /// rotate by one fixed angle many times keep the [`Rotation`].
    #[must_use]
    pub fn rotated(self, radians: f64) -> Vec2 {
        Rotation::new(radians).apply(self)
    }

    /// The unit vector at compass bearing `radians` — measured
    /// clockwise from +y ("North"), so `from_bearing(0.0)` is `(0, 1)`
    /// and `from_bearing(π/2)` is `(1, 0)`.
    ///
    /// This is the vetted trig entry point for callers laying points
    /// out on circles: keeping its `sin_cos` call here, like
    /// [`Rotation::new`]'s, keeps every libm evaluation inside this
    /// crate, where the golden traces pin its platform behavior.
    #[must_use]
    pub fn from_bearing(radians: f64) -> Vec2 {
        let (s, c) = radians.sin_cos();
        Vec2::new(s, c)
    }

    /// The vector rotated 90° counter-clockwise.
    #[must_use]
    pub fn perp_ccw(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// The vector rotated 90° clockwise.
    ///
    /// With shared chirality, "clockwise" is common to all robots; this is
    /// the rotation used to derive "East" from a local "North".
    #[must_use]
    pub fn perp_cw(self) -> Vec2 {
        Vec2::new(self.y, -self.x)
    }

    /// Angle of the vector in radians, measured counter-clockwise from +x,
    /// in `(-π, π]`.
    #[must_use]
    pub fn atan2(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Component-wise approximate equality with the default tolerance.
    #[must_use]
    pub fn approx_eq(self, other: Vec2) -> bool {
        let tol = Tolerance::default();
        tol.eq(self.x, other.x) && tol.eq(self.y, other.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{:.6}, {:.6}⟩", self.x, self.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

/// A counter-clockwise rotation by a fixed angle, with its sine and
/// cosine evaluated once.
///
/// [`Vec2::rotated`] is `Rotation::new(radians).apply(v)`, so a frame or
/// keyboard that keeps a `Rotation` gets the same bits as rotating by
/// the angle afresh, without another `sin_cos`. It is not serialized: a
/// holder stores the angle and makes the `Rotation` again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rotation {
    sin: f64,
    cos: f64,
}

impl Rotation {
    /// The rotation counter-clockwise by `radians`.
    #[must_use]
    pub fn new(radians: f64) -> Self {
        let (sin, cos) = radians.sin_cos();
        Self { sin, cos }
    }

    /// Rotates `v`: `(c·x − s·y, s·x + c·y)`.
    #[must_use]
    pub fn apply(self, v: Vec2) -> Vec2 {
        Vec2::new(
            self.cos * v.x - self.sin * v.y,
            self.sin * v.x + self.cos * v.y,
        )
    }
}

/// A location in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// The origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    ///
    /// # Examples
    ///
    /// ```
    /// use stigmergy_geometry::Point;
    /// let a = Point::new(0.0, 0.0);
    /// let b = Point::new(3.0, 4.0);
    /// assert_eq!(a.distance(b), 5.0);
    /// ```
    #[must_use]
    pub fn distance(self, other: Point) -> f64 {
        (other - self).norm()
    }

    /// Squared Euclidean distance to another point.
    #[must_use]
    pub fn distance_sq(self, other: Point) -> f64 {
        (other - self).norm_sq()
    }

    /// Compares [`Point::distance`] with `bound`, without the square
    /// root, when the answer is certain.
    ///
    /// Returns `Some(Less)` or `Some(Greater)` only when the squared
    /// distance lies outside the band `bound²·(1 ± 2⁻³⁰)`; there the
    /// answer is the one `distance(other)` compared
    /// with `bound` by `<`, `<=` or `>` gives (DESIGN.md §12, *Exact
    /// squared-distance filters*). Inside the band, for a NaN distance,
    /// and for a `bound` that is NaN, infinite, zero, negative or
    /// outside `[2⁻⁵⁰⁰, 2⁵⁰⁰]` it returns `None`, and the caller
    /// computes the distance. It never returns `Some(Equal)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::cmp::Ordering;
    /// use stigmergy_geometry::Point;
    /// let a = Point::new(0.0, 0.0);
    /// let b = Point::new(3.0, 4.0);
    /// assert_eq!(a.distance_cmp(b, 6.0), Some(Ordering::Less));
    /// assert_eq!(a.distance_cmp(b, 4.0), Some(Ordering::Greater));
    /// assert_eq!(a.distance_cmp(b, 5.0), None);
    /// ```
    #[must_use]
    pub fn distance_cmp(self, other: Point, bound: f64) -> Option<Ordering> {
        banded_cmp(self.distance_sq(other), bound)
    }

    /// The midpoint of the segment between `self` and `other`.
    #[must_use]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    #[must_use]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// The displacement from the origin.
    #[must_use]
    pub fn to_vec(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Component-wise approximate equality with the default tolerance.
    #[must_use]
    pub fn approx_eq(self, other: Point) -> bool {
        let tol = Tolerance::default();
        tol.eq(self.x, other.x) && tol.eq(self.y, other.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

impl From<Vec2> for Point {
    fn from(v: Vec2) -> Point {
        Point::new(v.x, v.y)
    }
}

impl From<Point> for Vec2 {
    fn from(p: Point) -> Vec2 {
        p.to_vec()
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vec2> for Point {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Sub for Point {
    type Output = Vec2;
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

/// The band in which [`Point::distance_cmp`] gives no answer is
/// `bound²·(1 ± BAND)`.
const BAND: f64 = f64::from_bits((1023 - 30) << 52);
/// The bounds [`Point::distance_cmp`] answers for: their squares, and
/// the band around them, stay far inside the normal range.
const BOUNDS: std::ops::RangeInclusive<f64> =
    f64::from_bits((1023 - 500) << 52)..=f64::from_bits((1023 + 500) << 52);

/// [`Point::distance_cmp`] on a squared distance `dist_sq` that is
/// within a few roundings of the exact one.
pub(crate) fn banded_cmp(dist_sq: f64, bound: f64) -> Option<Ordering> {
    if !BOUNDS.contains(&bound) {
        return None;
    }
    let bound_sq = bound * bound;
    if dist_sq < bound_sq * (1.0 - BAND) {
        Some(Ordering::Less)
    } else if dist_sq > bound_sq * (1.0 + BAND) {
        Some(Ordering::Greater)
    } else {
        None
    }
}

/// Orientation of the ordered triple `(a, b, c)`.
///
/// Positive: counter-clockwise turn; negative: clockwise; near zero:
/// collinear (classify with a [`Tolerance`]).
#[must_use]
pub fn orient(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn vector_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
    }

    #[test]
    fn dot_and_cross() {
        let e = Vec2::EAST;
        let n = Vec2::NORTH;
        assert_eq!(e.dot(n), 0.0);
        assert_eq!(e.cross(n), 1.0);
        assert_eq!(n.cross(e), -1.0);
    }

    #[test]
    fn rotation_quarter_turns() {
        let e = Vec2::EAST;
        assert!(e.rotated(FRAC_PI_2).approx_eq(Vec2::NORTH));
        assert!(e.rotated(PI).approx_eq(-Vec2::EAST));
        assert!(e.perp_ccw().approx_eq(Vec2::NORTH));
        assert!(Vec2::NORTH.perp_cw().approx_eq(Vec2::EAST));
    }

    #[test]
    fn normalization() {
        let v = Vec2::new(3.0, 4.0);
        let u = v.normalized().unwrap();
        assert!(crate::approx_eq(u.norm(), 1.0));
        assert!(u.approx_eq(Vec2::new(0.6, 0.8)));
        assert_eq!(Vec2::ZERO.normalized(), Err(GeometryError::ZeroDirection));
    }

    #[test]
    fn point_vector_interplay() {
        let p = Point::new(1.0, 1.0);
        let q = p + Vec2::new(2.0, 0.0);
        assert_eq!(q, Point::new(3.0, 1.0));
        assert_eq!(q - p, Vec2::new(2.0, 0.0));
        assert_eq!(q - Vec2::new(2.0, 0.0), p);
    }

    #[test]
    fn distance_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(6.0, 8.0);
        assert_eq!(a.distance(b), 10.0);
        assert_eq!(a.distance_sq(b), 100.0);
        assert_eq!(a.midpoint(b), Point::new(3.0, 4.0));
        assert_eq!(a.lerp(b, 0.25), Point::new(1.5, 2.0));
    }

    #[test]
    fn orientation_signs() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let ccw = Point::new(1.0, 1.0);
        let cw = Point::new(1.0, -1.0);
        let col = Point::new(2.0, 0.0);
        assert!(orient(a, b, ccw) > 0.0);
        assert!(orient(a, b, cw) < 0.0);
        assert!(crate::approx_zero(orient(a, b, col)));
    }

    #[test]
    fn atan2_axes() {
        assert!(crate::approx_eq(Vec2::EAST.atan2(), 0.0));
        assert!(crate::approx_eq(Vec2::NORTH.atan2(), FRAC_PI_2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Point::new(1.0, 2.0)), "(1.000000, 2.000000)");
        assert_eq!(format!("{}", Vec2::new(1.0, 2.0)), "⟨1.000000, 2.000000⟩");
    }

    #[test]
    fn conversions() {
        let p = Point::new(1.0, 2.0);
        let v: Vec2 = p.into();
        let back: Point = v.into();
        assert_eq!(p, back);
    }
}
