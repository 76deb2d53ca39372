//! Lines and half-planes.
//!
//! Half-planes are the workhorse of the Voronoi construction: the Voronoi
//! cell of a site is the intersection of the half-planes bounded by the
//! perpendicular bisectors toward every other site. Signed distances to
//! lines also classify which side of a horizon line a robot moved to, which
//! is how the asynchronous protocols decode bits.

use crate::approx::Tolerance;
use crate::point::{Point, Vec2};
use crate::GeometryError;
use std::fmt;

/// Which side of a directed line a point lies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Counter-clockwise of the line direction (positive cross product).
    Left,
    /// On the line (within tolerance).
    On,
    /// Clockwise of the line direction.
    Right,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Side::Left => "left",
            Side::On => "on",
            Side::Right => "right",
        };
        f.write_str(s)
    }
}

/// An infinite directed line through `origin` with unit direction `dir`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    origin: Point,
    dir: Vec2,
}

impl Line {
    /// Creates a line through `origin` pointing along `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::ZeroDirection`] if `dir` has (near-)zero
    /// length.
    pub fn new(origin: Point, dir: Vec2) -> Result<Self, GeometryError> {
        Ok(Self {
            origin,
            dir: dir.normalized()?,
        })
    }

    /// Creates the line through two distinct points, directed from `a` to
    /// `b`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::ZeroDirection`] if the points coincide.
    pub fn through(a: Point, b: Point) -> Result<Self, GeometryError> {
        Line::new(a, b - a)
    }

    /// A point on the line.
    #[must_use]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// The unit direction of the line.
    #[must_use]
    pub fn dir(&self) -> Vec2 {
        self.dir
    }

    /// Signed distance from the line: positive on the left of the direction,
    /// negative on the right.
    #[must_use]
    pub fn signed_distance(&self, p: Point) -> f64 {
        self.dir.cross(p - self.origin)
    }

    /// Classifies which side of the line `p` lies on.
    #[must_use]
    pub fn side(&self, p: Point, tol: Tolerance) -> Side {
        let d = self.signed_distance(p);
        if tol.zero(d) {
            Side::On
        } else if d > 0.0 {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// Orthogonal projection of `p` onto the line.
    #[must_use]
    pub fn project(&self, p: Point) -> Point {
        let t = (p - self.origin).dot(self.dir);
        self.origin + self.dir * t
    }

    /// Intersection point with another line.
    ///
    /// Returns `None` when the lines are parallel (within tolerance).
    #[must_use]
    pub fn intersect(&self, other: &Line, tol: Tolerance) -> Option<Point> {
        let denom = self.dir.cross(other.dir);
        if tol.zero(denom) {
            return None;
        }
        let t = (other.origin - self.origin).cross(other.dir) / denom;
        Some(self.origin + self.dir * t)
    }

    /// The perpendicular bisector of segment `ab`, directed 90°
    /// counter-clockwise from `b - a`.
    ///
    /// Every point on it is equidistant from `a` and `b`; its *left* side is
    /// the side of `a`. This orientation convention is what
    /// [`HalfPlane::voronoi`] relies on.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::ZeroDirection`] if the points coincide.
    pub fn bisector(a: Point, b: Point) -> Result<Line, GeometryError> {
        let dir = (b - a).perp_ccw();
        Line::new(a.midpoint(b), dir)
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line through {} along {}", self.origin, self.dir)
    }
}

/// A closed half-plane: the set of points on or left of a directed line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalfPlane {
    boundary: Line,
}

impl HalfPlane {
    /// Creates the half-plane of points on or to the *left* of `boundary`.
    #[must_use]
    pub const fn left_of(boundary: Line) -> Self {
        Self { boundary }
    }

    /// The half-plane of points at least as close to `site` as to `other` —
    /// one constraint of `site`'s Voronoi cell.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::ZeroDirection`] if the sites coincide.
    pub fn voronoi(site: Point, other: Point) -> Result<Self, GeometryError> {
        // `Line::bisector` keeps `site` on its left by construction.
        Ok(HalfPlane::left_of(Line::bisector(site, other)?))
    }

    /// The boundary line.
    #[must_use]
    pub fn boundary(&self) -> Line {
        self.boundary
    }

    /// Whether `p` is inside the (closed) half-plane.
    #[must_use]
    pub fn contains(&self, p: Point, tol: Tolerance) -> bool {
        self.boundary.side(p, tol) != Side::Right
    }

    /// Signed margin of `p`: positive inside, negative outside.
    #[must_use]
    pub fn margin(&self, p: Point) -> f64 {
        self.boundary.signed_distance(p)
    }
}

impl fmt::Display for HalfPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "half-plane left of {}", self.boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tol() -> Tolerance {
        Tolerance::default()
    }

    #[test]
    fn side_classification() {
        let l = Line::through(Point::new(0.0, 0.0), Point::new(1.0, 0.0)).unwrap();
        assert_eq!(l.side(Point::new(0.5, 1.0), tol()), Side::Left);
        assert_eq!(l.side(Point::new(0.5, -1.0), tol()), Side::Right);
        assert_eq!(l.side(Point::new(42.0, 0.0), tol()), Side::On);
    }

    #[test]
    fn signed_distance_matches_geometry() {
        let l = Line::through(Point::new(0.0, 0.0), Point::new(1.0, 0.0)).unwrap();
        assert!(crate::approx_eq(
            l.signed_distance(Point::new(3.0, 2.0)),
            2.0
        ));
        assert!(crate::approx_eq(
            l.signed_distance(Point::new(3.0, -2.0)),
            -2.0
        ));
    }

    #[test]
    fn projection() {
        let l = Line::through(Point::new(0.0, 0.0), Point::new(2.0, 2.0)).unwrap();
        let p = l.project(Point::new(2.0, 0.0));
        assert!(p.approx_eq(Point::new(1.0, 1.0)));
    }

    #[test]
    fn line_intersection() {
        let a = Line::through(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        let b = Line::through(Point::new(0.0, 2.0), Point::new(1.0, 1.0)).unwrap();
        let p = a.intersect(&b, tol()).unwrap();
        assert!(p.approx_eq(Point::new(1.0, 1.0)));
    }

    #[test]
    fn parallel_lines_do_not_intersect() {
        let a = Line::through(Point::new(0.0, 0.0), Point::new(1.0, 0.0)).unwrap();
        let b = Line::through(Point::new(0.0, 1.0), Point::new(1.0, 1.0)).unwrap();
        assert_eq!(a.intersect(&b, tol()), None);
    }

    #[test]
    fn coincident_points_rejected() {
        let p = Point::new(1.0, 1.0);
        assert!(Line::through(p, p).is_err());
        assert!(Line::bisector(p, p).is_err());
    }

    #[test]
    fn bisector_is_equidistant_and_keeps_a_left() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 2.0);
        let bis = Line::bisector(a, b).unwrap();
        let m = bis.origin();
        assert!(crate::approx_eq(m.distance(a), m.distance(b)));
        assert_eq!(bis.side(a, tol()), Side::Left);
        assert_eq!(bis.side(b, tol()), Side::Right);
    }

    #[test]
    fn voronoi_half_plane_contains_site() {
        let site = Point::new(0.0, 0.0);
        let other = Point::new(2.0, 0.0);
        let hp = HalfPlane::voronoi(site, other).unwrap();
        assert!(hp.contains(site, tol()));
        assert!(!hp.contains(other, tol()));
        assert!(hp.contains(Point::new(1.0, 5.0), tol())); // boundary point
        assert!(crate::approx_eq(hp.margin(site), 1.0));
    }

    #[test]
    fn display_forms() {
        let l = Line::through(Point::ORIGIN, Point::new(1.0, 0.0)).unwrap();
        assert!(format!("{l}").contains("line"));
        assert!(format!("{}", Side::Left).contains("left"));
        assert!(format!("{}", HalfPlane::left_of(l)).contains("half-plane"));
    }
}
