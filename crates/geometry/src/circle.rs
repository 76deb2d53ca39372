//! Circles and discs.

use crate::approx::Tolerance;
use crate::point::{orient, Point};
use crate::GeometryError;
use std::fmt;

/// A circle (and, for containment purposes, the closed disc it bounds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Centre of the circle.
    pub center: Point,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle from centre and radius.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::NonPositiveRadius`] for a negative or NaN
    /// radius. A zero radius is allowed (a degenerate point circle); the
    /// smallest enclosing circle of one point is exactly that.
    pub fn new(center: Point, radius: f64) -> Result<Self, GeometryError> {
        if radius.is_nan() || radius < 0.0 {
            return Err(GeometryError::NonPositiveRadius);
        }
        Ok(Self { center, radius })
    }

    /// The degenerate circle consisting of a single point.
    #[must_use]
    pub fn point(center: Point) -> Self {
        Self {
            center,
            radius: 0.0,
        }
    }

    /// The circle with diameter `ab`.
    #[must_use]
    pub fn with_diameter(a: Point, b: Point) -> Self {
        Self {
            center: a.midpoint(b),
            radius: a.distance(b) / 2.0,
        }
    }

    /// The unique circle through three non-collinear points.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::ZeroDirection`] when the points are
    /// (near-)collinear, since no finite circumcircle exists.
    pub fn circumscribing(a: Point, b: Point, c: Point) -> Result<Self, GeometryError> {
        let d = 2.0 * orient(a, b, c);
        if Tolerance::default().zero(d) {
            return Err(GeometryError::ZeroDirection);
        }
        let a2 = a.to_vec().norm_sq();
        let b2 = b.to_vec().norm_sq();
        let c2 = c.to_vec().norm_sq();
        let ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d;
        let uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d;
        let center = Point::new(ux, uy);
        Ok(Self {
            center,
            radius: center.distance(a),
        })
    }

    /// Whether `p` lies in the closed disc (within tolerance).
    #[must_use]
    pub fn contains(&self, p: Point, tol: Tolerance) -> bool {
        tol.le(self.center.distance(p), self.radius)
    }

    /// Whether `p` lies on the circle boundary (within tolerance).
    #[must_use]
    pub fn on_boundary(&self, p: Point, tol: Tolerance) -> bool {
        tol.eq(self.center.distance(p), self.radius)
    }
}

impl fmt::Display for Circle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circle centre {} radius {:.6}", self.center, self.radius)
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
        assert!(Circle::new(Point::ORIGIN, 1.0).is_ok());
        assert!(Circle::new(Point::ORIGIN, 0.0).is_ok());
        assert_eq!(
            Circle::new(Point::ORIGIN, -1.0),
            Err(GeometryError::NonPositiveRadius)
        );
        assert_eq!(
            Circle::new(Point::ORIGIN, f64::NAN),
            Err(GeometryError::NonPositiveRadius)
        );
    }

    #[test]
    fn diameter_circle() {
        let c = Circle::with_diameter(Point::new(-1.0, 0.0), Point::new(1.0, 0.0));
        assert_eq!(c.center, Point::ORIGIN);
        assert_eq!(c.radius, 1.0);
        assert!(c.on_boundary(Point::new(0.0, 1.0), tol()));
    }

    #[test]
    fn circumcircle_of_right_triangle() {
        // For a right triangle the circumcentre is the hypotenuse midpoint.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        let c = Point::new(0.0, 3.0);
        let circ = Circle::circumscribing(a, b, c).unwrap();
        assert!(circ.center.approx_eq(Point::new(2.0, 1.5)));
        assert!(crate::approx_eq(circ.radius, 2.5));
        for p in [a, b, c] {
            assert!(circ.on_boundary(p, tol()));
        }
    }

    #[test]
    fn circumcircle_rejects_collinear() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 1.0);
        let c = Point::new(2.0, 2.0);
        assert!(Circle::circumscribing(a, b, c).is_err());
    }

    #[test]
    fn containment_predicates() {
        let c = Circle::new(Point::ORIGIN, 2.0).unwrap();
        assert!(c.contains(Point::new(1.0, 1.0), tol()));
        assert!(c.contains(Point::new(2.0, 0.0), tol()));
        assert!(!c.contains(Point::new(2.1, 0.0), tol()));
        assert!(c.on_boundary(Point::new(0.0, -2.0), tol()));
        assert!(!c.on_boundary(Point::ORIGIN, tol()));
    }

    #[test]
    fn point_circle() {
        let c = Circle::point(Point::new(1.0, 2.0));
        assert_eq!(c.radius, 0.0);
        assert!(c.contains(Point::new(1.0, 2.0), tol()));
        assert!(!c.contains(Point::new(1.1, 2.0), tol()));
    }

    #[test]
    fn display_form() {
        let c = Circle::new(Point::ORIGIN, 1.0).unwrap();
        assert!(format!("{c}").contains("circle"));
    }
}
