//! Tolerance predicates for `f64` comparisons.
//!
//! The paper assumes robots compute with infinite decimal precision; a real
//! implementation must decide when two floating-point quantities are "the
//! same". Every comparison in this workspace goes through an explicit
//! [`Tolerance`] so that the precision assumptions are visible and tunable.

/// Default absolute tolerance used by the free functions.
///
/// Chosen far above `f64` rounding noise for coordinates of magnitude up to
/// ~10⁶ yet far below any displacement the protocols make (granular radii in
/// the simulator are ≥ 10⁻³ of the inter-robot spacing).
pub const DEFAULT_EPS: f64 = 1e-9;

/// A comparison tolerance combining an absolute and a relative component.
///
/// Two values `a`, `b` are considered equal when
/// `|a - b| <= abs + rel * max(|a|, |b|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute tolerance component.
    pub abs: f64,
    /// Relative tolerance component.
    pub rel: f64,
}

impl Tolerance {
    /// Creates a tolerance with the given absolute and relative components.
    ///
    /// # Panics
    ///
    /// Panics if either component is negative or NaN.
    #[must_use]
    pub fn new(abs: f64, rel: f64) -> Self {
        assert!(abs >= 0.0, "absolute tolerance must be non-negative");
        assert!(rel >= 0.0, "relative tolerance must be non-negative");
        Self { abs, rel }
    }

    /// A purely absolute tolerance.
    #[must_use]
    pub fn absolute(abs: f64) -> Self {
        Self::new(abs, 0.0)
    }

    /// Returns `true` when `a` and `b` are equal within this tolerance.
    #[must_use]
    pub fn eq(&self, a: f64, b: f64) -> bool {
        let diff = (a - b).abs();
        diff <= self.abs + self.rel * a.abs().max(b.abs())
    }

    /// Returns `true` when `v` is zero within this tolerance.
    #[must_use]
    pub fn zero(&self, v: f64) -> bool {
        self.eq(v, 0.0)
    }

    /// Returns `true` when `a <= b` or the two are equal within tolerance.
    #[must_use]
    pub fn le(&self, a: f64, b: f64) -> bool {
        a <= b || self.eq(a, b)
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            abs: DEFAULT_EPS,
            rel: DEFAULT_EPS,
        }
    }
}

/// Compares two values with the default tolerance.
///
/// # Examples
///
/// ```
/// assert!(stigmergy_geometry::approx_eq(0.1 + 0.2, 0.3));
/// assert!(!stigmergy_geometry::approx_eq(1.0, 1.1));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    Tolerance::default().eq(a, b)
}

/// Tests a value against zero with the default tolerance.
#[must_use]
pub fn approx_zero(v: f64) -> bool {
    Tolerance::default().zero(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_equality() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_zero(0.0));
    }

    #[test]
    fn classic_float_noise_is_equal() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(approx_eq(1.0e6 * (0.1 + 0.2), 1.0e6 * 0.3));
    }

    #[test]
    fn distinct_values_are_unequal() {
        assert!(!approx_eq(1.0, 1.0001));
        assert!(!approx_zero(1e-3));
    }

    #[test]
    fn relative_component_scales() {
        let tol = Tolerance::new(0.0, 1e-9);
        assert!(tol.eq(1e12, 1e12 + 100.0));
        assert!(!tol.eq(1.0, 1.0 + 100.0));
    }

    #[test]
    fn strict_ordering_respects_tolerance() {
        let tol = Tolerance::absolute(1e-6);
        assert!(tol.le(0.0, 1e-9));
        assert!(tol.le(1e-9, 0.0));
        assert!(!tol.le(1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tolerance_panics() {
        let _ = Tolerance::new(-1.0, 0.0);
    }

    #[test]
    fn default_matches_constant() {
        let tol = Tolerance::default();
        assert_eq!(tol.abs, DEFAULT_EPS);
        assert_eq!(tol.rel, DEFAULT_EPS);
    }
}
