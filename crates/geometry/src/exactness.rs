//! The squared-distance fast paths against the exact expressions they
//! stand in for, verdict for verdict:
//!
//! * [`Point::distance_cmp`] against `distance(..)` compared by `<`,
//!   `<=` and `>`;
//! * [`SlicedGranular::contains`] against `tol.le(distance, radius)`;
//! * [`SlicedGranular::half_slice`] against the zone of
//!   [`SlicedGranular::classify`].
//!
//! Seeded points are mixed with points placed within a few ulps of every
//! boundary: the circle, the tolerance edge, the edges of the band, every
//! half-slice bisector and the centre; and with NaN, infinite, zero,
//! negative and sub-normal inputs. The default budgets run in every test
//! run; the `#[ignore]`d ones (about 11 M verdicts in all) are run in
//! release by CI's work-counters job.

use crate::granular::{SliceSide, SliceZone, SlicedGranular};
use crate::{Point, Tolerance, Vec2};
use std::cmp::Ordering;
use std::f64::consts::PI;

/// A seeded stream of uniform draws in `[0, 1)`.
struct Draws(Box<dyn Iterator<Item = f64>>);

impl Draws {
    fn new(seed: u64) -> Self {
        Self(Box::new(crate::uniform_draws(seed)))
    }

    fn unit(&mut self) -> f64 {
        self.0.next().expect("endless")
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// A point in the square `[-50, 50)²`.
    fn point(&mut self) -> Point {
        Point::new(self.range(-50.0, 50.0), self.range(-50.0, 50.0))
    }

    /// A unit direction at a uniform bearing.
    fn direction(&mut self) -> Vec2 {
        Vec2::from_bearing(self.range(0.0, 2.0 * PI))
    }

    /// A positive scale spread over six decades around 1.
    fn scale(&mut self) -> f64 {
        let decade = self.range(-3.0, 3.0).floor() as i32;
        10f64.powi(decade) * self.range(1.0, 10.0)
    }
}

/// `x` moved by `k` ulps.
fn nudged(x: f64, k: i32) -> f64 {
    (0..k.unsigned_abs()).fold(x, |v, _| if k < 0 { v.next_down() } else { v.next_up() })
}

/// Multiples of an edge that probe it: the edge itself and its
/// neighbouring floats, the edges of the 2⁻³⁰ band (at about 2⁻³¹ in
/// distance) and their neighbours, and one seeded draw on either side.
fn probes(edge: f64, draws: &mut Draws) -> Vec<f64> {
    let band = 1.0 / f64::from(1u32 << 31);
    let mut out = Vec::new();
    for centre in [edge, edge * (1.0 - band), edge * (1.0 + band)] {
        out.extend((-3..=3).map(|k| nudged(centre, k)));
    }
    out.push(edge * draws.range(0.0, 1.0));
    out.push(edge * draws.range(1.0, 2.0));
    out
}

/// Checks `a.distance_cmp(b, bound)` against the distance; returns
/// whether it answered.
fn check_cmp(a: Point, b: Point, bound: f64) -> bool {
    let Some(order) = a.distance_cmp(b, bound) else {
        return false;
    };
    let d = a.distance(b);
    let exact = (d < bound, d <= bound, d > bound);
    let claimed = match order {
        Ordering::Less => (true, true, false),
        Ordering::Greater => (false, false, true),
        Ordering::Equal => panic!("distance_cmp answered Equal for {a} {b} {bound:e}"),
    };
    assert_eq!(
        claimed, exact,
        "{a} to {b} (distance {d:e}) against {bound:e}"
    );
    true
}

/// Bounds `distance_cmp` must refuse: NaN, infinite, zero, negative,
/// and those whose square leaves the normal range.
const REFUSED_BOUNDS: [f64; 9] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    -1.0,
    5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
];

fn distance_cmp_sweep(seed: u64, trials: usize) {
    let mut draws = Draws::new(seed);
    let (mut answered, mut asked) = (0usize, 0usize);
    for _ in 0..trials {
        let a = draws.point();
        let bound = draws.scale();
        let u = draws.direction();
        for reach in probes(bound, &mut draws) {
            let b = a + u * reach;
            for (p, q) in [(a, b), (b, a)] {
                asked += 1;
                answered += usize::from(check_cmp(p, q, bound));
            }
            for refused in REFUSED_BOUNDS {
                assert_eq!(a.distance_cmp(b, refused), None, "{a} {b} {refused:e}");
            }
        }
        // Sub-normal offsets: the squares underflow, the verdicts must not.
        let k = draws.range(1.0, 1e6);
        for offset in [Vec2::new(5e-324 * k, 0.0), Vec2::new(5e-324, -5e-324 * k)] {
            for from in [Point::ORIGIN, Point::new(1e-310, -3e-310)] {
                for tiny in [bound, 1e-150] {
                    assert!(check_cmp(from, from + offset, tiny), "{from} {offset}");
                }
            }
        }
    }
    // Non-finite points: answered only where the distance agrees.
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, 1.0];
    for x in odd {
        for y in odd {
            check_cmp(Point::ORIGIN, Point::new(x, y), 2.0);
            check_cmp(Point::new(x, 1.0), Point::new(y, 1.0), 0.5);
        }
    }
    // Most probes sit inside the band on purpose; the seeded draws and
    // the far side of each band edge must still be answered.
    assert!(
        answered * 4 > asked,
        "the fast path answered only {answered} of {asked}"
    );
}

/// Tolerances that take the fast paths, and ones that must fall back.
fn tolerances() -> [Tolerance; 7] {
    [
        Tolerance::default(),
        Tolerance::absolute(1e-6),
        Tolerance::new(1e-3, 0.25),
        Tolerance::new(0.0, 0.0),
        Tolerance::new(0.05, 0.5),
        Tolerance { abs: 0.1, rel: 0.7 },
        Tolerance {
            abs: f64::NAN,
            rel: 1e-9,
        },
    ]
}

/// A keyboard with a seeded centre, radius and reference.
fn keyboard(draws: &mut Draws, slices: usize) -> SlicedGranular {
    let center = draws.point();
    let radius = draws.range(0.1, 3.0);
    let reference = draws.direction() * draws.range(0.1, 10.0);
    SlicedGranular::with_reference(center, radius, slices, reference).expect("valid keyboard")
}

fn contains_sweep(seed: u64, trials: usize) {
    let mut draws = Draws::new(seed);
    for trial in 0..trials {
        let g = keyboard(&mut draws, 1 + trial % 13);
        for tol in tolerances() {
            let r = g.radius();
            let edge = (r + tol.abs) / (1.0 - tol.rel);
            let u = draws.direction();
            let mut points: Vec<Point> = [r, edge]
                .into_iter()
                .filter(|e| e.is_finite())
                .flat_map(|e| probes(e, &mut draws))
                .map(|reach| g.center() + u * reach)
                .collect();
            points.push(g.center());
            points.push(g.center() + draws.direction() * (r * draws.range(0.0, 3.0)));
            points.push(Point::new(f64::NAN, g.center().y));
            for p in points {
                assert_eq!(
                    g.contains(p, tol),
                    tol.le(g.center().distance(p), r),
                    "{g} {tol:?} {p}"
                );
            }
        }
    }
}

/// `classify`'s zone without its distance and deviation.
fn classified(g: &SlicedGranular, p: Point, tol: Tolerance) -> Option<(usize, SliceSide)> {
    match g.classify(p, tol) {
        SliceZone::Center => None,
        SliceZone::OnSlice { slice, side, .. } => Some((slice, side)),
    }
}

/// Angular offsets from a half-slice bisector: on it, within rounding
/// of it, and just beyond the margin the dot products demand.
const BISECTOR_OFFSETS: [f64; 11] = [
    0.0, 1e-16, -1e-16, 4e-16, -4e-16, 1e-15, -1e-15, 1e-12, -1e-12, 1e-8, -1e-8,
];

fn half_slice_sweep(seed: u64, trials: usize) {
    let mut draws = Draws::new(seed);
    for trial in 0..trials {
        let slices = [1, 2, 3, 4, 5, 7, 8, 13, 33, 65][trial % 10];
        let g = keyboard(&mut draws, slices);
        let step = PI / (slices as f64);
        let at =
            |clockwise: f64, reach: f64| g.center() + g.reference().rotated(-clockwise) * reach;
        let mut points = Vec::new();
        for m in 0..2 * slices {
            let reach = g.radius() * draws.range(0.01, 1.0);
            points.push(at((m as f64) * step, reach));
            for offset in BISECTOR_OFFSETS {
                points.push(at((m as f64 + 0.5) * step + offset, reach));
            }
        }
        for _ in 0..8 {
            points.push(g.center() + draws.direction() * (g.radius() * draws.range(0.0, 2.0)));
        }
        for tol in tolerances() {
            let mut here = points.clone();
            let centre_edge = tol.abs / (1.0 - tol.rel);
            if centre_edge.is_finite() && centre_edge > 0.0 {
                let u = draws.direction();
                here.extend(
                    probes(centre_edge, &mut draws)
                        .into_iter()
                        .map(|t| g.center() + u * t),
                );
            }
            here.push(g.center());
            here.push(Point::new(g.center().x, f64::NAN));
            for p in here {
                assert_eq!(
                    g.half_slice(p, tol),
                    classified(&g, p, tol),
                    "{g} {tol:?} {p}"
                );
            }
        }
    }
}

#[test]
fn distance_cmp_agrees_with_the_distance() {
    distance_cmp_sweep(0xD15_7A4E, 400);
}

#[test]
fn contains_agrees_with_the_tolerance_test() {
    contains_sweep(0xC0_47A1, 200);
}

#[test]
fn half_slice_agrees_with_classify() {
    half_slice_sweep(0x5_11CE, 100);
}

#[test]
#[ignore = "large seeded budget; run in release with --include-ignored"]
fn distance_cmp_agrees_with_the_distance_large() {
    distance_cmp_sweep(0xD15_7A4F, 12_000);
}

#[test]
#[ignore = "large seeded budget; run in release with --include-ignored"]
fn contains_agrees_with_the_tolerance_test_large() {
    contains_sweep(0xC0_47A2, 8_000);
}

#[test]
#[ignore = "large seeded budget; run in release with --include-ignored"]
fn half_slice_agrees_with_classify_large() {
    half_slice_sweep(0x5_11CF, 3_000);
}
