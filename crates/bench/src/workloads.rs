//! Seeded workload generators: robot configurations and message loads.
//!
//! All generators are deterministic per seed, so every experiment row is
//! reproducible bit-for-bit.

use stigmergy_geometry::Point;
use stigmergy_scheduler::rng::SplitMix64;

/// An irregular ring of `n` robots: radii jittered so no configuration is
/// rotationally symmetric and no robot sits at the SEC centre.
#[must_use]
pub fn ring(n: usize, radius: f64) -> Vec<Point> {
    (0..n)
        .map(|k| {
            let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
            let r = radius * (1.0 + 0.02 * (k as f64 + 1.0) / (n as f64));
            Point::new(r * theta.sin(), r * theta.cos())
        })
        .collect()
}

/// `n` robots uniform in a square of side `extent`, rejection-sampled so
/// all pairwise distances exceed `min_sep`.
///
/// # Panics
///
/// Panics if the density is so high that placement fails (caller bug).
#[must_use]
pub fn uniform(n: usize, extent: f64, min_sep: f64, seed: u64) -> Vec<Point> {
    let mut rng = SplitMix64::new(seed);
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while pts.len() < n {
        attempts += 1;
        assert!(
            attempts < 100_000,
            "cannot place {n} robots with separation {min_sep} in {extent}"
        );
        let p = Point::new(rng.next_f64() * extent, rng.next_f64() * extent);
        if pts.iter().all(|q| q.distance(p) >= min_sep) {
            pts.push(p);
        }
    }
    pts
}

/// The twelve-robot layout in the spirit of the paper's Fig. 2.
#[must_use]
pub fn fig2_layout() -> Vec<Point> {
    // Hand-placed so every granular is comfortably large and the SEC is
    // pinned by rim robots.
    vec![
        Point::new(0.0, 0.0),   // 0
        Point::new(14.0, 2.0),  // 1
        Point::new(26.0, -1.0), // 2
        Point::new(5.0, 12.0),  // 3
        Point::new(18.0, 13.0), // 4
        Point::new(30.0, 11.0), // 5
        Point::new(-3.0, 24.0), // 6
        Point::new(11.0, 25.0), // 7
        Point::new(24.0, 26.0), // 8
        Point::new(2.0, 37.0),  // 9
        Point::new(16.0, 38.0), // 10
        Point::new(29.0, 36.0), // 11
    ]
}

/// The six-robot configuration of the paper's Fig. 3: three robots plus
/// their images under a half-turn about the origin — rotationally
/// symmetric, so no deterministic *common* naming exists without sense of
/// direction.
#[must_use]
pub fn fig3_symmetric() -> Vec<Point> {
    let base = [
        Point::new(10.0, 2.0),
        Point::new(4.0, 13.0),
        Point::new(-8.0, 9.0),
    ];
    let mut pts = base.to_vec();
    pts.extend(base.iter().map(|p| Point::new(-p.x, -p.y)));
    pts
}

/// A deterministic pseudo-random payload of `len` bytes.
#[must_use]
pub fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_geometry::smallest_enclosing_circle;

    #[test]
    fn ring_has_distinct_points() {
        let pts = ring(16, 10.0);
        assert_eq!(pts.len(), 16);
        for i in 0..16 {
            for j in (i + 1)..16 {
                assert!(pts[i].distance(pts[j]) > 1e-6);
            }
        }
    }

    #[test]
    fn uniform_respects_separation() {
        let pts = uniform(20, 100.0, 5.0, 42);
        assert_eq!(pts.len(), 20);
        for i in 0..20 {
            for j in (i + 1)..20 {
                assert!(pts[i].distance(pts[j]) >= 5.0);
            }
        }
    }

    #[test]
    fn uniform_is_seed_deterministic() {
        assert_eq!(uniform(10, 50.0, 2.0, 7), uniform(10, 50.0, 2.0, 7));
        assert_ne!(uniform(10, 50.0, 2.0, 7), uniform(10, 50.0, 2.0, 8));
    }

    #[test]
    fn fig3_is_half_turn_symmetric() {
        let pts = fig3_symmetric();
        let sec = smallest_enclosing_circle(&pts).unwrap();
        for p in &pts {
            let mirrored = Point::new(2.0 * sec.center.x - p.x, 2.0 * sec.center.y - p.y);
            assert!(
                pts.iter().any(|q| q.distance(mirrored) < 1e-6),
                "half-turn image of {p} missing"
            );
        }
    }

    #[test]
    fn fig2_layout_is_valid() {
        let pts = fig2_layout();
        assert_eq!(pts.len(), 12);
        for i in 0..12 {
            for j in (i + 1)..12 {
                assert!(pts[i].distance(pts[j]) > 5.0, "{i},{j} too close");
            }
        }
    }

    #[test]
    fn payload_deterministic() {
        assert_eq!(payload(16, 3), payload(16, 3));
        assert_ne!(payload(16, 3), payload(16, 4));
        assert_eq!(payload(5, 0).len(), 5);
    }
}
