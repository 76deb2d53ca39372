//! Shared helpers for the cross-crate integration tests (the tests live
//! in `tests/`).

use stigmergy_fleet::{fnv1a64_update, BatchReport};
use stigmergy_geometry::Point;

/// An irregular ring: the workhorse valid configuration.
#[must_use]
pub fn ring(n: usize, radius: f64) -> Vec<Point> {
    (0..n)
        .map(|k| {
            let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
            let r = radius * (1.0 + 0.03 * (k as f64 + 1.0) / (n as f64));
            Point::new(r * theta.sin(), r * theta.cos())
        })
        .collect()
}

/// Folds every run's trace hash and length, report order included, into
/// one FNV-1a fingerprint of a whole batch.
#[must_use]
pub fn fingerprint(report: &BatchReport) -> u64 {
    report
        .runs
        .iter()
        .fold(stigmergy_fleet::trace_codec::FNV_BASIS, |acc, r| {
            let acc = fnv1a64_update(acc, &r.trace_hash.to_le_bytes());
            fnv1a64_update(acc, &(r.trace_len as u64).to_le_bytes())
        })
}
