//! Private coordinate frames.
//!
//! Each robot has its own x-y Cartesian coordinate system with its own unit
//! measure (§2 of the paper). A [`LocalFrame`] is a similarity transform —
//! translation + rotation + positive uniform scale — between world
//! coordinates (known only to the engine) and the robot's local
//! coordinates. **No reflection** is ever applied: the paper's robots share
//! chirality, so all frames have the same handedness.
//!
//! When the cohort has *sense of direction*, every frame's rotation is zero
//! (they agree on North); otherwise rotations are arbitrary per robot.

use stigmergy_geometry::{Point, Rotation, Vec2};
use stigmergy_scheduler::rng::SplitMix64;

/// A similarity transform between world and local coordinates.
///
/// `local = R(−rotation) · (world − origin) / scale`
///
/// Both rotations are fixed when the frame is made, so their sines and
/// cosines are evaluated once there rather than on every mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalFrame {
    origin: Point,
    rotation: f64,
    scale: f64,
    /// `R(rotation)`, local to world.
    to_world_rotation: Rotation,
    /// `R(−rotation)`, world to local: the angle is negated, not the
    /// sine, so the bits equal `rotated(-rotation)`.
    to_local_rotation: Rotation,
}

impl LocalFrame {
    /// Creates a frame with the given world origin, rotation (radians,
    /// counter-clockwise, the direction of the local +y axis relative to
    /// world +y), and unit scale factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive (a negative scale would
    /// flip handedness, which the chirality assumption forbids).
    #[must_use]
    pub fn new(origin: Point, rotation: f64, scale: f64) -> Self {
        assert!(
            scale > 0.0,
            "frame scale must be positive (chirality forbids reflection)"
        );
        Self {
            origin,
            rotation,
            scale,
            to_world_rotation: Rotation::new(rotation),
            to_local_rotation: Rotation::new(-rotation),
        }
    }

    /// The identity frame: local coordinates equal world coordinates.
    #[must_use]
    pub fn identity() -> Self {
        Self::new(Point::ORIGIN, 0.0, 1.0)
    }

    /// The frame's world origin.
    #[must_use]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// The frame's rotation in radians.
    #[must_use]
    pub fn rotation(&self) -> f64 {
        self.rotation
    }

    /// The frame's unit scale.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Maps a world point into local coordinates.
    #[must_use]
    pub fn to_local(&self, world: Point) -> Point {
        let v = self.to_local_rotation.apply(world - self.origin) / self.scale;
        Point::from(v)
    }

    /// Maps a local point back to world coordinates.
    #[must_use]
    pub fn to_world(&self, local: Point) -> Point {
        self.origin + self.to_world_rotation.apply(local.to_vec()) * self.scale
    }

    /// Maps a world displacement into local coordinates (no translation).
    #[must_use]
    pub fn dir_to_local(&self, world: Vec2) -> Vec2 {
        self.to_local_rotation.apply(world) / self.scale
    }

    /// Maps a local displacement back to world coordinates.
    #[must_use]
    pub fn dir_to_world(&self, local: Vec2) -> Vec2 {
        self.to_world_rotation.apply(local) * self.scale
    }

    /// Converts a world length to local units.
    #[must_use]
    pub fn len_to_local(&self, world_len: f64) -> f64 {
        world_len / self.scale
    }

    /// Converts a local length to world units.
    #[must_use]
    pub fn len_to_world(&self, local_len: f64) -> f64 {
        local_len * self.scale
    }
}

impl Default for LocalFrame {
    fn default() -> Self {
        Self::identity()
    }
}

/// Generates per-robot frames honouring the cohort's capabilities.
///
/// * Origins: each robot's own initial position (a robot sees itself at its
///   frame origin at `t0`).
/// * Rotations: zero when the cohort has sense of direction, otherwise
///   seeded-random per robot.
/// * Scales: seeded-random in `[0.5, 2)` (the paper's "own unit measure").
#[derive(Debug, Clone)]
pub struct FrameGenerator {
    rng: SplitMix64,
    sense_of_direction: bool,
}

impl FrameGenerator {
    /// Creates a generator with the given seed.
    #[must_use]
    pub fn new(seed: u64, sense_of_direction: bool) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            sense_of_direction,
        }
    }

    /// Generates one frame per initial position.
    #[must_use]
    pub fn frames(&mut self, initial_positions: &[Point]) -> Vec<LocalFrame> {
        initial_positions
            .iter()
            .map(|&p| {
                let rotation = if self.sense_of_direction {
                    0.0
                } else {
                    self.rng.next_f64() * std::f64::consts::TAU
                };
                let scale = 0.5 + 1.5 * self.rng.next_f64();
                LocalFrame::new(p, rotation, scale)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn identity_is_transparent() {
        let f = LocalFrame::identity();
        let p = Point::new(3.0, -2.0);
        assert_eq!(f.to_local(p), p);
        assert_eq!(f.to_world(p), p);
        assert_eq!(f.len_to_local(5.0), 5.0);
    }

    /// The mappings as written before the rotations were cached.
    fn mappings_uncached(f: &LocalFrame, p: Point) -> [Vec2; 4] {
        let v = p.to_vec();
        [
            (p - f.origin()).rotated(-f.rotation()) / f.scale(),
            f.origin().to_vec() + v.rotated(f.rotation()) * f.scale(),
            v.rotated(-f.rotation()) / f.scale(),
            v.rotated(f.rotation()) * f.scale(),
        ]
    }

    #[test]
    fn cached_rotations_match_the_uncached_mappings_bit_for_bit() {
        let mut rng = SplitMix64::new(0xF4A3);
        let mut frames = FrameGenerator::new(7, false).frames(&[Point::ORIGIN; 16]);
        frames.extend(FrameGenerator::new(7, true).frames(&[Point::new(3.0, -1.0); 4]));
        frames.push(LocalFrame::new(Point::new(-0.0, 0.0), -0.0, 1.0));
        frames.push(LocalFrame::new(Point::new(2.0, 5.0), -1e-300, 0.75));
        frames.push(LocalFrame::new(Point::new(1.0, 1.0), 40.0, 1.5));
        frames.extend((0..64).map(|_| {
            let origin = Point::new(
                rng.next_f64() * 200.0 - 100.0,
                rng.next_f64() * 200.0 - 100.0,
            );
            LocalFrame::new(
                origin,
                (rng.next_f64() - 0.5) * 30.0,
                0.01 + rng.next_f64() * 4.0,
            )
        }));
        for f in &frames {
            for _ in 0..64 {
                let p = Point::new(rng.next_f64() * 200.0 - 100.0, rng.next_f64() * 2e-3 - 1e-3);
                let v = p.to_vec();
                let got = [
                    f.to_local(p).to_vec(),
                    f.to_world(p).to_vec(),
                    f.dir_to_local(v),
                    f.dir_to_world(v),
                ];
                let bits = |w: [Vec2; 4]| w.map(|v| (v.x.to_bits(), v.y.to_bits()));
                assert_eq!(bits(got), bits(mappings_uncached(f, p)), "{f:?} {p}");
            }
        }
    }

    #[test]
    fn roundtrip() {
        let f = LocalFrame::new(Point::new(10.0, -4.0), 1.234, 2.5);
        for p in [
            Point::ORIGIN,
            Point::new(1.0, 2.0),
            Point::new(-100.0, 55.5),
        ] {
            assert!(f.to_world(f.to_local(p)).approx_eq(p));
            assert!(f.to_local(f.to_world(p)).approx_eq(p));
        }
        let v = Vec2::new(3.0, -1.0);
        assert!(f.dir_to_world(f.dir_to_local(v)).approx_eq(v));
    }

    #[test]
    fn rotation_maps_axes() {
        // A frame rotated +90°: its local North is world West.
        let f = LocalFrame::new(Point::ORIGIN, FRAC_PI_2, 1.0);
        assert!(f.dir_to_world(Vec2::NORTH).approx_eq(-Vec2::EAST));
        assert!(f.dir_to_local(Vec2::NORTH).approx_eq(Vec2::EAST));
    }

    #[test]
    fn scale_maps_lengths() {
        let f = LocalFrame::new(Point::ORIGIN, 0.0, 4.0);
        assert_eq!(f.len_to_local(8.0), 2.0);
        assert_eq!(f.len_to_world(2.0), 8.0);
        assert!(f
            .to_local(Point::new(4.0, 0.0))
            .approx_eq(Point::new(1.0, 0.0)));
    }

    #[test]
    fn origin_is_self() {
        let f = LocalFrame::new(Point::new(7.0, 7.0), 0.3, 1.7);
        assert!(f.to_local(Point::new(7.0, 7.0)).approx_eq(Point::ORIGIN));
    }

    #[test]
    fn frames_preserve_chirality() {
        // Cross products keep their sign through any generated frame.
        let mut generator = FrameGenerator::new(12, false);
        let frames = generator.frames(&[Point::ORIGIN, Point::new(1.0, 0.0)]);
        for f in frames {
            let a = f.dir_to_local(Vec2::EAST);
            let b = f.dir_to_local(Vec2::NORTH);
            assert!(a.cross(b) > 0.0, "handedness flipped by {f:?}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_scale_panics() {
        let _ = LocalFrame::new(Point::ORIGIN, 0.0, -1.0);
    }

    #[test]
    fn sense_of_direction_zeroes_rotation() {
        let mut generator = FrameGenerator::new(5, true);
        let frames = generator.frames(&[Point::ORIGIN, Point::new(3.0, 3.0)]);
        assert!(frames.iter().all(|f| f.rotation() == 0.0));
        // Scales still vary.
        assert_ne!(frames[0].scale(), frames[1].scale());
    }

    #[test]
    fn no_direction_randomizes_rotation() {
        let mut generator = FrameGenerator::new(5, false);
        let frames = generator.frames(&[Point::ORIGIN, Point::new(3.0, 3.0)]);
        assert_ne!(frames[0].rotation(), frames[1].rotation());
    }

    #[test]
    fn deterministic_per_seed() {
        let pts = [Point::ORIGIN, Point::new(2.0, 2.0)];
        let a = FrameGenerator::new(9, false).frames(&pts);
        let b = FrameGenerator::new(9, false).frames(&pts);
        assert_eq!(a, b);
    }
}
