//! A tiny deterministic PRNG for schedulers.
//!
//! Schedulers must be `Clone` (experiments re-run the same adversary
//! against several protocols) and bit-for-bit reproducible across
//! platforms. SplitMix64 is tiny, fast, passes BigCrush, and — unlike a
//! library RNG — its output sequence is pinned by this crate, so recorded
//! experiment seeds stay valid forever.

/// SplitMix64 pseudo-random generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling (Lemire); bias is < 2^-64 * bound,
        // negligible for scheduler-sized bounds.
        let x = self.next_u64();
        ((u128::from(x) * bound as u128) >> 64) as usize
    }
}

/// Rotation applied to the stream identifier in [`derive_stream`].
pub const STREAM_ROT: u32 = 17;
/// Rotation applied to the robot index in [`derive_stream`].
pub const ROBOT_ROT: u32 = 31;
/// Rotation applied to the time instant in [`derive_stream`].
pub const TIME_ROT: u32 = 47;

/// Derives an independent decision stream from `(seed, stream, robot, t)`.
///
/// This is the single key-derivation function behind every per-decision
/// RNG in the workspace (fault plans query one stream per decision).
/// The key components are XOR-combined at fixed rotations — [`STREAM_ROT`]
/// for the stream tag, [`ROBOT_ROT`] for the robot index, [`TIME_ROT`] for
/// the instant — so that for realistic magnitudes (stream tags are 32-bit
/// ASCII constants, robots and instants are small integers) no two
/// components collide in the same bit positions. The mixed key is then
/// scrambled through one SplitMix64 output step before seeding the
/// returned generator: without the scramble, keys differing in one bit
/// would put the generators in trivially related states.
///
/// Contract, pinned by tests (`stream_derivation_constants_are_pinned`,
/// `robots_never_share_a_draw_at_the_same_instant`):
///
/// * the derivation is a pure function — same key, same stream, in any
///   query order;
/// * two distinct robots at the same instant (same seed, same stream
///   tag) never receive the same generator state, so they never share a
///   draw;
/// * the rotation constants are part of the on-disk format: recorded
///   experiment seeds replay faulted runs bit-for-bit, so changing them
///   is a breaking change to every golden trace and recorded seed.
#[must_use]
pub fn derive_stream(seed: u64, stream: u64, robot: usize, t: u64) -> SplitMix64 {
    let key = seed
        ^ stream.rotate_left(STREAM_ROT)
        ^ (robot as u64).rotate_left(ROBOT_ROT)
        ^ t.rotate_left(TIME_ROT);
    let mut mixer = SplitMix64::new(key);
    SplitMix64::new(mixer.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut r = SplitMix64::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn below_in_range_and_covers() {
        let mut r = SplitMix64::new(13);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = r.below(5);
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn below_zero_panics() {
        let _ = SplitMix64::new(0).below(0);
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = SplitMix64::new(21);
        let _ = a.next_u64();
        let mut b = a;
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// The derivation constants are part of the replay format: these
    /// exact first draws must never change, or every recorded seed and
    /// golden trace in the workspace silently re-randomizes.
    #[test]
    fn stream_derivation_constants_are_pinned() {
        assert_eq!((STREAM_ROT, ROBOT_ROT, TIME_ROT), (17, 31, 47));
        const NON_RIGID: u64 = 0x4E52_4744;
        const DROPOUT: u64 = 0x4452_4F50;
        let pinned: [(u64, u64, usize, u64, u64); 4] = [
            (0, NON_RIGID, 0, 0, 0xA1F1_F972_9883_D86B),
            (0, DROPOUT, 0, 0, 0x37C8_9C29_3B81_1265),
            (0xDEAD_BEEF, NON_RIGID, 2, 35, 0xDB92_B4EE_C7C2_9D36),
            (42, DROPOUT, 3, 1000, 0x85E3_782F_3AFA_B491),
        ];
        for (seed, stream, robot, t, expect) in pinned {
            assert_eq!(
                derive_stream(seed, stream, robot, t).next_u64(),
                expect,
                "derivation drifted for seed={seed:#x} stream={stream:#x} robot={robot} t={t}"
            );
        }
    }

    /// Cross-robot independence: two robots querying the same stream at
    /// the same instant must never share a draw — otherwise one robot's
    /// fault decision would be correlated with another's.
    #[test]
    fn robots_never_share_a_draw_at_the_same_instant() {
        for stream in [0x4E52_4744u64, 0x4452_4F50] {
            for t in 0..200 {
                let draws: Vec<u64> = (0..8)
                    .map(|robot| derive_stream(7, stream, robot, t).next_u64())
                    .collect();
                for i in 0..draws.len() {
                    for j in (i + 1)..draws.len() {
                        assert_ne!(
                            draws[i], draws[j],
                            "robots {i} and {j} share a draw at t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn derive_stream_is_order_independent() {
        let a = derive_stream(9, 1, 4, 100).next_u64();
        let _ = derive_stream(9, 1, 5, 100).next_u64();
        let b = derive_stream(9, 1, 4, 100).next_u64();
        assert_eq!(a, b);
    }
}
