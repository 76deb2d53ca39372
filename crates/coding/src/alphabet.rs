//! Displacement-level alphabets (§3.1's byte optimisation).
//!
//! The basic protocol sends one bit per (move, return) pair: the *side*
//! of the move carries the bit and the magnitude is fixed. The paper
//! observes that if a robot knows the maximum distance `σ` its peer can
//! cover, the total lateral range `2σ` can be subdivided so each move
//! carries a whole symbol: "the total distance 2σ … can be divided by the
//! number of possible bytes". [`LevelAlphabet`] realises this: `levels`
//! distinct magnitudes per side yield an alphabet of `2·levels` symbols,
//! i.e. `log2(2·levels)` bits per move.
//!
//! The mapping is pure data ↔ displacement-fraction; the protocols translate
//! fractions into actual granular moves.

use crate::bits::{Bit, BitString};
use crate::CodingError;

/// A symbol alphabet realised as quantized displacement levels.
///
/// Symbols `0 .. levels` map to the zero side (fractions of increasing
/// magnitude); symbols `levels .. 2·levels` map to the one side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelAlphabet {
    levels: usize,
}

/// A decoded or to-be-encoded displacement: which side and what fraction of
/// the maximal lateral distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Displacement {
    /// `false` = zero side (right/North-East), `true` = one side.
    pub one_side: bool,
    /// Fraction of the maximal lateral distance, in `(0, 1]`.
    pub fraction: f64,
}

impl LevelAlphabet {
    /// Creates an alphabet with `levels` magnitudes per side.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::AlphabetTooSmall`] if `levels == 0`.
    pub fn new(levels: usize) -> Result<Self, CodingError> {
        if levels == 0 {
            return Err(CodingError::AlphabetTooSmall { got: 0 });
        }
        Ok(Self { levels })
    }

    /// The binary alphabet of the basic protocol: one level per side.
    #[must_use]
    pub fn binary() -> Self {
        Self { levels: 1 }
    }

    /// Number of distinct symbols (`2 · levels`).
    #[must_use]
    pub fn size(&self) -> usize {
        2 * self.levels
    }

    /// Whole bits carried per symbol: `floor(log2(size))`.
    #[must_use]
    pub fn bits_per_symbol(&self) -> usize {
        usize::BITS as usize - 1 - self.size().leading_zeros() as usize
    }

    /// Encodes a symbol as a displacement.
    ///
    /// Magnitudes are spaced uniformly in `(0, 1]`: level `ℓ` of `L` maps to
    /// fraction `(ℓ+1)/L`, keeping every symbol's magnitude strictly
    /// positive (a zero-magnitude move would be *silence*).
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::SymbolOutOfRange`] for `symbol ≥ size()`.
    pub fn encode(&self, symbol: usize) -> Result<Displacement, CodingError> {
        if symbol >= self.size() {
            return Err(CodingError::SymbolOutOfRange {
                symbol,
                alphabet: self.size(),
            });
        }
        let (one_side, level) = if symbol < self.levels {
            (false, symbol)
        } else {
            (true, symbol - self.levels)
        };
        Ok(Displacement {
            one_side,
            fraction: (level + 1) as f64 / self.levels as f64,
        })
    }

    /// Decodes an observed displacement back to the nearest symbol.
    ///
    /// The fraction is snapped to the nearest level, so decoding tolerates
    /// observation noise up to half a level.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::SymbolOutOfRange`] for non-positive fractions
    /// (no move is not a symbol).
    pub fn decode(&self, d: Displacement) -> Result<usize, CodingError> {
        if d.fraction.is_nan() || d.fraction <= 0.0 {
            return Err(CodingError::SymbolOutOfRange {
                symbol: 0,
                alphabet: self.size(),
            });
        }
        let level = (d.fraction * self.levels as f64)
            .round()
            .clamp(1.0, self.levels as f64) as usize
            - 1;
        Ok(if d.one_side {
            self.levels + level
        } else {
            level
        })
    }

    /// Packs a bit string into symbols, `bits_per_symbol` bits each,
    /// MSB-first, zero-padding the tail.
    #[must_use]
    pub fn pack(&self, bits: &BitString) -> Vec<usize> {
        let w = self.bits_per_symbol().max(1);
        bits.as_slice()
            .chunks(w)
            .map(|chunk| {
                let mut v = 0usize;
                for b in chunk {
                    v = (v << 1) | usize::from(b.as_bool());
                }
                // Pad the tail as if the missing bits were zero.
                v << (w - chunk.len())
            })
            .collect()
    }

    /// Unpacks symbols back into a bit string (`count` total bits, to strip
    /// the padding added by [`LevelAlphabet::pack`]).
    #[must_use]
    pub fn unpack(&self, symbols: &[usize], count: usize) -> BitString {
        let w = self.bits_per_symbol().max(1);
        let mut bits = BitString::new();
        for &s in symbols {
            for i in (0..w).rev() {
                bits.push(Bit::from_bool(s & (1 << i) != 0));
            }
        }
        bits.prefix(count)
    }

    /// How many moves a message of `bit_count` bits costs under this
    /// alphabet (excluding return moves).
    #[must_use]
    pub fn moves_for(&self, bit_count: usize) -> usize {
        bit_count.div_ceil(self.bits_per_symbol().max(1))
    }
}

/// A magnitude-only alphabet for the *paced* multi-symbol discipline.
///
/// Unlike [`LevelAlphabet`], which spends the move's *side* on one data
/// bit, the paced protocols use the side purely for pacing (it alternates
/// with the symbol index so the receiver can delimit symbols) and carry
/// all `log2(levels)` data bits in the magnitude. Keeping side out of the
/// data path is what lets a receiver that missed a whole symbol *detect*
/// the miss from the side-parity skew and turn it into an erasure for
/// [`fec`](crate::fec) instead of a silent bit slip.
///
/// Quantization is deterministic: fractions are snapped by rounding
/// `fraction · levels` to the nearest integer, and anything below half
/// the lowest level (`MagnitudeAlphabet::silence_threshold`) is
/// *silence*, never a symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MagnitudeAlphabet {
    levels: usize,
}

impl MagnitudeAlphabet {
    /// Creates an alphabet of `levels` magnitudes (one symbol per level).
    ///
    /// `levels` must be a power of two so symbols carry a whole number of
    /// bits and FEC blocks pack exactly.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::AlphabetTooSmall`] unless `levels` is a
    /// power of two and at least 2.
    pub fn new(levels: usize) -> Result<Self, CodingError> {
        if levels < 2 || !levels.is_power_of_two() {
            return Err(CodingError::AlphabetTooSmall { got: levels });
        }
        Ok(Self { levels })
    }

    /// Number of distinct symbols (= magnitude levels).
    #[must_use]
    pub fn size(&self) -> usize {
        self.levels
    }

    /// Bits carried per symbol: `log2(levels)`, always exact.
    #[must_use]
    pub fn bits_per_symbol(&self) -> usize {
        self.levels.trailing_zeros() as usize
    }

    /// The displacement fraction of `level`, uniform in `(0, 1]`:
    /// `(level+1)/levels`, so even level 0 is a visible move.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::SymbolOutOfRange`] for `level ≥ levels`.
    pub fn fraction(&self, level: usize) -> Result<f64, CodingError> {
        if level >= self.levels {
            return Err(CodingError::SymbolOutOfRange {
                symbol: level,
                alphabet: self.levels,
            });
        }
        Ok((level + 1) as f64 / self.levels as f64)
    }

    /// Below this fraction an observation is *silence*, not a symbol:
    /// half the lowest level, `0.5 / levels`.
    #[must_use]
    fn silence_threshold(&self) -> f64 {
        0.5 / self.levels as f64
    }

    /// Deterministically quantizes an observed fraction: `None` for
    /// silence (below `MagnitudeAlphabet::silence_threshold`, NaN, or
    /// negative), otherwise the nearest level, clamped.
    #[must_use]
    pub fn classify(&self, fraction: f64) -> Option<usize> {
        if fraction.is_nan() || fraction < self.silence_threshold() {
            return None;
        }
        let level = (fraction * self.levels as f64)
            .round()
            .clamp(1.0, self.levels as f64) as usize
            - 1;
        Some(level)
    }

    /// Packs a bit string into `bits_per_symbol`-wide words, MSB-first,
    /// zero-padding the tail — the symbol stream handed to
    /// [`fec`](crate::fec).
    #[must_use]
    pub fn pack(&self, bits: &BitString) -> Vec<u16> {
        let w = self.bits_per_symbol();
        bits.as_slice()
            .chunks(w)
            .map(|chunk| {
                let mut v = 0u16;
                for b in chunk {
                    v = (v << 1) | u16::from(b.as_bool());
                }
                v << (w - chunk.len())
            })
            .collect()
    }

    /// Unpacks words back into a bit string, truncated to `count` bits to
    /// strip [`MagnitudeAlphabet::pack`]'s padding.
    #[must_use]
    pub fn unpack(&self, symbols: &[u16], count: usize) -> BitString {
        let w = self.bits_per_symbol();
        let mut bits = BitString::new();
        for &s in symbols {
            for i in (0..w).rev() {
                bits.push(Bit::from_bool(s & (1 << i) != 0));
            }
        }
        bits.prefix(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        assert!(LevelAlphabet::new(0).is_err());
        assert_eq!(LevelAlphabet::new(1).unwrap(), LevelAlphabet::binary());
        assert_eq!(LevelAlphabet::binary().size(), 2);
    }

    #[test]
    fn bits_per_symbol() {
        assert_eq!(LevelAlphabet::binary().bits_per_symbol(), 1);
        assert_eq!(LevelAlphabet::new(2).unwrap().bits_per_symbol(), 2);
        assert_eq!(LevelAlphabet::new(4).unwrap().bits_per_symbol(), 3);
        assert_eq!(LevelAlphabet::new(128).unwrap().bits_per_symbol(), 8);
        // Non-power-of-two sizes floor.
        assert_eq!(LevelAlphabet::new(3).unwrap().bits_per_symbol(), 2);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for levels in [1usize, 2, 3, 4, 8, 16] {
            let a = LevelAlphabet::new(levels).unwrap();
            for s in 0..a.size() {
                let d = a.encode(s).unwrap();
                assert!(d.fraction > 0.0 && d.fraction <= 1.0);
                assert_eq!(a.decode(d).unwrap(), s, "levels={levels} symbol={s}");
            }
        }
    }

    #[test]
    fn binary_matches_side_semantics() {
        let a = LevelAlphabet::binary();
        let zero = a.encode(0).unwrap();
        let one = a.encode(1).unwrap();
        assert!(!zero.one_side && one.one_side);
        assert_eq!(zero.fraction, 1.0);
        assert_eq!(one.fraction, 1.0);
    }

    #[test]
    fn decode_snaps_noise() {
        let a = LevelAlphabet::new(4).unwrap();
        // Level 2 of 4 → fraction 0.75; observe 0.72.
        let s = a
            .decode(Displacement {
                one_side: false,
                fraction: 0.72,
            })
            .unwrap();
        assert_eq!(s, 2);
    }

    #[test]
    fn decode_rejects_silence() {
        let a = LevelAlphabet::binary();
        assert!(a
            .decode(Displacement {
                one_side: false,
                fraction: 0.0
            })
            .is_err());
    }

    #[test]
    fn out_of_range_symbol() {
        let a = LevelAlphabet::new(2).unwrap();
        assert!(matches!(
            a.encode(4),
            Err(CodingError::SymbolOutOfRange {
                symbol: 4,
                alphabet: 4
            })
        ));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let a = LevelAlphabet::new(4).unwrap(); // 3 bits per symbol
        let bits = BitString::parse("1011001110001").unwrap(); // 13 bits
        let symbols = a.pack(&bits);
        assert_eq!(symbols.len(), 5); // ceil(13/3)
        assert!(symbols.iter().all(|&s| s < a.size()));
        let back = a.unpack(&symbols, bits.len());
        assert_eq!(back, bits);
    }

    #[test]
    fn pack_unpack_binary_is_identity() {
        let a = LevelAlphabet::binary();
        let bits = BitString::parse("0101").unwrap();
        let symbols = a.pack(&bits);
        assert_eq!(symbols, vec![0, 1, 0, 1]);
        assert_eq!(a.unpack(&symbols, 4), bits);
    }

    #[test]
    fn moves_for_speedup() {
        // The §3.1 claim: a larger alphabet shrinks the number of moves.
        let bits = 800; // a 100-byte message
        assert_eq!(LevelAlphabet::binary().moves_for(bits), 800);
        assert_eq!(LevelAlphabet::new(128).unwrap().moves_for(bits), 100);
        assert!(LevelAlphabet::new(8).unwrap().moves_for(bits) < 800 / 3);
    }

    #[test]
    fn magnitude_construction_requires_power_of_two() {
        for bad in [0usize, 1, 3, 6, 12] {
            assert_eq!(
                MagnitudeAlphabet::new(bad),
                Err(CodingError::AlphabetTooSmall { got: bad })
            );
        }
        for (levels, bits) in [(2usize, 1usize), (4, 2), (8, 3), (16, 4)] {
            let a = MagnitudeAlphabet::new(levels).unwrap();
            assert_eq!(a.size(), levels);
            assert_eq!(a.bits_per_symbol(), bits);
        }
    }

    #[test]
    fn magnitude_fraction_classify_roundtrip() {
        for levels in [2usize, 4, 8, 16] {
            let a = MagnitudeAlphabet::new(levels).unwrap();
            for level in 0..levels {
                let f = a.fraction(level).unwrap();
                assert!(f > 0.0 && f <= 1.0);
                assert_eq!(a.classify(f), Some(level), "levels={levels} l={level}");
                // Quantization tolerates noise just under half a level.
                let noise = 0.4 / levels as f64;
                assert_eq!(a.classify(f - noise), Some(level));
                assert_eq!(a.classify((f + noise).min(1.0 + noise)), Some(level));
            }
        }
    }

    #[test]
    fn magnitude_silence_is_never_a_symbol() {
        let a = MagnitudeAlphabet::new(8).unwrap();
        assert_eq!(a.classify(0.0), None);
        assert_eq!(a.classify(-0.3), None);
        assert_eq!(a.classify(f64::NAN), None);
        assert_eq!(a.classify(a.silence_threshold() * 0.99), None);
        assert_eq!(a.classify(a.silence_threshold()), Some(0));
        assert!(a.fraction(8).is_err());
    }

    #[test]
    fn magnitude_pack_unpack_roundtrip() {
        let a = MagnitudeAlphabet::new(8).unwrap(); // 3 bits per word
        let bits = BitString::parse("1011001110001").unwrap(); // 13 bits
        let words = a.pack(&bits);
        assert_eq!(words.len(), 5);
        assert!(words.iter().all(|&w| usize::from(w) < a.size()));
        assert_eq!(a.unpack(&words, bits.len()), bits);
    }

    #[test]
    fn full_message_via_alphabet() {
        let a = LevelAlphabet::new(8).unwrap();
        let bits = BitString::from_bytes(b"waggle dance");
        let symbols = a.pack(&bits);
        // Simulate transmission symbol by symbol through displacements.
        let mut received = Vec::new();
        for s in symbols {
            let d = a.encode(s).unwrap();
            received.push(a.decode(d).unwrap());
        }
        let back = a.unpack(&received, bits.len());
        assert_eq!(back.to_bytes().unwrap(), b"waggle dance".to_vec());
    }
}
