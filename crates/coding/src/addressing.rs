//! Base-`k` addressing (§5 of the paper).
//!
//! Slicing a granular into `2n` directions assumes robots can distinguish
//! `2n` angles. When sensing is coarse (§5's round-off discussion), the
//! paper proposes using only `k + 1` segments: one for the message bits and
//! `k` for transmitting the *index* of the addressee as base-`k` digits —
//! `⌈log_k n⌉` symbols per message instead of an `n`-way slice choice. This
//! module provides the digit codecs and the step-count model behind
//! experiment E4.

use crate::CodingError;

/// Encodes `value` as exactly `digits` base-`radix` digits, most significant
/// first.
///
/// # Errors
///
/// * [`CodingError::AlphabetTooSmall`] if `radix < 2`.
/// * [`CodingError::ValueTooLarge`] if `value >= radix^digits`.
pub fn encode_digits(value: usize, radix: usize, digits: usize) -> Result<Vec<usize>, CodingError> {
    if radix < 2 {
        return Err(CodingError::AlphabetTooSmall { got: radix });
    }
    if let Some(cap) = radix.checked_pow(digits as u32) {
        if value >= cap {
            return Err(CodingError::ValueTooLarge {
                value,
                radix,
                digits,
            });
        }
    }
    let mut out = vec![0usize; digits];
    let mut v = value;
    for slot in out.iter_mut().rev() {
        *slot = v % radix;
        v /= radix;
    }
    Ok(out)
}

/// Decodes base-`radix` digits (most significant first) back to a value.
///
/// # Errors
///
/// * [`CodingError::AlphabetTooSmall`] if `radix < 2`.
/// * [`CodingError::SymbolOutOfRange`] if any digit is `≥ radix`.
pub fn decode_digits(digits: &[usize], radix: usize) -> Result<usize, CodingError> {
    if radix < 2 {
        return Err(CodingError::AlphabetTooSmall { got: radix });
    }
    let mut v = 0usize;
    for &d in digits {
        if d >= radix {
            return Err(CodingError::SymbolOutOfRange {
                symbol: d,
                alphabet: radix,
            });
        }
        v = v * radix + d;
    }
    Ok(v)
}

/// Number of base-`radix` digits needed to address `n` distinct robots:
/// `⌈log_radix n⌉`, with a minimum of 1.
///
/// # Panics
///
/// Panics if `radix < 2`.
#[must_use]
pub fn digits_for(n: usize, radix: usize) -> usize {
    assert!(radix >= 2, "radix must be at least 2");
    if n <= 1 {
        return 1;
    }
    let mut d = 0usize;
    let mut cap = 1usize;
    while cap < n {
        cap = cap.saturating_mul(radix);
        d += 1;
    }
    d
}

/// The §5 step-count model: moves needed to send one addressed message of
/// `payload_bits` bits when the keyboard has `k` addressing segments
/// (radix `k`) instead of `n` slices.
///
/// Each move carries one symbol; the address costs `⌈log_k n⌉` moves, then
/// the payload costs one move per bit. With the full `2n`-slice keyboard
/// the address is free (it is the slice choice), which is the `k = n` row
/// of experiment E4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressedCost {
    /// Moves spent on the address digits.
    pub address_moves: usize,
    /// Moves spent on the payload bits.
    pub payload_moves: usize,
}

impl AddressedCost {
    /// Computes the cost of addressing one of `n` robots with radix `k`
    /// and then sending `payload_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    #[must_use]
    pub fn compute(n: usize, k: usize, payload_bits: usize) -> Self {
        Self {
            address_moves: digits_for(n, k),
            payload_moves: payload_bits,
        }
    }

    /// Total moves.
    #[must_use]
    pub fn total(&self) -> usize {
        self.address_moves + self.payload_moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_roundtrip() {
        for radix in 2..=10 {
            for value in 0..200 {
                let d = digits_for(200, radix);
                let digits = encode_digits(value, radix, d).unwrap();
                assert_eq!(digits.len(), d);
                assert_eq!(decode_digits(&digits, radix).unwrap(), value);
            }
        }
    }

    #[test]
    fn known_encodings() {
        assert_eq!(encode_digits(5, 2, 3).unwrap(), vec![1, 0, 1]);
        assert_eq!(encode_digits(0, 2, 3).unwrap(), vec![0, 0, 0]);
        assert_eq!(encode_digits(255, 16, 2).unwrap(), vec![15, 15]);
        assert_eq!(encode_digits(10, 10, 2).unwrap(), vec![1, 0]);
    }

    #[test]
    fn value_too_large() {
        assert!(matches!(
            encode_digits(8, 2, 3),
            Err(CodingError::ValueTooLarge { .. })
        ));
        assert!(encode_digits(7, 2, 3).is_ok());
    }

    #[test]
    fn tiny_radix_rejected() {
        assert!(matches!(
            encode_digits(1, 1, 3),
            Err(CodingError::AlphabetTooSmall { got: 1 })
        ));
        assert!(matches!(
            decode_digits(&[0], 0),
            Err(CodingError::AlphabetTooSmall { .. })
        ));
    }

    #[test]
    fn bad_digit_rejected() {
        assert!(matches!(
            decode_digits(&[0, 5, 1], 4),
            Err(CodingError::SymbolOutOfRange {
                symbol: 5,
                alphabet: 4
            })
        ));
    }

    #[test]
    fn digits_for_matches_log() {
        assert_eq!(digits_for(1, 2), 1);
        assert_eq!(digits_for(2, 2), 1);
        assert_eq!(digits_for(3, 2), 2);
        assert_eq!(digits_for(8, 2), 3);
        assert_eq!(digits_for(9, 2), 4);
        assert_eq!(digits_for(1000, 10), 3);
        assert_eq!(digits_for(1001, 10), 4);
        assert_eq!(digits_for(0, 7), 1);
    }

    #[test]
    #[should_panic(expected = "radix")]
    fn digits_for_radix_one_panics() {
        let _ = digits_for(4, 1);
    }

    #[test]
    fn cost_model_shrinks_with_k() {
        // §5: bigger k ⇒ fewer addressing steps.
        let n = 1024;
        let payload = 64;
        let c2 = AddressedCost::compute(n, 2, payload);
        let c32 = AddressedCost::compute(n, 32, payload);
        assert_eq!(c2.address_moves, 10);
        assert_eq!(c32.address_moves, 2);
        assert!(c2.total() > c32.total());
        assert_eq!(c2.payload_moves, payload);
    }

    #[test]
    fn cost_model_log_log_blowup() {
        // The paper's example: k = O(log n) slices costs a factor
        // O(log n / log log n) in addressing steps versus k = n.
        let n = 1_usize << 16;
        let k = 16; // log2(n)
        let c = AddressedCost::compute(n, k, 0);
        assert_eq!(c.address_moves, 4); // log_16(65536) = 4 = log n / log log n
    }
}
