//! Systematic Hamming(7,4) forward error correction over the symbol
//! stream.
//!
//! The motion channel's CRC-8 (see [`checksum`](crate::checksum)) can only
//! *detect* corruption and force a retransmission — thousands of wasted
//! activations per slip. Following the coding-theoretic treatment of robot
//! motion channels (Yamauchi & Yamashita), this module *corrects* instead:
//! the symbol stream is grouped into blocks of [`BLOCK_DATA`] data symbols
//! plus three parity symbols, each parity computed plane-wise across the
//! `w`-bit symbols, so any **single symbol error** — or any single
//! *erasure*, a symbol the receiver knows it missed — per block is
//! repaired in place.
//!
//! The code is systematic (data symbols pass through untouched), so an
//! error-free stream decodes by truncation, and the parity overhead is a
//! fixed 7/4 expansion regardless of symbol width. Two or more corrupted
//! symbols in one block are beyond the code's correction radius and are
//! reported as uncorrectable — the caller falls back to the CRC-8
//! reject-and-retransmit path, preserving the workspace-wide
//! detect-or-reject invariant: a frame is *corrected or rejected, never
//! silently misdelivered*.

use crate::CodingError;

/// Data symbols per FEC block.
pub const BLOCK_DATA: usize = 4;

/// Total symbols per FEC block (data plus three parity).
pub const BLOCK_LEN: usize = 7;

/// A Hamming(7,4) codec over `width`-bit symbols.
///
/// Parity symbols are computed bit-plane-wise: plane `b` of the three
/// parity symbols is the classic one-bit Hamming(7,4) code of plane `b`
/// of the four data symbols. Decoding runs all planes at once with word
/// operations; the per-plane syndromes must all point at the *same*
/// block position for a correction to be sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolFec {
    width: u32,
}

/// One decoded block: the recovered data symbols, plus whether the
/// decoder had to repair anything (a flipped symbol or a filled erasure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The four recovered data symbols.
    pub data: [u16; BLOCK_DATA],
    /// Whether a correction or erasure fill happened.
    pub corrected: bool,
}

impl SymbolFec {
    /// A codec over `width`-bit symbols.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 16` — symbol width is a protocol
    /// constant, not runtime input.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(
            (1..=16).contains(&width),
            "symbol width must be in 1..=16, got {width}"
        );
        Self { width }
    }

    /// The mask of admissible symbol bits.
    fn mask(&self) -> u32 {
        (1u32 << self.width) - 1
    }

    /// Encodes one block of data symbols into its 7-symbol codeword.
    #[must_use]
    fn encode_block(&self, data: [u16; BLOCK_DATA]) -> [u16; BLOCK_LEN] {
        let [d0, d1, d2, d3] = data;
        [
            d0,
            d1,
            d2,
            d3,
            d0 ^ d1 ^ d3, // p0
            d0 ^ d2 ^ d3, // p1
            d1 ^ d2 ^ d3, // p2
        ]
    }

    /// Encodes a data-symbol stream, zero-padding the tail to a whole
    /// block.
    ///
    /// # Errors
    ///
    /// [`CodingError::SymbolOutOfRange`] if any symbol exceeds the
    /// configured width.
    pub fn encode(&self, data: &[u16]) -> Result<Vec<u16>, CodingError> {
        let mask = self.mask();
        if let Some(&bad) = data.iter().find(|&&s| u32::from(s) > mask) {
            return Err(CodingError::SymbolOutOfRange {
                symbol: bad as usize,
                alphabet: (mask + 1) as usize,
            });
        }
        let blocks = data.len().div_ceil(BLOCK_DATA).max(1);
        let mut out = Vec::with_capacity(blocks * BLOCK_LEN);
        for i in 0..blocks {
            let mut block = [0u16; BLOCK_DATA];
            for (j, slot) in block.iter_mut().enumerate() {
                *slot = data.get(i * BLOCK_DATA + j).copied().unwrap_or(0);
            }
            out.extend_from_slice(&self.encode_block(block));
        }
        Ok(out)
    }

    /// Decodes one received block. `None` entries are erasures — symbols
    /// the receiver knows it missed.
    ///
    /// Returns `None` when the block is uncorrectable: two or more
    /// erasures, per-plane syndromes pointing at two or more distinct
    /// positions, or a syndrome disagreeing with the erasure location.
    #[must_use]
    pub fn decode_block(&self, block: &[Option<u16>; BLOCK_LEN]) -> Option<Decoded> {
        let erasures: Vec<usize> = (0..BLOCK_LEN).filter(|&i| block[i].is_none()).collect();
        if erasures.len() >= 2 {
            return None;
        }
        let mask = self.mask();
        let mut w = [0u32; BLOCK_LEN];
        for (i, slot) in w.iter_mut().enumerate() {
            *slot = u32::from(block[i].unwrap_or(0)) & mask;
        }
        // Per-plane syndromes, all planes at once.
        let s0 = w[0] ^ w[1] ^ w[3] ^ w[4];
        let s1 = w[0] ^ w[2] ^ w[3] ^ w[5];
        let s2 = w[1] ^ w[2] ^ w[3] ^ w[6];
        // For each block position, the planes whose syndrome triple
        // points at it (the Hamming single-error map).
        let errors: [u32; BLOCK_LEN] = [
            s0 & s1 & !s2,  // d0
            s0 & !s1 & s2,  // d1
            !s0 & s1 & s2,  // d2
            s0 & s1 & s2,   // d3
            s0 & !s1 & !s2, // p0
            !s0 & s1 & !s2, // p1
            !s0 & !s1 & s2, // p2
        ]
        .map(|e| e & mask);
        let flagged: Vec<usize> = (0..BLOCK_LEN).filter(|&i| errors[i] != 0).collect();
        let corrected = match (erasures.as_slice(), flagged.as_slice()) {
            // Clean block.
            ([], []) => false,
            // One corrupted symbol: repair it in place.
            ([], [p]) => {
                w[*p] ^= errors[*p];
                true
            }
            // One erasure whose true value was zero: the fill was right.
            ([_], []) => true,
            // One erasure with a nonzero value: every flagged plane must
            // point at the erasure itself, else a second symbol is bad.
            ([e], [p]) if e == p => {
                w[*e] ^= errors[*e];
                true
            }
            // Anything wider is beyond the correction radius.
            _ => return None,
        };
        let mut data = [0u16; BLOCK_DATA];
        for (i, slot) in data.iter_mut().enumerate() {
            *slot = w[i] as u16;
        }
        Some(Decoded { data, corrected })
    }

    /// Decodes a whole received stream of complete blocks.
    ///
    /// Returns the data symbols (including any sender-side padding) and
    /// the number of blocks that needed a repair.
    ///
    /// # Errors
    ///
    /// [`CodingError::Uncorrectable`] naming the first block beyond the
    /// correction radius; [`CodingError::Uncorrectable`] with the final
    /// partial block's index if the stream length is not a whole number
    /// of blocks.
    pub fn decode(&self, symbols: &[Option<u16>]) -> Result<(Vec<u16>, u64), CodingError> {
        if !symbols.len().is_multiple_of(BLOCK_LEN) {
            return Err(CodingError::Uncorrectable {
                block: symbols.len() / BLOCK_LEN,
            });
        }
        let mut data = Vec::with_capacity(symbols.len() / BLOCK_LEN * BLOCK_DATA);
        let mut corrected = 0u64;
        for (index, chunk) in symbols.chunks_exact(BLOCK_LEN).enumerate() {
            let block: [Option<u16>; BLOCK_LEN] = chunk.try_into().expect("chunk is block-sized");
            let decoded = self
                .decode_block(&block)
                .ok_or(CodingError::Uncorrectable { block: index })?;
            data.extend_from_slice(&decoded.data);
            corrected += u64::from(decoded.corrected);
        }
        Ok((data, corrected))
    }
}

/// FEC-wraps a byte frame for a lossy byte channel (the hardened
/// session's wireless secondary): a 16-bit big-endian length prefix,
/// the frame, and a CRC-8 of the frame, zero-padded to a whole block
/// and encoded byte-wise (width 8).
///
/// The CRC is the backstop for the Hamming layer's one blind spot:
/// plane-consistent double errors in a block can alias to a single
/// position and miscorrect. The checksum inside the codeword turns
/// that miscorrection into a rejection, so the framing as a whole is
/// corrected or rejected, never silently accepted.
///
/// # Errors
///
/// [`CodingError::FrameTooLong`] past 65535 bytes.
pub fn protect_bytes(frame: &[u8]) -> Result<Vec<u8>, CodingError> {
    let len = u16::try_from(frame.len()).map_err(|_| CodingError::FrameTooLong {
        announced: frame.len(),
        max: usize::from(u16::MAX),
    })?;
    let mut symbols = Vec::with_capacity(frame.len() + 3);
    symbols.extend_from_slice(&[
        u16::from(len.to_be_bytes()[0]),
        u16::from(len.to_be_bytes()[1]),
    ]);
    symbols.extend(frame.iter().map(|&b| u16::from(b)));
    symbols.push(u16::from(crate::checksum::crc8(frame)));
    let coded = SymbolFec::new(8)
        .encode(&symbols)
        .expect("bytes fit width 8");
    Ok(coded.into_iter().map(|s| s as u8).collect())
}

/// Recovers a byte frame wrapped by [`protect_bytes`], correcting up to
/// one corrupted byte per block. Returns the frame and the number of
/// blocks repaired. A frame is returned only when its embedded CRC-8
/// matches: a decode the Hamming layer got wrong (the double-error
/// aliasing case) is rejected here, never handed to the caller.
///
/// # Errors
///
/// [`CodingError::Uncorrectable`] when a block is beyond the correction
/// radius, the stream is not block-aligned, the recovered length prefix
/// exceeds the decoded data, or the embedded checksum disagrees with
/// the recovered payload.
pub fn recover_bytes(coded: &[u8]) -> Result<(Vec<u8>, u64), CodingError> {
    let symbols: Vec<Option<u16>> = coded.iter().map(|&b| Some(u16::from(b))).collect();
    let (data, corrected) = SymbolFec::new(8).decode(&symbols)?;
    if data.len() < 2 {
        return Err(CodingError::Uncorrectable { block: 0 });
    }
    let len = usize::from(u16::from_be_bytes([data[0] as u8, data[1] as u8]));
    if data.len() - 2 < len + 1 {
        return Err(CodingError::Uncorrectable { block: 0 });
    }
    let frame: Vec<u8> = data[2..2 + len].iter().map(|&s| s as u8).collect();
    if u16::from(crate::checksum::crc8(&frame)) != data[2 + len] {
        return Err(CodingError::Uncorrectable { block: 0 });
    }
    Ok((frame, corrected))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn systematic_roundtrip_all_small_codewords() {
        // Exhaustive over width 2: every data block round-trips clean.
        let fec = SymbolFec::new(2);
        for v in 0u32..(1 << 8) {
            let data = [
                (v & 3) as u16,
                ((v >> 2) & 3) as u16,
                ((v >> 4) & 3) as u16,
                ((v >> 6) & 3) as u16,
            ];
            let code = fec.encode_block(data);
            let received: [Option<u16>; BLOCK_LEN] = code.map(Some);
            let decoded = fec.decode_block(&received).unwrap();
            assert_eq!(decoded.data, data);
            assert!(!decoded.corrected);
        }
    }

    #[test]
    fn corrects_every_single_symbol_error_exhaustively() {
        // Width 2, every codeword × every position × every wrong value.
        let fec = SymbolFec::new(2);
        for v in 0u32..(1 << 8) {
            let data = [
                (v & 3) as u16,
                ((v >> 2) & 3) as u16,
                ((v >> 4) & 3) as u16,
                ((v >> 6) & 3) as u16,
            ];
            let code = fec.encode_block(data);
            for pos in 0..BLOCK_LEN {
                for wrong in 0u16..4 {
                    if wrong == code[pos] {
                        continue;
                    }
                    let mut received: [Option<u16>; BLOCK_LEN] = code.map(Some);
                    received[pos] = Some(wrong);
                    let decoded = fec.decode_block(&received).unwrap();
                    assert_eq!(decoded.data, data, "pos {pos} wrong {wrong}");
                    assert!(decoded.corrected);
                }
            }
        }
    }

    #[test]
    fn corrects_every_single_erasure_exhaustively() {
        let fec = SymbolFec::new(3);
        for v in [0u16, 1, 5, 7] {
            let data = [v, 7 - v, v ^ 3, 6];
            let code = fec.encode_block(data);
            for pos in 0..BLOCK_LEN {
                let mut received: [Option<u16>; BLOCK_LEN] = code.map(Some);
                received[pos] = None;
                let decoded = fec.decode_block(&received).unwrap();
                assert_eq!(decoded.data, data, "erasure at {pos}");
                // A zero symbol erased is still "corrected": the decoder
                // had to fill it.
                assert!(decoded.corrected);
            }
        }
    }

    #[test]
    fn double_errors_are_rejected_not_misdecoded() {
        let fec = SymbolFec::new(3);
        let data = [1u16, 2, 3, 4];
        let code = fec.encode_block(data);
        // Two erasures.
        let mut received: [Option<u16>; BLOCK_LEN] = code.map(Some);
        received[0] = None;
        received[5] = None;
        assert_eq!(fec.decode_block(&received), None);
        // An erasure plus a *different* corrupted symbol: the syndromes
        // point away from the erasure, which must be fatal, not a
        // misdirected "fix".
        let mut received: [Option<u16>; BLOCK_LEN] = code.map(Some);
        received[2] = None;
        received[1] = Some(code[1] ^ 0b101);
        assert_eq!(fec.decode_block(&received), None);
    }

    #[test]
    fn double_symbol_errors_never_silently_accepted() {
        // Two flipped symbols either fail to decode or decode to
        // *something*, but plane-consistent double errors that alias to a
        // single position are the known Hamming limitation — what matters
        // end-to-end is that the CRC-8 backstop rejects those frames.
        // Here: assert the decoder never returns the original data while
        // claiming no correction happened.
        let fec = SymbolFec::new(2);
        let data = [3u16, 1, 0, 2];
        let code = fec.encode_block(data);
        for a in 0..BLOCK_LEN {
            for b in (a + 1)..BLOCK_LEN {
                let mut received: [Option<u16>; BLOCK_LEN] = code.map(Some);
                received[a] = Some(code[a] ^ 1);
                received[b] = Some(code[b] ^ 1);
                if let Some(decoded) = fec.decode_block(&received) {
                    assert!(
                        decoded.data != data || decoded.corrected,
                        "double error at ({a},{b}) accepted as clean"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_encode_pads_and_reports_corrections() {
        let fec = SymbolFec::new(4);
        let data = [1u16, 2, 3, 4, 5];
        let coded = fec.encode(&data).unwrap();
        assert_eq!(coded.len(), 2 * BLOCK_LEN);
        let mut received: Vec<Option<u16>> = coded.iter().copied().map(Some).collect();
        received[8] = Some(15); // corrupt one symbol of block 1
        let (decoded, corrected) = fec.decode(&received).unwrap();
        assert_eq!(&decoded[..5], &data);
        assert_eq!(&decoded[5..], &[0, 0, 0]); // padding survives
        assert_eq!(corrected, 1);
    }

    #[test]
    fn stream_errors_name_the_block() {
        let fec = SymbolFec::new(4);
        let coded = fec.encode(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut received: Vec<Option<u16>> = coded.iter().copied().map(Some).collect();
        received[7] = None;
        received[9] = None; // two erasures in block 1
        assert_eq!(
            fec.decode(&received),
            Err(CodingError::Uncorrectable { block: 1 })
        );
        // A partial trailing block is structural, not correctable.
        assert_eq!(
            fec.decode(&received[..10]),
            Err(CodingError::Uncorrectable { block: 1 })
        );
    }

    #[test]
    fn out_of_range_symbols_rejected_at_encode() {
        let fec = SymbolFec::new(2);
        assert_eq!(
            fec.encode(&[4]),
            Err(CodingError::SymbolOutOfRange {
                symbol: 4,
                alphabet: 4
            })
        );
    }

    #[test]
    #[should_panic(expected = "symbol width")]
    fn zero_width_rejected() {
        let _ = SymbolFec::new(0);
    }

    #[test]
    fn byte_frames_survive_single_byte_corruption_per_block() {
        let frame = b"hardened secondary channel frame".to_vec();
        let coded = protect_bytes(&frame).unwrap();
        // Clean round trip.
        let (clean, corrected) = recover_bytes(&coded).unwrap();
        assert_eq!(clean, frame);
        assert_eq!(corrected, 0);
        // One flipped bit per block, every block.
        let mut corrupt = coded.clone();
        let blocks = corrupt.len() / BLOCK_LEN;
        for b in 0..blocks {
            corrupt[b * BLOCK_LEN + (b % BLOCK_LEN)] ^= 1 << (b % 8);
        }
        let (fixed, corrected) = recover_bytes(&corrupt).unwrap();
        assert_eq!(fixed, frame);
        assert_eq!(corrected, blocks as u64);
    }

    #[test]
    fn byte_frames_reject_unaligned_and_oversize() {
        let coded = protect_bytes(b"x").unwrap();
        assert!(recover_bytes(&coded[..coded.len() - 1]).is_err());
        let too_long = vec![0u8; usize::from(u16::MAX) + 1];
        assert_eq!(
            protect_bytes(&too_long),
            Err(CodingError::FrameTooLong {
                announced: usize::from(u16::MAX) + 1,
                max: usize::from(u16::MAX),
            })
        );
    }

    #[test]
    fn corrupted_length_prefix_is_corrected_or_rejected() {
        let frame = b"len".to_vec();
        let coded = protect_bytes(&frame).unwrap();
        for byte in 0..coded.len() {
            for bit in 0..8 {
                let mut corrupt = coded.clone();
                corrupt[byte] ^= 1 << bit;
                match recover_bytes(&corrupt) {
                    Ok((recovered, corrected)) => {
                        assert_eq!(recovered, frame, "byte {byte} bit {bit}");
                        assert_eq!(corrected, 1);
                    }
                    Err(CodingError::Uncorrectable { .. }) => {}
                    Err(e) => panic!("unexpected error {e} at byte {byte} bit {bit}"),
                }
            }
        }
    }
}
