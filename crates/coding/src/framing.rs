//! Message framing on the bit channel.
//!
//! The movement channel delivers an unbounded bit stream; the receiver must
//! know where one message ends and the next begins. We use a 16-bit
//! big-endian length prefix (payload length in bytes) followed by the
//! payload — the simplest self-delimiting frame, and the natural fit for a
//! channel whose cost is *per bit*: the overhead is a constant 16 moves per
//! message.

use crate::bits::{Bit, BitString};
use crate::CodingError;

/// Maximum payload length per frame, in bytes.
pub const MAX_PAYLOAD: usize = u16::MAX as usize;

/// Number of header bits in a frame.
pub const HEADER_BITS: usize = 16;

/// Encodes one message into a framed bit string.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] bytes; senders should chunk
/// larger messages (the session layer in `stigmergy` does this).
#[must_use]
pub fn encode_frame(payload: &[u8]) -> BitString {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "payload of {} bytes exceeds the frame maximum {MAX_PAYLOAD}",
        payload.len()
    );
    let mut bits = BitString::new();
    let len = payload.len() as u16;
    for i in (0..HEADER_BITS).rev() {
        bits.push(Bit::from_bool(len & (1 << i) != 0));
    }
    bits.extend_from(&BitString::from_bytes(payload));
    bits
}

/// Encodes a sequence of messages back-to-back.
#[must_use]
pub fn encode_frames<'a, I: IntoIterator<Item = &'a [u8]>>(messages: I) -> BitString {
    let mut bits = BitString::new();
    for m in messages {
        bits.extend_from(&encode_frame(m));
    }
    bits
}

/// Decodes every complete frame at the front of `bits`.
///
/// Returns the decoded messages and the remaining (incomplete) tail, which
/// the caller keeps until more bits arrive. This is exactly the receiver
/// loop of the movement channel: bits trickle in one move at a time.
///
/// # Errors
///
/// Currently infallible for well-formed prefixes (any 16-bit length is
/// admissible); the `Result` reserves room for stricter framing (checksums)
/// without breaking callers.
pub fn decode_frames(bits: &BitString) -> Result<(Vec<Vec<u8>>, BitString), CodingError> {
    let mut messages = Vec::new();
    let mut pos = 0usize;
    loop {
        if bits.len() - pos < HEADER_BITS {
            break;
        }
        let mut len = 0usize;
        for i in 0..HEADER_BITS {
            len = (len << 1)
                | usize::from(bits.get(pos + i).expect("checked length above").as_bool());
        }
        let frame_bits = HEADER_BITS + len * 8;
        if bits.len() - pos < frame_bits {
            break;
        }
        let payload: BitString = (0..len * 8)
            .map(|i| bits.get(pos + HEADER_BITS + i).expect("checked length"))
            .collect();
        messages.push(payload.to_bytes().expect("multiple of 8 by construction"));
        pos += frame_bits;
    }
    Ok((messages, bits.suffix(pos)))
}

/// An incremental frame decoder: feed bits as they are observed, collect
/// messages as they complete.
///
/// Decoding is a constant-work-per-bit state machine: the header length
/// is parsed once when its 16th bit arrives, after which each bit is a
/// push-and-compare against the known frame length. The buffer only ever
/// holds the current incomplete frame, and its allocation is reused
/// across frames — the movement channel pays thousands of activations
/// per bit, so the decoder must never re-scan what it has already seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameDecoder {
    buffer: BitString,
    /// Total bits of the current frame once the header is complete
    /// (`HEADER_BITS + 8 × payload`), or 0 while the header is partial.
    /// Derived from `buffer`, so derived equality stays consistent.
    frame_bits: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observed bit; returns a message if this bit completed one.
    pub fn push_bit(&mut self, bit: Bit) -> Option<Vec<u8>> {
        self.buffer.push(bit);
        if self.buffer.len() == HEADER_BITS {
            let mut len = 0usize;
            for b in self.buffer.iter() {
                len = (len << 1) | usize::from(b.as_bool());
            }
            self.frame_bits = HEADER_BITS + len * 8;
        }
        if self.buffer.len() >= HEADER_BITS && self.buffer.len() == self.frame_bits {
            let msg: Vec<u8> = self.buffer.as_slice()[HEADER_BITS..]
                .chunks(8)
                .map(|chunk| {
                    chunk
                        .iter()
                        .fold(0u8, |acc, b| (acc << 1) | u8::from(b.as_bool()))
                })
                .collect();
            self.buffer.clear();
            self.frame_bits = 0;
            return Some(msg);
        }
        None
    }

    /// Bits of the currently incomplete frame.
    #[must_use]
    pub fn pending_bits(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_message_roundtrip() {
        let bits = encode_frame(b"");
        assert_eq!(bits.len(), HEADER_BITS);
        let (msgs, rest) = decode_frames(&bits).unwrap();
        assert_eq!(msgs, vec![Vec::<u8>::new()]);
        assert!(rest.is_empty());
    }

    #[test]
    fn single_message_roundtrip() {
        let bits = encode_frame(b"hello robots");
        let (msgs, rest) = decode_frames(&bits).unwrap();
        assert_eq!(msgs, vec![b"hello robots".to_vec()]);
        assert!(rest.is_empty());
    }

    #[test]
    fn multiple_messages_roundtrip() {
        let bits = encode_frames([b"a".as_slice(), b"bc".as_slice(), b"".as_slice()]);
        let (msgs, rest) = decode_frames(&bits).unwrap();
        assert_eq!(msgs, vec![b"a".to_vec(), b"bc".to_vec(), Vec::new()]);
        assert!(rest.is_empty());
    }

    #[test]
    fn partial_frame_is_kept() {
        let bits = encode_frame(b"xyz");
        let cut = bits.prefix(bits.len() - 3);
        let (msgs, rest) = decode_frames(&cut).unwrap();
        assert!(msgs.is_empty());
        assert_eq!(rest, cut);
    }

    #[test]
    fn partial_header_is_kept() {
        let bits = encode_frame(b"q").prefix(7);
        let (msgs, rest) = decode_frames(&bits).unwrap();
        assert!(msgs.is_empty());
        assert_eq!(rest.len(), 7);
    }

    #[test]
    fn incremental_decoder_matches_batch() {
        let stream = encode_frames([b"one".as_slice(), b"two!".as_slice()]);
        let mut dec = FrameDecoder::new();
        let mut completed = Vec::new();
        for bit in stream.iter() {
            if let Some(m) = dec.push_bit(bit) {
                completed.push(m);
            }
        }
        assert_eq!(completed, vec![b"one".to_vec(), b"two!".to_vec()]);
        assert_eq!(dec.pending_bits(), 0);
    }

    #[test]
    fn incremental_decoder_reports_pending() {
        let mut dec = FrameDecoder::new();
        for bit in encode_frame(b"z").prefix(10).iter() {
            assert_eq!(dec.push_bit(bit), None);
        }
        assert_eq!(dec.pending_bits(), 10);
    }

    #[test]
    #[should_panic(expected = "exceeds the frame maximum")]
    fn oversized_payload_panics() {
        let big = vec![0u8; MAX_PAYLOAD + 1];
        let _ = encode_frame(&big);
    }

    #[test]
    fn max_payload_is_encodable() {
        let big = vec![0xA5u8; 1000];
        let bits = encode_frame(&big);
        let (msgs, _) = decode_frames(&bits).unwrap();
        assert_eq!(msgs[0], big);
    }
}
