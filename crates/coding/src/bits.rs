//! Bits, bit strings, and FIFO bit queues.

use std::collections::VecDeque;
use std::fmt;

/// A single bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bit {
    /// Binary 0 — sent by a move on the zero side (right / Northern-Eastern).
    Zero,
    /// Binary 1 — sent by a move on the one side (left / Southern-Western).
    One,
}

impl Bit {
    /// Converts to `bool` (`One` ↦ `true`).
    #[must_use]
    pub fn as_bool(self) -> bool {
        matches!(self, Bit::One)
    }

    /// Converts from `bool` (`true` ↦ `One`).
    #[must_use]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Bit::One
        } else {
            Bit::Zero
        }
    }

    /// The complementary bit.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Bit::Zero => Bit::One,
            Bit::One => Bit::Zero,
        }
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Bit::Zero => "0",
            Bit::One => "1",
        })
    }
}

impl From<bool> for Bit {
    fn from(b: bool) -> Bit {
        Bit::from_bool(b)
    }
}

impl From<Bit> for bool {
    fn from(b: Bit) -> bool {
        b.as_bool()
    }
}

/// An ordered sequence of bits.
///
/// The unit of everything the movement channel carries: messages are framed
/// into a `BitString`, and decoders accumulate observed moves back into one.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    bits: Vec<Bit>,
}

impl BitString {
    /// The empty bit string.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a string of `'0'`/`'1'` characters.
    ///
    /// Any other character yields `None`.
    ///
    /// # Examples
    ///
    /// ```
    /// use stigmergy_coding::BitString;
    /// let s = BitString::parse("0110").unwrap();
    /// assert_eq!(s.len(), 4);
    /// assert_eq!(s.to_string(), "0110");
    /// assert!(BitString::parse("01x0").is_none());
    /// ```
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        s.chars()
            .map(|c| match c {
                '0' => Some(Bit::Zero),
                '1' => Some(Bit::One),
                _ => None,
            })
            .collect::<Option<Vec<Bit>>>()
            .map(|bits| Self { bits })
    }

    /// Encodes a byte most-significant-bit first.
    #[must_use]
    fn from_byte(b: u8) -> Self {
        (0..8)
            .rev()
            .map(|i| Bit::from_bool(b & (1 << i) != 0))
            .collect()
    }

    /// Encodes bytes MSB-first, in order.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut s = BitString::new();
        for &b in bytes {
            s.extend_from(&BitString::from_byte(b));
        }
        s
    }

    /// Decodes into bytes; returns `None` unless the length is a multiple
    /// of 8.
    #[must_use]
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        if !self.bits.len().is_multiple_of(8) {
            return None;
        }
        Some(
            self.bits
                .chunks(8)
                .map(|chunk| {
                    chunk
                        .iter()
                        .fold(0u8, |acc, b| (acc << 1) | u8::from(b.as_bool()))
                })
                .collect(),
        )
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the string is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bit at `index`, if any.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Bit> {
        self.bits.get(index).copied()
    }

    /// Appends a bit.
    pub fn push(&mut self, bit: Bit) {
        self.bits.push(bit);
    }

    /// Removes all bits, keeping the backing allocation.
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// Appends all bits of `other`.
    pub fn extend_from(&mut self, other: &BitString) {
        self.bits.extend_from_slice(&other.bits);
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl Iterator<Item = Bit> + '_ {
        self.bits.iter().copied()
    }

    /// Borrows the underlying slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Bit] {
        &self.bits
    }

    /// The first `n` bits as a new string (all bits if `n > len`).
    #[must_use]
    pub fn prefix(&self, n: usize) -> BitString {
        BitString {
            bits: self.bits[..n.min(self.bits.len())].to_vec(),
        }
    }

    /// The bits from position `n` on as a new string.
    #[must_use]
    pub fn suffix(&self, n: usize) -> BitString {
        BitString {
            bits: self.bits[n.min(self.bits.len())..].to_vec(),
        }
    }

    /// Whether `self` begins with `prefix`.
    #[must_use]
    pub fn starts_with(&self, prefix: &BitString) -> bool {
        self.bits.starts_with(&prefix.bits)
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bits {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromIterator<Bit> for BitString {
    fn from_iter<I: IntoIterator<Item = Bit>>(iter: I) -> Self {
        Self {
            bits: iter.into_iter().collect(),
        }
    }
}

impl Extend<Bit> for BitString {
    fn extend<I: IntoIterator<Item = Bit>>(&mut self, iter: I) {
        self.bits.extend(iter);
    }
}

impl IntoIterator for BitString {
    type Item = Bit;
    type IntoIter = std::vec::IntoIter<Bit>;
    fn into_iter(self) -> Self::IntoIter {
        self.bits.into_iter()
    }
}

impl<'a> IntoIterator for &'a BitString {
    type Item = &'a Bit;
    type IntoIter = std::slice::Iter<'a, Bit>;
    fn into_iter(self) -> Self::IntoIter {
        self.bits.iter()
    }
}

/// A FIFO queue of bits: a sender's outbox at the movement layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitQueue {
    queue: VecDeque<Bit>,
}

impl BitQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues every bit of `bits`.
    pub fn enqueue(&mut self, bits: &BitString) {
        self.queue.extend(bits.iter());
    }

    /// Pops the next bit to transmit.
    pub fn dequeue(&mut self) -> Option<Bit> {
        self.queue.pop_front()
    }

    /// Number of queued bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty (the *silence* condition: a robot with an
    /// empty queue has nothing to signal).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_conversions() {
        assert!(Bit::One.as_bool());
        assert!(!Bit::Zero.as_bool());
        assert_eq!(Bit::from_bool(true), Bit::One);
        assert_eq!(Bit::Zero.flipped(), Bit::One);
        assert!(bool::from(Bit::One));
        assert_eq!(Bit::from(false), Bit::Zero);
    }

    #[test]
    fn parse_and_display() {
        let s = BitString::parse("10110").unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(format!("{s}"), "10110");
        assert!(BitString::parse("102").is_none());
        assert_eq!(BitString::parse("").unwrap(), BitString::new());
    }

    #[test]
    fn byte_roundtrip() {
        for b in [0u8, 1, 0x55, 0xAA, 0xFF, 42] {
            let s = BitString::from_byte(b);
            assert_eq!(s.len(), 8);
            assert_eq!(s.to_bytes().unwrap(), vec![b]);
        }
    }

    #[test]
    fn byte_is_msb_first() {
        assert_eq!(BitString::from_byte(0b1000_0001).to_string(), "10000001");
    }

    #[test]
    fn bytes_roundtrip() {
        let payload = b"stigmergy!";
        let s = BitString::from_bytes(payload);
        assert_eq!(s.len(), payload.len() * 8);
        assert_eq!(s.to_bytes().unwrap(), payload.to_vec());
    }

    #[test]
    fn misaligned_to_bytes_fails() {
        let s = BitString::parse("1010101").unwrap();
        assert_eq!(s.to_bytes(), None);
    }

    #[test]
    fn prefix_suffix_starts_with() {
        let s = BitString::parse("110010").unwrap();
        assert_eq!(s.prefix(3).to_string(), "110");
        assert_eq!(s.suffix(3).to_string(), "010");
        assert_eq!(s.prefix(99), s);
        assert!(s.suffix(99).is_empty());
        assert!(s.starts_with(&BitString::parse("1100").unwrap()));
        assert!(!s.starts_with(&BitString::parse("111").unwrap()));
    }

    #[test]
    fn collect_and_extend() {
        let s: BitString = [Bit::One, Bit::Zero].into_iter().collect();
        assert_eq!(s.to_string(), "10");
        let mut t = s.clone();
        t.extend([Bit::One]);
        assert_eq!(t.to_string(), "101");
        let mut u = BitString::new();
        u.extend_from(&s);
        u.push(Bit::One);
        assert_eq!(u.to_string(), "101");
        assert_eq!(u.get(2), Some(Bit::One));
        assert_eq!(u.get(3), None);
    }

    #[test]
    fn iteration() {
        let s = BitString::parse("01").unwrap();
        let v: Vec<Bit> = s.iter().collect();
        assert_eq!(v, vec![Bit::Zero, Bit::One]);
        let v2: Vec<Bit> = s.clone().into_iter().collect();
        assert_eq!(v, v2);
        let v3: Vec<&Bit> = (&s).into_iter().collect();
        assert_eq!(v3.len(), 2);
        assert_eq!(s.as_slice(), &[Bit::Zero, Bit::One]);
    }

    #[test]
    fn queue_fifo_order() {
        let mut q = BitQueue::new();
        assert!(q.is_empty());
        q.enqueue(&BitString::parse("011").unwrap());
        q.enqueue(&BitString::parse("0").unwrap());
        assert_eq!(q.len(), 4);
        assert_eq!(q.dequeue(), Some(Bit::Zero));
        assert_eq!(q.dequeue(), Some(Bit::One));
        assert_eq!(q.dequeue(), Some(Bit::One));
        assert_eq!(q.dequeue(), Some(Bit::Zero));
        assert_eq!(q.dequeue(), None);
        assert!(q.is_empty());
    }
}
