//! Sets of robots activated at one time instant.

use std::fmt;

/// The set of robot indices active at one instant, over a cohort of `n`
/// robots.
///
/// Backed by a bit vector; robots are dense small indices so this is both
/// compact and fast to intersect/inspect.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActivationSet {
    bits: Vec<u64>,
    n: usize,
}

impl ActivationSet {
    /// The empty activation set over `n` robots.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Self {
            // stiglint: allow(hot-alloc) -- the set's backing words are sized exactly once here, at construction; every mutation reuses them
            bits: vec![0; n.div_ceil(64)],
            n,
        }
    }

    /// The full activation set (all of `0..n` active) — one synchronous
    /// instant.
    #[must_use]
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// An activation set containing exactly the given robots.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n`.
    #[must_use]
    pub fn from_indices<I: IntoIterator<Item = usize>>(n: usize, indices: I) -> Self {
        let mut s = Self::empty(n);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// The cohort size this set ranges over.
    #[must_use]
    pub fn cohort(&self) -> usize {
        self.n
    }

    /// Marks robot `i` active.
    ///
    /// # Panics
    ///
    /// Panics if `i >= cohort()`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.n, "robot index {i} out of cohort {}", self.n);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Whether robot `i` is active. Out-of-range indices are inactive.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.n {
            return false;
        }
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of active robots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no robot is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates over active robot indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&i| self.contains(i))
    }

    /// Re-initializes to the empty set over cohort `n`, reusing the
    /// backing allocation. Equivalent to `*self = ActivationSet::empty(n)`
    /// without the heap churn.
    pub fn reset(&mut self, n: usize) {
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
        self.n = n;
    }

    /// Marks every robot of the cohort active, in place. Equivalent to
    /// `*self = ActivationSet::full(self.cohort())`.
    pub fn fill(&mut self) {
        let n = self.n;
        for (k, word) in self.bits.iter_mut().enumerate() {
            let lo = k * 64;
            let width = n.min(lo + 64) - lo;
            *word = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
        }
    }

    /// Marks robot `i` inactive. Out-of-range indices are a no-op (they
    /// are never active).
    pub fn remove(&mut self, i: usize) {
        if i < self.n {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }
}

impl fmt::Display for ActivationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for ActivationSet {
    /// Collects indices into a set sized by the maximum index + 1.
    ///
    /// Mostly a test convenience; prefer [`ActivationSet::from_indices`]
    /// when the cohort size is known.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let n = indices.iter().copied().max().map_or(0, |m| m + 1);
        Self::from_indices(n, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = ActivationSet::empty(5);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.cohort(), 5);
        let f = ActivationSet::full(5);
        assert_eq!(f.len(), 5);
        assert!((0..5).all(|i| f.contains(i)));
    }

    #[test]
    fn insert_and_contains() {
        let mut s = ActivationSet::empty(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(65));
        assert!(!s.contains(1000));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    #[should_panic(expected = "out of cohort")]
    fn insert_out_of_range_panics() {
        let mut s = ActivationSet::empty(3);
        s.insert(3);
    }

    #[test]
    fn from_indices() {
        let s = ActivationSet::from_indices(4, [1, 3]);
        assert!(!s.contains(0) && s.contains(1) && !s.contains(2) && s.contains(3));
    }

    #[test]
    fn from_iterator() {
        let s: ActivationSet = [2usize, 5].into_iter().collect();
        assert_eq!(s.cohort(), 6);
        assert!(s.contains(2) && s.contains(5));
    }

    #[test]
    fn reset_reuses_allocation_and_matches_empty() {
        let mut s = ActivationSet::full(130);
        s.reset(130);
        assert_eq!(s, ActivationSet::empty(130));
        s.reset(5);
        assert_eq!(s, ActivationSet::empty(5));
        s.reset(200);
        assert_eq!(s, ActivationSet::empty(200));
    }

    #[test]
    fn fill_matches_full() {
        for n in [0usize, 1, 5, 63, 64, 65, 130] {
            let mut s = ActivationSet::empty(n);
            s.fill();
            assert_eq!(s, ActivationSet::full(n), "cohort {n}");
        }
    }

    #[test]
    fn remove_clears_membership() {
        let mut s = ActivationSet::full(70);
        s.remove(0);
        s.remove(69);
        s.remove(1000); // out of range: no-op
        assert!(!s.contains(0) && !s.contains(69) && s.contains(1));
        assert_eq!(s.len(), 68);
    }

    #[test]
    fn zero_cohort() {
        let s = ActivationSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(ActivationSet::full(0).len(), 0);
    }

    #[test]
    fn display() {
        let s = ActivationSet::from_indices(4, [0, 2]);
        assert_eq!(format!("{s}"), "{0, 2}");
        assert_eq!(format!("{}", ActivationSet::empty(2)), "{}");
    }
}
