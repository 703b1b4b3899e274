//! Fixed-width bitsets over u64 words.
//!
//! The flat kernels track membership sets (reached, pre-failed,
//! occupied) for up to 10⁷ nodes per replication; a `Vec<bool>` spends
//! a byte per member and a fresh allocation per replication, while a
//! word bitset packs 512 members per cache line, clears with one
//! `memset`, and reduces with hardware popcounts. No dynamic growth:
//! the length is fixed at construction (the arena owns one per
//! evaluation).

/// A fixed-length set of `usize` indices packed into u64 words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Universe size (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every element — one `memset`, no reallocation. This is
    /// the per-replication reset of the arena pattern.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Membership test.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Inserts `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Inserts `i`, returning `true` iff it was absent — the frontier
    /// test-and-set, one read-modify-write instead of a load + branch +
    /// store pair.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Number of elements present (word-parallel popcount).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_insert() {
        let mut s = BitSet::new(130);
        assert!(!s.get(0) && !s.get(129));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports presence");
        s.set(64);
        assert!(s.get(64) && s.get(129));
        assert_eq!(s.count_ones(), 2);
        s.clear();
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.len(), 130);
    }

    #[test]
    fn empty_universe() {
        let mut s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
        s.clear();
        assert_eq!(s.count_ones(), 0);
    }
}
