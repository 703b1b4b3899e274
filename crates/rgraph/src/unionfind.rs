//! Disjoint-set forest (union-find) with path halving and union by size.
//!
//! The workhorse behind every component census in this crate. One `i32`
//! array holds the whole forest: a non-negative entry is the element's
//! parent, a negative entry marks a root and stores its set's size,
//! negated. Path halving plus union by size give effectively-constant
//! amortized operations, and the single 4-byte word per element keeps a
//! million-element census inside one 4 MB array. The largest set's size
//! is tracked as sets merge, so it costs no scan.

/// Disjoint-set forest over elements `0..len`, `len ≤ i32::MAX`.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    /// Parent index per element, or the negated set size at a root.
    parent: Vec<i32>,
    /// Size of the largest set.
    largest: u32,
}

impl UnionFind {
    /// The most elements one structure can hold: sizes are stored
    /// negated in an `i32`.
    pub const MAX_LEN: usize = i32::MAX as usize;

    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        let mut uf = Self {
            parent: Vec::new(),
            largest: 0,
        };
        uf.reset(len);
        uf
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure tracks no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the set representative of `x`, halving the path on the way.
    #[inline]
    pub fn find(&mut self, mut x: u32) -> u32 {
        debug_assert!((x as usize) < self.parent.len());
        loop {
            let p = self.parent[x as usize];
            if p < 0 {
                return x;
            }
            let grand = self.parent[p as usize];
            if grand < 0 {
                return p as u32;
            }
            // Path halving: point every other node at its grandparent.
            self.parent[x as usize] = grand;
            x = grand as u32;
        }
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// previously disjoint.
    #[inline]
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        if ra == rb {
            return false;
        }
        // Union by size: attach the smaller tree under the larger (on a
        // tie, `b`'s root goes under `a`'s).
        if self.parent[ra as usize] > self.parent[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[ra as usize] += self.parent[rb as usize];
        self.parent[rb as usize] = ra as i32;
        self.largest = self.largest.max(self.parent[ra as usize].unsigned_abs());
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn size_of(&mut self, x: u32) -> u32 {
        let root = self.find(x);
        self.parent[root as usize].unsigned_abs()
    }

    /// Size of the largest set (0 when empty).
    #[inline]
    pub fn largest(&self) -> u32 {
        self.largest
    }

    /// Sizes of all sets, unordered.
    pub fn component_sizes(&self) -> Vec<u32> {
        self.parent
            .iter()
            .filter(|&&p| p < 0)
            .map(|p| p.unsigned_abs())
            .collect()
    }

    /// Resets to `len` singletons, reusing the allocation — the
    /// percolation Monte Carlo keeps one structure across replications
    /// of different occupied counts.
    pub fn reset(&mut self, len: usize) {
        assert!(
            len <= Self::MAX_LEN,
            "union-find limited to {} elements",
            Self::MAX_LEN
        );
        self.parent.clear();
        self.parent.resize(len, -1);
        self.largest = u32::from(len > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_sizes().len(), 5);
        assert_eq!(uf.largest(), 1);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.size_of(i), 1);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0), "repeat union returns false");
        assert_eq!(uf.component_sizes().len(), 4);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        assert_eq!(uf.largest(), 2);
        assert!(uf.union(1, 2));
        assert!(uf.connected(0, 3));
        assert_eq!(uf.size_of(3), 4);
        assert_eq!(uf.largest(), 4);
    }

    #[test]
    fn ties_keep_the_first_root_and_size_wins_otherwise() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        assert_eq!(uf.find(1), 0, "equal sizes: b's root goes under a's");
        uf.union(3, 0);
        assert_eq!(uf.find(3), 0, "the larger tree keeps its root");
        uf.union(2, 4);
        uf.union(4, 3);
        assert_eq!(uf.find(2), 0);
        assert_eq!(uf.largest(), 5);
    }

    #[test]
    fn component_sizes_sum_to_len() {
        let mut uf = UnionFind::new(10);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(5, 6);
        let sizes = uf.component_sizes();
        assert_eq!(sizes.iter().sum::<u32>(), 10);
        assert_eq!(sizes.len(), 7);
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 1, 1, 1, 2, 3]);
        assert_eq!(uf.largest(), 3);
    }

    #[test]
    fn chain_path_compression() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..(n as u32 - 1) {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_sizes().len(), 1);
        assert_eq!(uf.size_of(0), n as u32);
        assert_eq!(uf.largest(), n as u32);
        // After find, paths should be (mostly) flat — spot-check depth 1.
        let root = uf.find(0);
        assert_eq!(uf.find(n as u32 - 1), root);
    }

    #[test]
    fn reset_restores_singletons() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.reset(4);
        assert_eq!(uf.component_sizes().len(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.size_of(2), 1);
        assert_eq!(uf.largest(), 1);
        uf.union(0, 1);
        uf.reset(7);
        assert_eq!(uf.len(), 7);
        assert_eq!(uf.component_sizes().len(), 7);
        assert_eq!(uf.component_sizes(), vec![1; 7]);
        uf.reset(2);
        assert_eq!(uf.len(), 2);
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_sizes().len(), 0);
        assert_eq!(uf.largest(), 0);
        assert!(uf.component_sizes().is_empty());
    }
}
