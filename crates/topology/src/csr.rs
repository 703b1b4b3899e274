//! Compact overlay adjacency in CSR form.
//!
//! Same layout discipline as the random-graph substrate (two flat
//! arrays, `u32` node ids), but *canonical*: self-loops dropped,
//! parallel edges merged, and every neighbour list sorted ascending.
//! Canonical form is what makes the deterministic peer-selection
//! policies (next-pair, skip-few) well defined — "the first neighbour
//! after me in cyclic id order" needs an unambiguous order.
//!
//! Every generated overlay is symmetric ([`Topology::from_edges`])
//! except SCAMP's, whose partial views are directed out-lists
//! ([`Topology::from_out_lists`]): a member gossips to its view, which
//! need not hold it in return. Gossip only ever reads out-lists, so
//! both kinds serve every evaluation layer alike.

/// An overlay over nodes `0..n`, canonical CSR form: node `v`'s
/// neighbour list is the members it gossips to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Topology {
    /// Builds a canonical topology from an undirected edge list:
    /// self-loops are dropped, parallel edges merged, neighbour lists
    /// sorted.
    ///
    /// A two-pass counting sort, with no per-node allocation and no
    /// comparison sort. One pass counts each row's length, and a prefix
    /// sum turns the counts into row starts. The first scatter buckets
    /// every arc's tail under its head; the second walks the heads in
    /// ascending order into their tails' rows, so every row fills
    /// already sorted and is only compacted. The edge list is taken by
    /// value and dropped after the first scatter, so no more than two
    /// arrays of `2·edges.len()` ids are live at a time.
    pub fn from_edges(n: usize, edges: Vec<(u32, u32)>) -> Self {
        assert!(n <= u32::MAX as usize, "node ids limited to u32");
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in &edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range"
            );
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for v in 1..=n {
            offsets[v] += offsets[v - 1];
        }
        // Every edge adds one arc to each endpoint's row and one to each
        // endpoint's bucket, so buckets and rows share `offsets`.
        let mut cursor = offsets.clone();
        let mut tails = vec![0u32; 2 * edges.len()];
        for (a, b) in edges {
            for (tail, head) in [(a, b), (b, a)] {
                let slot = &mut cursor[head as usize];
                tails[*slot] = tail;
                *slot += 1;
            }
        }
        cursor.copy_from_slice(&offsets);
        let mut neighbors = vec![0u32; tails.len()];
        for head in 0..n {
            for &tail in &tails[offsets[head]..offsets[head + 1]] {
                let slot = &mut cursor[tail as usize];
                neighbors[*slot] = head as u32;
                *slot += 1;
            }
        }
        Self::canonical(offsets, neighbors)
    }

    /// Builds a canonical *directed* topology from per-node out-lists
    /// (`lists[v]` = the members `v` gossips to): self-arcs are
    /// dropped, duplicate arcs merged, lists sorted. No reverse arc is
    /// added.
    pub fn from_out_lists(mut lists: Vec<Vec<u32>>) -> Self {
        let n = lists.len();
        assert!(n <= u32::MAX as usize, "node ids limited to u32");
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        for (v, list) in lists.iter_mut().enumerate() {
            assert!(
                list.iter().all(|&w| (w as usize) < n),
                "arc out of range at node {v}"
            );
            list.sort_unstable();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        Self::canonical(offsets, neighbors)
    }

    /// Canonicalizes sorted raw CSR rows in place: each row is copied
    /// down over the gaps left by earlier rows without its duplicates
    /// and without `v` itself (a member never gossips to itself). A row
    /// only ever moves toward the front, so no row is overwritten before
    /// it is read.
    fn canonical(mut offsets: Vec<usize>, mut neighbors: Vec<u32>) -> Self {
        let (mut start, mut write) = (0, 0);
        for v in 0..offsets.len() - 1 {
            let end = offsets[v + 1];
            let mut previous = None;
            for read in start..end {
                let w = neighbors[read];
                if w as usize != v && previous != Some(w) {
                    neighbors[write] = w;
                    write += 1;
                }
                previous = Some(w);
            }
            offsets[v + 1] = write;
            // The next row starts where this one ended before compaction.
            start = end;
        }
        neighbors.truncate(write);
        Self { offsets, neighbors }
    }

    /// The complete overlay `K_n` (everyone adjacent to everyone),
    /// constructed directly — no `O(n²)` edge list materialized.
    pub fn complete(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "node ids limited to u32");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
        offsets.push(0usize);
        for v in 0..n as u32 {
            for u in 0..n as u32 {
                if u != v {
                    neighbors.push(u);
                }
            }
            offsets.push(neighbors.len());
        }
        Self { offsets, neighbors }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges: half the arc count, which is the
    /// edge count of a symmetric overlay (every generator but SCAMP's;
    /// on a directed overlay it is just arcs / 2).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree (out-degree on a directed overlay) of node `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbours of `v` (its out-list), sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Mean degree `2|E|/n` — in general arcs / n, so on SCAMP's
    /// overlay the mean view size.
    pub fn mean_degree(&self) -> f64 {
        if self.node_count() == 0 {
            return 0.0;
        }
        self.neighbors.len() as f64 / self.node_count() as f64
    }

    /// Iterator over all edges `(a, b)` with `a < b`, each reported once
    /// on a symmetric overlay. On a directed overlay it yields only the
    /// arcs that run from a lower to a higher id.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.node_count() as u32).flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// Whether the overlay is connected (BFS from node 0; the empty
    /// overlay counts as connected). The BFS follows out-lists, so on a
    /// directed overlay this asks whether node 0 reaches every member.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = Vec::with_capacity(n / 4 + 1);
        seen[0] = true;
        queue.push(0u32);
        let mut cursor = 0usize;
        while cursor < queue.len() {
            let v = queue[cursor];
            cursor += 1;
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    queue.push(w);
                }
            }
        }
        queue.len() == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_edges() {
        // Self-loop dropped, parallel edge merged, lists sorted.
        let t = Topology::from_edges(4, vec![(2, 1), (1, 2), (0, 0), (3, 1)]);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.neighbors(1), &[2, 3]);
        assert_eq!(t.degree(0), 0);
        assert!((t.mean_degree() - 1.0).abs() < 1e-12);
        let empty = Topology::from_edges(0, vec![]);
        assert_eq!((empty.node_count(), empty.mean_degree()), (0, 0.0));
    }

    #[test]
    fn symmetry_holds() {
        let t = Topology::from_edges(5, vec![(0, 1), (1, 2), (3, 4), (4, 0)]);
        for a in 0..5u32 {
            for &b in t.neighbors(a) {
                assert!(t.neighbors(b).contains(&a), "edge {a}-{b} not symmetric");
            }
        }
    }

    #[test]
    fn complete_shape() {
        let t = Topology::complete(6);
        assert_eq!(t.edge_count(), 15);
        for v in 0..6u32 {
            assert_eq!(t.degree(v), 5);
            assert!(!t.neighbors(v).contains(&v));
        }
        assert!(t.is_connected());
        assert!((t.mean_degree() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity_detects_islands() {
        let joined = Topology::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(joined.is_connected());
        let split = Topology::from_edges(4, vec![(0, 1), (2, 3)]);
        assert!(!split.is_connected());
    }

    #[test]
    fn edges_iterator_reports_each_once() {
        let t = Topology::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let mut edges: Vec<_> = t.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn out_lists_stay_directed_and_canonical() {
        // Self-arc dropped, duplicate merged, list sorted, no reverse arc.
        let t = Topology::from_out_lists(vec![vec![2, 1, 2, 0], vec![], vec![0]]);
        assert_eq!(t.neighbors(0), &[1, 2]);
        assert!(t.neighbors(1).is_empty());
        assert_eq!(t.neighbors(2), &[0]);
        assert!((t.mean_degree() - 1.0).abs() < 1e-12);
        // BFS follows out-lists: 0 reaches everyone, though 1 reaches no one.
        assert!(t.is_connected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edges() {
        Topology::from_edges(2, vec![(0, 7)]);
    }
}
