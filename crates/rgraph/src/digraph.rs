//! Compact directed graphs in CSR form.
//!
//! The gossip process is inherently directed — "x gossips the message to
//! y" is the arc `{x, y}` of the paper's reference \[6\]. The directed view
//! is what the message actually traverses; `gossip_graph` builds these.

/// A directed graph with nodes `0..n` in CSR form (out-adjacency).
#[derive(Clone, Debug)]
pub struct Digraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Digraph {
    /// Builds from a directed edge list of `(from, to)` pairs.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; n];
        for &(a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range"
            );
            degree[a as usize] += 1;
        }
        Self::from_degrees_and_fill(n, &degree, |push| {
            for &(a, b) in edges {
                push(a, b);
            }
        })
    }

    /// Builds from known out-degrees and a fill callback — lets callers
    /// stream edges without materializing an edge list.
    pub fn from_degrees_and_fill<F>(n: usize, out_degree: &[usize], fill: F) -> Self
    where
        F: FnOnce(&mut dyn FnMut(u32, u32)),
    {
        assert_eq!(out_degree.len(), n, "degree slice length must equal n");
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for d in out_degree {
            offsets.push(offsets.last().expect("non-empty") + d);
        }
        let mut targets = vec![0u32; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        {
            let mut push = |a: u32, b: u32| {
                targets[cursor[a as usize]] = b;
                cursor[a as usize] += 1;
            };
            fill(&mut push);
        }
        debug_assert_eq!(cursor, offsets[1..].to_vec(), "fill must match degrees");
        Self { offsets, targets }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of arcs.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Out-neighbours of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Mean out-degree.
    pub fn mean_out_degree(&self) -> f64 {
        if self.node_count() == 0 {
            return 0.0;
        }
        self.targets.len() as f64 / self.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_basic() {
        let g = Digraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 3);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(2), 0);
        let mut n0 = g.out_neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn streaming_fill_matches_edge_list() {
        let degrees = [2usize, 1, 0];
        let g = Digraph::from_degrees_and_fill(3, &degrees, |push| {
            push(0, 2);
            push(1, 0);
            push(0, 1);
        });
        assert_eq!(g.arc_count(), 3);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_neighbors(1), &[0]);
    }

    #[test]
    fn mean_out_degree() {
        let g = Digraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!((g.mean_out_degree() - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edges() {
        Digraph::from_edges(2, &[(3, 0)]);
    }
}
