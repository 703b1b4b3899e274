//! The configuration model: uniform random (multi)graphs with a
//! prescribed degree sequence.
//!
//! This is the graph family the generalized-random-graph theory (paper
//! §3, Newman–Strogatz–Watts) describes *exactly*: sample a degree for
//! every node from the fanout distribution, cut each node into that many
//! "stubs", and match stubs uniformly at random. Measuring giant
//! components on these graphs validates the analytic `G0`/`G1` machinery
//! independently of any gossip semantics.

use gossip_model::distribution::FanoutDistribution;
use gossip_stats::rng::Xoshiro256StarStar;

use crate::graph::Graph;

/// Configuration-model sampler for a fanout/degree distribution.
#[derive(Clone, Copy, Debug)]
pub struct ConfigurationModel<'a, D: FanoutDistribution + ?Sized> {
    dist: &'a D,
    n: usize,
}

impl<'a, D: FanoutDistribution + ?Sized> ConfigurationModel<'a, D> {
    /// Creates a sampler for graphs on `n` nodes with degrees drawn from
    /// `dist`.
    pub fn new(dist: &'a D, n: usize) -> Self {
        assert!(n >= 2, "configuration model needs at least 2 nodes");
        assert!(
            n <= u32::MAX as usize,
            "configuration model node ids are u32 (n <= 2^32 - 1, got {n})"
        );
        Self { dist, n }
    }

    /// Samples a degree sequence; if the stub total is odd, one extra
    /// stub is added to a uniformly chosen node (the standard parity fix —
    /// O(1/n) distortion).
    fn sample_degrees(&self, rng: &mut Xoshiro256StarStar) -> Vec<usize> {
        let mut degrees = Vec::with_capacity(self.n);
        let mut total = 0usize;
        for _ in 0..self.n {
            let d = self.dist.sample(rng);
            total += d;
            degrees.push(d);
        }
        if total % 2 == 1 {
            let lucky = rng.next_below(self.n as u64) as usize;
            degrees[lucky] += 1;
        }
        degrees
    }

    /// Generates one graph: sample degrees, shuffle the stub list
    /// (Fisher–Yates), pair consecutive stubs.
    pub fn generate(&self, rng: &mut Xoshiro256StarStar) -> Graph {
        let degrees = self.sample_degrees(rng);
        self.generate_with_degrees(&degrees, rng)
    }

    /// Generates one graph for an explicit (even-sum) degree sequence.
    pub fn generate_with_degrees(&self, degrees: &[usize], rng: &mut Xoshiro256StarStar) -> Graph {
        assert_eq!(degrees.len(), self.n, "degree sequence length must be n");
        let total: usize = degrees.iter().sum();
        assert!(
            total.is_multiple_of(2),
            "degree sum must be even, got {total}"
        );

        // Build the stub list: node i appears degrees[i] times.
        let mut stubs = Vec::with_capacity(total);
        for (node, &d) in degrees.iter().enumerate() {
            let node = u32::try_from(node).expect("node count validated to fit u32");
            for _ in 0..d {
                stubs.push(node);
            }
        }
        // Fisher–Yates shuffle, then pair consecutive stubs: a uniform
        // perfect matching of stubs.
        for i in (1..stubs.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            stubs.swap(i, j);
        }
        let mut edges = Vec::with_capacity(total / 2);
        for pair in stubs.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            edges.push((a.min(b), a.max(b)));
        }
        Graph::from_edges(self.n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::distribution::{FixedFanout, PoissonFanout};

    #[test]
    fn degree_sum_is_even_and_mean_matches() {
        let dist = PoissonFanout::new(4.0);
        let model = ConfigurationModel::new(&dist, 5000);
        let mut rng = Xoshiro256StarStar::new(7);
        let degrees = model.sample_degrees(&mut rng);
        let total: usize = degrees.iter().sum();
        assert_eq!(total % 2, 0);
        let mean = total as f64 / degrees.len() as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean degree {mean}");
    }

    #[test]
    fn generated_graph_realizes_degrees() {
        let dist = FixedFanout::new(3);
        let model = ConfigurationModel::new(&dist, 1000);
        let mut rng = Xoshiro256StarStar::new(11);
        let g = model.generate(&mut rng);
        assert_eq!(g.node_count(), 1000);
        // 3-regular (multigraph): every degree exactly 3 — parity fix may
        // bump one node to 4 when n·3 is odd, but 1000·3 is even.
        for v in 0..1000u32 {
            assert_eq!(g.degree(v), 3, "node {v}");
        }
    }

    #[test]
    fn explicit_degrees_roundtrip() {
        let dist = FixedFanout::new(0); // unused by generate_with_degrees
        let model = ConfigurationModel::new(&dist, 4);
        let mut rng = Xoshiro256StarStar::new(3);
        let g = model.generate_with_degrees(&[1, 1, 2, 2], &mut rng);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(3), 2);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn determinism_by_seed() {
        let dist = PoissonFanout::new(3.0);
        let model = ConfigurationModel::new(&dist, 300);
        let g1 = model.generate(&mut Xoshiro256StarStar::new(99));
        let g2 = model.generate(&mut Xoshiro256StarStar::new(99));
        assert_eq!(g1.edge_count(), g2.edge_count());
        for v in 0..300u32 {
            assert_eq!(g1.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    #[should_panic(expected = "degree sum must be even")]
    fn rejects_odd_degree_sum() {
        let dist = FixedFanout::new(0);
        let model = ConfigurationModel::new(&dist, 3);
        let mut rng = Xoshiro256StarStar::new(1);
        model.generate_with_degrees(&[1, 1, 1], &mut rng);
    }
}
