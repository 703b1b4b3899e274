//! Empirical site percolation on undirected graphs.
//!
//! The Monte-Carlo counterpart of `gossip_model::law`: occupy
//! each node with probability `q`, census the occupied subgraph, and
//! compare the measured giant component against `1 − G0(u)`. Used by the
//! phase scans (E7) and the model-vs-graph integration tests.

use gossip_stats::descriptive::OnlineStats;
use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};

use crate::components::{census_occupied, ComponentCensus};
use crate::graph::Graph;

/// One percolation replication's summary.
#[derive(Clone, Debug, PartialEq)]
pub struct PercolationOutcome {
    /// Census of the occupied subgraph.
    pub census: ComponentCensus,
    /// Number of occupied nodes.
    pub occupied: usize,
}

impl PercolationOutcome {
    /// Giant component as a fraction of occupied nodes — the empirical
    /// reliability `R(q, P)`.
    pub fn reliability(&self) -> f64 {
        self.census.largest_fraction()
    }
}

/// Percolates `g` once at occupation probability `q`; `immune` nodes
/// (e.g. the gossip source) are always occupied.
pub fn percolate(
    g: &Graph,
    q: f64,
    immune: &[u32],
    rng: &mut Xoshiro256StarStar,
) -> PercolationOutcome {
    assert!((0.0..=1.0).contains(&q), "q must be in [0, 1], got {q}");
    let n = g.node_count();
    let mut occupied = Vec::with_capacity(n);
    for _ in 0..n {
        occupied.push(rng.next_bool(q));
    }
    for &v in immune {
        occupied[v as usize] = true;
    }
    let census = census_occupied(g, &occupied);
    PercolationOutcome {
        occupied: census.nodes,
        census,
    }
}

/// Aggregated statistics over many percolation replications.
#[derive(Clone, Debug, Default)]
pub struct PercolationStats {
    /// Giant-component fraction of occupied nodes per replication.
    pub reliability: OnlineStats,
    /// Second-largest component fraction per replication.
    pub second_fraction: OnlineStats,
    /// Susceptibility per replication.
    pub susceptibility: OnlineStats,
}

/// Runs `reps` independent percolations of `g` at `q`, deriving each
/// replication's seed from `(base_seed, rep)` — deterministic and
/// order-independent.
pub fn percolate_many(
    g: &Graph,
    q: f64,
    immune: &[u32],
    reps: usize,
    base_seed: u64,
) -> PercolationStats {
    let mut stats = PercolationStats::default();
    for rep in 0..reps {
        let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(base_seed, rep as u64));
        let out = percolate(g, q, immune, &mut rng);
        stats.reliability.push(out.reliability());
        let second = if out.occupied == 0 {
            0.0
        } else {
            out.census.second_largest as f64 / out.occupied as f64
        };
        stats.second_fraction.push(second);
        stats.susceptibility.push(out.census.susceptibility);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configuration::ConfigurationModel;
    use gossip_model::distribution::PoissonFanout;
    use gossip_model::PaperLaw;

    fn poisson_graph(n: usize, z: f64, seed: u64) -> Graph {
        let dist = PoissonFanout::new(z);
        ConfigurationModel::new(&dist, n).generate(&mut Xoshiro256StarStar::new(seed))
    }

    #[test]
    fn q_one_matches_full_census() {
        let g = poisson_graph(2000, 3.0, 1);
        let mut rng = Xoshiro256StarStar::new(2);
        let out = percolate(&g, 1.0, &[], &mut rng);
        assert_eq!(out.occupied, 2000);
        let full = crate::components::census(&g);
        assert_eq!(out.census.largest, full.largest);
    }

    #[test]
    fn empirical_matches_analytic_reliability() {
        // Po(4) at q = 0.8: analytic reliability ≈ 0.9575…; a 5000-node
        // graph should land within a few percent.
        let g = poisson_graph(5000, 4.0, 3);
        let stats = percolate_many(&g, 0.8, &[], 10, 99);
        let dist = PoissonFanout::new(4.0);
        let analytic = PaperLaw::new(&dist, 0.8, 0.0)
            .unwrap()
            .reliability()
            .unwrap();
        let measured = stats.reliability.mean();
        assert!(
            (measured - analytic).abs() < 0.03,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn subcritical_has_no_giant() {
        // Po(4) at q = 0.15 < q_c = 0.25: largest component is tiny.
        let g = poisson_graph(5000, 4.0, 4);
        let stats = percolate_many(&g, 0.15, &[], 5, 7);
        assert!(
            stats.reliability.mean() < 0.05,
            "subcritical giant fraction {}",
            stats.reliability.mean()
        );
    }

    #[test]
    fn immune_nodes_always_occupied() {
        let g = poisson_graph(100, 2.0, 5);
        let mut rng = Xoshiro256StarStar::new(6);
        // q = 0 with immune node 7: exactly one occupied node.
        let out = percolate(&g, 0.0, &[7], &mut rng);
        assert_eq!(out.occupied, 1);
        assert_eq!(out.census.largest, 1);
    }

    #[test]
    fn determinism_across_runs() {
        let g = poisson_graph(500, 3.0, 8);
        let a = percolate_many(&g, 0.5, &[], 5, 1234);
        let b = percolate_many(&g, 0.5, &[], 5, 1234);
        assert_eq!(a.reliability.mean(), b.reliability.mean());
        assert_eq!(a.susceptibility.mean(), b.susceptibility.mean());
    }
}
