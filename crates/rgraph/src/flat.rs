//! Flat struct-of-arrays percolation for the million-node regime.
//!
//! Building a [`crate::graph::Graph`] CSR per replication, rebuilding
//! it thinned for loss, and then running a component census over a
//! `Vec<bool>` occupancy costs three O(n + m) allocations per
//! replication. This module fuses all of it into one pass over a
//! reusable arena: degrees are drawn through the
//! `gossip-engine` alias sampler straight into a stub list, the stub
//! list is shuffled and paired (the configuration-model matching), and
//! each pair feeds a [`UnionFind`] union *only if the bond survives
//! loss and both endpoints are occupied*. The adjacency never
//! materializes — union-find over the stub pairing is the component
//! census — and every buffer is reset, never reallocated, between
//! replications.
//!
//! The measured quantity is the one that unfused pipeline gives:
//! reliability = largest occupied component / occupied count (Eq. 4's
//! giant-component fraction under site percolation with ratio `q` and
//! bond percolation with rate `1 − loss`). `tests/tests/engine_agreement.rs`
//! keeps the unfused pipeline — [`crate::ConfigurationModel`],
//! bond-thinned [`crate::Graph::from_edges`], [`crate::percolate`] — as
//! the reference; the two agree within Monte-Carlo tolerance.

use gossip_engine::{BitSet, FanoutSampler};
use gossip_model::distribution::FanoutDistribution;
use gossip_stats::rng::Xoshiro256StarStar;

use crate::unionfind::UnionFind;

/// Arena for flat percolation replications: reset in place, sized once
/// per evaluation.
#[derive(Debug)]
pub struct PercolationScratch {
    stubs: Vec<u32>,
    occupied: BitSet,
    uf: UnionFind,
}

impl PercolationScratch {
    /// Buffers for graphs on `n` nodes.
    pub fn new(n: usize) -> Self {
        PercolationScratch {
            stubs: Vec::new(),
            occupied: BitSet::new(n),
            uf: UnionFind::new(n),
        }
    }
}

/// One evaluation's immutable percolation configuration (shared
/// read-only across replications and worker threads).
#[derive(Clone, Copy)]
pub struct FlatPercolation<'a> {
    /// Number of nodes.
    pub n: usize,
    /// Site-occupation (nonfailed) probability.
    pub q: f64,
    /// Bond-removal (message loss) probability.
    pub loss: f64,
    /// Degree distribution.
    pub dist: &'a dyn FanoutDistribution,
    /// Alias-table degree draws.
    pub sampler: &'a FanoutSampler,
}

impl<'a> FlatPercolation<'a> {
    /// Runs one replication, returning the paper's reliability: the
    /// largest occupied component over the occupied count.
    pub fn run(&self, scratch: &mut PercolationScratch, rng: &mut Xoshiro256StarStar) -> f64 {
        debug_assert_eq!(scratch.occupied.len(), self.n);

        // Site percolation first: occupied ⇔ nonfailed.
        if self.q >= 1.0 {
            scratch.occupied.set_all();
        } else {
            scratch.occupied.clear();
            for v in 0..self.n {
                if rng.next_bool(self.q) {
                    scratch.occupied.set(v);
                }
            }
        }
        let occupied_count = scratch.occupied.count_ones();
        if occupied_count == 0 {
            return 0.0;
        }

        // Configuration-model degree sequence, drawn straight into the
        // stub list (node v appears deg(v) times).
        scratch.stubs.clear();
        for v in 0..self.n as u32 {
            for _ in 0..self.sampler.sample(self.dist, rng) {
                scratch.stubs.push(v);
            }
        }
        if scratch.stubs.len() % 2 == 1 {
            // Standard parity fix: one extra stub at a uniform node.
            let lucky = rng.next_below(self.n as u64) as u32;
            scratch.stubs.push(lucky);
        }

        // Fisher–Yates; pairing consecutive stubs is then a uniform
        // perfect matching — the configuration model.
        for i in (1..scratch.stubs.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            scratch.stubs.swap(i, j);
        }

        // Union survivors-only: a component of size ≥ 2 is all-occupied
        // by construction, and unoccupied nodes stay singletons, so
        // `uf.largest()` *is* the largest occupied component whenever
        // any node is occupied.
        scratch.uf.reset();
        for pair in scratch.stubs.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            if self.loss > 0.0 && rng.next_bool(self.loss) {
                continue; // bond percolation: the edge never transmits
            }
            if scratch.occupied.get(a as usize) && scratch.occupied.get(b as usize) {
                scratch.uf.union(a, b);
            }
        }
        scratch.uf.largest() as f64 / occupied_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::distribution::PoissonFanout;
    use gossip_model::percolation::SitePercolation;
    use gossip_stats::rng::SplitMix64;

    fn mean_reliability(n: usize, z: f64, q: f64, loss: f64, reps: u64, seed: u64) -> f64 {
        let dist = PoissonFanout::new(z);
        let sampler = FanoutSampler::new(&dist);
        let flat = FlatPercolation {
            n,
            q,
            loss,
            dist: &dist,
            sampler: &sampler,
        };
        let mut scratch = PercolationScratch::new(n);
        let total: f64 = (0..reps)
            .map(|rep| {
                let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, rep));
                flat.run(&mut scratch, &mut rng)
            })
            .sum();
        total / reps as f64
    }

    #[test]
    fn matches_the_analytic_giant_component() {
        // Po(4) at q = 0.9: S from the generating-function model.
        let dist = PoissonFanout::new(4.0);
        let predicted = SitePercolation::new(&dist, 0.9)
            .unwrap()
            .reliability()
            .unwrap();
        let measured = mean_reliability(5000, 4.0, 0.9, 0.0, 12, 0xF1A7);
        assert!(
            (measured - predicted).abs() < 0.03,
            "flat {measured} vs analytic {predicted}"
        );
    }

    #[test]
    fn loss_thins_to_the_smaller_poisson() {
        // Po(6) with 25% bond loss ≈ Po(4.5) lossless.
        let lossy = mean_reliability(5000, 6.0, 0.9, 0.25, 10, 1);
        let thinned = mean_reliability(5000, 4.5, 0.9, 0.0, 10, 2);
        assert!((lossy - thinned).abs() < 0.04, "lossy {lossy} vs {thinned}");
    }

    #[test]
    fn subcritical_collapses() {
        // q = 0.15 < q_c = 0.25 for Po(4).
        let r = mean_reliability(5000, 4.0, 0.15, 0.0, 8, 3);
        assert!(r < 0.05, "subcritical reliability {r}");
    }

    #[test]
    fn deterministic_and_scratch_reuse_is_clean() {
        let a = mean_reliability(2000, 4.0, 0.9, 0.1, 6, 42);
        let b = mean_reliability(2000, 4.0, 0.9, 0.1, 6, 42);
        assert_eq!(a, b);
    }
}
