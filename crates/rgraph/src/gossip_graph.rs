//! The gossip digraph: the paper's Fig. 1 algorithm frozen into a graph.
//!
//! One execution of the general gossiping algorithm determines, for every
//! member, *who it would relay to if it ever received the message*: a
//! fanout drawn from `P` and that many distinct uniformly random targets.
//! Together with the crash pattern (each non-source member failed with
//! probability `1 − q`), this digraph fully determines the execution —
//! the message reaches exactly the nodes reachable from the source
//! through nonfailed intermediaries. Building the graph first (rather
//! than simulating message passing) is what lets us measure both the
//! directed reach *and* the undirected component structure the analysis
//! talks about, on the same random object.

use gossip_model::distribution::FanoutDistribution;
use gossip_stats::rng::Xoshiro256StarStar;

use crate::digraph::Digraph;

/// A realized gossip execution: who-points-at-whom plus the crash
/// pattern.
#[derive(Clone, Debug)]
pub struct GossipGraph {
    /// The relay digraph (arcs from every member, failed or not — failed
    /// members' arcs exist but are never traversed, matching "crash after
    /// receiving but before forwarding").
    pub digraph: Digraph,
    /// `failed[v]` — whether member `v` crashed. `failed[source]` is
    /// always `false` (paper §4.1: the source never fails).
    pub failed: Vec<bool>,
    /// The source member.
    pub source: u32,
}

impl GossipGraph {
    /// Number of members.
    pub fn n(&self) -> usize {
        self.digraph.node_count()
    }

    /// Number of nonfailed members (source included).
    pub fn nonfailed_count(&self) -> usize {
        self.failed.iter().filter(|&&f| !f).count()
    }
}

/// Builder for [`GossipGraph`] realizations.
#[derive(Clone, Copy, Debug)]
pub struct GossipGraphBuilder<'a, D: FanoutDistribution + ?Sized> {
    dist: &'a D,
    n: usize,
    q: f64,
    source: u32,
}

impl<'a, D: FanoutDistribution + ?Sized> GossipGraphBuilder<'a, D> {
    /// Creates a builder for `Gossip(n, P, q)` with source member 0.
    pub fn new(dist: &'a D, n: usize, q: f64) -> Self {
        assert!(n >= 2, "group needs at least 2 members");
        assert!(
            n <= u32::MAX as usize,
            "member ids are u32 (n <= 2^32 - 1, got {n})"
        );
        assert!(
            q > 0.0 && q <= 1.0,
            "nonfailed ratio must be in (0, 1], got {q}"
        );
        Self {
            dist,
            n,
            q,
            source: 0,
        }
    }

    /// Realizes one execution.
    ///
    /// Every member (failed or not) draws its fanout and targets — the
    /// paper treats "crash before receiving" and "crash after receiving
    /// but before forwarding" identically, so the arcs of failed members
    /// simply never carry the message. Targets are distinct and exclude
    /// the sender (sampling without replacement from the membership
    /// view).
    pub fn build(&self, rng: &mut Xoshiro256StarStar) -> GossipGraph {
        let n = self.n;
        // Crash pattern: i.i.d. with probability 1 − q, source immune.
        let mut failed = Vec::with_capacity(n);
        for v in 0..n as u32 {
            failed.push(v != self.source && !rng.next_bool(self.q));
        }

        // Fanouts first (so CSR offsets are known), then targets.
        let mut fanouts = Vec::with_capacity(n);
        for _ in 0..n {
            // A member cannot usefully gossip to more distinct members
            // than exist besides itself.
            fanouts.push(self.dist.sample(rng).min(n - 1));
        }

        // Scratch buffer for distinct-target rejection sampling: fanouts
        // are small (≪ n), so a linear duplicate scan beats hashing.
        let mut chosen: Vec<u32> = Vec::with_capacity(16);
        let digraph = Digraph::from_degrees_and_fill(n, &fanouts, |push| {
            for v in 0..n as u32 {
                let f = fanouts[v as usize];
                chosen.clear();
                while chosen.len() < f {
                    let t = rng.next_below(n as u64) as u32;
                    if t == v || chosen.contains(&t) {
                        continue;
                    }
                    chosen.push(t);
                    push(v, t);
                }
            }
        });

        GossipGraph {
            digraph,
            failed,
            source: self.source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::distribution::{FixedFanout, PoissonFanout};

    #[test]
    fn source_never_fails_and_ratio_holds() {
        let dist = PoissonFanout::new(4.0);
        let builder = GossipGraphBuilder::new(&dist, 4000, 0.6);
        let mut rng = Xoshiro256StarStar::new(41);
        let g = builder.build(&mut rng);
        assert!(!g.failed[0]);
        let nonfailed = g.nonfailed_count();
        let expected = 0.6 * 4000.0;
        assert!(
            (nonfailed as f64 - expected).abs() < 4.0 * (4000.0f64 * 0.6 * 0.4).sqrt(),
            "nonfailed = {nonfailed}"
        );
    }

    #[test]
    fn fanouts_match_distribution_mean() {
        let dist = PoissonFanout::new(4.0);
        let builder = GossipGraphBuilder::new(&dist, 2000, 1.0);
        let mut rng = Xoshiro256StarStar::new(5);
        let g = builder.build(&mut rng);
        let mean = g.digraph.mean_out_degree();
        assert!((mean - 4.0).abs() < 0.2, "mean out-degree {mean}");
    }

    #[test]
    fn targets_distinct_and_not_self() {
        let dist = FixedFanout::new(7);
        let builder = GossipGraphBuilder::new(&dist, 100, 1.0);
        let mut rng = Xoshiro256StarStar::new(9);
        let g = builder.build(&mut rng);
        for v in 0..100u32 {
            let out = g.digraph.out_neighbors(v);
            assert_eq!(out.len(), 7);
            assert!(!out.contains(&v), "self-target at {v}");
            let mut sorted = out.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 7, "duplicate target at {v}");
        }
    }

    #[test]
    fn fanout_clamped_to_group_size() {
        // Fanout 10 in a 4-member group must clamp to 3 distinct targets.
        let dist = FixedFanout::new(10);
        let builder = GossipGraphBuilder::new(&dist, 4, 1.0);
        let mut rng = Xoshiro256StarStar::new(2);
        let g = builder.build(&mut rng);
        for v in 0..4u32 {
            assert_eq!(g.digraph.out_degree(v), 3);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let dist = PoissonFanout::new(3.0);
        let builder = GossipGraphBuilder::new(&dist, 300, 0.8);
        let a = builder.build(&mut Xoshiro256StarStar::new(123));
        let b = builder.build(&mut Xoshiro256StarStar::new(123));
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.digraph.arc_count(), b.digraph.arc_count());
    }
}
