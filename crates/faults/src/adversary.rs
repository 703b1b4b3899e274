//! The oblivious link-blocking adversary (Doerr et al.).
//!
//! The adversary commits to a static set of up to `f` blocked directed
//! links *before* the protocol flips any coin — it sees the group and
//! the parameters, never the random choices. Every transmission over a
//! blocked link is silently dropped for the whole execution.

use std::collections::HashSet;

use gossip_stats::rng::Xoshiro256StarStar;

use crate::spec::{AdversarySpec, AdversaryStrategy};

/// The committed blocked-link set of one execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockedLinks {
    /// Sorted `(from, to)` pairs for binary-search lookup.
    links: Vec<(u32, u32)>,
}

impl BlockedLinks {
    /// Commits the adversary's choice for a group of `n` members.
    ///
    /// * [`AdversaryStrategy::WorstCase`] is deterministic: it cuts
    ///   whole uplink fans in id order starting at the source — the
    ///   strongest static play against a push protocol, since silencing
    ///   a sender wastes *all* of its relay budget. At `f ≥ n − 1` the
    ///   source cannot reach anyone and reliability collapses to the
    ///   source alone, even though only a fraction `f / n(n−1) ≈ 1/n`
    ///   of links is blocked.
    /// * [`AdversaryStrategy::Random`] draws `f` distinct directed
    ///   links from a seeded stream — the baseline showing how little
    ///   the same budget hurts without targeting.
    pub fn build(n: usize, source: u32, spec: &AdversarySpec, seed: u64) -> Self {
        let edge_count = n.saturating_mul(n.saturating_sub(1));
        let f = spec.f.min(edge_count);
        let mut links: Vec<(u32, u32)> = Vec::with_capacity(f);
        match spec.strategy {
            AdversaryStrategy::WorstCase => {
                let order =
                    std::iter::once(source).chain((0..n as u32).filter(move |&v| v != source));
                'fill: for from in order {
                    for to in 0..n as u32 {
                        if to == from {
                            continue;
                        }
                        if links.len() == f {
                            break 'fill;
                        }
                        links.push((from, to));
                    }
                }
            }
            AdversaryStrategy::Random => {
                let mut rng = Xoshiro256StarStar::new(seed);
                let mut drawn = HashSet::with_capacity(f);
                while links.len() < f {
                    let a = rng.next_below(n as u64) as u32;
                    let b = rng.next_below(n as u64) as u32;
                    if a == b || !drawn.insert((a, b)) {
                        continue;
                    }
                    links.push((a, b));
                }
            }
        }
        links.sort_unstable();
        BlockedLinks { links }
    }

    /// Whether the adversary blocks the directed link `from → to`.
    pub fn blocks(&self, from: u32, to: u32) -> bool {
        self.links.binary_search(&(from, to)).is_ok()
    }

    /// Number of blocked links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no link is blocked.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_silences_the_source_first() {
        let spec = AdversarySpec {
            f: 9,
            strategy: AdversaryStrategy::WorstCase,
        };
        let blocked = BlockedLinks::build(10, 0, &spec, 0);
        assert_eq!(blocked.len(), 9);
        for to in 1..10u32 {
            assert!(blocked.blocks(0, to), "source uplink to {to} must be cut");
        }
        assert!(!blocked.blocks(1, 2));
    }

    #[test]
    fn worst_case_spills_into_next_fan() {
        let spec = AdversarySpec {
            f: 12,
            strategy: AdversaryStrategy::WorstCase,
        };
        // Source 3: its 9-link fan first, then node 0's fan in id order.
        let blocked = BlockedLinks::build(10, 3, &spec, 0);
        assert!(blocked.blocks(3, 9));
        assert!(blocked.blocks(0, 1));
        assert!(blocked.blocks(0, 2));
        assert!(blocked.blocks(0, 3));
        assert!(!blocked.blocks(0, 4), "budget exhausted after 12 links");
    }

    #[test]
    fn random_links_are_distinct_and_seeded() {
        let spec = AdversarySpec {
            f: 40,
            strategy: AdversaryStrategy::Random,
        };
        let a = BlockedLinks::build(20, 0, &spec, 7);
        let b = BlockedLinks::build(20, 0, &spec, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        let c = BlockedLinks::build(20, 0, &spec, 8);
        assert_ne!(a, c, "different seeds should differ (a.s.)");
    }

    /// The random draw as it was with a linear duplicate check.
    fn linear_contains_reference(n: usize, f: usize, seed: u64) -> Vec<(u32, u32)> {
        let f = f.min(n * (n - 1));
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut links = Vec::new();
        while links.len() < f {
            let a = rng.next_below(n as u64) as u32;
            let b = rng.next_below(n as u64) as u32;
            if a == b || links.contains(&(a, b)) {
                continue;
            }
            links.push((a, b));
        }
        links.sort_unstable();
        links
    }

    #[test]
    fn random_links_match_the_linear_contains_reference() {
        for (n, f) in [(2, 5), (5, 20), (20, 40), (100, 1000), (1000, 1000)] {
            for seed in [0u64, 3, 99] {
                let spec = AdversarySpec {
                    f,
                    strategy: AdversaryStrategy::Random,
                };
                let blocked = BlockedLinks::build(n, 0, &spec, seed);
                assert_eq!(
                    blocked.links,
                    linear_contains_reference(n, f, seed),
                    "n {n} f {f} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn budget_capped_at_edge_count() {
        let spec = AdversarySpec {
            f: 1_000_000,
            strategy: AdversaryStrategy::WorstCase,
        };
        let blocked = BlockedLinks::build(5, 0, &spec, 0);
        assert_eq!(blocked.len(), 20);
    }
}
