//! Peer-selection policies over a fixed overlay.
//!
//! Selection operates on the *sorted* neighbour list that canonical CSR
//! form guarantees, so the deterministic policies (`NextPair`,
//! `SkipFew`) mean the same thing on every machine and every run.

use gossip_stats::rng::Xoshiro256StarStar;

use crate::csr::Topology;
use crate::spec::PeerSelection;

/// Picks up to `fanout` gossip targets for `node` from its overlay
/// neighbourhood and appends them to `out` (cleared first).
///
/// All policies return distinct targets and never include `node`
/// itself. `UniformGlobal` and `RandomNeighbour` return
/// `min(fanout, degree)` targets; the deterministic policies may return
/// fewer (`SkipFew` skips exponentially through the neighbour ranks and
/// stops once the offsets wrap onto already-chosen peers).
pub fn select_targets(
    topo: &Topology,
    policy: PeerSelection,
    node: u32,
    fanout: usize,
    rng: &mut Xoshiro256StarStar,
    out: &mut Vec<u32>,
) {
    out.clear();
    let neighbors = topo.neighbors(node);
    if fanout == 0 || neighbors.is_empty() {
        return;
    }
    match policy {
        // On the complete overlay the neighbour list *is* the rest of
        // the group, so this reproduces the paper's uniform member
        // selection; on structured overlays validation forbids it.
        PeerSelection::UniformGlobal | PeerSelection::RandomNeighbour => {
            sample_distinct(neighbors, fanout, rng, out);
        }
        PeerSelection::NextPair => {
            // The first `fanout` neighbours after `node` in cyclic id
            // order (ciruela's "next two in the ring" generalized).
            let start = neighbors.partition_point(|&u| u <= node);
            for i in 0..fanout.min(neighbors.len()) {
                out.push(neighbors[(start + i) % neighbors.len()]);
            }
        }
        PeerSelection::SkipFew => {
            // Exponentially spaced ranks past `node`: offsets
            // 2^i − 1 = 0, 1, 3, 7, 15, … into the rotated list.
            let start = neighbors.partition_point(|&u| u <= node);
            let mut offset = 0usize;
            for i in 0..fanout {
                let peer = neighbors[(start + offset) % neighbors.len()];
                if out.contains(&peer) {
                    break; // wrapped onto an earlier pick: list exhausted
                }
                out.push(peer);
                offset = (1usize << (i + 1).min(usize::BITS as usize - 1)) - 1;
            }
        }
    }
}

/// Draws `min(k, pool.len())` distinct elements from `pool` uniformly
/// at random into `out`, which must arrive empty. Small-k rejection
/// sampling when the pool is large, a partial Fisher–Yates staged in
/// `out` itself otherwise.
fn sample_distinct(pool: &[u32], k: usize, rng: &mut Xoshiro256StarStar, out: &mut Vec<u32>) {
    debug_assert!(out.is_empty());
    let k = k.min(pool.len());
    if k == pool.len() {
        out.extend_from_slice(pool);
        return;
    }
    if k * 4 <= pool.len() {
        while out.len() < k {
            let pick = pool[rng.next_below(pool.len() as u64) as usize];
            if !out.contains(&pick) {
                out.push(pick);
            }
        }
    } else {
        out.extend_from_slice(pool);
        for i in 0..k {
            let j = i + rng.next_below((pool.len() - i) as u64) as usize;
            out.swap(i, j);
        }
        out.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::OverlaySpec;

    fn ring(n: usize) -> Topology {
        crate::generate::build_overlay(&OverlaySpec::KRegular { k: 6 }, n, 42)
    }

    #[test]
    fn random_neighbour_stays_in_neighbourhood() {
        let t = ring(40);
        let mut rng = Xoshiro256StarStar::new(5);
        let mut out = Vec::new();
        for node in 0..40u32 {
            select_targets(
                &t,
                PeerSelection::RandomNeighbour,
                node,
                3,
                &mut rng,
                &mut out,
            );
            assert_eq!(out.len(), 3);
            for &p in &out {
                assert!(t.neighbors(node).contains(&p));
                assert_ne!(p, node);
            }
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.len(), "duplicate targets for {node}");
        }
    }

    #[test]
    fn random_neighbour_caps_at_degree() {
        let t = ring(40);
        let mut rng = Xoshiro256StarStar::new(5);
        let mut out = Vec::new();
        select_targets(
            &t,
            PeerSelection::RandomNeighbour,
            0,
            99,
            &mut rng,
            &mut out,
        );
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn uniform_global_on_complete_covers_whole_group() {
        let t = Topology::complete(10);
        let mut rng = Xoshiro256StarStar::new(7);
        let mut out = Vec::new();
        select_targets(&t, PeerSelection::UniformGlobal, 4, 9, &mut rng, &mut out);
        assert_eq!(out.len(), 9);
        assert!(!out.contains(&4));
    }

    #[test]
    fn next_pair_is_deterministic_and_cyclic() {
        let t = ring(12); // neighbours of 11 include 0, 1, 2 (wrap)
        let mut rng = Xoshiro256StarStar::new(1);
        let mut out = Vec::new();
        select_targets(&t, PeerSelection::NextPair, 11, 2, &mut rng, &mut out);
        assert_eq!(out, vec![0, 1]);
        // No RNG involvement: identical on repeat.
        let mut again = Vec::new();
        select_targets(&t, PeerSelection::NextPair, 11, 2, &mut rng, &mut again);
        assert_eq!(out, again);
    }

    #[test]
    fn skip_few_spaces_exponentially() {
        let t = Topology::complete(40);
        let mut rng = Xoshiro256StarStar::new(1);
        let mut out = Vec::new();
        select_targets(&t, PeerSelection::SkipFew, 0, 4, &mut rng, &mut out);
        // Neighbours of 0 are 1..=39; ranks 0,1,3,7 → ids 1,2,4,8.
        assert_eq!(out, vec![1, 2, 4, 8]);
    }

    #[test]
    fn skip_few_stops_on_wrap() {
        let t = ring(40); // degree 6
        let mut rng = Xoshiro256StarStar::new(1);
        let mut out = Vec::new();
        select_targets(&t, PeerSelection::SkipFew, 0, 6, &mut rng, &mut out);
        assert!(!out.is_empty() && out.len() <= 6);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.len());
    }

    /// The sampler as it was before its Fisher–Yates moved into `out`:
    /// rejection while `4k ≤ degree`, otherwise a partial shuffle of a
    /// copy of the neighbour list.
    fn copy_then_swap(pool: &[u32], k: usize, rng: &mut Xoshiro256StarStar) -> Vec<u32> {
        let k = k.min(pool.len());
        let mut out = Vec::new();
        if k == pool.len() {
            out.extend_from_slice(pool);
        } else if k * 4 <= pool.len() {
            while out.len() < k {
                let pick = pool[rng.next_below(pool.len() as u64) as usize];
                if !out.contains(&pick) {
                    out.push(pick);
                }
            }
        } else {
            let mut copy = pool.to_vec();
            for i in 0..k {
                let j = i + rng.next_below((copy.len() - i) as u64) as usize;
                copy.swap(i, j);
                out.push(copy[i]);
            }
        }
        out
    }

    #[test]
    fn random_neighbour_draws_match_the_copy_then_swap_reference() {
        let specs = [
            OverlaySpec::WattsStrogatz { k: 10, beta: 0.1 },
            OverlaySpec::KRegular { k: 6 },
        ];
        for spec in &specs {
            for seed in [1u64, 7, 42] {
                let t = crate::generate::build_overlay(spec, 500, seed);
                let mut rng = Xoshiro256StarStar::new(seed);
                let mut reference_rng = rng.clone();
                let mut out = Vec::new();
                for node in 0..500u32 {
                    // Every fanout from 1 to past the degree, so both the
                    // rejection and the Fisher–Yates paths run.
                    for fanout in 1..=t.degree(node) + 1 {
                        select_targets(
                            &t,
                            PeerSelection::RandomNeighbour,
                            node,
                            fanout,
                            &mut rng,
                            &mut out,
                        );
                        let want = copy_then_swap(t.neighbors(node), fanout, &mut reference_rng);
                        assert_eq!(
                            out, want,
                            "{spec:?} seed {seed} node {node} fanout {fanout}"
                        );
                    }
                }
                assert_eq!(rng, reference_rng, "draw counts differ");
            }
        }
    }

    #[test]
    fn zero_fanout_and_isolated_nodes_yield_nothing() {
        let t = Topology::from_edges(3, vec![(0, 1)]);
        let mut rng = Xoshiro256StarStar::new(1);
        let mut out = vec![9, 9];
        select_targets(&t, PeerSelection::RandomNeighbour, 2, 3, &mut rng, &mut out);
        assert!(out.is_empty(), "isolated node must select nobody");
        select_targets(&t, PeerSelection::RandomNeighbour, 0, 0, &mut rng, &mut out);
        assert!(out.is_empty());
    }
}
