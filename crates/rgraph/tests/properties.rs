//! Property-based tests for the random-graph substrate.

use gossip_rgraph::{Sweep, UnionFind};
use gossip_stats::rng::Xoshiro256StarStar;
use gossip_topology::Topology;
use proptest::prelude::*;

/// Reference disjoint-set: every edge relaxes both ends' labels to the
/// smaller one until nothing changes (n is small here), so two nodes
/// share a label exactly when they are connected.
fn reference_components(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b) in edges {
            let min = label[a as usize].min(label[b as usize]);
            for v in [a, b] {
                changed |= std::mem::replace(&mut label[v as usize], min) != min;
            }
        }
    }
    label
}

/// The finite-cluster susceptibility `(Σs² − L²)/(m − L)`, 0 when the
/// largest component holds all `m`.
fn chi(sum_sq: u64, largest: u64, m: usize) -> f64 {
    match m as u64 - largest {
        0 => 0.0,
        rest => (sum_sq - largest * largest) as f64 / rest as f64,
    }
}

/// `n` members and a raw multigraph edge list on them: uniform pairs,
/// each followed in turn by nothing, its reverse, a self-loop or itself
/// again. A `Topology` erases the loops and repeats; the recounts below
/// run over the raw list, so they check that erasure changes no
/// component.
fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32, 0u8..4);
        proptest::collection::vec(edge, 0..max_m).prop_map(move |raw| {
            let edges = raw.into_iter().flat_map(|(a, b, shape)| {
                let then = [None, Some((b, a)), Some((a, a)), Some((a, b))];
                std::iter::once((a, b)).chain(then[shape as usize])
            });
            (n, edges.collect())
        })
    })
}

proptest! {
    /// Union-find agrees with naive label propagation on arbitrary edge
    /// sets.
    #[test]
    fn unionfind_matches_reference((n, edges) in arb_edges(40, 80)) {
        let mut uf = UnionFind::new(n);
        for &(a, b) in &edges {
            uf.union(a, b);
        }
        let reference = reference_components(n, &edges);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                let same_ref = reference[i as usize] == reference[j as usize];
                prop_assert_eq!(
                    uf.connected(i, j),
                    same_ref,
                    "nodes {} and {} disagree", i, j
                );
            }
        }
    }

    /// At q = 1 a sweep of the erased graph has the largest component of
    /// a union-find over every raw edge, and its Σs² partitions the nodes.
    #[test]
    fn census_partitions_nodes((n, edges) in arb_edges(60, 120), seed in 0u64..1000) {
        let mut full = UnionFind::new(n);
        for &(a, b) in &edges {
            full.union(a, b);
        }
        let mut rng = Xoshiro256StarStar::new(seed);
        let s = Sweep::new(&Topology::from_edges(n, &edges), &mut rng);
        prop_assert_eq!(s.nodes(), n);
        prop_assert_eq!(s.largest(n), full.largest());
        let sizes = full.component_sizes().into_iter().map(u64::from);
        let (sq, l) = sizes.fold((0, 0), |(sq, l), s| (sq + s * s, l.max(s)));
        prop_assert_eq!(s.susceptibility(n), chi(sq, l, n));
        prop_assert_eq!(s.reliability(1.0), s.fraction(n));
        prop_assert_eq!(s.sample(1.0, &mut rng), s.fraction(n));
    }

    /// L is non-decreasing in the occupied count and never exceeds it.
    #[test]
    fn occupied_census_bounded((n, edges) in arb_edges(40, 80), seed in 0u64..1000) {
        let s = Sweep::new(&Topology::from_edges(n, &edges), &mut Xoshiro256StarStar::new(seed));
        prop_assert_eq!(s.largest(0), 0);
        for m in 1..=n {
            prop_assert!(s.largest(m) >= s.largest(m - 1));
            prop_assert!(s.largest(m) as usize <= m);
            prop_assert!(s.susceptibility(m) >= 0.0);
        }
    }

    /// At every occupied count, L and χ of the erased graph match a
    /// recount over the raw edges the first m members of the order induce.
    #[test]
    fn sweep_matches_a_direct_recount((n, edges) in arb_edges(30, 60), seed in 0u64..1000) {
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = Xoshiro256StarStar::new(seed);
        for i in (1..n).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let s = Sweep::in_order(&Topology::from_edges(n, &edges), &order);
        for m in 0..=n {
            let occupied = &order[..m];
            let mut uf = UnionFind::new(n);
            for &(a, b) in &edges {
                if occupied.contains(&a) && occupied.contains(&b) {
                    uf.union(a, b);
                }
            }
            let mut sq = 0u64;
            let mut l = 0u64;
            for &v in occupied {
                if uf.find(v) == v {
                    let size = u64::from(uf.size_of(v));
                    sq += size * size;
                    l = l.max(size);
                }
            }
            prop_assert_eq!(u64::from(s.largest(m)), l, "m = {}", m);
            prop_assert_eq!(s.susceptibility(m), chi(sq, l, m), "m = {}", m);
        }
    }
}
