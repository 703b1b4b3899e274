//! Property-based tests for the random-graph substrate.

use gossip_model::distribution::PoissonFanout;
use gossip_rgraph::components::{census, census_occupied};
use gossip_rgraph::{ConfigurationModel, Graph, UnionFind};
use gossip_stats::rng::Xoshiro256StarStar;
use proptest::prelude::*;

/// Reference disjoint-set: naive label propagation.
fn reference_components(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut label: Vec<u32> = (0..n as u32).collect();
    // Iterate to fixpoint (n is small in these tests).
    loop {
        let mut changed = false;
        for &(a, b) in edges {
            let (la, lb) = (label[a as usize], label[b as usize]);
            let min = la.min(lb);
            if la != min {
                label[a as usize] = min;
                changed = true;
            }
            if lb != min {
                label[b as usize] = min;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Normalize labels to representatives by chasing.
    for i in 0..n {
        let mut l = label[i];
        while label[l as usize] != l {
            l = label[l as usize];
        }
        label[i] = l;
    }
    label
}

fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..max_m).prop_map(move |edges| (n, edges))
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

    /// Component sizes always partition the node set.
    #[test]
    fn census_partitions_nodes((n, edges) in arb_edges(60, 120)) {
        let g = Graph::from_edges(n, &edges);
        let c = census(&g);
        prop_assert_eq!(c.nodes, n);
        prop_assert!(c.largest >= c.second_largest);
        prop_assert!(c.largest <= n);
        prop_assert!(c.count >= 1);
        prop_assert!((c.mean_size * c.count as f64 - n as f64).abs() < 1e-9);
    }

    /// Occupied census counts only occupied nodes and never exceeds the
    /// full census.
    #[test]
    fn occupied_census_bounded((n, edges) in arb_edges(40, 80), seed in 0u64..1000) {
        let g = Graph::from_edges(n, &edges);
        let mut rng = Xoshiro256StarStar::new(seed);
        let occupied: Vec<bool> = (0..n).map(|_| rng.next_bool(0.6)).collect();
        let occ_count = occupied.iter().filter(|&&b| b).count();
        let c = census_occupied(&g, &occupied);
        prop_assert_eq!(c.nodes, occ_count);
        prop_assert!(c.largest <= occ_count);
        let full = census(&g);
        prop_assert!(c.largest <= full.largest);
    }

    /// Configuration model with an explicit degree sequence realizes it
    /// exactly (as a multigraph).
    #[test]
    fn configuration_model_realizes_degrees(
        mut degrees in proptest::collection::vec(0usize..6, 4..30),
        seed in 0u64..1000,
    ) {
        if degrees.iter().sum::<usize>() % 2 == 1 {
            degrees[0] += 1;
        }
        let dist = PoissonFanout::new(1.0); // unused
        let model = ConfigurationModel::new(&dist, degrees.len());
        let g = model.generate_with_degrees(&degrees, &mut Xoshiro256StarStar::new(seed));
        for (v, &d) in degrees.iter().enumerate() {
            prop_assert_eq!(g.degree(v as u32), d, "node {}", v);
        }
    }
}
