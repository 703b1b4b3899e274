//! Seed-deterministic overlay generators.
//!
//! Every generator is a pure function of `(spec, n, seed)`: the same
//! inputs produce the same adjacency on any machine, which is what lets
//! the graph, protocol, and runtime evaluation layers sample *the same
//! overlay distribution* independently and still be compared replication
//! by replication.

use gossip_stats::alias::AliasTable;
use gossip_stats::rng::Xoshiro256StarStar;

use crate::csr::Topology;
use crate::spec::OverlaySpec;

/// Builds the overlay described by `spec` over `n` nodes. Parameters
/// must have been validated ([`OverlaySpec::validate`]); generators
/// only `debug_assert` them.
pub fn build_overlay(spec: &OverlaySpec, n: usize, seed: u64) -> Topology {
    debug_assert!(spec.validate(n).is_ok(), "unvalidated overlay spec");
    let mut rng = Xoshiro256StarStar::new(seed);
    match *spec {
        OverlaySpec::Complete => Topology::complete(n),
        OverlaySpec::Ring { shortcuts } => ring(n, shortcuts, &mut rng),
        OverlaySpec::KRegular { k } => circulant(n, k),
        OverlaySpec::WattsStrogatz { k, beta } => watts_strogatz(n, k, beta, &mut rng),
        OverlaySpec::PowerLaw { alpha, kmin, kmax } => power_law(n, alpha, kmin, kmax, &mut rng),
        OverlaySpec::Clustered {
            zones,
            intra,
            inter,
        } => clustered(n, zones, intra, inter, &mut rng),
        OverlaySpec::Scamp { c } => crate::scamp::scamp(n, c, &mut rng),
    }
}

/// The cycle plus `shortcuts` random chords. Chords are rejected until
/// distinct and non-adjacent, so the final degree sum is exactly
/// `2(n + shortcuts)`.
fn ring(n: usize, shortcuts: usize, rng: &mut Xoshiro256StarStar) -> Topology {
    let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
    let mut chords = std::collections::HashSet::with_capacity(shortcuts);
    while chords.len() < shortcuts {
        let a = rng.next_below(n as u64) as u32;
        let b = rng.next_below(n as u64) as u32;
        let (lo, hi) = (a.min(b), a.max(b));
        // Reject self-pairs and cycle-adjacent pairs (already edges).
        if lo == hi || hi - lo == 1 || (lo == 0 && hi as usize == n - 1) {
            continue;
        }
        if chords.insert((lo, hi)) {
            edges.push((lo, hi));
        }
    }
    Topology::from_edges(n, &edges)
}

/// The `k`-regular circulant: offsets `±1..=⌊k/2⌋`, plus the antipode
/// for odd `k` (validation guarantees even `n` then). Deterministic —
/// no randomness involved.
fn circulant(n: usize, k: usize) -> Topology {
    let mut edges = Vec::with_capacity(n * k.div_ceil(2));
    for v in 0..n as u32 {
        for j in 1..=(k / 2) as u32 {
            edges.push((v, (v + j) % n as u32));
        }
    }
    if k % 2 == 1 {
        let half = (n / 2) as u32;
        for v in 0..half {
            edges.push((v, v + half));
        }
    }
    Topology::from_edges(n, &edges)
}

/// Watts–Strogatz: the even-`k` circulant with each clockwise lattice
/// edge independently rewired (with probability `beta`) to a uniform
/// random endpoint that is neither the node itself nor already a
/// neighbour.
fn watts_strogatz(n: usize, k: usize, beta: f64, rng: &mut Xoshiro256StarStar) -> Topology {
    // Adjacency sets as sorted Vecs: k is small, linear scans suffice.
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::with_capacity(k); n];
    let connect = |adj: &mut Vec<Vec<u32>>, a: u32, b: u32| {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    };
    for v in 0..n as u32 {
        for j in 1..=(k / 2) as u32 {
            connect(&mut adjacency, v, (v + j) % n as u32);
        }
    }
    for v in 0..n as u32 {
        for j in 1..=(k / 2) as u32 {
            if !rng.next_bool(beta) {
                continue;
            }
            let old = (v + j) % n as u32;
            // The lattice edge may already have been rewired away by an
            // earlier pass over `old`; only rewire edges still present.
            if !adjacency[v as usize].contains(&old) {
                continue;
            }
            // A node adjacent to everyone else has nowhere to rewire.
            if adjacency[v as usize].len() >= n - 1 {
                continue;
            }
            let target = loop {
                let t = rng.next_below(n as u64) as u32;
                if t != v && !adjacency[v as usize].contains(&t) {
                    break t;
                }
            };
            adjacency[v as usize].retain(|&u| u != old);
            adjacency[old as usize].retain(|&u| u != v);
            connect(&mut adjacency, v, target);
        }
    }
    let edges: Vec<(u32, u32)> = adjacency
        .iter()
        .enumerate()
        .flat_map(|(a, list)| {
            list.iter()
                .filter(move |&&b| (a as u32) < b)
                .map(move |&b| (a as u32, b))
        })
        .collect();
    Topology::from_edges(n, &edges)
}

/// Erased configuration model over a truncated power-law degree
/// sequence: sample degrees via an alias table, fix stub parity by
/// bumping one random node, stub-match with a Fisher–Yates shuffle, and
/// let CSR canonicalization erase self-loops and parallel edges.
fn power_law(
    n: usize,
    alpha: f64,
    kmin: usize,
    kmax: usize,
    rng: &mut Xoshiro256StarStar,
) -> Topology {
    let weights: Vec<f64> = (kmin..=kmax).map(|k| (k as f64).powf(-alpha)).collect();
    let table = AliasTable::new(&weights);
    let mut degrees: Vec<usize> = (0..n).map(|_| kmin + table.sample(rng)).collect();
    let total: usize = degrees.iter().sum();
    if total % 2 == 1 {
        // Odd stub count: bump a random node (clamped to kmax + 1 at
        // worst, which erasure trims back below n).
        let bump = rng.next_below(n as u64) as usize;
        degrees[bump] += 1;
    }
    let mut stubs: Vec<u32> = Vec::with_capacity(degrees.iter().sum());
    for (v, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v as u32, d));
    }
    // Fisher–Yates, then pair consecutive stubs.
    for i in (1..stubs.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        stubs.swap(i, j);
    }
    let edges: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    Topology::from_edges(n, &edges)
}

/// Clustered layout: contiguous zones of near-equal size; each node
/// draws `intra` distinct random peers inside its zone and `inter`
/// outside it. The undirected union gives mean degree ≈ 2(intra+inter).
fn clustered(
    n: usize,
    zones: usize,
    intra: usize,
    inter: usize,
    rng: &mut Xoshiro256StarStar,
) -> Topology {
    // Zone of node v: contiguous blocks, sizes differing by at most one.
    let zone_of = |v: usize| v * zones / n;
    // Inverse of `zone_of`: zone z covers [⌈zn/zones⌉, ⌈(z+1)n/zones⌉).
    let zone_bounds = |z: usize| ((z * n).div_ceil(zones), ((z + 1) * n).div_ceil(zones));
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * (intra + inter));
    for v in 0..n {
        let z = zone_of(v);
        let (lo, hi) = zone_bounds(z);
        let size = hi - lo;
        // Intra-zone peers: distinct, excluding self.
        let mut chosen: Vec<u32> = Vec::with_capacity(intra);
        while chosen.len() < intra.min(size - 1) {
            let t = (lo + rng.next_below(size as u64) as usize) as u32;
            if t as usize == v || chosen.contains(&t) {
                continue;
            }
            chosen.push(t);
            edges.push((v as u32, t));
        }
        // Cross-zone peers: distinct, anywhere outside [lo, hi).
        let outside = n - size;
        let mut remote: Vec<u32> = Vec::with_capacity(inter);
        while remote.len() < inter.min(outside) {
            let mut t = rng.next_below(outside as u64) as usize;
            if t >= lo {
                t += size; // skip over the home zone
            }
            let t = t as u32;
            if remote.contains(&t) {
                continue;
            }
            remote.push(t);
            edges.push((v as u32, t));
        }
    }
    Topology::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_has_cycle_plus_chords() {
        let t = build_overlay(&OverlaySpec::Ring { shortcuts: 50 }, 200, 7);
        assert_eq!(t.edge_count(), 250);
        assert!(t.is_connected());
        for v in 0..200u32 {
            assert!(t.neighbors(v).contains(&((v + 1) % 200)));
        }
    }

    #[test]
    fn circulant_is_exactly_k_regular() {
        for (n, k) in [(100, 6), (101, 4), (100, 5)] {
            let t = build_overlay(&OverlaySpec::KRegular { k }, n, 1);
            for v in 0..n as u32 {
                assert_eq!(t.degree(v), k, "node {v} in circulant({n},{k})");
            }
            assert!(t.is_connected());
        }
    }

    #[test]
    fn watts_strogatz_preserves_edge_count_and_min_degree() {
        let (n, k) = (300, 6);
        let t = build_overlay(&OverlaySpec::WattsStrogatz { k, beta: 0.3 }, n, 9);
        // Rewiring moves edges, never creates or destroys them.
        assert_eq!(t.edge_count(), n * k / 2);
        for v in 0..n as u32 {
            // A node keeps its k/2 clockwise edges (possibly rewired),
            // so its degree never drops below k/2.
            assert!(t.degree(v) >= k / 2, "node {v} degree {}", t.degree(v));
        }
    }

    #[test]
    fn watts_strogatz_beta_zero_is_the_lattice() {
        let lattice = build_overlay(&OverlaySpec::KRegular { k: 4 }, 50, 3);
        let ws = build_overlay(&OverlaySpec::WattsStrogatz { k: 4, beta: 0.0 }, 50, 3);
        assert_eq!(ws, lattice);
    }

    #[test]
    fn power_law_degrees_bounded_and_heavy_tailed() {
        let spec = OverlaySpec::PowerLaw {
            alpha: 2.5,
            kmin: 2,
            kmax: 30,
        };
        let t = build_overlay(&spec, 1000, 11);
        let mut max_deg = 0;
        for v in 0..1000u32 {
            // Erasure only removes edges; the bump adds at most one.
            assert!(t.degree(v) <= 31, "node {v} degree {}", t.degree(v));
            max_deg = max_deg.max(t.degree(v));
        }
        assert!(max_deg > 10, "tail never materialized (max {max_deg})");
        assert!(t.mean_degree() > 2.0);
    }

    #[test]
    fn clustered_keeps_zones_dense_and_bridges_sparse() {
        let spec = OverlaySpec::Clustered {
            zones: 10,
            intra: 4,
            inter: 1,
        };
        let n = 500;
        let t = build_overlay(&spec, n, 13);
        let zone_of = |v: usize| v * 10 / n;
        let mut cross = 0usize;
        let mut total = 0usize;
        for (a, b) in t.edges() {
            total += 1;
            if zone_of(a as usize) != zone_of(b as usize) {
                cross += 1;
            }
        }
        let cross_fraction = cross as f64 / total as f64;
        assert!(
            cross_fraction < 0.3,
            "cross-zone fraction {cross_fraction} too high"
        );
        assert!(cross > 0, "zones must be bridged");
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let specs = [
            OverlaySpec::Ring { shortcuts: 40 },
            OverlaySpec::WattsStrogatz { k: 6, beta: 0.2 },
            OverlaySpec::PowerLaw {
                alpha: 2.2,
                kmin: 2,
                kmax: 20,
            },
            OverlaySpec::Clustered {
                zones: 5,
                intra: 3,
                inter: 1,
            },
        ];
        for spec in &specs {
            let a = build_overlay(spec, 300, 0xABCD);
            let b = build_overlay(spec, 300, 0xABCD);
            assert_eq!(a, b, "{spec:?} not deterministic");
            let c = build_overlay(spec, 300, 0xABCE);
            assert_ne!(a, c, "{spec:?} ignores its seed");
        }
    }
}
