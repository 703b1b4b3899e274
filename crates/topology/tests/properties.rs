//! Property tests for the overlay generators: seed determinism,
//! CSR symmetry, degree bounds, connectivity guarantees, and SCAMP's
//! well-formed views.

use gossip_topology::{build_overlay, OverlaySpec, Topology};
use proptest::prelude::*;

/// Strategy over valid `(spec, n)` pairs covering every overlay family.
/// Parameters are constructed so `spec.validate(n)` always holds, which
/// each test double-checks.
fn overlay_and_size() -> impl Strategy<Value = (OverlaySpec, usize)> {
    (0usize..6, 6usize..30, 0usize..20, 0.0f64..1.0).prop_map(|(choice, half_n, j, x)| {
        let n = half_n * 2; // 12..=58, always even
        let spec = match choice {
            0 => OverlaySpec::Complete,
            1 => OverlaySpec::Ring { shortcuts: j },
            2 => OverlaySpec::KRegular { k: 1 + j % 6 },
            3 => OverlaySpec::WattsStrogatz {
                k: 2 + 2 * (j % 3),
                beta: x,
            },
            4 => {
                let kmin = 1 + j % 3;
                OverlaySpec::PowerLaw {
                    alpha: 1.5 + 2.0 * x,
                    kmin,
                    kmax: kmin + 3 + j % 5,
                }
            }
            _ => OverlaySpec::Clustered {
                zones: 2 + j % 3,
                intra: 1 + j % 2,
                inter: j % 3,
            },
        };
        (spec, n)
    })
}

/// Canonical-form check shared by the property tests below; returns the
/// `proptest!` body's error type so `?` propagates failures.
fn check_canonical(topo: &Topology) -> Result<(), String> {
    for v in 0..topo.node_count() as u32 {
        for &w in topo.neighbors(v) {
            prop_assert!(
                topo.neighbors(w).contains(&v),
                "edge {}-{} not symmetric",
                v,
                w
            );
            prop_assert!(w != v, "self-loop at {}", v);
        }
        let list = topo.neighbors(v);
        prop_assert!(
            list.windows(2).all(|p| p[0] < p[1]),
            "neighbour list of {} not strictly sorted",
            v
        );
    }
    Ok(())
}

proptest! {
    /// Same (spec, n, seed) → same adjacency, for every family.
    #[test]
    fn generators_are_seed_deterministic(
        (spec, n) in overlay_and_size(),
        seed in 0u64..100_000,
    ) {
        prop_assert!(spec.validate(n).is_ok(), "strategy produced invalid {:?}", spec);
        let a = build_overlay(&spec, n, seed);
        let b = build_overlay(&spec, n, seed);
        prop_assert_eq!(a, b);
    }

    /// Canonical CSR: symmetric, self-loop free, strictly sorted lists.
    #[test]
    fn adjacency_is_canonical(
        (spec, n) in overlay_and_size(),
        seed in 0u64..100_000,
    ) {
        prop_assert!(spec.validate(n).is_ok());
        let topo = build_overlay(&spec, n, seed);
        prop_assert_eq!(topo.node_count(), n);
        check_canonical(&topo)?;
    }

    /// Each family's degree guarantees hold.
    #[test]
    fn degrees_stay_in_bounds(
        (spec, n) in overlay_and_size(),
        seed in 0u64..100_000,
    ) {
        prop_assert!(spec.validate(n).is_ok());
        let topo = build_overlay(&spec, n, seed);
        for v in 0..n as u32 {
            let d = topo.degree(v);
            match spec {
                OverlaySpec::Complete => prop_assert_eq!(d, n - 1),
                // Every ring node keeps its two cycle edges.
                OverlaySpec::Ring { .. } => prop_assert!(d >= 2 && d < n),
                OverlaySpec::KRegular { k } => prop_assert_eq!(d, k),
                // Rewiring never drops a node below its k/2 clockwise edges.
                OverlaySpec::WattsStrogatz { k, .. } => prop_assert!(d >= k / 2 && d < n),
                // Erasure only removes edges; the parity bump adds at most one.
                OverlaySpec::PowerLaw { kmax, .. } => prop_assert!(d <= kmax + 1),
                // Every node draws at least its own `intra` in-zone peers.
                OverlaySpec::Clustered { intra, .. } => prop_assert!(d >= intra && d < n),
                // The subscription walk leaves no member with an empty view.
                OverlaySpec::Scamp { .. } => prop_assert!(d >= 1 && d < n),
            }
        }
    }

    /// Ring overlays and circulants with k >= 2 are connected by
    /// construction (k = 1 is a perfect matching — disconnected).
    #[test]
    fn ring_and_k_regular_are_connected(
        shortcuts in 0usize..30,
        k in 2usize..8,
        half_n in 5usize..40,
        seed in 0u64..100_000,
    ) {
        let n = half_n * 2; // even, so odd-k circulants are valid too
        let ring = OverlaySpec::Ring { shortcuts };
        prop_assert!(ring.validate(n).is_ok());
        prop_assert!(build_overlay(&ring, n, seed).is_connected());
        let kreg = OverlaySpec::KRegular { k };
        prop_assert!(kreg.validate(n).is_ok());
        prop_assert!(build_overlay(&kreg, n, seed).is_connected());
    }

    /// SCAMP views are never empty and hold neither their owner nor a
    /// duplicate, for any valid (n, c, seed).
    #[test]
    fn scamp_views_wellformed(n in 2usize..120, c in 0usize..4, seed in 0u64..200) {
        let spec = OverlaySpec::Scamp { c };
        prop_assume!(spec.validate(n).is_ok());
        let views = build_overlay(&spec, n, seed);
        prop_assert_eq!(views.node_count(), n);
        for v in 0..n as u32 {
            let view = views.neighbors(v);
            prop_assert!(!view.is_empty() && !view.contains(&v));
            prop_assert!(view.windows(2).all(|p| p[0] < p[1]));
        }
    }

    /// Watts–Strogatz rewiring conserves the edge count exactly.
    #[test]
    fn watts_strogatz_conserves_edges(
        n in 10usize..80,
        half_k in 1usize..4,
        beta in 0.0f64..1.0,
        seed in 0u64..100_000,
    ) {
        let k = 2 * half_k;
        let spec = OverlaySpec::WattsStrogatz { k, beta };
        prop_assert!(spec.validate(n).is_ok());
        let topo = build_overlay(&spec, n, seed);
        prop_assert_eq!(topo.edge_count(), n * k / 2);
    }
}
