//! Structured-overlay membership: views are overlay neighbour lists.
//!
//! Where [`FullView`](super::FullView) gives every member the whole
//! group, [`OverlayView`] pins each member's view to its neighbourhood
//! in a generated overlay graph — ring, lattice, small world,
//! scale-free, clustered, or SCAMP's directed partial views — and picks
//! targets with the overlay's peer-selection policy instead of uniform
//! sampling.

use gossip_stats::rng::Xoshiro256StarStar;
use gossip_topology::{select_targets, PeerSelection, Topology, TopologySpec};

use super::Membership;
use crate::event::NodeId;

/// Membership views backed by a structured overlay.
pub struct OverlayView {
    topology: Topology,
    selection: PeerSelection,
}

impl OverlayView {
    /// Builds the overlay for `spec` over `n` members, deterministically
    /// in `seed`. The spec must have been validated.
    pub fn build(n: usize, spec: &TopologySpec, seed: u64) -> Self {
        OverlayView {
            topology: spec.build(n, seed),
            selection: spec.selection,
        }
    }

    /// The generated overlay adjacency.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl Membership for OverlayView {
    fn group_size(&self) -> usize {
        self.topology.node_count()
    }

    fn view_size(&self, node: NodeId) -> usize {
        self.topology.degree(node)
    }

    fn sample_targets(
        &self,
        node: NodeId,
        k: usize,
        rng: &mut Xoshiro256StarStar,
        out: &mut Vec<NodeId>,
    ) {
        select_targets(&self.topology, self.selection, node, k, rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_topology::OverlaySpec;

    #[test]
    fn views_are_neighbour_lists() {
        let spec = TopologySpec::new(OverlaySpec::KRegular { k: 6 });
        let view = OverlayView::build(100, &spec, 7);
        assert_eq!(view.group_size(), 100);
        for node in 0..100u32 {
            assert_eq!(view.view_size(node), 6);
        }
        let mut rng = Xoshiro256StarStar::new(1);
        let mut out = Vec::new();
        view.sample_targets(13, 3, &mut rng, &mut out);
        assert_eq!(out.len(), 3);
        for &t in &out {
            assert!(view.topology().neighbors(13).contains(&t));
        }
    }

    #[test]
    fn sampling_replaces_and_caps_at_degree() {
        let spec = TopologySpec::new(OverlaySpec::Ring { shortcuts: 0 });
        let view = OverlayView::build(10, &spec, 3);
        let mut rng = Xoshiro256StarStar::new(2);
        let mut out = vec![99u32];
        view.sample_targets(0, 8, &mut rng, &mut out);
        assert!(!out.contains(&99), "earlier contents replaced");
        assert_eq!(out.len(), 2, "ring degree caps the sample");
        for &t in &out {
            assert!(view.topology().neighbors(0).contains(&t));
        }
    }

    #[test]
    fn scamp_sampling_respects_view() {
        let spec = TopologySpec::new(OverlaySpec::Scamp { c: 2 });
        let view = OverlayView::build(200, &spec, 5);
        let mut rng = Xoshiro256StarStar::new(8);
        for v in [0u32, 17, 199] {
            let mut out = Vec::new();
            view.sample_targets(v, 4, &mut rng, &mut out);
            assert!(out.len() <= 4);
            for t in &out {
                assert!(
                    view.topology().neighbors(v).contains(t),
                    "{t} not in view of {v}"
                );
            }
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.len());
        }
    }

    #[test]
    fn scamp_membership_trait_dispatch() {
        let spec = TopologySpec::new(OverlaySpec::Scamp { c: 1 });
        let view = OverlayView::build(50, &spec, 2);
        let m: &dyn Membership = &view;
        assert_eq!(m.group_size(), 50);
        assert!(m.view_size(0) >= 1);
    }

    #[test]
    fn same_seed_same_overlay() {
        let spec = TopologySpec::new(OverlaySpec::WattsStrogatz { k: 4, beta: 0.3 });
        let a = OverlayView::build(60, &spec, 11);
        let b = OverlayView::build(60, &spec, 11);
        for v in 0..60u32 {
            assert_eq!(a.topology().neighbors(v), b.topology().neighbors(v));
        }
    }
}
