//! Membership services: where gossip targets come from.
//!
//! The paper assumes (§3) "a scalable membership protocol is available,
//! such as \[12\] (SCAMP), \[13\]" and draws each member's targets uniformly
//! from its *membership view*. Three providers are implemented:
//!
//! * [`FullView`] — every member knows every other member; sampling is
//!   uniform over the whole group. This matches the paper's analysis
//!   exactly and is what the §5 simulations use.
//! * [`overlay::OverlayView`] — views pinned to the neighbour lists of a
//!   `gossip-topology` overlay, with targets picked by the overlay's
//!   peer-selection policy. SCAMP's partial views (expected size
//!   `(c+1)·ln n`, the membership-ablation experiment E10) are one such
//!   overlay.
//! * [`DynamicView`] — the full view under churn: joiners become
//!   targets once activated.

pub mod dynamic;
pub mod full;
pub mod overlay;

pub use dynamic::DynamicView;
pub use full::FullView;
pub use overlay::OverlayView;

use gossip_stats::rng::Xoshiro256StarStar;

use crate::event::NodeId;

/// A source of gossip targets.
pub trait Membership: Send + Sync {
    /// Total number of members `n`.
    fn group_size(&self) -> usize;

    /// Size of `node`'s view (the number of members it can gossip to).
    fn view_size(&self, node: NodeId) -> usize;

    /// Fills `out`, replacing its contents, with up to `k` distinct
    /// members of `node`'s view (never `node` itself) — uniformly at
    /// random for the full view, by the configured peer-selection policy
    /// for overlay views. Fills fewer than `k` only when the view is
    /// smaller than `k` (or a deterministic policy exhausts its distinct
    /// picks). Reusing one `out` across calls allocates nothing once it
    /// has grown to the largest request.
    fn sample_targets(
        &self,
        node: NodeId,
        k: usize,
        rng: &mut Xoshiro256StarStar,
        out: &mut Vec<NodeId>,
    );

    /// Bootstraps a previously dormant member into the view (membership
    /// churn: a joiner becomes visible as a gossip target). Static views
    /// ignore this — only [`DynamicView`] tracks activation.
    fn activate(&mut self, _node: NodeId) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_stats::rng::sample_distinct_excluding;

    #[test]
    fn sample_distinct_basic() {
        let mut rng = Xoshiro256StarStar::new(1);
        let mut out = Vec::new();
        sample_distinct_excluding(10, 4, 5, &mut rng, &mut out);
        assert_eq!(out.len(), 5);
        assert!(!out.contains(&4));
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn sample_distinct_saturates() {
        let mut rng = Xoshiro256StarStar::new(2);
        let mut out = Vec::new();
        // Ask for more than available: get everyone but me.
        sample_distinct_excluding(5, 0, 100, &mut rng, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4]);
    }

    #[test]
    fn sample_distinct_appends_after_existing() {
        let mut rng = Xoshiro256StarStar::new(3);
        let mut out = vec![7u32];
        sample_distinct_excluding(100, 0, 3, &mut rng, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], 7);
        // Only distinctness *within the appended range* is required; 7
        // may legitimately appear again.
    }

    #[test]
    fn dense_request_uses_fisher_yates_path() {
        let mut rng = Xoshiro256StarStar::new(4);
        let mut out = Vec::new();
        sample_distinct_excluding(10, 9, 8, &mut rng, &mut out);
        assert_eq!(out.len(), 8);
        assert!(!out.contains(&9));
    }
}
