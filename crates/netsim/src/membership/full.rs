//! Full-membership view: everyone knows everyone.
//!
//! Matches the paper's analytical assumption (targets uniform over the
//! whole group) and is O(1) memory — no per-node view storage at all.

use gossip_stats::rng::{sample_distinct_excluding, Xoshiro256StarStar};

use super::Membership;
use crate::event::NodeId;

/// Complete membership knowledge for a group of `n` members.
#[derive(Clone, Copy, Debug)]
pub struct FullView {
    n: usize,
}

impl FullView {
    /// Creates a full view over `n ≥ 1` members.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "group must have at least one member");
        Self { n }
    }
}

impl Membership for FullView {
    fn group_size(&self) -> usize {
        self.n
    }

    fn view_size(&self, _node: NodeId) -> usize {
        self.n - 1
    }

    fn sample_targets(
        &self,
        node: NodeId,
        k: usize,
        rng: &mut Xoshiro256StarStar,
        out: &mut Vec<NodeId>,
    ) {
        sample_distinct_excluding(self.n, node, k, rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_over_group() {
        let view = FullView::new(50);
        assert_eq!(view.group_size(), 50);
        assert_eq!(view.view_size(7), 49);
        let mut rng = Xoshiro256StarStar::new(5);
        let mut hits = [0u32; 50];
        for _ in 0..20_000 {
            let mut out = Vec::new();
            view.sample_targets(0, 3, &mut rng, &mut out);
            assert_eq!(out.len(), 3);
            for t in out {
                assert_ne!(t, 0);
                hits[t as usize] += 1;
            }
        }
        // Each of the 49 candidates should get ~20000*3/49 ≈ 1224 hits.
        for (v, &h) in hits.iter().enumerate().skip(1) {
            assert!(
                (1000..1500).contains(&h),
                "node {v} hit {h} times (expected ≈1224)"
            );
        }
    }

    #[test]
    fn tiny_group() {
        let view = FullView::new(2);
        let mut rng = Xoshiro256StarStar::new(6);
        let mut out = Vec::new();
        view.sample_targets(1, 5, &mut rng, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn singleton_group_has_empty_view() {
        let view = FullView::new(1);
        assert_eq!(view.view_size(0), 0);
        let mut rng = Xoshiro256StarStar::new(7);
        let mut out = Vec::new();
        view.sample_targets(0, 3, &mut rng, &mut out);
        assert!(out.is_empty());
    }
}
