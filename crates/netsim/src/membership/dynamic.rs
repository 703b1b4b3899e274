//! A full view over a group whose membership grows mid-run.
//!
//! Churn experiments size the simulator for the *final* population
//! `total = n + joins`, but joiners must be invisible as gossip targets
//! until their join time. [`DynamicView`] keeps an activation bitmap:
//! sampling draws uniformly from the currently active members only, and
//! [`Membership::activate`] flips a joiner in when its
//! [`EventKind::Join`](crate::EventKind::Join) event fires.
//!
//! Leavers are *not* deactivated on crash: the paper's fail-stop model
//! has members gossiping to crashed peers (the sends are wasted, the
//! deliveries absorbed), and churn keeps that semantic — a leave is a
//! crash, not a view update.

use gossip_stats::rng::Xoshiro256StarStar;

use crate::event::NodeId;
use crate::membership::Membership;

/// Full-view membership with mid-run activation (see module docs).
pub struct DynamicView {
    active: Vec<bool>,
    active_count: usize,
}

impl DynamicView {
    /// A view over `total` slots of which the first `initial` are active
    /// from the start (ids `initial..total` are dormant joiners).
    pub fn new(total: usize, initial: usize) -> Self {
        assert!(initial <= total, "initial members must fit in the group");
        let mut active = vec![false; total];
        for slot in active.iter_mut().take(initial) {
            *slot = true;
        }
        DynamicView {
            active,
            active_count: initial,
        }
    }
}

impl Membership for DynamicView {
    fn group_size(&self) -> usize {
        self.active.len()
    }

    fn view_size(&self, node: NodeId) -> usize {
        // A member's view is every *other* active member.
        self.active_count - usize::from(self.active[node as usize])
    }

    fn sample_targets(
        &self,
        node: NodeId,
        k: usize,
        rng: &mut Xoshiro256StarStar,
        out: &mut Vec<NodeId>,
    ) {
        let available = self.view_size(node);
        let k = k.min(available);
        out.clear();
        // Rejection over the id range is fine while most slots are
        // active (joiners are a small minority); when the request is
        // dense, a partial Fisher–Yates over the active view, staged in
        // `out` itself.
        if k * 3 >= available && available > 0 {
            out.extend(
                (0..self.active.len() as NodeId).filter(|&v| v != node && self.active[v as usize]),
            );
            for i in 0..k {
                let j = i + rng.next_below((available - i) as u64) as usize;
                out.swap(i, j);
            }
            out.truncate(k);
            return;
        }
        while out.len() < k {
            let t = rng.next_below(self.active.len() as u64) as NodeId;
            if t == node || !self.active[t as usize] || out.contains(&t) {
                continue;
            }
            out.push(t);
        }
    }

    fn activate(&mut self, node: NodeId) {
        if !self.active[node as usize] {
            self.active[node as usize] = true;
            self.active_count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dormant_members_are_never_sampled() {
        let view = DynamicView::new(20, 10);
        let mut rng = Xoshiro256StarStar::new(1);
        let mut out = Vec::new();
        for _ in 0..200 {
            out.clear();
            view.sample_targets(0, 4, &mut rng, &mut out);
            assert_eq!(out.len(), 4);
            assert!(out.iter().all(|&t| t != 0 && t < 10), "{out:?}");
        }
    }

    #[test]
    fn activation_makes_joiners_visible() {
        let mut view = DynamicView::new(12, 10);
        assert_eq!(view.active_count, 10);
        view.activate(10);
        view.activate(10); // idempotent
        assert_eq!(view.active_count, 11);
        assert!(view.active[10]);
        assert!(!view.active[11]);
        let mut rng = Xoshiro256StarStar::new(2);
        let mut out = Vec::new();
        let mut saw_joiner = false;
        for _ in 0..500 {
            out.clear();
            view.sample_targets(0, 3, &mut rng, &mut out);
            assert!(!out.contains(&11), "dormant member sampled");
            saw_joiner |= out.contains(&10);
        }
        assert!(saw_joiner, "activated joiner never sampled in 500 draws");
    }

    #[test]
    fn dense_requests_saturate_to_active_view() {
        let mut view = DynamicView::new(8, 5);
        view.activate(6);
        let mut rng = Xoshiro256StarStar::new(3);
        let mut out = Vec::new();
        view.sample_targets(1, 100, &mut rng, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 2, 3, 4, 6]);
    }

    #[test]
    fn view_size_counts_other_active_members() {
        let view = DynamicView::new(10, 7);
        assert_eq!(view.view_size(0), 6); // active member excludes itself
        assert_eq!(view.view_size(9), 7); // dormant member sees all active
        assert_eq!(view.group_size(), 10);
    }
}
