//! The paper's general gossiping algorithm (Fig. 1).
//!
//! > Upon member *i* receiving the message *m* for the first time:
//! > member *i* generates a random number *f_i* by following a specified
//! > probability distribution *P*; selects *f_i* nodes uniformly at
//! > random from its membership view; sends *m* to the selected nodes.
//! > If a member receives the message again, it discards it immediately.
//!
//! The distribution is shared across nodes as an `Arc<dyn
//! FanoutDistribution>`; the traditional fixed-fanout protocol is this
//! behaviour with `FixedFanout(f)` — no separate implementation needed,
//! which is exactly the generality the paper claims for its algorithm.
//! Flooding is the same rule with `f = |view|` ([`PushGossip::flood`]):
//! over a full view it is all-to-all, over a partial view (SCAMP) it is
//! classic network flooding, the cost/reliability upper envelope. The
//! push phase of [`crate::PushPullGossip`] runs through the same rule.

use std::sync::Arc;

use gossip_model::distribution::FanoutDistribution;
use gossip_netsim::{NodeBehavior, NodeCtx, NodeId, SimTime};

use crate::message::GossipMessage;

/// Per-node state of the push gossip protocol: the one holder of a
/// member's receipt state.
pub struct PushGossip {
    /// The fanout law `P`; `None` relays to the whole view.
    dist: Option<Arc<dyn FanoutDistribution>>,
    /// The first copy received (its hop is the receipt hop) and when.
    first: Option<(GossipMessage, SimTime)>,
    duplicates: u32,
}

impl PushGossip {
    /// Creates the behaviour for one node, gossiping with distribution
    /// `dist`.
    pub fn new(dist: Arc<dyn FanoutDistribution>) -> Self {
        Self {
            dist: Some(dist),
            first: None,
            duplicates: 0,
        }
    }

    /// Creates the flooding behaviour: on first receipt, relay to every
    /// member of the view (no fanout is drawn).
    pub fn flood() -> Self {
        Self {
            dist: None,
            first: None,
            duplicates: 0,
        }
    }

    /// The first copy received, if any; its `hop` is the hop count at
    /// first receipt (0 at the source).
    pub fn first_copy(&self) -> Option<GossipMessage> {
        self.first.map(|(copy, _)| copy)
    }

    /// Simulated time of first receipt, if received.
    pub fn receipt_time(&self) -> Option<SimTime> {
        self.first.map(|(_, at)| at)
    }

    /// Number of duplicate receipts (redundancy accounting).
    pub fn duplicates(&self) -> u32 {
        self.duplicates
    }

    /// Fig. 1 on one copy: a duplicate is counted and discarded; the
    /// first copy is recorded, then `f ~ P` (or the whole view) members
    /// are sent `wrap(copy.forwarded())`.
    pub(crate) fn receive<M: Clone>(
        &mut self,
        ctx: &mut NodeCtx<'_, M>,
        copy: GossipMessage,
        wrap: impl FnOnce(GossipMessage) -> M,
    ) {
        if self.first.is_some() {
            self.duplicates += 1;
            return; // "discards it immediately"
        }
        self.first = Some((copy, ctx.now()));
        let f = match &self.dist {
            Some(dist) => dist.sample(ctx.rng()),
            None => ctx.view_size(),
        };
        ctx.gossip(f, wrap(copy.forwarded()));
    }
}

impl AsRef<PushGossip> for PushGossip {
    fn as_ref(&self) -> &PushGossip {
        self
    }
}

impl NodeBehavior<GossipMessage> for PushGossip {
    fn on_message(
        &mut self,
        ctx: &mut NodeCtx<'_, GossipMessage>,
        _from: NodeId,
        msg: GossipMessage,
    ) {
        self.receive(ctx, msg, |copy| copy);
    }

    /// Settled on first receipt: every later copy is a duplicate.
    fn settled(&self) -> bool {
        self.first.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use gossip_model::distribution::FixedFanout;
    use gossip_netsim::membership::{FullView, Membership, OverlayView};
    use gossip_netsim::{LatencyModel, NetworkConfig, Simulator};

    /// `n` members built by `make` over `view`, on a 1 ms network.
    fn group(
        n: usize,
        make: impl Fn() -> PushGossip,
        view: Box<dyn Membership>,
        seed: u64,
    ) -> Simulator<GossipMessage, PushGossip> {
        let network = NetworkConfig::new(LatencyModel::constant_millis(1));
        Simulator::new((0..n).map(|_| make()).collect(), network, view, seed)
    }

    fn push_sim(n: usize, fanout: usize, seed: u64) -> Simulator<GossipMessage, PushGossip> {
        let dist: Arc<dyn FanoutDistribution> = Arc::new(FixedFanout::new(fanout));
        let make = || PushGossip::new(dist.clone());
        group(n, make, Box::new(FullView::new(n)), seed)
    }

    /// Injects one message at member 0, runs to quiescence, and counts
    /// the members that received it.
    fn disseminate(sim: &mut Simulator<GossipMessage, PushGossip>) -> usize {
        sim.inject(0, 0, GossipMessage::origin(MessageId(1)));
        sim.run_to_quiescence();
        sim.nodes()
            .filter(|(_, b, _)| b.first_copy().is_some())
            .count()
    }

    #[test]
    fn relays_exactly_once() {
        let mut sim = push_sim(50, 3, 1);
        let received = disseminate(&mut sim);
        // Each receiving node sends exactly its fanout; total sends =
        // 3 × (#nodes that received).
        assert_eq!(sim.metrics().messages_sent as usize, 3 * received);
        // Fanout 3 on 50 nodes with no failures: (almost surely) all
        // reached with this seed.
        assert!(received > 45, "only {received} reached");
    }

    #[test]
    fn duplicates_are_discarded_not_relayed() {
        let mut sim = push_sim(10, 9, 2); // full fanout → lots of dupes
        disseminate(&mut sim);
        let total_dupes: u32 = sim.nodes().map(|(_, b, _)| b.duplicates()).sum();
        // Every node sends to all 9 others; 10 nodes × 9 = 90 sends, 10
        // first receipts (incl. injection), rest duplicates.
        assert_eq!(sim.metrics().messages_sent, 90);
        assert_eq!(total_dupes, 90 + 1 - 10);
    }

    #[test]
    fn hop_counts_grow_from_source() {
        let mut sim = push_sim(100, 2, 3);
        disseminate(&mut sim);
        assert_eq!(sim.node(0).first_copy().unwrap().hop, 0);
        let max_hop = sim
            .nodes()
            .filter_map(|(_, b, _)| b.first_copy().map(|copy| copy.hop))
            .max()
            .unwrap();
        assert!(max_hop >= 2, "fanout-2 gossip needs multiple hops");
    }

    #[test]
    fn drawn_fanout_matches_distribution() {
        let mut sim = push_sim(30, 4, 4);
        let received = disseminate(&mut sim);
        // Every member that received relays to exactly the drawn fanout.
        assert_eq!(sim.metrics().messages_sent, 4 * received as u64);
    }

    #[test]
    fn absorbed_duplicates_leave_the_full_calendars_run() {
        use gossip_netsim::{FailurePlan, SimDuration};
        let run = |traced: bool| {
            let dist: Arc<dyn FanoutDistribution> = Arc::new(FixedFanout::new(4));
            let latency = LatencyModel::Exponential {
                mean: SimDuration::from_millis(20),
            };
            let mut sim = Simulator::new(
                (0..300).map(|_| PushGossip::new(dist.clone())).collect(),
                NetworkConfig::new(latency).with_loss(0.1),
                Box::new(FullView::new(300)),
                6,
            );
            if traced {
                sim.enable_tracing(usize::MAX);
            }
            sim.apply_failure_plan(&FailurePlan::paper_model(0.8, 0));
            sim.inject(0, 0, GossipMessage::origin(MessageId(1)));
            sim.run_to_quiescence();
            let nodes: Vec<_> = sim
                .nodes()
                .map(|(_, b, crashed)| {
                    let state = (b.first_copy(), b.receipt_time(), b.duplicates());
                    (state, crashed)
                })
                .collect();
            (*sim.metrics(), sim.now(), nodes)
        };
        let (absorbed, full) = (run(false), run(true));
        // Both kinds of absorbed copy occur.
        let duplicates = absorbed.2.iter().any(|((_, _, dups), _)| *dups > 0);
        assert!(absorbed.0.deliveries_to_crashed > 0 && duplicates);
        assert_eq!(absorbed, full);
    }

    #[test]
    fn zero_fanout_stops_immediately() {
        let mut sim = push_sim(10, 0, 5);
        assert_eq!(disseminate(&mut sim), 1, "only the source");
        assert_eq!(sim.metrics().messages_sent, 0);
    }

    #[test]
    fn full_view_flood_is_all_to_all() {
        let n = 20;
        let mut sim = group(n, PushGossip::flood, Box::new(FullView::new(n)), 1);
        assert_eq!(disseminate(&mut sim), n);
        assert_eq!(sim.metrics().messages_sent as usize, n * (n - 1));
    }

    #[test]
    fn flood_over_scamp_views_completes() {
        let n = 300;
        let scamp =
            gossip_topology::TopologySpec::new(gossip_topology::OverlaySpec::Scamp { c: 2 });
        let views = OverlayView::build(n, &scamp, 7);
        let mut sim = group(n, PushGossip::flood, Box::new(views), 2);
        let received = disseminate(&mut sim);
        // SCAMP's directed overlay is (whp) strongly enough connected for
        // flooding to reach nearly everyone.
        assert!(received as f64 > 0.95 * n as f64, "reached {received}/{n}");
        // And the cost is far below all-to-all.
        assert!((sim.metrics().messages_sent as usize) < n * (n - 1) / 4);
    }
}
