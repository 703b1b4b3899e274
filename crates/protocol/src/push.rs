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

use std::sync::Arc;

use gossip_model::distribution::FanoutDistribution;
use gossip_netsim::{NodeBehavior, NodeCtx, NodeId, SimTime};

use crate::message::GossipMessage;
use crate::GossipProtocol;

/// Per-node state of the push gossip protocol.
pub struct PushGossip {
    dist: Arc<dyn FanoutDistribution>,
    received: bool,
    receipt_hop: Option<u32>,
    receipt_time: Option<SimTime>,
    duplicates: u32,
}

impl PushGossip {
    /// Creates the behaviour for one node, gossiping with distribution
    /// `dist`.
    pub fn new(dist: Arc<dyn FanoutDistribution>) -> Self {
        Self {
            dist,
            received: false,
            receipt_hop: None,
            receipt_time: None,
            duplicates: 0,
        }
    }
}

impl NodeBehavior<GossipMessage> for PushGossip {
    fn on_message(
        &mut self,
        ctx: &mut NodeCtx<'_, GossipMessage>,
        _from: NodeId,
        msg: GossipMessage,
    ) {
        if self.received {
            self.duplicates += 1;
            return; // "discards it immediately"
        }
        self.received = true;
        self.receipt_hop = Some(msg.hop);
        self.receipt_time = Some(ctx.now());
        // Draw f_i ~ P and relay to f_i distinct members of the view.
        let f = self.dist.sample(ctx.rng());
        ctx.gossip(f, msg.forwarded());
    }

    /// Settled on first receipt: every later copy is a duplicate.
    fn settled(&self) -> bool {
        self.received
    }
}

impl GossipProtocol for PushGossip {
    fn has_received(&self) -> bool {
        self.received
    }

    fn receipt_hop(&self) -> Option<u32> {
        self.receipt_hop
    }

    fn receipt_time(&self) -> Option<SimTime> {
        self.receipt_time
    }

    fn duplicates(&self) -> u32 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use gossip_model::distribution::FixedFanout;
    use gossip_netsim::membership::FullView;
    use gossip_netsim::{LatencyModel, NetworkConfig, Simulator};

    fn push_sim(n: usize, fanout: usize, seed: u64) -> Simulator<GossipMessage, PushGossip> {
        let dist: Arc<dyn FanoutDistribution> = Arc::new(FixedFanout::new(fanout));
        Simulator::new(
            (0..n).map(|_| PushGossip::new(dist.clone())).collect(),
            NetworkConfig::new(LatencyModel::constant_millis(1)),
            Box::new(FullView::new(n)),
            seed,
        )
    }

    #[test]
    fn relays_exactly_once() {
        let mut sim = push_sim(50, 3, 1);
        sim.inject(0, 0, GossipMessage::origin(MessageId(1)));
        sim.run_to_quiescence();
        // Each receiving node sends exactly its fanout; total sends =
        // 3 × (#nodes that received).
        let received = sim.nodes().filter(|(_, b, _)| b.has_received()).count();
        assert_eq!(sim.metrics().messages_sent as usize, 3 * received);
        // Fanout 3 on 50 nodes with no failures: (almost surely) all
        // reached with this seed.
        assert!(received > 45, "only {received} reached");
    }

    #[test]
    fn duplicates_are_discarded_not_relayed() {
        let mut sim = push_sim(10, 9, 2); // full fanout → lots of dupes
        sim.inject(0, 0, GossipMessage::origin(MessageId(1)));
        sim.run_to_quiescence();
        let total_dupes: u32 = sim.nodes().map(|(_, b, _)| b.duplicates()).sum();
        // Every node sends to all 9 others; 10 nodes × 9 = 90 sends, 10
        // first receipts (incl. injection), rest duplicates.
        assert_eq!(sim.metrics().messages_sent, 90);
        assert_eq!(total_dupes, 90 + 1 - 10);
    }

    #[test]
    fn hop_counts_grow_from_source() {
        let mut sim = push_sim(100, 2, 3);
        sim.inject(0, 0, GossipMessage::origin(MessageId(1)));
        sim.run_to_quiescence();
        let source_hop = sim.node(0).receipt_hop().unwrap();
        assert_eq!(source_hop, 0);
        let max_hop = sim
            .nodes()
            .filter_map(|(_, b, _)| b.receipt_hop())
            .max()
            .unwrap();
        assert!(max_hop >= 2, "fanout-2 gossip needs multiple hops");
    }

    #[test]
    fn drawn_fanout_matches_distribution() {
        let mut sim = push_sim(30, 4, 4);
        sim.inject(0, 0, GossipMessage::origin(MessageId(1)));
        sim.run_to_quiescence();
        // Every member that received relays to exactly the drawn fanout.
        let received = sim.nodes().filter(|(_, b, _)| b.has_received()).count();
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
                    let state = (b.receipt_hop(), b.receipt_time(), b.duplicates());
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
        sim.inject(0, 0, GossipMessage::origin(MessageId(1)));
        sim.run_to_quiescence();
        let received = sim.nodes().filter(|(_, b, _)| b.has_received()).count();
        assert_eq!(received, 1, "only the source");
        assert_eq!(sim.metrics().messages_sent, 0);
    }
}
