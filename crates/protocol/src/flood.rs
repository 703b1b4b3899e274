//! Flooding — the deterministic upper-bound baseline.
//!
//! Forward to *every* member of the view on first receipt. Over partial
//! views (SCAMP) this is classic network flooding; over a full view it
//! degenerates to all-to-all. Flooding maximizes reliability at maximal
//! message cost — the upper envelope that the gossip protocols are
//! measured against in the cost/reliability trade-off experiments.

use gossip_netsim::{NodeBehavior, NodeCtx, NodeId, SimTime};

use crate::message::GossipMessage;
use crate::GossipProtocol;

/// Per-node state of the flooding protocol.
pub struct Flooding {
    received: bool,
    receipt_hop: Option<u32>,
    receipt_time: Option<SimTime>,
    duplicates: u32,
}

impl Flooding {
    /// Creates the behaviour.
    pub fn new() -> Self {
        Self {
            received: false,
            receipt_hop: None,
            receipt_time: None,
            duplicates: 0,
        }
    }
}

impl Default for Flooding {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeBehavior<GossipMessage> for Flooding {
    fn on_message(
        &mut self,
        ctx: &mut NodeCtx<'_, GossipMessage>,
        _from: NodeId,
        msg: GossipMessage,
    ) {
        if self.received {
            self.duplicates += 1;
            return;
        }
        self.received = true;
        self.receipt_hop = Some(msg.hop);
        self.receipt_time = Some(ctx.now());
        let view = ctx.view_size();
        ctx.gossip(view, msg.forwarded());
    }

    /// Settled on first receipt: every later copy is a duplicate.
    fn settled(&self) -> bool {
        self.received
    }
}

impl GossipProtocol for Flooding {
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
    use gossip_netsim::membership::{FullView, OverlayView};
    use gossip_netsim::{LatencyModel, NetworkConfig, Simulator};

    #[test]
    fn full_view_flood_is_all_to_all() {
        let n = 20;
        let mut sim: Simulator<GossipMessage, Flooding> = Simulator::new(
            (0..n).map(|_| Flooding::new()).collect(),
            NetworkConfig::new(LatencyModel::constant_millis(1)),
            Box::new(FullView::new(n)),
            1,
        );
        sim.inject(0, 0, GossipMessage::origin(MessageId(1)));
        sim.run_to_quiescence();
        let received = sim.nodes().filter(|(_, b, _)| b.has_received()).count();
        assert_eq!(received, n);
        assert_eq!(sim.metrics().messages_sent as usize, n * (n - 1));
    }

    #[test]
    fn flood_over_scamp_views_completes() {
        let n = 300;
        let scamp =
            gossip_topology::TopologySpec::new(gossip_topology::OverlaySpec::Scamp { c: 2 });
        let views = OverlayView::build(n, &scamp, 7);
        let mut sim: Simulator<GossipMessage, Flooding> = Simulator::new(
            (0..n).map(|_| Flooding::new()).collect(),
            NetworkConfig::new(LatencyModel::constant_millis(1)),
            Box::new(views),
            2,
        );
        sim.inject(0, 0, GossipMessage::origin(MessageId(1)));
        sim.run_to_quiescence();
        let received = sim.nodes().filter(|(_, b, _)| b.has_received()).count();
        // SCAMP's directed overlay is (whp) strongly enough connected for
        // flooding to reach nearly everyone.
        assert!(received as f64 > 0.95 * n as f64, "reached {received}/{n}");
        // And the cost is far below all-to-all.
        assert!((sim.metrics().messages_sent as usize) < n * (n - 1) / 4);
    }
}
