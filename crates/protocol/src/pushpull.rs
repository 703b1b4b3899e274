//! Push-pull (anti-entropy) gossip — the Demers-style baseline.
//!
//! The paper's related work traces gossip to the anti-entropy protocols
//! of replicated databases (its reference \[2\], Demers et al.). Here,
//! besides pushing on first receipt, every node periodically *pulls*: it
//! asks a random member whether it has the message; infected members
//! answer with a copy. Pulls make dissemination robust to push
//! fizzle (they keep working after the push phase dies out), at the cost
//! of background traffic even before/without infection.

use std::sync::Arc;

use gossip_model::distribution::FanoutDistribution;
use gossip_netsim::{NodeBehavior, NodeCtx, NodeId, SimDuration};

use crate::message::GossipMessage;
use crate::push::PushGossip;

/// Timer id for the periodic pull.
const PULL_TIMER: u64 = 2;

/// Message alphabet of the push-pull protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PullMessage {
    /// Push or pull-reply carrying the message.
    Data(GossipMessage),
    /// "Do you have it?" probe.
    PullRequest,
}

/// Per-node state of push-pull gossip: a [`PushGossip`] for the push
/// phase and the receipt state, plus the pull schedule.
pub struct PushPullGossip {
    push: PushGossip,
    pull_period: SimDuration,
    pulls_left: u32,
}

impl PushPullGossip {
    /// Creates the behaviour: on first receipt draw `f ~ dist` and push
    /// to `f` targets, as [`PushGossip`] does; issue `pull_budget`
    /// pulls, one per `pull_period`.
    pub fn new(
        dist: Arc<dyn FanoutDistribution>,
        pull_budget: u32,
        pull_period: SimDuration,
    ) -> Self {
        Self {
            push: PushGossip::new(dist),
            pull_period,
            pulls_left: pull_budget,
        }
    }
}

impl AsRef<PushGossip> for PushPullGossip {
    fn as_ref(&self) -> &PushGossip {
        &self.push
    }
}

impl NodeBehavior<PullMessage> for PushPullGossip {
    const HAS_START_HOOK: bool = true;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, PullMessage>) {
        if self.pulls_left > 0 {
            // Stagger first pulls uniformly over one period to avoid a
            // synchronized thundering herd.
            let jitter =
                SimDuration::from_nanos(ctx.rng().next_below(self.pull_period.as_nanos().max(1)));
            ctx.set_timer(jitter, PULL_TIMER);
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, PullMessage>, from: NodeId, msg: PullMessage) {
        match msg {
            PullMessage::Data(copy) => self.push.receive(ctx, copy, PullMessage::Data),
            PullMessage::PullRequest => {
                if let Some(first) = self.push.first_copy() {
                    ctx.send(from, PullMessage::Data(first.forwarded()));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, PullMessage>, id: u64) {
        if id != PULL_TIMER || self.pulls_left == 0 {
            return;
        }
        self.pulls_left -= 1;
        // Infected nodes stop pulling — they have nothing to gain.
        if self.push.first_copy().is_none() {
            ctx.gossip(1, PullMessage::PullRequest);
            if self.pulls_left > 0 {
                ctx.set_timer(self.pull_period, PULL_TIMER);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use gossip_model::distribution::FixedFanout;
    use gossip_netsim::membership::FullView;
    use gossip_netsim::{LatencyModel, NetworkConfig, Simulator};

    fn pp_sim(
        n: usize,
        push_fanout: usize,
        pulls: u32,
        seed: u64,
    ) -> Simulator<PullMessage, PushPullGossip> {
        let dist: Arc<dyn FanoutDistribution> = Arc::new(FixedFanout::new(push_fanout));
        Simulator::new(
            (0..n)
                .map(|_| PushPullGossip::new(dist.clone(), pulls, SimDuration::from_millis(5)))
                .collect(),
            NetworkConfig::new(LatencyModel::constant_millis(1)),
            Box::new(FullView::new(n)),
            seed,
        )
    }

    fn run(sim: &mut Simulator<PullMessage, PushPullGossip>) -> usize {
        sim.start_all();
        sim.inject(0, 0, PullMessage::Data(GossipMessage::origin(MessageId(1))));
        sim.run_to_quiescence();
        sim.nodes()
            .filter(|(_, b, _)| b.as_ref().first_copy().is_some())
            .count()
    }

    #[test]
    fn pulls_rescue_weak_push() {
        // Push fanout 1 fizzles fast; generous pulls still infect nearly
        // everyone.
        let mut with_pulls = pp_sim(100, 1, 30, 1);
        let reached_with = run(&mut with_pulls);
        let mut without_pulls = pp_sim(100, 1, 0, 1);
        let reached_without = run(&mut without_pulls);
        assert!(
            reached_with > reached_without,
            "pulls ({reached_with}) must beat none ({reached_without})"
        );
        assert!(
            reached_with > 90,
            "pulls should near-complete: {reached_with}"
        );
    }

    #[test]
    fn infected_nodes_answer_pulls() {
        let mut sim = pp_sim(10, 0, 10, 2);
        let reached = run(&mut sim);
        // Push fanout 0: dissemination happens via pulls only.
        assert!(reached > 5, "pull-only dissemination reached {reached}");
    }

    #[test]
    fn start_sets_the_pull_timers() {
        let mut sim = pp_sim(20, 1, 3, 5);
        sim.start_all();
        assert_eq!(sim.metrics().timers_set, 20, "one first pull per member");
        let mut idle = pp_sim(20, 1, 0, 5);
        idle.start_all();
        assert_eq!(idle.metrics().timers_set, 0, "no budget, no timer");
    }

    #[test]
    fn pull_budget_bounds_probe_traffic() {
        let mut sim = pp_sim(50, 0, 3, 3);
        sim.start_all();
        // No injection at all: only pull probes fly, ≤ 3 per node.
        sim.run_to_quiescence();
        assert!(sim.metrics().messages_sent <= 150);
        assert!(sim.metrics().messages_sent > 0);
        let reached = sim
            .nodes()
            .filter(|(_, b, _)| b.as_ref().first_copy().is_some())
            .count();
        assert_eq!(reached, 0, "no message exists to spread");
    }

    #[test]
    fn duplicate_data_counted() {
        let mut sim = pp_sim(5, 4, 0, 4);
        run(&mut sim);
        let dupes: u32 = sim.nodes().map(|(_, b, _)| b.as_ref().duplicates()).sum();
        // Full-ish fanout in a tiny group must generate duplicates.
        assert!(dupes > 0);
    }
}
