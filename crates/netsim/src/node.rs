//! The protocol-facing API: node behaviours and their execution context.

use gossip_stats::rng::Xoshiro256StarStar;

use crate::event::NodeId;
use crate::membership::Membership;
use crate::time::{SimDuration, SimTime};

/// A protocol running on one node.
///
/// Behaviours are invoked only on live (non-crashed) nodes; all side
/// effects go through the [`NodeCtx`], which the simulator turns into
/// events. Behaviours must not keep state outside `self` — the simulator
/// owns time and randomness.
pub trait NodeBehavior<M> {
    /// Whether this behaviour has a start hook. The simulator calls
    /// [`on_start`](Self::on_start) only when this is `true`, so a
    /// behaviour that overrides `on_start` sets it; the default
    /// (`false`) makes [`Simulator::start_all`] and churn joins free.
    ///
    /// [`Simulator::start_all`]: crate::Simulator::start_all
    const HAS_START_HOOK: bool = false;

    /// Called once when the simulation starts (before any message), and
    /// when a dormant node joins; only if
    /// [`HAS_START_HOOK`](Self::HAS_START_HOOK) is `true`.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message arrives.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, M>, from: NodeId, msg: M);

    /// Called when a timer this node set fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, M>, id: u64) {
        let _ = (ctx, id);
    }

    /// Whether this node has *settled*: every further delivery is
    /// discarded and only bumps counters in `self`. The default is
    /// "never settled".
    ///
    /// Contract, once this returns `true`:
    ///
    /// * it returns `true` for the rest of the run;
    /// * [`on_message`](Self::on_message) sends nothing, sets no timer,
    ///   draws no randomness and reads neither the clock nor the view.
    ///
    /// While membership is frozen (no crash or join pending) and no
    /// tracer is attached, the simulator hands a copy bound for a
    /// settled node to `on_message` at send time instead of scheduling
    /// it — an *absorbed* copy. The run's metrics and every behaviour's
    /// state at quiescence are those of the full event calendar.
    fn settled(&self) -> bool {
        false
    }
}

/// Execution context handed to a behaviour for the duration of one
/// callback. Sends and timers are buffered and materialized as events by
/// the simulator after the callback returns.
pub struct NodeCtx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut Xoshiro256StarStar,
    pub(crate) membership: &'a dyn Membership,
    pub(crate) outbox: &'a mut Vec<(NodeId, M)>,
    pub(crate) timers: &'a mut Vec<(SimDuration, u64)>,
    pub(crate) targets: &'a mut Vec<NodeId>,
}

impl<'a, M> NodeCtx<'a, M> {
    /// This node's identifier.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total group size `n`.
    #[inline]
    pub fn group_size(&self) -> usize {
        self.membership.group_size()
    }

    /// The simulation's random source (deterministic per run seed).
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256StarStar {
        self.rng
    }

    /// Sends `msg` to `to` (buffered; subject to network latency/loss).
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sets a timer that fires on this node after `delay` with the given
    /// caller-chosen id.
    #[inline]
    pub fn set_timer(&mut self, delay: SimDuration, id: u64) {
        self.timers.push((delay, id));
    }

    /// Samples up to `k` distinct gossip targets from this node's
    /// membership view (never the node itself) and sends each a copy of
    /// `msg`. Returns how many were sent. The targets go through one
    /// buffer the simulator owns, so a relay allocates nothing.
    pub fn gossip(&mut self, k: usize, msg: M) -> usize
    where
        M: Clone,
    {
        self.membership
            .sample_targets(self.node, k, self.rng, self.targets);
        let copies = self.targets.iter().map(|&to| (to, msg.clone()));
        self.outbox.extend(copies);
        self.targets.len()
    }

    /// Size of this node's membership view.
    pub fn view_size(&self) -> usize {
        self.membership.view_size(self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::FullView;

    #[test]
    fn context_buffers_sends_and_timers() {
        let mut rng = Xoshiro256StarStar::new(1);
        let membership = FullView::new(10);
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        let mut targets = Vec::new();
        let mut ctx: NodeCtx<'_, u32> = NodeCtx {
            node: 3,
            now: SimTime::from_nanos(42),
            rng: &mut rng,
            membership: &membership,
            outbox: &mut outbox,
            timers: &mut timers,
            targets: &mut targets,
        };
        assert_eq!(ctx.id(), 3);
        assert_eq!(ctx.now().as_nanos(), 42);
        assert_eq!(ctx.group_size(), 10);
        assert_eq!(ctx.view_size(), 9);
        ctx.send(5, 100);
        ctx.send(6, 200);
        ctx.set_timer(SimDuration::from_millis(1), 7);
        assert_eq!(ctx.gossip(4, 300), 4);
        // A second relay reuses the target buffer.
        assert_eq!(ctx.gossip(2, 400), 2);
        assert_eq!(outbox.len(), 8);
        let (sent, relayed) = outbox.split_at(2);
        assert_eq!(sent, [(5, 100), (6, 200)]);
        assert!(
            relayed.iter().all(|&(to, _)| to != 3),
            "must not target self"
        );
        let values: Vec<u32> = relayed.iter().map(|&(_, m)| m).collect();
        assert_eq!(values, [300, 300, 300, 300, 400, 400]);
        assert_eq!(targets.len(), 2);
        assert_eq!(timers.len(), 1);
    }
}
