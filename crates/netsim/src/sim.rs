//! The simulator core: event loop, dispatch, crash handling.
//!
//! A copy whose fate is fixed when it is sent — its target is crashed
//! for good, or [settled](NodeBehavior::settled) — is *absorbed*:
//! `Simulator::flush` counts it and hands it to the settled target
//! at once instead of scheduling it. That holds only while membership
//! is frozen (no `Crash` or `Join` event pending) and no tracer is
//! attached, so the trace stays in time order; metrics, behaviour
//! state and [`Simulator::now`] at quiescence are those of the full
//! calendar.

use gossip_stats::rng::Xoshiro256StarStar;

use crate::event::{EventKind, NodeId};
use crate::fault::{FailurePlan, LinkFaults};
use crate::membership::Membership;
use crate::metrics::SimMetrics;
use crate::network::NetworkConfig;
use crate::node::{NodeBehavior, NodeCtx};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceKind, Tracer};

/// A deterministic discrete-event simulation of `n` nodes running
/// behaviour `B` and exchanging messages `M`.
pub struct Simulator<M, B> {
    behaviors: Vec<B>,
    crashed: Vec<bool>,
    queue: EventQueue<M>,
    network: NetworkConfig,
    membership: Box<dyn Membership>,
    rng: Xoshiro256StarStar,
    now: SimTime,
    metrics: SimMetrics,
    tracer: Option<Tracer>,
    link_faults: Option<LinkFaults>,
    /// `Crash` and `Join` events still in the queue. Copies are
    /// absorbed only while this is zero.
    membership_events: usize,
    // Workhorse buffers reused across dispatches (no steady-state alloc).
    outbox: Vec<(NodeId, M)>,
    timerbox: Vec<(SimDuration, u64)>,
    targets: Vec<NodeId>,
}

impl<M, B: NodeBehavior<M>> Simulator<M, B> {
    /// Creates a simulator over the given per-node behaviours.
    ///
    /// `membership.group_size()` must equal `behaviors.len()`.
    pub fn new(
        behaviors: Vec<B>,
        network: NetworkConfig,
        membership: Box<dyn Membership>,
        seed: u64,
    ) -> Self {
        let n = behaviors.len();
        assert!(n >= 1, "simulator needs at least one node");
        assert_eq!(
            membership.group_size(),
            n,
            "membership group size must match node count"
        );
        Self {
            behaviors,
            crashed: vec![false; n],
            queue: EventQueue::with_capacity(n),
            network,
            membership,
            rng: Xoshiro256StarStar::new(seed),
            now: SimTime::ZERO,
            metrics: SimMetrics::default(),
            tracer: None,
            link_faults: None,
            membership_events: 0,
            outbox: Vec::new(),
            timerbox: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.behaviors.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run counters so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Immutable access to a node's behaviour (for extracting protocol
    /// state after a run).
    pub fn node(&self, id: NodeId) -> &B {
        &self.behaviors[id as usize]
    }

    /// Iterates over `(id, behaviour, crashed)` for every node.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &B, bool)> {
        self.behaviors
            .iter()
            .enumerate()
            .map(|(i, b)| (i as NodeId, b, self.crashed[i]))
    }

    /// Whether `id` has crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed[id as usize]
    }

    /// Number of non-crashed nodes.
    pub fn live_count(&self) -> usize {
        self.crashed.iter().filter(|&&c| !c).count()
    }

    /// Enables tracing with the given record capacity.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Applies a failure plan. `CrashAtStart` marks nodes crashed
    /// immediately (using this simulator's RNG — deterministic);
    /// `CrashAtTimes` schedules crash events.
    pub fn apply_failure_plan(&mut self, plan: &FailurePlan) {
        match plan {
            FailurePlan::None => {}
            FailurePlan::CrashAtStart {
                nonfailed_ratio,
                immune,
            } => {
                assert!(
                    *nonfailed_ratio > 0.0 && *nonfailed_ratio <= 1.0,
                    "nonfailed ratio must be in (0, 1]"
                );
                for v in 0..self.behaviors.len() {
                    if !self.rng.next_bool(*nonfailed_ratio) {
                        self.crashed[v] = true;
                    }
                }
                for &v in immune {
                    self.crashed[v as usize] = false;
                }
                self.metrics.crashes = self.crashed.iter().filter(|&&c| c).count() as u64;
            }
            FailurePlan::CrashAtTimes(schedule) => {
                for &(time, node) in schedule {
                    self.schedule_crash(time, node);
                }
            }
        }
    }

    /// Installs link-level fault state (adversarial blocking and/or
    /// bursty loss) consulted before the network's own loss draw.
    pub fn set_link_faults(&mut self, faults: LinkFaults) {
        self.link_faults = (!faults.is_empty()).then_some(faults);
    }

    /// Marks a node dormant before the run starts: it is skipped by
    /// [`Simulator::start_all`] and absorbs deliveries, exactly like a
    /// crashed node, until a scheduled [`EventKind::Join`] resurrects
    /// it. Used for churn joiners (no crash is counted).
    pub fn make_dormant(&mut self, node: NodeId) {
        self.crashed[node as usize] = true;
    }

    /// Schedules `node` to join (activate) at `time`.
    pub fn schedule_join(&mut self, time: SimTime, node: NodeId) {
        self.membership_events += 1;
        self.queue.schedule(time, node, EventKind::Join);
    }

    /// Schedules `node` to crash at `time`.
    pub fn schedule_crash(&mut self, time: SimTime, node: NodeId) {
        self.membership_events += 1;
        self.queue.schedule(time, node, EventKind::Crash);
    }

    /// Invokes `on_start` on every live node (in id order, at time 0);
    /// does nothing unless `B` [has a start
    /// hook](NodeBehavior::HAS_START_HOOK).
    pub fn start_all(&mut self) {
        if !B::HAS_START_HOOK {
            return;
        }
        for v in 0..self.behaviors.len() as NodeId {
            if !self.crashed[v as usize] {
                self.dispatch(v, |b, ctx| b.on_start(ctx));
            }
        }
    }

    /// Injects a message for `to`, attributed to `from`, delivered at the
    /// current simulation time (bypasses the network — used to seed the
    /// initial multicast at the source).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.queue
            .schedule(self.now, to, EventKind::Deliver { from, msg });
    }

    /// Processes a single event. Returns `false` when the queue is
    /// empty; the clock then moves on to the latest absorbed copy, if
    /// one lands after the last scheduled event.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            self.now = self.metrics.last_event_time;
            return false;
        };
        debug_assert!(event.time >= self.now, "time must be monotone");
        self.now = event.time;
        self.metrics.events_processed += 1;
        self.metrics.last_event_time = self.metrics.last_event_time.max(self.now);
        let target = event.target;
        match event.kind {
            EventKind::Crash => {
                self.membership_events -= 1;
                if !self.crashed[target as usize] {
                    self.crashed[target as usize] = true;
                    self.metrics.crashes += 1;
                    if let Some(t) = &mut self.tracer {
                        t.record(self.now, target, TraceKind::Crashed);
                    }
                }
            }
            EventKind::Deliver { from, msg } => {
                if self.crashed[target as usize] {
                    self.metrics.deliveries_to_crashed += 1;
                } else {
                    self.metrics.messages_delivered += 1;
                    if let Some(t) = &mut self.tracer {
                        t.record(self.now, target, TraceKind::Delivered { from });
                    }
                    self.dispatch(target, |b, ctx| b.on_message(ctx, from, msg));
                }
            }
            EventKind::Timer { id } => {
                if !self.crashed[target as usize] {
                    self.metrics.timers_fired += 1;
                    if let Some(t) = &mut self.tracer {
                        t.record(self.now, target, TraceKind::TimerFired { id });
                    }
                    self.dispatch(target, |b, ctx| b.on_timer(ctx, id));
                }
            }
            EventKind::Join => {
                self.membership_events -= 1;
                // Dormant (or pre-crashed) nodes come up; joining an
                // already-live node is a no-op. A crash scheduled after
                // the join still wins — it simply fires later.
                if self.crashed[target as usize] {
                    self.crashed[target as usize] = false;
                    self.membership.activate(target);
                    if let Some(t) = &mut self.tracer {
                        t.record(self.now, target, TraceKind::Joined);
                    }
                    if B::HAS_START_HOOK {
                        self.dispatch(target, |b, ctx| b.on_start(ctx));
                    }
                }
            }
        }
        true
    }

    /// Runs until no events remain. Returns the metrics.
    pub fn run_to_quiescence(&mut self) -> &SimMetrics {
        while self.step() {}
        &self.metrics
    }

    // --- dispatch plumbing -------------------------------------------

    /// Runs one callback of `target`'s behaviour, then turns what it
    /// buffered into events.
    fn dispatch(&mut self, target: NodeId, call: impl FnOnce(&mut B, &mut NodeCtx<'_, M>)) {
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut timerbox = std::mem::take(&mut self.timerbox);
        let mut ctx = NodeCtx {
            node: target,
            now: self.now,
            rng: &mut self.rng,
            membership: &*self.membership,
            outbox: &mut outbox,
            timers: &mut timerbox,
            targets: &mut self.targets,
        };
        call(&mut self.behaviors[target as usize], &mut ctx);
        self.flush(target, &mut outbox, &mut timerbox);
        self.outbox = outbox;
        self.timerbox = timerbox;
    }

    /// Turns buffered sends/timers into scheduled events, and settles
    /// absorbed copies on the spot (see the module doc).
    fn flush(
        &mut self,
        sender: NodeId,
        outbox: &mut Vec<(NodeId, M)>,
        timers: &mut Vec<(SimDuration, u64)>,
    ) {
        for (to, msg) in outbox.drain(..) {
            self.metrics.messages_sent += 1;
            // Link faults (blocked links, bursty loss) drop before the
            // network's own i.i.d. loss draw gets a say.
            let fault_lost = match &mut self.link_faults {
                Some(faults) => faults.on_transmit(sender, to, &mut self.rng),
                None => false,
            };
            if fault_lost {
                self.metrics.messages_lost += 1;
                if let Some(t) = &mut self.tracer {
                    t.record(self.now, sender, TraceKind::Lost { to });
                }
                continue;
            }
            match self.network.transmit(&mut self.rng) {
                Some(latency) => {
                    let at = self.now + latency;
                    let Some(msg) = self.absorb(sender, to, msg, at) else {
                        continue;
                    };
                    if let Some(t) = &mut self.tracer {
                        t.record(self.now, sender, TraceKind::Sent { to });
                    }
                    self.queue
                        .schedule(at, to, EventKind::Deliver { from: sender, msg });
                }
                None => {
                    self.metrics.messages_lost += 1;
                    if let Some(t) = &mut self.tracer {
                        t.record(self.now, sender, TraceKind::Lost { to });
                    }
                }
            }
        }
        for (delay, id) in timers.drain(..) {
            self.metrics.timers_set += 1;
            self.queue
                .schedule(self.now + delay, sender, EventKind::Timer { id });
        }
    }

    /// Settles the copy `sender` → `to` landing at `at` on the spot,
    /// counted as `step` would count it, if its fate is already fixed
    /// (see the module doc); otherwise hands `msg` back to be scheduled.
    fn absorb(&mut self, sender: NodeId, to: NodeId, msg: M, at: SimTime) -> Option<M> {
        if self.membership_events > 0 || self.tracer.is_some() {
            return Some(msg);
        }
        if self.crashed[to as usize] {
            self.metrics.deliveries_to_crashed += 1;
        } else {
            let behavior = &mut self.behaviors[to as usize];
            if !behavior.settled() {
                return Some(msg);
            }
            self.metrics.messages_delivered += 1;
            // The dispatch took `outbox` and `timerbox`, leaving them
            // empty; a settled node must leave them so.
            let mut ctx = NodeCtx {
                node: to,
                now: at,
                rng: &mut self.rng,
                membership: &*self.membership,
                outbox: &mut self.outbox,
                timers: &mut self.timerbox,
                targets: &mut self.targets,
            };
            behavior.on_message(&mut ctx, sender, msg);
            assert!(
                self.outbox.is_empty() && self.timerbox.is_empty(),
                "a settled node sent a message or set a timer"
            );
        }
        self.metrics.events_processed += 1;
        self.metrics.last_event_time = self.metrics.last_event_time.max(at);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::FullView;
    use crate::network::LatencyModel;

    /// Relays each first-seen value to `fanout` random targets (one
    /// unless set); counts receipts. Settled once it has relayed.
    struct Relay {
        seen: bool,
        receipts: u32,
        fanout: usize,
    }

    impl Relay {
        fn new() -> Self {
            Relay {
                seen: false,
                receipts: 0,
                fanout: 1,
            }
        }
    }

    impl NodeBehavior<u64> for Relay {
        fn on_message(&mut self, ctx: &mut NodeCtx<'_, u64>, _from: NodeId, msg: u64) {
            self.receipts += 1;
            if !self.seen {
                self.seen = true;
                ctx.gossip(self.fanout, msg);
            }
        }

        fn settled(&self) -> bool {
            self.seen
        }
    }

    fn relay_sim(n: usize, seed: u64) -> Simulator<u64, Relay> {
        Simulator::new(
            (0..n).map(|_| Relay::new()).collect(),
            NetworkConfig::new(LatencyModel::constant_millis(1)),
            Box::new(FullView::new(n)),
            seed,
        )
    }

    /// A fanout-3 relay over `members` whose membership `plan` moves
    /// mid-run, traced (full calendar) or not.
    fn moving_sim(
        members: Box<dyn Membership>,
        plan: impl Fn(&mut Simulator<u64, Relay>),
        traced: bool,
    ) -> Simulator<u64, Relay> {
        let n = members.group_size();
        let relays = (0..n).map(|_| Relay {
            fanout: 3,
            ..Relay::new()
        });
        let mut sim = Simulator::new(
            relays.collect(),
            NetworkConfig::new(LatencyModel::constant_millis(1)),
            members,
            21,
        );
        if traced {
            sim.enable_tracing(usize::MAX);
        }
        plan(&mut sim);
        sim.inject(0, 0, 1);
        sim
    }

    /// Runs `sim` to quiescence, checking that no copy is absorbed
    /// while a crash or join is pending; returns the events popped.
    fn step_frozen_checked(sim: &mut Simulator<u64, Relay>) -> u64 {
        let mut popped = 0;
        while sim.step() {
            popped += 1;
            if sim.membership_events > 0 {
                assert_eq!(
                    sim.metrics.events_processed, popped,
                    "a copy was absorbed while membership could still move"
                );
            }
        }
        popped
    }

    /// Everything a run leaves behind: metrics, clock, per-node state.
    fn outcome(sim: &Simulator<u64, Relay>) -> (SimMetrics, SimTime, Vec<(bool, u32, bool)>) {
        let nodes = sim.nodes().map(|(_, r, c)| (r.seen, r.receipts, c));
        (*sim.metrics(), sim.now(), nodes.collect())
    }

    /// The shortcut stays off until the plan's last event has fired,
    /// then absorbs copies, and the run ends as the full calendar's.
    fn assert_shortcut_waits_for(
        members: impl Fn() -> Box<dyn Membership>,
        plan: impl Fn(&mut Simulator<u64, Relay>),
    ) {
        let mut sim = moving_sim(members(), &plan, false);
        let popped = step_frozen_checked(&mut sim);
        assert!(
            sim.metrics().events_processed > popped,
            "copies after the last membership event are absorbed"
        );
        let mut full = moving_sim(members(), &plan, true);
        assert_eq!(
            step_frozen_checked(&mut full),
            full.metrics().events_processed
        );
        assert_eq!(outcome(&sim), outcome(&full));
    }

    #[test]
    fn a_crash_schedule_holds_the_shortcut_off_until_it_fires() {
        assert_shortcut_waits_for(
            || Box::new(FullView::new(40)),
            |sim| {
                sim.apply_failure_plan(&FailurePlan::CrashAtTimes(vec![
                    (SimTime::from_nanos(1_500_000), 7),
                    (SimTime::from_nanos(2_500_000), 9),
                ]))
            },
        );
    }

    #[test]
    fn a_churn_plan_holds_the_shortcut_off_until_it_fires() {
        use crate::membership::DynamicView;
        assert_shortcut_waits_for(
            || Box::new(DynamicView::new(42, 40)),
            |sim| {
                for joiner in [40, 41] {
                    sim.make_dormant(joiner);
                }
                sim.schedule_join(SimTime::from_nanos(1_500_000), 40);
                sim.schedule_join(SimTime::from_nanos(2_500_000), 41);
                sim.schedule_crash(SimTime::from_nanos(2_000_000), 3);
            },
        );
    }

    #[test]
    fn single_relay_chain_terminates() {
        let mut sim = relay_sim(10, 1);
        sim.inject(0, 0, 99);
        sim.run_to_quiescence();
        // Every delivered message either spawned one send (first sight)
        // or stopped; chain length ≤ can't exceed events bound.
        assert!(sim.metrics().messages_delivered >= 1);
        assert!(sim.metrics().events_processed >= 1);
        // Time advanced by 1ms per hop.
        assert_eq!(
            sim.metrics().last_event_time.as_nanos() % 1_000_000,
            0,
            "constant latency keeps times on the grid"
        );
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let mut sim = relay_sim(50, seed);
            sim.inject(0, 0, 7);
            sim.run_to_quiescence();
            (
                sim.metrics().messages_sent,
                sim.metrics().messages_delivered,
                sim.metrics().last_event_time,
            )
        };
        assert_eq!(run(42), run(42));
        // Different seeds should (almost surely) differ in trajectory.
        // Not asserted — could coincide for tiny runs.
    }

    #[test]
    fn crash_at_start_blocks_processing() {
        let mut sim = relay_sim(100, 3);
        sim.apply_failure_plan(&FailurePlan::paper_model(0.5, 0));
        assert!(!sim.is_crashed(0), "source immune");
        let crashed_before = sim.metrics().crashes;
        assert!(crashed_before > 20, "should crash roughly half");
        sim.inject(0, 0, 1);
        sim.run_to_quiescence();
        // Any delivery to a crashed node is absorbed.
        let m = sim.metrics();
        assert_eq!(
            m.messages_delivered + m.deliveries_to_crashed + m.messages_lost,
            m.messages_sent + 1, // +1 for the injection
        );
    }

    #[test]
    fn crash_schedule_fires() {
        let mut sim = relay_sim(5, 4);
        sim.apply_failure_plan(&FailurePlan::CrashAtTimes(vec![(
            SimTime::from_nanos(10),
            2,
        )]));
        sim.run_to_quiescence();
        assert!(sim.is_crashed(2));
        assert_eq!(sim.metrics().crashes, 1);
        assert_eq!(sim.live_count(), 4);
    }

    #[test]
    fn tracing_records_deliveries() {
        let mut sim = relay_sim(10, 6);
        sim.enable_tracing(1000);
        sim.inject(0, 0, 5);
        sim.run_to_quiescence();
        let trace = sim.trace().unwrap();
        assert!(trace
            .records()
            .iter()
            .any(|r| matches!(r.kind, TraceKind::Delivered { .. })));
    }

    #[test]
    fn lossy_network_counts_losses() {
        let mut sim = Simulator::new(
            (0..2).map(|_| Relay::new()).collect::<Vec<_>>(),
            NetworkConfig::new(LatencyModel::constant_millis(1)).with_loss(0.999),
            Box::new(FullView::new(2)),
            7,
        );
        sim.inject(0, 0, 1);
        sim.run_to_quiescence();
        let m = sim.metrics();
        assert_eq!(
            m.messages_sent,
            m.messages_lost + (m.messages_delivered - 1)
        );
    }

    #[test]
    fn dormant_nodes_join_and_process() {
        use crate::membership::DynamicView;
        // 4 initial members + 1 joiner (id 4) arriving at 5 ms.
        let mut sim = Simulator::new(
            (0..5).map(|_| Relay::new()).collect::<Vec<_>>(),
            NetworkConfig::new(LatencyModel::constant_millis(1)),
            Box::new(DynamicView::new(5, 4)),
            11,
        );
        sim.make_dormant(4);
        sim.schedule_join(SimTime::from_nanos(5_000_000), 4);
        assert_eq!(sim.live_count(), 4);
        sim.inject(4, 4, 9); // delivery to a dormant node is absorbed
        sim.run_to_quiescence();
        assert!(!sim.is_crashed(4), "joiner must be live after its join");
        assert_eq!(sim.live_count(), 5);
        assert_eq!(sim.metrics().deliveries_to_crashed, 1);
        assert_eq!(sim.metrics().crashes, 0, "joining is not a crash");
    }

    #[test]
    fn link_faults_block_the_source_fan() {
        use gossip_faults::{AdversarySpec, AdversaryStrategy, BlockedLinks};
        let mut sim = relay_sim(10, 13);
        let blocked = BlockedLinks::build(
            10,
            0,
            &AdversarySpec {
                f: 9,
                strategy: AdversaryStrategy::WorstCase,
            },
            0,
        );
        let mut rng = Xoshiro256StarStar::new(99);
        sim.set_link_faults(LinkFaults::new(10, Some(blocked), None, &mut rng));
        sim.inject(0, 0, 1);
        sim.run_to_quiescence();
        let m = sim.metrics();
        // The source's single relay (and any chain it would start) dies
        // on its blocked uplink: nobody but the source ever delivers.
        assert_eq!(m.messages_delivered, 1, "only the injection lands");
        assert_eq!(m.messages_lost, m.messages_sent);
    }

    /// Counts its start callbacks, each of which sets a timer; `HOOK`
    /// is what it declares as [`NodeBehavior::HAS_START_HOOK`].
    struct Starter<const HOOK: bool> {
        starts: u32,
    }

    impl<const HOOK: bool> NodeBehavior<u64> for Starter<HOOK> {
        const HAS_START_HOOK: bool = HOOK;

        fn on_start(&mut self, ctx: &mut NodeCtx<'_, u64>) {
            self.starts += 1;
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }

        fn on_message(&mut self, _: &mut NodeCtx<'_, u64>, _: NodeId, _: u64) {}
    }

    /// Starts four members and lets a fifth join at 5 ms; returns each
    /// node's start count and the timers set.
    fn starts<const HOOK: bool>() -> (Vec<u32>, u64) {
        use crate::membership::DynamicView;
        let mut sim = Simulator::new(
            (0..5).map(|_| Starter::<HOOK> { starts: 0 }).collect(),
            NetworkConfig::default(),
            Box::new(DynamicView::new(5, 4)),
            3,
        );
        sim.make_dormant(4);
        sim.schedule_join(SimTime::from_nanos(5_000_000), 4);
        sim.start_all();
        sim.run_to_quiescence();
        let counts = sim.nodes().map(|(_, b, _)| b.starts).collect();
        (counts, sim.metrics().timers_set)
    }

    #[test]
    fn start_hooks_are_dispatched_only_where_declared() {
        assert_eq!(
            starts::<false>(),
            (vec![0; 5], 0),
            "start or join dispatched"
        );
        assert_eq!(starts::<true>(), (vec![1; 5], 5));
    }

    #[test]
    #[should_panic(expected = "a settled node sent")]
    fn a_settled_node_that_sends_breaks_its_contract() {
        /// Claims to be settled but answers every copy.
        struct Chatty;
        impl NodeBehavior<u64> for Chatty {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u64>, from: NodeId, msg: u64) {
                ctx.send(from, msg);
            }

            fn settled(&self) -> bool {
                true
            }
        }
        let mut sim = Simulator::new(
            vec![Chatty, Chatty],
            NetworkConfig::default(),
            Box::new(FullView::new(2)),
            1,
        );
        sim.inject(1, 0, 1);
        sim.run_to_quiescence();
    }

    #[test]
    #[should_panic(expected = "membership group size")]
    fn rejects_mismatched_membership() {
        let _: Simulator<u64, Relay> = Simulator::new(
            vec![Relay::new()],
            NetworkConfig::default(),
            Box::new(FullView::new(5)),
            1,
        );
    }
}
