//! The simulator core: event loop, dispatch, crash handling.

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
    // Workhorse buffers reused across dispatches (no steady-state alloc).
    outbox: Vec<(NodeId, M)>,
    timerbox: Vec<(SimDuration, u64)>,
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
            outbox: Vec::new(),
            timerbox: Vec::new(),
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
                    self.queue.schedule(time, node, EventKind::Crash);
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
        self.queue.schedule(time, node, EventKind::Join);
    }

    /// Schedules `node` to crash at `time`.
    pub fn schedule_crash(&mut self, time: SimTime, node: NodeId) {
        self.queue.schedule(time, node, EventKind::Crash);
    }

    /// Invokes `on_start` on every live node (in id order, at time 0).
    pub fn start_all(&mut self) {
        for v in 0..self.behaviors.len() as NodeId {
            if !self.crashed[v as usize] {
                self.dispatch_start(v);
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

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time must be monotone");
        self.now = event.time;
        self.metrics.events_processed += 1;
        self.metrics.last_event_time = self.now;
        let target = event.target;
        match event.kind {
            EventKind::Crash => {
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
                    self.dispatch_message(target, from, msg);
                }
            }
            EventKind::Timer { id } => {
                if !self.crashed[target as usize] {
                    self.metrics.timers_fired += 1;
                    if let Some(t) = &mut self.tracer {
                        t.record(self.now, target, TraceKind::TimerFired { id });
                    }
                    self.dispatch_timer(target, id);
                }
            }
            EventKind::Join => {
                // Dormant (or pre-crashed) nodes come up; joining an
                // already-live node is a no-op. A crash scheduled after
                // the join still wins — it simply fires later.
                if self.crashed[target as usize] {
                    self.crashed[target as usize] = false;
                    self.membership.activate(target);
                    if let Some(t) = &mut self.tracer {
                        t.record(self.now, target, TraceKind::Joined);
                    }
                    self.dispatch_start(target);
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

    fn dispatch_message(&mut self, target: NodeId, from: NodeId, msg: M) {
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut timerbox = std::mem::take(&mut self.timerbox);
        {
            let mut ctx = NodeCtx {
                node: target,
                now: self.now,
                rng: &mut self.rng,
                membership: &*self.membership,
                outbox: &mut outbox,
                timers: &mut timerbox,
            };
            self.behaviors[target as usize].on_message(&mut ctx, from, msg);
        }
        self.flush(target, &mut outbox, &mut timerbox);
        self.outbox = outbox;
        self.timerbox = timerbox;
    }

    fn dispatch_timer(&mut self, target: NodeId, id: u64) {
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut timerbox = std::mem::take(&mut self.timerbox);
        {
            let mut ctx = NodeCtx {
                node: target,
                now: self.now,
                rng: &mut self.rng,
                membership: &*self.membership,
                outbox: &mut outbox,
                timers: &mut timerbox,
            };
            self.behaviors[target as usize].on_timer(&mut ctx, id);
        }
        self.flush(target, &mut outbox, &mut timerbox);
        self.outbox = outbox;
        self.timerbox = timerbox;
    }

    fn dispatch_start(&mut self, target: NodeId) {
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut timerbox = std::mem::take(&mut self.timerbox);
        {
            let mut ctx = NodeCtx {
                node: target,
                now: self.now,
                rng: &mut self.rng,
                membership: &*self.membership,
                outbox: &mut outbox,
                timers: &mut timerbox,
            };
            self.behaviors[target as usize].on_start(&mut ctx);
        }
        self.flush(target, &mut outbox, &mut timerbox);
        self.outbox = outbox;
        self.timerbox = timerbox;
    }

    /// Turns buffered sends/timers into scheduled events.
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
                    if let Some(t) = &mut self.tracer {
                        t.record(self.now, sender, TraceKind::Sent { to });
                    }
                    self.queue.schedule(
                        self.now + latency,
                        to,
                        EventKind::Deliver { from: sender, msg },
                    );
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::FullView;
    use crate::network::LatencyModel;

    /// Relays each first-seen value to one random target; counts receipts.
    struct Relay {
        seen: bool,
        receipts: u32,
    }

    impl NodeBehavior<u64> for Relay {
        fn on_message(&mut self, ctx: &mut NodeCtx<'_, u64>, _from: NodeId, msg: u64) {
            self.receipts += 1;
            if !self.seen {
                self.seen = true;
                let mut targets = Vec::new();
                ctx.sample_targets(1, &mut targets);
                for t in targets {
                    ctx.send(t, msg);
                }
            }
        }
    }

    fn relay_sim(n: usize, seed: u64) -> Simulator<u64, Relay> {
        Simulator::new(
            (0..n)
                .map(|_| Relay {
                    seen: false,
                    receipts: 0,
                })
                .collect(),
            NetworkConfig::new(LatencyModel::constant_millis(1)),
            Box::new(FullView::new(n)),
            seed,
        )
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
            (0..2)
                .map(|_| Relay {
                    seen: false,
                    receipts: 0,
                })
                .collect::<Vec<_>>(),
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
            (0..5)
                .map(|_| Relay {
                    seen: false,
                    receipts: 0,
                })
                .collect::<Vec<_>>(),
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

    #[test]
    #[should_panic(expected = "membership group size")]
    fn rejects_mismatched_membership() {
        let _: Simulator<u64, Relay> = Simulator::new(
            vec![Relay {
                seen: false,
                receipts: 0,
            }],
            NetworkConfig::default(),
            Box::new(FullView::new(5)),
            1,
        );
    }
}
