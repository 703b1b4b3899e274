//! Property-based tests for the simulator substrate.

use gossip_netsim::membership::FullView;
use gossip_netsim::queue::EventQueue;
use gossip_netsim::{
    EventKind, FailurePlan, LatencyModel, NetworkConfig, NodeBehavior, NodeCtx, NodeId,
    SimDuration, SimTime, Simulator,
};
use gossip_stats::rng::Xoshiro256StarStar;
use proptest::prelude::*;

/// Behaviour that relays each message once to `fanout` random targets.
struct RelayOnce {
    fanout: usize,
    seen: bool,
}

impl NodeBehavior<u32> for RelayOnce {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, u32>, _from: NodeId, msg: u32) {
        if self.seen {
            return;
        }
        self.seen = true;
        let mut targets = Vec::new();
        ctx.sample_targets(self.fanout, &mut targets);
        for t in targets {
            ctx.send(t, msg);
        }
    }
}

proptest! {
    /// The event queue is a stable priority queue: pops are globally
    /// time-ordered, FIFO among equal timestamps.
    #[test]
    fn queue_pops_sorted_stable(times in proptest::collection::vec(0u64..50, 1..200)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), 0, EventKind::Timer { id: i as u64 });
        }
        let mut last_time = 0u64;
        let mut last_id_at_time: Option<u64> = None;
        while let Some(e) = q.pop() {
            let t = e.time.as_nanos();
            prop_assert!(t >= last_time);
            let id = match e.kind {
                EventKind::Timer { id } => id,
                _ => unreachable!(),
            };
            if t == last_time {
                if let Some(prev) = last_id_at_time {
                    prop_assert!(id > prev, "FIFO violated at t = {}", t);
                }
            }
            last_time = t;
            last_id_at_time = Some(id);
        }
    }

    /// Uniform latency samples stay in bounds; exponential are
    /// non-negative.
    #[test]
    fn latency_models_in_domain(lo in 0u64..1000, span in 0u64..1000, seed in 0u64..100) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let uniform = LatencyModel::Uniform {
            lo: SimDuration::from_nanos(lo),
            hi: SimDuration::from_nanos(lo + span),
        };
        for _ in 0..100 {
            let d = uniform.sample(&mut rng).as_nanos();
            prop_assert!((lo..=lo + span).contains(&d));
        }
        let exp = LatencyModel::Exponential { mean: SimDuration::from_nanos(500) };
        for _ in 0..100 {
            // Non-negativity is structural (u64); just exercise it.
            let _ = exp.sample(&mut rng);
        }
    }

    /// Message conservation: every sent message is delivered, lost, or
    /// absorbed by a crashed node; plus the one injected message.
    #[test]
    fn message_conservation(
        n in 2usize..40,
        fanout in 0usize..6,
        loss in 0.0f64..0.9,
        q in 0.2f64..1.0,
        seed in 0u64..500,
    ) {
        let mut sim = Simulator::new(
            (0..n).map(|_| RelayOnce { fanout, seen: false }).collect::<Vec<_>>(),
            NetworkConfig::new(LatencyModel::constant_millis(1)).with_loss(loss),
            Box::new(FullView::new(n)),
            seed,
        );
        sim.apply_failure_plan(&FailurePlan::paper_model(q, 0));
        sim.inject(0, 0, 7);
        sim.run_to_quiescence();
        let m = sim.metrics();
        prop_assert_eq!(
            m.messages_sent + 1,
            m.messages_delivered + m.messages_lost + m.deliveries_to_crashed,
            "conservation violated: {:?}", m
        );
    }

    /// Determinism: identical seeds give identical metrics.
    #[test]
    fn run_deterministic(n in 2usize..30, seed in 0u64..500) {
        let run = || {
            let mut sim = Simulator::new(
                (0..n).map(|_| RelayOnce { fanout: 2, seen: false }).collect::<Vec<_>>(),
                NetworkConfig::new(LatencyModel::Uniform {
                    lo: SimDuration::from_millis(1),
                    hi: SimDuration::from_millis(5),
                }),
                Box::new(FullView::new(n)),
                seed,
            );
            sim.inject(0, 0, 1);
            sim.run_to_quiescence();
            *sim.metrics()
        };
        prop_assert_eq!(run(), run());
    }

    /// Crash schedules: after a scheduled crash, the node is crashed and
    /// the live count drops accordingly.
    #[test]
    fn crash_schedule_applies(n in 3usize..30, victim in 1u32..29, seed in 0u64..100) {
        prop_assume!((victim as usize) < n);
        let mut sim = Simulator::new(
            (0..n).map(|_| RelayOnce { fanout: 1, seen: false }).collect::<Vec<_>>(),
            NetworkConfig::default(),
            Box::new(FullView::new(n)),
            seed,
        );
        sim.apply_failure_plan(&FailurePlan::CrashAtTimes(vec![(SimTime::from_nanos(5), victim)]));
        sim.run_to_quiescence();
        prop_assert!(sim.is_crashed(victim));
        prop_assert_eq!(sim.live_count(), n - 1);
    }
}
