//! Property-based tests for the simulator substrate.

use std::collections::BTreeMap;

use gossip_netsim::membership::FullView;
use gossip_netsim::queue::EventQueue;
use gossip_netsim::{
    EventKind, FailurePlan, LatencyModel, NetworkConfig, NodeBehavior, NodeCtx, NodeId,
    SimDuration, SimMetrics, SimTime, Simulator,
};
use gossip_stats::rng::Xoshiro256StarStar;
use proptest::prelude::*;

/// Relays the first copy (carrying its hop count) to `fanout` random
/// targets and remembers when, from whom and at which hop it came; then
/// settles, counting every later copy as a duplicate.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RelayOnce {
    fanout: usize,
    first: Option<(SimTime, NodeId, u32)>,
    duplicates: u32,
}

impl RelayOnce {
    fn new(fanout: usize) -> Self {
        RelayOnce {
            fanout,
            first: None,
            duplicates: 0,
        }
    }
}

impl NodeBehavior<u32> for RelayOnce {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, u32>, from: NodeId, hop: u32) {
        if self.first.is_some() {
            self.duplicates += 1;
            return;
        }
        self.first = Some((ctx.now(), from, hop));
        ctx.gossip(self.fanout, hop + 1);
    }

    fn settled(&self) -> bool {
        self.first.is_some()
    }
}

/// One relay run to quiescence, with the full event calendar
/// (`traced`) or with settled copies absorbed at send time; returns the
/// metrics, the final clock and every node's state and crash flag.
fn relay_run(
    n: usize,
    fanout: usize,
    q: f64,
    network: NetworkConfig,
    seed: u64,
    traced: bool,
) -> (SimMetrics, SimTime, Vec<(RelayOnce, bool)>) {
    let relays = (0..n).map(|_| RelayOnce::new(fanout)).collect();
    let mut sim = Simulator::new(relays, network, Box::new(FullView::new(n)), seed);
    if traced {
        sim.enable_tracing(usize::MAX);
    }
    sim.apply_failure_plan(&FailurePlan::paper_model(q, 0));
    sim.inject(0, 0, 0);
    sim.run_to_quiescence();
    let nodes = sim.nodes().map(|(_, b, crashed)| (b.clone(), crashed));
    (*sim.metrics(), sim.now(), nodes.collect())
}

proptest! {
    /// Absorbing settled and crashed-bound copies at send time changes
    /// nothing a run leaves behind: metrics, clock and per-node state
    /// equal the full calendar's, under constant, uniform and
    /// exponential latency.
    #[test]
    fn absorbed_copies_match_the_full_calendar(
        n in 2usize..120,
        fanout in 0usize..8,
        q in 0.2f64..1.0,
        loss in 0.0f64..0.5,
        latency in 0u8..3,
        seed in 0u64..10_000,
    ) {
        let latency = match latency {
            0 => LatencyModel::constant_millis(1),
            1 => LatencyModel::Uniform {
                lo: SimDuration::from_millis(1),
                hi: SimDuration::from_millis(5),
            },
            _ => LatencyModel::Exponential { mean: SimDuration::from_millis(20) },
        };
        let network = NetworkConfig::new(latency).with_loss(loss);
        let absorbed = relay_run(n, fanout, q, network, seed, false);
        let full = relay_run(n, fanout, q, network, seed, true);
        prop_assert_eq!(absorbed, full);
    }

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

    /// Interleaved schedule and pop, the way the simulator drives the
    /// queue: each step either pops or schedules at `now + d`, with `d`
    /// the run's constant latency, a random delay, zero, or a far-future
    /// timer. Pops, `len` and `peek_time` match a `BTreeMap` keyed on
    /// `(time, seq)` after every step.
    #[test]
    fn queue_interleaved_matches_btreemap(
        constant in 1u64..20,
        ops in proptest::collection::vec((0u8..6, 0u64..40), 1..400),
    ) {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(4);
        let mut reference: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        for (i, &(op, r)) in ops.iter().enumerate() {
            let delay = match op {
                0 | 1 => None,
                2 => Some(constant),
                3 => Some(r),
                4 => Some(0),
                _ => Some(1_000_000 + r),
            };
            match delay {
                Some(d) => {
                    let time = now + SimDuration::from_nanos(d);
                    q.schedule(time, 0, EventKind::Timer { id: i as u64 });
                    reference.insert((time, seq), i as u64);
                    seq += 1;
                }
                None => {
                    let want = reference.pop_first();
                    let got = q.pop().map(|e| match e.kind {
                        EventKind::Timer { id } => ((e.time, e.seq), id),
                        _ => unreachable!(),
                    });
                    prop_assert_eq!(got, want);
                    if let Some(((time, _), _)) = want {
                        now = time;
                    }
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.peek_time(), reference.keys().next().map(|k| k.0));
        }
        // Drain: the rest comes out in reference order too.
        let rest: Vec<(SimTime, u64)> =
            std::iter::from_fn(|| q.pop()).map(|e| (e.time, e.seq)).collect();
        prop_assert_eq!(rest, reference.into_keys().collect::<Vec<_>>());
        prop_assert!(q.is_empty());
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
            (0..n).map(|_| RelayOnce::new(fanout)).collect::<Vec<_>>(),
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
                (0..n).map(|_| RelayOnce::new(2)).collect::<Vec<_>>(),
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
            (0..n).map(|_| RelayOnce::new(1)).collect::<Vec<_>>(),
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
