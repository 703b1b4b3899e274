//! Property-based invariants of the traffic subsystem: injection plans
//! are seed-deterministic and monotone, and the stream engine conserves
//! every message copy — injected relays end up delivered, dropped,
//! lost, absorbed by a crashed member, or duplicate, with nothing in
//! flight at quiescence.

use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};
use gossip_traffic::{
    injection_rounds, run_stream, ArrivalSpec, StreamParams, StreamScratch, MAX_FRAME_IDS,
};
use proptest::prelude::*;

fn arrivals() -> impl Strategy<Value = ArrivalSpec> {
    (0u8..3, 1u64..=16, 1u32..=40).prop_map(|(kind, every_rounds, rate)| match kind {
        0 => ArrivalSpec::AllAtOnce,
        1 => ArrivalSpec::FixedInterval { every_rounds },
        _ => ArrivalSpec::Poisson {
            rate_per_round: rate as f64 / 10.0,
        },
    })
}

proptest! {
    #[test]
    fn injection_plans_are_deterministic_and_monotone(
        arrival in arrivals(),
        messages in 1usize..128,
        seed in 0u64..1_000_000,
    ) {
        let a = injection_rounds(&arrival, messages, seed);
        let b = injection_rounds(&arrival, messages, seed);
        prop_assert_eq!(&a, &b, "same seed must give the same plan");
        prop_assert_eq!(a.len(), messages);
        prop_assert!(a.windows(2).all(|w| w[0] <= w[1]), "plan must be nondecreasing: {:?}", a);
    }

    #[test]
    fn stream_engine_conserves_copies(
        n in 8usize..200,
        messages in 1usize..24,
        bandwidth in (0usize..6).prop_map(|b| if b == 0 { None } else { Some(b) }),
        queue_capacity in 1usize..64,
        frame_limit in 1usize..=MAX_FRAME_IDS,
        loss in 0u32..=40,
        fanout in 0usize..8,
        dead in 0u32..=50,
        seed in 0u64..1_000_000,
    ) {
        let loss = loss as f64 / 100.0;
        let injections = injection_rounds(&ArrivalSpec::FixedInterval { every_rounds: 2 }, messages, seed);
        // A deterministic crash pattern; the source stays alive.
        let mut crash_rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, 0xFA11));
        let alive: Vec<bool> = (0..n)
            .map(|v| v == 0 || !crash_rng.next_bool(dead as f64 / 100.0))
            .collect();
        let p = StreamParams {
            n,
            source: 0,
            injections: &injections,
            bandwidth,
            queue_capacity,
            frame_limit,
            loss,
            alive: &alive,
        };
        let mut scratch = StreamScratch::new();
        let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, 1));
        let mut hist = Vec::new();
        let out = run_stream(&p, &mut scratch, &mut rng, &mut |r| {
            // A noisy fanout in [0, fanout]: exercises zero draws too.
            r.next_below(fanout as u64 + 1) as usize
        }, &mut hist);
        let c = out.counters;
        // Conservation at quiescence: every created copy was sent or
        // dropped; every sent copy is classified exactly once.
        prop_assert_eq!(c.copies_created, c.copies_dropped + c.copies_sent);
        prop_assert_eq!(
            c.copies_sent,
            c.copies_lost + c.copies_to_crashed + c.copies_delivered + c.copies_duplicate
        );
        // Deliveries recorded in the latency histogram = wire deliveries
        // plus the k source receipts.
        let recorded: u64 = hist.iter().sum();
        prop_assert_eq!(recorded, c.copies_delivered + messages as u64);
        // Reached counts never exceed the alive population, and the sum
        // of first receipts matches the reached totals.
        let alive_count = alive.iter().filter(|&&a| a).count() as u32;
        prop_assert!(out.reached.iter().all(|&r| r >= 1 && r <= alive_count));
        let total_reached: u64 = out.reached.iter().map(|&r| r as u64).sum();
        prop_assert_eq!(total_reached, c.copies_delivered + messages as u64);
    }

    #[test]
    fn uncapped_lossless_stream_is_bandwidth_invariant(
        n in 16usize..120,
        messages in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        // With no contention (huge B, huge queue) the cap value cannot
        // change anything: B = n and B = unlimited must agree exactly.
        let injections = vec![0u64; messages];
        let alive = vec![true; n];
        let run = |bandwidth: Option<usize>| {
            let p = StreamParams {
                n,
                source: 0,
                injections: &injections,
                bandwidth,
                queue_capacity: 1 << 14,
                frame_limit: 1,
                loss: 0.0,
                alive: &alive,
            };
            let mut scratch = StreamScratch::new();
            let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, 2));
            let mut hist = Vec::new();
            let out = run_stream(&p, &mut scratch, &mut rng, &mut |r| {
                r.next_below(4) as usize
            }, &mut hist);
            (out.reached, out.counters)
        };
        let capped = run(Some(8 * n));
        let uncapped = run(None);
        prop_assert_eq!(capped.0, uncapped.0);
        prop_assert_eq!(capped.1, uncapped.1);
    }
}
