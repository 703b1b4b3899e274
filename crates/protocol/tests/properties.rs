//! Property-based tests for the protocol layer.

use gossip_model::distribution::{FixedFanout, PoissonFanout};
use gossip_model::{success, Backend, FanoutSpec, Scenario};
use gossip_protocol::engine::{run_push, ExecutionConfig};
use gossip_protocol::ProtocolBackend;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Execution outcomes satisfy their structural invariants for
    /// arbitrary parameters.
    #[test]
    fn outcome_invariants(
        n in 2usize..400,
        q in 0.1f64..1.0,
        z in 0.0f64..8.0,
        seed in 0u64..10_000,
    ) {
        let cfg = ExecutionConfig::new(n, q);
        let out = run_push(&cfg, &PoissonFanout::new(z), seed).unwrap();
        prop_assert!(out.nonfailed >= 1, "source is always nonfailed");
        prop_assert!(out.nonfailed <= n);
        prop_assert!(out.nonfailed_reached >= 1, "source always receives");
        prop_assert!(out.nonfailed_reached <= out.nonfailed);
        let r = out.reliability();
        prop_assert!((0.0..=1.0).contains(&r));
        // Hop histogram covers exactly the reached nonfailed members.
        let hop_total: u32 = out.hop_histogram.iter().sum();
        prop_assert_eq!(hop_total as usize, out.nonfailed_reached);
        // Hop 0 is the source alone.
        if !out.hop_histogram.is_empty() {
            prop_assert_eq!(out.hop_histogram[0], 1);
        }
    }

    /// Fixed fanout f: every infected member sends exactly
    /// min(f, n−1) messages.
    #[test]
    fn message_count_exact_for_fixed_fanout(
        n in 3usize..200,
        f in 0usize..8,
        seed in 0u64..10_000,
    ) {
        let cfg = ExecutionConfig::new(n, 1.0);
        let out = run_push(&cfg, &FixedFanout::new(f), seed).unwrap();
        let per_member = f.min(n - 1) as u64;
        prop_assert_eq!(
            out.messages_sent,
            out.nonfailed_reached as u64 * per_member,
            "reached {} members at fanout {}", out.nonfailed_reached, f
        );
    }

    /// Determinism as a property: same seed, same outcome — including
    /// the hop histogram.
    #[test]
    fn outcome_deterministic(n in 2usize..150, seed in 0u64..10_000) {
        let cfg = ExecutionConfig::new(n, 0.8);
        let dist = PoissonFanout::new(3.0);
        prop_assert_eq!(run_push(&cfg, &dist, seed).unwrap(), run_push(&cfg, &dist, seed).unwrap());
    }

    /// The success probability within t executions is monotone in t for
    /// a fixed seed base, whatever the receipt probability p.
    #[test]
    fn success_within_t_monotone(p in 0.0f64..1.0, seed in 0u64..200) {
        let within = |t| 1.0 - success::receipt_counts(p, t, 40, seed).pmf(0);
        let (p1, p3) = (within(1), within(3));
        // Same trial seeds: the t=3 pass can only add hits.
        prop_assert!(p3 >= p1 - 1e-12, "p3 = {p3} < p1 = {p1}");
    }

    /// Reliability statistics never leave [0, 1] and use every
    /// replication.
    #[test]
    fn reliability_stats_domain(
        n in 10usize..200,
        q in 0.2f64..1.0,
        reps in 1usize..12,
        seed in 0u64..1000,
    ) {
        let scenario = Scenario::new(n, FanoutSpec::poisson(3.0))
            .with_failure_ratio(q)
            .with_replications(reps)
            .with_seed(seed);
        let report = ProtocolBackend.evaluate(&scenario).unwrap();
        prop_assert_eq!(report.replications, reps);
        prop_assert!((0.0..=1.0).contains(&report.reliability));
        prop_assert!((0.0..=1.0).contains(&report.reliability_raw.unwrap()));
        prop_assert!((0.0..=1.0).contains(&report.takeoff_rate.unwrap()));
    }

    /// The member-receipt histogram always totals the simulation count
    /// and stays within [0, execs].
    #[test]
    fn receipt_histogram_domain(
        p in 0.0f64..1.0,
        sims in 1usize..10,
        execs in 1u32..6,
        seed in 0u64..200,
    ) {
        let hist = success::receipt_counts(p, execs, sims, seed);
        prop_assert_eq!(hist.total(), sims as u64);
        prop_assert_eq!(hist.buckets(), execs as usize + 1);
    }
}
