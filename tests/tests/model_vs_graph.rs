//! Analytic model vs the random-graph substrate, through the unified
//! scenario API: [`GraphBackend`] (giant components of percolated
//! configuration-model graphs) must match [`AnalyticBackend`]
//! (`1 − G0(u)`, paper §4) on the same [`Scenario`] values, and the
//! directed relay of [`ProtocolBackend`] must meet the same number
//! twice over — as its conditioned reach and as its take-off rate (the
//! Poisson duality).

use gossip::{
    AnalyticBackend, Backend, FanoutSpec, GraphBackend, ProtocolBackend, Report, Scenario,
};
use gossip_integration_tests::assert_close;

/// Evaluates one scenario by both layers and asserts agreement.
fn graph_vs_model(fanout: FanoutSpec, q: f64, n: usize, tol: f64) {
    let scenario = Scenario::new(n, fanout)
        .with_failure_ratio(q)
        .with_replications(8)
        .with_seed(0x600D);
    let analytic = AnalyticBackend.evaluate(&scenario).expect("valid scenario");
    let graph = GraphBackend.evaluate(&scenario).expect("valid scenario");
    assert_close(
        graph.reliability,
        analytic.reliability,
        tol,
        &format!("giant component, {}", scenario.label()),
    );
    // The two layers must also agree on the critical point exactly
    // (both derive it from G1'(1)).
    match (graph.critical_q, analytic.critical_q) {
        (Some(g), Some(a)) => assert_close(g, a, 1e-12, "critical q"),
        (g, a) => assert_eq!(g, a, "critical q presence"),
    }
}

#[test]
fn poisson_giant_component_matches() {
    graph_vs_model(FanoutSpec::poisson(4.0), 0.9, 20_000, 0.01);
    graph_vs_model(FanoutSpec::poisson(4.0), 0.5, 20_000, 0.02);
    graph_vs_model(FanoutSpec::poisson(2.0), 1.0, 20_000, 0.02);
}

#[test]
fn non_poisson_giant_components_match() {
    graph_vs_model(FanoutSpec::fixed(3), 0.8, 20_000, 0.02);
    graph_vs_model(FanoutSpec::geometric_with_mean(4.0), 0.9, 20_000, 0.02);
    graph_vs_model(
        FanoutSpec::Empirical {
            weights: vec![0.0, 0.3, 0.3, 0.0, 0.4],
        },
        0.85,
        20_000,
        0.02,
    );
}

#[test]
fn subcritical_graphs_have_no_giant() {
    let scenario = Scenario::new(20_000, FanoutSpec::poisson(4.0))
        .with_failure_ratio(0.15) // q < q_c = 0.25
        .with_replications(5)
        .with_seed(77);
    let report = GraphBackend.evaluate(&scenario).expect("valid scenario");
    assert!(
        report.reliability < 0.02,
        "subcritical giant fraction {}",
        report.reliability
    );
}

/// The Poisson duality's two halves on Po(4), q = 0.9, where the
/// undirected giant fraction is S = 0.9695: the directed relay
/// `ProtocolBackend` runs — the paper's Fig. 1 gossip digraph, drawn
/// lazily — conditioned on take-off.
fn directed_relay(n: usize, reps: usize, seed: u64) -> (Report, f64) {
    let scenario = Scenario::new(n, FanoutSpec::poisson(4.0))
        .with_failure_ratio(0.9)
        .with_replications(reps)
        .with_seed(seed);
    let analytic = AnalyticBackend.evaluate(&scenario).expect("valid scenario");
    let relay = ProtocolBackend.evaluate(&scenario).expect("valid scenario");
    (relay, analytic.reliability)
}

#[test]
fn directed_reach_matches_undirected_model_for_poisson() {
    // Directed reach from the source, conditioned on take-off, equals
    // the undirected giant-component fraction. A took-off run's reach
    // fraction at n = 20 000 has a spread of about 0.0015, so the mean of
    // the ~10 took-off runs sits within 0.01 with probability 1 − 1e-20
    // or better; only the all-fizzle case (0.0305¹⁰ < 1e-15) could fail.
    let (relay, analytic) = directed_relay(20_000, 10, 5);
    assert_close(
        relay.reliability,
        analytic,
        0.01,
        "directed reach (conditioned)",
    );
}

#[test]
fn takeoff_probability_matches_reliability_for_poisson() {
    // Second half of the duality: P(take-off) itself ≈ S. Over 300 runs
    // the take-off rate has SE 0.0099; it misses S by more than 0.04
    // only below 279 take-offs, and P(Bin(300, 0.9695) < 279) < 1.7e-4.
    let (relay, analytic) = directed_relay(4_000, 300, 9);
    assert_close(
        relay.takeoff_rate.expect("a conditioned Report"),
        analytic,
        0.04,
        "take-off probability",
    );
}

#[test]
fn graph_backend_loss_matches_lossy_model() {
    // Bond percolation through the scenario API: Po(6) with 25% loss
    // must land on the analytic site+bond prediction.
    let scenario = Scenario::new(20_000, FanoutSpec::poisson(6.0))
        .with_failure_ratio(0.9)
        .with_loss(0.25)
        .with_replications(6)
        .with_seed(31);
    let analytic = AnalyticBackend.evaluate(&scenario).expect("valid scenario");
    let graph = GraphBackend.evaluate(&scenario).expect("valid scenario");
    assert_close(
        graph.reliability,
        analytic.reliability,
        0.02,
        "bond+site percolation on graphs",
    );
}
