//! The message-loss extension (bond percolation) against the simulator's
//! network loss model — theory the paper didn't include, validated
//! end to end.

use gossip_integration_tests::assert_close;
use gossip_model::distribution::PoissonFanout;
use gossip_model::poisson_case::reliability_with_loss;
use gossip_model::{Backend, FanoutSpec, PaperLaw, Report, Scenario};
use gossip_protocol::NetSimBackend;

/// Po(f) push gossip among 1500 members on the lossy simulated network
/// (the default constant 1 ms latency).
fn lossy(f: f64, q: f64, loss: f64, reps: usize, seed: u64) -> Report {
    let scenario = Scenario::new(1500, FanoutSpec::poisson(f))
        .with_failure_ratio(q)
        .with_loss(loss)
        .with_replications(reps)
        .with_seed(seed);
    NetSimBackend.evaluate(&scenario).unwrap()
}

#[test]
fn protocol_under_loss_matches_bond_percolation() {
    // 15 replications, conditioned on take-off; tolerance 0.02.
    let (f, q, loss) = (5.0, 0.9, 0.2);
    let analytic = reliability_with_loss(f, q, loss).unwrap();
    assert_close(
        lossy(f, q, loss, 15, 77).reliability,
        analytic,
        0.02,
        "lossy protocol vs bond-percolation model",
    );
}

#[test]
fn loss_equivalent_to_thinned_fanout() {
    // Poisson: losing 25% of messages ≡ gossiping with 75% of the
    // fanout. 15 conditioned replications a side; tolerance 0.025.
    let q = 0.9;
    let lossy_run = lossy(6.0, q, 0.25, 15, 5);
    let thinned = lossy(4.5, q, 0.0, 15, 6);
    assert_close(
        lossy_run.reliability,
        thinned.reliability,
        0.025,
        "loss ≡ fanout thinning",
    );
}

#[test]
fn heavy_loss_kills_gossip_at_the_predicted_point() {
    // Po(4), q = 0.9: critical loss = 1 − 1/(q·z) ≈ 0.722.
    let d = PoissonFanout::new(4.0);
    let m = PaperLaw::new(&d, 0.9, 0.0).unwrap();
    let loss_crit = m.critical_loss().unwrap();
    assert_close(loss_crit, 1.0 - 1.0 / 3.6, 1e-12, "critical loss");

    // 8 replications a side, unconditioned means: under 0.05 past the
    // critical loss, over 0.2 (fizzles averaged in) well short of it.
    let below = lossy(4.0, 0.9, loss_crit + 0.1, 8, 9);
    let raw = below.reliability_raw.unwrap();
    assert!(raw < 0.05, "past critical loss: {raw}");
    let above = lossy(4.0, 0.9, loss_crit - 0.25, 8, 10);
    let raw = above.reliability_raw.unwrap();
    assert!(raw > 0.2, "below critical loss: {raw}");
}
