//! Quickstart: describe a gossip multicast group as a [`Scenario`],
//! predict its reliability under failures with the analytic backend,
//! and verify the prediction with the protocol simulation backend —
//! the same scenario value, two evaluation layers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gossip::{AnalyticBackend, Backend, FanoutSpec, ProtocolBackend, Scenario};

fn main() {
    // A 10 000-member multicast group. Each member that receives the
    // message relays it to Poisson(5)-many uniformly random members.
    // 15% of the members have crashed.
    let scenario = Scenario::new(10_000, FanoutSpec::poisson(5.0))
        .with_failure_ratio(0.85)
        .with_replications(5)
        .with_executions(4);

    let model = AnalyticBackend.evaluate(&scenario).expect("valid scenario");

    println!("scenario              : {}", model.scenario);
    println!(
        "critical q (Eq. 10)   : {:.4}  → up to {:.1}% of members may fail",
        model.critical_q.expect("percolating distribution"),
        100.0 * (1.0 - model.critical_q.unwrap())
    );

    // Question 1 (paper Eq. 11): what fraction of the surviving members
    // does one gossip execution reach?
    println!("reliability R(q, P)   : {:.4}", model.reliability);
    println!(
        "expected receivers    : {:.0} of {} nonfailed members",
        model.reliability * (scenario.n as f64) * scenario.q().unwrap(),
        ((scenario.n as f64) * scenario.q().unwrap()).round()
    );

    // Question 2 (paper Eqs. 5-6): how close to "everyone heard it"
    // do the scenario's t = 4 executions get?
    println!(
        "Pr(heard within t=4)  : {:.5}  (Eq. 5 at the analytic R)",
        model.success_within_t
    );

    // Verify against the actual protocol on the discrete-event
    // simulator — same scenario, different backend.
    let sim = ProtocolBackend.evaluate(&scenario).expect("valid scenario");
    println!(
        "simulated reliability : {:.4}  ({} runs, n = {})",
        sim.reliability, sim.replications, scenario.n
    );
    let gap = (sim.reliability - model.reliability).abs();
    println!("model-vs-sim gap      : {gap:.4}");
    assert!(gap < 0.02, "model and simulation disagree: {gap}");
    println!("\nmodel and simulation agree — the theory is in crates/core/src/lib.rs.");
}
