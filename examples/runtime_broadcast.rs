//! Live runtime walkthrough: run the paper's push protocol for real —
//! node actors on OS threads, gossip relays racing through an actual
//! transport — and check the measured reliability against the analytic
//! prediction.
//!
//! The broadcast runs twice: over the in-process channel transport
//! (deterministic replay), then over genuine loopback TCP sockets with
//! line-delimited JSON frames. Both must land on the generating-function
//! curve, which is the repo's end-to-end fidelity check: not just the
//! models of the protocol, but the *implemented* protocol, matches the
//! paper.
//!
//! ```sh
//! cargo run --release --example runtime_broadcast
//! ```

use gossip::{AnalyticBackend, Backend, FanoutSpec, RuntimeBackend, Scenario};

/// Group size: small enough for the TCP run to stay quick.
const N: usize = 64;

fn main() {
    // A harsh operating point: 10% of members crashed (q = 0.9) AND
    // 20% of messages lost in transit, Poisson(6) fanout.
    let scenario = Scenario::new(N, FanoutSpec::poisson(6.0))
        .with_failure_ratio(0.9)
        .with_loss(0.2)
        .with_replications(6);

    let model = AnalyticBackend.evaluate(&scenario).expect("valid scenario");
    println!("scenario               : {}", model.scenario);
    println!("analytic R(q, P, loss) : {:.4}", model.reliability);

    // Finite-size + Monte-Carlo slack: small groups sit a bit below the
    // n → ∞ curve, and 6 replications carry sampling noise.
    let tol = 0.15;
    for backend in [RuntimeBackend::channel(), RuntimeBackend::tcp()] {
        let live = backend.evaluate(&scenario).expect("live run completes");
        println!(
            "{:<22} : {:.4}  ({} reps, {:.1} msgs/member, {:.1} lost/run, rounds ≈ {:.1})",
            format!("live over {}", live.transport.as_deref().unwrap()),
            live.reliability,
            live.replications,
            live.messages_per_member.unwrap(),
            live.messages_lost.unwrap(),
            live.rounds.unwrap_or(0.0),
        );
        let gap = (live.reliability - model.reliability).abs();
        assert!(
            gap < tol,
            "{}: live reliability {:.4} vs analytic {:.4} (gap {gap:.4})",
            live.backend,
            live.reliability,
            model.reliability
        );
    }
    println!("\nthe running protocol lands on the paper's curve over both wires.");
}
