//! The success-of-gossiping calculus end to end (paper §4.2(2), §5.2,
//! Figs. 6/7). Executions are fresh and i.i.d., so a member's receipt
//! count over t executions is exactly `B(t, p)`, with p the member
//! receipt probability a protocol `Report` measures as
//! `reliability_raw` (see `gossip_model::reduce`): these tests hold p
//! against the directed law `S²` and Eqs. 5/6 against the protocol.

use gossip::{Backend, FanoutSpec, ProtocolBackend, Report, Scenario};
use gossip_integration_tests::assert_close;
use gossip_model::{poisson_case, success};

/// Group size for these tests: large enough for clean percolation,
/// small enough for debug-mode CI.
const N: usize = 800;

/// The §5 push experiment at `N`, Po(4), q = 0.9.
fn push(reps: usize, seed: u64) -> Report {
    let scenario = Scenario::new(N, FanoutSpec::poisson(4.0))
        .with_failure_ratio(0.9)
        .with_replications(reps)
        .with_seed(seed);
    ProtocolBackend.evaluate(&scenario).unwrap()
}

/// `S` of Eq. 11 at Po(4), q = 0.9.
fn s() -> f64 {
    poisson_case::reliability(4.0, 0.9).unwrap()
}

/// The share of `trials` seeded runs of `t` executions that reach a
/// member at least once, at receipt probability `p`.
fn hit_rate(p: f64, t: u32, trials: usize, seed: u64) -> f64 {
    1.0 - success::receipt_counts(p, t, trials, seed).pmf(0)
}

#[test]
fn member_receipt_count_is_binomial() {
    // X ~ B(t, p) with p ≈ S² (directed: take-off × membership in the
    // reachable component), not the paper's S. One execution's raw
    // reliability is ≈ S with probability ≈ S and ≈ 0 otherwise, so its
    // sd is ≈ S·√(S(1 − S)) < 0.17 and the SE at 2000 runs < 0.0038.
    // The 0.015 tolerance is 4 SE (false failure < 1e-4) and half of
    // S − S² = 0.030, so the paper's p = S fails it.
    let s = s();
    let p = push(2000, 42).reliability_raw.unwrap();
    assert_close(p, s * s, 0.015, "member receipt probability vs S²");
}

#[test]
fn eq5_success_probability_within_t() {
    let p = push(400, 7).reliability_raw.unwrap();
    // Per-member per-execution receipt probability is ≈ S² (directed).
    let directed = s() * s();
    for t in [1u32, 2, 4] {
        let measured = hit_rate(p, t, 150, 7 + t as u64);
        let predicted = success::success_probability(directed, t);
        assert_close(
            measured,
            predicted,
            0.08,
            &format!("Pr(reached within t={t})"),
        );
    }
}

#[test]
fn eq6_required_executions_suffice_in_practice() {
    // Plan t with Eq. 6 (using the directed per-member probability),
    // then check the plan empirically beats the target.
    let s = s();
    let target = 0.999;
    let t = success::required_executions(s * s, target).unwrap();
    let p = push(400, 99).reliability_raw.unwrap();
    let measured = hit_rate(p, t, 400, 99);
    assert!(
        measured >= target - 0.02,
        "t = {t} executions delivered only {measured}"
    );
}

#[test]
fn paper_worked_example_eq6() {
    // §5.2: p_r = 0.967 (paper's rounded R), p_s = 0.999 → t = 3.
    assert_eq!(success::required_executions(0.967, 0.999).unwrap(), 3);
    // With the directed per-member probability S² ≈ 0.94, t = 3 as well —
    // the paper's recommendation is robust to the refinement.
    let s = s();
    assert_eq!(success::required_executions(s * s, 0.999).unwrap(), 3);
}

#[test]
fn strict_group_success_is_rare_at_scale() {
    // The metric-definition finding: with ≈720 nonfailed members and
    // R < 1, P(every member reached in one execution) ≈ 0 — the strict
    // reading of §4.2's S(q, P, t) cannot be what Figs. 6/7 plot.
    let rate = push(100, 3).complete_rate.unwrap();
    assert!(rate < 0.1, "strict success should be rare: {rate}");
}
