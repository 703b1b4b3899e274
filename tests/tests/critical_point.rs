//! The phase transition (paper Eqs. 3/10): empirical critical points on
//! graphs and through the protocol match `q_c = 1/G1'(1)`.

use gossip_model::distribution::{FixedFanout, PoissonFanout};
use gossip_model::{Backend, FanoutSpec, PaperLaw, Scenario};
use gossip_protocol::ProtocolBackend;
use gossip_rgraph::sweep;

#[test]
fn poisson_phase_scan_finds_one_over_z() {
    let q = sweep::critical_q(&PoissonFanout::new(4.0), 20_000, 3, 1).pooled;
    assert!(
        (q - 0.25).abs() <= 0.10,
        "estimated q_c = {q}, expected ≈ 0.25"
    );
}

#[test]
fn fixed_fanout_phase_scan() {
    // Fixed(3): G1'(1) = 2 → q_c = 0.5.
    let q = sweep::critical_q(&FixedFanout::new(3), 20_000, 3, 2).pooled;
    assert!(
        (q - 0.5).abs() <= 0.10,
        "estimated q_c = {q}, expected ≈ 0.5"
    );
}

#[test]
fn protocol_reliability_collapses_below_critical() {
    // Straddle q_c = 0.25 for Po(4) with the live protocol at n = 1500.
    // Below, every run is a fizzle: none reaches the critical window
    // (nonfailed^{2/3} ≈ 42 of the ≈ 270 survivors), so nothing takes
    // off, the conditioned mean is 0 and the raw mean stays under 0.05.
    // 35 of 20 000 runs crossed the window at this point, so one of
    // these 10 does with probability ≈ 0.017. Above, at
    // q = 0.40, a run takes off with probability S ≈ 0.64 (the source's
    // surviving offspring are Po(1.6): S = 1 − e^{−1.6·S}) and then
    // reaches ≈ 0.64 of the survivors (Eq. 11), so the unconditioned
    // mean over 60 replications is ≈ 0.64·T/60 with T ~ Bin(60, 0.64):
    // it falls to 0.25 only if T ≤ 23, probability < 1e-4.
    let run = |q: f64, replications: usize, seed: u64| {
        let scenario = Scenario::new(1500, FanoutSpec::poisson(4.0))
            .with_failure_ratio(q)
            .with_replications(replications)
            .with_seed(seed);
        ProtocolBackend.evaluate(&scenario).unwrap()
    };
    let below = run(0.18, 10, 3);
    let raw = below.reliability_raw.unwrap();
    assert!(raw < 0.05, "below q_c: {raw}");
    assert_eq!(
        below.takeoff_rate,
        Some(0.0),
        "subcritical: every run fizzles"
    );
    assert_eq!(below.reliability, 0.0);
    let above = run(0.40, 60, 4);
    let raw = above.reliability_raw.unwrap();
    assert!(raw > 0.25, "above q_c: {raw}");
    assert!(above.reliability >= raw, "conditioning drops the fizzles");
}

#[test]
fn reliability_curve_inflects_at_critical_q() {
    // Along a q sweep, analytic reliability is 0 up to q_c and strictly
    // increasing after — the shape Figs. 4/5 hinge on.
    let dist = PoissonFanout::new(4.0);
    let mut last = 0.0;
    for i in 1..=20 {
        let q = i as f64 * 0.05;
        let r = PaperLaw::new(&dist, q, 0.0).unwrap().reliability().unwrap();
        if q < 0.25 {
            assert!(r < 1e-9, "pre-critical q = {q} gave R = {r}");
        } else if q > 0.30 {
            assert!(r > last, "R must strictly increase past q_c (q = {q})");
        }
        last = r;
    }
}

#[test]
fn critical_fanout_at_fixed_q() {
    // Dual reading of Eq. 10 used by Figs. 4/5: at fixed q the curves
    // lift off at f = 1/q.
    let q: f64 = 0.5;
    for &(f, expect_alive) in &[(1.5, false), (1.9, false), (2.2, true), (3.0, true)] {
        let dist = PoissonFanout::new(f);
        let r = PaperLaw::new(&dist, q, 0.0).unwrap().reliability().unwrap();
        assert_eq!(
            r > 1e-6,
            expect_alive,
            "f = {f}, q = {q}: R = {r}, expected alive = {expect_alive}"
        );
    }
}
