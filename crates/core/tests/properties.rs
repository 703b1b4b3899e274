//! Property-based tests on the analytical model's invariants.

use gossip_model::distribution::{
    BinomialFanout, EmpiricalFanout, FanoutDistribution, GeometricFanout, PoissonFanout,
    UniformFanout,
};
use gossip_model::{design, law, poisson_case, success, PaperLaw};
use proptest::prelude::*;

proptest! {
    /// Reliability always lies in [0, 1] and satisfies the Eq. 11 fixed
    /// point for Poisson fanouts.
    #[test]
    fn poisson_reliability_is_valid_fixed_point(
        z in 0.1f64..12.0,
        q in 0.05f64..1.0,
    ) {
        let d = PoissonFanout::new(z);
        let r = PaperLaw::new(&d, q, 0.0).unwrap().reliability().unwrap();
        prop_assert!((0.0..=1.0).contains(&r));
        if z * q > 1.0 + 1e-6 {
            // Supercritical: R solves S = 1 − e^{−zqS} with S > 0.
            let rhs = 1.0 - (-z * q * r).exp();
            prop_assert!((r - rhs).abs() < 1e-7, "residual {} at z={z}, q={q}", (r - rhs).abs());
        } else if z * q < 1.0 - 1e-6 {
            prop_assert!(r < 1e-6, "subcritical must give 0, got {r}");
        }
    }

    /// Reliability is monotone non-decreasing in q.
    #[test]
    fn reliability_monotone_in_q(
        z in 1.2f64..10.0,
        q in 0.1f64..0.95,
        dq in 0.01f64..0.05,
    ) {
        let d = PoissonFanout::new(z);
        let r1 = PaperLaw::new(&d, q, 0.0).unwrap().reliability().unwrap();
        let r2 = PaperLaw::new(&d, (q + dq).min(1.0), 0.0).unwrap().reliability().unwrap();
        prop_assert!(r2 >= r1 - 1e-9, "R({}) = {r2} < R({q}) = {r1}", q + dq);
    }

    /// The closed-form Lambert-W solution agrees with the generic
    /// fixed-point solver everywhere.
    #[test]
    fn closed_form_matches_generic(
        z in 0.2f64..15.0,
        q in 0.05f64..1.0,
    ) {
        let closed = poisson_case::reliability(z, q).unwrap();
        let d = PoissonFanout::new(z);
        let generic = PaperLaw::new(&d, q, 0.0).unwrap().reliability().unwrap();
        prop_assert!((closed - generic).abs() < 1e-7,
            "z={z}, q={q}: closed {closed} vs generic {generic}");
    }

    /// Eq. 12 inverts Eq. 11: designing a fanout for target S then
    /// evaluating reliability at that fanout recovers S.
    #[test]
    fn eq12_roundtrip(
        s in 0.05f64..0.995,
        q in 0.1f64..1.0,
    ) {
        let z = poisson_case::mean_fanout_for(s, q).unwrap();
        let back = poisson_case::reliability(z, q).unwrap();
        prop_assert!((back - s).abs() < 1e-7, "S={s}, q={q} → z={z} → {back}");
    }

    /// Eq. 6 always meets its target with the minimal t.
    #[test]
    fn required_executions_meets_target(
        pr in 0.01f64..0.999,
        ps in 0.01f64..0.9999,
    ) {
        let t = success::required_executions(pr, ps).unwrap();
        prop_assert!(success::success_probability(pr, t) >= ps - 1e-12);
        if t > 1 {
            prop_assert!(success::success_probability(pr, t - 1) < ps + 1e-12);
        }
    }

    /// Generating-function sanity for arbitrary empirical tables:
    /// G0(1) = 1, G0 monotone on [0,1], G1(1) = 1 when mean > 0.
    #[test]
    fn empirical_generating_functions(
        weights in proptest::collection::vec(0.0f64..10.0, 2..12),
        x in 0.0f64..1.0,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.1);
        let d = EmpiricalFanout::new(&weights);
        prop_assert!((d.g0(1.0) - 1.0).abs() < 1e-9);
        prop_assert!(d.g0(x) <= 1.0 + 1e-12);
        prop_assert!(d.g0(x) >= 0.0);
        if d.mean() > 1e-9 {
            prop_assert!((d.g1(1.0) - 1.0).abs() < 1e-9);
        }
    }

    /// The critical ratio matches 1/G1'(1) across distribution families.
    #[test]
    fn critical_point_families(m in 2usize..40, p in 0.05f64..0.95) {
        let b = BinomialFanout::new(m, p);
        if let Some(qc) = law::critical_q(&b) {
            let expect = 1.0 / ((m - 1) as f64 * p);
            prop_assert!((qc - expect).abs() < 1e-9);
        }
    }

    /// Reliability of any supported family responds monotonically to its
    /// scale parameter (used by the design bisection).
    #[test]
    fn reliability_monotone_in_scale(mean in 1.5f64..8.0, q in 0.5f64..1.0) {
        let lo = GeometricFanout::with_mean(mean);
        let hi = GeometricFanout::with_mean(mean + 1.0);
        let r_lo = PaperLaw::new(&lo, q, 0.0).unwrap().reliability().unwrap();
        let r_hi = PaperLaw::new(&hi, q, 0.0).unwrap().reliability().unwrap();
        prop_assert!(r_hi >= r_lo - 1e-9);
    }

    /// design::min_nonfailed_ratio returns a q that achieves the target
    /// (when achievable).
    #[test]
    fn design_min_q_achieves(z in 2.5f64..10.0, target in 0.2f64..0.9) {
        let d = PoissonFanout::new(z);
        if let Ok(q_min) = design::min_nonfailed_ratio(&d, target) {
            let r = PaperLaw::new(&d, q_min, 0.0).unwrap().reliability().unwrap();
            prop_assert!(r >= target - 1e-4, "r({q_min}) = {r} < {target}");
        }
    }

    /// Uniform fanout: percolation results are invariant to representing
    /// the same pmf as UniformFanout or EmpiricalFanout.
    #[test]
    fn representation_invariance(lo in 1usize..4, span in 0usize..5, q in 0.3f64..1.0) {
        let hi = lo + span;
        let u = UniformFanout::new(lo, hi);
        let mut w = vec![0.0; hi + 1];
        for slot in w.iter_mut().take(hi + 1).skip(lo) {
            *slot = 1.0;
        }
        let e = EmpiricalFanout::new(&w);
        let ru = PaperLaw::new(&u, q, 0.0).unwrap().reliability().unwrap();
        let re = PaperLaw::new(&e, q, 0.0).unwrap().reliability().unwrap();
        prop_assert!((ru - re).abs() < 1e-8, "uniform {ru} vs empirical {re}");
    }
}
