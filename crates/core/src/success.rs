//! The success-of-gossiping calculus (paper §4.2(2), Eqs. 5–6).
//!
//! One execution of the gossip algorithm reaches a given nonfailed member
//! with probability `p_r = R(q, P)`. The paper treats `t` repeated,
//! independent executions as Bernoulli trials: the number of executions
//! in which the member receives the message is `X ~ B(t, p_r)`, so
//!
//! * `Pr(member reached at least once) = P(X ≥ 1) = 1 − (1 − p_r)^t`
//!   (Eq. 5), and
//! * to push that above a target `p_s`, run
//!   `t ≥ lg(1 − p_s) / lg(1 − p_r)` executions (Eq. 6).
//!
//! Figures 6/7 use the same distribution at the *group* level: a
//! simulation of 20 executions succeeds `X` times with `X ~ B(20, p_r)`.

use gossip_stats::binomial::Binomial;
use gossip_stats::histogram::IntHistogram;
use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};

use crate::error::ModelError;

/// Probability that a member is reached at least once across `t`
/// independent executions, `1 − (1 − p_r)^t` (paper Eq. 5), for every
/// `t` a `u32` holds.
pub fn success_probability(p_r: f64, t: u32) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p_r),
        "per-execution reliability must be in [0,1], got {p_r}"
    );
    // `powi` takes an i32; past i32::MAX the exponent goes to `powf`.
    let miss = match i32::try_from(t) {
        Ok(t) => (1.0 - p_r).powi(t),
        Err(_) => (1.0 - p_r).powf(f64::from(t)),
    };
    1.0 - miss
}

/// Minimum number of executions `t` with `1 − (1 − p_r)^t ≥ p_s`
/// (paper Eq. 6: `t ≥ lg(1 − p_s)/lg(1 − p_r)`).
///
/// Errors when `p_r = 0` (no execution ever succeeds) while `p_s > 0`.
pub fn required_executions(p_r: f64, p_s: f64) -> Result<u32, ModelError> {
    if !(0.0..=1.0).contains(&p_r) || !p_r.is_finite() {
        return Err(ModelError::InvalidParameter {
            name: "p_r",
            value: p_r,
            requirement: "per-execution reliability must lie in [0, 1]",
        });
    }
    if !(0.0..1.0).contains(&p_s) || !p_s.is_finite() {
        return Err(ModelError::InvalidParameter {
            name: "p_s",
            value: p_s,
            requirement: "success target must lie in [0, 1)",
        });
    }
    if p_s == 0.0 {
        return Ok(0);
    }
    if p_r == 0.0 {
        return Err(ModelError::Unachievable {
            what: "success target with zero per-execution reliability",
        });
    }
    if p_r == 1.0 {
        return Ok(1);
    }
    let t = (1.0 - p_s).ln() / (1.0 - p_r).ln();
    // Guard the ceil against floating-point overshoot at integer t.
    let t_ceil = t.ceil();
    let t_int = if (t_ceil - t) > 1.0 - 1e-9 && success_probability(p_r, (t_ceil as u32) - 1) >= p_s
    {
        t_ceil as u32 - 1
    } else {
        t_ceil as u32
    };
    Ok(t_int.max(1))
}

/// The distribution of the success count `X` over `t` executions:
/// `X ~ B(t, p_r)` — the analysis curve drawn in Figs. 6 and 7.
pub fn success_count_distribution(t: u32, p_r: f64) -> Binomial {
    Binomial::new(t as u64, p_r)
}

/// A seeded sample of the Figs. 6/7 histogram: `sims` simulations of
/// `t` executions each, recording `X ~ B(t, p)`. Executions are fresh
/// and i.i.d., so with `p` a member's per-execution receipt probability
/// (a `Report`'s `reliability_raw`, see [`crate::reduce`]) this is the
/// measured histogram in law. Simulation i draws from `derive(seed, i)`
/// and, for `t ≤ 64`, runs its executions as Bernoulli draws in order:
/// a shorter `t` observes a prefix of a longer one.
pub fn receipt_counts(p: f64, t: u32, sims: usize, seed: u64) -> IntHistogram {
    let law = success_count_distribution(t, p);
    let draw = |sim| law.sample(&mut Xoshiro256StarStar::new(SplitMix64::derive(seed, sim)));
    IntHistogram::from_samples(t as usize, (0..sims as u64).map(draw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq5_basic_values() {
        assert_eq!(success_probability(0.5, 1), 0.5);
        assert!((success_probability(0.5, 2) - 0.75).abs() < 1e-15);
        assert_eq!(success_probability(0.0, 10), 0.0);
        assert_eq!(success_probability(1.0, 1), 1.0);
        assert_eq!(success_probability(0.7, 0), 0.0);
    }

    #[test]
    fn eq5_holds_past_i32_max() {
        // The exponent once wrapped to a negative i32 (2^31 gave −inf at
        // p_r = 0.5, u32::MAX gave −1). At p_r = 1e-10 the miss term is
        // still far from 0, so the value checks the exponent itself.
        let p: f64 = 1e-10;
        for t in [i32::MAX as u32, 1 << 31, u32::MAX] {
            assert_eq!(success_probability(0.5, t), 1.0);
            let want = 1.0 - (f64::from(t) * (1.0 - p).ln()).exp();
            let got = success_probability(p, t);
            assert!((got - want).abs() < 1e-9, "t = {t}: {got} vs {want}");
        }
    }

    #[test]
    fn paper_worked_example() {
        // §5.2: p_r = 0.967, p_s = 0.999 → "t should be greater than
        // three", i.e. t = 3 suffices: 1 − 0.033³ ≈ 0.999964 ≥ 0.999.
        let t = required_executions(0.967, 0.999).unwrap();
        assert_eq!(t, 3);
        assert!(success_probability(0.967, 3) >= 0.999);
        assert!(success_probability(0.967, 2) < 0.999);
    }

    #[test]
    fn fig3_series_shape() {
        // Fig. 3: required t vs reliability S at p_s = 0.999; t decreases
        // with S and reaches 1 only at very high S.
        let mut prev = u32::MAX;
        for &s in &[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.999] {
            let t = required_executions(s, 0.999).unwrap();
            assert!(t <= prev, "t must be non-increasing in S");
            prev = t;
        }
        // Known endpoints: S = 0.2 → t = lg(0.001)/lg(0.8) ≈ 30.9 → 31.
        assert_eq!(required_executions(0.2, 0.999).unwrap(), 31);
        assert_eq!(required_executions(0.999, 0.999).unwrap(), 1);
    }

    #[test]
    fn required_executions_edges() {
        assert_eq!(required_executions(0.5, 0.0).unwrap(), 0);
        assert_eq!(required_executions(1.0, 0.9).unwrap(), 1);
        assert!(required_executions(0.0, 0.9).is_err());
        assert!(required_executions(-0.1, 0.9).is_err());
        assert!(required_executions(0.5, 1.0).is_err());
    }

    #[test]
    fn required_executions_achieves_target() {
        for &pr in &[0.1, 0.3, 0.6, 0.9, 0.967] {
            for &ps in &[0.5, 0.9, 0.99, 0.999, 0.99999] {
                let t = required_executions(pr, ps).unwrap();
                assert!(
                    success_probability(pr, t) >= ps - 1e-12,
                    "t = {t} misses target: pr={pr}, ps={ps}"
                );
                if t > 1 {
                    assert!(
                        success_probability(pr, t - 1) < ps,
                        "t = {t} not minimal: pr={pr}, ps={ps}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_integer_boundary() {
        // p_r = 0.9, p_s = 0.99: t = ln(0.01)/ln(0.1) = 2 exactly.
        let t = required_executions(0.9, 0.99).unwrap();
        assert_eq!(t, 2);
        assert!(success_probability(0.9, 2) >= 0.99);
    }

    #[test]
    fn success_count_distribution_matches_eq5() {
        let b = success_count_distribution(20, 0.967);
        // P(X >= 1) must equal Eq. 5.
        assert!((b.sf(1) - success_probability(0.967, 20)).abs() < 1e-12);
        assert_eq!(b.n(), 20);
    }
}
