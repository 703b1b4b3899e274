//! The Kermarrec–Massoulié–Ganesh success criterion (paper §2,
//! reference \[6\] — the "Microsoft model").
//!
//! In the `ζ(n, p_n)` random-graph model where every member gossips to
//! each other member independently with probability `p_n`, taking
//! `p_n = (ln n + c + o(1))/n` (i.e. mean fanout `ln n + c`) gives
//!
//! ```text
//! Pr(success of gossiping) → e^{−e^{−c}}    as n → ∞,
//! ```
//!
//! where *success* means **every** member receives the message. With a
//! crashed fraction `ε`, the same law holds on the `n' = (1 − ε)n`
//! survivors. The paper's critique (§2): this answers only the
//! all-or-nothing question — "we still need to know the probability that
//! one node receives the message" — which is exactly what its
//! giant-component reliability adds. E13 races this criterion against
//! measured whole-group success.

/// Success probability `e^{−e^{−c}}` for mean fanout `ln n' + c` over
/// `n'` nonfailed members.
pub fn success_probability(n_nonfailed: usize, mean_fanout: f64) -> f64 {
    assert!(n_nonfailed >= 2, "need at least 2 nonfailed members");
    assert!(
        mean_fanout >= 0.0 && mean_fanout.is_finite(),
        "fanout must be finite and >= 0"
    );
    let c = mean_fanout - (n_nonfailed as f64).ln();
    (-(-c).exp()).exp()
}

/// The `c` offset achieving the given asymptotic success probability:
/// `c = −ln(−ln p)`.
fn offset_for(target_p: f64) -> f64 {
    assert!(
        target_p > 0.0 && target_p < 1.0,
        "target probability must be in (0, 1), got {target_p}"
    );
    -(-target_p.ln()).ln()
}

/// Mean fanout required for the given success probability over
/// `n_nonfailed` survivors: `ln n' − ln(−ln p)` (the paper's §2
/// restatement: with failed proportion ε, use `n' = (1 − ε)n`).
pub fn required_fanout(n_nonfailed: usize, target_p: f64) -> f64 {
    assert!(n_nonfailed >= 2, "need at least 2 nonfailed members");
    (n_nonfailed as f64).ln() + offset_for(target_p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gumbel_law_reference_points() {
        // c = 0 → e^{−1} ≈ 0.3679; large c → 1; very negative c → 0.
        let n = 1000;
        let ln_n = (n as f64).ln();
        let p0 = success_probability(n, ln_n);
        assert!((p0 - 0.367_879).abs() < 1e-5, "c=0 gives {p0}");
        assert!(success_probability(n, ln_n + 6.0) > 0.997);
        assert!(success_probability(n, ln_n - 3.0) < 1e-8);
    }

    #[test]
    fn success_probability_monotone_in_fanout() {
        let n = 5000;
        let mut last = 0.0;
        for i in 0..40 {
            let f = i as f64 * 0.5;
            let p = success_probability(n, f);
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn required_fanout_roundtrip() {
        for &p in &[0.1, 0.5, 0.9, 0.999] {
            for &n in &[100usize, 10_000] {
                let f = required_fanout(n, p);
                let back = success_probability(n, f);
                assert!((back - p).abs() < 1e-12, "n={n}, p={p}: roundtrip {back}");
            }
        }
    }

    #[test]
    fn offsets() {
        // p = e^{−e^{0}} = e^{−1} ⇒ c = 0.
        assert!(offset_for((-1.0f64).exp()).abs() < 1e-12);
        // 0.999 needs c ≈ 6.9.
        let c = offset_for(0.999);
        assert!((c - 6.907).abs() < 1e-3, "c = {c}");
    }

    #[test]
    fn failure_adjustment_matches_paper_restatement() {
        // §2: with failed proportion ε, success holds w.p. e^{−e^{−c}}
        // if p'_n = [ln n' + c]/n' — i.e. fanout relative to survivors.
        let n = 10_000;
        let eps = 0.3;
        let survivors = ((1.0 - eps) * n as f64) as usize;
        let f = required_fanout(survivors, 0.99);
        assert!(f > required_fanout(survivors, 0.9));
        assert!((success_probability(survivors, f) - 0.99).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "target probability")]
    fn rejects_certainty() {
        required_fanout(100, 1.0);
    }
}
