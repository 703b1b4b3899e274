//! Closed forms for the Poisson case study (paper §4.3).
//!
//! With `P = Po(z)`, `G0 = G1 = e^{z(x−1)}` and everything collapses to
//! elementary functions of the product `a = z·q`:
//!
//! * critical point `q_c = 1/z` (Eq. 10);
//! * reliability `S` solving `S = 1 − e^{−zqS}` (Eq. 11), in closed form
//!   `S = 1 + W0(−a·e^{−a})/a` via the Lambert W function;
//! * inverse design `z = −ln(1 − S)/(qS)` (Eq. 12) — the curve family of
//!   Fig. 2.
//!
//! These duplicate what [`crate::law`] computes generically; the
//! redundancy is deliberate (they cross-validate each other in the tests
//! and benches).

use crate::error::ModelError;
use crate::lambertw::lambert_w0;

/// Critical nonfailed ratio for Poisson fanout, `q_c = 1/z` (Eq. 10).
///
/// Values above 1 indicate the fanout is too small to percolate even
/// without failures. Errors for `z ≤ 0`.
pub fn critical_q(z: f64) -> Result<f64, ModelError> {
    if !(z.is_finite() && z > 0.0) {
        return Err(ModelError::InvalidParameter {
            name: "z",
            value: z,
            requirement: "mean fanout must be positive",
        });
    }
    Ok(1.0 / z)
}

/// Reliability of gossiping for Poisson fanout — the solution
/// `S ∈ [0, 1)` of `S = 1 − e^{−zqS}` (Eq. 11), via Lambert W.
///
/// Returns 0 at or below the critical point `zq ≤ 1`.
pub fn reliability(z: f64, q: f64) -> Result<f64, ModelError> {
    if !(z.is_finite() && z >= 0.0) {
        return Err(ModelError::InvalidParameter {
            name: "z",
            value: z,
            requirement: "mean fanout must be finite and >= 0",
        });
    }
    if !(q.is_finite() && q > 0.0 && q <= 1.0) {
        return Err(ModelError::InvalidParameter {
            name: "q",
            value: q,
            requirement: "nonfailed member ratio must lie in (0, 1]",
        });
    }
    let a = z * q;
    if a <= 1.0 {
        return Ok(0.0);
    }
    // S = 1 + W0(−a e^{−a})/a. For a > 1, −a·e^{−a} ∈ (−1/e, 0) and W0
    // picks the non-trivial root.
    let s = 1.0 + lambert_w0(-a * (-a).exp()) / a;
    Ok(s.clamp(0.0, 1.0))
}

/// Reliability under message loss `ℓ`: the root of
/// `R = 1 − e^{−z·(1−ℓ)·q·R}` — loss folds into the epidemic product.
pub fn reliability_with_loss(z: f64, q: f64, loss: f64) -> Result<f64, ModelError> {
    if !(loss.is_finite() && (0.0..1.0).contains(&loss)) {
        return Err(ModelError::InvalidParameter {
            name: "loss",
            value: loss,
            requirement: "message loss probability must lie in [0, 1)",
        });
    }
    reliability(z * (1.0 - loss), q)
}

/// Mean fanout needed to reach reliability `S` at nonfailed ratio `q`:
/// `z = −ln(1 − S)/(qS)` (Eq. 12) — the Fig. 2 curve family.
///
/// Requires `S ∈ (0, 1)` (the model cannot promise exactly 1 with finite
/// fanout) and `q ∈ (0, 1]`.
pub fn mean_fanout_for(s: f64, q: f64) -> Result<f64, ModelError> {
    if !(s.is_finite() && s > 0.0 && s < 1.0) {
        return Err(ModelError::InvalidParameter {
            name: "S",
            value: s,
            requirement: "target reliability must lie in (0, 1)",
        });
    }
    if !(q.is_finite() && q > 0.0 && q <= 1.0) {
        return Err(ModelError::InvalidParameter {
            name: "q",
            value: q,
            requirement: "nonfailed member ratio must lie in (0, 1]",
        });
    }
    Ok(-(1.0 - s).ln() / (q * s))
}

/// Maximum tolerable failure ratio `1 − q_min` such that Poisson-fanout
/// gossip with mean `z` still achieves reliability at least `target_s`.
///
/// Solves Eq. 12 for `q`: `q_min = −ln(1 − S)/(z·S)`. Errors if even
/// `q = 1` cannot reach the target.
pub fn max_tolerable_failure(z: f64, target_s: f64) -> Result<f64, ModelError> {
    let q_min = mean_fanout_for(target_s, 1.0)? / z;
    if !(z.is_finite() && z > 0.0) {
        return Err(ModelError::InvalidParameter {
            name: "z",
            value: z,
            requirement: "mean fanout must be positive",
        });
    }
    if q_min > 1.0 {
        return Err(ModelError::Unachievable {
            what: "reliability target exceeds what q = 1 delivers at this fanout",
        });
    }
    Ok(1.0 - q_min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::PoissonFanout;
    use crate::law::PaperLaw;

    #[test]
    fn closed_form_matches_generic_solver() {
        for &(z, q) in &[(1.5, 1.0), (2.0, 0.9), (4.0, 0.9), (6.0, 0.6), (6.7, 0.4)] {
            let closed = reliability(z, q).unwrap();
            let d = PoissonFanout::new(z);
            let generic = PaperLaw::new(&d, q, 0.0).unwrap().reliability().unwrap();
            assert!(
                (closed - generic).abs() < 1e-9,
                "z={z}, q={q}: closed {closed} vs generic {generic}"
            );
        }
    }

    #[test]
    fn paper_value_0967() {
        // §5.2: both {4.0, 0.9} and {6.0, 0.6} give R ≈ 0.967 in the
        // paper; the exact Eq. 11 root at zq = 3.6 is 0.969506.
        let r = reliability(4.0, 0.9).unwrap();
        assert!((r - 0.969_506).abs() < 1e-5, "got {r}");
        assert!((r - 0.967).abs() < 4e-3, "must stay near the paper's 0.967");
        let r2 = reliability(6.0, 0.6).unwrap();
        assert!((r - r2).abs() < 1e-12);
    }

    #[test]
    fn subcritical_is_zero() {
        assert_eq!(reliability(2.0, 0.4).unwrap(), 0.0); // zq = 0.8 < 1
        assert_eq!(reliability(1.0, 1.0).unwrap(), 0.0); // zq = 1 exactly
        assert_eq!(reliability(0.0, 1.0).unwrap(), 0.0);
    }

    #[test]
    fn eq12_inverts_eq11() {
        // mean_fanout_for(S, q) must produce z with reliability(z, q) = S.
        for &s in &[0.2, 0.5, 0.8, 0.967, 0.9999] {
            for &q in &[0.3, 0.6, 1.0] {
                let z = mean_fanout_for(s, q).unwrap();
                let back = reliability(z, q).unwrap();
                assert!(
                    (back - s).abs() < 1e-9,
                    "S={s}, q={q}: z={z}, roundtrip {back}"
                );
            }
        }
    }

    #[test]
    fn fig2_range_check() {
        // Fig. 2 caption: S ∈ [0.1111, 0.9999], q from 0.2 to 1.0, z up to
        // ~50. Endpoint check at q = 0.2, S = 0.9999:
        // z = −ln(1e−4)/(0.2·0.9999) ≈ 46.06.
        let z = mean_fanout_for(0.9999, 0.2).unwrap();
        assert!((z - 46.06).abs() < 0.05, "z = {z}");
        // And at q = 1.0, S = 0.1111 — the small-S foot of the curve:
        // z = −ln(0.8889)/0.1111 ≈ 1.06.
        let z = mean_fanout_for(0.1111, 1.0).unwrap();
        assert!((z - 1.06).abs() < 0.01, "z = {z}");
    }

    #[test]
    fn critical_point() {
        assert!((critical_q(4.0).unwrap() - 0.25).abs() < 1e-15);
        assert!(critical_q(0.0).is_err());
        assert!(critical_q(-3.0).is_err());
    }

    #[test]
    fn reliability_increases_with_fanout_and_q() {
        let r1 = reliability(2.0, 0.9).unwrap();
        let r2 = reliability(4.0, 0.9).unwrap();
        let r3 = reliability(4.0, 1.0).unwrap();
        assert!(r1 < r2 && r2 < r3);
    }

    #[test]
    fn max_tolerable_failure_roundtrip() {
        // z = 4, target 0.9: q_min = −ln(0.1)/(4·0.9) ≈ 0.6396.
        let eps = max_tolerable_failure(4.0, 0.9).unwrap();
        let q_min = 1.0 - eps;
        let r = reliability(4.0, q_min).unwrap();
        assert!(
            (r - 0.9).abs() < 1e-9,
            "at q_min reliability should hit target, got {r}"
        );
        // Slightly fewer failures → above target; more → below.
        assert!(reliability(4.0, q_min + 0.01).unwrap() > 0.9);
        assert!(reliability(4.0, q_min - 0.01).unwrap() < 0.9);
    }

    #[test]
    fn max_tolerable_failure_unachievable() {
        // Fanout 1.2 can never reach 0.99 reliability even with q = 1.
        assert!(matches!(
            max_tolerable_failure(1.2, 0.99),
            Err(ModelError::Unachievable { .. })
        ));
    }

    #[test]
    fn domain_errors() {
        assert!(reliability(-1.0, 0.5).is_err());
        assert!(reliability(2.0, 0.0).is_err());
        assert!(reliability(2.0, 1.5).is_err());
        assert!(mean_fanout_for(0.0, 0.5).is_err());
        assert!(mean_fanout_for(1.0, 0.5).is_err());
        assert!(mean_fanout_for(0.5, 0.0).is_err());
    }
}
