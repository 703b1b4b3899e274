//! Inverse design problems for arbitrary fanout distributions.
//!
//! The paper solves "given reliability target S and failure level q, what
//! mean fanout do I need?" in closed form for Poisson (Eq. 12). For any
//! other family the same questions are answered here by exploiting the
//! monotonicity of reliability in `q` and in the family's scale
//! parameter, using bisection over the generic law ([`crate::law`]).

use crate::distribution::FanoutDistribution;
use crate::error::ModelError;
use crate::law::{self, PaperLaw};
use crate::solver::bisect;

/// Tolerance for design-space bisections.
const DESIGN_TOL: f64 = 1e-10;

/// Smallest nonfailed ratio `q` at which `dist` still achieves
/// reliability `target_r`; the complement `1 − q` is the **maximum ratio
/// of failed nodes that can be tolerated** — the quantity the paper's
/// abstract promises to derive.
///
/// Errors with [`ModelError::Unachievable`] if even `q = 1` falls short.
pub fn min_nonfailed_ratio<D: FanoutDistribution + ?Sized>(
    dist: &D,
    target_r: f64,
) -> Result<f64, ModelError> {
    if !(target_r > 0.0 && target_r < 1.0) {
        return Err(ModelError::InvalidParameter {
            name: "target_r",
            value: target_r,
            requirement: "reliability target must lie in (0, 1)",
        });
    }
    let reliability_at = |q: f64| -> f64 {
        PaperLaw::new(dist, q, 0.0)
            .and_then(|p| p.reliability())
            .unwrap_or(0.0)
    };
    let at_one = reliability_at(1.0);
    if at_one < target_r {
        return Err(ModelError::Unachievable {
            what: "reliability target exceeds what q = 1 delivers for this distribution",
        });
    }
    // Reliability is monotone non-decreasing in q; bracket [qc, 1].
    let lo = law::critical_q(dist).unwrap_or(1.0).clamp(1e-9, 1.0);
    if reliability_at(lo) >= target_r {
        return Ok(lo);
    }
    bisect(|q| reliability_at(q) - target_r, lo, 1.0, DESIGN_TOL, 200)
}

/// Maximum tolerable failure ratio `1 − q_min` (see
/// [`min_nonfailed_ratio`]).
pub fn max_tolerable_failure<D: FanoutDistribution + ?Sized>(
    dist: &D,
    target_r: f64,
) -> Result<f64, ModelError> {
    Ok(1.0 - min_nonfailed_ratio(dist, target_r)?)
}

/// Smallest scale parameter `θ ∈ [lo, hi]` such that the distribution
/// family `family(θ)` achieves reliability `target_r` at nonfailed ratio
/// `q`.
///
/// `family` maps a scale (typically the mean fanout) to a distribution;
/// reliability must be monotone non-decreasing in `θ`, which holds for
/// every family in this crate. This is the general-`P` analogue of the
/// paper's Eq. 12.
pub fn required_scale<D, F>(
    family: F,
    q: f64,
    target_r: f64,
    lo: f64,
    hi: f64,
) -> Result<f64, ModelError>
where
    D: FanoutDistribution,
    F: Fn(f64) -> D,
{
    if !(target_r > 0.0 && target_r < 1.0) {
        return Err(ModelError::InvalidParameter {
            name: "target_r",
            value: target_r,
            requirement: "reliability target must lie in (0, 1)",
        });
    }
    let reliability_at = |theta: f64| -> Result<f64, ModelError> {
        let dist = family(theta);
        PaperLaw::new(&dist, q, 0.0)?.reliability()
    };
    if reliability_at(hi)? < target_r {
        return Err(ModelError::Unachievable {
            what: "reliability target not reachable within the scale bracket",
        });
    }
    if reliability_at(lo)? >= target_r {
        return Ok(lo);
    }
    bisect(
        |theta| reliability_at(theta).unwrap_or(0.0) - target_r,
        lo,
        hi,
        DESIGN_TOL,
        200,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{FixedFanout, GeometricFanout, PoissonFanout};
    use crate::poisson_case;

    #[test]
    fn min_q_matches_poisson_closed_form() {
        // Poisson Eq. 12 inverted for q: q_min = −ln(1−S)/(z·S).
        let z = 4.0;
        let target = 0.9;
        let d = PoissonFanout::new(z);
        let got = min_nonfailed_ratio(&d, target).unwrap();
        let expect = -(1.0f64 - target).ln() / (z * target);
        assert!(
            (got - expect).abs() < 1e-6,
            "got {got}, closed form {expect}"
        );
        // Consistency with the poisson_case helper.
        let eps = poisson_case::max_tolerable_failure(z, target).unwrap();
        assert!((got - (1.0 - eps)).abs() < 1e-6);
    }

    #[test]
    fn min_q_achieves_target() {
        let d = PoissonFanout::new(5.0);
        let q_min = min_nonfailed_ratio(&d, 0.95).unwrap();
        let r_at = PaperLaw::new(&d, q_min, 0.0)
            .unwrap()
            .reliability()
            .unwrap();
        assert!((r_at - 0.95).abs() < 1e-6, "r(q_min) = {r_at}");
        let r_above = PaperLaw::new(&d, (q_min + 0.02).min(1.0), 0.0)
            .unwrap()
            .reliability()
            .unwrap();
        assert!(r_above > 0.95);
    }

    #[test]
    fn unachievable_target_detected() {
        // Po(1.5) at q = 1 gives S ≈ 0.58; 0.9 is unreachable.
        let d = PoissonFanout::new(1.5);
        assert!(matches!(
            min_nonfailed_ratio(&d, 0.9),
            Err(ModelError::Unachievable { .. })
        ));
        // Fixed(1) never percolates at all.
        let f = FixedFanout::new(1);
        assert!(min_nonfailed_ratio(&f, 0.5).is_err());
    }

    #[test]
    fn max_tolerable_failure_complement() {
        let d = PoissonFanout::new(6.0);
        let q_min = min_nonfailed_ratio(&d, 0.9).unwrap();
        let eps = max_tolerable_failure(&d, 0.9).unwrap();
        assert!((q_min + eps - 1.0).abs() < 1e-12);
        assert!(eps > 0.0 && eps < 1.0);
    }

    #[test]
    fn required_scale_poisson_matches_eq12() {
        let q = 0.8;
        let target = 0.9;
        let z = required_scale(PoissonFanout::new, q, target, 0.1, 50.0).unwrap();
        let closed = poisson_case::mean_fanout_for(target, q).unwrap();
        assert!((z - closed).abs() < 1e-6, "bisection {z} vs Eq.12 {closed}");
    }

    #[test]
    fn required_scale_geometric_family() {
        let q = 0.9;
        let target = 0.9;
        let mean = required_scale(GeometricFanout::with_mean, q, target, 0.1, 100.0).unwrap();
        // Verify the scale actually achieves the target.
        let d = GeometricFanout::with_mean(mean);
        let r = PaperLaw::new(&d, q, 0.0).unwrap().reliability().unwrap();
        assert!((r - target).abs() < 1e-6, "r = {r} at mean = {mean}");
        // Heavy tail hurts reliability at fixed mean (more mass on fanout
        // 0 strands more nodes), so geometric needs a *larger* mean than
        // Poisson for the same target.
        let z_poisson = poisson_case::mean_fanout_for(target, q).unwrap();
        assert!(
            mean > z_poisson,
            "geometric mean {mean} should exceed Poisson {z_poisson}"
        );
    }

    #[test]
    fn required_scale_out_of_bracket() {
        assert!(matches!(
            required_scale(PoissonFanout::new, 0.5, 0.999, 0.1, 2.0),
            Err(ModelError::Unachievable { .. })
        ));
    }

    #[test]
    fn invalid_targets_rejected() {
        let d = PoissonFanout::new(3.0);
        assert!(min_nonfailed_ratio(&d, 0.0).is_err());
        assert!(min_nonfailed_ratio(&d, 1.0).is_err());
        assert!(required_scale(PoissonFanout::new, 0.5, 1.5, 0.1, 10.0).is_err());
    }
}
