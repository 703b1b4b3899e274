//! The Lambert W function (principal real branch).
//!
//! The Poisson reliability fixed point `S = 1 − e^{−aS}` (paper Eq. 11
//! with `a = z·q`) has the closed-form solution `S = 1 + W0(−a·e^{−a})/a`
//! for `a > 1`. Having the closed form lets [`crate::poisson_case`] verify
//! the generic fixed-point solver to near machine precision — the kind of
//! cross-check MATLAB gave the paper's authors for free.

/// Principal branch `W0(x)` for `x ≥ −1/e`: the solution `w ≥ −1` of
/// `w·e^w = x`.
///
/// Halley iteration from a piecewise initial guess; converges to ~1e-15
/// in a handful of steps.
pub fn lambert_w0(x: f64) -> f64 {
    assert!(
        x >= -std::f64::consts::E.recip() - 1e-15,
        "W0 requires x >= -1/e, got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    // Initial guess.
    let mut w = if x < -0.25 {
        // Near the branch point −1/e: series in p = √(2(ex + 1)).
        let p = (2.0 * (std::f64::consts::E * x + 1.0)).max(0.0).sqrt();
        -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0
    } else if x < 1.0 {
        // Small x: W ≈ x(1 − x + 1.5x²).
        x * (1.0 - x + 1.5 * x * x)
    } else {
        // Large x: W ≈ ln x − ln ln x.
        let l = x.ln();
        l - l.ln().max(0.0)
    };
    halley(&mut w, x);
    w
}

/// Halley's method on `f(w) = w·e^w − x`.
fn halley(w: &mut f64, x: f64) {
    for _ in 0..60 {
        let ew = w.exp();
        let f = *w * ew - x;
        if f == 0.0 {
            return;
        }
        let w1 = *w + 1.0;
        let denom = ew * w1 - (*w + 2.0) * f / (2.0 * w1);
        let step = f / denom;
        *w -= step;
        if step.abs() <= 1e-16 * (1.0 + w.abs()) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defining_eq(w: f64, x: f64) -> f64 {
        (w * w.exp() - x).abs()
    }

    #[test]
    fn w0_known_values() {
        // W0(0) = 0, W0(e) = 1, W0(1) = Ω ≈ 0.567143.
        assert_eq!(lambert_w0(0.0), 0.0);
        assert!((lambert_w0(std::f64::consts::E) - 1.0).abs() < 1e-14);
        assert!((lambert_w0(1.0) - 0.567_143_290_409_783_8).abs() < 1e-14);
    }

    #[test]
    fn w0_satisfies_defining_equation() {
        for &x in &[-0.36, -0.3, -0.1, 0.001, 0.5, 2.0, 10.0, 1e6] {
            let w = lambert_w0(x);
            assert!(
                defining_eq(w, x) < 1e-12 * (1.0 + x.abs()),
                "x = {x}: residual {}",
                defining_eq(w, x)
            );
            assert!(w >= -1.0 - 1e-12, "W0 must stay above -1");
        }
    }

    #[test]
    fn w0_branch_point() {
        let x = -std::f64::consts::E.recip();
        let w = lambert_w0(x);
        assert!((w + 1.0).abs() < 1e-6, "W0(-1/e) = {w}, expected -1");
    }

    #[test]
    fn giant_component_via_w0() {
        // S = 1 + W0(−a e^{−a})/a solves S = 1 − e^{−aS}; check at a = 2.
        let a = 2.0f64;
        let s = 1.0 + lambert_w0(-a * (-a).exp()) / a;
        assert!((s - (1.0 - (-a * s).exp())).abs() < 1e-12);
        assert!((s - 0.796_812_13).abs() < 1e-6, "S(2) = {s}");
    }

    #[test]
    #[should_panic(expected = "W0 requires")]
    fn w0_rejects_below_branch_point() {
        lambert_w0(-0.5);
    }
}
