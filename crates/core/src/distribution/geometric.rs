//! Geometric fanout on `{0, 1, 2, …}`.
//!
//! Models "gossip until you lose interest" relaying: after each send the
//! member continues with probability `1 − p`. Heavier-tailed than Poisson
//! at the same mean, which makes it a useful stress case for the model's
//! claim to handle arbitrary fanout distributions. Closed forms:
//! `G0(x) = p / (1 − (1 − p)x)`.

use gossip_stats::rng::Xoshiro256StarStar;

use super::FanoutDistribution;

/// Geometric fanout: `P(F = k) = p(1 − p)^k`, mean `(1 − p)/p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeometricFanout {
    p: f64,
}

impl GeometricFanout {
    /// Creates a geometric fanout with stop probability `p ∈ (0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0 && p.is_finite(),
            "geometric stop probability must be in (0, 1], got {p}"
        );
        Self { p }
    }

    /// Creates a geometric fanout with the given mean `(1 − p)/p`.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean >= 0.0 && mean.is_finite(),
            "geometric mean must be finite and >= 0, got {mean}"
        );
        Self::new(1.0 / (mean + 1.0))
    }

    /// Stop probability `p`.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl FanoutDistribution for GeometricFanout {
    fn pmf(&self, k: usize) -> f64 {
        self.p * (1.0 - self.p).powi(k as i32)
    }

    fn truncation_point(&self, eps: f64) -> usize {
        // Tail after K is (1 − p)^{K+1}.
        if self.p >= 1.0 {
            return 0;
        }
        let k = (eps.ln() / (1.0 - self.p).ln()).ceil();
        k.max(0.0) as usize
    }

    fn mean(&self) -> f64 {
        (1.0 - self.p) / self.p
    }

    fn g0(&self, x: f64) -> f64 {
        self.p / (1.0 - (1.0 - self.p) * x)
    }

    fn g0_prime(&self, x: f64) -> f64 {
        let r = 1.0 - self.p;
        let d = 1.0 - r * x;
        self.p * r / (d * d)
    }

    fn g0_double_prime(&self, x: f64) -> f64 {
        let r = 1.0 - self.p;
        let d = 1.0 - r * x;
        2.0 * self.p * r * r / (d * d * d)
    }

    fn g1_prime_at_one(&self) -> f64 {
        // G0''(1)/G0'(1) = 2(1 − p)/p.
        2.0 * (1.0 - self.p) / self.p
    }

    fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        // Inversion: K = floor(ln U / ln(1 − p)).
        if self.p >= 1.0 {
            return 0;
        }
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - self.p).ln()).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::invariants::check_distribution;

    #[test]
    fn invariants_hold() {
        check_distribution("Geom(p=0.5)", &GeometricFanout::new(0.5), 0.05);
        check_distribution("Geom(mean 4)", &GeometricFanout::with_mean(4.0), 0.1);
    }

    #[test]
    fn with_mean_roundtrip() {
        for &m in &[0.0, 1.0, 3.5, 10.0] {
            let d = GeometricFanout::with_mean(m);
            assert!((d.mean() - m).abs() < 1e-12, "mean {m}: got {}", d.mean());
        }
    }

    #[test]
    fn closed_forms_match_series() {
        let d = GeometricFanout::new(0.3);
        let kmax = d.truncation_point(1e-14);
        for &x in &[0.0, 0.5, 0.9] {
            let s = crate::series::eval_g0(|k| d.pmf(k), x, kmax);
            assert!((d.g0(x) - s).abs() < 1e-10, "x = {x}");
            let sp = crate::series::eval_g0_prime(|k| d.pmf(k), x, kmax);
            assert!((d.g0_prime(x) - sp).abs() < 1e-9, "x = {x}");
            let spp = crate::series::eval_g0_double_prime(|k| d.pmf(k), x, kmax);
            assert!((d.g0_double_prime(x) - spp).abs() < 1e-8, "x = {x}");
        }
    }

    #[test]
    fn excess_degree_formula() {
        let d = GeometricFanout::new(0.25);
        assert!((d.g1_prime_at_one() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_p_one() {
        let d = GeometricFanout::new(1.0);
        assert_eq!(d.pmf(0), 1.0);
        assert_eq!(d.mean(), 0.0);
        let mut rng = Xoshiro256StarStar::new(2);
        assert_eq!(d.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "stop probability")]
    fn rejects_zero_p() {
        GeometricFanout::new(0.0);
    }
}
