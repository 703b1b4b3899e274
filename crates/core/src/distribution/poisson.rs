//! Poisson fanout — the paper's case-study distribution (§4.3).

use gossip_stats::poisson::Poisson;
use gossip_stats::rng::Xoshiro256StarStar;

use super::FanoutDistribution;

/// Poisson-distributed fanout `Po(z)` with mean `z`.
///
/// Closed forms: `G0(x) = G1(x) = e^{z(x−1)}` (paper Eqs. 8–9), so the
/// critical nonfailed ratio is `q_c = 1/z` (Eq. 10) and the reliability
/// solves `S = 1 − e^{−zqS}` (Eq. 11).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PoissonFanout {
    z: f64,
    inner: Poisson,
}

impl PoissonFanout {
    /// Creates a Poisson fanout with mean `z ≥ 0`.
    pub fn new(z: f64) -> Self {
        Self {
            z,
            inner: Poisson::new(z),
        }
    }

    /// The mean fanout `z`.
    #[inline]
    pub fn z(&self) -> f64 {
        self.z
    }
}

impl FanoutDistribution for PoissonFanout {
    fn pmf(&self, k: usize) -> f64 {
        self.inner.pmf(k as u64)
    }

    fn truncation_point(&self, eps: f64) -> usize {
        self.inner.truncation_point(eps) as usize
    }

    fn mean(&self) -> f64 {
        self.z
    }

    fn g0(&self, x: f64) -> f64 {
        (self.z * (x - 1.0)).exp()
    }

    fn g0_prime(&self, x: f64) -> f64 {
        self.z * (self.z * (x - 1.0)).exp()
    }

    fn g0_double_prime(&self, x: f64) -> f64 {
        self.z * self.z * (self.z * (x - 1.0)).exp()
    }

    fn g1(&self, x: f64) -> f64 {
        // G1 = G0'/G0'(1) = e^{z(x−1)} — the hallmark of the Poisson case.
        (self.z * (x - 1.0)).exp()
    }

    fn g1_prime_at_one(&self) -> f64 {
        self.z
    }

    fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        self.inner.sample(rng) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::invariants::check_distribution;

    #[test]
    fn invariants_hold() {
        for &z in &[0.5, 1.1, 4.0, 6.7] {
            check_distribution(&format!("Po({z})"), &PoissonFanout::new(z), 0.05);
        }
    }

    #[test]
    fn closed_forms_match_series_defaults() {
        let d = PoissonFanout::new(4.0);
        let kmax = d.truncation_point(1e-14);
        for &x in &[0.0, 0.3, 0.7, 1.0] {
            let series_g0 = crate::series::eval_g0(|k| d.pmf(k), x, kmax);
            assert!(
                (d.g0(x) - series_g0).abs() < 1e-10,
                "x={x}: {} vs {}",
                d.g0(x),
                series_g0
            );
            let series_g0p = crate::series::eval_g0_prime(|k| d.pmf(k), x, kmax);
            assert!((d.g0_prime(x) - series_g0p).abs() < 1e-9);
        }
    }

    #[test]
    fn g1_equals_g0() {
        let d = PoissonFanout::new(2.5);
        for &x in &[0.1, 0.5, 0.9] {
            assert!((d.g1(x) - d.g0(x)).abs() < 1e-15);
        }
        assert!((d.g1_prime_at_one() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn zero_mean_degenerate() {
        let d = PoissonFanout::new(0.0);
        assert_eq!(d.pmf(0), 1.0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.g1(0.5), 1.0); // e^0 — closed form, consistent limit
        let mut rng = Xoshiro256StarStar::new(1);
        assert_eq!(d.sample(&mut rng), 0);
    }
}
