//! Binomial fanout `B(m, p)`.
//!
//! Natural when each member holds a view of `m` candidates and gossips to
//! each independently with probability `p` — the per-link-probability
//! style of gossip used e.g. by probabilistic flooding. Closed forms:
//! `G0(x) = (1 − p + px)^m`, `G1(x) = (1 − p + px)^{m−1}`.

use gossip_stats::binomial::Binomial;
use gossip_stats::rng::Xoshiro256StarStar;

use super::FanoutDistribution;

/// Binomially distributed fanout with `m` trials and per-trial probability
/// `p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinomialFanout {
    m: usize,
    p: f64,
    inner: Binomial,
}

impl BinomialFanout {
    /// Creates `B(m, p)`. Panics if `p ∉ [0, 1]`.
    pub fn new(m: usize, p: f64) -> Self {
        Self {
            m,
            p,
            inner: Binomial::new(m as u64, p),
        }
    }

    /// Number of trials (view size).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Per-trial gossip probability.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl FanoutDistribution for BinomialFanout {
    fn pmf(&self, k: usize) -> f64 {
        self.inner.pmf(k as u64)
    }

    fn truncation_point(&self, _eps: f64) -> usize {
        self.m
    }

    fn mean(&self) -> f64 {
        self.m as f64 * self.p
    }

    fn g0(&self, x: f64) -> f64 {
        (1.0 - self.p + self.p * x).powi(self.m as i32)
    }

    fn g0_prime(&self, x: f64) -> f64 {
        if self.m == 0 {
            return 0.0;
        }
        self.m as f64 * self.p * (1.0 - self.p + self.p * x).powi(self.m as i32 - 1)
    }

    fn g0_double_prime(&self, x: f64) -> f64 {
        if self.m < 2 {
            return 0.0;
        }
        (self.m * (self.m - 1)) as f64
            * self.p
            * self.p
            * (1.0 - self.p + self.p * x).powi(self.m as i32 - 2)
    }

    fn g1(&self, x: f64) -> f64 {
        if self.m == 0 || self.p == 0.0 {
            return 0.0;
        }
        (1.0 - self.p + self.p * x).powi(self.m as i32 - 1)
    }

    fn g1_prime_at_one(&self) -> f64 {
        if self.m == 0 {
            return 0.0;
        }
        (self.m - 1) as f64 * self.p
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
        check_distribution("Bin(10, 0.4)", &BinomialFanout::new(10, 0.4), 0.05);
        check_distribution("Bin(50, 0.08)", &BinomialFanout::new(50, 0.08), 0.05);
        check_distribution("Bin(3, 1)", &BinomialFanout::new(3, 1.0), 1e-9);
    }

    #[test]
    fn closed_forms_match_series() {
        let d = BinomialFanout::new(12, 0.3);
        let kmax = 12;
        for &x in &[0.0, 0.4, 1.0] {
            let s = crate::series::eval_g0(|k| d.pmf(k), x, kmax);
            assert!((d.g0(x) - s).abs() < 1e-12, "x = {x}");
            let sp = crate::series::eval_g0_prime(|k| d.pmf(k), x, kmax);
            assert!((d.g0_prime(x) - sp).abs() < 1e-11, "x = {x}");
        }
        assert!((d.g1_prime_at_one() - 11.0 * 0.3).abs() < 1e-12);
    }

    #[test]
    fn poisson_limit() {
        // B(m, z/m) → Po(z) as m grows: generating functions converge.
        let z = 3.0;
        let b = BinomialFanout::new(3000, z / 3000.0);
        let p = crate::distribution::PoissonFanout::new(z);
        for &x in &[0.2, 0.6, 0.9] {
            assert!(
                (b.g0(x) - p.g0(x)).abs() < 1e-3,
                "x = {x}: {} vs {}",
                b.g0(x),
                p.g0(x)
            );
        }
    }

    #[test]
    fn degenerate_m_zero() {
        let d = BinomialFanout::new(0, 0.5);
        assert_eq!(d.pmf(0), 1.0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.g1(0.5), 0.0);
    }
}
