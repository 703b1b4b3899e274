//! Fanout distributions and their probability generating functions.
//!
//! The paper's general gossiping algorithm (Fig. 1) lets every member draw
//! its fanout from an arbitrary distribution `P` — the authors call out
//! supporting "various fanout distributions, rather than only the Poisson
//! distribution" as a main advantage of their model. [`FanoutDistribution`]
//! is that `P`: it exposes the pmf, the generating functions
//! `G0(x) = Σ p_k x^k` and `G1(x) = G0'(x) / G0'(1)` that drive the
//! random-graph analysis, and sampling for the simulation side.
//!
//! Default trait methods evaluate everything from the pmf via truncated
//! series ([`crate::series`]); distributions with closed forms override
//! them (Poisson's `G0(x) = e^{z(x−1)}`, binomial's `(1 − p + px)^m`, …).

use gossip_stats::rng::Xoshiro256StarStar;

use crate::series;
use crate::DEFAULT_EPS;

mod binomial;
mod empirical;
mod fixed;
mod geometric;
mod mixture;
mod poisson;
mod powerlaw;
mod uniform;

pub use binomial::BinomialFanout;
pub use empirical::EmpiricalFanout;
pub use fixed::FixedFanout;
pub use geometric::GeometricFanout;
pub use mixture::MixtureFanout;
pub use poisson::PoissonFanout;
pub use powerlaw::PowerLawFanout;
pub use uniform::UniformFanout;

/// Hard cap on series truncation, to keep a buggy pmf from spinning.
pub const TRUNCATION_HARD_CAP: usize = 1 << 20;

/// A probability distribution over fanouts (non-negative integers).
///
/// Implementors must guarantee `Σ_k pmf(k) = 1` and `pmf(k) ≥ 0`. The
/// generating-function methods have series-based defaults; override them
/// when a closed form exists — the percolation solver calls `g1` inside
/// its fixed-point loop, so closed forms directly speed up the model.
pub trait FanoutDistribution: Send + Sync {
    /// Probability that a member's fanout equals `k`.
    fn pmf(&self, k: usize) -> f64;

    /// Smallest `K` such that the tail mass beyond `K` is below `eps`.
    ///
    /// Used to truncate the series defaults. Finite-support distributions
    /// return their maximum outcome.
    fn truncation_point(&self, eps: f64) -> usize {
        series::truncation_by_mass(|k| self.pmf(k), eps, TRUNCATION_HARD_CAP)
    }

    /// Mean fanout `E[F] = G0'(1)`.
    fn mean(&self) -> f64 {
        series::mean(|k| self.pmf(k), self.truncation_point(DEFAULT_EPS))
    }

    /// Generating function `G0(x) = Σ_k p_k x^k` for `x ∈ [0, 1]`.
    fn g0(&self, x: f64) -> f64 {
        series::eval_g0(|k| self.pmf(k), x, self.truncation_point(DEFAULT_EPS))
    }

    /// First derivative `G0'(x)`.
    fn g0_prime(&self, x: f64) -> f64 {
        series::eval_g0_prime(|k| self.pmf(k), x, self.truncation_point(DEFAULT_EPS))
    }

    /// Second derivative `G0''(x)`.
    fn g0_double_prime(&self, x: f64) -> f64 {
        series::eval_g0_double_prime(|k| self.pmf(k), x, self.truncation_point(DEFAULT_EPS))
    }

    /// Excess-degree generating function `G1(x) = G0'(x)/G0'(1)`.
    ///
    /// Returns 0 for distributions with zero mean (no edges at all).
    fn g1(&self, x: f64) -> f64 {
        let norm = self.g0_prime(1.0);
        if norm <= 0.0 {
            return 0.0;
        }
        self.g0_prime(x) / norm
    }

    /// `G1'(1) = G0''(1)/G0'(1)` — the mean excess degree, whose
    /// reciprocal is the paper's critical nonfailed ratio (Eq. 3).
    fn g1_prime_at_one(&self) -> f64 {
        let norm = self.g0_prime(1.0);
        if norm <= 0.0 {
            return 0.0;
        }
        self.g0_double_prime(1.0) / norm
    }

    /// Draws a random fanout.
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize;
}

/// Shared invariant checks used by the per-distribution test modules.
#[cfg(test)]
pub(crate) mod invariants {
    use super::*;

    /// Asserts the pmf sums to 1, G0(1) = 1, the two mean formulas agree,
    /// derivatives match finite differences, and sampling matches the mean;
    /// `name` labels the failure messages.
    pub fn check_distribution(name: &str, dist: &dyn FanoutDistribution, sample_tol: f64) {
        let kmax = dist.truncation_point(1e-12);
        let mass: f64 = (0..=kmax).map(|k| dist.pmf(k)).sum();
        assert!((mass - 1.0).abs() < 1e-9, "{name}: pmf mass {mass}");
        assert!(
            (dist.g0(1.0) - 1.0).abs() < 1e-9,
            "{name}: G0(1) = {}",
            dist.g0(1.0)
        );
        // Mean consistency.
        let mean_series = series::mean(|k| dist.pmf(k), kmax);
        assert!(
            (dist.mean() - mean_series).abs() < 1e-8 * (1.0 + mean_series),
            "{name}: mean {} vs series {}",
            dist.mean(),
            mean_series
        );
        assert!(
            (dist.g0_prime(1.0) - dist.mean()).abs() < 1e-8 * (1.0 + dist.mean()),
            "{name}: G0'(1) != mean"
        );
        // Finite-difference check of derivatives at an interior point.
        let x = 0.6;
        let h = 1e-6;
        let fd1 = (dist.g0(x + h) - dist.g0(x - h)) / (2.0 * h);
        assert!(
            (dist.g0_prime(x) - fd1).abs() < 1e-5 * (1.0 + fd1.abs()),
            "{name}: G0' mismatch at {x}: {} vs fd {}",
            dist.g0_prime(x),
            fd1
        );
        let fd2 = (dist.g0_prime(x + h) - dist.g0_prime(x - h)) / (2.0 * h);
        assert!(
            (dist.g0_double_prime(x) - fd2).abs() < 1e-4 * (1.0 + fd2.abs()),
            "{name}: G0'' mismatch at {x}"
        );
        // G1 normalisation.
        if dist.mean() > 0.0 {
            assert!(
                (dist.g1(1.0) - 1.0).abs() < 1e-9,
                "{name}: G1(1) = {}",
                dist.g1(1.0)
            );
        }
        // Sampling matches the analytic mean.
        let mut rng = Xoshiro256StarStar::new(0x000F_A170_u64);
        let n = 60_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += dist.sample(&mut rng) as f64;
        }
        let emp_mean = sum / n as f64;
        assert!(
            (emp_mean - dist.mean()).abs() < sample_tol,
            "{name}: empirical mean {} vs {}",
            emp_mean,
            dist.mean()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_dispatch() {
        let boxed: Box<dyn FanoutDistribution> = Box::new(PoissonFanout::new(3.0));
        assert!((boxed.mean() - 3.0).abs() < 1e-12);
        assert!((boxed.g0(1.0) - 1.0).abs() < 1e-12);
        let reference = &boxed;
        assert!((reference.g1(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reference_impl_delegates() {
        let d = FixedFanout::new(4);
        let r: &dyn FanoutDistribution = &d;
        assert_eq!(r.truncation_point(1e-9), 4);
        assert!((r.g1_prime_at_one() - 3.0).abs() < 1e-12);
        let mut rng = Xoshiro256StarStar::new(1);
        assert_eq!(r.sample(&mut rng), 4);
    }
}
