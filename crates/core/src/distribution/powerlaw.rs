//! Truncated power-law (zeta) fanout.
//!
//! The paper motivates arbitrary fanout distributions with "gossiping
//! tailored for different applications over various types of overlays or
//! physical topologies" (§2) — scale-free overlays being the canonical
//! case where node capacities, and hence sensible fanouts, follow a power
//! law. `P(F = k) ∝ k^{−α}` for `k ∈ [kmin, kmax]`.

use gossip_stats::alias::AliasTable;
use gossip_stats::rng::Xoshiro256StarStar;

use super::FanoutDistribution;

/// Power-law fanout `P(F = k) ∝ k^{−α}` on the inclusive support
/// `[kmin, kmax]`.
#[derive(Clone, Debug)]
pub struct PowerLawFanout {
    alpha: f64,
    kmin: usize,
    kmax: usize,
    /// Normalized pmf over `0..=kmax` (zeros below `kmin`).
    pmf: Vec<f64>,
    sampler: AliasTable,
}

impl PowerLawFanout {
    /// Creates a truncated power law with exponent `α > 0` on
    /// `[kmin, kmax]`, `1 ≤ kmin ≤ kmax`.
    pub fn new(alpha: f64, kmin: usize, kmax: usize) -> Self {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "alpha must be positive, got {alpha}"
        );
        assert!(kmin >= 1, "kmin must be >= 1 (k^-alpha undefined at 0)");
        assert!(kmin <= kmax, "need kmin <= kmax, got [{kmin}, {kmax}]");
        let mut weights = vec![0.0f64; kmax + 1];
        let mut total = 0.0;
        for (k, w) in weights.iter_mut().enumerate().take(kmax + 1).skip(kmin) {
            *w = (k as f64).powf(-alpha);
            total += *w;
        }
        let pmf: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let sampler = AliasTable::new(&pmf);
        Self {
            alpha,
            kmin,
            kmax,
            pmf,
            sampler,
        }
    }

    /// Exponent `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Support bounds `(kmin, kmax)`.
    #[inline]
    pub fn support(&self) -> (usize, usize) {
        (self.kmin, self.kmax)
    }
}

impl FanoutDistribution for PowerLawFanout {
    fn pmf(&self, k: usize) -> f64 {
        self.pmf.get(k).copied().unwrap_or(0.0)
    }

    fn truncation_point(&self, _eps: f64) -> usize {
        self.kmax
    }

    fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        self.sampler.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::invariants::check_distribution;

    #[test]
    fn invariants_hold() {
        check_distribution("PL(2.5, [1, 50])", &PowerLawFanout::new(2.5, 1, 50), 0.1);
        check_distribution("PL(1.5, [2, 30])", &PowerLawFanout::new(1.5, 2, 30), 0.1);
    }

    #[test]
    fn pmf_follows_power_law_ratios() {
        let d = PowerLawFanout::new(2.0, 1, 100);
        // p(2)/p(1) = 2^{-2} = 0.25.
        assert!((d.pmf(2) / d.pmf(1) - 0.25).abs() < 1e-12);
        // p(4)/p(2) = (4/2)^{-2} = 0.25.
        assert!((d.pmf(4) / d.pmf(2) - 0.25).abs() < 1e-12);
        assert_eq!(d.pmf(0), 0.0);
        assert_eq!(d.pmf(101), 0.0);
    }

    #[test]
    fn heavy_tail_raises_excess_degree() {
        // At the same mean, a power law has a (much) larger mean excess
        // degree than Poisson — the property that makes scale-free gossip
        // robust. Compare G1'(1).
        let pl = PowerLawFanout::new(2.2, 1, 200);
        let mean = pl.mean();
        let po = crate::distribution::PoissonFanout::new(mean);
        assert!(
            pl.g1_prime_at_one() > po.g1_prime_at_one(),
            "power law G1'(1) = {} should exceed Poisson {}",
            pl.g1_prime_at_one(),
            po.g1_prime_at_one()
        );
    }

    #[test]
    fn samples_respect_support() {
        let d = PowerLawFanout::new(2.0, 3, 12);
        let mut rng = Xoshiro256StarStar::new(21);
        for _ in 0..5_000 {
            let s = d.sample(&mut rng);
            assert!((3..=12).contains(&s), "sample {s} outside support");
        }
    }

    #[test]
    #[should_panic(expected = "kmin must be >= 1")]
    fn rejects_zero_kmin() {
        PowerLawFanout::new(2.0, 0, 10);
    }
}
