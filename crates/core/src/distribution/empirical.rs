//! Empirical fanout from an explicit probability table.
//!
//! The escape hatch that makes the model's "arbitrary distribution" claim
//! literal: hand it any finite pmf — e.g. fanouts measured from a deployed
//! system's logs — and the full analysis applies.

use gossip_stats::alias::AliasTable;
use gossip_stats::rng::Xoshiro256StarStar;

use super::FanoutDistribution;

/// Fanout distribution given by an explicit table: outcome `k` has
/// probability `weights[k] / Σ weights`.
#[derive(Clone, Debug)]
pub struct EmpiricalFanout {
    pmf: Vec<f64>,
    sampler: AliasTable,
}

impl EmpiricalFanout {
    /// Builds the distribution from non-negative (not necessarily
    /// normalized) weights indexed by outcome. Panics on empty input,
    /// negative weights, or zero total mass.
    pub fn new(weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "empirical fanout needs positive total weight"
        );
        let pmf: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let sampler = AliasTable::new(&pmf);
        Self { pmf, sampler }
    }

    /// Builds the distribution from observed fanout samples.
    pub fn from_samples(samples: &[usize]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        let max = *samples.iter().max().expect("non-empty");
        let mut weights = vec![0.0f64; max + 1];
        for &s in samples {
            weights[s] += 1.0;
        }
        Self::new(&weights)
    }

    /// The normalized pmf table.
    pub fn probabilities(&self) -> &[f64] {
        &self.pmf
    }
}

impl FanoutDistribution for EmpiricalFanout {
    fn pmf(&self, k: usize) -> f64 {
        self.pmf.get(k).copied().unwrap_or(0.0)
    }

    fn truncation_point(&self, _eps: f64) -> usize {
        self.pmf.len() - 1
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
        check_distribution(
            "Empirical(4)",
            &EmpiricalFanout::new(&[0.0, 0.2, 0.5, 0.3]),
            0.05,
        );
        check_distribution(
            "Empirical(5)",
            &EmpiricalFanout::new(&[1.0, 1.0, 1.0, 1.0, 1.0]),
            0.05,
        );
    }

    #[test]
    fn normalizes_weights() {
        let d = EmpiricalFanout::new(&[2.0, 6.0, 2.0]);
        assert!((d.pmf(0) - 0.2).abs() < 1e-15);
        assert!((d.pmf(1) - 0.6).abs() < 1e-15);
        assert!((d.pmf(2) - 0.2).abs() < 1e-15);
        assert_eq!(d.pmf(3), 0.0);
        assert!((d.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_samples_matches_frequencies() {
        let samples = [1usize, 1, 2, 2, 2, 5];
        let d = EmpiricalFanout::from_samples(&samples);
        assert!((d.pmf(1) - 2.0 / 6.0).abs() < 1e-15);
        assert!((d.pmf(2) - 3.0 / 6.0).abs() < 1e-15);
        assert!((d.pmf(5) - 1.0 / 6.0).abs() < 1e-15);
        assert_eq!(d.pmf(0), 0.0);
        assert_eq!(d.truncation_point(1e-9), 5);
    }

    #[test]
    fn matches_paper_style_mixed_table() {
        // A bimodal fanout: half the nodes relay to 1, half to 8 — mean 4.5
        // but very different percolation behaviour than Po(4.5). The model
        // distinguishes them through G1'(1).
        let d = EmpiricalFanout::new(&[0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]);
        assert!((d.mean() - 4.5).abs() < 1e-12);
        // E[K(K-1)]/E[K] = (0.5·0 + 0.5·56)/4.5 = 28/4.5.
        assert!((d.g1_prime_at_one() - 28.0 / 4.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn rejects_zero_mass() {
        EmpiricalFanout::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty_samples() {
        EmpiricalFanout::from_samples(&[]);
    }
}
