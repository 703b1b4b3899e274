//! Finite mixtures of fanout distributions.
//!
//! Heterogeneous deployments — e.g. 90% constrained mobile nodes with
//! small fanout plus 10% well-connected relays with large fanout — are
//! mixtures. Generating functions mix linearly
//! (`G0 = Σ w_i · G0_i`), so the percolation analysis extends for free.

use gossip_stats::rng::Xoshiro256StarStar;

use super::FanoutDistribution;

/// A weighted mixture of fanout distributions.
pub struct MixtureFanout {
    components: Vec<(f64, Box<dyn FanoutDistribution>)>,
}

impl MixtureFanout {
    /// Builds a mixture from `(weight, distribution)` pairs; weights are
    /// normalized to sum to 1. Panics on empty input or non-positive total
    /// weight.
    pub fn new(components: Vec<(f64, Box<dyn FanoutDistribution>)>) -> Self {
        assert!(
            !components.is_empty(),
            "mixture needs at least one component"
        );
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(
            total.is_finite() && total > 0.0,
            "mixture needs positive total weight"
        );
        for (w, _) in &components {
            assert!(*w >= 0.0, "mixture weights must be non-negative, got {w}");
        }
        let components = components
            .into_iter()
            .map(|(w, d)| (w / total, d))
            .collect();
        Self { components }
    }

    /// Number of mixture components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if the mixture has no components (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl FanoutDistribution for MixtureFanout {
    fn pmf(&self, k: usize) -> f64 {
        self.components.iter().map(|(w, d)| w * d.pmf(k)).sum()
    }

    fn truncation_point(&self, eps: f64) -> usize {
        // A point covering each component at eps covers the mixture at eps.
        self.components
            .iter()
            .map(|(_, d)| d.truncation_point(eps))
            .max()
            .unwrap_or(0)
    }

    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }

    fn g0(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.g0(x)).sum()
    }

    fn g0_prime(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.g0_prime(x)).sum()
    }

    fn g0_double_prime(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|(w, d)| w * d.g0_double_prime(x))
            .sum()
    }

    fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        // Pick a component by weight, then sample it.
        let mut u = rng.next_f64();
        for (w, d) in &self.components {
            if u < *w {
                return d.sample(rng);
            }
            u -= w;
        }
        // Floating-point slack: fall through to the last component.
        self.components
            .last()
            .expect("mixture non-empty")
            .1
            .sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::invariants::check_distribution;
    use crate::distribution::{FixedFanout, PoissonFanout};

    fn relay_mixture() -> MixtureFanout {
        MixtureFanout::new(vec![
            (
                0.9,
                Box::new(FixedFanout::new(2)) as Box<dyn FanoutDistribution>,
            ),
            (0.1, Box::new(PoissonFanout::new(20.0))),
        ])
    }

    #[test]
    fn invariants_hold() {
        check_distribution("relay mixture", &relay_mixture(), 0.15);
    }

    #[test]
    fn mean_is_weighted_average() {
        let m = relay_mixture();
        assert!((m.mean() - (0.9 * 2.0 + 0.1 * 20.0)).abs() < 1e-10);
    }

    #[test]
    fn generating_functions_mix_linearly() {
        let m = relay_mixture();
        let f = FixedFanout::new(2);
        let p = PoissonFanout::new(20.0);
        for &x in &[0.2, 0.7, 1.0] {
            let expected = 0.9 * f.g0(x) + 0.1 * p.g0(x);
            assert!((m.g0(x) - expected).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn weights_normalize() {
        let m = MixtureFanout::new(vec![
            (
                3.0,
                Box::new(FixedFanout::new(1)) as Box<dyn FanoutDistribution>,
            ),
            (1.0, Box::new(FixedFanout::new(5))),
        ]);
        assert!((m.pmf(1) - 0.75).abs() < 1e-12);
        assert!((m.pmf(5) - 0.25).abs() < 1e-12);
        assert!((m.mean() - (0.75 + 1.25)).abs() < 1e-12);
    }

    #[test]
    fn sampling_hits_both_components() {
        let m = MixtureFanout::new(vec![
            (
                0.5,
                Box::new(FixedFanout::new(1)) as Box<dyn FanoutDistribution>,
            ),
            (0.5, Box::new(FixedFanout::new(9))),
        ]);
        let mut rng = Xoshiro256StarStar::new(31);
        let mut ones = 0;
        let mut nines = 0;
        for _ in 0..10_000 {
            match m.sample(&mut rng) {
                1 => ones += 1,
                9 => nines += 1,
                other => panic!("unexpected sample {other}"),
            }
        }
        assert!((4_500..5_500).contains(&ones), "ones = {ones}");
        assert!((4_500..5_500).contains(&nines), "nines = {nines}");
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn rejects_empty() {
        MixtureFanout::new(vec![]);
    }
}
