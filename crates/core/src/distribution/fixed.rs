//! Deterministic fanout — the "traditional" gossip baseline.
//!
//! The paper contrasts its random-fanout algorithm with traditional
//! gossiping where "each node normally has a fixed number of gossiping
//! targets" (§1). `FixedFanout(f)` is that baseline: the point mass at
//! `f`, with `G0(x) = x^f` and `G1(x) = x^{f−1}`.

use gossip_stats::rng::Xoshiro256StarStar;

use super::FanoutDistribution;

/// Point-mass fanout: every member gossips to exactly `f` targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedFanout {
    f: usize,
}

impl FixedFanout {
    /// Creates the point mass at `f`.
    pub fn new(f: usize) -> Self {
        Self { f }
    }

    /// The fanout value.
    #[inline]
    pub fn fanout(&self) -> usize {
        self.f
    }
}

impl FanoutDistribution for FixedFanout {
    fn pmf(&self, k: usize) -> f64 {
        if k == self.f {
            1.0
        } else {
            0.0
        }
    }

    fn truncation_point(&self, _eps: f64) -> usize {
        self.f
    }

    fn mean(&self) -> f64 {
        self.f as f64
    }

    fn g0(&self, x: f64) -> f64 {
        x.powi(self.f as i32)
    }

    fn g0_prime(&self, x: f64) -> f64 {
        if self.f == 0 {
            return 0.0;
        }
        self.f as f64 * x.powi(self.f as i32 - 1)
    }

    fn g0_double_prime(&self, x: f64) -> f64 {
        if self.f < 2 {
            return 0.0;
        }
        (self.f * (self.f - 1)) as f64 * x.powi(self.f as i32 - 2)
    }

    fn g1(&self, x: f64) -> f64 {
        if self.f == 0 {
            return 0.0;
        }
        x.powi(self.f as i32 - 1)
    }

    fn g1_prime_at_one(&self) -> f64 {
        self.f.saturating_sub(1) as f64
    }

    fn sample(&self, _rng: &mut Xoshiro256StarStar) -> usize {
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::invariants::check_distribution;

    #[test]
    fn invariants_hold() {
        for f in [1usize, 2, 4, 7] {
            check_distribution(&format!("Fixed({f})"), &FixedFanout::new(f), 1e-9);
        }
    }

    #[test]
    fn generating_functions_are_monomials() {
        let d = FixedFanout::new(3);
        assert!((d.g0(0.5) - 0.125).abs() < 1e-15);
        assert!((d.g0_prime(0.5) - 3.0 * 0.25).abs() < 1e-15);
        assert!((d.g0_double_prime(0.5) - 6.0 * 0.5).abs() < 1e-15);
        assert!((d.g1(0.5) - 0.25).abs() < 1e-15);
        assert_eq!(d.g1_prime_at_one(), 2.0);
    }

    #[test]
    fn degenerate_zero_and_one() {
        let zero = FixedFanout::new(0);
        assert_eq!(zero.g0(0.7), 1.0);
        assert_eq!(zero.g0_prime(0.7), 0.0);
        assert_eq!(zero.g1(0.7), 0.0);
        assert_eq!(zero.g1_prime_at_one(), 0.0);
        let one = FixedFanout::new(1);
        // Degree-1 graphs are perfect matchings: G1 ≡ 1, mean excess 0.
        assert_eq!(one.g1(0.3), 1.0);
        assert_eq!(one.g1_prime_at_one(), 0.0);
    }

    #[test]
    fn sample_is_constant() {
        let d = FixedFanout::new(5);
        let mut rng = Xoshiro256StarStar::new(11);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 5);
        }
    }
}
