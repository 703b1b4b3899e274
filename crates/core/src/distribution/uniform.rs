//! Discrete-uniform fanout on `{lo, …, hi}`.
//!
//! The simplest bounded-jitter fanout: a member picks any target count in
//! a range with equal probability, e.g. "gossip to 2–6 peers". Useful in
//! the distribution-zoo experiments for a variance between fixed (zero)
//! and geometric (high) at the same mean.

use gossip_stats::rng::Xoshiro256StarStar;

use super::FanoutDistribution;

/// Uniform fanout over the inclusive integer range `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniformFanout {
    lo: usize,
    hi: usize,
}

impl UniformFanout {
    /// Creates the uniform distribution on `{lo, …, hi}`. Panics if
    /// `lo > hi`.
    pub fn new(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "uniform fanout needs lo <= hi, got [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// Lower bound.
    #[inline]
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// Upper bound.
    #[inline]
    pub fn hi(&self) -> usize {
        self.hi
    }

    #[inline]
    fn span(&self) -> usize {
        self.hi - self.lo + 1
    }
}

impl FanoutDistribution for UniformFanout {
    fn pmf(&self, k: usize) -> f64 {
        if (self.lo..=self.hi).contains(&k) {
            1.0 / self.span() as f64
        } else {
            0.0
        }
    }

    fn truncation_point(&self, _eps: f64) -> usize {
        self.hi
    }

    fn mean(&self) -> f64 {
        (self.lo + self.hi) as f64 / 2.0
    }

    fn g1_prime_at_one(&self) -> f64 {
        // E[K(K−1)] / E[K] computed exactly from the moments of the
        // uniform distribution: E[K²] = (2hi² + 2hi·lo + 2lo² + hi + lo)/6
        // … simpler and just as exact: direct sums over the small support.
        let mut ek = 0.0;
        let mut ekk1 = 0.0;
        for k in self.lo..=self.hi {
            let p = 1.0 / self.span() as f64;
            ek += k as f64 * p;
            ekk1 += (k * k.saturating_sub(1)) as f64 * p;
        }
        if ek <= 0.0 {
            0.0
        } else {
            ekk1 / ek
        }
    }

    fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        self.lo + rng.next_below(self.span() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::invariants::check_distribution;

    #[test]
    fn invariants_hold() {
        check_distribution("U[1, 7]", &UniformFanout::new(1, 7), 0.05);
        check_distribution("U[3, 3]", &UniformFanout::new(3, 3), 1e-9);
        check_distribution("U[0, 2]", &UniformFanout::new(0, 2), 0.05);
    }

    #[test]
    fn pmf_and_mean() {
        let d = UniformFanout::new(2, 6);
        assert!((d.pmf(2) - 0.2).abs() < 1e-15);
        assert!((d.pmf(6) - 0.2).abs() < 1e-15);
        assert_eq!(d.pmf(1), 0.0);
        assert_eq!(d.pmf(7), 0.0);
        assert!((d.mean() - 4.0).abs() < 1e-15);
    }

    #[test]
    fn excess_degree_against_series() {
        let d = UniformFanout::new(1, 9);
        let kmax = 9;
        let g1p = crate::series::eval_g0_double_prime(|k| d.pmf(k), 1.0, kmax)
            / crate::series::eval_g0_prime(|k| d.pmf(k), 1.0, kmax);
        assert!((d.g1_prime_at_one() - g1p).abs() < 1e-12);
    }

    #[test]
    fn samples_stay_in_range() {
        let d = UniformFanout::new(2, 5);
        let mut rng = Xoshiro256StarStar::new(8);
        let mut seen = [false; 6];
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!((2..=5).contains(&s));
            seen[s] = true;
        }
        assert!(seen[2] && seen[3] && seen[4] && seen[5]);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn rejects_inverted_range() {
        UniformFanout::new(5, 2);
    }
}
