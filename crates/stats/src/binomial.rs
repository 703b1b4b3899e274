//! The Binomial distribution `B(n, p)`.
//!
//! The paper's success-of-gossiping calculus treats the `t` repeated
//! executions of the gossip algorithm as Bernoulli trials: the number of
//! executions in which a given nonfailed member receives the message is
//! `X ~ B(t, p_r)` (paper §4.2, Eq. 5). Figures 6 and 7 compare the
//! simulated distribution of the per-simulation success count against
//! `B(20, 0.967)`; this module supplies the pmf/cdf machinery for those
//! comparisons plus an exact inversion sampler.

use crate::rng::Xoshiro256StarStar;
use crate::special::{beta_inc, ln_choose};

/// Binomial distribution with `n` trials and success probability `p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates `B(n, p)`. Panics if `p` is outside `[0, 1]` or not finite.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "binomial p must be in [0,1], got {p}"
        );
        Self { n, p }
    }

    /// Number of trials.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `np`.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `np(1−p)`.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Log probability mass `ln P(X = k)`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        // Degenerate endpoints avoid 0·ln 0.
        if self.p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if self.p == 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (1.0 - self.p).ln()
    }

    /// Probability mass `P(X = k)`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// The full pmf as a vector of length `n + 1` (index `k` holds
    /// `P(X = k)`), computed by the stable multiplicative recurrence.
    pub fn pmf_vector(&self) -> Vec<f64> {
        let n = self.n as usize;
        let mut out = vec![0.0; n + 1];
        if self.p == 0.0 {
            out[0] = 1.0;
            return out;
        }
        if self.p == 1.0 {
            out[n] = 1.0;
            return out;
        }
        // Start from the mode in log space to dodge underflow at the tails.
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.pmf(k as u64);
        }
        out
    }

    /// Cumulative distribution `P(X ≤ k)` via the regularized incomplete
    /// beta function: `P(X ≤ k) = I_{1−p}(n−k, k+1)`.
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        if self.p == 0.0 {
            return 1.0;
        }
        if self.p == 1.0 {
            return 0.0; // k < n here
        }
        beta_inc((self.n - k) as f64, k as f64 + 1.0, 1.0 - self.p)
    }

    /// Survival function `P(X ≥ k)`.
    pub fn sf(&self, k: u64) -> f64 {
        if k == 0 {
            return 1.0;
        }
        if k > self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return 0.0; // k >= 1
        }
        if self.p == 1.0 {
            return 1.0; // k <= n
        }
        beta_inc(k as f64, (self.n - k + 1) as f64, self.p)
    }

    /// Smallest `k` with `P(X ≤ k) ≥ prob` (the quantile function).
    pub fn quantile(&self, prob: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&prob),
            "quantile prob must be in [0,1], got {prob}"
        );
        if prob >= 1.0 {
            return self.n;
        }
        // The n ≤ a-few-thousand cases in this workspace make a linear scan
        // from the mean cheap and exact.
        let mut k = 0u64;
        while k < self.n && self.cdf(k) < prob {
            k += 1;
        }
        k
    }

    /// Draws one sample: `n ≤ 64` runs the Bernoulli trials, larger `n`
    /// inverts one uniform outward from the mode, which is exact at any
    /// `n·p` in O(√(np(1−p))) expected steps.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        if self.p == 0.0 {
            return 0;
        }
        if self.p == 1.0 {
            return self.n;
        }
        // For small n, just run the trials: branch-predictable and exact.
        if self.n <= 64 {
            let mut count = 0u64;
            for _ in 0..self.n {
                if rng.next_bool(self.p) {
                    count += 1;
                }
            }
            return count;
        }
        // Inversion outward from the mode m = ⌊(n+1)p⌋: the masses are
        // laid out in the order m, m+1, m−1, m+2, … and the value whose
        // interval holds u is returned. A search from 0 would start at
        // (1−p)^n, which underflows once n·|ln(1−p)| ≳ 745; from the
        // mode every term is representable. Both sides follow
        // P(k+1) = P(k) · (n−k)/(k+1) · p/(1−p).
        let u = rng.next_f64();
        let odds = self.p / (1.0 - self.p);
        let mode = (((self.n as f64 + 1.0) * self.p) as u64).min(self.n);
        let at_mode = self.pmf(mode);
        let mut cdf = at_mode;
        if u < cdf {
            return mode;
        }
        let (mut hi, mut above) = (mode, at_mode);
        let (mut lo, mut below) = (mode, at_mode);
        loop {
            // A side is spent at the end of the support, or once its
            // mass has underflowed to zero far out in the tail.
            let right = hi < self.n && above > 0.0;
            let left = lo > 0 && below > 0.0;
            if !right && !left {
                // Rounding left the total mass a hair below u.
                return mode;
            }
            if right {
                above *= (self.n - hi) as f64 / (hi + 1) as f64 * odds;
                hi += 1;
                cdf += above;
                if u < cdf {
                    return hi;
                }
            }
            if left {
                below *= lo as f64 / (self.n - lo + 1) as f64 / odds;
                lo -= 1;
                cdf += below;
                if u < cdf {
                    return lo;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::OnlineStats;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[
            (20u64, 0.967f64),
            (20, 0.5),
            (100, 0.01),
            (7, 1.0),
            (7, 0.0),
        ] {
            let total: f64 = Binomial::new(n, p).pmf_vector().iter().sum();
            assert!(close(total, 1.0, 1e-10), "sum {total} for n={n}, p={p}");
        }
    }

    #[test]
    fn paper_case_b20_0967() {
        // The analysis line in Figs. 6/7: B(20, 0.967). Mode must be at 20
        // and the pmf there equals 0.967^20 ≈ 0.5113.
        let b = Binomial::new(20, 0.967);
        let p20 = b.pmf(20);
        assert!(close(p20, 0.967f64.powi(20), 1e-12));
        assert!((0.50..0.52).contains(&p20));
        let p19 = b.pmf(19);
        assert!((0.34..0.36).contains(&p19), "pmf(19) = {p19}");
    }

    #[test]
    fn cdf_matches_direct_sum() {
        let b = Binomial::new(15, 0.3);
        let mut acc = 0.0;
        for k in 0..=15u64 {
            acc += b.pmf(k);
            assert!(
                close(b.cdf(k), acc, 1e-10),
                "cdf({k}) = {} vs sum {}",
                b.cdf(k),
                acc
            );
        }
    }

    #[test]
    fn sf_complements_cdf() {
        let b = Binomial::new(30, 0.6);
        for k in 1..=30u64 {
            assert!(close(b.sf(k), 1.0 - b.cdf(k - 1), 1e-10), "k = {k}");
        }
        assert_eq!(b.sf(0), 1.0);
        assert_eq!(b.sf(31), 0.0);
    }

    #[test]
    fn success_of_gossiping_eq5() {
        // Eq. (5): Pr(success) = P(X >= 1) = 1 − (1−p_r)^t.
        let t = 20u64;
        let pr = 0.967;
        let b = Binomial::new(t, pr);
        let expected = 1.0 - (1.0 - pr).powi(t as i32);
        assert!(close(b.sf(1), expected, 1e-12));
    }

    #[test]
    fn quantile_is_inverse_of_cdf() {
        let b = Binomial::new(20, 0.4);
        for &q in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            let k = b.quantile(q);
            assert!(b.cdf(k) >= q);
            if k > 0 {
                assert!(b.cdf(k - 1) < q);
            }
        }
        assert_eq!(b.quantile(1.0), 20);
    }

    #[test]
    fn sampling_matches_moments() {
        let b = Binomial::new(20, 0.967);
        let mut rng = Xoshiro256StarStar::new(12345);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = b.sample(&mut rng) as f64;
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(
            (mean - b.mean()).abs() < 0.02,
            "mean {mean} vs {}",
            b.mean()
        );
        assert!(
            (var - b.variance()).abs() < 0.05,
            "var {var} vs {}",
            b.variance()
        );
    }

    #[test]
    fn sampling_large_n_inversion_path() {
        // Mean and variance within 5 SE of np and np(1−p) (false failure
        // below 1e-5 over the eight checks). A search from 0 underflows at
        // the first two and returns n on every draw.
        let draws = 2_000;
        for &(n, p) in &[
            (1_000_000u64, 0.1f64),
            (5_000, 0.2),
            (500, 0.1),
            (1_000_000, 0.999),
        ] {
            let b = Binomial::new(n, p);
            let mut rng = Xoshiro256StarStar::new(777);
            let mut stats = OnlineStats::new();
            for _ in 0..draws {
                let x = b.sample(&mut rng);
                assert!(x <= n);
                assert!(p > 0.5 || x < n, "B({n}, {p}) drew n");
                stats.push(x as f64);
            }
            let var = b.variance();
            let mean_se = (var / draws as f64).sqrt();
            // Var(s²) = σ⁴ (2/(N−1) + excess kurtosis / N).
            let excess = (1.0 - 6.0 * p * (1.0 - p)) / var;
            let var_se = var * (2.0 / (draws - 1) as f64 + excess / draws as f64).sqrt();
            assert!(
                (stats.mean() - b.mean()).abs() < 5.0 * mean_se,
                "B({n}, {p}): mean {} vs {}",
                stats.mean(),
                b.mean()
            );
            assert!(
                (stats.variance() - var).abs() < 5.0 * var_se,
                "B({n}, {p}): variance {} vs {var}",
                stats.variance()
            );
        }
    }

    #[test]
    fn large_n_sampler_follows_the_cdf() {
        // One-sample Kolmogorov–Smirnov against `cdf` (the incomplete
        // beta function, which shares no code with the sampler's pmf
        // recurrence): √N·D < 1.95 fails a correct sampler less than once
        // in 1 000 seeds, less still on a discrete law.
        let b = Binomial::new(500, 0.1);
        let mut rng = Xoshiro256StarStar::new(4242);
        let draws = 2_000;
        let mut counts = vec![0u64; 501];
        for _ in 0..draws {
            counts[b.sample(&mut rng) as usize] += 1;
        }
        let mut seen = 0u64;
        let mut d = 0.0f64;
        for (k, &c) in counts.iter().enumerate() {
            seen += c;
            d = d.max((seen as f64 / draws as f64 - b.cdf(k as u64)).abs());
        }
        assert!(
            d * (draws as f64).sqrt() < 1.95,
            "KS distance {d} over {draws} draws"
        );
    }

    #[test]
    fn degenerate_endpoints() {
        let zero = Binomial::new(10, 0.0);
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.sample(&mut Xoshiro256StarStar::new(1)), 0);
        let one = Binomial::new(10, 1.0);
        assert_eq!(one.pmf(10), 1.0);
        assert_eq!(one.sample(&mut Xoshiro256StarStar::new(1)), 10);
    }

    #[test]
    #[should_panic(expected = "binomial p must be in [0,1]")]
    fn rejects_bad_p() {
        Binomial::new(5, 1.5);
    }
}
