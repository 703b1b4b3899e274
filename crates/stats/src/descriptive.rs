//! Online descriptive statistics (Welford) with parallel merge support.
//!
//! Every reliability number the paper reports is an average over repeated
//! gossip executions (20 runs per `{f, q}` point in §5.1). The accumulators
//! here compute numerically stable means/variances one observation at a
//! time and merge across threads via Chan et al.'s pairwise update, so the
//! parallel Monte-Carlo runner produces identical statistics to a serial
//! pass.

use serde::{Deserialize, Serialize};

/// Numerically stable streaming mean/variance/extremes accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2).
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "observations must be finite, got {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every observation from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Builds an accumulator from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        s.extend(xs.iter().copied());
        s
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 for an empty accumulator.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (n − 1 denominator); 0 with < 2 samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard error of the mean.
    pub fn sem(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.variance().sqrt() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation; +inf when empty.
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; −inf when empty.
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// 95% normal-approximation confidence interval around the mean.
    pub fn ci95(&self) -> ConfidenceInterval {
        let half = 1.959_963_984_540_054 * self.sem();
        ConfidenceInterval {
            lo: self.mean - half,
            hi: self.mean + half,
        }
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// update). The result equals pushing all observations into one
    /// accumulator, up to floating-point rounding.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let total_f = total as f64;
        self.mean += delta * other.count as f64 / total_f;
        self.m2 += other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total_f;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A symmetric interval around a sample mean.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        (self.lo..=self.hi).contains(&x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_two_pass_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = OnlineStats::from_slice(&xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance with n-1 = 7: Σ(x−5)² = 32 → 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_single() {
        let e = OnlineStats::new();
        assert_eq!(e.count(), 0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.variance(), 0.0);
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sem(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let whole = OnlineStats::from_slice(&xs);
        let mut left = OnlineStats::from_slice(&xs[..313]);
        let right = OnlineStats::from_slice(&xs[313..]);
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut s = OnlineStats::from_slice(&xs);
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ci95_behaviour() {
        let mut s = OnlineStats::new();
        for i in 0..100 {
            s.push(10.0 + (i % 5) as f64);
        }
        let ci = s.ci95();
        assert!(ci.contains(s.mean()));
        assert!(ci.width() > 0.0);
        assert!(
            ci.width() < 1.0,
            "width {} too wide for 100 samples",
            ci.width()
        );
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let offset = 1e9;
        let xs = [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0];
        let s = OnlineStats::from_slice(&xs);
        assert!((s.mean() - (offset + 10.0)).abs() < 1e-3);
        assert!(
            (s.variance() - 30.0).abs() < 1e-6,
            "variance {}",
            s.variance()
        );
    }
}
