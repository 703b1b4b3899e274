//! Order statistics of the timing samples.

/// The `percent`-th percentile of `samples`: the largest sample that
/// still has at least `(100 - percent)` % of the samples after it in
/// sorted order, so p90 of n samples has at least n/10 beyond it.
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], percent: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(percent * sorted.len() / 100).saturating_sub(1)]
}

/// The middle sample (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_has_at_least_a_tenth_of_the_samples_beyond_it() {
        for n in [1usize, 2, 9, 10, 11, 41, 99, 100, 101, 1000] {
            // Shuffled, distinct samples.
            let samples: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let p90 = percentile(&samples, 90);
            let beyond = samples.iter().filter(|&&s| s > p90).count();
            assert!(beyond * 10 >= n || n < 10, "n = {n}: {beyond} beyond p90");
            // ... and no lower sample would do.
            assert!(beyond <= n / 10 + 1, "n = {n}: {beyond} beyond p90");
        }
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90), 90.0);
        assert_eq!(percentile(&hundred, 50), 50.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
