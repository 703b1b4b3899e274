//! The traffic section every backend fills the same way, plus the
//! histogram percentile helper behind the latency figures.

use serde::{Deserialize, Serialize};

/// Per-stream results a backend appends to its `Report` when the
/// scenario carries a [`crate::TrafficSpec`]; `None` fields are metrics
/// the producing layer has no clock or wire for.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficReport {
    /// Number of concurrent messages k in the stream.
    pub messages: usize,
    /// Mean per-message reliability: the average over messages of each
    /// message's take-off-conditioned reliability.
    pub reliability_mean: f64,
    /// Worst per-message reliability across the k messages.
    pub reliability_min: f64,
    /// Sustained throughput: k divided by the simulated seconds to
    /// stream quiescence (timed backends only).
    pub messages_per_sec: Option<f64>,
    /// Median delivery latency in rounds from a message's injection to
    /// a member's first receipt.
    pub latency_rounds_p50: Option<f64>,
    /// 90th-percentile delivery latency in rounds.
    pub latency_rounds_p90: Option<f64>,
    /// 99th-percentile delivery latency in rounds.
    pub latency_rounds_p99: Option<f64>,
    /// Mean message copies put on the wire per replication.
    pub copies_sent: Option<f64>,
    /// Mean copies dropped at full send queues per replication — the
    /// typed overflow accounting of the bounded queue.
    pub copies_dropped: Option<f64>,
    /// Mean copies lost in transit per replication.
    pub copies_lost: Option<f64>,
    /// True when rumor piggybacking was active.
    pub batched: bool,
}

/// Nearest-rank percentile of a histogram whose index is the value
/// (`histogram[v]` = number of observations equal to `v`); `None` on an
/// empty histogram. `p` is a fraction in `[0, 1]`.
pub fn percentile(histogram: &[u64], p: f64) -> Option<f64> {
    let total: u64 = histogram.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (value, &count) in histogram.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return Some(value as f64);
        }
    }
    None
}

/// Adds `part` into `total` bin by bin, growing `total` as needed —
/// how per-worker and per-replication latency histograms combine.
pub fn merge_histogram(total: &mut Vec<u64>, part: &[u64]) {
    if total.len() < part.len() {
        total.resize(part.len(), 0);
    }
    for (sum, &count) in total.iter_mut().zip(part) {
        *sum += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_histogram_grows_and_adds() {
        let mut total = vec![1, 2];
        merge_histogram(&mut total, &[10, 0, 5]);
        assert_eq!(total, [11, 2, 5]);
        merge_histogram(&mut total, &[1]);
        assert_eq!(total, [12, 2, 5]);
    }

    #[test]
    fn percentile_nearest_rank() {
        // Values: 1×0, 8×1, 1×2.
        let hist = [1, 8, 1];
        assert_eq!(percentile(&hist, 0.5), Some(1.0));
        assert_eq!(percentile(&hist, 0.05), Some(0.0));
        assert_eq!(percentile(&hist, 0.99), Some(2.0));
        assert_eq!(percentile(&hist, 0.0), Some(0.0));
        assert_eq!(percentile(&hist, 1.0), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[0, 0], 0.5), None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = TrafficReport {
            messages: 16,
            reliability_mean: 0.97,
            reliability_min: 0.91,
            messages_per_sec: Some(1234.5),
            latency_rounds_p50: Some(4.0),
            latency_rounds_p90: Some(7.0),
            latency_rounds_p99: Some(11.0),
            copies_sent: Some(64_000.0),
            copies_dropped: Some(120.0),
            copies_lost: Some(640.0),
            batched: true,
        };
        let json = serde::json::to_string(&report).unwrap();
        let back: TrafficReport = serde::json::from_str(&json).unwrap();
        assert_eq!(report, back);
        // Untimed layers leave the clocked metrics null.
        let untimed = TrafficReport {
            messages_per_sec: None,
            ..report
        };
        let json = serde::json::to_string(&untimed).unwrap();
        assert!(json.contains("\"messages_per_sec\":null"), "{json}");
    }
}
