//! Simulation-wide counters.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Counters accumulated over one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// `send()` calls made by behaviours.
    pub messages_sent: u64,
    /// Messages delivered to live nodes (behaviour invoked).
    pub messages_delivered: u64,
    /// Messages dropped by the network loss model.
    pub messages_lost: u64,
    /// Messages that arrived at crashed nodes (absorbed silently).
    pub deliveries_to_crashed: u64,
    /// Timers set by behaviours.
    pub timers_set: u64,
    /// Timers that fired on live nodes.
    pub timers_fired: u64,
    /// Crash events applied.
    pub crashes: u64,
    /// Total events processed, absorbed copies included.
    pub events_processed: u64,
    /// Time of the last processed event, counting the arrival time of
    /// every absorbed copy (one settled at send time, see
    /// [`NodeBehavior::settled`](crate::NodeBehavior::settled)).
    pub last_event_time: SimTime,
}

impl SimMetrics {
    /// Redundancy ratio: messages sent per message delivered (∞ → `None`
    /// when nothing was delivered).
    pub fn redundancy(&self) -> Option<f64> {
        if self.messages_delivered == 0 {
            None
        } else {
            Some(self.messages_sent as f64 / self.messages_delivered as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let m = SimMetrics {
            messages_sent: 100,
            messages_delivered: 80,
            messages_lost: 15,
            deliveries_to_crashed: 5,
            ..Default::default()
        };
        assert!((m.redundancy().unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn redundancy_none_when_no_deliveries() {
        let m = SimMetrics::default();
        assert_eq!(m.redundancy(), None);
    }
}
