//! Serde-friendly traffic descriptions and their validation.
//!
//! A [`TrafficSpec`] is pure data riding on the scenario: how many
//! concurrent messages, how they arrive, and what per-node budget moves
//! them. Nothing here samples randomness — the concrete injection plan
//! is built per execution by [`crate::injection_rounds`] and the stream
//! engine runs it.

use gossip_stats::ParamError;
use serde::{Deserialize, Serialize};

/// Hard upper bound on message ids per wire frame — keeps the engine's
/// frames inline (no per-frame allocation on the hot path).
pub const MAX_FRAME_IDS: usize = 16;

/// When the k messages of a stream enter the system, in rounds of the
/// stream engine's clock. All plans are seed-deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// Every message is injected at round 0 (a burst).
    AllAtOnce,
    /// Message `m` is injected at round `m · every_rounds`.
    FixedInterval {
        /// Rounds between consecutive injections (`≥ 1`).
        every_rounds: u64,
    },
    /// Poisson arrivals: inter-injection gaps are i.i.d. exponential
    /// with mean `1 / rate_per_round`, sampled from the seed stream.
    Poisson {
        /// Expected injections per round (`> 0`, finite).
        rate_per_round: f64,
    },
}

/// Whether relays pack multiple message ids into one wire frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchingSpec {
    /// One message id per frame — the bandwidth cap counts message
    /// copies, exactly the single-message protocol repeated k times.
    Off,
    /// Rumor piggybacking: ids that arrive together relay together —
    /// one fanout draw per arrival group, up to `frame_limit` ids per
    /// frame, so a frame of the per-round budget carries several
    /// message copies.
    Piggyback {
        /// Maximum message ids per frame (`1 ..= MAX_FRAME_IDS`).
        frame_limit: usize,
    },
}

/// A sustained multi-message workload riding on one scenario: the
/// source streams `messages` concurrent rumors under per-node budget
/// pressure. `Scenario.traffic = None` (the default) means the classic
/// single-message execution, byte for byte.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TrafficSpec {
    /// Number of concurrent messages k (`≥ 1`).
    pub messages: usize,
    /// Injection plan for the k messages.
    pub arrival: ArrivalSpec,
    /// Per-node bandwidth cap: at most B frames transmitted per node
    /// per round (`None` = uncapped). With batching off a frame is one
    /// message copy, so B caps message-copies per round.
    pub bandwidth: Option<usize>,
    /// Bounded send-queue capacity in frames; a relay generated while
    /// the queue is full is dropped and accounted as overflow.
    pub queue_capacity: usize,
    /// Rumor batching/piggybacking policy.
    pub batching: BatchingSpec,
}

impl TrafficSpec {
    /// A stream of `messages` concurrent rumors with the defaults: a
    /// round-0 burst, no bandwidth cap, a 1024-frame queue, batching
    /// off.
    pub fn stream(messages: usize) -> Self {
        TrafficSpec {
            messages,
            arrival: ArrivalSpec::AllAtOnce,
            bandwidth: None,
            queue_capacity: 1024,
            batching: BatchingSpec::Off,
        }
    }

    /// Sets the injection plan.
    pub fn with_arrival(mut self, arrival: ArrivalSpec) -> Self {
        self.arrival = arrival;
        self
    }

    /// Caps each node at `frames` transmissions per round.
    pub fn with_bandwidth(mut self, frames: usize) -> Self {
        self.bandwidth = Some(frames);
        self
    }

    /// Sets the bounded send-queue capacity in frames.
    pub fn with_queue_capacity(mut self, frames: usize) -> Self {
        self.queue_capacity = frames;
        self
    }

    /// Enables rumor piggybacking with up to `frame_limit` ids per
    /// frame.
    pub fn with_piggyback(mut self, frame_limit: usize) -> Self {
        self.batching = BatchingSpec::Piggyback { frame_limit };
        self
    }

    /// Message ids one wire frame may carry: 1 with batching off,
    /// `frame_limit` with piggybacking.
    pub fn frame_limit(&self) -> usize {
        match self.batching {
            BatchingSpec::Off => 1,
            BatchingSpec::Piggyback { frame_limit } => frame_limit,
        }
    }

    /// True when piggybacking is enabled.
    pub fn batched(&self) -> bool {
        matches!(self.batching, BatchingSpec::Piggyback { .. })
    }

    /// Checks every parameter domain.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.messages == 0 {
            return Err(ParamError::new(
                "messages",
                0.0,
                "a traffic stream needs at least one message (k >= 1)",
            ));
        }
        if self.messages > 65_536 {
            return Err(ParamError::new(
                "messages",
                self.messages as f64,
                "at most 65536 concurrent messages per stream",
            ));
        }
        match self.arrival {
            ArrivalSpec::AllAtOnce => {}
            ArrivalSpec::FixedInterval { every_rounds } => {
                if every_rounds == 0 {
                    return Err(ParamError::new(
                        "every_rounds",
                        0.0,
                        "fixed-interval arrivals need at least one round between injections",
                    ));
                }
            }
            ArrivalSpec::Poisson { rate_per_round } => {
                if !(rate_per_round.is_finite() && rate_per_round > 0.0) {
                    return Err(ParamError::new(
                        "rate_per_round",
                        rate_per_round,
                        "Poisson arrival rate must be finite and > 0",
                    ));
                }
            }
        }
        if self.bandwidth == Some(0) {
            return Err(ParamError::new(
                "bandwidth",
                0.0,
                "bandwidth cap must allow at least one frame per round (or None = uncapped)",
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ParamError::new(
                "queue_capacity",
                0.0,
                "send queue needs room for at least one frame",
            ));
        }
        if let BatchingSpec::Piggyback { frame_limit } = self.batching {
            if frame_limit == 0 || frame_limit > MAX_FRAME_IDS {
                return Err(ParamError::new(
                    "frame_limit",
                    frame_limit as f64,
                    "piggyback frame limit must lie in 1..=16",
                ));
            }
        }
        Ok(())
    }

    /// One-line description, e.g. `stream(k=16,B=4,q=32,batch=8)`.
    pub fn label(&self) -> String {
        let mut label = format!("stream(k={}", self.messages);
        match self.arrival {
            ArrivalSpec::AllAtOnce => {}
            ArrivalSpec::FixedInterval { every_rounds } => {
                label.push_str(&format!(",every={every_rounds}r"));
            }
            ArrivalSpec::Poisson { rate_per_round } => {
                label.push_str(&format!(",po({rate_per_round}/r)"));
            }
        }
        if let Some(b) = self.bandwidth {
            label.push_str(&format!(",B={b}"));
        }
        label.push_str(&format!(",q={}", self.queue_capacity));
        if let BatchingSpec::Piggyback { frame_limit } = self.batching {
            label.push_str(&format!(",batch={frame_limit}"));
        }
        label.push(')');
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(TrafficSpec::stream(1).validate().is_ok());
        assert!(TrafficSpec::stream(64)
            .with_bandwidth(4)
            .with_queue_capacity(32)
            .with_piggyback(8)
            .with_arrival(ArrivalSpec::Poisson {
                rate_per_round: 0.5
            })
            .validate()
            .is_ok());
    }

    #[test]
    fn rejects_malformed_parameters() {
        let bad = [
            TrafficSpec::stream(0),
            TrafficSpec::stream(1 << 20),
            TrafficSpec::stream(4).with_bandwidth(0),
            TrafficSpec::stream(4).with_queue_capacity(0),
            TrafficSpec::stream(4).with_piggyback(0),
            TrafficSpec::stream(4).with_piggyback(MAX_FRAME_IDS + 1),
            TrafficSpec::stream(4).with_arrival(ArrivalSpec::FixedInterval { every_rounds: 0 }),
            TrafficSpec::stream(4).with_arrival(ArrivalSpec::Poisson {
                rate_per_round: -1.0,
            }),
            TrafficSpec::stream(4).with_arrival(ArrivalSpec::Poisson {
                rate_per_round: f64::NAN,
            }),
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "{spec:?} should be rejected");
        }
    }

    #[test]
    fn error_is_field_compatible() {
        let err = TrafficSpec::stream(0).validate().unwrap_err();
        assert_eq!(err.name, "messages");
        assert!(err.to_string().contains("messages"));
    }

    #[test]
    fn label_mentions_knobs() {
        let label = TrafficSpec::stream(16)
            .with_bandwidth(4)
            .with_queue_capacity(32)
            .with_piggyback(8)
            .label();
        assert_eq!(label, "stream(k=16,B=4,q=32,batch=8)");
        assert_eq!(TrafficSpec::stream(1).label(), "stream(k=1,q=1024)");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = TrafficSpec::stream(16)
            .with_bandwidth(4)
            .with_piggyback(8)
            .with_arrival(ArrivalSpec::Poisson {
                rate_per_round: 0.25,
            });
        let json = serde::json::to_string(&spec).unwrap();
        let back: TrafficSpec = serde::json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
