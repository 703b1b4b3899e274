//! The typed message that crosses a [`Transport`](crate::Transport).
//!
//! One broadcast moves exactly one kind of datum: a relay of the gossip
//! payload. The struct is serde-derived so the TCP transport can frame
//! it as one JSON object per line (maelstrom-style), and the channel
//! transport can move it by value.

use serde::{Deserialize, Serialize};

/// One gossip relay on the wire.
///
/// The `arrival_virtual_ns` stamp is the runtime's *virtual clock*: the
/// sender adds a seed-derived latency draw (per
/// [`LatencySpec`](gossip_model::scenario::LatencySpec)) to the virtual
/// time of the copy that triggered its own relay. Scheduled crashes are
/// evaluated against this clock; nothing sleeps on it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireMessage {
    /// Broadcast identifier (derived from the execution seed).
    pub id: u64,
    /// Sending node.
    pub from: u32,
    /// Relay depth: 0 for the injection at the source.
    pub hop: u32,
    /// Virtual arrival time at the destination, in nanoseconds since
    /// injection.
    pub arrival_virtual_ns: u64,
    /// The stream-message indices this frame relays: one per frame, or
    /// up to `frame_limit` when piggybacking
    /// ([`TrafficSpec`](gossip_model::TrafficSpec)), amortizing one
    /// fanout draw and one frame-budget slot over all of them. A
    /// one-message plan — the single broadcast is the k = 1 stream —
    /// leaves it empty: every frame relays message 0. What replays byte
    /// for byte is stated once, in the execution module's docs.
    pub ids: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_roundtrip() {
        let msg = WireMessage {
            id: 0xF00D,
            from: 7,
            hop: 3,
            arrival_virtual_ns: 12_500_000,
            ids: Vec::new(),
        };
        let line = serde::json::to_string(&msg).unwrap();
        assert!(line.contains("\"hop\":3"));
        let back: WireMessage = serde::json::from_str(&line).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn piggybacked_ids_roundtrip() {
        let msg = WireMessage {
            id: 1,
            from: 0,
            hop: 2,
            arrival_virtual_ns: 42,
            ids: vec![3, 1, 4, 1, 5],
        };
        let line = serde::json::to_string(&msg).unwrap();
        assert!(line.contains("\"ids\":[3,1,4,1,5]"));
        let back: WireMessage = serde::json::from_str(&line).unwrap();
        assert_eq!(back, msg);
    }
}
