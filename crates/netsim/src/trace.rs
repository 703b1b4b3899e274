//! Optional event tracing for debugging and test assertions.

use crate::event::NodeId;
use crate::time::SimTime;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A message from `from` was delivered to the node.
    Delivered {
        /// Sender.
        from: NodeId,
    },
    /// The node sent a message to `to`.
    Sent {
        /// Receiver.
        to: NodeId,
    },
    /// A message to `to` was lost in the network.
    Lost {
        /// Intended receiver.
        to: NodeId,
    },
    /// A timer fired on the node.
    TimerFired {
        /// Caller-chosen timer id.
        id: u64,
    },
    /// The node crashed.
    Crashed,
    /// The node joined the group (membership churn).
    Joined,
}

/// One trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// The node it happened at.
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded in-memory trace recorder.
///
/// Disabled by default in the simulator; tests and the example binaries
/// enable it. The capacity bound protects long experiment runs from
/// unbounded growth — recording silently stops at the cap.
#[derive(Clone, Debug)]
pub struct Tracer {
    records: Vec<TraceEvent>,
    capacity: usize,
}

impl Tracer {
    /// Creates a tracer storing at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self {
            records: Vec::new(),
            capacity,
        }
    }

    /// Records one event (dropped when at capacity).
    pub fn record(&mut self, time: SimTime, node: NodeId, kind: TraceKind) {
        if self.records.len() < self.capacity {
            self.records.push(TraceEvent { time, node, kind });
        }
    }

    /// All records so far, in simulation order.
    pub fn records(&self) -> &[TraceEvent] {
        &self.records
    }

    /// Whether the tracer hit its capacity (records were dropped).
    pub fn truncated(&self) -> bool {
        self.records.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_filters() {
        let mut t = Tracer::new(10);
        t.record(SimTime::from_nanos(1), 0, TraceKind::Sent { to: 1 });
        t.record(SimTime::from_nanos(2), 1, TraceKind::Delivered { from: 0 });
        t.record(SimTime::from_nanos(3), 0, TraceKind::Crashed);
        assert_eq!(t.records().len(), 3);
        let for_node = |node| t.records().iter().filter(|r| r.node == node).count();
        assert_eq!((for_node(0), for_node(1)), (2, 1));
        assert!(!t.truncated());
    }

    #[test]
    fn capacity_bound() {
        let mut t = Tracer::new(2);
        for i in 0..5 {
            t.record(SimTime::from_nanos(i), 0, TraceKind::Crashed);
        }
        assert_eq!(t.records().len(), 2);
        assert!(t.truncated());
    }
}
