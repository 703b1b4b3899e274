//! Simulation events.

use crate::time::SimTime;

/// Node identifier (index into the simulator's node table).
pub type NodeId = u32;

/// What an event does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind<M> {
    /// Deliver a message from `from` to the event's target.
    Deliver {
        /// Sender of the message.
        from: NodeId,
        /// The payload.
        msg: M,
    },
    /// Fire a timer the target set for itself.
    Timer {
        /// Caller-chosen timer identifier.
        id: u64,
    },
    /// Crash the target node (fail-stop: it stops processing events).
    Crash,
    /// Activate a dormant target node (membership churn: the node joins
    /// the group, enters the membership view, and runs `on_start` if its
    /// behaviour [has a start hook](crate::NodeBehavior::HAS_START_HOOK)).
    Join,
}

/// A scheduled event. Ordering is `(time, seq)` — `seq` is a global
/// insertion counter, so simultaneous events fire in the order they were
/// scheduled, deterministically.
#[derive(Clone, Debug)]
pub struct Event<M> {
    /// When the event fires.
    pub time: SimTime,
    /// Global insertion sequence number (tie-break).
    pub seq: u64,
    /// Which node the event targets.
    pub target: NodeId,
    /// The action.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_ns: u64, seq: u64) -> Event<()> {
        Event {
            time: SimTime::from_nanos(time_ns),
            seq,
            target: 0,
            kind: EventKind::Timer { id: 0 },
        }
    }

    #[test]
    fn ordering_by_time_then_seq() {
        assert!(ev(1, 5) < ev(2, 0));
        assert!(ev(2, 0) < ev(2, 1));
        assert_eq!(ev(3, 7), ev(3, 7));
    }

    #[test]
    fn kind_carries_payload() {
        let e = Event {
            time: SimTime::ZERO,
            seq: 0,
            target: 3,
            kind: EventKind::Deliver {
                from: 1,
                msg: 42u32,
            },
        };
        match e.kind {
            EventKind::Deliver { from, msg } => {
                assert_eq!(from, 1);
                assert_eq!(msg, 42);
            }
            _ => panic!("wrong kind"),
        }
    }
}
