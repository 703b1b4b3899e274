//! The multicast message.
//!
//! A copy in flight is a plain 16-byte value: which multicast it
//! belongs to and how many hops it has travelled. No simulation reads an
//! application payload, so none is carried; relaying a copy to each of
//! `f` targets is a bit copy through the outbox and the event calendar.

/// Identifier of a multicast message (unique per multicast, not per
/// copy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

/// A gossip message copy in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipMessage {
    /// Which multicast this copy belongs to.
    pub id: MessageId,
    /// Hops travelled so far (0 when leaving the source).
    pub hop: u32,
}

impl GossipMessage {
    /// The copy the source hands itself: multicast `id`, hop 0.
    pub fn origin(id: MessageId) -> Self {
        Self { id, hop: 0 }
    }

    /// The copy a relay forwards: same id, hop incremented.
    pub fn forwarded(self) -> Self {
        Self {
            id: self.id,
            hop: self.hop.saturating_add(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_increments_hop_only() {
        let m = GossipMessage::origin(MessageId(7));
        assert_eq!(m.hop, 0);
        let f = m.forwarded();
        assert_eq!(f, GossipMessage { id: m.id, hop: 1 });
        assert_eq!(f.forwarded().hop, 2);
        // Forwarding copies: the original is untouched.
        assert_eq!(m, GossipMessage::origin(MessageId(7)));
    }

    #[test]
    fn a_copy_is_a_plain_16_byte_value() {
        fn is_copy<T: Copy>() {}
        is_copy::<GossipMessage>();
        assert!(std::mem::size_of::<GossipMessage>() <= 16);
    }

    #[test]
    fn hop_saturates() {
        let mut m = GossipMessage::origin(MessageId(1));
        m.hop = u32::MAX;
        assert_eq!(m.forwarded().hop, u32::MAX);
    }
}
