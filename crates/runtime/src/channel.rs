//! The in-process channel transport: one mutex-guarded mailbox per
//! member, shared by every endpoint.
//!
//! Delivery never fails for an alive peer: loss and latency are
//! injected by the *sender* from seed-derived draws (see the crate's
//! `exec` module, which also states what replays byte for byte). It is
//! the fast transport: a send is one lock + one `VecDeque` push.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use gossip_model::ModelError;

use crate::transport::{Endpoint, Fabric, Transport};
use crate::wire::WireMessage;

/// Shared state of one channel-connected group.
struct Group {
    mailboxes: Vec<Mutex<VecDeque<WireMessage>>>,
    alive: Vec<bool>,
}

/// The in-process transport (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelTransport;

/// One member's handle on the shared mailboxes.
pub struct ChannelEndpoint {
    id: u32,
    group: Arc<Group>,
    fabric: Arc<Fabric>,
}

impl Endpoint for ChannelEndpoint {
    fn send(&mut self, to: u32, msg: &WireMessage) -> bool {
        let to = to as usize;
        if to >= self.group.alive.len() || !self.group.alive[to] {
            return false;
        }
        self.fabric.message_sent();
        self.group.mailboxes[to]
            .lock()
            .expect("mailbox lock poisoned")
            .push_back(msg.clone());
        true
    }

    fn poll(&mut self) -> Option<WireMessage> {
        self.group.mailboxes[self.id as usize]
            .lock()
            .expect("mailbox lock poisoned")
            .pop_front()
    }
}

impl Transport for ChannelTransport {
    type Endpoint = ChannelEndpoint;

    fn name(&self) -> &'static str {
        "channel"
    }

    fn open(
        &self,
        n: usize,
        alive: &[bool],
        fabric: &Arc<Fabric>,
    ) -> Result<Vec<Option<ChannelEndpoint>>, ModelError> {
        let group = Arc::new(Group {
            mailboxes: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            alive: alive.to_vec(),
        });
        Ok((0..n as u32)
            .map(|id| {
                alive[id as usize].then(|| ChannelEndpoint {
                    id,
                    group: group.clone(),
                    fabric: fabric.clone(),
                })
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_poll_and_dead_peer() {
        let fabric = Fabric::new();
        let alive = [true, true, false];
        let mut eps = ChannelTransport.open(3, &alive, &fabric).unwrap();
        let msg = WireMessage {
            id: 9,
            from: 0,
            hop: 0,
            arrival_virtual_ns: 0,
            ids: vec![0],
        };
        // Alive peer: delivered and counted in flight.
        let mut a = eps[0].take().unwrap();
        let mut b = eps[1].take().unwrap();
        assert!(a.send(1, &msg));
        assert!(!fabric.is_done());
        assert_eq!(b.poll(), Some(msg.clone()));
        assert_eq!(b.poll(), None);
        fabric.message_settled();
        assert!(fabric.is_done());
        // Dead peer: refused, not counted.
        assert!(!a.send(2, &msg));
        assert!(eps[2].is_none(), "dead members get no endpoint");
    }
}
