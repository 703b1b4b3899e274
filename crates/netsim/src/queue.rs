//! The future-event list: a FIFO lane beside a binary min-heap, both
//! keyed on `(time, seq)`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::event::{Event, EventKind, NodeId};
use crate::time::SimTime;

/// A heap entry: the event's order key and the slab slot holding its
/// body. `seq` is unique, so `slot` never decides a comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

/// Priority queue of pending events, earliest first; FIFO among
/// simultaneous events (via the insertion sequence number), which makes
/// runs bit-reproducible.
///
/// Two structures hold the pending events:
///
/// * the **lane**, a `VecDeque` of whole events. An event joins it when
///   the lane is empty or its time is no earlier than the lane's last
///   event. Every `seq` is larger than all before it, so the lane
///   stays sorted by `(time, seq)` and its front is its minimum;
/// * the **heap** of 24-byte `(time, seq, slot)` keys for every other
///   event. `slot` points into a slab of event bodies whose freed
///   slots are reused, so the heap moves keys, not whole events.
///
/// [`pop`](Self::pop) takes the smaller `(time, seq)` of the two
/// fronts. Keys are unique, so the pop order is exactly that of one
/// heap over all events. When every event is scheduled a constant
/// delay after the one being handled (constant latency), schedules are
/// monotone and the heap is never touched.
#[derive(Debug)]
pub struct EventQueue<M> {
    lane: VecDeque<Event<M>>,
    heap: BinaryHeap<Reverse<Key>>,
    slab: Vec<Option<(NodeId, EventKind<M>)>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with reserved capacity for `cap`
    /// out-of-order events (the in-order lane grows on demand).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            lane: VecDeque::new(),
            heap: BinaryHeap::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `kind` at absolute time `time` for `target`.
    pub fn schedule(&mut self, time: SimTime, target: NodeId, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.lane.back().is_none_or(|last| time >= last.time) {
            self.lane.push_back(Event {
                time,
                seq,
                target,
                kind,
            });
            return;
        }
        let body = Some((target, kind));
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = body;
                slot
            }
            None => {
                self.slab.push(body);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Reverse(Key { time, seq, slot }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<M>> {
        let from_heap = match (self.lane.front(), self.heap.peek()) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(l), Some(Reverse(h))) => (h.time, h.seq) < (l.time, l.seq),
        };
        if !from_heap {
            return self.lane.pop_front();
        }
        let Reverse(Key { time, seq, slot }) = self.heap.pop()?;
        let (target, kind) = self.slab[slot as usize]
            .take()
            .expect("a heap key points at a live body");
        self.free.push(slot);
        Some(Event {
            time,
            seq,
            target,
            kind,
        })
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lane.front().map(|e| e.time);
        let heap = self.heap.peek().map(|Reverse(k)| k.time);
        match (lane, heap) {
            (Some(l), Some(h)) => Some(l.min(h)),
            (l, h) => l.or(h),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Drops all pending events (sequence counter keeps advancing so
    /// determinism is unaffected).
    pub fn clear(&mut self) {
        self.lane.clear();
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 0, EventKind::Timer { id: 3 });
        q.schedule(SimTime::from_nanos(10), 0, EventKind::Timer { id: 1 });
        q.schedule(SimTime::from_nanos(20), 0, EventKind::Timer { id: 2 });
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { id } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for id in 0..100u64 {
            q.schedule(t, 0, EventKind::Timer { id });
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { id } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_len_clear() {
        let mut q: EventQueue<u8> = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(7), 1, EventKind::Crash);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 0, EventKind::Timer { id: 1 });
        let first = q.pop().unwrap();
        assert_eq!(first.time, SimTime::from_nanos(10));
        // Scheduling after popping keeps the global sequence monotone.
        q.schedule(SimTime::from_nanos(10), 0, EventKind::Timer { id: 2 });
        q.schedule(SimTime::from_nanos(10), 0, EventKind::Timer { id: 3 });
        let second = q.pop().unwrap();
        let third = q.pop().unwrap();
        assert!(second.seq < third.seq);
    }

    #[test]
    fn monotone_schedule_never_touches_the_heap() {
        // Constant latency: each handled event schedules a few more at
        // `now + d`, the way every delivery at one latency does.
        let d = 1_000_000;
        let mut q: EventQueue<u8> = EventQueue::with_capacity(8);
        q.schedule(SimTime::ZERO, 0, EventKind::Timer { id: 0 });
        let mut popped = 0u64;
        let mut last = (SimTime::ZERO, 0);
        while let Some(e) = q.pop() {
            assert!((e.time, e.seq) >= last, "pop order went backwards");
            last = (e.time, e.seq);
            popped += 1;
            if popped < 1_000 {
                for id in 0..3 {
                    q.schedule(
                        e.time + SimDuration::from_nanos(d),
                        1,
                        EventKind::Timer { id },
                    );
                }
            }
            assert!(q.heap.is_empty() && q.slab.is_empty());
        }
        assert_eq!(popped, 1 + 3 * 999);
    }

    #[test]
    fn heap_slots_are_reused() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), 0, EventKind::Crash);
        for round in 0..50u64 {
            // Earlier than the lane's last event: each goes to the heap.
            q.schedule(
                SimTime::from_nanos(round),
                0,
                EventKind::Timer { id: round },
            );
            assert_eq!(q.pop().map(|e| e.seq), Some(round + 1));
        }
        assert_eq!(q.slab.len(), 1, "a freed slot is taken again");
        assert_eq!(q.pop().map(|e| e.kind), Some(EventKind::Crash));
        assert!(q.pop().is_none());
    }
}
