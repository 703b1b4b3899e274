//! The live-actor harness around every execution: open one endpoint per
//! alive member, pair each with its actor, inject at the source,
//! multiplex the pairs over shard threads, and run them to quiescence —
//! or to the watchdog deadline, so a wedged transport fails the run
//! instead of hanging the caller.
//!
//! The harness knows no protocol: it is generic over the actor state
//! and a frame handler, and owns everything else — threads, the
//! [`Fabric`] in-flight count, the deadline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gossip_model::scenario::Scenario;
use gossip_model::ModelError;
use gossip_stats::parallel::in_parallel_worker;

use crate::backend::shard_count;
use crate::transport::{Endpoint, Fabric, Transport};
use crate::wire::WireMessage;

/// Thread and clock bounds of one live execution.
#[derive(Clone, Copy)]
pub(crate) struct Harness {
    /// Shard threads to multiplex node actors over.
    pub shards: usize,
    /// Watchdog deadline for one execution.
    pub deadline: Duration,
}

impl Harness {
    /// The bounds the scenario's [`RuntimeSpec`] asks for.
    ///
    /// [`RuntimeSpec`]: gossip_model::scenario::RuntimeSpec
    pub fn for_scenario(scenario: &Scenario) -> Self {
        Harness {
            shards: shard_count(
                scenario.n,
                scenario.runtime.max_threads,
                in_parallel_worker(),
            ),
            // The watchdog knob: far beyond any healthy quiescence time,
            // tight enough that a wedged transport fails the run instead
            // of hanging the caller. 0 = the 30 s default.
            deadline: Duration::from_secs(scenario.runtime.watchdog_or_default()),
        }
    }

    /// Runs one live execution over `transport`: `new_actor(id)` builds
    /// the state of every alive member, `injections` are sent to the
    /// (alive) source, and `handle` processes one frame on one actor —
    /// putting its relays on the wire through the endpoint. Returns the
    /// actors with whatever they recorded, or `None` when the watchdog
    /// aborted the run instead of quiescence.
    pub fn run<T: Transport, A: Send>(
        &self,
        transport: &T,
        alive: &[bool],
        source: u32,
        injections: &[WireMessage],
        mut new_actor: impl FnMut(u32) -> A,
        handle: impl Fn(&mut A, &mut T::Endpoint, &WireMessage) + Sync,
    ) -> Result<Option<Vec<A>>, ModelError> {
        let fabric = Fabric::new();
        let mut endpoints = transport.open(alive.len(), alive, &fabric)?;
        let mut pairs: Vec<(A, T::Endpoint)> = Vec::new();
        for (id, slot) in endpoints.iter_mut().enumerate() {
            if let Some(mut ep) = slot.take() {
                if id as u32 == source {
                    for frame in injections {
                        let injected = ep.send(source, frame);
                        debug_assert!(injected, "sending to the alive source cannot fail");
                    }
                }
                pairs.push((new_actor(id as u32), ep));
            }
        }

        // Multiplex actors over the shard threads, round-robin so node
        // ids spread evenly, and run to quiescence.
        let shards = self.shards.clamp(1, pairs.len().max(1));
        let mut groups: Vec<Vec<(A, T::Endpoint)>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, pair) in pairs.into_iter().enumerate() {
            groups[i % shards].push(pair);
        }
        let epoch = Instant::now();
        let fabric_ref: &Arc<Fabric> = &fabric;
        let handle = &handle;
        let actors: Vec<A> = crossbeam::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .map(|group| {
                    scope.spawn(move |_| self.shard_loop(group, handle, fabric_ref, epoch))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard thread panicked"))
                .collect()
        })
        .expect("runtime scope");
        Ok((!fabric.timed_out()).then_some(actors))
    }

    /// The loop a shard thread runs: round-robin over its actors'
    /// inboxes until the fabric reports quiescence (or the deadline
    /// trips).
    fn shard_loop<A, E: Endpoint>(
        &self,
        mut group: Vec<(A, E)>,
        handle: &impl Fn(&mut A, &mut E, &WireMessage),
        fabric: &Fabric,
        epoch: Instant,
    ) -> Vec<A> {
        // Settled only after the frame's relays were themselves counted.
        let process = |(actor, ep): &mut (A, E), msg: &WireMessage| {
            handle(actor, ep, msg);
            fabric.message_settled();
        };
        loop {
            let mut progressed = false;
            for pair in group.iter_mut() {
                while let Some(msg) = pair.1.poll() {
                    process(pair, &msg);
                    progressed = true;
                }
            }
            if fabric.is_done() {
                break;
            }
            if !progressed {
                if epoch.elapsed() > self.deadline {
                    fabric.abort();
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        group.into_iter().map(|(actor, _)| actor).collect()
    }
}
