//! Live multi-message streams: the [`TrafficSpec`] workload executed by
//! real node actors over a real [`Transport`].
//!
//! Where `gossip-traffic`'s round engine *simulates* the stream in one
//! loop, this module runs it: the source injects k rumors per its
//! injection plan, every actor relays first receipts per message, and
//! two traffic mechanisms ride on the virtual clock:
//!
//! * **Piggybacking** — an arrival group of new message indices travels
//!   as one [`WireMessage`] with up to `frame_limit` ids in its `ids`
//!   field: one fanout draw and one frame-budget slot amortized over
//!   the whole group (a dropped or lost frame loses all of them —
//!   shared fate, exactly like the round engine).
//! * **Token-bucket pacing** — each node may put at most B frames on
//!   the wire per virtual round (one round = the constant hop latency).
//!   The bucket is arithmetic on the virtual clock: a frame scheduled
//!   past the budget is deferred whole rounds (queueing delay that
//!   compounds downstream), and a backlog deeper than `queue_capacity`
//!   frames tail-drops, counted per id.
//!
//! ## Determinism, scoped honestly
//!
//! With batching off, every relay decision for message m at node v is
//! drawn from an RNG derived from `(execution seed, v, m)` — the
//! delivered set per message is a pure function of the seed, exactly
//! like the single-message execution. With piggybacking on, the *group*
//! a node relays depends on which frame physically arrived first, so
//! batched live streams are best-effort deterministic: aggregates are
//! stable, byte-identity is not promised (the round engine is the
//! deterministic reference for batched streams). Token-bucket state is
//! shared across messages and therefore also order-dependent; its
//! effects are likewise aggregate-level.

use gossip_faults::FaultSpec;
use gossip_model::distribution::FanoutDistribution;
use gossip_model::reduce::{self, StreamExecution};
use gossip_model::scenario::{FailureSpec, LatencySpec, ProtocolSpec, Report, Scenario};
use gossip_model::ModelError;
use gossip_stats::rng::streams::STREAM_NODE;
use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};
use gossip_traffic::{injection_rounds, merge_histogram, TrafficSpec, TRAFFIC_PLAN_STREAM};

use crate::backend::SOURCE;
use crate::exec::failure_layout;
use crate::harness::Harness;
use crate::transport::{Endpoint, Transport};
use crate::wire::WireMessage;

const NS_PER_MS: u64 = 1_000_000;

/// The virtual-clock token bucket: B frame slots per round of
/// `round_ns`, deferral in whole rounds, tail-drop past `capacity`
/// queued frames. Uncapped buckets send at the ready time unchanged.
struct Bucket {
    round_ns: u64,
    bandwidth: u64,
    capacity: u64,
    /// Next window with free slots, and slots used in it.
    window: u64,
    used: u64,
}

impl Bucket {
    fn new(round_ns: u64, bandwidth: Option<usize>, capacity: usize) -> Self {
        Bucket {
            round_ns: round_ns.max(1),
            bandwidth: bandwidth.map_or(u64::MAX, |b| b as u64),
            capacity: capacity as u64,
            window: 0,
            used: 0,
        }
    }

    /// Schedules a frame that becomes ready at `ready_ns`: the virtual
    /// send time (≥ ready), or `None` when the backlog would exceed the
    /// queue capacity.
    fn schedule(&mut self, ready_ns: u64) -> Option<u64> {
        if self.bandwidth == u64::MAX {
            return Some(ready_ns);
        }
        let w = ready_ns / self.round_ns;
        if w > self.window {
            self.window = w;
            self.used = 0;
        }
        let backlog = (self.window - w).saturating_mul(self.bandwidth) + self.used;
        if backlog >= self.capacity {
            return None;
        }
        let send_ns = ready_ns.max(self.window * self.round_ns);
        self.used += 1;
        if self.used >= self.bandwidth {
            self.window += 1;
            self.used = 0;
        }
        Some(send_ns)
    }
}

/// Per-node stream state: one receipt flag per message, the shared
/// token bucket, and locally accumulated metrics merged after join.
struct StreamActor {
    id: u32,
    n: u32,
    exec_seed: u64,
    seen: Vec<bool>,
    bucket: Bucket,
    /// Delivery-delay histogram in rounds since each message's
    /// injection (source receipts land in bin 0).
    hist: Vec<u64>,
    max_round: u64,
    copies_dropped: u64,
    copies_sent: u64,
    copies_lost: u64,
}

/// Everything one live stream execution needs.
pub(crate) struct StreamExecParams<'a> {
    pub n: usize,
    pub dist: &'a dyn FanoutDistribution,
    pub loss: f64,
    pub hop_ms: u64,
    pub spec: &'a TrafficSpec,
    pub injections: &'a [u64],
    /// Static crashes only: `None` or `Random` (schedules are refused).
    pub failure: &'a FailureSpec,
    pub harness: Harness,
}

impl StreamActor {
    fn new(id: u32, total: usize, exec_seed: u64, p: &StreamExecParams<'_>) -> Self {
        StreamActor {
            id,
            n: total as u32,
            exec_seed,
            seen: vec![false; p.injections.len()],
            bucket: Bucket::new(
                p.hop_ms * NS_PER_MS,
                p.spec.bandwidth,
                p.spec.queue_capacity,
            ),
            hist: Vec::new(),
            max_round: 0,
            copies_dropped: 0,
            copies_sent: 0,
            copies_lost: 0,
        }
    }

    fn record_delivery(&mut self, msg: u32, arrival_ns: u64, p: &StreamExecParams<'_>) {
        let inject_round = p.injections[msg as usize];
        let inject_ns = inject_round * p.hop_ms * NS_PER_MS;
        let delta_rounds = arrival_ns.saturating_sub(inject_ns) / (p.hop_ms * NS_PER_MS).max(1);
        let idx = delta_rounds as usize;
        if self.hist.len() <= idx {
            self.hist.resize(idx + 1, 0);
        }
        self.hist[idx] += 1;
        self.max_round = self.max_round.max(inject_round + delta_rounds);
    }

    /// Relays one arrival group of new message indices: one fanout draw
    /// for the whole group, frames chunked to the frame limit, each
    /// scheduled through the token bucket and loss-drawn. The RNG is
    /// derived from `(seed, node, first id of the group)`, which makes
    /// unbatched relays (groups of one) order-independent. `hop` is the
    /// relay depth stamped on the outgoing frames.
    fn relay_group<E: Endpoint>(
        &mut self,
        ep: &mut E,
        group: &[u32],
        ready_ns: u64,
        hop: u32,
        p: &StreamExecParams<'_>,
    ) {
        let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(
            SplitMix64::derive(
                SplitMix64::derive(self.exec_seed, STREAM_NODE),
                self.id as u64,
            ),
            group[0] as u64,
        ));
        let others = (self.n - 1) as usize;
        let fanout = p.dist.sample(&mut rng).min(others);
        let mut targets: Vec<u32> = Vec::with_capacity(fanout);
        while targets.len() < fanout {
            let mut v = rng.next_below(self.n as u64 - 1) as u32;
            if v >= self.id {
                v += 1;
            }
            if !targets.contains(&v) {
                targets.push(v);
            }
        }
        let frame_limit = p.spec.frame_limit();
        for &to in &targets {
            for chunk in group.chunks(frame_limit) {
                let Some(send_ns) = self.bucket.schedule(ready_ns) else {
                    self.copies_dropped += chunk.len() as u64;
                    continue;
                };
                self.copies_sent += chunk.len() as u64;
                let lost = p.loss > 0.0 && rng.next_f64() < p.loss;
                if lost {
                    self.copies_lost += chunk.len() as u64;
                    continue;
                }
                let msg = WireMessage {
                    id: self.exec_seed,
                    from: self.id,
                    hop,
                    arrival_virtual_ns: send_ns + p.hop_ms * NS_PER_MS,
                    ids: chunk.to_vec(),
                };
                if !ep.send(to, &msg) {
                    // Crashed peer: absorbed in transit, same ledger
                    // line as channel loss.
                    self.copies_lost += chunk.len() as u64;
                }
            }
        }
    }

    /// Processes one frame: mark unseen ids delivered, then relay them —
    /// as one piggybacked group when batching is on, id by id when off.
    fn handle<E: Endpoint>(&mut self, msg: &WireMessage, ep: &mut E, p: &StreamExecParams<'_>) {
        let mut new_ids: Vec<u32> = Vec::with_capacity(msg.ids.len());
        for &m in &msg.ids {
            if !self.seen[m as usize] {
                self.seen[m as usize] = true;
                self.record_delivery(m, msg.arrival_virtual_ns, p);
                new_ids.push(m);
            }
        }
        if new_ids.is_empty() {
            return;
        }
        let group_size = if p.spec.batched() { new_ids.len() } else { 1 };
        for group in new_ids.chunks(group_size) {
            self.relay_group(ep, group, msg.arrival_virtual_ns, msg.hop + 1, p);
        }
    }
}

/// Runs one live stream execution over `transport`: its digest and its
/// delivery-delay histogram, or `None` when the watchdog aborted it.
fn run_stream_execution<T: Transport>(
    transport: &T,
    p: &StreamExecParams<'_>,
    exec_seed: u64,
) -> Result<Option<(StreamExecution, Vec<u64>)>, ModelError> {
    let n = p.n;
    let k = p.injections.len();
    // The paper's failure model, the same draw as the single-message
    // execution: each non-source member up with probability q.
    let alive = failure_layout(n, SOURCE, p.failure, &FaultSpec::default(), None, exec_seed)?.alive;

    // The plan's injection frames: messages sharing an injection round
    // form one arrival group, so piggybacking applies to bursts.
    let chunk_size = if p.spec.batched() {
        p.spec.frame_limit()
    } else {
        1
    };
    let mut injections: Vec<WireMessage> = Vec::new();
    let mut start = 0usize;
    while start < k {
        let round = p.injections[start];
        let mut end = start;
        while end < k && p.injections[end] == round {
            end += 1;
        }
        let group: Vec<u32> = (start as u32..end as u32).collect();
        for chunk in group.chunks(chunk_size) {
            injections.push(WireMessage {
                id: exec_seed,
                from: SOURCE,
                hop: 0,
                arrival_virtual_ns: round * p.hop_ms * NS_PER_MS,
                ids: chunk.to_vec(),
            });
        }
        start = end;
    }

    let Some(actors) = p.harness.run(
        transport,
        &alive,
        SOURCE,
        &injections,
        |id| StreamActor::new(id, n, exec_seed, p),
        |actor, ep, msg| actor.handle(msg, ep, p),
    )?
    else {
        return Ok(None);
    };

    let mut reached = vec![0u32; k];
    let mut hist: Vec<u64> = Vec::new();
    let mut max_round = 0u64;
    let (mut dropped, mut sent, mut lost) = (0u64, 0u64, 0u64);
    for actor in &actors {
        for (m, &seen) in actor.seen.iter().enumerate() {
            if seen {
                reached[m] += 1;
            }
        }
        merge_histogram(&mut hist, &actor.hist);
        max_round = max_round.max(actor.max_round);
        dropped += actor.copies_dropped;
        sent += actor.copies_sent;
        lost += actor.copies_lost;
    }
    let digest = StreamExecution {
        reached,
        nonfailed: alive.iter().filter(|&&a| a).count(),
        rounds: max_round,
        copies_sent: sent,
        copies_dropped: dropped,
        copies_lost: lost,
    };
    Ok(Some((digest, hist)))
}

/// Why this scenario's stream cannot run live, if it can't. Live
/// streams model the paper's base system only: complete view, push
/// relay, static crashes, constant hop latency (the token bucket's
/// round is the hop).
fn check_stream_support(backend: &'static str, scenario: &Scenario) -> Result<(), ModelError> {
    let what = if scenario.protocol != ProtocolSpec::Push {
        Some("multi-message traffic for flood variants (live streams use the push relay)")
    } else if !scenario.topology.is_default() {
        Some("multi-message traffic over structured overlays (live streams run on the complete view)")
    } else if !scenario.faults.is_default() {
        Some("multi-message traffic under dynamic fault injection (live streams model static crashes only)")
    } else if matches!(scenario.failure, FailureSpec::Schedule { .. }) {
        Some(
            "crash schedules under multi-message traffic (live streams draw static crashes from q)",
        )
    } else if !matches!(scenario.latency, LatencySpec::ConstantMillis { .. }) {
        Some("multi-message traffic under stochastic latency (the token bucket's round is the constant hop; use ConstantMillis)")
    } else {
        None
    };
    match what {
        Some(what) => Err(ModelError::Unsupported { backend, what }),
        None => Ok(()),
    }
}

/// Evaluates the scenario's [`TrafficSpec`] live: sequential
/// replications (each already fans out over shard threads), reduced by
/// [`gossip_model::reduce::stream`] to the same [`Report`] shape as the
/// simulation backends — with throughput priced on the virtual clock,
/// so reports stay free of wall-clock scheduling noise.
pub(crate) fn evaluate_stream_over<T: Transport>(
    transport: &T,
    scenario: &Scenario,
    backend_name: &str,
) -> Result<Report, ModelError> {
    check_stream_support(transport.name(), scenario)?;
    let spec = scenario
        .traffic
        .expect("stream evaluation is only dispatched when traffic is present");
    let hop_ms = match scenario.latency {
        LatencySpec::ConstantMillis { ms } => ms.max(1),
        _ => unreachable!("stochastic latency was refused by check_stream_support"),
    };
    let dist = scenario.fanout.build()?;
    let injections = injection_rounds(
        &spec.arrival,
        spec.messages,
        SplitMix64::derive(scenario.seed, TRAFFIC_PLAN_STREAM),
    );
    let params = StreamExecParams {
        n: scenario.n,
        dist: &*dist,
        loss: scenario.loss,
        hop_ms,
        spec: &spec,
        injections: &injections,
        failure: &scenario.failure,
        harness: Harness::for_scenario(scenario),
    };

    let mut executions: Vec<StreamExecution> = Vec::with_capacity(scenario.replications);
    let mut hist: Vec<u64> = Vec::new();
    for rep in 0..scenario.replications {
        let seed = SplitMix64::derive(scenario.seed, rep as u64);
        let (digest, rep_hist) =
            run_stream_execution(transport, &params, seed)?.ok_or(ModelError::NoConvergence {
                what: "runtime stream quiescence (a live execution hit its watchdog deadline)",
                iterations: rep,
            })?;
        merge_histogram(&mut hist, &rep_hist);
        executions.push(digest);
    }
    reduce::stream(
        backend_name,
        Some(transport.name()),
        scenario,
        &*dist,
        Some(hop_ms),
        &executions,
        &hist,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_uncapped_passes_through() {
        let mut b = Bucket::new(NS_PER_MS, None, 4);
        assert_eq!(b.schedule(123), Some(123));
        assert_eq!(b.schedule(456), Some(456));
    }

    #[test]
    fn bucket_defers_past_budget_and_drops_past_capacity() {
        // B = 2 per round, capacity 4 backlogged slots.
        let mut b = Bucket::new(NS_PER_MS, Some(2), 4);
        // Round 0: two slots at the ready time.
        assert_eq!(b.schedule(0), Some(0));
        assert_eq!(b.schedule(0), Some(0));
        // Third and fourth frames defer one whole round.
        assert_eq!(b.schedule(0), Some(NS_PER_MS));
        assert_eq!(b.schedule(0), Some(NS_PER_MS));
        // Backlog relative to round 0 hit the capacity: drop.
        assert_eq!(b.schedule(0), None);
        // A frame ready in a later round starts a fresh window.
        assert_eq!(b.schedule(5 * NS_PER_MS), Some(5 * NS_PER_MS));
    }

    /// A fake endpoint: logs every send, never receives.
    struct Capture(Vec<WireMessage>);

    impl Endpoint for Capture {
        fn send(&mut self, _to: u32, msg: &WireMessage) -> bool {
            self.0.push(msg.clone());
            true
        }
        fn poll(&mut self) -> Option<WireMessage> {
            None
        }
    }

    #[test]
    fn relayed_frames_carry_the_incoming_hop_plus_one() {
        let dist = gossip_model::distribution::FixedFanout::new(4);
        for (spec, frames) in [
            // Unbatched: 2 new ids × 4 targets, one frame each.
            (TrafficSpec::stream(2), 8),
            // Piggybacked: both ids ride one frame per target.
            (TrafficSpec::stream(2).with_piggyback(4), 4),
        ] {
            let p = StreamExecParams {
                n: 10,
                dist: &dist,
                loss: 0.0,
                hop_ms: 1,
                spec: &spec,
                injections: &[0, 0],
                failure: &FailureSpec::None,
                harness: Harness {
                    shards: 1,
                    pacing_micros_per_milli: 0,
                    deadline: std::time::Duration::from_secs(1),
                },
            };
            let mut actor = StreamActor::new(5, 10, 42, &p);
            let mut ep = Capture(Vec::new());
            let deep = WireMessage {
                id: 42,
                from: 2,
                hop: 3,
                arrival_virtual_ns: 3 * NS_PER_MS,
                ids: vec![0, 1],
            };
            actor.handle(&deep, &mut ep, &p);
            assert_eq!(ep.0.len(), frames);
            assert!(
                ep.0.iter().all(|relay| relay.hop == 4),
                "relays of a hop-3 frame must be stamped hop 4"
            );
            // A duplicate receipt relays nothing.
            actor.handle(&deep, &mut ep, &p);
            assert_eq!(ep.0.len(), frames);
        }
    }
}
