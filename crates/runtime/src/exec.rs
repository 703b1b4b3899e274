//! One live execution: spawn node actors on real threads, inject the
//! plan's frames at the source, run the paper's push algorithm (Fig. 1)
//! over a [`Transport`], and keep a record of every frame each actor
//! put on the wire.
//!
//! A single broadcast is the k = 1 stream: one injection frame of
//! message 0, relayed through an uncapped token bucket (a one-message
//! plan leaves `ids` empty on the wire, see `ExecParams::wire_ids`). A
//! [`TrafficSpec`] stream injects its k rumors per the injection plan,
//! and two traffic mechanisms ride on the virtual clock:
//!
//! * **Piggybacking** — an arrival group of new message ids travels as
//!   one [`WireMessage`] with up to `frame_limit` ids: one fanout draw
//!   and one bucket slot per frame amortized over the whole group (a
//!   dropped or lost frame loses all of them — shared fate, exactly like
//!   the round engine).
//! * **Token-bucket pacing** — each node may put at most B frames on the
//!   wire per virtual round (one round = the constant hop latency). A
//!   frame scheduled past the budget is deferred whole rounds, and a
//!   backlog deeper than `queue_capacity` frames tail-drops, counted per
//!   id.
//!
//! ## Determinism
//!
//! Every relay draw — fanout, targets, loss, latency — comes from one
//! stream per (execution, node, first message id of the arrival group),
//! and a node's Gilbert-Elliott chain starts from a per-node stream
//! under the same tag. Every metric is read off the recorded relay
//! graph, never off arrival order: member v's first-receipt round for
//! message m is the shortest path from the source to v over the members
//! holding m, along the successful frames that carried m, each frame
//! weighing 1 plus its token-bucket deferral in whole rounds (uncapped,
//! the BFS depth of the relays). Hence:
//!
//! * **seed-pure** — byte-identical reports at any shard width: the
//!   single broadcast, and unbatched uncapped streams;
//! * **aggregate-stable** — the same distribution, not the same bytes:
//!   batched or capped streams, where the group a node relays and the
//!   state of its bucket depend on which frame physically arrived
//!   first; and anything gated on a frame's virtual arrival stamp
//!   (scheduled crashes and zone kills, churn join gates, the
//!   joined-member target filter), where the physically first copy's
//!   stamp decides.
//!
//! ## Faults
//!
//! The [`gossip_faults::FaultSpec`] riding on the scenario injects into
//! the live run directly: churn adds dormant actors that ignore frames
//! stamped before their join time (and removes leavers via the crash
//! schedule), correlated zone failures become scheduled crashes of
//! whole zones, Gilbert-Elliott bursty loss replaces the i.i.d. loss
//! draw with a per-sender two-state chain, and an adversary's blocked
//! links drop matching frames at the sender before any loss draw.
//!
//! ## Quiescence
//!
//! A node relays each message once, so an execution is over when no
//! frame is in flight; the shared [`Fabric`](crate::Fabric) counter
//! detects that exactly (see its docs), and the [`Harness`] watchdog
//! aborts a wedged run rather than hanging the caller.

use std::ops::Range;

use gossip_faults::{BlockedLinks, ChurnPlan, GeChain, GilbertElliott};
use gossip_model::distribution::FanoutDistribution;
use gossip_model::reduce::{Execution, StreamExecution};
use gossip_model::scenario::{FailureSpec, LatencySpec, ProtocolSpec, Scenario};
use gossip_model::ModelError;
use gossip_stats::rng::{sample_distinct_excluding, streams, SplitMix64, Xoshiro256StarStar};
use gossip_topology::{select_targets, PeerSelection, Topology};
use gossip_traffic::{injection_rounds, TrafficSpec, TRAFFIC_PLAN_STREAM};

use crate::backend::SOURCE;
use crate::harness::Harness;
use crate::transport::{Endpoint, Transport};
use crate::wire::WireMessage;

pub(crate) const NS_PER_MS: u64 = 1_000_000;

/// Everything one execution needs, fixed per evaluation.
pub(crate) struct ExecParams<'a> {
    scenario: &'a Scenario,
    dist: &'a dyn FanoutDistribution,
    /// The scenario's stream, or the k = 1 plan of a single broadcast.
    traffic: TrafficSpec,
    /// Injection round of every message, nondecreasing.
    pub injections: Vec<u64>,
    /// Latency of one hop (a stream's is its constant round).
    latency: LatencySpec,
    /// One virtual round: the token bucket's period.
    pub round_ns: u64,
    harness: Harness,
}

impl<'a> ExecParams<'a> {
    /// The plan `scenario` executes under. A stream runs on the constant
    /// hop (`gossip_model::support` refuses any other latency); a single
    /// broadcast's uncapped bucket never reads the round.
    pub fn new(scenario: &'a Scenario, dist: &'a dyn FanoutDistribution) -> Self {
        let traffic = scenario.traffic.unwrap_or(TrafficSpec::stream(1));
        let hop_ms = match scenario.latency {
            LatencySpec::ConstantMillis { ms } => ms.max(1),
            _ => 1,
        };
        ExecParams {
            scenario,
            dist,
            traffic,
            injections: injection_rounds(
                &traffic.arrival,
                traffic.messages,
                SplitMix64::derive(scenario.seed, TRAFFIC_PLAN_STREAM),
            ),
            latency: match scenario.traffic {
                Some(_) => LatencySpec::ConstantMillis { ms: hop_ms },
                None => scenario.latency,
            },
            round_ns: hop_ms * NS_PER_MS,
            harness: Harness::for_scenario(scenario),
        }
    }

    /// The ids a frame relaying `ids` carries on the wire: none in a
    /// one-message plan, where there is nothing to tell apart. There a
    /// one-element list would cost every frame of the single broadcast a
    /// heap allocation made on one shard thread and freed on another as
    /// the channel transport moves the frame.
    fn wire_ids<'b>(&self, ids: &'b [u32]) -> &'b [u32] {
        if self.injections.len() == 1 {
            &[]
        } else {
            ids
        }
    }

    /// The ids `msg` relays: message 0 on every frame of a one-message
    /// plan.
    fn relayed<'b>(&self, msg: &'b WireMessage) -> &'b [u32] {
        if self.injections.len() == 1 {
            &[0]
        } else {
            &msg.ids
        }
    }
}

/// A structured overlay instantiated for one execution: actors gossip
/// only along its edges, targets picked by the configured policy.
struct Overlay {
    topology: Topology,
    selection: PeerSelection,
}

/// Read-only per-execution context shared by every shard thread.
struct ExecCtx {
    /// Root of every actor's draws.
    seed: u64,
    /// `None` = complete graph with uniform selection (the paper's
    /// baseline). Rebuilt per execution so overlays resample across
    /// replications.
    overlay: Option<Overlay>,
    blocked: Option<BlockedLinks>,
    ge: Option<GilbertElliott>,
    /// By member id (`n` plus churn joiners): when it crashes, when it
    /// joins (`None` = stays up, initial member).
    crash_at_ns: Vec<Option<u64>>,
    join_at_ns: Vec<Option<u64>>,
    /// Under churn, targets are drawn among the members already joined.
    churn: bool,
}

impl ExecCtx {
    fn new(p: &ExecParams<'_>, layout: &mut FailureLayout, exec_seed: u64) -> Self {
        let s = p.scenario;
        let total = layout.alive.len();
        ExecCtx {
            seed: SplitMix64::derive(exec_seed, streams::ACTOR),
            overlay: (!s.topology.is_default()).then(|| Overlay {
                topology: s.topology.build(
                    s.n,
                    SplitMix64::derive(exec_seed, streams::RUNTIME_TOPOLOGY),
                ),
                selection: s.topology.selection,
            }),
            blocked: s.faults.adversary.as_ref().map(|adv| {
                let seed = SplitMix64::derive(exec_seed, streams::ADVERSARY);
                BlockedLinks::build(total, SOURCE, adv, seed)
            }),
            ge: s.faults.bursty_loss.as_ref().map(GilbertElliott::new),
            crash_at_ns: std::mem::take(&mut layout.crash_at_ns),
            join_at_ns: std::mem::take(&mut layout.join_at_ns),
            churn: s.faults.churn.is_some(),
        }
    }

    /// Member `id`'s draws: the Gilbert-Elliott chain start, and mixed
    /// with the first message id of an arrival group, that group's relay.
    fn node_seed(&self, id: u32) -> u64 {
        SplitMix64::derive(self.seed, id as u64)
    }
}

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

    /// Schedules a frame that becomes ready at `ready_ns` (a round
    /// boundary): its deferral in whole rounds, or `None` when the
    /// backlog would exceed the queue capacity.
    fn schedule(&mut self, ready_ns: u64) -> Option<u64> {
        if self.bandwidth == u64::MAX {
            return Some(0);
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
        let deferral = self.window - w;
        self.used += 1;
        if self.used >= self.bandwidth {
            self.window += 1;
            self.used = 0;
        }
        Some(deferral)
    }
}

/// One frame an actor scheduled onto the wire.
struct Frame {
    to: u32,
    /// The ids it carried, as positions in the sender's receipt order.
    span: Range<u32>,
    /// 1 + its token-bucket deferral, in whole rounds.
    weight: u32,
    /// Lost to the adversary, the channel, or a dead peer.
    lost: bool,
}

/// Marks a message an actor has not received.
const UNSEEN: u32 = u32::MAX;

/// Per-node protocol state — the actor — and its share of the record.
struct Actor {
    id: u32,
    /// This node's uplink state of the Gilbert-Elliott channel: one
    /// chain per sender, so consecutive transmissions share the burst.
    chain: Option<GeChain>,
    /// Per message id: its position in this node's receipt order, or
    /// [`UNSEEN`].
    receipt: Vec<u32>,
    received: u32,
    bucket: Bucket,
    frames: Vec<Frame>,
    /// Copies tail-dropped at the full send queue.
    dropped: u64,
}

impl Actor {
    fn new(id: u32, p: &ExecParams<'_>, ctx: &ExecCtx) -> Self {
        Actor {
            id,
            // A stationary start, so short executions see the long-run
            // loss mix.
            chain: ctx
                .ge
                .as_ref()
                .map(|ge| GeChain::start(ge, &mut Xoshiro256StarStar::new(ctx.node_seed(id)))),
            receipt: vec![UNSEEN; p.injections.len()],
            received: 0,
            bucket: Bucket::new(p.round_ns, p.traffic.bandwidth, p.traffic.queue_capacity),
            frames: Vec::new(),
            dropped: 0,
        }
    }

    /// Fig. 1, live: a frame that reaches this process before it joined
    /// or after it crashed is absorbed, duplicate ids are discarded, and
    /// the new ids are relayed — as one piggybacked group when batching
    /// is on, id by id when off.
    fn process<E: Endpoint>(
        &mut self,
        ep: &mut E,
        msg: &WireMessage,
        p: &ExecParams<'_>,
        ctx: &ExecCtx,
    ) {
        if self.received as usize == self.receipt.len() {
            return; // holds every message already: a duplicate
        }
        let (now, id) = (msg.arrival_virtual_ns, self.id as usize);
        if ctx.join_at_ns[id].is_some_and(|t| now < t)
            || ctx.crash_at_ns[id].is_some_and(|t| now >= t)
        {
            return;
        }
        let first = self.received;
        let mut batch: Vec<u32> = Vec::new();
        for &m in p.relayed(msg) {
            if self.receipt[m as usize] != UNSEEN {
                continue; // a duplicate: discarded
            }
            let pos = self.received;
            self.receipt[m as usize] = pos;
            self.received += 1;
            if p.traffic.batched() {
                batch.push(m);
            } else {
                self.relay_group(ep, &[m], pos, msg, p, ctx);
            }
        }
        if !batch.is_empty() {
            self.relay_group(ep, &batch, first, msg, p, ctx);
        }
    }

    /// Relays one arrival group (its first id at receipt position `at`):
    /// one fanout draw and one target pick for the whole group, frames
    /// chunked to the frame limit, each scheduled through the token
    /// bucket, then blocked or loss-drawn, and stamped with the incoming
    /// hop + 1.
    fn relay_group<E: Endpoint>(
        &mut self,
        ep: &mut E,
        group: &[u32],
        at: u32,
        msg: &WireMessage,
        p: &ExecParams<'_>,
        ctx: &ExecCtx,
    ) {
        let seed = SplitMix64::derive(ctx.node_seed(self.id), group[0] as u64);
        let mut rng = Xoshiro256StarStar::new(seed);
        let ready_ns = msg.arrival_virtual_ns;
        let limit = p.traffic.frame_limit();
        let mut frame = WireMessage {
            id: msg.id,
            from: self.id,
            hop: msg.hop + 1,
            arrival_virtual_ns: 0,
            ids: Vec::new(),
        };
        let targets = self.targets(&mut rng, ready_ns, p, ctx);
        self.frames
            .reserve(targets.len() * group.len().div_ceil(limit));
        for to in targets {
            for (c, chunk) in group.chunks(limit).enumerate() {
                let Some(deferral) = self.bucket.schedule(ready_ns) else {
                    self.dropped += chunk.len() as u64;
                    continue;
                };
                // The adversary's verdict comes first and skips the loss
                // draw, so blocking links never perturbs the draws of
                // the surviving ones.
                let lost = if ctx.blocked.as_ref().is_some_and(|b| b.blocks(self.id, to)) {
                    true
                } else if let (Some(ge), Some(chain)) = (&ctx.ge, &mut self.chain) {
                    chain.transmit(ge, &mut rng)
                } else {
                    rng.next_f64() < p.scenario.loss
                };
                let send_ns = ready_ns + deferral * p.round_ns;
                frame.arrival_virtual_ns =
                    send_ns.saturating_add(draw_latency_ns(&mut rng, p.latency));
                frame.ids.clear();
                frame.ids.extend_from_slice(p.wire_ids(chunk));
                // A dead peer absorbs the frame in transit: lost too.
                let lost = lost || !ep.send(to, &frame);
                let start = at + (c * limit) as u32;
                self.frames.push(Frame {
                    to,
                    span: start..start + chunk.len() as u32,
                    weight: 1 + deferral as u32,
                    lost,
                });
            }
        }
    }

    /// `f ~ P` distinct targets (every peer under flood): uniform over
    /// the group on the complete view — over the members already joined
    /// at the sender's virtual time `now_ns` under churn, mirroring the
    /// netsim `DynamicView` — and by the peer-selection policy over the
    /// neighbour list on an overlay.
    fn targets(
        &self,
        rng: &mut Xoshiro256StarStar,
        now_ns: u64,
        p: &ExecParams<'_>,
        ctx: &ExecCtx,
    ) -> Vec<u32> {
        let flood = p.scenario.protocol == ProtocolSpec::Flood;
        let total = ctx.join_at_ns.len();
        let mut picks = Vec::new();
        match &ctx.overlay {
            Some(ov) if flood => picks.extend_from_slice(ov.topology.neighbors(self.id)),
            Some(ov) => {
                let fanout = p.dist.sample(rng);
                select_targets(&ov.topology, ov.selection, self.id, fanout, rng, &mut picks);
            }
            None => {
                let fanout = if flood { total - 1 } else { p.dist.sample(rng) };
                picks.reserve(fanout.min(total));
                if !ctx.churn {
                    sample_distinct_excluding(total, self.id, fanout, rng, &mut picks);
                } else {
                    let joined: Vec<u32> = (0..total as u32)
                        .filter(|&v| {
                            v != self.id && ctx.join_at_ns[v as usize].is_none_or(|t| t <= now_ns)
                        })
                        .collect();
                    // Indices into `joined`: the one past its end stands in
                    // for the excluded sender.
                    let past_end = joined.len() as u32;
                    sample_distinct_excluding(joined.len() + 1, past_end, fanout, rng, &mut picks);
                    picks.iter_mut().for_each(|i| *i = joined[*i as usize]);
                }
            }
        }
        picks
    }
}

/// Draws one edge latency in virtual nanoseconds.
fn draw_latency_ns(rng: &mut Xoshiro256StarStar, spec: LatencySpec) -> u64 {
    match spec {
        LatencySpec::ConstantMillis { ms } => ms * NS_PER_MS,
        LatencySpec::UniformMillis { lo_ms, hi_ms } => {
            let span = (hi_ms - lo_ms) * NS_PER_MS;
            lo_ms * NS_PER_MS + rng.next_below(span + 1)
        }
        LatencySpec::ExponentialMillis { mean_ms } => {
            let u = rng.next_f64();
            (-(mean_ms as f64) * (1.0 - u).max(f64::MIN_POSITIVE).ln() * NS_PER_MS as f64) as u64
        }
    }
}

/// The group's failure layout for one execution: who starts alive, who
/// crashes when, who joins when, and who counts in the reliability
/// denominator. Vectors are sized `n` plus this execution's churn
/// joiners (ids `n..`).
struct FailureLayout {
    alive: Vec<bool>,
    crash_at_ns: Vec<Option<u64>>,
    join_at_ns: Vec<Option<u64>>,
    counted: Vec<bool>,
}

fn failure_layout(s: &Scenario, exec_seed: u64) -> Result<FailureLayout, ModelError> {
    let n = s.n;
    let mut alive = vec![true; n];
    let mut crash_at_ns: Vec<Option<u64>> = vec![None; n];
    let mut counted = vec![true; n];
    let mut crash = |i: usize, t_ns: u64| {
        crash_at_ns[i] = Some(crash_at_ns[i].map_or(t_ns, |existing| existing.min(t_ns)));
    };
    match &s.failure {
        FailureSpec::None => {}
        FailureSpec::Random { q } => {
            // The paper's model: each non-source member is up with
            // probability q, independently; the source is immortal.
            let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(exec_seed, streams::FAILURE));
            for i in 0..n {
                if i as u32 != SOURCE && rng.next_f64() >= *q {
                    alive[i] = false;
                    counted[i] = false;
                }
            }
        }
        FailureSpec::Schedule { crashes } => {
            // A scheduled member is crashed by the end of the run, so it
            // leaves the denominator (matching the netsim convention);
            // time 0 means it never participates at all.
            for &(t_ns, member) in crashes {
                let i = member as usize;
                counted[i] = false;
                if t_ns == 0 {
                    alive[i] = false;
                } else {
                    crash(i, t_ns);
                }
            }
        }
    }
    // A correlated zone failure is a scheduled crash of every member of
    // the killed zones (source immune). Applied before churn so zones
    // index the initial membership only.
    if let Some(zf) = &s.faults.zone_failure {
        for member in zf.killed_members(n, &s.topology, SOURCE)? {
            let i = member as usize;
            counted[i] = false;
            if zf.at_ms == 0 {
                alive[i] = false;
            } else {
                crash(i, zf.at_ms * NS_PER_MS);
            }
        }
    }
    // Churn: joiners extend the group (alive from the start so they
    // hold an endpoint, gated on their join stamp by the actor; they
    // count in the denominator — alive at end); leavers become
    // scheduled crashes and leave the denominator.
    let mut join_at_ns: Vec<Option<u64>> = vec![None; n];
    if let Some(churn) = &s.faults.churn {
        let plan = ChurnPlan::sample(
            churn,
            n,
            SOURCE,
            SplitMix64::derive(exec_seed, streams::CHURN),
        );
        for &(at_ns, member) in &plan.leaves {
            counted[member as usize] = false;
            crash(member as usize, at_ns);
        }
        for &(at_ns, id) in &plan.joins {
            debug_assert_eq!(id as usize, alive.len(), "joiner ids are dense above n");
            alive.push(true);
            crash_at_ns.push(None);
            counted.push(true);
            join_at_ns.push(Some(at_ns));
        }
    }
    Ok(FailureLayout {
        alive,
        crash_at_ns,
        join_at_ns,
        counted,
    })
}

/// The plan's injection frames: messages sharing an injection round
/// form one arrival group (so piggybacking applies to bursts), chunked
/// to the frame limit.
fn injection_frames(p: &ExecParams<'_>, exec_seed: u64) -> Vec<WireMessage> {
    let mut frames = Vec::new();
    let mut next = 0u32;
    for burst in p.injections.chunk_by(|a, b| a == b) {
        let ids: Vec<u32> = (next..next + burst.len() as u32).collect();
        next += burst.len() as u32;
        frames.extend(
            ids.chunks(p.traffic.frame_limit())
                .map(|chunk| WireMessage {
                    id: exec_seed,
                    from: SOURCE,
                    hop: 0,
                    arrival_virtual_ns: burst[0] * p.round_ns,
                    ids: p.wire_ids(chunk).to_vec(),
                }),
        );
    }
    frames
}

/// What one execution left behind, flattened out of its actors into one
/// row per alive member: who holds which message, every frame each
/// member put on the wire, and who counts in the reliability
/// denominator.
pub(crate) struct Record {
    /// Messages in the plan.
    k: usize,
    /// By member id: its row (`None` = dead at start).
    row: Vec<Option<u32>>,
    /// `k` per row: each message's position in the member's receipt
    /// order, or [`UNSEEN`].
    receipts: Vec<u32>,
    /// Row r sent `frames[frame_rows[r]..frame_rows[r + 1]]`, sorted by
    /// span start so a message's frames are found by binary search.
    frames: Vec<Frame>,
    frame_rows: Vec<u32>,
    /// By row: alive and never scheduled to crash.
    counted: Vec<bool>,
    dropped: u64,
}

/// Runs one live execution over `transport` and returns its record, or
/// `None` when the watchdog aborted the run instead of quiescence.
pub(crate) fn run_execution<T: Transport>(
    transport: &T,
    p: &ExecParams<'_>,
    exec_seed: u64,
) -> Result<Option<Record>, ModelError> {
    let mut layout = failure_layout(p.scenario, exec_seed)?;
    let mut record = Record {
        k: p.injections.len(),
        row: vec![None; layout.alive.len()],
        receipts: Vec::new(),
        frames: Vec::new(),
        frame_rows: vec![0],
        counted: Vec::new(),
        dropped: 0,
    };
    if !layout.alive[SOURCE as usize] {
        return Ok(Some(record)); // the source is dead at start: nothing spreads
    }
    let ctx = ExecCtx::new(p, &mut layout, exec_seed);
    let injections = injection_frames(p, exec_seed);
    let Some(actors) = p.harness.run(
        transport,
        &layout.alive,
        SOURCE,
        &injections,
        |id| Actor::new(id, p, &ctx),
        |actor, ep, msg| actor.process(ep, msg, p, &ctx),
    )?
    else {
        return Ok(None);
    };
    record
        .frames
        .reserve_exact(actors.iter().map(|a| a.frames.len()).sum());
    for (r, mut actor) in actors.into_iter().enumerate() {
        actor.frames.sort_by_key(|f| f.span.start);
        record.row[actor.id as usize] = Some(r as u32);
        record.receipts.extend_from_slice(&actor.receipt);
        record.frames.append(&mut actor.frames);
        record.frame_rows.push(record.frames.len() as u32);
        record.counted.push(layout.counted[actor.id as usize]);
        record.dropped += actor.dropped;
    }
    Ok(Some(record))
}

impl Record {
    fn nonfailed(&self) -> usize {
        self.counted.iter().filter(|&&c| c).count()
    }

    /// Per message: counted members holding it at quiescence.
    fn reached(&self) -> Vec<u32> {
        let mut reached = vec![0; self.k];
        for (receipts, _) in self
            .receipts
            .chunks(self.k)
            .zip(&self.counted)
            .filter(|(_, &c)| c)
        {
            for (count, &pos) in reached.iter_mut().zip(receipts) {
                *count += u32::from(pos != UNSEEN);
            }
        }
        reached
    }

    /// The single broadcast's digest for [`gossip_model::reduce`].
    pub fn broadcast(&self) -> Execution {
        let nonfailed = self.nonfailed();
        let per_nonfailed = |count: u64| {
            if nonfailed == 0 {
                0.0
            } else {
                count as f64 / nonfailed as f64
            }
        };
        let mut hops = Vec::new();
        self.receipt_rounds(&[0], &mut hops);
        Execution {
            // `n_rece / n_nonfailed` (paper §4.2).
            reliability: per_nonfailed(self.reached()[0] as u64),
            nonfailed,
            hops: hops.into_iter().map(|count| count as u32).collect(),
            messages_per_member: Some(per_nonfailed(self.frames.len() as u64)),
            // Wall-clock is scheduling noise, not protocol behaviour: keep
            // it out of the Report so runtime reports replay byte-for-byte.
            quiescence_secs: None,
            messages_lost: Some(self.frames.iter().filter(|f| f.lost).count() as f64),
        }
    }

    /// A stream's digest; its delivery delays (rounds since each
    /// message's injection; the source's receipts in bin 0) are added to
    /// `hist`.
    pub fn stream(&self, injections: &[u64], hist: &mut Vec<u64>) -> StreamExecution {
        let copies = |lost_only: bool| -> u64 {
            let frames = self.frames.iter().filter(|f| f.lost || !lost_only);
            frames.map(|f| f.span.len() as u64).sum()
        };
        StreamExecution {
            reached: self.reached(),
            nonfailed: self.nonfailed(),
            rounds: self.receipt_rounds(injections, hist),
            copies_sent: copies(false),
            copies_dropped: self.dropped,
            copies_lost: copies(true),
        }
    }

    /// First receipts read off the recorded relay graph: member v's round
    /// for message m is the shortest path from the source to v over the
    /// members holding m, along the successful frames that carried m,
    /// each weighing 1 plus its token-bucket deferral in whole rounds.
    /// Receipts are counted for members in the reliability denominator:
    /// adds the rounds since injection of every such (message, holder)
    /// pair to the histogram `hist`; returns the last first receipt in
    /// rounds since round 0.
    fn receipt_rounds(&self, injections: &[u64], hist: &mut Vec<u64>) -> u64 {
        let mut last = 0;
        let mut dist = vec![u32::MAX; self.row.len()];
        // A bucket queue: `levels[d]` lists the members reached at
        // distance d (stale once a shorter path turned up).
        let mut levels: Vec<Vec<u32>> = vec![Vec::new()];
        for (m, &injected_at) in injections.iter().enumerate() {
            dist.fill(u32::MAX);
            dist[SOURCE as usize] = 0;
            levels[0].push(SOURCE);
            let mut d = 0;
            while d < levels.len() {
                let mut level = std::mem::take(&mut levels[d]);
                let mut settled = 0;
                for &u in &level {
                    if dist[u as usize] != d as u32 {
                        continue; // reached sooner
                    }
                    let Some(r) = self.row[u as usize].map(|r| r as usize) else {
                        continue;
                    };
                    let pos = self.receipts[r * self.k + m];
                    if pos == UNSEEN {
                        continue; // absorbed without delivery
                    }
                    settled += u64::from(self.counted[r]);
                    // The frames carrying m share the largest span start ≤ pos.
                    let frames =
                        &self.frames[self.frame_rows[r] as usize..self.frame_rows[r + 1] as usize];
                    let below = &frames[..frames.partition_point(|f| f.span.start <= pos)];
                    let start = below.last().map_or(0, |f| f.span.start);
                    for f in below.iter().rev().take_while(|f| f.span.start == start) {
                        let reach = d as u32 + f.weight;
                        if !f.lost && f.span.contains(&pos) && reach < dist[f.to as usize] {
                            dist[f.to as usize] = reach;
                            if levels.len() <= reach as usize {
                                levels.resize_with(reach as usize + 1, Vec::new);
                            }
                            levels[reach as usize].push(f.to);
                        }
                    }
                }
                if settled > 0 {
                    if hist.len() <= d {
                        hist.resize(d + 1, 0);
                    }
                    hist[d] += settled;
                    last = last.max(injected_at + d as u64);
                }
                level.clear();
                levels[d] = level;
                d += 1;
            }
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::scenario::FanoutSpec;

    #[test]
    fn bucket_uncapped_passes_through() {
        let mut b = Bucket::new(NS_PER_MS, None, 4);
        assert_eq!(b.schedule(123), Some(0));
        assert_eq!(b.schedule(456), Some(0));
    }

    #[test]
    fn bucket_defers_past_budget_and_drops_past_capacity() {
        // B = 2 per round, capacity 4 backlogged slots.
        let mut b = Bucket::new(NS_PER_MS, Some(2), 4);
        // Round 0: two slots at the ready time.
        assert_eq!(b.schedule(0), Some(0));
        assert_eq!(b.schedule(0), Some(0));
        // Third and fourth frames defer one whole round.
        assert_eq!(b.schedule(0), Some(1));
        assert_eq!(b.schedule(0), Some(1));
        // Backlog relative to round 0 hit the capacity: drop.
        assert_eq!(b.schedule(0), None);
        // A frame ready in a later round starts a fresh window.
        assert_eq!(b.schedule(5 * NS_PER_MS), Some(0));
    }

    /// A fake endpoint: logs every send, never receives.
    struct Capture(Vec<(u32, WireMessage)>);

    impl Endpoint for Capture {
        fn send(&mut self, to: u32, msg: &WireMessage) -> bool {
            self.0.push((to, msg.clone()));
            true
        }
        fn poll(&mut self) -> Option<WireMessage> {
            None
        }
    }

    /// Member `id` of `scenario`'s execution processes `msgs` in order;
    /// returns what it put on the wire.
    fn relay(scenario: &Scenario, id: u32, msgs: &[WireMessage]) -> Vec<(u32, WireMessage)> {
        let dist = scenario.fanout.build().unwrap();
        let p = ExecParams::new(scenario, &*dist);
        let mut layout = failure_layout(scenario, 42).unwrap();
        let ctx = ExecCtx::new(&p, &mut layout, 42);
        let mut actor = Actor::new(id, &p, &ctx);
        let mut ep = Capture(Vec::new());
        for msg in msgs {
            actor.process(&mut ep, msg, &p, &ctx);
        }
        ep.0
    }

    fn frame(hop: u32, ids: Vec<u32>) -> WireMessage {
        WireMessage {
            id: 42,
            from: 2,
            hop,
            arrival_virtual_ns: hop as u64 * NS_PER_MS,
            ids,
        }
    }

    #[test]
    fn relayed_frames_carry_the_incoming_hop_plus_one() {
        let plain = Scenario::new(10, FanoutSpec::fixed(4));
        for (scenario, ids, frames) in [
            // The single broadcast: the k = 1 plan, one frame per target.
            (plain.clone(), vec![0], 4),
            // Unbatched: 2 new ids × 4 targets, one frame each.
            (
                plain.clone().with_traffic(TrafficSpec::stream(2)),
                vec![0, 1],
                8,
            ),
            // Piggybacked: both ids ride one frame per target.
            (
                plain.with_traffic(TrafficSpec::stream(2).with_piggyback(4)),
                vec![0, 1],
                4,
            ),
        ] {
            let deep = frame(3, ids);
            let sent = relay(&scenario, 5, &[deep.clone(), deep]);
            // The duplicate receipt relays nothing.
            assert_eq!(sent.len(), frames);
            assert!(
                sent.iter().all(|(_, relay)| relay.hop == 4),
                "relays of a hop-3 frame must be stamped hop 4"
            );
        }
    }

    #[test]
    fn dense_fanouts_pick_distinct_targets_other_than_the_sender() {
        let plain = Scenario::new(1000, FanoutSpec::fixed(998));
        for scenario in [plain.clone(), plain.with_traffic(TrafficSpec::stream(1))] {
            for (id, hop) in [(SOURCE, 0), (7, 1)] {
                let sent = relay(&scenario, id, &[frame(hop, vec![0])]);
                let mut targets: Vec<u32> = sent.iter().map(|(to, _)| *to).collect();
                assert_eq!(targets.len(), 998);
                assert!(!targets.contains(&id), "member {id} targeted itself");
                targets.sort_unstable();
                targets.dedup();
                assert_eq!(targets.len(), 998, "member {id} repeated a target");
            }
        }
    }
}
