//! One live broadcast execution: spawn node actors on real threads,
//! inject the message at the source, run the paper's push algorithm
//! over a [`Transport`], and measure the outcome.
//!
//! ## Determinism
//!
//! Every random draw — crash pattern, fanout, targets, loss, latency —
//! comes from a per-node generator seeded by `(execution seed, node
//! id)`, and a node relays on *first* receipt no matter which copy wins
//! the race. The set of messages that ever exists is therefore a pure
//! function of the seed, independent of thread interleaving, and so is
//! everything the [`ExecOutcome`] reports: delivery metrics come from
//! the actors' own records, and dissemination depth is the BFS depth
//! over the recorded successful relays (the scheduling-independent
//! min-hop, not the racy first-arrival hop). The one exception is
//! anything gated on a message's *virtual arrival stamp* — scheduled
//! mid-run crashes, churn join gates, and the joined-member target
//! filter — where the stamp of the physically first copy decides;
//! documented as best-effort.
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
//! The push protocol relays once per node, so a broadcast is over when
//! no message is in flight; the shared [`Fabric`](crate::Fabric) counter
//! detects that exactly (see its docs), and the [`Harness`] watchdog
//! aborts a wedged run rather than hanging the caller.

use gossip_faults::{BlockedLinks, ChurnPlan, FaultSpec, GeChain, GilbertElliott};
use gossip_model::distribution::FanoutDistribution;
use gossip_model::reduce::Execution;
use gossip_model::scenario::{FailureSpec, LatencySpec};
use gossip_model::ModelError;
use gossip_stats::rng::{streams, SplitMix64, Xoshiro256StarStar};
use gossip_topology::{select_targets, PeerSelection, Topology, TopologySpec};

use crate::harness::Harness;
use crate::transport::{Endpoint, Transport};
use crate::wire::WireMessage;

/// A structured overlay instantiated for one execution: actors gossip
/// only along its edges, targets picked by the configured policy.
struct Overlay {
    topology: Topology,
    selection: PeerSelection,
}

/// Read-only per-execution context shared by every shard thread: the
/// overlay (if structured), the adversary's blocked links, the
/// Gilbert-Elliott channel parameters, and the join schedule indexed by
/// member id (`None` = no churn, so the hot path pays nothing).
struct ExecCtx {
    overlay: Option<Overlay>,
    blocked: Option<BlockedLinks>,
    ge: Option<GilbertElliott>,
    join_at: Option<Vec<Option<u64>>>,
}

/// Everything one execution needs, borrowed from the backend.
pub(crate) struct ExecParams<'a> {
    /// Group size.
    pub n: usize,
    /// Source member (immortal under the paper's failure model).
    pub source: u32,
    /// Fanout distribution `P`.
    pub dist: &'a dyn FanoutDistribution,
    /// Independent per-message loss probability.
    pub loss: f64,
    /// Latency model feeding the virtual clock (and real pacing).
    pub latency: LatencySpec,
    /// Failure model.
    pub failure: &'a FailureSpec,
    /// Fault families injected on top of the failure model.
    pub faults: &'a FaultSpec,
    /// Structured overlay to gossip over (`None` = complete graph with
    /// uniform selection, the paper's baseline). Rebuilt per execution
    /// from the execution seed so overlays resample across replications.
    pub topology: Option<&'a TopologySpec>,
    /// Flood instead of push: relay to every other member (on an
    /// overlay: to the whole neighbour list).
    pub flood: bool,
    /// Shard threads, real-time pacing, watchdog deadline.
    pub harness: Harness,
}

/// One recorded relay attempt.
struct Edge {
    to: u32,
    lost: bool,
}

/// A planned relay: the edge it records plus the frame to put on the
/// wire (absent when sender-side loss already killed it).
struct Relay {
    edge_idx: usize,
    to: u32,
    msg: WireMessage,
}

/// Per-node protocol state — the actor.
struct Actor {
    id: u32,
    n: u32,
    rng: Xoshiro256StarStar,
    /// Virtual time this node crashes at (`None` = stays up).
    crash_at_ns: Option<u64>,
    /// Virtual time this node joins at (`None` = initial member).
    join_at_ns: Option<u64>,
    /// This node's uplink state of the Gilbert-Elliott channel (`None`
    /// = i.i.d. loss). One chain per sender: consecutive transmissions
    /// share the burst, which is the whole point of the model.
    chain: Option<GeChain>,
    delivered: bool,
    edges: Vec<Edge>,
}

impl Actor {
    fn new(
        id: u32,
        total: usize,
        exec_seed: u64,
        crash_at_ns: Option<u64>,
        join_at_ns: Option<u64>,
        ge: Option<&GilbertElliott>,
    ) -> Self {
        let node_seed =
            SplitMix64::derive(SplitMix64::derive(exec_seed, streams::ACTOR), id as u64);
        let mut rng = Xoshiro256StarStar::new(node_seed);
        // The chain starts from a stationary draw so short executions
        // see the long-run loss mix (drawn only when bursty loss is on,
        // keeping the fault-free rng stream untouched).
        let chain = ge.map(|ge| GeChain::start(ge, &mut rng));
        Actor {
            id,
            n: total as u32,
            rng,
            crash_at_ns,
            join_at_ns,
            chain,
            delivered: false,
            edges: Vec::new(),
        }
    }

    /// Fig. 1, live: on first receipt draw `f ~ P`, pick `f` distinct
    /// targets — uniform over the group on the complete graph, by the
    /// peer-selection policy over the neighbour list on an overlay —
    /// and relay; duplicates are discarded. Returns the relays that
    /// survived sender-side loss injection.
    fn handle(&mut self, msg: &WireMessage, p: &ExecParams<'_>, ctx: &ExecCtx) -> Vec<Relay> {
        if let Some(join_at) = self.join_at_ns {
            if msg.arrival_virtual_ns < join_at {
                return Vec::new(); // arrived before this process joined
            }
        }
        if let Some(crash_at) = self.crash_at_ns {
            if msg.arrival_virtual_ns >= crash_at {
                return Vec::new(); // arrived at a crashed process
            }
        }
        if self.delivered {
            return Vec::new(); // duplicate receipt: discard (Fig. 1)
        }
        self.delivered = true;
        let targets = match &ctx.overlay {
            Some(ov) if p.flood => ov.topology.neighbors(self.id).to_vec(),
            Some(ov) => {
                let fanout = p.dist.sample(&mut self.rng);
                let mut picks = Vec::new();
                select_targets(
                    &ov.topology,
                    ov.selection,
                    self.id,
                    fanout,
                    &mut self.rng,
                    &mut picks,
                );
                picks
            }
            None => {
                let fanout = if p.flood {
                    self.n as usize - 1
                } else {
                    p.dist.sample(&mut self.rng)
                };
                match &ctx.join_at {
                    Some(join_at) => {
                        self.pick_joined_targets(fanout, join_at, msg.arrival_virtual_ns)
                    }
                    None => self.pick_targets(fanout),
                }
            }
        };
        let mut relays = Vec::with_capacity(targets.len());
        for to in targets {
            // The adversary's verdict comes first and skips the loss
            // draw entirely, so blocking links never perturbs the
            // chain/rng stream of the surviving ones.
            let lost = if ctx.blocked.as_ref().is_some_and(|b| b.blocks(self.id, to)) {
                true
            } else if let (Some(ge), Some(chain)) = (&ctx.ge, &mut self.chain) {
                chain.transmit(ge, &mut self.rng)
            } else {
                self.rng.next_f64() < p.loss
            };
            let latency_ns = draw_latency_ns(&mut self.rng, p.latency);
            let edge_idx = self.edges.len();
            self.edges.push(Edge { to, lost });
            if !lost {
                relays.push(Relay {
                    edge_idx,
                    to,
                    msg: WireMessage {
                        id: msg.id,
                        from: self.id,
                        hop: msg.hop + 1,
                        arrival_virtual_ns: msg.arrival_virtual_ns.saturating_add(latency_ns),
                        ids: Vec::new(),
                    },
                });
            }
        }
        relays
    }

    /// Processes one frame: run the protocol and put the surviving
    /// relays on the wire.
    fn process<E: Endpoint>(
        &mut self,
        ep: &mut E,
        msg: &WireMessage,
        p: &ExecParams<'_>,
        ctx: &ExecCtx,
    ) {
        for relay in self.handle(msg, p, ctx) {
            if !ep.send(relay.to, &relay.msg) {
                // Peer unreachable: the relay died in transit.
                self.edges[relay.edge_idx].lost = true;
            }
        }
    }

    /// `f` distinct uniform members other than self (all of them when
    /// `f` exceeds the view).
    fn pick_targets(&mut self, f: usize) -> Vec<u32> {
        let others = (self.n - 1) as usize;
        if f >= others {
            return (0..self.n).filter(|&v| v != self.id).collect();
        }
        let mut chosen: Vec<u32> = Vec::with_capacity(f);
        while chosen.len() < f {
            let mut v = self.rng.next_below(self.n as u64 - 1) as u32;
            if v >= self.id {
                v += 1;
            }
            if !chosen.contains(&v) {
                chosen.push(v);
            }
        }
        chosen
    }

    /// The churn-aware analogue of [`Actor::pick_targets`]: `f`
    /// distinct uniform members among those already joined at the
    /// sender's virtual time `now_ns` (everyone eligible when `f`
    /// exceeds that view). Mirrors the netsim `DynamicView`: gossip
    /// never targets a member that has not joined yet.
    fn pick_joined_targets(&mut self, f: usize, join_at: &[Option<u64>], now_ns: u64) -> Vec<u32> {
        let joined: Vec<u32> = (0..self.n)
            .filter(|&v| v != self.id && join_at[v as usize].is_none_or(|t| t <= now_ns))
            .collect();
        if f >= joined.len() {
            return joined;
        }
        let mut chosen: Vec<u32> = Vec::with_capacity(f);
        while chosen.len() < f {
            let v = joined[self.rng.next_below(joined.len() as u64) as usize];
            if !chosen.contains(&v) {
                chosen.push(v);
            }
        }
        chosen
    }
}

/// Draws one edge latency in virtual nanoseconds.
fn draw_latency_ns(rng: &mut Xoshiro256StarStar, spec: LatencySpec) -> u64 {
    const NS_PER_MS: u64 = 1_000_000;
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
pub(crate) struct FailureLayout {
    pub alive: Vec<bool>,
    pub crash_at_ns: Vec<Option<u64>>,
    pub join_at_ns: Vec<Option<u64>>,
    pub counted: Vec<bool>,
}

pub(crate) fn failure_layout(
    n: usize,
    source: u32,
    failure: &FailureSpec,
    faults: &FaultSpec,
    topology: Option<&TopologySpec>,
    exec_seed: u64,
) -> Result<FailureLayout, ModelError> {
    let mut alive = vec![true; n];
    let mut crash_at_ns: Vec<Option<u64>> = vec![None; n];
    let mut counted = vec![true; n];
    match failure {
        FailureSpec::None => {}
        FailureSpec::Random { q } => {
            // The paper's model: each non-source member is up with
            // probability q, independently; the source is immortal.
            let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(exec_seed, streams::FAILURE));
            for i in 0..n {
                if i as u32 != source && rng.next_f64() >= *q {
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
                    crash_at_ns[i] =
                        Some(crash_at_ns[i].map_or(t_ns, |existing| existing.min(t_ns)));
                }
            }
        }
    }
    // A correlated zone failure is a scheduled crash of every member of
    // the killed zones (source immune). Applied before churn so zones
    // index the initial membership only.
    if let Some(zf) = &faults.zone_failure {
        const NS_PER_MS: u64 = 1_000_000;
        let topology = topology.copied().unwrap_or_default();
        for member in zf.killed_members(n, &topology, source)? {
            let member = member as usize;
            counted[member] = false;
            if zf.at_ms == 0 {
                alive[member] = false;
            } else {
                let t_ns = zf.at_ms * NS_PER_MS;
                crash_at_ns[member] =
                    Some(crash_at_ns[member].map_or(t_ns, |existing| existing.min(t_ns)));
            }
        }
    }
    // Churn: joiners extend the group (alive from the start so they
    // hold an endpoint, gated on their join stamp by the actor; they
    // count in the denominator — alive at end); leavers become
    // scheduled crashes and leave the denominator.
    let mut join_at_ns: Vec<Option<u64>> = vec![None; n];
    if let Some(churn) = &faults.churn {
        let plan = ChurnPlan::sample(
            churn,
            n,
            source,
            SplitMix64::derive(exec_seed, streams::CHURN),
        );
        for &(at_ns, id) in &plan.joins {
            debug_assert_eq!(id as usize, alive.len(), "joiner ids are dense above n");
            alive.push(true);
            crash_at_ns.push(None);
            counted.push(true);
            join_at_ns.push(Some(at_ns));
        }
        for &(at_ns, member) in &plan.leaves {
            let i = member as usize;
            counted[i] = false;
            crash_at_ns[i] = Some(crash_at_ns[i].map_or(at_ns, |existing| existing.min(at_ns)));
        }
    }
    Ok(FailureLayout {
        alive,
        crash_at_ns,
        join_at_ns,
        counted,
    })
}

/// BFS depth of the delivered set over the recorded successful relays —
/// the scheduling-independent dissemination depth.
fn bfs_depth(n: usize, source: u32, delivered: &[bool], adjacency: &[Vec<u32>]) -> u32 {
    let mut depth: Vec<Option<u32>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    let mut max_depth = 0;
    if delivered[source as usize] {
        depth[source as usize] = Some(0);
        queue.push_back(source);
    }
    while let Some(u) = queue.pop_front() {
        let d = depth[u as usize].expect("queued nodes have depth");
        for &v in &adjacency[u as usize] {
            if delivered[v as usize] && depth[v as usize].is_none() {
                depth[v as usize] = Some(d + 1);
                max_depth = max_depth.max(d + 1);
                queue.push_back(v);
            }
        }
    }
    max_depth
}

/// Runs one live broadcast over `transport` and digests it for
/// [`gossip_model::reduce`]; `None` when the watchdog aborted the run
/// instead of quiescence.
pub(crate) fn run_execution<T: Transport>(
    transport: &T,
    p: &ExecParams<'_>,
    exec_seed: u64,
) -> Result<Option<Execution>, ModelError> {
    let overlay = p.topology.map(|spec| Overlay {
        topology: spec.build(
            p.n,
            SplitMix64::derive(exec_seed, streams::RUNTIME_TOPOLOGY),
        ),
        selection: spec.selection,
    });
    let layout = failure_layout(p.n, p.source, p.failure, p.faults, p.topology, exec_seed)?;
    // Churn joiners extend the group beyond `p.n` for this execution.
    let total = layout.alive.len();
    // The reliability denominator: alive, never scheduled to crash.
    let nonfailed = layout.counted.iter().filter(|&&c| c).count();
    let per_nonfailed = |count: u64| {
        if nonfailed == 0 {
            0.0
        } else {
            count as f64 / nonfailed as f64
        }
    };
    let digest = |reached: u64, sent: u64, lost: u64, depth: u32| Execution {
        // `n_rece / n_nonfailed` (paper §4.2).
        reliability: per_nonfailed(reached),
        rounds: Some(depth as f64),
        messages_per_member: Some(per_nonfailed(sent)),
        // Wall-clock is scheduling noise, not protocol behaviour: keep
        // it out of the Report so runtime reports replay byte-for-byte.
        quiescence_secs: None,
        messages_lost: Some(lost as f64),
    };
    if !layout.alive[p.source as usize] {
        // The source itself is scheduled dead at start: nothing spreads.
        return Ok(Some(digest(0, 0, 0, 0)));
    }
    let ctx = ExecCtx {
        overlay,
        blocked: p.faults.adversary.as_ref().map(|adv| {
            BlockedLinks::build(
                total,
                p.source,
                adv,
                SplitMix64::derive(exec_seed, streams::ADVERSARY),
            )
        }),
        ge: p.faults.bursty_loss.as_ref().map(GilbertElliott::new),
        join_at: p.faults.churn.is_some().then(|| layout.join_at_ns.clone()),
    };

    let Some(actors) = p.harness.run(
        transport,
        &layout.alive,
        p.source,
        &[WireMessage::injection(exec_seed, p.source)],
        |id| {
            Actor::new(
                id,
                total,
                exec_seed,
                layout.crash_at_ns[id as usize],
                layout.join_at_ns[id as usize],
                ctx.ge.as_ref(),
            )
        },
        |actor, ep, msg| actor.process(ep, msg, p, &ctx),
    )?
    else {
        return Ok(None);
    };

    // Assemble the outcome from the actors' own records: messages
    // handed to the transport (injection included), those that died in
    // transit (injected loss + dead peers), and the BFS relay depth of
    // the delivered set (the paper's "rounds").
    let mut delivered = vec![false; total];
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); total];
    let mut messages_sent = 1u64; // the injection
    let mut messages_lost = 0u64;
    for actor in &actors {
        delivered[actor.id as usize] = actor.delivered;
        for edge in &actor.edges {
            messages_sent += 1;
            if edge.lost {
                messages_lost += 1;
            } else {
                adjacency[actor.id as usize].push(edge.to);
            }
        }
    }
    let reached = (0..total)
        .filter(|&i| layout.counted[i] && delivered[i])
        .count();
    Ok(Some(digest(
        reached as u64,
        messages_sent,
        messages_lost,
        bfs_depth(total, p.source, &delivered, &adjacency),
    )))
}
