//! # gossip-engine
//!
//! Flat struct-of-arrays Monte-Carlo kernels: built for the
//! million-node regime, the default at every group size.
//!
//! The event calendar (`gossip-netsim`) carries per-node structs and a
//! full event queue; that is O(n) allocator traffic *per replication*,
//! which would keep the Fig. 4 curve stuck at n ≈ 10³–10⁴ — and costs
//! an order of magnitude per message at the paper's own n = 10³. This
//! crate holds the shared machinery the graph and protocol backends run
//! on:
//!
//! * [`bitset`] — u64-word bitsets for the infected/failed/reached
//!   sets. One cache line covers 512 members; membership tests are a
//!   shift and a mask, and population counts reduce whole words at a
//!   time.
//! * [`sampler`] — batched fanout draws through the `gossip_stats`
//!   alias table: the distribution's pmf is tabulated once per
//!   evaluation and every subsequent draw is two RNG calls, replacing
//!   per-draw inverse-CDF loops.
//! * [`relay`] — the push-relay kernel. Instead of materializing the
//!   Fig. 1 relay digraph and BFS-ing it (two CSR builds per
//!   replication), the kernel defers each member's crash coin, fanout
//!   and targets *to first receipt*: distributionally identical (draws
//!   are independent and each member is expanded at most once), a
//!   replication costs O(reached) rather than O(n) — the unreached
//!   members are one binomial draw for the denominator — and the only
//!   adjacency ever touched is the `gossip-topology` overlay CSR, built
//!   once per evaluation and threaded through every replication
//!   read-only. All per-replication
//!   state lives in a [`relay::RelayScratch`] arena that is reset —
//!   never reallocated — between replications, extending the
//!   `UnionFind::reset` pattern to the whole hot loop.
//!
//! The relay has one `Scenario` → `Report` front door,
//! [`evaluate_relay`]: `GraphBackend` takes it for directed reach and
//! `ProtocolBackend` for every single message it runs, so both backends
//! build the same kernel inputs from the same seed streams. Their rows
//! of [`gossip_model::support`] state what it declines.

pub mod bitset;
pub mod relay;
pub mod sampler;

use gossip_faults::{BlockedLinks, GilbertElliott};
use gossip_model::reduce::{self, Execution};
use gossip_model::scenario::{Report, Scenario};
use gossip_model::ModelError;
use gossip_stats::parallel::parallel_map;
use gossip_stats::rng::{streams, SplitMix64, Xoshiro256StarStar};

pub use bitset::BitSet;
pub use relay::{RelayOutcome, RelayScratch, RelaySetup};
pub use sampler::FanoutSampler;

/// The flat engine's seed-stream tags, declared in the workspace
/// registry ([`gossip_stats::rng::streams`]): the single
/// per-replication RNG, and the overlay CSR a flat evaluation builds
/// once and shares across all replications.
pub use gossip_stats::rng::streams::{FLAT as FLAT_STREAM, FLAT_TOPOLOGY as FLAT_TOPOLOGY_STREAM};

/// Splits `reps` replications into at most 64 contiguous chunks so each
/// chunk sweeps many replications through ONE scratch arena (allocate
/// once, reset per replication) while `parallel_map`'s threads — the
/// caller and the pool's parked workers — still load-balance by claiming
/// chunks. Chunk boundaries never affect results: every replication's
/// RNG derives from its own global index.
pub fn chunk_bounds(reps: usize) -> (usize, impl Fn(usize) -> std::ops::Range<usize>) {
    let chunks = reps.min(64);
    (chunks, move |chunk| {
        (chunk * reps / chunks)..((chunk + 1) * reps / chunks)
    })
}

/// Runs the `reps` replications of one flat evaluation and yields their
/// digests in replication order: chunked over `parallel_map` (see
/// [`chunk_bounds`]), one `scratch()` arena per chunk, and for each
/// replication the seed `derive(base_seed, rep)` with its
/// [`FLAT_STREAM`] RNG handed to `replicate`. Inside another
/// `parallel_map` job, or while the pool serves another thread, the
/// chunks run serially on the calling thread with the same digests.
pub fn run_replications<S, T: Send>(
    base_seed: u64,
    reps: usize,
    scratch: impl Fn() -> S + Sync,
    replicate: impl Fn(u64, &mut S, &mut Xoshiro256StarStar) -> T + Sync,
) -> impl Iterator<Item = T> {
    let (chunks, bounds) = chunk_bounds(reps);
    let per_chunk: Vec<Vec<T>> = parallel_map(chunks, |chunk| {
        let reps = bounds(chunk);
        // The digests outlive this worker, the scratch does not: allocate
        // them first so the freed arena is not pinned beneath them.
        let mut digests = Vec::with_capacity(reps.len());
        let mut scratch = scratch();
        for rep in reps {
            let seed = SplitMix64::derive(base_seed, rep as u64);
            let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, FLAT_STREAM));
            digests.push(replicate(seed, &mut scratch, &mut rng));
        }
        digests
    });
    per_chunk.into_iter().flatten()
}

/// Evaluates a validated `scenario` on the relay kernel and reports it
/// as `backend` (`"graph"` or `"protocol"`), or refuses it as that
/// backend's row of [`gossip_model::support`] does.
///
/// Everything shared is built once per evaluation: the overlay CSR
/// (stream [`FLAT_TOPOLOGY_STREAM`]; complete overlays are never
/// materialized), a t = 0 zone kill's members as `prefailed`, the
/// bursty channel, if any, and
/// the alias table. Per replication, an adversary's blocked links come
/// from `derive(seed, ADVERSARY)`, the tag the event calendar shares,
/// so a `Random` adversary re-rolls each run on every layer. The per-hop
/// receipts go to [`reduce::conditioned`].
///
/// The overlay is quenched (one per evaluation) where the event
/// calendar resamples it per execution; `tests/tests/engine_agreement.rs`
/// holds the two to the same means.
pub fn evaluate_relay(backend: &'static str, scenario: &Scenario) -> Result<Report, ModelError> {
    gossip_model::support::check(backend, scenario)?;
    let q = scenario
        .q()
        .expect("support::check refuses crash schedules on the relay");
    let dist = scenario.fanout.build()?;
    let (n, spec) = (scenario.n, scenario.topology);
    let overlay = (!spec.is_default())
        .then(|| spec.build(n, SplitMix64::derive(scenario.seed, FLAT_TOPOLOGY_STREAM)));
    let prefailed = match &scenario.faults.zone_failure {
        Some(zf) => zf.killed_members(n, &spec, 0)?,
        None => Vec::new(),
    };
    let channel = scenario
        .faults
        .bursty_loss
        .as_ref()
        .map(GilbertElliott::new);
    let sampler = FanoutSampler::new(&*dist);
    let executions = run_replications(
        scenario.seed,
        scenario.replications,
        || RelayScratch::new(n),
        |seed, scratch, rng| {
            let blocked = scenario.faults.adversary.as_ref().map(|adv| {
                BlockedLinks::build(n, 0, adv, SplitMix64::derive(seed, streams::ADVERSARY))
            });
            let setup = RelaySetup {
                n,
                source: 0,
                q,
                loss: scenario.loss,
                dist: &*dist,
                sampler: &sampler,
                overlay: overlay.as_ref().map(|topo| (topo, spec.selection)),
                blocked: blocked.as_ref(),
                prefailed: &prefailed,
            };
            // Two instances of the inlined loop: the i.i.d. one stays
            // free of the chain.
            let out = match &channel {
                None => setup.run(scratch, rng),
                Some(ge) => setup.run_over(Some(ge), scratch, rng),
            };
            Execution {
                reliability: out.reliability(),
                nonfailed: out.nonfailed,
                hops: scratch.hops().to_vec(),
                messages_per_member: Some(out.messages_sent as f64 / out.nonfailed.max(1) as f64),
                ..Execution::default()
            }
        },
    );
    Ok(reduce::conditioned(
        backend, None, scenario, &*dist, executions,
    ))
}
