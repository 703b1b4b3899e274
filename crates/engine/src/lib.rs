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
//! on under `EngineSpec::Auto` wherever it samples the same process
//! (and always under `EngineSpec::Flat`):
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
//! The crate exposes kernels, not backends: `gossip-rgraph` and
//! `gossip-protocol` wrap them behind the unchanged
//! `Scenario` → `Backend` → `Report` API.

pub mod bitset;
pub mod relay;
pub mod sampler;

use gossip_stats::parallel::parallel_map;
use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};

pub use bitset::BitSet;
pub use relay::{RelayOutcome, RelayScratch, RelaySetup};
pub use sampler::FanoutSampler;

/// The flat engine's seed-stream tags, declared in the workspace
/// registry ([`gossip_stats::rng::streams`]): the single
/// per-replication RNG, and the overlay CSR a flat evaluation builds
/// once and shares across all replications.
pub use gossip_stats::rng::streams::{FLAT as FLAT_STREAM, FLAT_TOPOLOGY as FLAT_TOPOLOGY_STREAM};

/// Splits `reps` replications into at most 64 contiguous chunks so each
/// worker sweeps many replications through ONE scratch arena (allocate
/// once, reset per replication) while `parallel_map` still
/// load-balances. Chunk boundaries never affect results: every
/// replication's RNG derives from its own global index.
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
/// [`FLAT_STREAM`] RNG handed to `replicate`.
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
