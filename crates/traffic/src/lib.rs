//! # gossip-traffic — sustained multi-message traffic for gossip multicast
//!
//! Every layer of the workspace disseminates a single message per
//! execution; the paper's reliability model, however, is meant to
//! predict *production* multicast, where a source streams k concurrent
//! rumors and every node juggles them under a per-link budget. This
//! crate describes that workload as data and evaluates it with a
//! round-synchronous stream engine:
//!
//! * [`TrafficSpec`] — serde-friendly description riding on the model
//!   layer's `Scenario`: k concurrent messages, a seed-deterministic
//!   injection plan ([`ArrivalSpec`]: all-at-once, fixed-interval, or
//!   Poisson arrivals), a per-node bandwidth cap of B frames per round,
//!   a bounded send queue with typed overflow accounting, and rumor
//!   batching ([`BatchingSpec`]: multiple message ids piggybacked per
//!   wire frame, amortizing fanout draws).
//! * [`injection_rounds`] — the arrival plan sampled into concrete
//!   per-message injection rounds, a pure function of the seed.
//! * [`run_stream`] — the engine: per-round event coalescing, one
//!   arena-reused receipt bitset per message, frames as spans into one
//!   id arena, bounded FIFO send queues, per-frame loss draws, and
//!   exact copy conservation counters
//!   ([`StreamCounters`]). Fanout sampling is injected as a closure so
//!   this crate stays below the model layer in the dependency DAG.
//! * [`TrafficReport`] — what backends report back: per-message
//!   reliability min/mean, sustained messages/sec, and delivery-latency
//!   p50/p90/p99 in rounds ([`percentile`]).
//!
//! The default (`Scenario.traffic = None`) is a strict passthrough: no
//! code path in any backend changes, byte for byte.

pub mod engine;
pub mod plan;
pub mod report;
pub mod spec;

pub use engine::{run_stream, StreamCounters, StreamOutcome, StreamParams, StreamScratch};
pub use plan::{injection_rounds, TRAFFIC_PLAN_STREAM};
pub use report::{merge_histogram, percentile, TrafficReport};
pub use spec::{ArrivalSpec, BatchingSpec, TrafficSpec, MAX_FRAME_IDS};
