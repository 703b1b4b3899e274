//! Stream (multi-message traffic) evaluation shared by the protocol
//! and netsim backends.
//!
//! When a [`Scenario`] carries a [`TrafficSpec`], both backends hand the
//! workload to `gossip-traffic`'s round-synchronous stream engine
//! instead of the per-message discrete-event simulator: per-round event
//! coalescing and arena-reused per-message state keep k = 64 streams at
//! n = 10⁴ fast, where k independent event-driven runs would replay the
//! calendar k times over.
//!
//! Both apply i.i.d. loss per frame; they differ only in clocking:
//!
//! * **protocol** — the §5 idealization: untimed, latency percentiles
//!   reported in rounds.
//! * **netsim** — timed: the constant hop latency converts rounds to
//!   seconds, pricing `quiescence_secs` and sustained
//!   `messages_per_sec`.
//!
//! Streams run the paper's base model: complete view, push relay,
//! static crash-or-alive members with an immortal source, and a
//! constant hop. [`gossip_model::support`] states what else each backend
//! declines.
//!
//! Reliability stays per message: [`gossip_model::reduce::stream`]
//! conditions each message's delivery fraction on take-off exactly like
//! the single-message estimator, so the uncontended stream reproduces
//! the single-message curves message by message.

use gossip_engine::FanoutSampler;
use gossip_model::distribution::FanoutDistribution;
use gossip_model::reduce::{self, StreamExecution};
use gossip_model::scenario::{Report, Scenario};
use gossip_model::ModelError;
use gossip_stats::parallel::parallel_map;
use gossip_stats::rng::streams::STREAM_EXEC;
use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};
use gossip_traffic::{
    injection_rounds, merge_histogram, run_stream, StreamParams, StreamScratch, TRAFFIC_PLAN_STREAM,
};

/// Evaluates the scenario's [`TrafficSpec`] stream on the round-based
/// engine. `hop_millis` is `Some(ms)` for the timed netsim run (rounds
/// are priced at the constant hop latency) and `None` for the untimed
/// protocol run.
pub(crate) fn evaluate_traffic(
    backend_name: &'static str,
    scenario: &Scenario,
    hop_millis: Option<u64>,
) -> Result<Report, ModelError> {
    let spec = scenario
        .traffic
        .expect("evaluate_traffic is only dispatched when traffic is present");
    let q = scenario
        .q()
        .expect("Scenario::validate refuses streams under crash schedules");
    let boxed = scenario.fanout.build()?;
    let dist: &dyn FanoutDistribution = &*boxed;
    let sampler = FanoutSampler::new(dist);
    let n = scenario.n;
    let injections = injection_rounds(
        &spec.arrival,
        spec.messages,
        SplitMix64::derive(scenario.seed, TRAFFIC_PLAN_STREAM),
    );

    let (chunks, bounds) = gossip_engine::chunk_bounds(scenario.replications);
    let per_chunk: Vec<(Vec<StreamExecution>, Vec<u64>)> = parallel_map(chunks, |chunk| {
        let mut scratch = StreamScratch::new();
        let mut hist: Vec<u64> = Vec::new();
        let mut alive = vec![true; n];
        let outcomes = bounds(chunk)
            .map(|rep| {
                let seed = SplitMix64::derive(scenario.seed, rep as u64);
                let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, STREAM_EXEC));
                // Static crash draw, source immortal (the paper's site
                // percolation: each member nonfailed w.p. q).
                alive[0] = true;
                for flag in alive.iter_mut().skip(1) {
                    *flag = rng.next_bool(q);
                }
                let alive_count = alive.iter().filter(|&&a| a).count();
                let p = StreamParams {
                    n,
                    source: 0,
                    injections: &injections,
                    bandwidth: spec.bandwidth,
                    queue_capacity: spec.queue_capacity,
                    frame_limit: spec.frame_limit(),
                    loss: scenario.loss,
                    alive: &alive,
                };
                let out = run_stream(
                    &p,
                    &mut scratch,
                    &mut rng,
                    &mut |r| sampler.sample(dist, r),
                    &mut hist,
                );
                StreamExecution {
                    reached: out.reached,
                    nonfailed: alive_count,
                    rounds: out.rounds,
                    copies_sent: out.counters.copies_sent,
                    copies_dropped: out.counters.copies_dropped,
                    copies_lost: out.counters.copies_lost,
                }
            })
            .collect();
        (outcomes, hist)
    });

    // Merge the per-chunk latency histograms (delivery delay in rounds
    // since each message's injection).
    let mut hist: Vec<u64> = Vec::new();
    let mut executions = Vec::with_capacity(scenario.replications);
    for (chunk_executions, chunk_hist) in per_chunk {
        merge_histogram(&mut hist, &chunk_hist);
        executions.extend(chunk_executions);
    }
    Ok(reduce::stream(
        backend_name,
        None,
        scenario,
        dist,
        hop_millis,
        &executions,
        &hist,
    ))
}
