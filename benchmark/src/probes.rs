//! Per-layer numbers of the traced run: each layer's public kernels
//! timed directly, and one operation of every workload under spans.
//!
//! The same probes run whatever workload is being traced, so every
//! per-layer metric is measured in every traced run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gossip::{AdversarySpec, AdversaryStrategy, ArrivalSpec, Backend, BurstySpec, ChurnSpec};
use gossip::{FanoutSpec, OverlaySpec, PeerSelection, ProtocolBackend, Scenario, TopologySpec};
use gossip_engine::{FanoutSampler, RelayScratch, RelaySetup, FLAT_STREAM};
use gossip_faults::{BlockedLinks, ChurnPlan, GeChain, GilbertElliott};
use gossip_model::distribution::{FanoutDistribution, PoissonFanout};
use gossip_netsim::membership::FullView;
use gossip_netsim::{FailurePlan, NetworkConfig, Simulator};
use gossip_protocol::engine::{run_push, ExecutionConfig};
use gossip_protocol::{GossipMessage, MessageId, PushGossip};
use gossip_rgraph::{FlatPercolation, PercolationScratch};
use gossip_runtime::{shard_count, WireMessage};
use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};
use gossip_stats::{parallel_map, AliasTable};
use gossip_topology::{build_overlay, select_targets};
use gossip_traffic::{injection_rounds, run_stream, StreamParams, StreamScratch};

use crate::exec::{run_op, Backends, Output};
use crate::result::threads;
use crate::spec::Spec;
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::workloads::{op_seed, Work, WORKLOADS};

/// `bench` (the benchmark's own loop) and the ten crates.
pub const LAYERS: [&str; 11] = [
    "bench", "stats", "core", "engine", "rgraph", "topology", "faults", "traffic", "netsim",
    "protocol", "runtime",
];

const MILLION: usize = 1_000_000;

struct Probes<'a> {
    tracer: &'a mut Tracer,
    seed: u64,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    /// Runs `f` under a span; returns its result and its seconds.
    fn time<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.tracer.begin(span);
        let start = Instant::now();
        let value = f();
        let seconds = start.elapsed().as_secs_f64();
        self.tracer.end(id);
        (value, seconds)
    }

    /// Seconds of one call of `f`, from `calls` calls under one span.
    fn per_call<T>(
        &mut self,
        span: &'static str,
        calls: usize,
        mut f: impl FnMut(usize) -> T,
    ) -> f64 {
        let ((), seconds) = self.time(span, || {
            for i in 0..calls {
                black_box(f(i));
            }
        });
        seconds / calls as f64
    }

    fn emit(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    fn rng(&self, stream: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(SplitMix64::derive(self.seed, stream))
    }
}

/// Runs every probe; returns the metrics that are not plain span
/// durations (those come from [`span_metrics`]).
pub fn run_all(seed: u64, backends: &Backends, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        tracer,
        seed,
        out: Vec::new(),
    };
    every_workload_once(&mut p, backends);
    stats(&mut p);
    core(&mut p);
    engine(&mut p);
    rgraph(&mut p);
    topology(&mut p);
    faults(&mut p);
    traffic(&mut p);
    netsim(&mut p);
    protocol(&mut p);
    runtime(&mut p);
    p.out
}

/// `<span>_s` for every per-layer metric of that form whose span was
/// recorded: the median duration of the spans of that name.
pub fn span_metrics(spans: &[Span], spec: &Spec) -> Vec<(String, f64)> {
    spec.per_layer
        .iter()
        .filter_map(|metric| {
            let stem = metric.name.strip_suffix("_s")?;
            let seconds: Vec<f64> = spans
                .iter()
                .filter(|span| span.name == stem)
                .map(|span| span.duration_ns() as f64 * 1e-9)
                .collect();
            (!seconds.is_empty()).then(|| (metric.name.clone(), median(&seconds)))
        })
        .collect()
}

/// Operation 0 of every workload under spans, so each backend-level
/// span exists in every trace; the reports also give the counts that
/// only a `Report` carries.
fn every_workload_once(p: &mut Probes<'_>, backends: &Backends) {
    for workload in &WORKLOADS {
        let op = (workload.build)(op_seed(p.seed, 0), 0, threads());
        let Ok(run) = run_op(&op, backends, p.tracer) else {
            continue; // the replay of this workload reports the panic
        };
        for (eval, output) in op.evals.iter().zip(&run.outputs) {
            let (Work::One(scenario), Output::One(Ok(report))) = (&eval.work, output) else {
                continue;
            };
            // Messages one evaluation moved: mean per nonfailed member
            // and execution, times the expected nonfailed members.
            let messages = report.messages_per_member.unwrap_or(0.0)
                * scenario.q().unwrap_or(1.0)
                * scenario.n as f64
                * scenario.replications as f64;
            let seconds = last_span_seconds(p.tracer.spans(), eval.span);
            match eval.span {
                "runtime.channel_eval" => {
                    p.emit("runtime.channel_msgs_per_s", messages / seconds);
                    p.emit("runtime.messages_lost", report.messages_lost.unwrap_or(0.0));
                    let shards = shard_count(scenario.n, scenario.runtime.max_threads, false);
                    p.emit("runtime.shards", shards as f64);
                }
                "runtime.tcp_eval" => p.emit("runtime.tcp_msgs_per_s", messages / seconds),
                _ => {}
            }
        }
        if let Some(roundtrip) = &run.roundtrip {
            let reports = roundtrip.decoded.as_ref().map_or(1, |r| r.len().max(1)) as f64;
            let spans = p.tracer.spans();
            let encode = last_span_seconds(spans, "core.report_json_encode");
            let decode = last_span_seconds(spans, "core.report_json_decode");
            let sweep = last_span_seconds(spans, "core.sweep_poisson");
            p.emit("core.report_json_encode_us", encode / reports * 1e6);
            p.emit("core.report_json_decode_us", decode / reports * 1e6);
            p.emit("core.report_json_bytes", roundtrip.bytes as f64);
            p.emit("core.sweep_cells_per_s", reports / sweep);
        }
    }
}

fn last_span_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .rev()
        .find(|span| span.name == name)
        .map_or(f64::NAN, |span| span.duration_ns() as f64 * 1e-9)
}

/// The Po(4) pmf up to the tail the flat sampler also cuts at.
fn poisson4_weights(dist: &PoissonFanout) -> Vec<f64> {
    (0..=dist.truncation_point(1e-12))
        .map(|k| dist.pmf(k))
        .collect()
}

fn stats(p: &mut Probes<'_>) {
    let weights = poisson4_weights(&PoissonFanout::new(4.0));
    let build = p.per_call("stats.alias_build_x1000", 1000, |_| {
        AliasTable::new(&weights)
    });
    p.emit("stats.alias_build_s", build);

    let table = AliasTable::new(&weights);
    let mut rng = p.rng(1);
    let sample = p.per_call("stats.alias_sample_x1m", MILLION, |_| {
        table.sample(&mut rng)
    });
    p.emit("stats.alias_sample_ns", sample * 1e9);

    let next = p.per_call("stats.rng_next_x10m", 10 * MILLION, |_| rng.next());
    p.emit("stats.rng_next_ns", next * 1e9);

    // One job per core and nothing to do: what is left is the dispatch.
    let jobs = threads();
    let dispatch = p.per_call("stats.parallel_map_x1000", 1000, |_| {
        parallel_map(jobs, |i| i)
    });
    p.emit("stats.parallel_map_dispatch_us", dispatch * 1e6);
}

fn headline(q: f64) -> Scenario {
    Scenario::new(1000, FanoutSpec::poisson(4.0)).with_failure_ratio(q)
}

fn core(p: &mut Probes<'_>) {
    let scenario = headline(0.9);
    let validate = p.per_call("core.validate_x10k", 10_000, |_| scenario.validate());
    p.emit("core.validate_us", validate * 1e6);

    let build = p.per_call("core.fanout_build_x10k", 10_000, |_| {
        scenario.fanout.build().is_ok()
    });
    p.emit("core.fanout_build_us", build * 1e6);

    let scenarios: Vec<Scenario> = (0..100).map(|i| headline(0.3 + 0.007 * i as f64)).collect();
    let eval = p.per_call("core.analytic_eval_x10k", 10_000, |i| {
        gossip::AnalyticBackend.evaluate(&scenarios[i % scenarios.len()])
    });
    p.emit("core.analytic_eval_us", eval * 1e6);
}

fn engine(p: &mut Probes<'_>) {
    let dist = PoissonFanout::new(4.0);
    let build = p.per_call("engine.sampler_build_x1000", 1000, |_| {
        FanoutSampler::new(&dist)
    });
    p.emit("engine.sampler_build_s", build);

    for _ in 0..5 {
        p.time("engine.scratch_alloc", || RelayScratch::new(MILLION));
    }
    let sampler = FanoutSampler::new(&dist);
    let mut scratch = RelayScratch::new(MILLION);
    let setup = |q: f64| RelaySetup {
        n: MILLION,
        source: 0,
        q,
        loss: 0.0,
        dist: &dist,
        sampler: &sampler,
        overlay: None,
        blocked: None,
        prefailed: &[],
    };
    for rep in 0..3 {
        let mut rng = p.rng(0x10 + rep);
        p.time("engine.relay_fizzle_run", || {
            setup(0.1).run(&mut scratch, &mut rng)
        });
    }
    // One seed for all repetitions, so the counts belong to the timing.
    let mut outcome = None;
    let mut seconds = Vec::new();
    for _ in 0..3 {
        let mut rng = p.rng(0x20);
        let (out, s) = p.time("engine.relay_run", || {
            setup(0.9).run(&mut scratch, &mut rng)
        });
        outcome = Some(out);
        seconds.push(s);
    }
    let outcome = outcome.expect("three repetitions ran");
    let sends = outcome.messages_sent as f64;
    p.emit("engine.relay_ns_per_send", median(&seconds) * 1e9 / sends);
    p.emit("engine.relay_sends", sends);
    p.emit(
        "engine.relay_useful_ratio",
        outcome.nonfailed_reached as f64 / sends,
    );
}

fn rgraph(p: &mut Probes<'_>) {
    let dist = PoissonFanout::new(4.0);
    let sampler = FanoutSampler::new(&dist);
    for _ in 0..3 {
        p.time("rgraph.flat_scratch_alloc", || {
            PercolationScratch::new(MILLION)
        });
    }
    let mut scratch = PercolationScratch::new(MILLION);
    let percolation = FlatPercolation {
        n: MILLION,
        q: 0.9,
        loss: 0.0,
        dist: &dist,
        sampler: &sampler,
    };
    let mut seconds = Vec::new();
    for _ in 0..3 {
        let mut rng = p.rng(0x30);
        let (_, s) = p.time("rgraph.flat_run", || {
            percolation.run(&mut scratch, &mut rng)
        });
        seconds.push(s);
    }
    p.emit(
        "rgraph.flat_ns_per_node",
        median(&seconds) * 1e9 / MILLION as f64,
    );
}

const OVERLAY_N: usize = 10_000;

fn topology(p: &mut Probes<'_>) {
    let overlay = OverlaySpec::WattsStrogatz { k: 10, beta: 0.1 };
    let seed = SplitMix64::derive(p.seed, 0x40);
    let mut topo = None;
    for _ in 0..3 {
        topo = Some(
            p.time("topology.build_overlay", || {
                build_overlay(&overlay, OVERLAY_N, seed)
            })
            .0,
        );
    }
    let topo = topo.expect("three repetitions ran");
    p.emit("topology.edges", topo.edge_count() as f64);

    let mut rng = p.rng(0x41);
    let mut targets = Vec::new();
    let select = p.per_call("topology.select_targets_x100k", 100_000, |i| {
        let node = (i % OVERLAY_N) as u32;
        select_targets(
            &topo,
            PeerSelection::RandomNeighbour,
            node,
            4,
            &mut rng,
            &mut targets,
        );
        targets.len()
    });
    p.emit("topology.select_targets_ns", select * 1e9);

    let spec = TopologySpec::new(overlay).with_selection(PeerSelection::RandomNeighbour);
    let validate = p.per_call("topology.validate_x10k", 10_000, |_| {
        spec.validate(OVERLAY_N)
    });
    p.emit("topology.validate_us", validate * 1e6);
}

fn faults(p: &mut Probes<'_>) {
    let adversary = AdversarySpec {
        f: 1000,
        strategy: AdversaryStrategy::Random,
    };
    let seed = SplitMix64::derive(p.seed, 0x50);
    let mut blocked = None;
    for _ in 0..3 {
        let build = || BlockedLinks::build(OVERLAY_N, 0, &adversary, seed);
        blocked = Some(p.time("faults.blocked_build", build).0);
    }
    let blocked = blocked.expect("three repetitions ran");
    let mut rng = p.rng(0x51);
    let lookup = p.per_call("faults.blocked_lookup_x1m", MILLION, |_| {
        let from = rng.next_below(OVERLAY_N as u64) as u32;
        blocked.blocks(from, from.wrapping_mul(31) % OVERLAY_N as u32)
    });
    p.emit("faults.blocked_lookup_ns", lookup * 1e9);

    let ge = GilbertElliott::new(&BurstySpec {
        p_gb: 0.05,
        p_bg: 0.3,
        loss_good: 0.01,
        loss_bad: 0.8,
    });
    let mut chain = GeChain::start(&ge, &mut rng);
    let transmit = p.per_call("faults.ge_transmit_x1m", MILLION, |_| {
        chain.transmit(&ge, &mut rng)
    });
    p.emit("faults.ge_transmit_ns", transmit * 1e9);

    let churn = ChurnSpec::symmetric(10.0, 200);
    for _ in 0..3 {
        p.time("faults.churn_plan", || {
            ChurnPlan::sample(&churn, OVERLAY_N, 0, seed)
        });
    }
}

fn traffic(p: &mut Probes<'_>) {
    let arrival = ArrivalSpec::Poisson {
        rate_per_round: 1.0,
    };
    let seed = p.seed;
    let plan = p.per_call("traffic.injection_plan_x1000", 1000, |i| {
        injection_rounds(&arrival, 16, seed.wrapping_add(i as u64))
    });
    p.emit("traffic.injection_plan_us", plan * 1e6);

    let dist = PoissonFanout::new(4.0);
    let sampler = FanoutSampler::new(&dist);
    let alive = vec![true; 1000];
    let burst = vec![0u64; 16];
    let params = |frame_limit: usize| StreamParams {
        n: 1000,
        source: 0,
        injections: &burst,
        bandwidth: Some(2),
        queue_capacity: 32,
        frame_limit,
        loss: 0.0,
        alive: &alive,
    };
    let mut scratch = StreamScratch::new();
    let mut latency = Vec::new();
    let mut run = |p: &mut Probes<'_>, span: &'static str, frame_limit: usize| {
        let mut last = None;
        let mut seconds = Vec::new();
        for _ in 0..5 {
            let mut rng = p.rng(0x60);
            let mut fanout = |rng: &mut Xoshiro256StarStar| sampler.sample(&dist, rng);
            let stream = || {
                run_stream(
                    &params(frame_limit),
                    &mut scratch,
                    &mut rng,
                    &mut fanout,
                    &mut latency,
                )
            };
            let (outcome, s) = p.time(span, stream);
            last = Some(outcome.counters);
            seconds.push(s);
        }
        (last.expect("five repetitions ran"), median(&seconds))
    };
    let (unbatched, seconds) = run(p, "traffic.run_stream_unbatched", 1);
    p.emit(
        "traffic.ns_per_copy",
        seconds * 1e9 / unbatched.copies_created as f64,
    );
    p.emit("traffic.copies_dropped", unbatched.copies_dropped as f64);
    let useful = unbatched.copies_delivered as f64 / unbatched.copies_sent as f64;
    p.emit("traffic.useful_copy_ratio", useful);
    let (piggyback, _) = run(p, "traffic.run_stream_piggyback", 8);
    p.emit("traffic.frames_sent", piggyback.frames_sent as f64);
}

fn netsim(p: &mut Probes<'_>) {
    const N: usize = 100_000;
    let dist: Arc<dyn FanoutDistribution> = Arc::new(PoissonFanout::new(4.0));
    let seed = SplitMix64::derive(p.seed, 0x70);
    let behaviors: Vec<PushGossip> = (0..N).map(|_| PushGossip::new(dist.clone())).collect();
    let mut sim = Simulator::new(
        behaviors,
        NetworkConfig::default(),
        Box::new(FullView::new(N)),
        seed,
    );
    sim.apply_failure_plan(&FailurePlan::paper_model(0.9, 0));
    sim.inject(0, 0, GossipMessage::new(MessageId(seed), &b"payload"[..]));
    let (events, seconds) = p.time("netsim.run_to_quiescence", || {
        sim.run_to_quiescence().events_processed
    });
    p.emit("netsim.events", events as f64);
    p.emit("netsim.sim_events_per_s", events as f64 / seconds);
    p.emit("netsim.ns_per_event", seconds * 1e9 / events as f64);
}

fn protocol(p: &mut Probes<'_>) {
    let config = ExecutionConfig::new(10_000, 0.9);
    let dist = PoissonFanout::new(4.0);
    let seed = SplitMix64::derive(p.seed, 0x80);
    let mut outcome = None;
    let mut seconds = Vec::new();
    for _ in 0..3 {
        let (out, s) = p.time("protocol.run_push", || run_push(&config, &dist, seed));
        outcome = out.ok();
        seconds.push(s);
    }
    if let Some(outcome) = outcome {
        let sent = outcome.messages_sent as f64;
        p.emit(
            "protocol.run_push_ns_per_msg",
            median(&seconds) * 1e9 / sent,
        );
        p.emit("protocol.duplicate_ratio", outcome.duplicates as f64 / sent);
    }

    // What the protocol backend adds around the engine on a flat
    // evaluation that fizzles: the evaluation, minus the same engine
    // calls (alias table, one arena and one relay run per replication,
    // same seeds) made directly.
    let scenario = Scenario::new(MILLION, FanoutSpec::poisson(4.0))
        .with_failure_ratio(0.1)
        .with_engine(gossip::EngineSpec::Flat)
        .with_replications(2)
        .with_seed(seed);
    let mut own = Vec::new();
    for _ in 0..5 {
        let (_, whole) = p.time("protocol.backend_self_eval", || {
            ProtocolBackend.evaluate(&scenario)
        });
        let (_, kernels) = p.time("protocol.backend_self_kernels", || {
            let sampler = FanoutSampler::new(&dist);
            for rep in 0..scenario.replications as u64 {
                let mut scratch = RelayScratch::new(MILLION);
                let rep_seed = SplitMix64::derive(scenario.seed, rep);
                let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(rep_seed, FLAT_STREAM));
                let setup = RelaySetup {
                    n: MILLION,
                    source: 0,
                    q: 0.1,
                    loss: 0.0,
                    dist: &dist,
                    sampler: &sampler,
                    overlay: None,
                    blocked: None,
                    prefailed: &[],
                };
                black_box(setup.run(&mut scratch, &mut rng));
            }
        });
        own.push(whole - kernels);
    }
    p.emit("protocol.backend_self_s", median(&own));
}

fn runtime(p: &mut Probes<'_>) {
    let message = WireMessage {
        id: p.seed,
        from: 7,
        hop: 3,
        arrival_virtual_ns: 12_500_000,
        ids: (0..8).collect(),
    };
    let line = serde::json::to_string(&message).expect("a WireMessage has a JSON form");
    let encode = p.per_call("runtime.wire_encode_x100k", 100_000, |_| {
        serde::json::to_string(&message).map(|l| l.len())
    });
    let decode = p.per_call("runtime.wire_decode_x100k", 100_000, |_| {
        serde::json::from_str::<WireMessage>(&line).map(|m| m.hop)
    });
    p.emit("runtime.wire_encode_ns", encode * 1e9);
    p.emit("runtime.wire_decode_ns", decode * 1e9);
    p.emit("runtime.wire_bytes", line.len() as f64);
}
