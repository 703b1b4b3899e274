//! [`RuntimeBackend`] — the live-execution layer of the unified
//! `Scenario` → `Backend` → `Report` API.
//!
//! Where the protocol and netsim backends *simulate* concurrency inside
//! one event loop, this backend actually runs it: node actors on real
//! OS threads, messages through a pluggable [`Transport`]. The same
//! Monte-Carlo reduction as the model layers ([`gossip_model::reduce`]:
//! take-off conditioning over seed-derived replications) sits on top,
//! so a runtime [`Report`] is directly comparable with the other four
//! backends — that agreement is the end-to-end check that the
//! *implemented* protocol, not just its models, matches the paper's
//! predictions.

use gossip_model::reduce::{self, Execution, StreamExecution};
use gossip_model::scenario::{Backend, FailureSpec, LatencySpec, ProtocolSpec, Report, Scenario};
use gossip_model::ModelError;
use gossip_stats::parallel::hardware_threads;
use gossip_stats::rng::SplitMix64;

use crate::channel::ChannelTransport;
use crate::exec::{run_execution, ExecParams, NS_PER_MS};
use crate::tcp::TcpTransport;
use crate::transport::Transport;

/// The member the broadcast is injected at.
pub(crate) const SOURCE: u32 = 0;

/// Group-size ceiling for the TCP transport: each alive member holds an
/// open listener, so `n` is bounded by the process fd budget.
const TCP_MAX_GROUP: usize = 1024;

/// Which wire the runtime puts messages on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process mailboxes: the fast transport.
    #[default]
    Channel,
    /// Real loopback TCP sockets with line-delimited JSON framing.
    Tcp,
}

/// The live-execution backend (see module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeBackend {
    transport: TransportKind,
}

impl RuntimeBackend {
    /// Runtime over the in-process channel transport (the default).
    pub fn channel() -> Self {
        RuntimeBackend {
            transport: TransportKind::Channel,
        }
    }

    /// Runtime over loopback TCP sockets.
    pub fn tcp() -> Self {
        RuntimeBackend {
            transport: TransportKind::Tcp,
        }
    }

    /// The configured transport.
    pub fn transport(&self) -> TransportKind {
        self.transport
    }
}

/// How many shard threads to multiplex `n` node actors over.
///
/// `max_threads = 0` picks an automatic width from the machine's
/// parallelism; an explicit value is honoured (capped by `n`). When the
/// caller is *already* inside a `parallel_map` worker — a sweep grid
/// evaluating cells in parallel — the runtime collapses to one shard so
/// the two layers cannot multiply into `workers²` oversubscription.
pub fn shard_count(n: usize, max_threads: usize, nested: bool) -> usize {
    if nested {
        return 1;
    }
    let shards = if max_threads == 0 {
        (hardware_threads() * 8).clamp(8, 256)
    } else {
        max_threads
    };
    shards.min(n).max(1)
}

fn reject_unsupported(scenario: &Scenario, n_cap: Option<usize>) -> Result<(), ModelError> {
    if scenario.protocol == ProtocolSpec::PushPull {
        return Err(ModelError::Unsupported {
            backend: "runtime",
            what: "push-pull anti-entropy (the runtime implements push and flood; use the netsim backend)",
        });
    }
    if let Some(cap) = n_cap {
        if scenario.n > cap {
            return Err(ModelError::Unsupported {
                backend: "runtime-tcp",
                what: "groups larger than 1024 over TCP (one loopback listener per member exhausts the fd budget; use the channel transport)",
            });
        }
    }
    if scenario.faults.churn.is_some() && !scenario.topology.is_default() {
        return Err(ModelError::Unsupported {
            backend: "runtime",
            what: "membership churn combined with overlays (joiners can only bootstrap into the full view)",
        });
    }
    Ok(())
}

/// Why this scenario's stream cannot run live, if it can't. Live
/// streams model the paper's base system only: complete view, push
/// relay, static crashes, constant hop latency (the token bucket's
/// round is the hop).
fn check_stream_support(backend: &'static str, scenario: &Scenario) -> Result<(), ModelError> {
    let what = if scenario.protocol != ProtocolSpec::Push {
        "multi-message traffic for flood variants (live streams use the push relay)"
    } else if !scenario.topology.is_default() {
        "multi-message traffic over structured overlays (live streams run on the complete view)"
    } else if !scenario.faults.is_default() {
        "multi-message traffic under dynamic fault injection (live streams model static crashes only)"
    } else if matches!(scenario.failure, FailureSpec::Schedule { .. }) {
        "crash schedules under multi-message traffic (live streams draw static crashes from q)"
    } else if !matches!(scenario.latency, LatencySpec::ConstantMillis { .. }) {
        "multi-message traffic under stochastic latency (the token bucket's round is the constant hop; use ConstantMillis)"
    } else {
        return Ok(());
    };
    Err(ModelError::Unsupported { backend, what })
}

/// Runs the scenario's replications sequentially over `transport` and
/// hands their digests to [`gossip_model::reduce`]: one sample per
/// execution for a single broadcast, one per message for a stream —
/// with throughput priced on the virtual clock, so reports stay free of
/// wall-clock scheduling noise.
fn evaluate_over<T: Transport>(
    transport: &T,
    scenario: &Scenario,
    backend_name: &str,
) -> Result<Report, ModelError> {
    if scenario.traffic.is_some() {
        check_stream_support(transport.name(), scenario)?;
    }
    let dist = scenario.fanout.build()?;
    let params = ExecParams::new(scenario, &*dist);

    // Replications run sequentially: each one already fans out over the
    // shard threads (and, over TCP, the kernel), so stacking replication
    // parallelism on top would oversubscribe without adding fidelity.
    let mut broadcasts: Vec<Execution> = Vec::new();
    let mut streams: Vec<StreamExecution> = Vec::new();
    let mut hist: Vec<u64> = Vec::new();
    for rep in 0..scenario.replications {
        let seed = SplitMix64::derive(scenario.seed, rep as u64);
        let record = run_execution(transport, &params, seed)?.ok_or(ModelError::NoConvergence {
            what: "runtime quiescence (a live execution hit its watchdog deadline)",
            iterations: rep,
        })?;
        if scenario.traffic.is_some() {
            streams.push(record.stream(&params.injections, &mut hist));
        } else {
            broadcasts.push(record.broadcast());
        }
    }
    let transport_name = Some(transport.name());
    if scenario.traffic.is_none() {
        return reduce::conditioned(backend_name, transport_name, scenario, &*dist, broadcasts);
    }
    let hop_ms = Some(params.round_ns / NS_PER_MS);
    reduce::stream(
        backend_name,
        transport_name,
        scenario,
        &*dist,
        hop_ms,
        &streams,
        &hist,
    )
}

impl Backend for RuntimeBackend {
    fn name(&self) -> &'static str {
        match self.transport {
            TransportKind::Channel => "runtime",
            TransportKind::Tcp => "runtime-tcp",
        }
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Report, ModelError> {
        scenario.validate()?;
        match self.transport {
            TransportKind::Channel => {
                reject_unsupported(scenario, None)?;
                evaluate_over(&ChannelTransport, scenario, self.name())
            }
            TransportKind::Tcp => {
                reject_unsupported(scenario, Some(TCP_MAX_GROUP))?;
                evaluate_over(&TcpTransport, scenario, self.name())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::scenario::{AnalyticBackend, FanoutSpec, LatencySpec, RuntimeSpec};
    use std::time::Duration;

    fn headline(n: usize, reps: usize) -> Scenario {
        Scenario::new(n, FanoutSpec::poisson(6.0))
            .with_failure_ratio(0.9)
            .with_replications(reps)
    }

    #[test]
    fn channel_matches_analytic() {
        let scenario = headline(500, 10);
        let analytic = AnalyticBackend.evaluate(&scenario).unwrap();
        let live = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        assert_eq!(live.backend, "runtime");
        assert_eq!(live.transport.as_deref(), Some("channel"));
        assert!(
            (live.reliability - analytic.reliability).abs() < 0.05,
            "runtime {} vs analytic {}",
            live.reliability,
            analytic.reliability
        );
        assert!(live.rounds.unwrap() > 1.0);
        assert!(live.messages_per_member.unwrap() > 1.0);
        assert_eq!(live.quiescence_secs, None);
    }

    #[test]
    fn tcp_matches_analytic_small_group() {
        let scenario = headline(96, 4);
        let analytic = AnalyticBackend.evaluate(&scenario).unwrap();
        let live = RuntimeBackend::tcp().evaluate(&scenario).unwrap();
        assert_eq!(live.backend, "runtime-tcp");
        assert_eq!(live.transport.as_deref(), Some("tcp"));
        assert!(
            (live.reliability - analytic.reliability).abs() < 0.12,
            "tcp runtime {} vs analytic {}",
            live.reliability,
            analytic.reliability
        );
    }

    #[test]
    fn runtime_honours_loss() {
        // Loss thins the relay graph exactly like bond percolation.
        let lossy = headline(500, 8).with_loss(0.25);
        let analytic = AnalyticBackend.evaluate(&lossy).unwrap();
        let live = RuntimeBackend::channel().evaluate(&lossy).unwrap();
        assert!(
            (live.reliability - analytic.reliability).abs() < 0.06,
            "lossy runtime {} vs analytic {}",
            live.reliability,
            analytic.reliability
        );
        assert!(live.messages_lost.unwrap() > 0.0);
    }

    #[test]
    fn flood_reaches_everyone_alive() {
        let scenario = headline(200, 3).with_protocol(ProtocolSpec::Flood);
        let live = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        assert!(live.reliability > 0.999, "flood r = {}", live.reliability);
    }

    #[test]
    fn rejects_unsupported_combinations() {
        assert!(matches!(
            RuntimeBackend::channel()
                .evaluate(&headline(100, 2).with_protocol(ProtocolSpec::PushPull)),
            Err(ModelError::Unsupported { .. })
        ));
        assert!(matches!(
            RuntimeBackend::tcp().evaluate(&headline(2000, 2)),
            Err(ModelError::Unsupported { .. })
        ));
        // The channel transport has no fd budget: n = 2000 is fine.
        assert!(RuntimeBackend::channel()
            .evaluate(&headline(2000, 1))
            .is_ok());
    }

    #[test]
    fn structured_overlay_gossips_on_channel() {
        use gossip_topology::{OverlaySpec, TopologySpec};
        // Dense small world at a supercritical point: the live protocol
        // should still take off, and the report should say which
        // overlay it ran on.
        let scenario =
            headline(400, 6).with_topology(TopologySpec::new(OverlaySpec::WattsStrogatz {
                k: 10,
                beta: 0.3,
            }));
        let live = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        assert_eq!(live.topology.as_deref(), Some("ws(k=10,beta=0.3)/neigh"));
        assert!(live.reliability > 0.5, "overlay r = {}", live.reliability);
        // The baseline scenario keeps the label empty.
        let plain = RuntimeBackend::channel()
            .evaluate(&headline(200, 2))
            .unwrap();
        assert_eq!(plain.topology, None);
    }

    #[test]
    fn scamp_views_gossip_on_channel() {
        use gossip_topology::{OverlaySpec, TopologySpec};
        // Live actors gossip into their SCAMP views like into any other
        // overlay's neighbour lists.
        let scenario =
            headline(300, 4).with_topology(TopologySpec::new(OverlaySpec::Scamp { c: 2 }));
        let live = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        assert_eq!(live.topology.as_deref(), Some("scamp(c=2)/neigh"));
        assert!(live.reliability > 0.5, "scamp r = {}", live.reliability);
    }

    #[test]
    fn structured_overlay_gossips_on_tcp() {
        use gossip_topology::{OverlaySpec, TopologySpec};
        // No failures: flooding the (always connected) ring overlay must
        // reach everyone, even though each relay only hits neighbours.
        let scenario = Scenario::new(96, FanoutSpec::poisson(6.0))
            .with_replications(2)
            .with_topology(TopologySpec::new(OverlaySpec::Ring { shortcuts: 96 }))
            .with_protocol(ProtocolSpec::Flood);
        let live = RuntimeBackend::tcp().evaluate(&scenario).unwrap();
        assert_eq!(live.transport.as_deref(), Some("tcp"));
        assert_eq!(live.topology.as_deref(), Some("ring(s=96)/neigh"));
        assert_eq!(live.reliability, 1.0);
    }

    #[test]
    fn churn_runs_live_and_labels_the_report() {
        use gossip_model::{ChurnSpec, FaultSpec};
        use gossip_topology::{OverlaySpec, TopologySpec};
        // No crashes, q = 1: mid-run churn is the only disturbance. At
        // these rates ~4 joins and ~4 leaves hit a 200-member group;
        // reliability stays high because joiners bootstrap into the
        // view and get gossiped to after their join stamp.
        let scenario = Scenario::new(200, FanoutSpec::poisson(6.0))
            .with_replications(6)
            .with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(20.0, 200)));
        let live = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        assert_eq!(
            live.faults.as_deref(),
            Some("churn(j=20,l=20,h=200ms)"),
            "report must carry the fault label"
        );
        assert!(live.reliability > 0.8, "churned r = {}", live.reliability);
        // Churn over a structured overlay is refused: joiners cannot
        // bootstrap into a neighbour list.
        let structured = scenario
            .clone()
            .with_topology(TopologySpec::new(OverlaySpec::Ring { shortcuts: 200 }));
        assert!(matches!(
            RuntimeBackend::channel().evaluate(&structured),
            Err(ModelError::Unsupported { .. })
        ));
    }

    #[test]
    fn zone_kill_at_start_removes_the_zone() {
        use gossip_model::FaultSpec;
        use gossip_topology::{OverlaySpec, TopologySpec};
        // Kill 1 of 4 zones at t = 0 on a clustered overlay: the zone
        // never participates, and the denominator shrinks to the
        // survivors (source's zone 0 keeps its immune source).
        let scenario = Scenario::new(200, FanoutSpec::poisson(6.0))
            .with_replications(4)
            .with_topology(TopologySpec::new(OverlaySpec::Clustered {
                zones: 4,
                intra: 5,
                inter: 3,
            }))
            .with_faults(FaultSpec::none().with_zone_failure(vec![2], 0));
        let live = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        assert_eq!(live.faults.as_deref(), Some("zones([2]@0ms)"));
        assert!(
            live.reliability > 0.9,
            "survivors should still connect, r = {}",
            live.reliability
        );
    }

    #[test]
    fn bursty_loss_bites_harder_than_its_mean() {
        use gossip_model::{BurstySpec, FaultSpec};
        // Long bad bursts at a ~0.25 mean rate: reliability drops below
        // the clean run; the report carries the channel parameters.
        let clean = headline(300, 5).with_failure_ratio(1.0);
        let bursty = clean
            .clone()
            .with_faults(FaultSpec::none().with_bursty_loss(BurstySpec {
                p_gb: 0.05,
                p_bg: 0.15,
                loss_good: 0.0,
                loss_bad: 1.0,
            }));
        let clean_r = RuntimeBackend::channel().evaluate(&clean).unwrap();
        let bursty_r = RuntimeBackend::channel().evaluate(&bursty).unwrap();
        assert!(bursty_r.faults.as_deref().unwrap().starts_with("ge("));
        assert!(
            bursty_r.reliability_raw.unwrap() < clean_r.reliability_raw.unwrap(),
            "bursty {} should undercut clean {}",
            bursty_r.reliability_raw.unwrap(),
            clean_r.reliability_raw.unwrap()
        );
    }

    #[test]
    fn worst_case_adversary_blocks_the_live_source() {
        use gossip_model::{AdversaryStrategy, FaultSpec};
        // f = n − 1 cuts every uplink of source 0: only the source
        // delivers, however the threads race.
        let scenario = headline(100, 3)
            .with_failure_ratio(1.0)
            .with_faults(FaultSpec::none().with_adversary(99, AdversaryStrategy::WorstCase));
        let live = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        assert_eq!(live.faults.as_deref(), Some("adv(f=99,worst)"));
        assert!(
            live.reliability_raw.unwrap() < 0.011,
            "raw r = {}",
            live.reliability_raw.unwrap()
        );
        assert!(live.messages_lost.unwrap() > 0.0);
    }

    #[test]
    fn faults_run_over_tcp_too() {
        use gossip_model::{ChurnSpec, FaultSpec};
        let scenario = Scenario::new(64, FanoutSpec::poisson(6.0))
            .with_replications(2)
            .with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(15.0, 200)));
        let live = RuntimeBackend::tcp().evaluate(&scenario).unwrap();
        assert_eq!(live.transport.as_deref(), Some("tcp"));
        assert!(
            live.reliability > 0.7,
            "tcp churned r = {}",
            live.reliability
        );
    }

    #[test]
    fn live_stream_matches_analytic_on_channel() {
        use gossip_model::TrafficSpec;
        let scenario = headline(400, 8).with_traffic(TrafficSpec::stream(4));
        let analytic = AnalyticBackend.evaluate(&scenario).unwrap();
        let live = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        let traffic = live.traffic.as_ref().unwrap();
        assert_eq!(traffic.messages, 4);
        assert!(
            (traffic.reliability_mean - analytic.reliability).abs() < 0.06,
            "live stream mean {} vs analytic {}",
            traffic.reliability_mean,
            analytic.reliability
        );
        assert!(traffic.reliability_min <= traffic.reliability_mean);
        // Timing rides the virtual clock: throughput and latency
        // percentiles are present, wall-clock quiescence is not.
        assert!(traffic.messages_per_sec.unwrap() > 0.0);
        assert!(traffic.latency_rounds_p50.unwrap() >= 1.0);
        assert_eq!(live.quiescence_secs, None);
        assert_eq!(live.transport.as_deref(), Some("channel"));
    }

    #[test]
    fn live_stream_runs_over_tcp() {
        use gossip_model::TrafficSpec;
        let scenario = Scenario::new(64, FanoutSpec::poisson(6.0))
            .with_replications(2)
            .with_traffic(TrafficSpec::stream(3));
        let live = RuntimeBackend::tcp().evaluate(&scenario).unwrap();
        let traffic = live.traffic.as_ref().unwrap();
        assert_eq!(live.transport.as_deref(), Some("tcp"));
        assert!(
            traffic.reliability_mean > 0.9,
            "fault-free tcp stream mean = {}",
            traffic.reliability_mean
        );
    }

    #[test]
    fn live_stream_batches_under_a_bandwidth_cap() {
        use gossip_model::TrafficSpec;
        let spec = TrafficSpec::stream(16)
            .with_bandwidth(2)
            .with_queue_capacity(8)
            .with_piggyback(8);
        let scenario = Scenario::new(200, FanoutSpec::poisson(4.0))
            .with_replications(4)
            .with_traffic(spec);
        let live = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        let traffic = live.traffic.as_ref().unwrap();
        assert!(traffic.batched);
        assert!(traffic.copies_sent.unwrap() > 0.0);
        assert!(traffic.reliability_min <= traffic.reliability_mean);
    }

    #[test]
    fn live_stream_refusals_are_typed() {
        use gossip_model::TrafficSpec;
        use gossip_topology::{OverlaySpec, TopologySpec};
        let stream = |s: Scenario| s.with_traffic(TrafficSpec::stream(4));
        assert!(matches!(
            RuntimeBackend::channel()
                .evaluate(&stream(headline(100, 2).with_protocol(ProtocolSpec::Flood))),
            Err(ModelError::Unsupported { .. })
        ));
        assert!(matches!(
            RuntimeBackend::channel().evaluate(&stream(
                headline(100, 2).with_latency(LatencySpec::ExponentialMillis { mean_ms: 5 })
            )),
            Err(ModelError::Unsupported { .. })
        ));
        assert!(matches!(
            RuntimeBackend::tcp()
                .evaluate(&stream(headline(100, 2).with_topology(TopologySpec::new(
                    OverlaySpec::Ring { shortcuts: 100 }
                )))),
            Err(ModelError::Unsupported { .. })
        ));
    }

    #[test]
    fn shard_count_policy() {
        // Nested inside a parallel_map worker: always one shard.
        assert_eq!(shard_count(1000, 0, true), 1);
        assert_eq!(shard_count(1000, 64, true), 1);
        // Explicit cap honoured, bounded by the group size.
        assert_eq!(shard_count(1000, 4, false), 4);
        assert_eq!(shard_count(2, 64, false), 2);
        // Auto: at least 8 shards, never more than members.
        let auto = shard_count(1000, 0, false);
        assert!((8..=256).contains(&auto));
        assert_eq!(shard_count(3, 0, false), 3);
    }

    #[test]
    fn pacing_slows_wall_clock_not_results() {
        let base = headline(64, 2).with_latency(LatencySpec::ConstantMillis { ms: 20 });
        let paced = base.clone().with_runtime(RuntimeSpec {
            max_threads: 0,
            pacing_micros_per_milli: 50,
            watchdog_secs: 0,
        });
        let fast = RuntimeBackend::channel().evaluate(&base).unwrap();
        let t0 = std::time::Instant::now();
        let slow = RuntimeBackend::channel().evaluate(&paced).unwrap();
        let paced_wall = t0.elapsed();
        assert_eq!(fast.reliability, slow.reliability);
        assert_eq!(fast.rounds, slow.rounds);
        // ~6 relay generations × 20 ms × 50 µs/ms ≈ 6 ms per rep floor.
        assert!(paced_wall > Duration::from_millis(2), "pacing was a no-op");
    }
}
