//! The eight workloads: what one operation of each evaluates, and why
//! the workload exists.
//!
//! An operation is a fixed chain of `Backend::evaluate` / `SweepGrid::run`
//! calls. Everything random in it derives from the operation's seed, so
//! the library only ever sees generated `Scenario` values.

use gossip::{
    AdversaryStrategy, ArrivalSpec, BurstySpec, EngineSpec, FanoutSpec, FaultSpec, LatencySpec,
    OverlaySpec, PeerSelection, RuntimeSpec, Scenario, SweepGrid, TopologySpec, TrafficSpec,
};
use gossip_stats::rng::SplitMix64;

/// Which evaluation layer an [`Eval`] calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    Analytic,
    Graph,
    Protocol,
    NetSim,
    RuntimeChannel,
    RuntimeTcp,
}

/// What an evaluation's reliability is checked against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reference {
    /// `AnalyticBackend` (Eq. 11) on the same scenario; range check only
    /// where the analytic layer declines the scenario.
    Analytic,
    /// The other evaluations of the op that carry the same group id must
    /// agree with each other within [`AGREEMENT_TOLERANCE`].
    Agreement(u8),
    /// Another backend evaluated on the same scenario during the check.
    Backend(BackendKind),
    /// Finite and in range only (contended streams have no closed form
    /// and no second implementation of the same scenario in the op).
    RangeOnly,
}

/// Tolerance of [`Reference::Agreement`] and [`Reference::Backend`].
pub const AGREEMENT_TOLERANCE: f64 = 0.05;

/// One scenario or one grid of scenarios.
pub enum Work {
    One(Scenario),
    Grid(SweepGrid),
}

/// One timed call into a backend.
pub struct Eval {
    /// Span name of the call; its prefix is the layer (crate) that owns
    /// the backend.
    pub span: &'static str,
    pub backend: BackendKind,
    pub work: Work,
    pub reference: Reference,
}

impl Eval {
    fn one(span: &'static str, backend: BackendKind, s: Scenario, reference: Reference) -> Eval {
        Eval {
            span,
            backend,
            work: Work::One(s),
            reference,
        }
    }

    fn grid(span: &'static str, backend: BackendKind, grid: SweepGrid) -> Eval {
        Eval {
            span,
            backend,
            work: Work::Grid(grid),
            reference: Reference::Analytic,
        }
    }

    /// `Backend::evaluate` calls this entry makes (a grid cell is one).
    pub fn evaluations(&self) -> usize {
        match &self.work {
            Work::One(_) => 1,
            Work::Grid(grid) => grid.len(),
        }
    }
}

/// One operation of a workload.
pub struct Op {
    pub evals: Vec<Eval>,
    /// Index of the evaluation whose `Report`s are also pushed through a
    /// JSON encode + decode round trip inside the timed region.
    pub json_roundtrip: Option<usize>,
    /// Index of the evaluation the check runs a second time, asking for
    /// a byte-identical `Report` (deterministic replay).
    pub replay: Option<usize>,
}

impl Op {
    fn of(evals: Vec<Eval>) -> Op {
        Op {
            evals,
            json_roundtrip: None,
            replay: None,
        }
    }

    pub fn evaluations(&self) -> usize {
        self.evals.iter().map(Eval::evaluations).sum()
    }
}

/// A named workload: `build(op_seed, op_index, threads)` generates the
/// op's inputs. Why each one exists is recorded in `BENCHMARK.json`.
pub struct Workload {
    pub name: &'static str,
    pub build: fn(u64, u64, usize) -> Op,
}

/// Seed of operation `index` of a run started with `--seed seed`.
pub fn op_seed(seed: u64, index: u64) -> u64 {
    SplitMix64::derive(seed, index)
}

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "fig4_flat_1m",
        build: fig4_flat_1m,
    },
    Workload {
        name: "fig4_flat_1m_fizzle",
        build: fig4_flat_1m_fizzle,
    },
    Workload {
        name: "paper_grid_1k",
        build: paper_grid_1k,
    },
    Workload {
        name: "overlay_faults_10k",
        build: overlay_faults_10k,
    },
    Workload {
        name: "stream_k16_1k",
        build: stream_k16_1k,
    },
    Workload {
        name: "runtime_channel",
        build: runtime_channel,
    },
    Workload {
        name: "runtime_tcp",
        build: runtime_tcp,
    },
    Workload {
        name: "analytic_design",
        build: analytic_design,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const MILLION: usize = 1_000_000;

fn fig4_flat_1m(seed: u64, index: u64, _threads: usize) -> Op {
    let q = [0.5, 0.7, 0.9][(index % 3) as usize];
    let scenario = Scenario::new(MILLION, FanoutSpec::poisson(4.0))
        .with_failure_ratio(q)
        .with_engine(EngineSpec::Flat)
        .with_replications(2)
        .with_seed(seed);
    Op::of(vec![
        Eval::one(
            "rgraph.eval_flat",
            BackendKind::Graph,
            scenario.clone(),
            Reference::Analytic,
        ),
        Eval::one(
            "protocol.eval_flat",
            BackendKind::Protocol,
            scenario,
            Reference::Analytic,
        ),
    ])
}

fn fig4_flat_1m_fizzle(seed: u64, _index: u64, _threads: usize) -> Op {
    // All below q_c = 1/4 of Po(4).
    const QS: [f64; 4] = [0.05, 0.10, 0.15, 0.20];
    let evals = (0..16u64)
        .map(|j| {
            let scenario = Scenario::new(MILLION, FanoutSpec::poisson(4.0))
                .with_failure_ratio(QS[(j % 4) as usize])
                .with_engine(EngineSpec::Flat)
                .with_replications(2)
                .with_seed(SplitMix64::derive(seed, j));
            Eval::one(
                "protocol.eval_flat_fizzle",
                BackendKind::Protocol,
                scenario,
                Reference::Analytic,
            )
        })
        .collect();
    Op::of(evals)
}

fn paper_grid_1k(seed: u64, _index: u64, _threads: usize) -> Op {
    let base = Scenario::new(1000, FanoutSpec::poisson(4.0))
        .with_replications(20)
        .with_seed(seed);
    let grid = |base: Scenario| {
        SweepGrid::new(base)
            .over_poisson_means(&[2.0, 3.0, 4.0, 5.0, 6.0])
            .over_failure_ratios(&[0.4, 0.6, 0.8, 1.0])
    };
    let lossy = base
        .clone()
        .with_loss(0.05)
        .with_latency(LatencySpec::ExponentialMillis { mean_ms: 20 });
    Op::of(vec![
        Eval::grid(
            "core.eval_grid_1k",
            BackendKind::Analytic,
            grid(base.clone()),
        ),
        Eval::grid(
            "rgraph.eval_classic",
            BackendKind::Graph,
            grid(base.clone()),
        ),
        Eval::grid("protocol.eval_classic", BackendKind::Protocol, grid(base)),
        Eval::grid("netsim.eval", BackendKind::NetSim, grid(lossy)),
    ])
}

fn overlay_faults_10k(seed: u64, _index: u64, _threads: usize) -> Op {
    let small_world = Scenario::new(10_000, FanoutSpec::poisson(4.0))
        .with_topology(
            TopologySpec::new(OverlaySpec::WattsStrogatz { k: 10, beta: 0.1 })
                .with_selection(PeerSelection::RandomNeighbour),
        )
        .with_replications(2)
        .with_seed(seed);
    let faulty = Scenario::new(10_000, FanoutSpec::poisson(5.0))
        .with_topology(
            TopologySpec::new(OverlaySpec::Clustered {
                zones: 10,
                intra: 6,
                inter: 1,
            })
            .with_selection(PeerSelection::RandomNeighbour),
        )
        .with_faults(
            FaultSpec::none()
                .with_bursty_loss(BurstySpec {
                    p_gb: 0.05,
                    p_bg: 0.3,
                    loss_good: 0.01,
                    loss_bad: 0.8,
                })
                .with_adversary(1000, AdversaryStrategy::Random),
        )
        .with_replications(2)
        .with_seed(SplitMix64::derive(seed, 1));
    let a = Reference::Agreement(0);
    let b = Reference::Agreement(1);
    Op::of(vec![
        Eval::one(
            "rgraph.eval_overlay",
            BackendKind::Graph,
            small_world.clone(),
            a,
        ),
        Eval::one(
            "protocol.eval_overlay",
            BackendKind::Protocol,
            small_world.clone(),
            a,
        ),
        Eval::one("netsim.eval_overlay", BackendKind::NetSim, small_world, a),
        Eval::one(
            "protocol.eval_overlay_faults",
            BackendKind::Protocol,
            faulty.clone(),
            b,
        ),
        Eval::one("netsim.eval_overlay_faults", BackendKind::NetSim, faulty, b),
    ])
}

/// The k = 16 burst under a 2-frames-per-round cap and a 32-frame queue.
fn capped_stream() -> TrafficSpec {
    TrafficSpec::stream(16)
        .with_bandwidth(2)
        .with_queue_capacity(32)
}

fn stream_k16_1k(seed: u64, _index: u64, _threads: usize) -> Op {
    let base = Scenario::new(1000, FanoutSpec::poisson(4.0))
        .with_replications(10)
        .with_seed(seed);
    let piggyback = capped_stream().with_piggyback(8);
    Op::of(vec![
        Eval::one(
            "protocol.eval_stream_unbatched",
            BackendKind::Protocol,
            base.clone().with_traffic(capped_stream()),
            Reference::RangeOnly,
        ),
        Eval::one(
            "protocol.eval_stream_piggyback",
            BackendKind::Protocol,
            base.clone().with_traffic(piggyback),
            Reference::RangeOnly,
        ),
        Eval::one(
            "protocol.eval_stream_uncapped",
            BackendKind::Protocol,
            base.clone()
                .with_traffic(TrafficSpec::stream(16).with_queue_capacity(32)),
            Reference::Analytic,
        ),
        Eval::one(
            "netsim.eval_stream",
            BackendKind::NetSim,
            base.with_loss(0.05)
                .with_traffic(piggyback.with_arrival(ArrivalSpec::Poisson {
                    rate_per_round: 1.0,
                })),
            Reference::RangeOnly,
        ),
    ])
}

/// The live runtime defaults to `cores * 8` shard threads; the benchmark
/// holds every workload to `nproc` threads.
fn runtime_spec(threads: usize) -> RuntimeSpec {
    RuntimeSpec {
        max_threads: threads,
        ..RuntimeSpec::default()
    }
}

fn runtime_channel(seed: u64, index: u64, threads: usize) -> Op {
    let single = Scenario::new(1024, FanoutSpec::poisson(6.0))
        .with_failure_ratio(0.9)
        .with_loss(0.1)
        .with_replications(10)
        .with_runtime(runtime_spec(threads))
        .with_seed(seed);
    let stream = Scenario::new(512, FanoutSpec::poisson(4.0))
        .with_traffic(capped_stream().with_piggyback(8))
        .with_replications(5)
        .with_runtime(runtime_spec(threads))
        .with_seed(SplitMix64::derive(seed, 1));
    Op {
        // Live threads, yet the same seed must give the same report; the
        // first operation of a run (a warm-up) is held to that. Only the
        // single message: piggybacked frames are packed in arrival
        // order, which the library does not promise to repeat.
        replay: (index == 0).then_some(0),
        ..Op::of(vec![
            Eval::one(
                "runtime.channel_eval",
                BackendKind::RuntimeChannel,
                single,
                Reference::Analytic,
            ),
            Eval::one(
                "runtime.channel_stream_eval",
                BackendKind::RuntimeChannel,
                stream,
                Reference::Backend(BackendKind::Protocol),
            ),
        ])
    }
}

fn runtime_tcp(seed: u64, _index: u64, threads: usize) -> Op {
    let single = Scenario::new(128, FanoutSpec::poisson(6.0))
        .with_failure_ratio(0.9)
        .with_replications(2)
        .with_runtime(runtime_spec(threads))
        .with_seed(seed);
    let stream = Scenario::new(128, FanoutSpec::poisson(4.0))
        .with_traffic(TrafficSpec::stream(8).with_piggyback(8))
        .with_replications(1)
        .with_runtime(runtime_spec(threads))
        .with_seed(SplitMix64::derive(seed, 1));
    Op::of(vec![
        Eval::one(
            "runtime.tcp_eval",
            BackendKind::RuntimeTcp,
            single,
            Reference::Analytic,
        ),
        Eval::one(
            "runtime.tcp_stream_eval",
            BackendKind::RuntimeTcp,
            stream,
            Reference::Analytic,
        ),
    ])
}

fn analytic_design(seed: u64, _index: u64, _threads: usize) -> Op {
    // The analytic layer draws nothing, so the seed moves the grid
    // itself: both axes shift by a seed-derived fraction of one step.
    let shift = (seed % 1000) as f64 / 1000.0;
    let means: Vec<f64> = (0..100).map(|i| 1.0 + 0.1 * (i as f64 + shift)).collect();
    let qs: Vec<f64> = (0..100)
        .map(|i| 0.005 + 0.0099 * (i as f64 + shift))
        .collect();
    let base = Scenario::new(1000, FanoutSpec::poisson(4.0)).with_seed(seed);
    let poisson = SweepGrid::new(base.clone())
        .over_poisson_means(&means)
        .over_failure_ratios(&qs);
    let geometric = SweepGrid::new(base)
        .over_fanouts(means.iter().map(|&m| FanoutSpec::geometric_with_mean(m)))
        .over_failure_ratios(&qs);
    Op {
        evals: vec![
            Eval::grid("core.sweep_poisson", BackendKind::Analytic, poisson),
            Eval::grid("core.sweep_geometric", BackendKind::Analytic, geometric),
        ],
        json_roundtrip: Some(0),
        replay: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scenario of the op, as JSON.
    fn inputs(op: &Op) -> Vec<String> {
        op.evals
            .iter()
            .flat_map(|eval| match &eval.work {
                Work::One(scenario) => vec![scenario.clone()],
                Work::Grid(grid) => grid.scenarios(),
            })
            .map(|scenario| serde::json::to_string(&scenario).unwrap())
            .collect()
    }

    #[test]
    fn op_seeds_differ_by_index_and_by_run_seed() {
        let mut seen: Vec<u64> = (0..1000).map(|i| op_seed(7, i)).collect();
        seen.extend((0..1000).map(|i| op_seed(8, i)));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 2000);
        assert_eq!(op_seed(7, 3), SplitMix64::derive(7, 3));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for workload in &WORKLOADS {
            for index in 0..4 {
                let build = |seed| inputs(&(workload.build)(op_seed(seed, index), index, 2));
                assert_eq!(build(1), build(1), "{}", workload.name);
                assert_ne!(build(1), build(2), "{}", workload.name);
            }
        }
    }

    #[test]
    fn every_scenario_is_valid_and_every_op_counts_its_evaluations() {
        let evaluations = [2, 16, 80, 5, 4, 2, 2, 20_000];
        for (workload, expected) in WORKLOADS.iter().zip(evaluations) {
            let op = (workload.build)(op_seed(1, 0), 0, 2);
            assert_eq!(op.evaluations(), expected, "{}", workload.name);
            for eval in &op.evals {
                let scenarios = match &eval.work {
                    Work::One(scenario) => vec![scenario.clone()],
                    Work::Grid(grid) => grid.scenarios(),
                };
                for scenario in scenarios {
                    scenario
                        .validate()
                        .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
                }
            }
        }
    }
}
