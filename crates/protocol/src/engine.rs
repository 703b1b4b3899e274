//! One *execution* of a gossip protocol (paper §4.2).
//!
//! An execution: crash each non-source member with probability `1 − q`,
//! give the source the message, run the protocol to quiescence, then
//! measure. Reliability is `n_rece / n_nonfailed` — the number of
//! nonfailed members that received the message over the number of
//! nonfailed members; success means every nonfailed member received it
//! (a `Report`'s `complete_rate`).

use std::sync::Arc;

use gossip_faults::{BlockedLinks, ChurnPlan, FaultSpec, GilbertElliott};
use gossip_model::distribution::FanoutDistribution;
use gossip_model::ModelError;
use gossip_netsim::membership::{DynamicView, FullView, Membership, OverlayView};
use gossip_netsim::{
    FailurePlan, LinkFaults, NetworkConfig, NodeBehavior, NodeId, SimTime, Simulator,
};
use gossip_stats::rng::{streams, SplitMix64, Xoshiro256StarStar};
use gossip_topology::TopologySpec;
use serde::{Deserialize, Serialize};

use crate::message::{GossipMessage, MessageId};
use crate::push::PushGossip;
use crate::GossipProtocol;

/// Configuration of one execution.
#[derive(Clone, Debug)]
pub struct ExecutionConfig {
    /// Group size `n`.
    pub n: usize,
    /// Nonfailed member ratio `q`.
    pub q: f64,
    /// Source member (never fails).
    pub source: NodeId,
    /// Network latency/loss.
    pub network: NetworkConfig,
    /// The overlay whose neighbour lists are the members' views, with
    /// its peer-selection policy; the default is the full view. Rebuilt
    /// per execution from the membership seed, so overlays resample
    /// across replications.
    pub topology: TopologySpec,
    /// Fault families beyond the paper's model (default: none).
    pub faults: FaultSpec,
}

impl ExecutionConfig {
    /// The paper's setting: full membership, lossless 1 ms network,
    /// source member 0.
    pub fn new(n: usize, q: f64) -> Self {
        assert!(n >= 2, "group needs at least 2 members");
        assert!(
            n <= u32::MAX as usize,
            "node ids are u32 (n <= 2^32 - 1, got {n})"
        );
        assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1], got {q}");
        Self {
            n,
            q,
            source: 0,
            network: NetworkConfig::default(),
            topology: TopologySpec::default(),
            faults: FaultSpec::default(),
        }
    }

    /// Replaces the overlay the views are pinned to.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Replaces the fault specification.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the network configuration.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    fn build_membership(&self, seed: u64) -> Box<dyn Membership> {
        if self.topology.is_default() {
            Box::new(FullView::new(self.n))
        } else {
            Box::new(OverlayView::build(self.n, &self.topology, seed))
        }
    }
}

/// Measured results of one execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecutionOutcome {
    /// Nonfailed members (denominator of reliability).
    pub nonfailed: usize,
    /// Nonfailed members that received the message (`n_rece`).
    pub nonfailed_reached: usize,
    /// Messages sent by behaviours during the execution.
    pub messages_sent: u64,
    /// Duplicate receipts across all nodes.
    pub duplicates: u64,
    /// Time of the last event (dissemination finished).
    pub quiescence: SimTime,
    /// First-receipt counts of nonfailed members by hop distance from
    /// the source: `hop_histogram[h]` members first received the message
    /// after `h` relays — the per-hop digest `gossip_model::reduce`
    /// reads rounds, the reach curve and strict success off.
    pub hop_histogram: Vec<u32>,
}

impl ExecutionOutcome {
    /// Reliability `n_rece / n_nonfailed` (paper §4.2).
    pub fn reliability(&self) -> f64 {
        if self.nonfailed == 0 {
            0.0
        } else {
            self.nonfailed_reached as f64 / self.nonfailed as f64
        }
    }

    /// Messages per nonfailed member — the protocol's unit cost.
    pub fn messages_per_member(&self) -> f64 {
        if self.nonfailed == 0 {
            0.0
        } else {
            self.messages_sent as f64 / self.nonfailed as f64
        }
    }
}

/// Runs one execution of an arbitrary protocol built by `make(node_id)`
/// under an explicit [`FailurePlan`] (`cfg.q` is ignored — the paper's
/// i.i.d. crash-at-start model is `FailurePlan::paper_model`); `inject`
/// hands the source its message.
///
/// The run is a pure function of `(cfg, make, seed, plan)`: the crash
/// pattern, overlay (if any), network and protocol randomness all
/// derive from `seed`. The faults are validated against the group and
/// overlay first (`FaultSpec::validate`), so a configuration that
/// bypasses `Scenario::validate` gets a typed error, not a panic.
pub fn run_execution_with_plan<P, M, F, I>(
    cfg: &ExecutionConfig,
    mut make: F,
    seed: u64,
    plan: &FailurePlan,
    inject: I,
) -> Result<ExecutionOutcome, ModelError>
where
    P: GossipProtocol + NodeBehavior<M>,
    F: FnMut(NodeId) -> P,
    I: FnOnce(&mut Simulator<M, P>, NodeId),
{
    cfg.faults.validate(cfg.n, &cfg.topology)?;
    let membership_seed = SplitMix64::derive(seed, streams::MEMBERSHIP);
    let sim_seed = SplitMix64::derive(seed, streams::SIMULATOR);

    // Churn sizes the simulator for the *final* population: joiners get
    // real node slots (ids n..n+K) that stay dormant until their join
    // event fires. Everything derives from `seed` — the realized plan is
    // part of the execution's identity.
    let churn_plan = cfg.faults.churn.as_ref().map(|churn| {
        ChurnPlan::sample(
            churn,
            cfg.n,
            cfg.source,
            SplitMix64::derive(seed, streams::CHURN),
        )
    });
    let total = cfg.n + churn_plan.as_ref().map_or(0, |p| p.joins.len());

    let behaviors: Vec<P> = (0..total as NodeId).map(&mut make).collect();
    let membership: Box<dyn Membership> = if churn_plan.is_some() {
        Box::new(DynamicView::new(total, cfg.n))
    } else {
        cfg.build_membership(membership_seed)
    };
    let mut sim = Simulator::new(behaviors, cfg.network, membership, sim_seed);
    sim.apply_failure_plan(plan);
    if let Some(churn) = &churn_plan {
        // Dormant until their join event; a joiner the failure plan
        // already crashed is simply resurrected by its join (the q draw
        // applies to the initial group, not to arrivals).
        for &(at_ns, node) in &churn.joins {
            sim.make_dormant(node);
            sim.schedule_join(SimTime::from_nanos(at_ns), node);
        }
        for &(at_ns, node) in &churn.leaves {
            sim.schedule_crash(SimTime::from_nanos(at_ns), node);
        }
    }
    if let Some(zone_failure) = &cfg.faults.zone_failure {
        // Zones resolve against the overlay the views are pinned to; an
        // unclustered one has none (typed error).
        let killed = zone_failure.killed_members(cfg.n, &cfg.topology, cfg.source)?;
        // Scheduled before the injection: an `at_ms = 0` kill fires
        // before the source's message lands (events order by time, then
        // insertion sequence).
        let at = SimTime::from_nanos(zone_failure.at_ms * 1_000_000);
        for member in killed {
            sim.schedule_crash(at, member);
        }
    }
    if cfg.faults.bursty_loss.is_some() || cfg.faults.adversary.is_some() {
        let blocked = cfg.faults.adversary.as_ref().map(|adversary| {
            BlockedLinks::build(
                total,
                cfg.source,
                adversary,
                SplitMix64::derive(seed, streams::ADVERSARY),
            )
        });
        let ge = cfg.faults.bursty_loss.as_ref().map(GilbertElliott::new);
        let mut chain_rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, streams::GE_CHAIN));
        sim.set_link_faults(LinkFaults::new(total, blocked, ge, &mut chain_rng));
    }
    sim.start_all();
    inject(&mut sim, cfg.source);
    sim.run_to_quiescence();

    let mut nonfailed = 0usize;
    let mut nonfailed_reached = 0usize;
    let mut duplicates = 0u64;
    let mut hop_histogram: Vec<u32> = Vec::new();
    for (_, behavior, crashed) in sim.nodes() {
        duplicates += behavior.duplicates() as u64;
        if !crashed {
            nonfailed += 1;
            if behavior.has_received() {
                nonfailed_reached += 1;
                let h = behavior.receipt_hop().expect("received implies hop") as usize;
                if hop_histogram.len() <= h {
                    hop_histogram.resize(h + 1, 0);
                }
                hop_histogram[h] += 1;
            }
        }
    }

    Ok(ExecutionOutcome {
        nonfailed,
        nonfailed_reached,
        messages_sent: sim.metrics().messages_sent,
        duplicates,
        quiescence: sim.metrics().last_event_time,
        hop_histogram,
    })
}

/// Runs one execution of the paper's push protocol with fanout
/// distribution `dist`.
pub fn run_push<D>(
    cfg: &ExecutionConfig,
    dist: &D,
    seed: u64,
) -> Result<ExecutionOutcome, ModelError>
where
    D: FanoutDistribution + Clone + 'static,
{
    let shared: Arc<dyn FanoutDistribution> = Arc::new(dist.clone());
    let plan = FailurePlan::paper_model(cfg.q, cfg.source);
    run_execution_with_plan(
        cfg,
        |_| PushGossip::new(shared.clone()),
        seed,
        &plan,
        inject_push(seed),
    )
}

/// The injection step of every protocol whose wire type is the bare
/// [`GossipMessage`]: the source hands itself message `seed`.
pub(crate) fn inject_push<P: NodeBehavior<GossipMessage>>(
    seed: u64,
) -> impl FnOnce(&mut Simulator<GossipMessage, P>, NodeId) {
    move |sim, source| {
        sim.inject(
            source,
            source,
            GossipMessage::new(MessageId(seed), &b"payload"[..]),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::distribution::{FixedFanout, PoissonFanout};

    #[test]
    fn no_failure_high_fanout_succeeds() {
        let cfg = ExecutionConfig::new(200, 1.0);
        let out = run_push(&cfg, &FixedFanout::new(6), 1).unwrap();
        assert_eq!(out.nonfailed, 200);
        assert!(out.reliability() > 0.99, "r = {}", out.reliability());
        assert_eq!(out.nonfailed_reached, 200);
        assert!(out.hop_histogram.len() > 1);
        assert!(out.messages_per_member() > 5.0);
    }

    #[test]
    fn subcritical_execution_dies_out() {
        // Po(4) at q = 0.15 < q_c = 0.25: reach stays local.
        let cfg = ExecutionConfig::new(2000, 0.15);
        let out = run_push(&cfg, &PoissonFanout::new(4.0), 2).unwrap();
        assert!(
            out.reliability() < 0.1,
            "subcritical reliability {}",
            out.reliability()
        );
    }

    #[test]
    fn reliability_counts_only_nonfailed() {
        let cfg = ExecutionConfig::new(1000, 0.5);
        let out = run_push(&cfg, &PoissonFanout::new(6.0), 3).unwrap();
        assert!(out.nonfailed < 600, "q=0.5 should fail ~half");
        assert!(out.nonfailed_reached <= out.nonfailed);
        assert!((0.0..=1.0).contains(&out.reliability()));
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = ExecutionConfig::new(500, 0.8);
        let a = run_push(&cfg, &PoissonFanout::new(4.0), 42).unwrap();
        let b = run_push(&cfg, &PoissonFanout::new(4.0), 42).unwrap();
        assert_eq!(a, b);
        let c = run_push(&cfg, &PoissonFanout::new(4.0), 43).unwrap();
        assert_ne!(a, c, "different seeds should differ (a.s.)");
    }

    #[test]
    fn scamp_membership_runs() {
        let cfg = ExecutionConfig::new(400, 0.9).with_topology(TopologySpec::new(
            gossip_topology::OverlaySpec::Scamp { c: 2 },
        ));
        let out = run_push(&cfg, &PoissonFanout::new(5.0), 4).unwrap();
        assert!(
            out.reliability() > 0.5,
            "gossip over SCAMP views reached {}",
            out.reliability()
        );
    }

    #[test]
    fn overlay_membership_runs() {
        use gossip_topology::{OverlaySpec, TopologySpec};
        // A well-connected small world: gossip over neighbour lists
        // still spreads widely at q = 0.9.
        let spec = TopologySpec::new(OverlaySpec::WattsStrogatz { k: 10, beta: 0.3 });
        let cfg = ExecutionConfig::new(400, 0.9).with_topology(spec);
        let out = run_push(&cfg, &PoissonFanout::new(5.0), 4).unwrap();
        assert!(
            out.reliability() > 0.5,
            "gossip over overlay views reached {}",
            out.reliability()
        );
        // Deterministic in the seed, like every other membership.
        let again = run_push(&cfg, &PoissonFanout::new(5.0), 4).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    #[should_panic(expected = "q must be in (0, 1]")]
    fn rejects_bad_q() {
        ExecutionConfig::new(10, 0.0);
    }

    #[test]
    fn zone_failure_without_clustered_membership_is_a_typed_error() {
        // Reachable by constructing the config directly, bypassing
        // `Scenario::validate` — must refuse, not unwind.
        let cfg = ExecutionConfig::new(100, 1.0)
            .with_faults(FaultSpec::none().with_zone_failure(vec![0], 0));
        let err = run_push(&cfg, &PoissonFanout::new(4.0), 1).unwrap_err();
        match err {
            ModelError::InvalidParameter { name, .. } => assert_eq!(name, "zone_failure"),
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn churn_without_full_membership_is_a_typed_error() {
        use gossip_faults::ChurnSpec;
        let cfg = ExecutionConfig::new(100, 1.0)
            .with_topology(TopologySpec::new(gossip_topology::OverlaySpec::Scamp {
                c: 2,
            }))
            .with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(10.0, 100)));
        let err = run_push(&cfg, &PoissonFanout::new(4.0), 1).unwrap_err();
        assert!(
            matches!(err, ModelError::InvalidParameter { name: "churn", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn absurd_zone_failure_time_is_a_typed_error() {
        use gossip_topology::{OverlaySpec, TopologySpec};
        // at_ms * 1e6 would wrap u64; the engine must refuse instead.
        let spec = TopologySpec::new(OverlaySpec::Clustered {
            zones: 5,
            intra: 6,
            inter: 2,
        });
        let cfg = ExecutionConfig::new(100, 1.0)
            .with_topology(spec)
            .with_faults(FaultSpec::none().with_zone_failure(vec![1], u64::MAX / 1_000));
        let err = run_push(&cfg, &PoissonFanout::new(4.0), 1).unwrap_err();
        match err {
            ModelError::InvalidParameter { name, .. } => assert_eq!(name, "at_ms"),
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn churn_accounting_matches_the_sampled_plan() {
        use gossip_faults::ChurnSpec;
        let spec = ChurnSpec::symmetric(40.0, 200);
        let cfg = ExecutionConfig::new(300, 1.0).with_faults(FaultSpec::none().with_churn(spec));
        let seed = 77;
        let out = run_push(&cfg, &PoissonFanout::new(6.0), seed).unwrap();
        // With q = 1 the only crashes are churn leaves, so the
        // denominator is exactly the plan's final population.
        let plan = ChurnPlan::sample(&spec, 300, 0, SplitMix64::derive(seed, streams::CHURN));
        assert!(
            !plan.joins.is_empty() && !plan.leaves.is_empty(),
            "plan too quiet"
        );
        assert_eq!(out.nonfailed, plan.final_population(300));
        // Determinism holds through the churn machinery.
        assert_eq!(out, run_push(&cfg, &PoissonFanout::new(6.0), seed).unwrap());
    }

    #[test]
    fn zone_kill_at_start_excludes_the_zone() {
        use gossip_topology::{OverlaySpec, TopologySpec};
        let spec = TopologySpec::new(OverlaySpec::Clustered {
            zones: 5,
            intra: 6,
            inter: 2,
        });
        let cfg = ExecutionConfig::new(200, 1.0)
            .with_topology(spec)
            .with_faults(FaultSpec::none().with_zone_failure(vec![0, 2], 0));
        let out = run_push(&cfg, &PoissonFanout::new(6.0), 5).unwrap();
        // Zones 0 and 2 hold 40 members each; the source (id 0, zone 0)
        // is immune, so 79 members die before the injection lands.
        assert_eq!(out.nonfailed, 200 - 79);
        assert!(out.nonfailed_reached <= out.nonfailed);
    }

    #[test]
    fn worst_case_adversary_silences_the_source() {
        use gossip_faults::AdversaryStrategy;
        let cfg = ExecutionConfig::new(100, 1.0)
            .with_faults(FaultSpec::none().with_adversary(99, AdversaryStrategy::WorstCase));
        let out = run_push(&cfg, &PoissonFanout::new(8.0), 6).unwrap();
        // All 99 source uplinks are blocked: only the source delivers.
        assert_eq!(out.nonfailed_reached, 1);
        assert!((out.reliability() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn bursty_loss_thins_dissemination() {
        use gossip_faults::BurstySpec;
        let cfg = ExecutionConfig::new(500, 1.0);
        let clean = run_push(&cfg, &PoissonFanout::new(4.0), 8).unwrap();
        let bursty_cfg = cfg
            .clone()
            .with_faults(FaultSpec::none().with_bursty_loss(BurstySpec {
                p_gb: 0.05,
                p_bg: 0.15,
                loss_good: 0.0,
                loss_bad: 0.9,
            }));
        let bursty = run_push(&bursty_cfg, &PoissonFanout::new(4.0), 8).unwrap();
        assert!(
            bursty.nonfailed_reached < clean.nonfailed_reached,
            "bursty {} vs clean {}",
            bursty.nonfailed_reached,
            clean.nonfailed_reached
        );
    }
}
