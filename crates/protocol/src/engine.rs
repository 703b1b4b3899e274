//! One *execution* of a gossip protocol (paper §4.2) on the event
//! calendar.
//!
//! An execution: crash each non-source member with probability `1 − q`,
//! give the source the message, run the protocol to quiescence, then
//! measure. Reliability is `n_rece / n_nonfailed` — the number of
//! nonfailed members that received the message over the number of
//! nonfailed members; success means every nonfailed member received it
//! (a `Report`'s `complete_rate`).
//!
//! [`run_execution`] reads everything off the [`Scenario`]: the crash
//! plan, the network, the overlay the views are pinned to, the fault
//! families and the protocol variant.

use std::sync::Arc;

use gossip_faults::{BlockedLinks, ChurnPlan, GilbertElliott};
use gossip_model::distribution::FanoutDistribution;
use gossip_model::scenario::{FailureSpec, LatencySpec, ProtocolSpec, Scenario};
use gossip_model::ModelError;
use gossip_netsim::membership::{DynamicView, FullView, Membership, OverlayView};
use gossip_netsim::{
    FailurePlan, LatencyModel, LinkFaults, NetworkConfig, NodeBehavior, NodeId, SimDuration,
    SimTime, Simulator,
};
use gossip_stats::rng::{streams, SplitMix64, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};

use crate::flood::Flooding;
use crate::message::{GossipMessage, MessageId};
use crate::push::PushGossip;
use crate::pushpull::{PullMessage, PushPullGossip};
use crate::GossipProtocol;

#[doc(hidden)]
pub use crate::compat::{run_push, ExecutionConfig};

/// The source member, which never fails.
const SOURCE: NodeId = 0;

/// Pull budget and period used when a scenario selects
/// [`ProtocolSpec::PushPull`]: one pull per 5 ms, up to 10 pulls — the
/// defaults the protocol's own tests exercise.
const PULL_BUDGET: u32 = 10;
const PULL_PERIOD_MS: u64 = 5;

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

/// Runs one execution of `scenario` on the event calendar; `fanout` is
/// `scenario.fanout` built, once per evaluation, by the caller.
///
/// The run is a pure function of `(scenario, seed)`: the crash pattern,
/// overlay (if any), churn plan, network and protocol randomness all
/// derive from `seed`. The scenario is expected to have passed
/// [`Scenario::validate`]; its faults are checked against the group and
/// overlay again (`FaultSpec::validate`), so a scenario that bypasses
/// validation gets a typed error there, not a panic.
pub fn run_execution(
    scenario: &Scenario,
    fanout: &Arc<dyn FanoutDistribution>,
    seed: u64,
) -> Result<ExecutionOutcome, ModelError> {
    match scenario.protocol {
        ProtocolSpec::Push => execute(scenario, |_| PushGossip::new(fanout.clone()), seed, |m| m),
        ProtocolSpec::Flood => execute(scenario, |_| Flooding::new(), seed, |m| m),
        ProtocolSpec::PushPull => {
            // The push phase of push-pull uses the *mean* fanout (the
            // behaviour takes a constant); pulls close the tail.
            let push_fanout = fanout.mean().round().max(0.0) as usize;
            let pull_period = SimDuration::from_millis(PULL_PERIOD_MS);
            let make = |_| PushPullGossip::new(push_fanout, PULL_BUDGET, pull_period);
            execute(scenario, make, seed, PullMessage::Data)
        }
    }
}

fn latency_model(spec: LatencySpec) -> LatencyModel {
    match spec {
        LatencySpec::ConstantMillis { ms } => LatencyModel::constant_millis(ms),
        LatencySpec::UniformMillis { lo_ms, hi_ms } => LatencyModel::Uniform {
            lo: SimDuration::from_millis(lo_ms),
            hi: SimDuration::from_millis(hi_ms),
        },
        LatencySpec::ExponentialMillis { mean_ms } => LatencyModel::Exponential {
            mean: SimDuration::from_millis(mean_ms),
        },
    }
}

/// One execution of the protocol built by `make(node_id)`; the source
/// hands itself message `seed`, wrapped in the protocol's wire type.
fn execute<P, M>(
    scenario: &Scenario,
    make: impl FnMut(NodeId) -> P,
    seed: u64,
    wrap: impl FnOnce(GossipMessage) -> M,
) -> Result<ExecutionOutcome, ModelError>
where
    P: GossipProtocol + NodeBehavior<M>,
{
    let (n, topology, faults) = (scenario.n, &scenario.topology, &scenario.faults);
    faults.validate(n, topology)?;
    let membership_seed = SplitMix64::derive(seed, streams::MEMBERSHIP);
    let sim_seed = SplitMix64::derive(seed, streams::SIMULATOR);

    // Churn sizes the simulator for the *final* population: joiners get
    // real node slots (ids n..n+K) that stay dormant until their join
    // event fires. Everything derives from `seed` — the realized plan is
    // part of the execution's identity.
    let churn_plan = faults
        .churn
        .as_ref()
        .map(|churn| ChurnPlan::sample(churn, n, SOURCE, SplitMix64::derive(seed, streams::CHURN)));
    let total = n + churn_plan.as_ref().map_or(0, |p| p.joins.len());

    let behaviors: Vec<P> = (0..total as NodeId).map(make).collect();
    // Overlays are rebuilt per execution from the membership seed, so
    // they resample across replications.
    let membership: Box<dyn Membership> = if churn_plan.is_some() {
        Box::new(DynamicView::new(total, n))
    } else if topology.is_default() {
        Box::new(FullView::new(n))
    } else {
        Box::new(OverlayView::build(n, topology, membership_seed))
    };
    let network = NetworkConfig {
        latency: latency_model(scenario.latency),
        loss_probability: scenario.loss,
    };
    let mut sim = Simulator::new(behaviors, network, membership, sim_seed);
    match &scenario.failure {
        FailureSpec::None => {}
        FailureSpec::Random { q } => sim.apply_failure_plan(&FailurePlan::paper_model(*q, SOURCE)),
        FailureSpec::Schedule { crashes } => {
            for &(ns, node) in crashes {
                sim.schedule_crash(SimTime::from_nanos(ns), node);
            }
        }
    }
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
    if let Some(zone_failure) = &faults.zone_failure {
        // Zones resolve against the overlay the views are pinned to; an
        // unclustered one has none (typed error).
        let killed = zone_failure.killed_members(n, topology, SOURCE)?;
        // Scheduled before the injection: an `at_ms = 0` kill fires
        // before the source's message lands (events order by time, then
        // insertion sequence).
        let at = SimTime::from_nanos(zone_failure.at_ms * 1_000_000);
        for member in killed {
            sim.schedule_crash(at, member);
        }
    }
    if faults.bursty_loss.is_some() || faults.adversary.is_some() {
        let blocked = faults.adversary.as_ref().map(|adversary| {
            BlockedLinks::build(
                total,
                SOURCE,
                adversary,
                SplitMix64::derive(seed, streams::ADVERSARY),
            )
        });
        let ge = faults.bursty_loss.as_ref().map(GilbertElliott::new);
        let mut chain_rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, streams::GE_CHAIN));
        sim.set_link_faults(LinkFaults::new(total, blocked, ge, &mut chain_rng));
    }
    sim.start_all();
    let message = GossipMessage::new(MessageId(seed), &b"payload"[..]);
    sim.inject(SOURCE, SOURCE, wrap(message));
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

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_faults::FaultSpec;
    use gossip_model::FanoutSpec;
    use gossip_topology::{OverlaySpec, TopologySpec};

    /// `n` members under the paper's i.i.d. crashes at ratio `q`, with
    /// fanout `fanout`.
    fn push(n: usize, q: f64, fanout: FanoutSpec) -> Scenario {
        Scenario::new(n, fanout).with_failure_ratio(q)
    }

    /// One execution of `scenario`, its fanout built here.
    fn run(scenario: &Scenario, seed: u64) -> Result<ExecutionOutcome, ModelError> {
        let fanout = Arc::from(scenario.fanout.build()?);
        run_execution(scenario, &fanout, seed)
    }

    #[test]
    fn no_failure_high_fanout_succeeds() {
        let out = run(&push(200, 1.0, FanoutSpec::fixed(6)), 1).unwrap();
        assert_eq!(out.nonfailed, 200);
        assert!(out.reliability() > 0.99, "r = {}", out.reliability());
        assert_eq!(out.nonfailed_reached, 200);
        assert!(out.hop_histogram.len() > 1);
        assert!(out.messages_per_member() > 5.0);
    }

    #[test]
    fn subcritical_execution_dies_out() {
        // Po(4) at q = 0.15 < q_c = 0.25: reach stays local.
        let out = run(&push(2000, 0.15, FanoutSpec::poisson(4.0)), 2).unwrap();
        assert!(
            out.reliability() < 0.1,
            "subcritical reliability {}",
            out.reliability()
        );
    }

    #[test]
    fn reliability_counts_only_nonfailed() {
        let out = run(&push(1000, 0.5, FanoutSpec::poisson(6.0)), 3).unwrap();
        assert!(out.nonfailed < 600, "q=0.5 should fail ~half");
        assert!(out.nonfailed_reached <= out.nonfailed);
        assert!((0.0..=1.0).contains(&out.reliability()));
    }

    #[test]
    fn deterministic_in_seed() {
        let scenario = push(500, 0.8, FanoutSpec::poisson(4.0));
        let a = run(&scenario, 42).unwrap();
        let b = run(&scenario, 42).unwrap();
        assert_eq!(a, b);
        let c = run(&scenario, 43).unwrap();
        assert_ne!(a, c, "different seeds should differ (a.s.)");
    }

    #[test]
    fn scamp_membership_runs() {
        let scenario = push(400, 0.9, FanoutSpec::poisson(5.0))
            .with_topology(TopologySpec::new(OverlaySpec::Scamp { c: 2 }));
        let out = run(&scenario, 4).unwrap();
        assert!(
            out.reliability() > 0.5,
            "gossip over SCAMP views reached {}",
            out.reliability()
        );
    }

    #[test]
    fn overlay_membership_runs() {
        // A well-connected small world: gossip over neighbour lists
        // still spreads widely at q = 0.9.
        let spec = TopologySpec::new(OverlaySpec::WattsStrogatz { k: 10, beta: 0.3 });
        let scenario = push(400, 0.9, FanoutSpec::poisson(5.0)).with_topology(spec);
        let out = run(&scenario, 4).unwrap();
        assert!(
            out.reliability() > 0.5,
            "gossip over overlay views reached {}",
            out.reliability()
        );
        // Deterministic in the seed, like every other membership.
        let again = run(&scenario, 4).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn rejects_bad_q() {
        // The driver runs validated scenarios; q = 0 is refused, typed,
        // before any execution.
        let err = push(10, 0.0, FanoutSpec::poisson(4.0))
            .validate()
            .unwrap_err();
        match err {
            ModelError::InvalidParameter { name, .. } => assert_eq!(name, "q"),
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn zone_failure_without_clustered_membership_is_a_typed_error() {
        // Reachable by running a scenario that bypasses
        // `Scenario::validate` — must refuse, not unwind.
        let scenario = push(100, 1.0, FanoutSpec::poisson(4.0))
            .with_faults(FaultSpec::none().with_zone_failure(vec![0], 0));
        let err = run(&scenario, 1).unwrap_err();
        match err {
            ModelError::InvalidParameter { name, .. } => assert_eq!(name, "zone_failure"),
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn churn_without_full_membership_is_a_typed_error() {
        use gossip_faults::ChurnSpec;
        let scenario = push(100, 1.0, FanoutSpec::poisson(4.0))
            .with_topology(TopologySpec::new(OverlaySpec::Scamp { c: 2 }))
            .with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(10.0, 100)));
        let err = run(&scenario, 1).unwrap_err();
        assert!(
            matches!(err, ModelError::InvalidParameter { name: "churn", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn absurd_zone_failure_time_is_a_typed_error() {
        // at_ms * 1e6 would wrap u64; the engine must refuse instead.
        let spec = TopologySpec::new(OverlaySpec::Clustered {
            zones: 5,
            intra: 6,
            inter: 2,
        });
        let scenario = push(100, 1.0, FanoutSpec::poisson(4.0))
            .with_topology(spec)
            .with_faults(FaultSpec::none().with_zone_failure(vec![1], u64::MAX / 1_000));
        let err = run(&scenario, 1).unwrap_err();
        match err {
            ModelError::InvalidParameter { name, .. } => assert_eq!(name, "at_ms"),
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn churn_accounting_matches_the_sampled_plan() {
        use gossip_faults::ChurnSpec;
        let spec = ChurnSpec::symmetric(40.0, 200);
        let scenario = push(300, 1.0, FanoutSpec::poisson(6.0))
            .with_faults(FaultSpec::none().with_churn(spec));
        let seed = 77;
        let out = run(&scenario, seed).unwrap();
        // With q = 1 the only crashes are churn leaves, so the
        // denominator is exactly the plan's final population.
        let plan = ChurnPlan::sample(&spec, 300, 0, SplitMix64::derive(seed, streams::CHURN));
        assert!(
            !plan.joins.is_empty() && !plan.leaves.is_empty(),
            "plan too quiet"
        );
        assert_eq!(out.nonfailed, plan.final_population(300));
        // Determinism holds through the churn machinery.
        assert_eq!(out, run(&scenario, seed).unwrap());
    }

    #[test]
    fn zone_kill_at_start_excludes_the_zone() {
        let spec = TopologySpec::new(OverlaySpec::Clustered {
            zones: 5,
            intra: 6,
            inter: 2,
        });
        let scenario = push(200, 1.0, FanoutSpec::poisson(6.0))
            .with_topology(spec)
            .with_faults(FaultSpec::none().with_zone_failure(vec![0, 2], 0));
        let out = run(&scenario, 5).unwrap();
        // Zones 0 and 2 hold 40 members each; the source (id 0, zone 0)
        // is immune, so 79 members die before the injection lands.
        assert_eq!(out.nonfailed, 200 - 79);
        assert!(out.nonfailed_reached <= out.nonfailed);
    }

    #[test]
    fn worst_case_adversary_silences_the_source() {
        use gossip_faults::AdversaryStrategy;
        let scenario = push(100, 1.0, FanoutSpec::poisson(8.0))
            .with_faults(FaultSpec::none().with_adversary(99, AdversaryStrategy::WorstCase));
        let out = run(&scenario, 6).unwrap();
        // All 99 source uplinks are blocked: only the source delivers.
        assert_eq!(out.nonfailed_reached, 1);
        assert!((out.reliability() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn bursty_loss_thins_dissemination() {
        use gossip_faults::BurstySpec;
        let scenario = push(500, 1.0, FanoutSpec::poisson(4.0));
        let clean = run(&scenario, 8).unwrap();
        let bursty_scenario = scenario
            .clone()
            .with_faults(FaultSpec::none().with_bursty_loss(BurstySpec {
                p_gb: 0.05,
                p_bg: 0.15,
                loss_good: 0.0,
                loss_bad: 0.9,
            }));
        let bursty = run(&bursty_scenario, 8).unwrap();
        assert!(
            bursty.nonfailed_reached < clean.nonfailed_reached,
            "bursty {} vs clean {}",
            bursty.nonfailed_reached,
            clean.nonfailed_reached
        );
    }
}
