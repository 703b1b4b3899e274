//! The random-graph evaluation layer of the unified `Scenario` →
//! `Backend` → `Report` API.
//!
//! [`GraphBackend`] is the Monte-Carlo counterpart of the paper's §4
//! modeling object itself: it generates configuration-model graphs with
//! the scenario's fanout distribution as degree distribution, applies
//! site percolation for crashes (occupied ⇔ nonfailed, Eq. 1) and bond
//! percolation for message loss (an edge transmits with probability
//! `1 − loss`), and measures the giant component of the percolated
//! graph — the paper's reliability `R(q, P)` (Eq. 4/11) without any
//! protocol dynamics.
//!
//! It has exactly two routes, both on the flat kernels: the undirected
//! census ([`crate::flat`]) on the paper's own setting, and
//! [`gossip_engine::evaluate_relay`] — a source, directed reach — on a
//! structured overlay, under static faults or under bursty loss. A
//! correlated zone failure adds the killed zones to the crash set (the
//! scheduled `at_ms` collapses to an at-start kill — a static census
//! has no clock, so this is the conservative approximation), an
//! adversary's blocked arcs never carry a copy, and a bursty channel
//! runs one Gilbert-Elliott chain per sender. Whatever the relay kernel
//! declines ([`gossip_engine::relay_unsupported`]: crash schedules,
//! protocol variants, churn, traffic) the census declines too, with the
//! same typed [`ModelError::Unsupported`].

use gossip_engine::FanoutSampler;
use gossip_model::reduce;
use gossip_model::scenario::{Backend, Report, Scenario};
use gossip_model::ModelError;

use crate::flat::{FlatPercolation, PercolationScratch};
use crate::unionfind::UnionFind;

/// The random-graph percolation layer: giant components of percolated
/// configuration-model graphs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphBackend;

impl Backend for GraphBackend {
    fn name(&self) -> &'static str {
        "graph"
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Report, ModelError> {
        scenario.validate()?;
        if let Some(what) = gossip_engine::relay_unsupported(scenario) {
            return Err(ModelError::Unsupported {
                backend: "graph",
                what,
            });
        }
        // Static faults (zone kills, adversarial blocking) and bursty
        // loss need a source and directed reach, so they ride the relay
        // even on the default complete overlay.
        if !scenario.topology.is_default() || !scenario.faults.is_default() {
            return gossip_engine::evaluate_relay("graph", scenario);
        }
        evaluate_census(scenario)
    }
}

/// The undirected census: fused configuration-model + site/bond
/// percolation over arena-reused scratch (see [`crate::flat`]). It has
/// no source dynamics, hence no take-off/fizzle split and no rounds or
/// message cost.
fn evaluate_census(scenario: &Scenario) -> Result<Report, ModelError> {
    if scenario.n > UnionFind::MAX_LEN {
        return Err(ModelError::InvalidParameter {
            name: "n",
            value: scenario.n as f64,
            requirement: "the graph census ranks members as i32 (n <= 2^31 - 1)",
        });
    }
    let dist = scenario.fanout.build()?;
    let sampler = FanoutSampler::new(&*dist);
    let flat = FlatPercolation {
        n: scenario.n,
        q: scenario
            .q()
            .expect("relay_unsupported refuses crash schedules"),
        loss: scenario.loss,
        dist: &*dist,
        sampler: &sampler,
    };
    let reliabilities = gossip_engine::run_replications(
        scenario.seed,
        scenario.replications,
        PercolationScratch::default,
        |_, scratch, rng| flat.run(scratch, rng),
    );
    reduce::census("graph", scenario, &*dist, reliabilities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::scenario::{AnalyticBackend, FanoutSpec, ProtocolSpec};

    fn headline(n: usize, reps: usize) -> Scenario {
        Scenario::new(n, FanoutSpec::poisson(4.0))
            .with_failure_ratio(0.9)
            .with_replications(reps)
    }

    #[test]
    fn graph_matches_analytic_headline() {
        let scenario = headline(5000, 10);
        let analytic = AnalyticBackend.evaluate(&scenario).unwrap();
        let graph = GraphBackend.evaluate(&scenario).unwrap();
        assert!(
            (graph.reliability - analytic.reliability).abs() < 0.02,
            "graph {} vs analytic {}",
            graph.reliability,
            analytic.reliability
        );
        assert!(graph.reliability_std_error < 0.02);
        assert_eq!(graph.replications, 10);
    }

    #[test]
    fn graph_loss_is_bond_percolation() {
        // Po(6), q = 0.9, loss 0.25 ≈ Po(4.5) lossless.
        let lossy = GraphBackend
            .evaluate(
                &Scenario::new(5000, FanoutSpec::poisson(6.0))
                    .with_failure_ratio(0.9)
                    .with_loss(0.25)
                    .with_replications(8),
            )
            .unwrap();
        let analytic = AnalyticBackend
            .evaluate(&Scenario::new(5000, FanoutSpec::poisson(4.5)).with_failure_ratio(0.9))
            .unwrap();
        assert!(
            (lossy.reliability - analytic.reliability).abs() < 0.03,
            "lossy graph {} vs thinned analytic {}",
            lossy.reliability,
            analytic.reliability
        );
    }

    #[test]
    fn graph_subcritical_has_no_giant() {
        let scenario = Scenario::new(5000, FanoutSpec::poisson(4.0))
            .with_failure_ratio(0.15) // below q_c = 0.25
            .with_replications(5);
        let report = GraphBackend.evaluate(&scenario).unwrap();
        assert!(report.reliability < 0.05, "r = {}", report.reliability);
    }

    #[test]
    fn graph_rejects_unsupported() {
        let flood = headline(500, 3).with_protocol(ProtocolSpec::Flood);
        assert!(matches!(
            GraphBackend.evaluate(&flood),
            Err(ModelError::Unsupported { .. })
        ));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = GraphBackend.evaluate(&headline(2000, 5)).unwrap();
        let b = GraphBackend.evaluate(&headline(2000, 5)).unwrap();
        assert_eq!(a.reliability, b.reliability);
    }

    #[test]
    fn structured_dense_overlay_approaches_complete() {
        use gossip_topology::OverlaySpec;
        use gossip_topology::TopologySpec;
        // A dense Watts-Strogatz overlay (k = 16, plenty of shortcuts)
        // at a mild operating point behaves like the complete graph.
        let base = Scenario::new(2000, FanoutSpec::poisson(5.0))
            .with_failure_ratio(0.95)
            .with_replications(12);
        let complete = GraphBackend.evaluate(&base).unwrap();
        let structured =
            GraphBackend
                .evaluate(&base.clone().with_topology(TopologySpec::new(
                    OverlaySpec::WattsStrogatz { k: 16, beta: 0.5 },
                )))
                .unwrap();
        assert!(
            (structured.reliability - complete.reliability).abs() < 0.08,
            "ws {} vs complete {}",
            structured.reliability,
            complete.reliability
        );
        assert_eq!(
            structured.topology.as_deref(),
            Some("ws(k=16,beta=0.5)/neigh")
        );
        assert!(structured.takeoff_rate.is_some());
        assert!(structured.messages_per_member.unwrap() > 0.0);
    }

    #[test]
    fn structured_lattice_never_percolates() {
        use gossip_topology::OverlaySpec;
        use gossip_topology::TopologySpec;
        // A 1D circulant is a long thin lattice: any crash density cuts
        // the line, so reach collapses even at q where the complete
        // graph delivers > 0.95.
        let scenario = Scenario::new(2000, FanoutSpec::poisson(4.0))
            .with_failure_ratio(0.9)
            .with_replications(8)
            .with_topology(TopologySpec::new(OverlaySpec::KRegular { k: 4 }));
        let lattice = GraphBackend.evaluate(&scenario).unwrap();
        assert!(
            lattice.reliability_raw.unwrap() < 0.2,
            "lattice raw reliability {} should collapse",
            lattice.reliability_raw.unwrap()
        );
    }

    #[test]
    fn graph_declines_dynamic_faults() {
        use gossip_model::{BurstySpec, ChurnSpec, FaultSpec};
        let churned = headline(500, 3)
            .with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(5.0, 100)));
        match GraphBackend.evaluate(&churned) {
            Err(ModelError::Unsupported { backend, what }) => {
                assert_eq!(backend, "graph");
                assert!(what.contains("churn"), "what = {what}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        // Bursty loss is not dynamic to the relay: a push sender sends
        // once, so its chain is local state. Graph runs it on the one
        // route it shares with the protocol backend.
        let bursty = headline(500, 3).with_faults(FaultSpec::none().with_bursty_loss(BurstySpec {
            p_gb: 0.1,
            p_bg: 0.4,
            loss_good: 0.0,
            loss_bad: 0.8,
        }));
        let graph = GraphBackend.evaluate(&bursty).unwrap();
        let protocol = gossip_protocol::ProtocolBackend.evaluate(&bursty).unwrap();
        assert_eq!(
            Report {
                backend: graph.backend.clone(),
                ..protocol
            },
            graph
        );
    }

    #[test]
    fn zone_kill_percolates_as_at_start_crashes() {
        use gossip_model::FaultSpec;
        use gossip_topology::{OverlaySpec, TopologySpec};
        // Kill 2 of 8 zones of a well-connected clustered overlay at
        // q = 1: the survivors stay one giant component, so raw
        // reliability sits near the 6/8 survivor fraction under the
        // alive-at-end denominator... except the graph layer counts
        // reached/nonfailed, so killing a quarter of the group leaves
        // r ≈ 1 among survivors but strictly fewer than n reached.
        let base = Scenario::new(1600, FanoutSpec::poisson(6.0))
            .with_replications(8)
            .with_topology(TopologySpec::new(OverlaySpec::Clustered {
                zones: 8,
                intra: 4,
                inter: 2,
            }));
        let clean = GraphBackend.evaluate(&base).unwrap();
        let killed = GraphBackend
            .evaluate(
                &base
                    .clone()
                    .with_faults(FaultSpec::none().with_zone_failure(vec![1, 5], 3)),
            )
            .unwrap();
        assert!(clean.reliability > 0.95, "clean r = {}", clean.reliability);
        // Survivors (6 zones + immune source) still reach each other.
        assert!(
            killed.reliability > 0.9,
            "killed-zone conditional r = {}",
            killed.reliability
        );
        assert_eq!(killed.faults.as_deref(), Some("zones([1,5]@3ms)"));
        // Determinism with the fault active.
        let again = GraphBackend
            .evaluate(
                &base
                    .clone()
                    .with_faults(FaultSpec::none().with_zone_failure(vec![1, 5], 3)),
            )
            .unwrap();
        assert_eq!(killed.reliability, again.reliability);
    }

    #[test]
    fn worst_case_adversary_cuts_the_source_fan() {
        use gossip_model::{AdversaryStrategy, FaultSpec};
        // f = n − 1 blocks every out-arc of the source on the complete
        // overlay: nothing leaves node 0, raw reliability collapses to
        // the source alone while the i.i.d.-equivalent loss rate would
        // predict near-full delivery.
        let blocked =
            GraphBackend
                .evaluate(&headline(400, 6).with_failure_ratio(1.0).with_faults(
                    FaultSpec::none().with_adversary(399, AdversaryStrategy::WorstCase),
                ))
                .unwrap();
        assert!(
            blocked.reliability_raw.unwrap() < 0.01,
            "raw r = {}",
            blocked.reliability_raw.unwrap()
        );
        // A random adversary wasting the same budget barely dents it:
        // 399 of n(n − 1) links block nothing that matters, so a run
        // either saturates (≈ 0.98 of the group, Eq. 11 at Po(4)) or
        // dies at the source with the Po(4) extinction probability
        // s = e^{−4(1 − s)} ≈ 0.020. Over 120 replications the raw mean
        // 0.98·(1 − F/120) stays above 0.9 unless F ≥ 10 of them fizzle,
        // and P(Bin(120, 0.020) ≥ 10) < 3e-4.
        let random = GraphBackend
            .evaluate(
                &headline(400, 120)
                    .with_failure_ratio(1.0)
                    .with_faults(FaultSpec::none().with_adversary(399, AdversaryStrategy::Random)),
            )
            .unwrap();
        assert!(
            random.reliability_raw.unwrap() > 0.9,
            "random raw r = {}",
            random.reliability_raw.unwrap()
        );
    }

    #[test]
    fn structured_path_is_deterministic() {
        use gossip_topology::OverlaySpec;
        use gossip_topology::TopologySpec;
        let scenario = headline(1000, 5)
            .with_topology(TopologySpec::new(OverlaySpec::Ring { shortcuts: 2000 }));
        let a = GraphBackend.evaluate(&scenario).unwrap();
        let b = GraphBackend.evaluate(&scenario).unwrap();
        assert_eq!(a.reliability, b.reliability);
        assert_eq!(a.reliability_raw, b.reliability_raw);
    }
}
