//! The protocol-engine and netsim evaluation layers of the unified
//! `Scenario` → `Backend` → `Report` API.
//!
//! Each backend runs one route per kind of workload:
//!
//! * [`ProtocolBackend`] — the paper's §5 experiment: the Fig. 1 push
//!   algorithm once per execution, untimed. A single message runs on
//!   `gossip_engine::evaluate_relay` at every group size, the route
//!   `GraphBackend` takes for directed reach; a stream runs on the
//!   untimed stream engine.
//! * [`NetSimBackend`] — the full discrete-event network simulation
//!   (the event calendar): latency models, independent per-message
//!   loss, every protocol variant and fault family, and scheduled
//!   mid-run crash injection, plus timing metrics (`quiescence_secs`).
//!
//! What each declines is stated in [`gossip_model::support`].
//!
//! Both run one execution per seed `derive(scenario.seed, rep)` and hand
//! the per-execution digests to [`gossip_model::reduce`], which owns the
//! estimator: reliability conditioned on *take-off* (executions that
//! reach the critical window of the surviving group), the
//! giant-component size the analytic curves plot.

use std::sync::Arc;

use gossip_model::distribution::FanoutDistribution;
use gossip_model::reduce::{self, Execution};
use gossip_model::scenario::{Backend, LatencySpec, Report, Scenario};
use gossip_model::{support, ModelError};
use gossip_stats::parallel::parallel_map;
use gossip_stats::rng::SplitMix64;

use crate::engine::run_validated;

/// The paper's §5 Monte-Carlo experiment: the push protocol, untimed,
/// on the relay kernel (single messages) or the stream engine (streams).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolBackend;

impl Backend for ProtocolBackend {
    fn name(&self) -> &'static str {
        "protocol"
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Report, ModelError> {
        scenario.validate()?;
        if scenario.traffic.is_some() {
            // Streams run on the round-based stream engine: untimed
            // here (the §5 idealization), timed on the netsim backend.
            support::check(self.name(), scenario)?;
            return crate::traffic_eval::evaluate_traffic(self.name(), scenario, None);
        }
        // The relay checks the support table itself.
        gossip_engine::evaluate_relay(self.name(), scenario)
    }
}

/// The full discrete-event network simulation: latency, loss, and crash
/// injection, with timing metrics in the report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetSimBackend;

impl Backend for NetSimBackend {
    fn name(&self) -> &'static str {
        "netsim"
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Report, ModelError> {
        scenario.validate()?;
        support::check(self.name(), scenario)?;
        if scenario.traffic.is_some() {
            // Streams run on the round-based stream engine with loss
            // applied per frame; the constant hop latency prices rounds
            // into seconds and sustained messages/sec.
            let LatencySpec::ConstantMillis { ms } = scenario.latency else {
                unreachable!("support::check refuses streams under stochastic latency");
            };
            return crate::traffic_eval::evaluate_traffic(self.name(), scenario, Some(ms));
        }
        // `replications` independent executions on the event calendar,
        // seeds derived from `(scenario.seed, rep)`, quiescence time
        // digested too; the scenario was validated above, once.
        let dist: Arc<dyn FanoutDistribution> = Arc::from(scenario.fanout.build()?);
        let executions: Vec<Execution> = parallel_map(scenario.replications, |rep| {
            let seed = SplitMix64::derive(scenario.seed, rep as u64);
            let outcome = run_validated(scenario, &dist, seed)?;
            Ok(Execution {
                reliability: outcome.reliability(),
                nonfailed: outcome.nonfailed,
                messages_per_member: Some(outcome.messages_per_member()),
                quiescence_secs: Some(outcome.quiescence.as_secs_f64()),
                messages_lost: None,
                hops: outcome.hop_histogram,
            })
        })
        .into_iter()
        .collect::<Result<_, ModelError>>()?;
        Ok(reduce::conditioned(
            self.name(),
            None,
            scenario,
            &*dist,
            executions,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::analytic::AnalyticBackend;
    use gossip_model::scenario::{FailureSpec, FanoutSpec, ProtocolSpec};

    fn headline(reps: usize) -> Scenario {
        Scenario::new(1000, FanoutSpec::poisson(4.0))
            .with_failure_ratio(0.9)
            .with_replications(reps)
    }

    /// SCAMP partial views with redundancy `c`.
    fn scamp(c: usize) -> gossip_topology::TopologySpec {
        gossip_topology::TopologySpec::new(gossip_topology::OverlaySpec::Scamp { c })
    }

    /// Five zones of 8 intra- and 2 inter-zone links per member.
    fn clustered() -> gossip_topology::TopologySpec {
        gossip_topology::TopologySpec::new(gossip_topology::OverlaySpec::Clustered {
            zones: 5,
            intra: 8,
            inter: 2,
        })
    }

    #[test]
    fn protocol_rejects_netsim_features() {
        use gossip_faults::ChurnSpec;
        use gossip_model::FaultSpec;
        // Every case the relay kernel declines is a typed refusal that
        // points at the netsim backend, and the netsim backend runs it.
        for case in [
            headline(5).with_protocol(ProtocolSpec::Flood),
            headline(5).with_protocol(ProtocolSpec::PushPull),
            headline(5).with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(20.0, 100))),
            headline(5).with_failure(FailureSpec::Schedule {
                crashes: vec![(1, 1)],
            }),
            headline(5)
                .with_topology(clustered())
                .with_faults(FaultSpec::none().with_zone_failure(vec![1], 5)),
            headline(5).with_latency(LatencySpec::ExponentialMillis { mean_ms: 10 }),
        ] {
            match ProtocolBackend.evaluate(&case) {
                Err(ModelError::Unsupported { backend, what }) => {
                    assert_eq!(backend, "protocol");
                    assert!(what.contains("netsim"), "{}: {what}", case.label());
                }
                other => panic!("{}: expected a refusal, got {other:?}", case.label()),
            }
            assert!(NetSimBackend.evaluate(&case).is_ok(), "{}", case.label());
        }
    }

    #[test]
    fn stream_refusals_are_typed() {
        use gossip_model::TrafficSpec;
        use gossip_topology::{OverlaySpec, TopologySpec};
        let stream = |s: Scenario| s.with_traffic(TrafficSpec::stream(4));
        assert!(matches!(
            ProtocolBackend.evaluate(&stream(headline(5).with_protocol(ProtocolSpec::Flood))),
            Err(ModelError::Unsupported {
                backend: "protocol",
                ..
            })
        ));
        // No backend runs a stream over an overlay: an invalid scenario.
        assert!(matches!(
            NetSimBackend.evaluate(&stream(
                headline(5).with_topology(TopologySpec::new(OverlaySpec::Ring { shortcuts: 2000 }))
            )),
            Err(ModelError::InvalidParameter {
                name: "traffic",
                ..
            })
        ));
        // Rounds cannot price a stochastic per-frame latency.
        assert!(matches!(
            NetSimBackend.evaluate(&stream(
                headline(5).with_latency(LatencySpec::ExponentialMillis { mean_ms: 10 })
            )),
            Err(ModelError::Unsupported {
                backend: "netsim",
                ..
            })
        ));
    }

    #[test]
    fn protocol_matches_analytic_headline() {
        let scenario = headline(20);
        let analytic = AnalyticBackend.evaluate(&scenario).unwrap();
        let simulated = ProtocolBackend.evaluate(&scenario).unwrap();
        assert_eq!(simulated.replications, 20);
        assert!(
            (simulated.reliability - analytic.reliability).abs() < 0.02,
            "sim {} vs analytic {}",
            simulated.reliability,
            analytic.reliability
        );
        assert!(simulated.takeoff_rate.unwrap() > 0.5);
        assert!(simulated.rounds.unwrap() > 1.0);
        assert!(simulated.messages_per_member.unwrap() > 1.0);
    }

    #[test]
    fn netsim_honours_loss() {
        // Po(6), q = 0.9, loss 0.25 ≈ Po(4.5) lossless (bond percolation).
        let scenario = Scenario::new(2000, FanoutSpec::poisson(6.0))
            .with_failure_ratio(0.9)
            .with_loss(0.25)
            .with_replications(15);
        let analytic = AnalyticBackend.evaluate(&scenario).unwrap();
        let simulated = NetSimBackend.evaluate(&scenario).unwrap();
        assert!(
            (simulated.reliability - analytic.reliability).abs() < 0.03,
            "lossy sim {} vs analytic {}",
            simulated.reliability,
            analytic.reliability
        );
        assert!(simulated.quiescence_secs.unwrap() > 0.0);
    }

    #[test]
    fn netsim_runs_crash_schedules() {
        // Crash half the group *after* dissemination finished (1 s in):
        // reliability among survivors stays high.
        let crashes: Vec<(u64, u32)> = (0..500).map(|v| (1_000_000_000, v + 1)).collect();
        let scenario = Scenario::new(1000, FanoutSpec::poisson(6.0))
            .with_failure(FailureSpec::Schedule { crashes })
            .with_replications(5);
        let report = NetSimBackend.evaluate(&scenario).unwrap();
        assert!(report.reliability > 0.9, "r = {}", report.reliability);
    }

    #[test]
    fn flood_and_pushpull_variants_complete() {
        let flood = NetSimBackend
            .evaluate(&headline(5).with_protocol(ProtocolSpec::Flood))
            .unwrap();
        assert!(flood.reliability > 0.999, "flood r = {}", flood.reliability);
        let pushpull = NetSimBackend
            .evaluate(&headline(5).with_protocol(ProtocolSpec::PushPull))
            .unwrap();
        assert!(
            pushpull.reliability > 0.95,
            "push-pull r = {}",
            pushpull.reliability
        );
    }

    #[test]
    fn pushpull_draws_its_push_fanout_from_the_law() {
        // Po(4) and Fixed(4) share a mean; a push phase that rounds the
        // mean to a constant would make these two Reports identical.
        let pushpull = |fanout| {
            let scenario = Scenario::new(1000, fanout)
                .with_failure_ratio(0.9)
                .with_replications(5)
                .with_protocol(ProtocolSpec::PushPull);
            NetSimBackend.evaluate(&scenario).unwrap()
        };
        let poisson = pushpull(FanoutSpec::poisson(4.0));
        let fixed = pushpull(FanoutSpec::fixed(4));
        assert_ne!(poisson.messages_per_member, fixed.messages_per_member);
        assert_ne!(poisson.reach_by_round, fixed.reach_by_round);
        // Pulls keep spreading below Eq. 3's q_c: no prediction is made.
        assert_eq!(poisson.critical_q, None);
    }

    #[test]
    fn deterministic_in_scenario_seed() {
        let a = ProtocolBackend.evaluate(&headline(8)).unwrap();
        let b = ProtocolBackend.evaluate(&headline(8)).unwrap();
        assert_eq!(a.reliability, b.reliability);
        let c = ProtocolBackend
            .evaluate(&headline(8).with_seed(999))
            .unwrap();
        assert_ne!(a.reliability, c.reliability, "seed must matter (a.s.)");
    }

    #[test]
    fn executions_deterministic() {
        // Every field, per-hop curve included, on both push paths: the
        // flat kernel and the event calendar.
        let backends: [&dyn Backend; 2] = [&ProtocolBackend, &NetSimBackend];
        for backend in backends {
            let a = backend.evaluate(&headline(8)).unwrap();
            assert_eq!(a, backend.evaluate(&headline(8)).unwrap());
            assert!(a.reach_by_round.is_some() && a.complete_rate.is_some());
        }
    }

    #[test]
    fn scamp_membership_supported() {
        let scenario = headline(10).with_topology(scamp(2));
        let report = ProtocolBackend.evaluate(&scenario).unwrap();
        assert!(report.reliability > 0.5, "scamp r = {}", report.reliability);
        assert_eq!(report.topology.as_deref(), Some("scamp(c=2)/neigh"));
    }

    #[test]
    fn structured_topology_supported_and_labelled() {
        use gossip_topology::{OverlaySpec, TopologySpec};
        let scenario = headline(10).with_topology(TopologySpec::new(OverlaySpec::WattsStrogatz {
            k: 12,
            beta: 0.5,
        }));
        let report = ProtocolBackend.evaluate(&scenario).unwrap();
        assert!(
            report.reliability > 0.5,
            "dense small world r = {}",
            report.reliability
        );
        assert_eq!(
            report.topology.as_deref(),
            Some("ws(k=12,beta=0.5)/neigh"),
            "report must carry the topology label"
        );
        // Default topologies report None.
        let plain = ProtocolBackend.evaluate(&headline(5)).unwrap();
        assert_eq!(plain.topology, None);
    }

    #[test]
    fn faults_flow_through_to_the_report() {
        use gossip_faults::ChurnSpec;
        use gossip_model::FaultSpec;
        let scenario = Scenario::new(400, FanoutSpec::poisson(6.0))
            .with_replications(6)
            .with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(20.0, 100)));
        let report = NetSimBackend.evaluate(&scenario).unwrap();
        assert_eq!(report.faults.as_deref(), Some("churn(j=20,l=20,h=100ms)"));
        assert!(report.reliability > 0.5, "r = {}", report.reliability);
        // Fault-free reports carry no label.
        let plain = ProtocolBackend.evaluate(&headline(5)).unwrap();
        assert_eq!(plain.faults, None);
    }

    #[test]
    fn churn_that_empties_the_initial_group_still_reports() {
        use gossip_faults::ChurnSpec;
        use gossip_model::FaultSpec;
        use std::sync::mpsc;
        use std::time::Duration;
        // n = 3 at q = 0.01 with heavy churn: both initial non-source
        // members are dead at the end of most runs while joiners keep
        // the group populated. A per-execution member pick once spun
        // forever here, so the evaluation runs on its own thread and a
        // regression fails this test instead of wedging the suite.
        let scenario = Scenario::new(3, FanoutSpec::poisson(4.0))
            .with_failure_ratio(0.01)
            .with_replications(4)
            .with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(200.0, 100)));
        assert!(scenario.validate().is_ok());
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(NetSimBackend.evaluate(&scenario));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the evaluation must return, not hang")
            .unwrap();
        worker.join().expect("the worker has already sent");
        assert_eq!(report.replications, 4);
        assert!((0.0..=1.0).contains(&report.reliability));
    }

    #[test]
    fn zone_failure_runs_on_clustered_overlays() {
        use gossip_model::FaultSpec;
        let spec = clustered();
        let clean = Scenario::new(500, FanoutSpec::poisson(6.0))
            .with_topology(spec)
            .with_replications(6);
        let killed = clean
            .clone()
            .with_faults(FaultSpec::none().with_zone_failure(vec![1, 3], 0));
        let clean_report = NetSimBackend.evaluate(&clean).unwrap();
        let killed_report = NetSimBackend.evaluate(&killed).unwrap();
        // Two of five zones are gone from the start: the survivors still
        // percolate (inter-zone links exist), and the denominator drops.
        assert!(
            killed_report.reliability > 0.3,
            "killed r = {}",
            killed_report.reliability
        );
        assert!(clean_report.reliability > killed_report.reliability - 0.2);
    }

    #[test]
    fn flat_engine_agrees_with_the_classic_protocol() {
        // The event calendar runs the same push protocol.
        let calendar = NetSimBackend.evaluate(&headline(20)).unwrap();
        let flat = ProtocolBackend.evaluate(&headline(20)).unwrap();
        assert!(
            (flat.reliability - calendar.reliability).abs() < 0.03,
            "flat {} vs calendar {}",
            flat.reliability,
            calendar.reliability
        );
        assert!(flat.takeoff_rate.unwrap() > 0.5);
        assert!(flat.rounds.unwrap() > 1.0);
        assert!(flat.messages_per_member.unwrap() > 1.0);
        assert!(flat.quiescence_secs.is_none(), "the flat run is untimed");
        // The route never leaks into the scenario label.
        assert_eq!(flat.scenario, calendar.scenario);
    }

    #[test]
    fn flat_engine_agrees_on_a_structured_overlay() {
        use gossip_topology::{OverlaySpec, TopologySpec};
        let scenario = Scenario::new(2000, FanoutSpec::poisson(5.0))
            .with_failure_ratio(0.95)
            .with_replications(12)
            .with_topology(TopologySpec::new(OverlaySpec::WattsStrogatz {
                k: 16,
                beta: 0.5,
            }));
        let calendar = NetSimBackend.evaluate(&scenario).unwrap();
        let flat = ProtocolBackend.evaluate(&scenario).unwrap();
        // Wider tolerance: the flat path quenches the overlay (one CSR
        // per evaluation) where the calendar resamples it per
        // replication.
        assert!(
            (flat.reliability - calendar.reliability).abs() < 0.08,
            "flat {} vs calendar {}",
            flat.reliability,
            calendar.reliability
        );
        assert_eq!(flat.topology.as_deref(), Some("ws(k=16,beta=0.5)/neigh"));
    }

    #[test]
    fn uncontended_stream_matches_the_single_message_estimator() {
        use gossip_model::TrafficSpec;
        let scenario = headline(15).with_traffic(TrafficSpec::stream(4));
        let analytic = AnalyticBackend.evaluate(&scenario).unwrap();
        let report = ProtocolBackend.evaluate(&scenario).unwrap();
        let traffic = report.traffic.as_ref().unwrap();
        assert_eq!(traffic.messages, 4);
        assert!(
            (traffic.reliability_mean - analytic.reliability).abs() < 0.03,
            "stream mean {} vs analytic {}",
            traffic.reliability_mean,
            analytic.reliability
        );
        assert!(traffic.reliability_min <= traffic.reliability_mean);
        assert!(traffic.latency_rounds_p50.unwrap() >= 1.0);
        assert!(traffic.latency_rounds_p99.unwrap() >= traffic.latency_rounds_p50.unwrap());
        // The protocol stream is untimed, exactly like the calendar run.
        assert!(report.quiescence_secs.is_none());
        assert!(traffic.messages_per_sec.is_none());
        let again = ProtocolBackend.evaluate(&scenario).unwrap();
        assert_eq!(report, again, "streams must be seed-deterministic");
    }

    #[test]
    fn netsim_stream_is_timed_and_honours_loss() {
        use gossip_model::TrafficSpec;
        let scenario = Scenario::new(2000, FanoutSpec::poisson(6.0))
            .with_failure_ratio(0.9)
            .with_loss(0.25)
            .with_replications(10)
            .with_traffic(TrafficSpec::stream(4));
        let analytic = AnalyticBackend.evaluate(&scenario).unwrap();
        let report = NetSimBackend.evaluate(&scenario).unwrap();
        let traffic = report.traffic.as_ref().unwrap();
        assert!(
            (traffic.reliability_mean - analytic.reliability).abs() < 0.04,
            "lossy stream mean {} vs analytic {}",
            traffic.reliability_mean,
            analytic.reliability
        );
        assert!(report.quiescence_secs.unwrap() > 0.0);
        assert!(traffic.messages_per_sec.unwrap() > 0.0);
        assert!(traffic.copies_lost.unwrap() > 0.0);
        // The untimed protocol stream drops the same frames.
        let untimed = ProtocolBackend.evaluate(&scenario).unwrap();
        assert_eq!(
            untimed.traffic.unwrap().reliability_mean,
            traffic.reliability_mean
        );
    }

    #[test]
    fn strict_success_concentrates_at_high_reliability() {
        // n = 100, Po(8), no crashes: a member is missed with probability
        // ≈ e^{−8}, so P(complete) ≈ 0.97; 200 executions fall below
        // 0.8 with probability < 1e-15.
        let scenario = Scenario::new(100, FanoutSpec::poisson(8.0))
            .with_replications(200)
            .with_seed(9);
        let report = ProtocolBackend.evaluate(&scenario).unwrap();
        assert!(report.complete_rate.unwrap() > 0.8, "{report:?}");
    }

    #[test]
    fn reach_by_round_is_cumulative_and_saturates() {
        let scenario = Scenario::new(800, FanoutSpec::poisson(4.0))
            .with_failure_ratio(0.9)
            .with_replications(15)
            .with_seed(11);
        let analytic = AnalyticBackend.evaluate(&scenario).unwrap().reliability;
        let backends: [&dyn Backend; 2] = [&ProtocolBackend, &NetSimBackend];
        for backend in backends {
            let report = backend.evaluate(&scenario).unwrap();
            let reach = report.reach_by_round.unwrap();
            assert!(reach.windows(2).all(|w| w[1] >= w[0]), "{reach:?}");
            // Hop 0 is the source alone; the rounds are the curve's depth.
            assert!(reach[0] < 0.01);
            assert!(report.rounds.unwrap() <= (reach.len() - 1) as f64);
            let end = *reach.last().unwrap();
            assert!((end - report.reliability).abs() < 1e-12);
            assert!(
                (end - analytic).abs() < 0.03,
                "endpoint {end} vs {analytic}"
            );
        }
    }

    #[test]
    fn success_within_t_stays_a_probability_for_every_u32() {
        use gossip_model::success::success_probability;
        // `t` past i32::MAX once wrapped Eq. 5's exponent negative.
        let backends: [&dyn Backend; 2] = [&AnalyticBackend, &ProtocolBackend];
        for backend in backends {
            for t in [i32::MAX as u32, 1 << 31, u32::MAX] {
                let report = backend.evaluate(&headline(5).with_executions(t)).unwrap();
                let within = report.success_within_t;
                // R ≈ 0.97: the miss term (1 − R)^t is 0 at any such t.
                assert_eq!(within, 1.0, "{} at t = {t}", backend.name());
                assert_eq!(within, success_probability(report.reliability, t));
            }
        }
    }

    /// The per-execution receipt probability `reliability_raw` of Po(5),
    /// q = 0.9 at n = 400: p ≈ R² ≈ 0.95.
    fn receipt_probability() -> f64 {
        let scenario = Scenario::new(400, FanoutSpec::poisson(5.0))
            .with_failure_ratio(0.9)
            .with_replications(200)
            .with_seed(17);
        let report = ProtocolBackend.evaluate(&scenario).unwrap();
        report.reliability_raw.unwrap()
    }

    #[test]
    fn member_receipt_distribution_shape() {
        use gossip_model::success::receipt_counts;
        let hist = receipt_counts(receipt_probability(), 8, 25, 17);
        assert_eq!((hist.total(), hist.buckets()), (25, 9));
        assert!(hist.mode() >= 6, "mode {}", hist.mode());
    }

    #[test]
    fn success_within_t_increases_with_t() {
        use gossip_model::success::receipt_counts;
        // Within t executions: more executions only add receipts, and
        // three all but guarantee one.
        let p = receipt_probability();
        let within = |t| 1.0 - receipt_counts(p, t, 60, 5).pmf(0);
        assert!(within(3) >= within(1));
        assert!(within(3) > 0.9, "{}", within(3));
    }
}
