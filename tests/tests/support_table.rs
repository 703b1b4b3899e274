//! The support table is the backends' behaviour: every backend runs a
//! scenario iff [`support`] refuses none of its features, refuses it
//! naming itself with the table's reason otherwise, and README carries
//! the table as [`markdown`] renders it.

use gossip::{
    all_backends, Backend, BurstySpec, ChurnSpec, FailureSpec, FanoutSpec, FaultSpec, LatencySpec,
    ModelError, OverlaySpec, ProtocolSpec, RuntimeBackend, Scenario, TopologySpec, TrafficSpec,
};
use gossip_model::support::{markdown, support, Feature, Support, BACKENDS};

/// All six backends, in [`BACKENDS`] order.
fn backends() -> Vec<Box<dyn Backend>> {
    let mut backends = all_backends();
    backends.push(Box::new(RuntimeBackend::tcp()));
    backends
}

/// At least one small scenario per feature. Fault cases are ones the
/// analytic layer reduces (zero-rate churn, a memoryless bursty channel,
/// an idle adversary), so its ≈ cells run.
fn cases() -> Vec<(Feature, Scenario)> {
    let base = Scenario::new(64, FanoutSpec::poisson(4.0)).with_replications(1);
    let clustered = TopologySpec::new(OverlaySpec::Clustered {
        zones: 4,
        intra: 4,
        inter: 1,
    });
    let memoryless = FaultSpec::none().with_bursty_loss(BurstySpec {
        p_gb: 0.2,
        p_bg: 0.3,
        loss_good: 0.1,
        loss_bad: 0.1,
    });
    let uniform = LatencySpec::UniformMillis { lo_ms: 1, hi_ms: 3 };
    let stream = |s: Scenario| s.with_traffic(TrafficSpec::stream(4));
    let zone_kill = |at_ms| {
        base.clone()
            .with_topology(clustered)
            .with_faults(FaultSpec::none().with_zone_failure(vec![1], at_ms))
    };
    vec![
        (
            Feature::CrashSchedule,
            base.clone().with_failure(FailureSpec::Schedule {
                crashes: vec![(1_000_000, 1)],
            }),
        ),
        (
            Feature::Overlay,
            base.clone()
                .with_topology(TopologySpec::new(OverlaySpec::Ring { shortcuts: 64 })),
        ),
        (
            Feature::Flood,
            base.clone().with_protocol(ProtocolSpec::Flood),
        ),
        (
            Feature::PushPull,
            base.clone().with_protocol(ProtocolSpec::PushPull),
        ),
        (Feature::Latency, base.clone().with_latency(uniform)),
        (
            Feature::Churn,
            base.clone()
                .with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(0.0, 100))),
        ),
        (
            Feature::StaticFaults,
            base.clone().with_faults(memoryless.clone()),
        ),
        (
            Feature::StaticFaults,
            base.clone().with_faults(
                FaultSpec::none().with_adversary(0, gossip::AdversaryStrategy::WorstCase),
            ),
        ),
        (Feature::StaticFaults, zone_kill(0)),
        (Feature::TimedZoneKill, zone_kill(5)),
        (Feature::Stream, stream(base.clone())),
        (
            Feature::ContendedStream,
            base.clone()
                .with_traffic(TrafficSpec::stream(4).with_bandwidth(8)),
        ),
        (
            Feature::StreamVariant,
            stream(base.clone().with_protocol(ProtocolSpec::Flood)),
        ),
        (
            Feature::StreamFaults,
            stream(base.clone().with_faults(memoryless)),
        ),
        (
            Feature::StreamLatency,
            stream(base.clone().with_latency(uniform)),
        ),
        (
            Feature::LargeGroup,
            Scenario::new(1025, FanoutSpec::poisson(4.0)).with_replications(1),
        ),
    ]
}

#[test]
fn backends_are_the_table_rows() {
    let names: Vec<&str> = backends().iter().map(|b| b.name()).collect();
    assert_eq!(names, BACKENDS);
}

#[test]
fn every_backend_runs_exactly_what_its_row_allows() {
    let cases = cases();
    for (feature, _) in Feature::ALL {
        assert!(
            cases.iter().any(|(f, _)| *f == feature),
            "no case for {feature:?}"
        );
    }
    for (feature, scenario) in &cases {
        assert!(
            feature.in_scenario(scenario),
            "{feature:?}: {}",
            scenario.label()
        );
        let present: Vec<Feature> = Feature::ALL
            .into_iter()
            .map(|(f, _)| f)
            .filter(|f| f.in_scenario(scenario))
            .collect();
        for backend in backends() {
            let name = backend.name();
            let refused = present.iter().find_map(|&f| match support(name, f) {
                Support::Refused(what) => Some(what),
                _ => None,
            });
            let context = format!("{name} on {feature:?} ({})", scenario.label());
            match (backend.evaluate(scenario), refused) {
                (Ok(_), None) => {}
                (Err(ModelError::Unsupported { backend, what }), Some(reason)) => {
                    assert_eq!(backend, name, "{context}");
                    assert_eq!(what, reason, "{context}");
                }
                (outcome, reason) => {
                    panic!("{context}: expected refusal {reason:?}, got {outcome:?}")
                }
            }
        }
    }
}

#[test]
fn refusals_name_a_backend_that_runs_the_feature() {
    for (feature, _) in Feature::ALL {
        let runners: Vec<&str> = BACKENDS
            .into_iter()
            .filter(|b| !matches!(support(b, feature), Support::Refused(_)))
            .collect();
        for backend in BACKENDS {
            if let Support::Refused(what) = support(backend, feature) {
                assert!(
                    runners.is_empty() || runners.iter().any(|r| what.contains(r)),
                    "{backend} refuses {feature:?} without naming any of {runners:?}: {what}"
                );
            }
        }
    }
}

#[test]
fn readme_carries_the_rendered_matrix() {
    let readme = include_str!("../../README.md");
    let (begin, end) = ("<!-- support:begin -->\n", "<!-- support:end -->");
    let start = readme.find(begin).expect("README has the support block") + begin.len();
    let stop = start + readme[start..].find(end).expect("the block is closed");
    let expected = markdown();
    assert!(
        readme[start..stop] == expected,
        "README's support block is stale; paste this between the markers:\n{expected}"
    );
}
