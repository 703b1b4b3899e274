//! The acceptance tests of the unified scenario API:
//!
//! 1. One [`Scenario`] value, evaluated by all five [`Backend`] impls —
//!    analytic, graph, protocol, netsim, and the live actor-per-node
//!    runtime — yields reports whose reliabilities agree within
//!    Monte-Carlo tolerance: on the paper's Fig. 4 operating points
//!    (Poisson fanout, n = 1000, q ∈ {0.5, 0.7, 0.9}), on a (z, q)
//!    grid straddling the critical point `q_c = 1/z`, and (for the
//!    runtime) over real loopback TCP sockets.
//! 2. `Scenario` round-trips through serde (JSON text).

use gossip::{
    all_backends, AnalyticBackend, Backend, FailureSpec, FanoutSpec, LatencySpec, NetSimBackend,
    OverlaySpec, ProtocolBackend, ProtocolSpec, Report, RuntimeBackend, Scenario, SweepGrid,
    TopologySpec,
};
use gossip_integration_tests::assert_close;

/// Evaluates a scenario on every backend and checks pairwise agreement
/// against the analytic value within `tol`.
fn assert_backends_agree(scenario: &Scenario, tol: f64) {
    let analytic = AnalyticBackend.evaluate(scenario).expect("analytic prices");
    for backend in all_backends() {
        let report = backend.evaluate(scenario).expect("backend evaluates");
        assert_close(
            report.reliability,
            analytic.reliability,
            tol,
            &format!("{} vs analytic on {}", report.backend, scenario.label()),
        );
        // Every layer derives the same critical point from P.
        if let (Some(a), Some(b)) = (analytic.critical_q, report.critical_q) {
            assert_close(a, b, 1e-12, "critical q across backends");
        }
    }
}

#[test]
fn fig4_operating_points_agree_across_all_five_backends() {
    // The ISSUE acceptance grid: Poisson fanout, n = 1000,
    // q ∈ {0.5, 0.7, 0.9}. Mean fanout 6 keeps every point clearly
    // supercritical (q_c = 1/6) at Monte-Carlo-resolvable reliability.
    for &q in &[0.5, 0.7, 0.9] {
        let scenario = Scenario::new(1000, FanoutSpec::poisson(6.0))
            .with_failure_ratio(q)
            .with_replications(30)
            .with_seed(0xF164);
        assert_backends_agree(&scenario, 0.03);
    }
}

#[test]
fn fig4_headline_point_agrees_over_real_tcp_sockets() {
    // The live runtime once more, this time over genuine loopback TCP
    // with line-delimited JSON frames. One listener per member bounds
    // n; relays race through the kernel, so allow a little extra
    // Monte-Carlo slack on top of the finite-size effect at n = 256.
    let scenario = Scenario::new(256, FanoutSpec::poisson(6.0))
        .with_failure_ratio(0.9)
        .with_replications(8)
        .with_seed(0xF164);
    let analytic = AnalyticBackend
        .evaluate(&scenario)
        .expect("analytic prices");
    let live = gossip::RuntimeBackend::tcp()
        .evaluate(&scenario)
        .expect("tcp runtime evaluates");
    assert_eq!(live.transport.as_deref(), Some("tcp"));
    assert_close(
        live.reliability,
        analytic.reliability,
        0.06,
        "runtime-tcp vs analytic on the Fig. 4 headline point",
    );
}

#[test]
fn poisson_grid_straddling_critical_point_agrees() {
    // z = 4 → q_c = 0.25. The grid crosses it: two subcritical rows
    // (reliability 0 everywhere) and two supercritical rows. n = 5000
    // keeps the near-critical q = 0.2 row's finite-size largest
    // component safely below the subcritical threshold.
    let grid = SweepGrid::new(
        Scenario::new(5000, FanoutSpec::poisson(4.0))
            .with_replications(25)
            .with_seed(0xC717),
    )
    .over_failure_ratios(&[0.1, 0.2, 0.5, 0.9]);

    for backend in all_backends() {
        let cells = grid.run(&*backend);
        for cell in &cells {
            let report = cell.report.as_ref().expect("grid cell evaluates");
            let analytic = AnalyticBackend
                .evaluate(&cell.scenario)
                .expect("analytic prices");
            let q = cell.scenario.q().unwrap();
            if q < 0.25 {
                // Subcritical: no giant component. The protocol layers
                // still reach a handful of neighbours of the immortal
                // source, so allow finite-size slack on the raw mean
                // (the analytic layer has none: its 0 stands in). A run
                // that crosses the critical window (≈ 4 in 10 000 at
                // q = 0.2, none in 20 000 at q = 0.1) lifts a mean of
                // ≈ 0.005 by at most 1/25 = 0.04, so a false failure
                // needs two of 25: ≈ 5·10⁻⁵ per cell.
                let raw = report.reliability_raw.unwrap_or(report.reliability);
                assert!(
                    raw < 0.05,
                    "{} at q={q}: subcritical raw reliability {raw}",
                    report.backend
                );
            } else {
                assert_close(
                    report.reliability,
                    analytic.reliability,
                    0.03,
                    &format!("{} at q={q}", report.backend),
                );
            }
        }
    }
}

#[test]
fn structured_topologies_agree_across_supporting_backends() {
    // Two structured operating points: a ring thickened with enough
    // shortcuts to stay supercritical, and a Watts–Strogatz small
    // world. Every layer that samples the overlay — graph percolation,
    // the Monte-Carlo protocol, the discrete-event simulator, and the
    // live runtime — must land on the same reliability; the analytic
    // layer must decline with a typed error (its generating functions
    // assume the complete graph).
    for overlay in [
        OverlaySpec::Ring { shortcuts: 2000 },
        OverlaySpec::WattsStrogatz { k: 8, beta: 0.2 },
    ] {
        let scenario = Scenario::new(1000, FanoutSpec::poisson(4.0))
            .with_failure_ratio(0.9)
            .with_topology(TopologySpec::new(overlay))
            .with_replications(30)
            .with_seed(0x7090);
        let mut reports: Vec<Report> = Vec::new();
        for backend in all_backends() {
            match backend.evaluate(&scenario) {
                Ok(report) => {
                    assert_eq!(
                        report.topology,
                        scenario.topology_label(),
                        "{} must label the overlay it ran on",
                        report.backend
                    );
                    reports.push(report);
                }
                Err(gossip::ModelError::Unsupported { backend, what }) => {
                    assert_eq!(backend, "analytic", "only the analytic layer may decline");
                    assert!(!what.is_empty(), "the refusal must explain itself");
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!(
            reports.len(),
            4,
            "graph, protocol, netsim and runtime all run structured overlays"
        );
        let reference = reports[0].reliability;
        for report in &reports[1..] {
            assert_close(
                report.reliability,
                reference,
                0.05,
                &format!("{} vs graph on {}", report.backend, scenario.label()),
            );
        }
    }
}

#[test]
fn flat_engine_agrees_on_the_fig4_points() {
    use gossip::{GraphBackend, ProtocolBackend};
    // The million-node engine at Fig. 4 scale: the flat relay must land
    // on the event calendar's reliability, and the flat census on the
    // generating-function curve, at every operating point.
    for &q in &[0.5, 0.7, 0.9] {
        let scenario = Scenario::new(1000, FanoutSpec::poisson(6.0))
            .with_failure_ratio(q)
            .with_replications(30)
            .with_seed(0xF164);
        let flat = scenario.clone();
        let pairs = [
            (
                ProtocolBackend.evaluate(&flat).expect("flat protocol"),
                NetSimBackend.evaluate(&scenario).expect("calendar"),
            ),
            (
                GraphBackend.evaluate(&flat).expect("flat graph"),
                AnalyticBackend
                    .evaluate(&scenario)
                    .expect("analytic prices"),
            ),
        ];
        for (flat, reference) in &pairs {
            assert_close(
                flat.reliability,
                reference.reliability,
                0.03,
                &format!("flat {} vs {} at q={q}", flat.backend, reference.backend),
            );
            assert_eq!(
                flat.scenario, reference.scenario,
                "the route must not leak into the scenario label"
            );
        }
    }
}

#[test]
fn flat_engine_straddles_the_critical_point() {
    use gossip::{GraphBackend, ProtocolBackend};
    // z = 4 → q_c = 0.25; same grid as the classic straddle test, run
    // through the flat kernels. Subcritical rows collapse, supercritical
    // rows match the generating-function curve.
    for &q in &[0.1, 0.2, 0.5, 0.9] {
        let scenario = Scenario::new(5000, FanoutSpec::poisson(4.0))
            .with_failure_ratio(q)
            .with_replications(25)
            .with_seed(0xC717);
        let analytic = AnalyticBackend
            .evaluate(&scenario)
            .expect("analytic prices");
        let backends: [&dyn Backend; 2] = [&GraphBackend, &ProtocolBackend];
        for backend in backends {
            let report = backend.evaluate(&scenario).expect("flat backend evaluates");
            if q < 0.25 {
                // The raw mean, as in the straddle test above: a false
                // failure needs two of 25 runs to cross the critical
                // window, ≈ 5·10⁻⁵ per cell.
                let raw = report.reliability_raw.unwrap();
                assert!(
                    raw < 0.05,
                    "flat {} at q={q}: subcritical raw reliability {raw}",
                    report.backend
                );
            } else {
                assert_close(
                    report.reliability,
                    analytic.reliability,
                    0.03,
                    &format!("flat {} at q={q}", report.backend),
                );
            }
        }
    }
}

#[test]
fn uncontended_stream_agrees_across_stream_backends() {
    use gossip::{NetSimBackend, ProtocolBackend, RuntimeBackend, TrafficSpec};
    // A k = 4 stream with no bandwidth cap: offered load never exceeds
    // the (absent) budget, so every message is an independent execution
    // of the paper's protocol. The analytic layer must reduce it to the
    // single-message closed form exactly; protocol, netsim, and the
    // live runtime must land on that value per message; the static
    // percolation census must refuse with a typed error.
    let base = Scenario::new(1000, FanoutSpec::poisson(6.0))
        .with_failure_ratio(0.9)
        .with_replications(20)
        .with_seed(0x7AFF);
    let stream = base.clone().with_traffic(TrafficSpec::stream(4));
    let single = AnalyticBackend.evaluate(&base).expect("closed form");
    let analytic = AnalyticBackend
        .evaluate(&stream)
        .expect("uncontended streams reduce to k closed-form evaluations");
    let reduced = analytic.traffic.as_ref().expect("analytic traffic section");
    assert_close(
        reduced.reliability_mean,
        single.reliability,
        1e-12,
        "analytic per-message stream reliability vs the closed form",
    );
    assert_close(
        reduced.reliability_min,
        reduced.reliability_mean,
        1e-12,
        "i.i.d. messages share one closed-form value",
    );

    let reports = [
        ProtocolBackend.evaluate(&stream).expect("protocol streams"),
        NetSimBackend.evaluate(&stream).expect("netsim streams"),
        RuntimeBackend::channel()
            .evaluate(&stream)
            .expect("runtime streams"),
    ];
    for report in &reports {
        let traffic = report
            .traffic
            .as_ref()
            .expect("stream backends report traffic");
        assert_eq!(traffic.messages, 4);
        assert_close(
            traffic.reliability_mean,
            single.reliability,
            0.05,
            &format!("{} stream vs the closed form", report.backend),
        );
        assert!(
            traffic.reliability_min >= traffic.reliability_mean - 0.1,
            "{}: uncontended messages are i.i.d. (min {} vs mean {})",
            report.backend,
            traffic.reliability_min,
            traffic.reliability_mean
        );
    }

    match gossip::GraphBackend.evaluate(&stream) {
        Err(gossip::ModelError::Unsupported { backend, what }) => {
            assert_eq!(backend, "graph");
            assert!(
                what.contains("traffic"),
                "graph refusal must name traffic: {what}"
            );
        }
        other => panic!("graph must refuse streams, got {other:?}"),
    }
}

#[test]
fn scenario_serde_roundtrip() {
    // A scenario exercising every spec enum, including a recursive
    // mixture, a crash schedule, and non-default everything.
    let scenario = Scenario::new(
        5000,
        FanoutSpec::Mixture {
            components: vec![
                (0.7, FanoutSpec::fixed(2)),
                (0.2, FanoutSpec::poisson(8.0)),
                (
                    0.1,
                    FanoutSpec::PowerLaw {
                        alpha: 2.5,
                        kmin: 1,
                        kmax: 64,
                    },
                ),
            ],
        },
    )
    .with_failure(FailureSpec::Schedule {
        crashes: vec![(1_000_000, 3), (2_000_000, 77)],
    })
    .with_loss(0.125)
    .with_latency(LatencySpec::ExponentialMillis { mean_ms: 15 })
    .with_topology(TopologySpec::new(OverlaySpec::Scamp { c: 3 }))
    .with_protocol(ProtocolSpec::PushPull)
    .with_replications(42)
    .with_executions(7)
    .with_seed(0xDEAD_BEEF)
    .with_traffic(
        gossip::TrafficSpec::stream(16)
            .with_arrival(gossip::ArrivalSpec::Poisson {
                rate_per_round: 0.5,
            })
            .with_bandwidth(4)
            .with_queue_capacity(64)
            .with_piggyback(8),
    );

    let text = serde::json::to_string(&scenario).expect("serializes");
    let back: Scenario = serde::json::from_str(&text).expect("deserializes");
    assert_eq!(back, scenario, "JSON round-trip must be lossless");

    // Field spot-checks on the wire format: it is real JSON with the
    // field names intact.
    assert!(text.contains("\"Mixture\""));
    assert!(text.contains("\"crashes\""));
    assert!(text.contains("\"loss\":0.125"));
    assert!(text.contains("\"traffic\":{"));
    assert!(text.contains("\"rate_per_round\":0.5"));

    // Scenario keys are closed: a key this build does not know — here
    // the `membership` key SCAMP views once had, now the overlay
    // `{"Scamp":{"c":2}}` — is an error naming it, not a silent default.
    let stale = text.replacen(
        "\"topology\":",
        "\"membership\":{\"Scamp\":{\"c\":2}},\"topology\":",
        1,
    );
    let err = serde::json::from_str::<Scenario>(&stale).unwrap_err();
    assert!(err.to_string().contains("membership"), "{err}");
    let nested = text.replacen("\"selection\":", "\"view\":3,\"selection\":", 1);
    let err = serde::json::from_str::<Scenario>(&nested).unwrap_err();
    assert!(err.to_string().contains("view"), "{err}");

    // Reports round-trip too.
    let simple = Scenario::new(1000, FanoutSpec::poisson(4.0)).with_failure_ratio(0.9);
    let report = AnalyticBackend.evaluate(&simple).unwrap();
    let report_text = serde::json::to_string(&report).expect("report serializes");
    let report_back: Report = serde::json::from_str(&report_text).expect("report deserializes");
    assert_eq!(report_back, report);

    // A structured-topology report keeps its overlay label through the
    // wire, alongside the transport field.
    let structured = Scenario::new(300, FanoutSpec::poisson(5.0))
        .with_failure_ratio(0.9)
        .with_topology(TopologySpec::new(OverlaySpec::Clustered {
            zones: 3,
            intra: 5,
            inter: 1,
        }))
        .with_replications(5);
    let scen_text = serde::json::to_string(&structured).expect("structured scenario serializes");
    let scen_back: Scenario = serde::json::from_str(&scen_text).expect("deserializes");
    assert_eq!(scen_back, structured);
    assert!(scen_text.contains("\"Clustered\""));
    let report = gossip::GraphBackend.evaluate(&structured).unwrap();
    assert_eq!(
        report.topology.as_deref(),
        Some("clustered(z=3,intra=5,inter=1)/neigh")
    );
    let text = serde::json::to_string(&report).expect("structured report serializes");
    assert!(text.contains("\"topology\":"));
    let back: Report = serde::json::from_str(&text).expect("structured report deserializes");
    assert_eq!(back, report, "topology label must survive the round-trip");

    // A push report's per-hop fields survive the wire too.
    let push = ProtocolBackend
        .evaluate(&simple.with_replications(5))
        .unwrap();
    assert!(push.reach_by_round.is_some() && push.complete_rate.is_some());
    let text = serde::json::to_string(&push).expect("push report serializes");
    let back: Report = serde::json::from_str(&text).expect("push report deserializes");
    assert_eq!(back, push, "per-hop fields must survive the round-trip");
}

#[test]
fn churn_agrees_across_the_dynamic_backends() {
    use gossip::{ChurnSpec, FaultSpec};
    // Symmetric churn at 30 members/s over a 200 ms horizon: ~6 joins
    // and ~6 leaves against n = 600. Every backend with an event clock
    // — netsim, runtime — must price the same penalty (joiners arriving
    // after quiescence count in the denominator but go unreached); the
    // layers without one must decline with a typed error.
    let scenario = Scenario::new(600, FanoutSpec::poisson(6.0))
        .with_failure_ratio(0.9)
        .with_replications(20)
        .with_seed(0xC4A2)
        .with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(30.0, 200)));

    let netsim = NetSimBackend
        .evaluate(&scenario)
        .expect("netsim runs churn");
    let runtime = RuntimeBackend::channel()
        .evaluate(&scenario)
        .expect("runtime runs churn");
    for report in [&netsim, &runtime] {
        assert_eq!(
            report.faults.as_deref(),
            Some("churn(j=30,l=30,h=200ms)"),
            "{} must label the churn it ran under",
            report.backend
        );
        assert_close(
            report.reliability,
            netsim.reliability,
            0.05,
            &format!("{} vs netsim under churn", report.backend),
        );
    }

    // The relay kernel (graph and protocol) and the generating functions
    // have no clock: each must refuse, naming itself.
    let relay: [&dyn Backend; 2] = [&gossip::GraphBackend, &ProtocolBackend];
    for layer in relay {
        match layer.evaluate(&scenario) {
            Err(gossip::ModelError::Unsupported { backend, what }) => {
                assert_eq!(backend, layer.name());
                assert!(
                    what.contains("churn"),
                    "{backend} refusal must name churn: {what}"
                );
            }
            other => panic!("{} must refuse churn, got {other:?}", layer.name()),
        }
    }
    match AnalyticBackend.evaluate(&scenario) {
        Err(gossip::ModelError::Unsupported { backend, .. }) => assert_eq!(backend, "analytic"),
        other => panic!("analytic must refuse churn, got {other:?}"),
    }
}

#[test]
fn correlated_zone_failure_agrees_across_supporting_backends() {
    use gossip::FaultSpec;
    // Kill zone 3 of a 6-zone clustered overlay at t = 0: a sixth of
    // the group is gone before the first relay, every backend that can
    // run the overlay (graph and protocol on the relay kernel's
    // `prefailed`; netsim and runtime schedule the crashes) measures the
    // survivors.
    let scenario = Scenario::new(600, FanoutSpec::poisson(6.0))
        .with_failure_ratio(0.9)
        .with_replications(20)
        .with_seed(0x2035)
        .with_topology(TopologySpec::new(OverlaySpec::Clustered {
            zones: 6,
            intra: 5,
            inter: 2,
        }))
        .with_faults(FaultSpec::none().with_zone_failure(vec![3], 0));

    let graph = gossip::GraphBackend
        .evaluate(&scenario)
        .expect("graph percolates zones");
    // Protocol and graph take one route, `gossip_engine::evaluate_relay`:
    // the same Report but for its backend name.
    let protocol = ProtocolBackend
        .evaluate(&scenario)
        .expect("protocol runs zones");
    assert_eq!(
        Report {
            backend: graph.backend.clone(),
            ..protocol
        },
        graph
    );
    let netsim = NetSimBackend
        .evaluate(&scenario)
        .expect("netsim runs zones");
    let runtime = RuntimeBackend::channel()
        .evaluate(&scenario)
        .expect("runtime runs zones");
    for report in [&graph, &netsim, &runtime] {
        assert_eq!(report.faults.as_deref(), Some("zones([3]@0ms)"));
        assert_close(
            report.reliability,
            graph.reliability,
            0.05,
            &format!("{} vs graph under a zone kill", report.backend),
        );
    }

    // On a non-clustered overlay the fault is a parameter error, not a
    // capability gap: validation rejects it before any backend runs.
    let wrong = scenario.clone().with_topology(TopologySpec::default());
    assert!(matches!(
        gossip::GraphBackend.evaluate(&wrong),
        Err(gossip::ModelError::InvalidParameter { .. })
    ));
}

#[test]
fn messages_per_member_counts_every_send_on_every_layer() {
    use gossip::{AdversaryStrategy, FaultSpec, GraphBackend};
    let layers: [&dyn Backend; 4] = [
        &GraphBackend,
        &ProtocolBackend,
        &NetSimBackend,
        &RuntimeBackend::channel(),
    ];
    // n = 2, Fixed(1), q = 1: the source sends one copy to member 1,
    // which sends one back — 2 sends over 2 nonfailed members. The
    // injection is no send. (The graph census has no message cost.)
    let lossless = Scenario::new(2, FanoutSpec::fixed(1)).with_replications(4);
    for backend in &layers[1..] {
        let report = backend.evaluate(&lossless).expect("lossless push runs");
        assert_eq!(report.messages_per_member, Some(1.0), "{}", report.backend);
    }
    // The one link the adversary blocks is the source's: its send still
    // costs a message, and member 1 never sends.
    let blocked =
        lossless.with_faults(FaultSpec::none().with_adversary(1, AdversaryStrategy::WorstCase));
    for backend in layers {
        let report = backend.evaluate(&blocked).expect("a blocked push runs");
        assert_eq!(report.messages_per_member, Some(0.5), "{}", report.backend);
    }
}

#[test]
fn unsupported_combinations_error_cleanly() {
    // A scheduled-crash scenario: only the timed layers (netsim and
    // the live runtime, via its virtual clock) run it; the untimed
    // layers must say so rather than silently mis-evaluate.
    let scheduled = Scenario::new(500, FanoutSpec::poisson(6.0))
        .with_failure(FailureSpec::Schedule { crashes: vec![] })
        .with_replications(2);
    let mut supported = 0;
    for backend in all_backends() {
        match backend.evaluate(&scheduled) {
            Ok(_) => supported += 1,
            Err(gossip::ModelError::Unsupported { backend, what }) => {
                assert!(!what.is_empty(), "{backend} must explain itself");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(
        supported, 2,
        "exactly netsim and runtime support crash schedules"
    );
}

#[test]
fn scamp_redundancy_is_bounded_on_every_backend() {
    // c = usize::MAX would run the subscription walk out of memory, and
    // c = 10⁹ ≥ n − 2 would put every member in the bootstrap ring, with
    // no one left to join: both are refused before anything is built.
    for c in [usize::MAX, 1_000_000_000] {
        let scenario = Scenario::new(200, FanoutSpec::poisson(4.0))
            .with_failure_ratio(0.9)
            .with_topology(TopologySpec::new(OverlaySpec::Scamp { c }));
        let mut backends = all_backends();
        backends.push(Box::new(RuntimeBackend::tcp()));
        for backend in backends {
            match backend.evaluate(&scenario) {
                Err(gossip::ModelError::InvalidParameter { name: "c", .. }) => {}
                other => panic!("{} with c = {c}: {other:?}", backend.name()),
            }
        }
    }
}

#[test]
fn rounds_count_only_members_in_the_denominator() {
    // Every non-source member crashes by schedule at 10 s, long after
    // the broadcast: only the source is counted, so its receipt at hop 0
    // is the only one, however deep the crashed members relayed.
    let crashes = (1..50).map(|member| (10_000_000_000, member)).collect();
    let scenario = Scenario::new(50, FanoutSpec::poisson(4.0))
        .with_failure(FailureSpec::Schedule { crashes })
        .with_replications(8)
        .with_seed(7);
    for backend in [&NetSimBackend as &dyn Backend, &RuntimeBackend::channel()] {
        let report = backend
            .evaluate(&scenario)
            .expect("timed layers run schedules");
        assert_eq!(report.reliability, 1.0, "{}", report.backend);
        assert_eq!(report.rounds, Some(0.0), "{}", report.backend);
        assert_eq!(report.reach_by_round, Some(vec![1.0]), "{}", report.backend);
    }
}

#[test]
fn eq5_measurement_agrees_with_the_report() {
    // Executions are i.i.d., so a member hears within t executions with
    // probability 1 − (1 − p)^t, p the protocol report's member receipt
    // probability (`reliability_raw`, see `gossip_model::reduce`); it
    // must land on the analytic Report's `success_within_t`. Po(5),
    // q = 0.5, t = 3: Eq. 5 gives 1 − (1 − R)³ = 0.9988 with R = 0.893.
    // Tolerance 0.02 = the 0.007 by which the directed protocol sits
    // below Eq. 5 (p ≈ R², not R) plus 7 standard errors: p's SE at 400
    // runs is ≈ 0.014, scaled by 3(1 − p)² ≈ 0.12.
    let scenario = Scenario::new(1000, FanoutSpec::poisson(5.0))
        .with_failure_ratio(0.5)
        .with_executions(3);
    let report = AnalyticBackend.evaluate(&scenario).unwrap();
    let simulated = scenario.with_replications(400).with_seed(0xE95);
    let p = ProtocolBackend
        .evaluate(&simulated)
        .unwrap()
        .reliability_raw;
    assert_close(
        gossip_model::success::success_probability(p.unwrap(), 3),
        report.success_within_t,
        0.02,
        "measured Eq. 5 vs Report.success_within_t",
    );
}
