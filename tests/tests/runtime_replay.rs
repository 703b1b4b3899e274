//! Determinism and serialization guarantees of the live runtime layer.
//!
//! The single broadcast and unbatched, uncapped streams are
//! *byte-deterministic* in the scenario seed even though executions race
//! across real OS threads: every draw (fanout, targets, loss, latency,
//! crash pattern) comes from seed-derived per-node streams, and every
//! metric is read off the recorded relay graph rather than arrival
//! order. These tests pin that guarantee — same seed, byte-identical
//! Report JSON, at any shard width — along with the sweep-nesting
//! behaviour and the runtime-specific Report fields' round-trip.

use gossip::{
    Backend, FanoutSpec, LatencySpec, ModelError, Report, RuntimeBackend, RuntimeSpec, Scenario,
    SweepGrid, TrafficSpec,
};

/// A scenario leaning on every seed-driven runtime feature at once:
/// random failures, message loss, and a spread latency model.
fn replay_scenario() -> Scenario {
    Scenario::new(300, FanoutSpec::poisson(5.0))
        .with_failure_ratio(0.85)
        .with_loss(0.1)
        .with_latency(LatencySpec::UniformMillis { lo_ms: 1, hi_ms: 9 })
        .with_replications(10)
        .with_seed(0x5EED)
}

/// An unbatched, uncapped stream: its latency percentiles and `rounds`
/// come from the relay graph too, not from which copy landed first.
fn stream_scenario() -> Scenario {
    Scenario::new(300, FanoutSpec::poisson(5.0))
        .with_failure_ratio(0.9)
        .with_loss(0.1)
        .with_replications(10)
        .with_seed(0x5EED)
        .with_traffic(TrafficSpec::stream(4))
}

fn on_threads(scenario: Scenario, max_threads: usize) -> Scenario {
    scenario.with_runtime(RuntimeSpec {
        max_threads,
        watchdog_secs: 0,
    })
}

fn report_json(scenario: &Scenario) -> String {
    let report = RuntimeBackend::channel().evaluate(scenario).unwrap();
    serde::json::to_string(&report).unwrap()
}

#[test]
fn same_seed_replays_to_byte_identical_report_json() {
    for scenario in [replay_scenario(), on_threads(stream_scenario(), 32)] {
        assert_eq!(
            report_json(&scenario),
            report_json(&scenario),
            "live runs with one seed must replay byte-for-byte: {}",
            scenario.label()
        );
    }

    // And the seed genuinely steers the execution.
    let scenario = replay_scenario();
    let first = RuntimeBackend::channel().evaluate(&scenario).unwrap();
    let other = RuntimeBackend::channel()
        .evaluate(&scenario.clone().with_seed(0xFEED))
        .unwrap();
    assert_ne!(
        first.reliability, other.reliability,
        "a different seed must change the measured outcome (a.s.)"
    );
}

#[test]
fn shard_width_does_not_change_results() {
    // 1 shard vs many shards: different interleavings, same bytes —
    // the determinism is architectural, not accidental.
    for scenario in [replay_scenario(), stream_scenario()] {
        assert_eq!(
            report_json(&on_threads(scenario.clone(), 1)),
            report_json(&on_threads(scenario.clone(), 32)),
            "shard width is a performance knob, not a semantic one: {}",
            scenario.label()
        );
    }
}

#[test]
fn runtime_inside_a_sweep_matches_direct_evaluation() {
    // SweepGrid fans cells over worker threads; a runtime run inside a
    // worker collapses to one shard (the workers² guard). The reports
    // must still match a direct top-level evaluation cell for cell.
    let grid = SweepGrid::new(
        Scenario::new(200, FanoutSpec::poisson(6.0))
            .with_replications(4)
            .with_seed(0x6121),
    )
    .over_failure_ratios(&[0.6, 0.9]);
    let cells = grid.run(&RuntimeBackend::channel());
    assert_eq!(cells.len(), 2);
    for cell in &cells {
        let swept = cell.report.as_ref().expect("cell evaluates");
        let direct = RuntimeBackend::channel().evaluate(&cell.scenario).unwrap();
        assert_eq!(
            serde::json::to_string(swept).unwrap(),
            serde::json::to_string(&direct).unwrap(),
            "sweep nesting must not change runtime results"
        );
    }
}

#[test]
fn runtime_report_fields_roundtrip_losslessly() {
    let report = RuntimeBackend::channel()
        .evaluate(&replay_scenario())
        .unwrap();
    assert_eq!(report.transport.as_deref(), Some("channel"));
    assert!(report.messages_lost.unwrap() > 0.0, "loss = 0.1 must bite");
    assert_eq!(report.quiescence_secs, None, "wall-clock stays out");

    let text = serde::json::to_string(&report).unwrap();
    assert!(text.contains("\"transport\":\"channel\""));
    assert!(text.contains("\"messages_lost\":"));
    let back: Report = serde::json::from_str(&text).unwrap();
    assert_eq!(back, report, "runtime Report JSON must be lossless");
}

#[test]
fn runtime_knob_validation_fails_fast() {
    // Bad runtime knobs die in Scenario::validate, before any thread
    // spawns or socket binds.
    let oversubscribed = replay_scenario().with_runtime(RuntimeSpec {
        max_threads: 100_000,
        watchdog_secs: 0,
    });
    assert!(matches!(
        RuntimeBackend::channel().evaluate(&oversubscribed),
        Err(ModelError::InvalidParameter {
            name: "max_threads",
            ..
        })
    ));
    let overwatched = replay_scenario().with_runtime(RuntimeSpec {
        max_threads: 0,
        watchdog_secs: 9999,
    });
    assert!(matches!(
        RuntimeBackend::tcp().evaluate(&overwatched),
        Err(ModelError::InvalidParameter {
            name: "watchdog_secs",
            ..
        })
    ));
}
