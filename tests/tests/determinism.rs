//! Reproducibility: every stochastic pipeline in the workspace is a pure
//! function of its seed — across reruns, and independent of thread
//! scheduling in the parallel Monte-Carlo.

use std::sync::Arc;

use gossip_model::distribution::{FanoutDistribution, PoissonFanout};
use gossip_model::{success, Backend, FanoutSpec, Scenario};
use gossip_protocol::engine::{run_execution, ExecutionOutcome};
use gossip_protocol::ProtocolBackend;
use gossip_rgraph::ConfigurationModel;
use gossip_stats::parallel::parallel_map;
use gossip_stats::rng::Xoshiro256StarStar;

/// One calendar execution of `scenario`, its fanout built here.
fn execute(scenario: &Scenario, seed: u64) -> ExecutionOutcome {
    let fanout: Arc<dyn FanoutDistribution> = Arc::from(scenario.fanout.build().unwrap());
    run_execution(scenario, &fanout, seed).unwrap()
}

#[test]
fn executions_bitwise_reproducible() {
    let scenario = Scenario::new(800, FanoutSpec::poisson(4.0)).with_failure_ratio(0.8);
    let a = execute(&scenario, 0xABCD);
    let b = execute(&scenario, 0xABCD);
    assert_eq!(a, b);
}

#[test]
fn experiment_reproducible_across_parallel_runs() {
    // parallel_map distributes the 16 replications over threads; no
    // field of the Report may depend on scheduling (exact equality).
    let scenario = Scenario::new(500, FanoutSpec::poisson(3.0))
        .with_failure_ratio(0.9)
        .with_replications(16)
        .with_seed(7);
    let a = ProtocolBackend.evaluate(&scenario).unwrap();
    let b = ProtocolBackend.evaluate(&scenario).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.replications, 16);
}

#[test]
fn flat_reports_identical_on_the_pool_and_serially() {
    // Po(4) has q_c = 0.25: q = 0.2 fizzles, q = 0.8 takes off. From the
    // main thread the replications run on the worker pool; inside a
    // `parallel_map` job the same evaluation runs serially. The Report
    // JSON must be byte-identical either way.
    for q in [0.2, 0.8] {
        let scenario = Scenario::new(2000, FanoutSpec::poisson(4.0))
            .with_failure_ratio(q)
            .with_replications(40)
            .with_seed(11);
        let json = || {
            let report = ProtocolBackend.evaluate(&scenario).unwrap();
            serde::json::to_string(&report).expect("serializes")
        };
        let pooled = json();
        for nested in parallel_map(2, |_| json()) {
            assert_eq!(nested, pooled, "q = {q}");
        }
    }
}

#[test]
fn histogram_experiment_reproducible() {
    // The Figs. 6/7 pipeline: a report's member receipt probability,
    // then a seeded B(t, p) sample of the histogram.
    let scenario = Scenario::new(400, FanoutSpec::poisson(4.0))
        .with_failure_ratio(0.9)
        .with_replications(60)
        .with_seed(3);
    let histogram = || {
        let p = ProtocolBackend.evaluate(&scenario).unwrap().reliability_raw;
        success::receipt_counts(p.unwrap(), 5, 12, 3)
    };
    assert_eq!(histogram().counts(), histogram().counts());
}

#[test]
fn different_seeds_differ() {
    let scenario = Scenario::new(800, FanoutSpec::poisson(4.0)).with_failure_ratio(0.8);
    let a = execute(&scenario, 1);
    let b = execute(&scenario, 2);
    assert_ne!(a, b, "distinct seeds should give distinct executions");
}

#[test]
fn graphs_reproducible() {
    let dist = PoissonFanout::new(4.0);
    let g1 = ConfigurationModel::new(&dist, 2000).generate(&mut Xoshiro256StarStar::new(5));
    let g2 = ConfigurationModel::new(&dist, 2000).generate(&mut Xoshiro256StarStar::new(5));
    assert_eq!(g1.edge_count(), g2.edge_count());
    for v in 0..2000u32 {
        assert_eq!(g1.neighbors(v), g2.neighbors(v));
    }
}

#[test]
fn scamp_execution_reproducible() {
    let scenario = Scenario::new(600, FanoutSpec::poisson(5.0))
        .with_failure_ratio(0.9)
        .with_topology(gossip_model::TopologySpec::new(
            gossip_model::OverlaySpec::Scamp { c: 2 },
        ));
    let a = execute(&scenario, 44);
    let b = execute(&scenario, 44);
    assert_eq!(a, b);
}
