//! `GraphBackend` and `ProtocolBackend` run on the flat kernels at every
//! group size, so the flat kernels must sample the *same distribution*
//! as the references they stand in for — on every number a `Report`
//! carries, not only on reliability. The references:
//!
//! * for the relay kernel (`gossip_engine::evaluate_relay`, the one
//!   route `ProtocolBackend` and `GraphBackend` share), `NetSimBackend`
//!   — the event calendar at its default network (1 ms), which runs
//!   the same push protocol and what the kernel declines. It is checked
//!   through `ProtocolBackend` on the complete overlay, on SCAMP's
//!   directed partial views and under i.i.d. and bursty loss, and
//!   through `GraphBackend` on an overlay and under static faults (a
//!   t = 0 zone kill, a `Random` adversary). Both layers build the
//!   adversary's `BlockedLinks` from `derive(derive(seed, rep),
//!   ADVERSARY)`;
//! * for the graph census, [`ReferenceCensus`] below — the unfused
//!   pipeline the flat census fuses: one `match_stubs` configuration-model
//!   pairing per execution, bond-thinned pair by pair, erased into a
//!   `Topology` and site-percolated by a Newman–Ziff `Sweep` read at a
//!   Binomial(n, q) occupied count.
//!
//! Each pair draws from unrelated RNG streams, so the comparison is
//! two-sample: each side runs `BATCHES` evaluations on seeds of its own,
//! every `Report` field under test gives one batch mean per evaluation,
//! and the two sets of batch means must agree within `Z` standard errors
//! of their difference (Welch: the batch means' own spread, so nothing
//! is assumed about the per-execution law — bimodal near q_c — and the
//! overlay a flat evaluation builds once and the calendar resamples per
//! execution is priced in).
//!
//! False-failure probability: each comparison is a Welch t statistic
//! with at least `BATCHES − 1 = 31` degrees of freedom, and
//! P(|t₃₁| > 6) < 1.3e-6; the file makes 112 + 4 + 7 + 7 + 7 + 14 = 151
//! comparisons (16 protocol cells × 7 metrics, four census cells, and
//! the overlay, static-fault, SCAMP and two loss cells × 7), so the
//! family-wise probability that a correct build fails is < 2.0e-4. A
//! metric that is the same
//! constant on every batch of both sides (strict success at n = 1000,
//! say) has no spread, and its means must be exactly equal.
//! What it catches is not marginal: counting a crashed receiver's hop
//! into `rounds` (the flat kernel's behaviour before it was fixed) is
//! 0.59 rounds at n = 20, q = 0.4 — 30 of these standard errors.

use gossip::topology::{match_stubs, Topology};
use gossip::{
    AdversaryStrategy, Backend, BurstySpec, FanoutSpec, FaultSpec, GraphBackend, ModelError,
    NetSimBackend, OverlaySpec, ProtocolBackend, Report, Scenario, TopologySpec,
};
use gossip_model::reduce;
use gossip_rgraph::Sweep;
use gossip_stats::descriptive::OnlineStats;
use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};

const BATCHES: u64 = 32;
const Z: f64 = 6.0;

type Metric = (&'static str, fn(&Report) -> f64);

const RELIABILITY: Metric = ("reliability", |r| r.reliability);

/// Everything a conditioned single-message `Report` measures: the
/// scalars, and the reach curve at hop 1 (read saturated past its end).
const PUSH_METRICS: [Metric; 7] = [
    RELIABILITY,
    ("reliability_raw", |r| measured(r.reliability_raw)),
    ("takeoff_rate", |r| measured(r.takeoff_rate)),
    ("rounds", |r| measured(r.rounds)),
    ("messages_per_member", |r| measured(r.messages_per_member)),
    ("complete_rate", |r| measured(r.complete_rate)),
    ("reach_by_round[1]", |r| {
        let reach = r.reach_by_round.as_deref().unwrap_or_default();
        measured(reach.get(1).or(reach.last()).copied())
    }),
];

fn measured(metric: Option<f64>) -> f64 {
    metric.expect("a push Report fills every metric once a run of the batch took off")
}

/// The undirected census without the flat kernel's fusion: per
/// execution, one configuration-model stub matching, each pair kept
/// with probability `1 − loss` (bond percolation), then site percolation at
/// `q` as a sweep read at `m ~ Binomial(n, q)` occupied members (the
/// law of i.i.d. crash coins), reduced like every census.
struct ReferenceCensus;

impl Backend for ReferenceCensus {
    fn name(&self) -> &'static str {
        "reference census"
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Report, ModelError> {
        let dist = scenario.fanout.build()?;
        let q = scenario
            .q()
            .expect("the census cell has an i.i.d. crash ratio");
        let reliabilities = (0..scenario.replications).map(|rep| {
            let seed = SplitMix64::derive(scenario.seed, rep as u64);
            let mut rng = Xoshiro256StarStar::new(seed);
            let mut degrees: Vec<usize> = (0..scenario.n).map(|_| dist.sample(&mut rng)).collect();
            let kept: Vec<(u32, u32)> = match_stubs(&mut degrees, &mut rng)
                .into_iter()
                .filter(|_| !rng.next_bool(scenario.loss))
                .collect();
            let thinned = Topology::from_edges(scenario.n, kept);
            Sweep::new(&thinned, &mut rng).sample(q, &mut rng)
        });
        Ok(reduce::census(self.name(), scenario, &*dist, reliabilities))
    }
}

/// One `OnlineStats` of batch means per metric: `BATCHES` evaluations of
/// `scenario` on `backend`, seeds derived from `(scenario.seed, stream)`.
fn batch_means(
    backend: &dyn Backend,
    scenario: &Scenario,
    stream: u64,
    metrics: &[Metric],
) -> Vec<OnlineStats> {
    let mut stats = vec![OnlineStats::new(); metrics.len()];
    for batch in 0..BATCHES {
        let seed = SplitMix64::derive(scenario.seed, stream * BATCHES + batch);
        let report = backend
            .evaluate(&scenario.clone().with_seed(seed))
            .expect("both sides accept the scenario");
        for (stat, (_, read)) in stats.iter_mut().zip(metrics) {
            stat.push(read(&report));
        }
    }
    stats
}

/// `backend` against `reference`, metric by metric.
fn assert_agrees(
    reference: &dyn Backend,
    backend: &dyn Backend,
    scenario: &Scenario,
    metrics: &[Metric],
) {
    let want = batch_means(reference, scenario, 0, metrics);
    let got = batch_means(backend, scenario, 1, metrics);
    for ((name, _), (w, g)) in metrics.iter().zip(want.iter().zip(&got)) {
        let se = (w.sem().powi(2) + g.sem().powi(2)).sqrt();
        assert!(
            (w.mean() - g.mean()).abs() <= Z * se,
            "{} on {}: {name} {} {} vs {} ({Z} SE = {})",
            backend.name(),
            scenario.label(),
            reference.name(),
            w.mean(),
            g.mean(),
            Z * se
        );
    }
}

#[test]
fn protocol_auto_matches_classic_on_every_report_metric() {
    for (i, n) in [2usize, 5, 20, 100, 1000].into_iter().enumerate() {
        for (j, q) in [0.4, 0.8, 1.0].into_iter().enumerate() {
            // About the same work per cell: 300 executions a batch for
            // the small groups, 30 at n = 1000.
            let scenario = Scenario::new(n, FanoutSpec::poisson(4.0))
                .with_failure_ratio(q)
                .with_replications((30_000 / n).clamp(30, 300))
                .with_seed(0xA6EE_0000 + (i * 3 + j) as u64);
            assert_agrees(&NetSimBackend, &ProtocolBackend, &scenario, &PUSH_METRICS);
        }
    }
}

#[test]
fn protocol_auto_matches_classic_when_everyone_is_a_target() {
    // Fixed(n − 1): every sender targets the whole group, which is the
    // distinct-target sampler's partial Fisher–Yates branch.
    let scenario = Scenario::new(50, FanoutSpec::fixed(49))
        .with_failure_ratio(0.8)
        .with_replications(20)
        .with_seed(0xA6EE_0100);
    assert_agrees(&NetSimBackend, &ProtocolBackend, &scenario, &PUSH_METRICS);
}

#[test]
fn graph_auto_matches_classic_on_the_census_and_on_an_overlay() {
    let census = Scenario::new(1000, FanoutSpec::poisson(4.0))
        .with_failure_ratio(0.7)
        .with_loss(0.1)
        .with_replications(10)
        .with_seed(0xA6EE_0200);
    assert_agrees(&ReferenceCensus, &GraphBackend, &census, &[RELIABILITY]);
    // Quenched on the relay (one overlay per evaluation), resampled per
    // execution by the calendar: the batch means price that in.
    let overlay = Scenario::new(400, FanoutSpec::poisson(5.0))
        .with_failure_ratio(0.8)
        .with_topology(TopologySpec::new(OverlaySpec::WattsStrogatz {
            k: 10,
            beta: 0.3,
        }))
        .with_replications(10)
        .with_seed(0xA6EE_0201);
    assert_agrees(&NetSimBackend, &GraphBackend, &overlay, &PUSH_METRICS);
}

#[test]
fn graph_census_matches_the_reference_without_coins_subcritically_and_at_odd_stub_totals() {
    let cells = [
        // q = 1, no loss: the census tosses no crash or loss coin.
        Scenario::new(1000, FanoutSpec::poisson(4.0)).with_failure_ratio(1.0),
        // Below q_c = 0.25: many small components, no giant.
        Scenario::new(1000, FanoutSpec::poisson(4.0))
            .with_failure_ratio(0.2)
            .with_loss(0.1),
        // Fixed(3) at odd n: the stub total is always odd, so every
        // execution takes the parity fix.
        Scenario::new(999, FanoutSpec::fixed(3)).with_failure_ratio(0.6),
    ];
    for (i, cell) in cells.into_iter().enumerate() {
        let census = cell.with_replications(10).with_seed(0xA6EE_0210 + i as u64);
        assert_agrees(&ReferenceCensus, &GraphBackend, &census, &[RELIABILITY]);
    }
}

#[test]
fn graph_relay_matches_netsim_under_a_zone_kill_and_an_adversary() {
    // The relay kernel's `prefailed` (zone 1 of 4, killed at t = 0) and
    // `blocked` (a fresh `Random` adversary per execution, 1500 of the
    // 14 280 links) fields on a clustered overlay, at an operating point
    // where each fault alone costs about 0.05 of reliability: a kernel
    // that drops either field misses netsim by 7 standard errors or more.
    // A kernel that counts only the copies that get through reads
    // `messages_per_member` 2.02 against netsim's 2.24, which counts
    // every send: 9.3 standard errors at 160 executions a batch (4.8 at
    // 40, which would pass).
    let scenario = Scenario::new(120, FanoutSpec::poisson(4.0))
        .with_failure_ratio(0.6)
        .with_topology(TopologySpec::new(OverlaySpec::Clustered {
            zones: 4,
            intra: 6,
            inter: 2,
        }))
        .with_faults(
            FaultSpec::none()
                .with_zone_failure(vec![1], 0)
                .with_adversary(1_500, AdversaryStrategy::Random),
        )
        .with_replications(160)
        .with_seed(0xA6EE_0300);
    assert_agrees(&NetSimBackend, &GraphBackend, &scenario, &PUSH_METRICS);
    // One route: the protocol backend runs the same kernel on the same
    // streams.
    let graph = GraphBackend.evaluate(&scenario).unwrap();
    let protocol = ProtocolBackend.evaluate(&scenario).unwrap();
    assert_eq!(
        Report {
            backend: graph.backend.clone(),
            ..protocol
        },
        graph
    );
}

#[test]
fn protocol_relay_matches_netsim_on_scamp_views() {
    // SCAMP views are an overlay: the kernel fixes one set of views for
    // the whole evaluation, the calendar rebuilds them per execution.
    let scenario = Scenario::new(300, FanoutSpec::poisson(4.0))
        .with_failure_ratio(0.8)
        .with_topology(TopologySpec::new(OverlaySpec::Scamp { c: 1 }))
        .with_replications(20)
        .with_seed(0xA6EE_0400);
    assert_agrees(&NetSimBackend, &ProtocolBackend, &scenario, &PUSH_METRICS);
    // One route: the graph backend runs the same kernel on the same views.
    let protocol = ProtocolBackend.evaluate(&scenario).unwrap();
    let graph = GraphBackend.evaluate(&scenario).unwrap();
    assert_eq!(
        Report {
            backend: graph.backend.clone(),
            ..protocol
        },
        graph
    );
}

#[test]
fn protocol_relay_matches_netsim_under_bursty_and_iid_loss() {
    // Mean loss 0.3 both ways: E16's bursty channel (bad-state exit
    // 0.15, bad-state loss 0.8, so a burst lasts ≈ 6.7 copies) and its
    // i.i.d. stand-in. The kernel starts a sender's chain at first
    // receipt, the calendar every chain at t = 0; both start it from
    // stationary and advance it once per copy, and a push sender sends
    // only once, so the two laws are the same.
    let pi_bad = 0.3 / 0.8;
    let bursty = BurstySpec {
        p_gb: pi_bad * 0.15 / (1.0 - pi_bad),
        p_bg: 0.15,
        loss_good: 0.0,
        loss_bad: 0.8,
    };
    let base = Scenario::new(300, FanoutSpec::poisson(4.0))
        .with_failure_ratio(0.9)
        .with_replications(40);
    let cells = [
        base.clone()
            .with_faults(FaultSpec::none().with_bursty_loss(bursty))
            .with_seed(0xA6EE_0500),
        base.with_loss(0.3).with_seed(0xA6EE_0501),
    ];
    for scenario in &cells {
        assert_agrees(&NetSimBackend, &ProtocolBackend, scenario, &PUSH_METRICS);
    }
}
