//! The one place where Monte-Carlo replications become a [`Report`].
//!
//! Every executing backend — graph, protocol, netsim, runtime — does
//! three things: refuse what it cannot model, run one replication per
//! seed `SplitMix64::derive(scenario.seed, rep)`, and hand the
//! per-execution digests to this module *in replication order*. What the
//! estimate means is decided here, once:
//!
//! * [`conditioned`] — the paper's §5 estimator: reliability averaged
//!   over the executions that *take off*; cost metrics average over
//!   every execution, timing metrics over the take-offs only.
//! * [`census`] — the unconditioned mode of the graph backend's default
//!   path: a static percolation census has no source, hence no fizzle
//!   mode — every replication counts and `reliability_raw` equals
//!   `reliability`.
//! * [`stream`] — the per-message mode for [`TrafficSpec`] workloads:
//!   every message of every execution is one conditioned sample, and
//!   the [`TrafficReport`] is filled from the merged latency histogram
//!   and the copy ledger.
//!
//! The split reads each execution, not a model of it: an execution (or
//! a stream message) takes off iff it reached at least `nonfailed^{2/3}`
//! members, the critical-window size of the surviving group. Fizzles
//! are O(1) and giants Θ(n), on any overlay. Near q_c at small n a
//! subcritical run crosses it now and then (≈ 1 in 2 500 at n = 5 000,
//! Po(4), q = 0.2), and a unimodal reach (the k-regular lattice) is cut
//! inside its one mode: read `reliability_raw` there.
//!
//! Digests are pushed into the running statistics in the order given,
//! so a `Report` is a pure function of the digest sequence — backends
//! that parallelize replications collect first and reduce here.
//!
//! A kernel with a source hands over its first receipts per hop
//! ([`Execution::hops`]) and nothing derived from them; three `Report`
//! fields are read off them here and nowhere else:
//!
//! * `rounds` — the last non-empty hop, averaged over take-offs;
//! * `reach_by_round` — entry h is the fraction of nonfailed members
//!   first reached within h hops, averaged over take-offs (a run that
//!   ended sooner stays at its final value), so the last entry is the
//!   conditioned `reliability`;
//! * `complete_rate` — the share of all executions that reached every
//!   nonfailed member (the strict success event of §4.2).
//!
//! Executions are fresh and i.i.d., so a fixed nonfailed member hears
//! the message in `X ~ B(t, p)` of `t` executions (Figs. 6/7, Eq. 5),
//! where p is the per-execution probability that a uniformly chosen
//! nonfailed non-source member is reached: `E[(reached − 1) /
//! (nonfailed − 1)]`. `reliability_raw` is `E[reached / nonfailed]`,
//! which counts the source as reached; the two differ by
//! `(nonfailed − reached) / (nonfailed·(nonfailed − 1)) < 1/nonfailed`
//! per execution, so `reliability_raw` is p up to the source's own
//! count.
//!
//! [`TrafficSpec`]: gossip_traffic::TrafficSpec

use gossip_stats::descriptive::OnlineStats;
use gossip_traffic::{percentile, TrafficReport};

use crate::distribution::FanoutDistribution;
use crate::law;
use crate::scenario::{ProtocolSpec, Report, Scenario};
use crate::success;

/// `reached ≥ nonfailed^{2/3}`, on integer counts.
fn takes_off(reached: u64, nonfailed: u64) -> bool {
    reached >= 1 && u128::from(reached).pow(3) >= u128::from(nonfailed).pow(2)
}

/// One execution's digest. `None` marks a metric the producing layer
/// does not measure; the matching `Report` field is then `None` too.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Execution {
    /// Fraction of nonfailed members reached.
    pub reliability: f64,
    /// Nonfailed members: the reliability denominator.
    pub nonfailed: usize,
    /// `hops[h]`: members in the reliability denominator that first
    /// received at hop h; hop 0 is the source, and the sum is the
    /// members reached. Empty where the layer has no source, which
    /// leaves `rounds`, `reach_by_round` and `complete_rate` `None`.
    pub hops: Vec<u32>,
    /// Messages sent per nonfailed member (averaged over every run).
    pub messages_per_member: Option<f64>,
    /// Simulated seconds to quiescence (averaged over take-offs).
    pub quiescence_secs: Option<f64>,
    /// Messages that died in transit (averaged over every run).
    pub messages_lost: Option<f64>,
}

/// One stream execution's digest.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamExecution {
    /// Per message: nonfailed members holding it at quiescence.
    pub reached: Vec<u32>,
    /// Nonfailed members — the reliability and cost denominator.
    pub nonfailed: usize,
    /// Rounds to stream quiescence.
    pub rounds: u64,
    /// Message copies put on the wire.
    pub copies_sent: u64,
    /// Copies dropped at full send queues.
    pub copies_dropped: u64,
    /// Copies lost in transit.
    pub copies_lost: u64,
}

/// The accumulator behind every mode: reliability samples split into
/// take-offs and fizzles, plus the per-execution metrics to average.
struct Tally {
    /// False in census mode: every sample counts as a take-off.
    conditioned: bool,
    conditional: OnlineStats,
    raw: OnlineStats,
    rounds: OnlineStats,
    messages: OnlineStats,
    quiescence: OnlineStats,
    lost: OnlineStats,
    /// Per hop: the summed cumulative reach of the take-offs with hops.
    reach: Vec<f64>,
    /// Their summed final reach: a longer curve extends the earlier,
    /// saturated ones by it.
    reach_final: f64,
    /// Executions with hops, and those among them that reached every
    /// nonfailed member.
    sourced: usize,
    complete: usize,
}

fn mean_if_any(stats: &OnlineStats) -> Option<f64> {
    (stats.count() > 0).then(|| stats.mean())
}

impl Tally {
    fn new(conditioned: bool) -> Self {
        Tally {
            conditioned,
            conditional: OnlineStats::new(),
            raw: OnlineStats::new(),
            rounds: OnlineStats::new(),
            messages: OnlineStats::new(),
            quiescence: OnlineStats::new(),
            lost: OnlineStats::new(),
            reach: Vec::new(),
            reach_final: 0.0,
            sourced: 0,
            complete: 0,
        }
    }

    /// Folds one execution's first receipts per hop (`reached` in all)
    /// into `rounds`, the reach curve (take-offs only) and the
    /// strict-success count.
    fn hops(&mut self, e: &Execution, reached: u64, took_off: bool) {
        let Some(last) = e.hops.iter().rposition(|&count| count > 0) else {
            return;
        };
        self.sourced += 1;
        self.complete += usize::from(e.reliability >= 1.0);
        if !took_off {
            return;
        }
        self.rounds.push(last as f64);
        if self.reach.len() <= last {
            self.reach.resize(last + 1, self.reach_final);
        }
        // Reached within h hops over nonfailed is reliability × the
        // cumulative share of the receipts, so the final entry is the
        // run's reliability exactly.
        let mut cumulative = 0;
        for (h, slot) in self.reach.iter_mut().enumerate() {
            cumulative += u64::from(e.hops.get(h).copied().unwrap_or(0));
            *slot += e.reliability * cumulative as f64 / reached as f64;
        }
        self.reach_final += e.reliability;
    }

    /// Records one reliability sample of `reached` out of `nonfailed`
    /// members; true when it took off.
    fn sample(&mut self, reliability: f64, reached: u64, nonfailed: usize) -> bool {
        self.raw.push(reliability);
        let took_off = !self.conditioned || takes_off(reached, nonfailed as u64);
        if took_off {
            self.conditional.push(reliability);
        }
        took_off
    }

    /// The only non-analytic `Report` literal in the workspace.
    fn report(
        &self,
        backend: &str,
        transport: Option<&str>,
        scenario: &Scenario,
        dist: &dyn FanoutDistribution,
        replications: usize,
        traffic: Option<TrafficReport>,
    ) -> Report {
        // 0 when nothing took off (an empty accumulator's mean).
        let reliability = self.conditional.mean();
        let ci = self.conditional.ci95();
        Report {
            backend: backend.to_string(),
            scenario: scenario.label(),
            replications,
            reliability,
            reliability_std_error: self.conditional.sem(),
            reliability_ci95: (ci.lo, ci.hi),
            reliability_raw: Some(self.raw.mean()),
            // Push's complete-graph Eq. 3 prediction: an overlay
            // shifts the *measured* q_c away from it, which is the
            // point of the topology ablation. Push-pull's pulls keep
            // spreading below it and flooding has no threshold, so
            // their Reports carry none.
            critical_q: match scenario.protocol {
                ProtocolSpec::Push => law::critical_q(dist),
                ProtocolSpec::Flood | ProtocolSpec::PushPull => None,
            },
            takeoff_rate: self
                .conditioned
                .then(|| self.conditional.count() as f64 / self.raw.count().max(1) as f64),
            rounds: mean_if_any(&self.rounds),
            messages_per_member: mean_if_any(&self.messages),
            quiescence_secs: mean_if_any(&self.quiescence),
            transport: transport.map(str::to_string),
            topology: scenario.topology_label(),
            faults: scenario.faults_label(),
            messages_lost: mean_if_any(&self.lost),
            success_within_t: success::success_probability(reliability, scenario.executions),
            // Only take-offs with hops push both `rounds` and a curve.
            reach_by_round: (!self.reach.is_empty()).then(|| {
                let curves = self.rounds.count() as f64;
                self.reach.iter().map(|sum| sum / curves).collect()
            }),
            complete_rate: (self.sourced > 0)
                .then(|| self.complete as f64 / self.raw.count() as f64),
            traffic,
        }
    }
}

fn single(
    conditioned: bool,
    backend: &str,
    transport: Option<&str>,
    scenario: &Scenario,
    dist: &dyn FanoutDistribution,
    executions: impl IntoIterator<Item = Execution>,
) -> Report {
    let mut tally = Tally::new(conditioned);
    let mut replications = 0;
    for e in executions {
        replications += 1;
        tally.messages.extend(e.messages_per_member);
        tally.lost.extend(e.messages_lost);
        let reached = e.hops.iter().map(|&count| u64::from(count)).sum();
        let took_off = tally.sample(e.reliability, reached, e.nonfailed);
        if took_off {
            tally.quiescence.extend(e.quiescence_secs);
        }
        tally.hops(&e, reached, took_off);
    }
    tally.report(backend, transport, scenario, dist, replications, None)
}

/// Reduces single-message executions with take-off conditioning.
/// `transport` names the wire of a live run (`None` for model layers).
pub fn conditioned(
    backend: &str,
    transport: Option<&str>,
    scenario: &Scenario,
    dist: &dyn FanoutDistribution,
    executions: impl IntoIterator<Item = Execution>,
) -> Report {
    single(true, backend, transport, scenario, dist, executions)
}

/// Reduces the reliabilities of a source-less census: no take-off split,
/// no rounds, no message cost.
pub fn census(
    backend: &str,
    scenario: &Scenario,
    dist: &dyn FanoutDistribution,
    reliabilities: impl IntoIterator<Item = f64>,
) -> Report {
    let executions = reliabilities.into_iter().map(|reliability| Execution {
        reliability,
        ..Execution::default()
    });
    single(false, backend, None, scenario, dist, executions)
}

/// Reduces stream executions: each message of each execution is one
/// sample, split on its own reached count like a single message (under
/// an uncontended cap every message is an independent execution of the
/// paper's protocol). `hist` is the delivery-delay histogram in rounds,
/// merged over all executions; `hop_millis` prices rounds into seconds
/// on timed layers.
///
/// A live run (`transport` set) follows the runtime's conventions: its
/// clock is virtual, so throughput is reported but `quiescence_secs` is
/// not, and `messages_lost` is filled from the copy ledger.
///
/// # Panics
///
/// When the scenario carries no traffic spec — backends dispatch here
/// only for streams.
pub fn stream(
    backend: &str,
    transport: Option<&str>,
    scenario: &Scenario,
    dist: &dyn FanoutDistribution,
    hop_millis: Option<u64>,
    executions: &[StreamExecution],
    hist: &[u64],
) -> Report {
    let spec = scenario
        .traffic
        .expect("stream reduction is only dispatched when traffic is present");
    let k = spec.messages;
    let live = transport.is_some();
    let mut tally = Tally::new(true);
    let mut per_message = vec![OnlineStats::new(); k];
    let mut sent = OnlineStats::new();
    let mut dropped = OnlineStats::new();
    let mut lost = OnlineStats::new();
    let mut throughput = OnlineStats::new();
    for e in executions {
        let members = e.nonfailed.max(1) as f64;
        let mut any_takeoff = false;
        for (message, &count) in e.reached.iter().enumerate() {
            let r = count as f64 / members;
            if tally.sample(r, u64::from(count), e.nonfailed) {
                any_takeoff = true;
                per_message[message].push(r);
            }
        }
        if any_takeoff {
            tally.rounds.push(e.rounds as f64);
            if let Some(ms) = hop_millis {
                let secs = e.rounds as f64 * ms as f64 / 1000.0;
                if !live {
                    tally.quiescence.push(secs);
                }
                if secs > 0.0 {
                    throughput.push(k as f64 / secs);
                }
            }
        }
        tally.messages.push(e.copies_sent as f64 / members);
        sent.push(e.copies_sent as f64);
        dropped.push(e.copies_dropped as f64);
        lost.push(e.copies_lost as f64);
    }
    if live {
        tally.lost = lost;
    }
    // A message that never took off contributes a 0 mean.
    let means: Vec<f64> = per_message.iter().map(OnlineStats::mean).collect();
    let traffic = TrafficReport {
        messages: k,
        reliability_mean: means.iter().sum::<f64>() / k as f64,
        reliability_min: means.iter().copied().fold(f64::INFINITY, f64::min),
        messages_per_sec: mean_if_any(&throughput),
        latency_rounds_p50: percentile(hist, 0.50),
        latency_rounds_p90: percentile(hist, 0.90),
        latency_rounds_p99: percentile(hist, 0.99),
        copies_sent: Some(sent.mean()),
        copies_dropped: Some(dropped.mean()),
        copies_lost: Some(lost.mean()),
        batched: spec.batched(),
    };
    tally.report(
        backend,
        transport,
        scenario,
        dist,
        executions.len(),
        Some(traffic),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::PoissonFanout;
    use crate::scenario::FanoutSpec;
    use gossip_traffic::TrafficSpec;

    /// Po(4), q = 0.9, n = 1 000.
    fn headline() -> (Scenario, PoissonFanout) {
        let scenario = Scenario::new(1000, FanoutSpec::poisson(4.0)).with_failure_ratio(0.9);
        (scenario, PoissonFanout::new(4.0))
    }

    /// A run over 1 000 nonfailed members whose last first receipts
    /// were at hop `rounds`, one per earlier hop.
    fn run(reliability: f64, rounds: usize, secs: f64) -> Execution {
        let last = (reliability * 1000.0).round() as u32 - rounds as u32;
        Execution {
            reliability,
            nonfailed: 1000,
            hops: [vec![1; rounds], vec![last]].concat(),
            messages_per_member: Some(2.0 * reliability),
            quiescence_secs: Some(secs),
            messages_lost: None,
        }
    }

    #[test]
    fn conditioning_splits_takeoffs_from_fizzles() {
        let (scenario, dist) = headline();
        let runs = [run(0.96, 7, 0.07), run(0.01, 1, 0.01), run(0.98, 9, 0.09)];
        let report = conditioned("protocol", None, &scenario, &dist, runs);
        assert_eq!(report.replications, 3);
        assert!((report.reliability - 0.97).abs() < 1e-12);
        assert!((report.reliability_raw.unwrap() - 0.65).abs() < 1e-12);
        assert_eq!(report.takeoff_rate, Some(2.0 / 3.0));
        // Timing averages the take-offs, cost averages every run.
        assert_eq!(report.rounds, Some(8.0));
        assert!((report.quiescence_secs.unwrap() - 0.08).abs() < 1e-12);
        assert!((report.messages_per_member.unwrap() - 1.3).abs() < 1e-12);
        assert_eq!(report.messages_lost, None);
        assert_eq!(report.transport, None);
        assert!((report.critical_q.unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(report.success_within_t, report.reliability);
        assert_eq!(report.complete_rate, Some(0.0));
    }

    #[test]
    fn hops_yield_rounds_the_reach_curve_and_strict_success() {
        let (scenario, dist) = headline();
        let execution = |reliability, nonfailed, hops: &[u32]| Execution {
            reliability,
            nonfailed,
            hops: hops.to_vec(),
            ..Execution::default()
        };
        let runs = [
            // All 4 nonfailed members reached by hop 1.
            execution(1.0, 4, &[1, 3]),
            // 4 of 5: a hole at hop 2, a trailing empty hop 4.
            execution(0.8, 5, &[1, 1, 0, 2, 0]),
            // A fizzle: counts for strict success only.
            execution(0.01, 100, &[1]),
        ];
        let report = conditioned("protocol", None, &scenario, &dist, runs);
        // Last non-empty hops 1 and 3.
        assert_eq!(report.rounds, Some(2.0));
        // [0.25, 1, 1, 1] and [0.2, 0.4, 0.4, 0.8]: the shorter run
        // saturates, and the last entry is the conditioned reliability.
        let reach = report.reach_by_round.unwrap();
        for (got, want) in reach.iter().zip([0.225, 0.7, 0.7, 0.9]) {
            assert!((got - want).abs() < 1e-12, "{reach:?}");
        }
        assert_eq!(reach.len(), 4);
        assert!((reach[3] - report.reliability).abs() < 1e-12);
        // One complete execution of all three.
        assert_eq!(report.complete_rate, Some(1.0 / 3.0));
    }

    #[test]
    fn zero_takeoffs_report_zero_and_no_timing() {
        let (scenario, dist) = headline();
        let runs = [run(0.002, 1, 0.01), run(0.004, 2, 0.02)];
        let report = conditioned("netsim", None, &scenario, &dist, runs);
        assert_eq!(report.reliability, 0.0);
        assert_eq!(report.reliability_std_error, 0.0);
        assert_eq!(report.reliability_ci95, (0.0, 0.0));
        assert_eq!(report.takeoff_rate, Some(0.0));
        assert_eq!(report.rounds, None);
        assert_eq!(report.reach_by_round, None);
        assert_eq!(report.complete_rate, Some(0.0));
        assert_eq!(report.quiescence_secs, None);
        assert_eq!(report.success_within_t, 0.0);
        // The raw estimator and the cost still see every run.
        assert!((report.reliability_raw.unwrap() - 0.003).abs() < 1e-12);
        assert!(report.messages_per_member.is_some());
    }

    #[test]
    fn the_split_is_the_critical_window_of_the_survivors() {
        // 100³ = 1 000²: the boundary itself takes off.
        assert!(takes_off(100, 1000));
        assert!(!takes_off(99, 1000));
        // A lone nonfailed source that holds the message is complete.
        assert!(takes_off(1, 1));
        // Nothing to reach, and nothing reached, is no take-off.
        assert!(!takes_off(0, 0));
        assert!(!takes_off(0, 1));
        // No overflow at 10⁷ members, where the window is 46 415.9.
        assert!(takes_off(46_416, 10_000_000) && !takes_off(46_415, 10_000_000));
    }

    #[test]
    fn the_split_reads_the_execution_not_the_scenario() {
        let reached = |count: u32, nonfailed| Execution {
            reliability: f64::from(count) / nonfailed as f64,
            nonfailed,
            hops: vec![1, count - 1],
            ..Execution::default()
        };
        let (scenario, dist) = headline();
        // Subcritical (q = 0.15 < q_c = 0.25) or not, the same digests
        // split the same way.
        for q in [0.15, 0.9] {
            let scenario = scenario.clone().with_failure_ratio(q);
            let runs = [reached(100, 1000), reached(99, 1000)];
            let report = conditioned("protocol", None, &scenario, &dist, runs);
            assert_eq!(report.takeoff_rate, Some(0.5));
            assert_eq!(report.reliability, 0.1);
            assert!((report.reliability_raw.unwrap() - 0.0995).abs() < 1e-12);
            assert_eq!(report.rounds, Some(1.0));
        }
    }

    #[test]
    fn census_has_no_takeoff_split() {
        let (scenario, dist) = headline();
        // 0.0 would fizzle under any conditioning; a census keeps it.
        let report = census("graph", &scenario, &dist, [0.9, 0.0, 0.6]);
        assert_eq!(report.replications, 3);
        assert!((report.reliability - 0.5).abs() < 1e-12);
        assert_eq!(report.reliability_raw, Some(report.reliability));
        assert_eq!(report.takeoff_rate, None);
        assert_eq!(report.rounds, None);
        assert_eq!(report.messages_per_member, None);
        assert_eq!(report.quiescence_secs, None);
        assert_eq!(report.traffic, None);
        assert_eq!((report.reach_by_round, report.complete_rate), (None, None));
    }

    #[test]
    fn a_live_run_reports_its_transport_and_losses() {
        let (scenario, dist) = headline();
        let runs = [0.97, 0.95].map(|reliability| Execution {
            reliability,
            messages_lost: Some(10.0),
            ..Execution::default()
        });
        let report = conditioned("runtime", Some("channel"), &scenario, &dist, runs);
        assert_eq!(report.transport.as_deref(), Some("channel"));
        assert_eq!(report.messages_lost, Some(10.0));
        assert_eq!(report.rounds, None);
    }

    fn stream_run(reached: [u32; 2]) -> StreamExecution {
        StreamExecution {
            reached: reached.to_vec(),
            nonfailed: 100,
            rounds: 8,
            copies_sent: 700,
            copies_dropped: 30,
            copies_lost: 50,
        }
    }

    #[test]
    fn a_stream_message_that_never_takes_off_floors_the_minimum() {
        let (scenario, dist) = headline();
        let scenario = scenario.with_traffic(TrafficSpec::stream(2));
        // Message 1 fizzles in both executions.
        let runs = [stream_run([96, 1]), stream_run([98, 2])];
        let hist = [2, 10, 80, 5];
        let report = stream("netsim", None, &scenario, &dist, Some(5), &runs, &hist);
        let traffic = report.traffic.as_ref().unwrap();
        assert_eq!(traffic.messages, 2);
        assert_eq!(traffic.reliability_min, 0.0);
        assert!((traffic.reliability_mean - 0.485).abs() < 1e-12);
        // The report-level estimator pools the per-message samples.
        assert_eq!(report.replications, 2);
        assert!((report.reliability - 0.97).abs() < 1e-12);
        assert_eq!(report.takeoff_rate, Some(0.5));
        assert_eq!(report.rounds, Some(8.0));
        // 8 rounds × 5 ms = 0.04 s; k / secs = 50 messages/s.
        assert!((report.quiescence_secs.unwrap() - 0.04).abs() < 1e-12);
        assert!((traffic.messages_per_sec.unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(traffic.latency_rounds_p50, Some(2.0));
        assert_eq!(traffic.copies_sent, Some(700.0));
        assert_eq!(traffic.copies_dropped, Some(30.0));
        assert_eq!(traffic.copies_lost, Some(50.0));
        assert_eq!(report.messages_per_member, Some(7.0));
        assert_eq!(report.messages_lost, None);
        // Stream digests carry no per-hop receipts.
        assert_eq!(report.reach_by_round, None);
        assert_eq!(report.complete_rate, None);

        // The same digests from a live run: virtual-clock throughput
        // stays, quiescence does not, losses come from the copy ledger.
        let live = stream(
            "runtime",
            Some("tcp"),
            &scenario,
            &dist,
            Some(5),
            &runs,
            &hist,
        );
        assert_eq!(live.quiescence_secs, None);
        assert_eq!(live.messages_lost, Some(50.0));
        assert_eq!(live.transport.as_deref(), Some("tcp"));
        assert_eq!(
            live.traffic.unwrap().messages_per_sec,
            traffic.messages_per_sec
        );

        // Untimed (the protocol backend): no seconds at all.
        let untimed = stream("protocol", None, &scenario, &dist, None, &runs, &hist);
        assert_eq!(untimed.quiescence_secs, None);
        assert_eq!(untimed.traffic.unwrap().messages_per_sec, None);
    }

    #[test]
    fn a_stream_message_is_split_on_its_own_counts() {
        let (scenario, dist) = headline();
        let scenario = scenario.with_traffic(TrafficSpec::stream(2));
        let runs = [StreamExecution {
            reached: vec![100, 99],
            nonfailed: 1000,
            ..stream_run([0, 0])
        }];
        let report = stream("protocol", None, &scenario, &dist, None, &runs, &[1]);
        assert_eq!(report.takeoff_rate, Some(0.5));
        assert_eq!(report.reliability, 0.1);
        let traffic = report.traffic.unwrap();
        assert_eq!(traffic.reliability_mean, 0.05);
        assert_eq!(traffic.reliability_min, 0.0);
    }
}
