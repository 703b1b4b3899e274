//! The generating-function backend: [`crate::law`] answering a
//! [`Scenario`] with a [`Report`].

use gossip_faults::FaultReduction;
use gossip_traffic::TrafficReport;

use crate::error::ModelError;
use crate::law::{self, PaperLaw};
use crate::scenario::{Backend, ProtocolSpec, Report, Scenario};
use crate::success;

/// The generating-function layer: site percolation for crashes
/// (Eqs. 1–4, 10–11) joined with bond percolation for loss, plus the
/// Eq. 5 success calculus. Exact (no Monte-Carlo noise) and fast.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalyticBackend;

impl Backend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Report, ModelError> {
        scenario.validate()?;
        crate::support::check(self.name(), scenario)?;
        let q = scenario
            .q()
            .expect("support::check refuses crash schedules");
        // Fault families either reduce to the closed forms (no-op, or
        // extra i.i.d. loss folding into the bond-percolation channel)
        // or are declined with a typed error.
        let loss = match scenario.faults.reduce() {
            FaultReduction::Noop => scenario.loss,
            FaultReduction::ExtraIidLoss(extra) => 1.0 - (1.0 - scenario.loss) * (1.0 - extra),
            FaultReduction::Unsupported(what) => {
                return Err(ModelError::Unsupported {
                    backend: "analytic",
                    what,
                })
            }
        };
        let dist = scenario.fanout.build()?;
        // Expected message cost per nonfailed member: every reached
        // member relays once — to its whole view under flooding, to
        // E[F] targets under push. Flooding a full view is all-to-all:
        // delivery fails only if every copy to a member is lost, which
        // for n → ∞ has probability 0 at loss < 1.
        let (reliability, messages_per_member) = if scenario.protocol == ProtocolSpec::Flood {
            (1.0, scenario.n as f64 - 1.0)
        } else {
            // Push (support::check refuses push-pull, whose pulls the
            // law does not price); loss = 0 is the crash-only model.
            let reliability = PaperLaw::new(&*dist, q, loss)?.reliability()?;
            (reliability, reliability * dist.mean())
        };
        // Streams: when the offered load k·E[F] fits under the per-node
        // bandwidth cap the k messages never contend, so the stream is
        // k independent copies of the single-message process and every
        // message sees the same closed-form reliability by symmetry
        // (support::check declines contended streams).
        let traffic = scenario.traffic.as_ref().map(|spec| TrafficReport {
            messages: spec.messages,
            reliability_mean: reliability,
            reliability_min: reliability,
            messages_per_sec: None,
            latency_rounds_p50: None,
            latency_rounds_p90: None,
            latency_rounds_p99: None,
            copies_sent: None,
            copies_dropped: None,
            copies_lost: None,
            batched: spec.batched(),
        });
        Ok(Report {
            backend: self.name().to_string(),
            scenario: scenario.label(),
            replications: 1,
            reliability,
            reliability_std_error: 0.0,
            reliability_ci95: (reliability, reliability),
            reliability_raw: None,
            // Flooding a full view has no threshold.
            critical_q: match scenario.protocol {
                ProtocolSpec::Flood => None,
                _ => law::critical_q(&*dist),
            },
            takeoff_rate: None,
            rounds: None,
            messages_per_member: Some(messages_per_member),
            quiescence_secs: None,
            transport: None,
            topology: None,
            faults: scenario.faults_label(),
            messages_lost: None,
            success_within_t: success::success_probability(reliability, scenario.executions),
            reach_by_round: None,
            complete_rate: None,
            traffic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::PoissonFanout;
    use crate::scenario::FanoutSpec;

    #[test]
    fn the_knife_edge_reads_zero_on_both_paths() {
        // Po(4.5609) at a q where q > 1/G1'(1) rounds true but
        // q·G1'(1) > 1 rounds false: the backend and the law run the
        // same one test, so both read exactly 0.
        let (z, q) = (4.5609, 0.219_254_971_606_481_2);
        let d = PoissonFanout::new(z);
        assert!(q > law::critical_q(&d).unwrap());
        assert_eq!(PaperLaw::new(&d, q, 0.0).unwrap().reliability(), Ok(0.0));
        let scenario = Scenario::new(1000, FanoutSpec::poisson(z)).with_failure_ratio(q);
        let report = AnalyticBackend.evaluate(&scenario).unwrap();
        assert_eq!(report.reliability, 0.0);
    }
}
