//! Names the benchmark harness still imports after the calendar's
//! per-execution driver moved onto [`Scenario`]; [`crate::engine`]
//! re-exports both at their old paths. Nothing in the library calls them.

use std::sync::Arc;

use gossip_model::distribution::FanoutDistribution;
use gossip_model::{FanoutSpec, ModelError, Scenario};

use crate::engine::{run_execution, ExecutionOutcome};

/// The paper's setting at `(n, q)`: full view, lossless 1 ms network.
///
/// Debt (ROADMAP item 0(c)): the `protocol.run_push` probe builds this;
/// it goes once the probe calls [`run_execution`] on a `Scenario`.
#[derive(Clone, Debug)]
pub struct ExecutionConfig(Scenario);

impl ExecutionConfig {
    /// Group size `n`, nonfailed ratio `q`; the fanout is the one
    /// [`run_push`] is handed.
    pub fn new(n: usize, q: f64) -> Self {
        Self(Scenario::new(n, FanoutSpec::fixed(1)).with_failure_ratio(q))
    }
}

/// One push execution with fanout distribution `dist`; an `(n, q)` that
/// [`Scenario::validate`] refuses is a typed error.
///
/// Debt (ROADMAP item 0(c)): the same probe as [`ExecutionConfig`].
pub fn run_push<D>(
    cfg: &ExecutionConfig,
    dist: &D,
    seed: u64,
) -> Result<ExecutionOutcome, ModelError>
where
    D: FanoutDistribution + Clone + 'static,
{
    cfg.0.validate()?;
    let fanout: Arc<dyn FanoutDistribution> = Arc::new(dist.clone());
    run_execution(&cfg.0, &fanout, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::distribution::PoissonFanout;

    #[test]
    fn run_push_is_one_push_execution_of_the_scenario() {
        let scenario = Scenario::new(500, FanoutSpec::poisson(4.0)).with_failure_ratio(0.9);
        let fanout = Arc::from(scenario.fanout.build().unwrap());
        let shim = run_push(&ExecutionConfig::new(500, 0.9), &PoissonFanout::new(4.0), 3);
        assert_eq!(shim.unwrap(), run_execution(&scenario, &fanout, 3).unwrap());
        let bad_q = run_push(&ExecutionConfig::new(10, 0.0), &PoissonFanout::new(4.0), 3);
        assert!(matches!(
            bad_q,
            Err(ModelError::InvalidParameter { name: "q", .. })
        ));
    }
}
