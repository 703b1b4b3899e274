//! Names the benchmark harness still imports after the library dropped
//! them. Nothing in the library reads them; each goes once the harness
//! stops naming it.

use crate::scenario::Scenario;

/// The retired engine switch: every backend runs one route per kind of
/// workload, so there is nothing left to select.
///
/// Debt (ROADMAP item 0(c)): `benchmark/src/workloads.rs` (2 sites) and
/// `probes.rs` (1 site) pin `EngineSpec::Flat`; this shim goes with them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineSpec {
    /// Selects nothing.
    #[default]
    Auto,
    /// Selects nothing either.
    Flat,
}

impl Scenario {
    /// Returns the scenario unchanged: a `Scenario` carries no engine.
    ///
    /// Debt (ROADMAP item 0(c)): the same three pins as [`EngineSpec`].
    #[doc(hidden)]
    pub fn with_engine(self, _engine: EngineSpec) -> Self {
        self
    }
}
