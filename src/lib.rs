//! # gossip — the workspace facade
//!
//! One crate that answers the paper's question — *what does
//! `Gossip(n, P, q)` deliver?* — through one declarative API and five
//! interchangeable evaluation layers:
//!
//! | backend | layer | crate |
//! |---|---|---|
//! | [`AnalyticBackend`] | generating functions (Eqs. 3–12) | `gossip_model` |
//! | [`GraphBackend`] | random-graph percolation | `gossip_rgraph` |
//! | [`ProtocolBackend`] | Monte-Carlo protocol runs (§5) | `gossip_protocol` |
//! | [`NetSimBackend`] | discrete-event network simulation | `gossip_protocol` |
//! | [`RuntimeBackend`] | live actor-per-node execution (threads + transports) | `gossip_runtime` |
//!
//! ```
//! use gossip::{all_backends, FanoutSpec, Scenario};
//!
//! // The paper's headline point: n = 1000, Po(4) fanout, 10% crashed.
//! let scenario = Scenario::new(1000, FanoutSpec::poisson(4.0))
//!     .with_failure_ratio(0.9)
//!     .with_replications(10);
//!
//! for backend in all_backends() {
//!     let report = backend.evaluate(&scenario).unwrap();
//!     // Every layer lands on the same reliability ≈ 0.9695 (Eq. 11).
//!     assert!((report.reliability - 0.9695).abs() < 0.03, "{}", report.backend);
//! }
//! ```
//!
//! Sweeps fan over all cores with deterministic per-cell seeds:
//!
//! ```
//! use gossip::{AnalyticBackend, FanoutSpec, Scenario, SweepGrid};
//!
//! let grid = SweepGrid::new(Scenario::new(1000, FanoutSpec::poisson(4.0)))
//!     .over_poisson_means(&[2.0, 4.0, 6.0])
//!     .over_failure_ratios(&[0.5, 0.7, 0.9]);
//! let cells = grid.run(&AnalyticBackend);
//! assert_eq!(cells.len(), 9);
//! ```

pub use gossip_model as model;
pub use gossip_netsim as netsim;
pub use gossip_protocol as protocol;
pub use gossip_rgraph as rgraph;
pub use gossip_runtime as runtime;
pub use gossip_stats as stats;
pub use gossip_topology as topology;

pub use gossip_model::analytic::AnalyticBackend;
#[doc(hidden)]
pub use gossip_model::compat::EngineSpec;
pub use gossip_model::scenario::{
    Backend, FailureSpec, FanoutSpec, LatencySpec, ProtocolSpec, Report, RuntimeSpec, Scenario,
    SweepCell, SweepGrid,
};
pub use gossip_model::{
    AdversarySpec, AdversaryStrategy, ArrivalSpec, BatchingSpec, BurstySpec, ChurnSpec,
    FanoutDistribution, FaultSpec, ModelError, TrafficReport, TrafficSpec, ZoneFailureSpec,
};
pub use gossip_protocol::{NetSimBackend, ProtocolBackend};
pub use gossip_rgraph::GraphBackend;
pub use gossip_runtime::RuntimeBackend;
pub use gossip_topology::{OverlaySpec, PeerSelection, TopologySpec};

/// All five evaluation layers, boxed, in fidelity order: analytic,
/// graph, protocol, netsim, runtime (live execution over the channel
/// transport; use [`RuntimeBackend::tcp`] for real sockets).
pub fn all_backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(AnalyticBackend),
        Box::new(GraphBackend),
        Box::new(ProtocolBackend),
        Box::new(NetSimBackend),
        Box::new(RuntimeBackend::channel()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_list_names() {
        let names: Vec<&str> = all_backends().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            ["analytic", "graph", "protocol", "netsim", "runtime"]
        );
    }
}
