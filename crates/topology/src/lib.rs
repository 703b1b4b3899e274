//! Overlay topologies and peer-selection policies for structured gossip.
//!
//! The source paper analyses gossip over the *complete* overlay: every
//! member can reach every other, and targets are drawn uniformly from
//! the whole group. Real deployments gossip over structured overlays —
//! rings with shortcuts, lattices, small-world rewirings, scale-free
//! graphs, clustered data-centre layouts — and the critical coverage
//! probability `q_c` shifts accordingly. This crate supplies the
//! machinery to measure that shift:
//!
//! - [`Topology`]: compact canonical CSR adjacency (sorted neighbour
//!   lists, no self-loops or parallel edges), symmetric or directed.
//! - [`OverlaySpec`]: seven seed-deterministic generators, validated
//!   before construction — six structured families plus the SCAMP
//!   membership service's directed partial views.
//! - [`PeerSelection`]: how a node picks gossip targets from its
//!   neighbourhood, via [`select_targets`].
//! - [`TopologySpec`]: the serde-friendly pair of overlay + selection
//!   that the `Scenario` API embeds; its default (`Complete` +
//!   `UniformGlobal`) is exactly the paper's model.
//!
//! Every generator is a pure function of `(spec, n, seed)`, so the
//! analytic, percolation, Monte-Carlo, and live-runtime evaluation
//! layers can each rebuild the same overlay distribution independently.

mod csr;
mod generate;
mod scamp;
mod select;
mod spec;

pub use csr::Topology;
pub use generate::build_overlay;
pub use select::select_targets;
pub use spec::{OverlaySpec, PeerSelection, TopologyError, TopologySpec};
