//! # gossip-rgraph
//!
//! Random-graph substrate for the gossip fault-tolerance reproduction.
//!
//! The paper's central modelling move is "the process of generating a
//! random graph is similar to the process of gossiping a message" (§1):
//! one execution of the gossip algorithm *is* a random graph whose degree
//! distribution is the fanout distribution, and node crashes are site
//! percolation on it. This crate makes that correspondence executable:
//!
//! * [`unionfind`] — path-halving + union-by-size disjoint sets on one
//!   `i32` array (roots hold their negated size), with the largest set
//!   tracked as sets merge, for component censuses.
//! * [`sweep`] — Newman–Ziff sweeps: site percolation on one graph at
//!   every occupied count in one pass, giving the giant component at any
//!   `q` (the Monte-Carlo counterpart of `gossip_model::law`) and the
//!   susceptibility peak that locates `q_c = 1/G1'(1)` (Eqs. 3 and 10).
//!   Its graphs are [`sweep::configuration_model`]s: the graphs the
//!   paper's generating-function analysis describes exactly, stub-matched
//!   by `gossip_topology::match_stubs` into a `gossip_topology::Topology`.
//! * [`flat`] — the million-node percolation kernel. One pass tosses
//!   each member's crash coin and draws its degree, storing stubs only
//!   for occupied members (as dense ranks); a uniform perfect matching
//!   then pairs those stubs with each other or with the counted
//!   unoccupied ones, and the occupied–occupied pairs that survive loss
//!   are unioned in a [`UnionFind`] over the occupied ranks. The graph,
//!   an occupancy mask and unoccupied stubs never materialize, and both
//!   buffers are reused between replications.
//!
//! [`backend::GraphBackend`] runs on [`flat`] for the undirected census
//! and on the `gossip-engine` relay kernel — which draws the paper's
//! Fig. 1 gossip digraph lazily, one member at first receipt — for
//! directed reach on overlays and under static faults. The gossip
//! digraph is never built eagerly.

pub mod backend;
pub mod flat;
pub mod sweep;
pub mod unionfind;

pub use backend::GraphBackend;
pub use flat::{FlatPercolation, PercolationScratch};
pub use sweep::{configuration_model, Sweep};
pub use unionfind::UnionFind;
