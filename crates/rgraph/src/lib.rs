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
//! * [`graph`] / [`digraph`] — compact CSR adjacency (flat `u32` arrays,
//!   per the HPC guides: no `Vec<Vec<_>>`, no per-node allocation).
//! * [`unionfind`] — path-halving + union-by-size disjoint sets for
//!   component censuses.
//! * [`configuration`] — the configuration model: uniform random graphs
//!   with a prescribed degree sequence, the graphs the paper's
//!   generating-function analysis describes exactly.
//! * [`gossip_graph`] — the *gossip digraph*: each nonfailed member draws
//!   a fanout from `P` and points at that many uniformly random members;
//!   this is the paper's Fig. 1 algorithm frozen into a graph.
//! * [`components`] — component census, giant/second components,
//!   susceptibility.
//! * [`reach`] — directed reachability from the source (= who receives
//!   the message), with failed nodes absorbing but not forwarding.
//! * [`percolation_sim`] — empirical site percolation on any undirected
//!   graph, the Monte-Carlo counterpart of `gossip_model::percolation`.
//! * [`phase`] — critical-point estimation by susceptibility peak, used
//!   to validate `q_c = 1/G1'(1)` (paper Eq. 3/10).
//! * [`flat`] — the million-node engine's percolation kernel. Where the
//!   classic paths keep `Vec<bool>` membership flags and rebuild CSR
//!   adjacency per replication, the flat layout packs every per-node
//!   set (occupied, failed, reached) into u64-word bitsets — 512
//!   members per cache line, `memset` clears, hardware popcount
//!   reductions — and streams configuration-model stub pairs straight
//!   into a [`UnionFind`] without ever materializing the graph. BFS
//!   frontiers on the relay side (`gossip-engine`) are `u32` arrays
//!   swapped level-by-level over the same bitset visited test. All
//!   scratch lives in arenas reset — never reallocated — between
//!   replications. [`backend::GraphBackend`] runs on these kernels at
//!   every group size unless a scenario pins `EngineSpec::Classic`.

pub mod backend;
pub mod components;
pub mod configuration;
pub mod digraph;
pub mod flat;
pub mod gossip_graph;
pub mod graph;
pub mod percolation_sim;
pub mod phase;
pub mod reach;
pub mod unionfind;

pub use backend::GraphBackend;
pub use components::ComponentCensus;
pub use configuration::ConfigurationModel;
pub use digraph::Digraph;
pub use flat::{FlatPercolation, PercolationScratch};
pub use gossip_graph::{GossipGraph, GossipGraphBuilder};
pub use graph::Graph;
pub use percolation_sim::{percolate, PercolationOutcome};
pub use unionfind::UnionFind;
