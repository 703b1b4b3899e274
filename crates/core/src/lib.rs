//! # gossip-model
//!
//! Analytical fault-tolerance model for gossip-based reliable multicast,
//! reproducing **"On Modeling Fault Tolerance of Gossip-Based Reliable
//! Multicast Protocols"** (Fan, Cao, Wu, Raynal — ICPP 2008).
//!
//! The paper models one execution of a *general gossiping algorithm* —
//! each member, on first receipt of a message, draws a random fanout from
//! a distribution `P` and relays to that many uniformly chosen members —
//! as a **generalized random graph** (Newman–Strogatz–Watts generating
//! functions), with fail-stop crashes treated as **site percolation**
//! (Callaway et al.): a member is *nonfailed* ("occupied") with
//! probability `q`, independently.
//!
//! The model answers four questions:
//!
//! 1. **Reliability** `R(q, P)` — what fraction of nonfailed members
//!    receives the message in one execution? Answer: the relative size of
//!    the giant component of the percolated random graph
//!    ([`PaperLaw::reliability`], paper Eq. 4/11).
//! 2. **Critical point** — how many members may fail before gossip stops
//!    working at all? Answer: `q_c = 1 / G1'(1)` (paper Eq. 3;
//!    [`law::critical_q`]); for Poisson fanout `q_c = 1/z` (Eq. 10).
//! 3. **Success of gossiping** — how many independent executions `t`
//!    make *every* nonfailed member receive the message with probability
//!    `p_s`? Answer: `t ≥ lg(1 − p_s) / lg(1 − p_r)` (Eq. 6;
//!    [`success::required_executions`]).
//! 4. **Design** — which mean fanout achieves a target reliability under
//!    a given failure ratio? Answer: `z = −ln(1 − S)/(qS)` for Poisson
//!    (Eq. 12; [`poisson_case::mean_fanout_for`]) and a bisection-based
//!    generalization for any scalable family ([`design`]).
//!
//! ## Quick example — the scenario API
//!
//! The recommended entry point is the unified [`scenario`] module: a
//! declarative [`Scenario`] evaluated by any [`Backend`] into a typed
//! [`Report`]. This crate hosts the exact generating-function layer
//! ([`AnalyticBackend`]); the graph, protocol, and netsim layers
//! implement the same trait in their own crates and the workspace-root
//! `gossip` crate re-exports all four side by side.
//!
//! ```
//! use gossip_model::{AnalyticBackend, Backend, FanoutSpec, Scenario, SweepGrid};
//!
//! // 1000 members, Poisson fanout with mean 4, 10% of members crash.
//! let scenario = Scenario::new(1000, FanoutSpec::poisson(4.0)).with_failure_ratio(0.9);
//! let report = AnalyticBackend.evaluate(&scenario).unwrap();
//! assert!((report.reliability - 0.9695).abs() < 1e-3); // Eq. 11
//! assert!((report.critical_q.unwrap() - 0.25).abs() < 1e-12); // Eq. 10
//!
//! // Grids fan over all cores with deterministic per-cell seeds.
//! let cells = SweepGrid::new(scenario)
//!     .over_failure_ratios(&[0.5, 0.7, 0.9])
//!     .run(&AnalyticBackend);
//! assert_eq!(cells.len(), 3);
//! ```
//!
//! Scenarios are serde-friendly: a `Scenario` (and a `Report`)
//! round-trips through `serde::json`, so experiment descriptions can
//! live in files and results can be archived as data.
//!
//! ## The law itself
//!
//! The generating-function law behind [`AnalyticBackend`] is
//! [`PaperLaw`], available for direct analytical work:
//!
//! ```
//! use gossip_model::{success, PaperLaw, PoissonFanout};
//!
//! // Poisson fanout with mean 4, 10% of members crash, no message loss.
//! let fanout = PoissonFanout::new(4.0);
//! let law = PaperLaw::new(&fanout, 0.9, 0.0).unwrap();
//!
//! // One execution reaches ~97% of the nonfailed members...
//! let r = law.reliability().unwrap();
//! assert!((r - 0.9695).abs() < 1e-3);
//!
//! // ...and 2 executions make "everyone got it" 99.9%-probable.
//! let t = success::required_executions(r, 0.999).unwrap();
//! assert_eq!(t, 2);
//! ```
//!
//! ## Crate layout
//!
//! * [`scenario`] — the unified `Scenario` → `Backend` → `Report` API:
//!   declarative experiment descriptions ([`FanoutSpec`],
//!   [`FailureSpec`], [`ProtocolSpec`],
//!   [`LatencySpec`]), the object-safe [`Backend`] trait, and the
//!   parallel [`SweepGrid`] runner.
//! * [`analytic`] — [`AnalyticBackend`], the exact backend: the law
//!   answering a `Scenario` with a `Report`.
//! * [`reduce`] — the one reduction from per-replication outcomes to a
//!   [`Report`]: the take-off split, the conditioned / census /
//!   per-message stream estimators every Monte-Carlo backend shares.
//! * [`distribution`] — the [`FanoutDistribution`] trait (pmf, generating
//!   functions `G0`/`G1`, sampling) and eight implementations: Poisson,
//!   fixed, binomial, geometric, discrete-uniform, truncated power-law,
//!   empirical, and mixtures.
//! * [`law`] — the paper's law [`PaperLaw`]: crashes as site
//!   percolation, message loss as bond percolation (an extension; for
//!   Poisson `R = 1 − e^{−z(1−ℓ)qR}`), one threshold test, the `u`
//!   fixed point, reliability, critical loss, mean component size
//!   (Eq. 2) and the critical point [`law::critical_q`] (Eq. 3).
//! * [`success`] — the Bernoulli-trials calculus of Eqs. 5–6.
//! * [`support`] — which backend runs which scenario feature.
//! * [`design`] — inverse problems (required fanout, maximum tolerable
//!   failure ratio).
//! * [`poisson_case`] — §4.3 closed forms, including a Lambert-W solution
//!   of `S = 1 − e^{−zqS}`.
//! * [`baselines`] — the three related-work models of §2 (pbcast
//!   recurrence, SI epidemic, Kermarrec–Massoulié–Ganesh criterion),
//!   implemented so the paper's comparison is executable.
//! * [`solver`], [`series`], [`lambertw`] — numerical plumbing.

pub mod analytic;
pub mod baselines;
#[doc(hidden)]
pub mod compat;
pub mod design;
pub mod distribution;
pub mod error;
pub mod lambertw;
pub mod law;
pub mod poisson_case;
pub mod reduce;
pub mod scenario;
pub mod series;
pub mod solver;
pub mod success;
pub mod support;

pub use analytic::AnalyticBackend;
pub use distribution::{
    BinomialFanout, EmpiricalFanout, FanoutDistribution, FixedFanout, GeometricFanout,
    MixtureFanout, PoissonFanout, PowerLawFanout, UniformFanout,
};
pub use error::ModelError;
pub use gossip_faults::{
    AdversarySpec, AdversaryStrategy, BurstySpec, ChurnSpec, FaultSpec, ZoneFailureSpec,
};
pub use gossip_topology::{OverlaySpec, PeerSelection, TopologySpec};
pub use gossip_traffic::{ArrivalSpec, BatchingSpec, TrafficReport, TrafficSpec};
pub use law::PaperLaw;
pub use scenario::{
    Backend, FailureSpec, FanoutSpec, LatencySpec, ProtocolSpec, Report, Scenario, SweepCell,
    SweepGrid,
};

/// Default truncation/convergence tolerance used across the crate.
pub const DEFAULT_EPS: f64 = 1e-12;
