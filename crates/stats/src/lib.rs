//! Statistics substrate for the gossip fault-tolerance reproduction.
//!
//! The ICPP 2008 paper ("On Modeling Fault Tolerance of Gossip-Based
//! Reliable Multicast Protocols", Fan et al.) leans on MATLAB for all of its
//! numerical plumbing: Poisson sampling for random fanouts, the Binomial
//! distribution `B(t, p_r)` behind the success-of-gossiping calculus
//! (Eqs. 5–6 and Figs. 3, 6, 7), and the statistics used to compare
//! simulated histograms against analytic curves. This crate rebuilds that
//! plumbing from scratch so the rest of the workspace has no numerical
//! dependencies beyond `rand`'s uniform source.
//!
//! Contents:
//!
//! * [`rng`] — deterministic, splittable PRNGs ([`SplitMix64`],
//!   [`Xoshiro256StarStar`]) wired into the `rand` traits, so every
//!   simulation in the workspace is reproducible from a single `u64` seed.
//! * [`special`] — `ln Γ`, regularized incomplete gamma `P/Q`, log-binomial
//!   coefficients; the bedrock of the distribution CDFs and the chi-square
//!   test.
//! * [`binomial`] / [`poisson`] — full pmf/cdf/quantile/sampling
//!   implementations of the two distributions the paper uses.
//! * [`alias`] — Walker/Vose alias tables for O(1) sampling of arbitrary
//!   finite fanout distributions.
//! * [`descriptive`] — Welford online moments, confidence intervals, and
//!   mergeable accumulators for parallel reduction.
//! * [`histogram`] — integer histograms used for the Fig. 6/7 success-count
//!   distributions.
//! * [`gof`] — chi-square goodness-of-fit and total-variation distance,
//!   used by the integration tests to check `X ~ B(20, R)`.
//! * [`parallel`] — seed-stable parallel map on a process-wide pool of
//!   parked worker threads.
//! * [`error`] — [`ParamError`], the malformed-parameter error the
//!   topology, faults and traffic specs share.

pub mod alias;
pub mod binomial;
pub mod descriptive;
pub mod error;
pub mod gof;
pub mod histogram;
pub mod parallel;
pub mod poisson;
pub mod rng;
pub mod special;

pub use alias::AliasTable;
pub use binomial::Binomial;
pub use descriptive::{ConfidenceInterval, OnlineStats};
pub use error::ParamError;
pub use gof::{
    chi_square_pvalue, chi_square_statistic, total_variation_distance, ChiSquareOutcome,
};
pub use histogram::IntHistogram;
pub use parallel::parallel_map;
pub use poisson::Poisson;
pub use rng::{SplitMix64, Xoshiro256StarStar};

/// Machine tolerance used as the default convergence/truncation bound by
/// the numerical routines in this crate.
pub const DEFAULT_EPS: f64 = 1e-12;
