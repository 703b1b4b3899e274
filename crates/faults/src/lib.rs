//! # gossip-faults — fault models beyond the paper's i.i.d. world
//!
//! The source paper prices exactly two hazards: members crash
//! independently before the broadcast starts (site percolation with
//! survival probability `q`), and messages are lost independently with
//! a uniform probability (bond percolation). Both assumptions are load
//! bearing — the generating-function calculus of Eqs. 3–12 needs
//! independence — and both are violated by the failure modes real
//! deployments actually see. This crate describes those violations as
//! data, so every evaluation layer of the workspace can inject them and
//! measure where the paper's predictions stop tracking reality.
//!
//! Four fault families ride on a [`FaultSpec`] (default: all absent,
//! which every backend treats as a byte-identical passthrough of the
//! classic `FailureSpec`/loss knobs):
//!
//! * **Membership churn** ([`ChurnSpec`]) — Poisson joins and leaves
//!   during dissemination. Joins bootstrap into the membership view
//!   mid-run; leaves are fail-stop crashes at sampled virtual times.
//!   Sampled into a concrete [`ChurnPlan`] per execution.
//! * **Correlated zone failures** ([`ZoneFailureSpec`]) — kill whole
//!   zones of a `Clustered` overlay at one scheduled virtual time, the
//!   partition/datacenter-loss pattern of Malkhi et al.'s WAN multicast
//!   work. Crashes are maximally correlated, the exact opposite of the
//!   paper's i.i.d. site percolation.
//! * **Bursty loss** ([`BurstySpec`]) — a two-state Gilbert-Elliott
//!   Markov channel ([`GilbertElliott`], [`GeChain`]) replacing i.i.d.
//!   loss: per-sender chain state makes consecutive relays share fate.
//! * **Adversarial blocking** ([`AdversarySpec`]) — an oblivious
//!   adversary blocks up to `f` directed links for the whole run
//!   (Doerr et al.'s model), with a worst-case selector that cuts
//!   uplinks starting at the source and a seeded random baseline
//!   ([`BlockedLinks`]).
//!
//! The spec validates against the group size and topology
//! ([`FaultSpec::validate`], typed
//! [`ParamError`](gossip_stats::ParamError), the topology crate's error
//! too) and knows which degenerate corners
//! still reduce to the paper's closed forms ([`FaultSpec::reduce`]),
//! so the analytic backend can keep covering them.

pub mod adversary;
pub mod churn;
pub mod gilbert;
pub mod spec;

pub use adversary::BlockedLinks;
pub use churn::ChurnPlan;
pub use gilbert::{GeChain, GilbertElliott};
pub use spec::{
    zone_members, AdversarySpec, AdversaryStrategy, BurstySpec, ChurnSpec, FaultReduction,
    FaultSpec, ZoneFailureSpec,
};
