//! # gossip-protocol
//!
//! Executable gossip-based reliable multicast protocols, running on the
//! [`gossip_netsim`] discrete-event simulator.
//!
//! The centrepiece is [`PushGossip`] — the paper's general gossiping
//! algorithm (Fig. 1): *upon receiving message `m` for the first time,
//! draw a fanout `f` from distribution `P`, select `f` members uniformly
//! at random from the membership view, send `m` to them; discard
//! duplicates.* [`PushGossip::flood`] is the same rule over the whole
//! view (flooding, the forward-to-everyone baseline). Around it:
//!
//! * [`PushPullGossip`] — the anti-entropy baseline the gossip
//!   literature compares against: the push rule plus periodic pulls.
//! * [`engine`] — one *execution* of a `Scenario` on the simulator
//!   ([`engine::run_execution`]): apply its crash plan, inject the
//!   message at the source, run to quiescence, and measure reliability
//!   = `n_rece / n_nonfailed` (§4.2) plus latency/cost metrics the
//!   paper's model abstracts away.
//! * [`backend`] — every Monte-Carlo measurement of a `Scenario`:
//!   [`ProtocolBackend`] (push on the `gossip_engine` relay kernel) and
//!   [`NetSimBackend`] (these protocols on the simulator) run the
//!   replications, and `gossip_model::reduce` conditions them on
//!   take-off and reads the per-hop receipts into `rounds`, the
//!   per-round reach curve (E12) and strict success (E13); the member
//!   receipt probability behind Figs. 6/7 and Eq. 5 is the report's
//!   `reliability_raw`.
//!
//! ```
//! use gossip_model::{Backend, FanoutSpec, Scenario};
//! use gossip_protocol::ProtocolBackend;
//!
//! // One Fig. 4-style point: n = 1000, Po(4) fanout, q = 0.9, 20 runs.
//! // `reliability` is conditioned on take-off and estimates the
//! // giant-component size of the paper's Eq. 11.
//! let scenario = Scenario::new(1000, FanoutSpec::poisson(4.0))
//!     .with_failure_ratio(0.9)
//!     .with_replications(20)
//!     .with_seed(42);
//! let report = ProtocolBackend.evaluate(&scenario).unwrap();
//! let analytic = 0.9695; // root of S = 1 − e^{−3.6 S}
//! assert!((report.reliability - analytic).abs() < 0.02);
//! ```

pub mod backend;
#[doc(hidden)]
pub mod compat;
pub mod engine;
pub mod message;
pub mod push;
pub mod pushpull;
pub(crate) mod traffic_eval;

pub use backend::{NetSimBackend, ProtocolBackend};
pub use engine::ExecutionOutcome;
pub use message::{GossipMessage, MessageId};
pub use push::PushGossip;
pub use pushpull::PushPullGossip;
