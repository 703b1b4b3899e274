//! A concurrent actor-per-node gossip **runtime**: the paper's push
//! protocol (Fan, Cao, Wu, Raynal — ICPP 2008, Fig. 1) running live on
//! real OS threads, exchanging typed messages over a pluggable
//! [`Transport`].
//!
//! The other four backends *model* the protocol — generating functions,
//! percolation, a Monte-Carlo engine, a discrete-event simulator. This
//! crate *executes* it: every member is an actor with its own
//! seed-derived draws and inbox, relays race each other through a real wire (in-process
//! mailboxes or loopback TCP sockets), and reliability is measured from
//! what actually arrived. Agreement between this layer and the models
//! is the repo's end-to-end fidelity check.
//!
//! ## Layout
//!
//! * [`wire`] — the typed [`WireMessage`] frame (serde, one JSON line
//!   over TCP) carrying the virtual-clock arrival stamp and the message
//!   ids it relays.
//! * [`transport`] — the [`Transport`]/[`Endpoint`] traits and the
//!   [`Fabric`] in-flight counter that detects quiescence.
//! * [`channel`] — [`ChannelTransport`]: mutex-guarded in-process
//!   mailboxes, the fast transport.
//! * [`tcp`] — [`TcpTransport`]: real `std::net` loopback sockets with
//!   maelstrom-style line-delimited JSON framing; connection refusal to
//!   crashed members doubles as fault injection.
//! * `exec` — the one node actor and one execution: a single broadcast
//!   is the k = 1 stream, and every metric is read off the recorded
//!   relay graph. Its module docs state, once for the crate, what
//!   replays byte for byte and what is aggregate-stable only.
//! * `harness` — threads, shards and the watchdog around it.
//! * [`backend`] — [`RuntimeBackend`], the [`Backend`] impl that runs
//!   seed-derived replications and hands them to
//!   [`gossip_model::reduce`] — the same take-off conditioning as every
//!   other Monte-Carlo backend.
//!
//! Faults come from the scenario, not from chance: per-message loss
//! (`Scenario::loss`) and latency draws are injected sender-side from
//! seed-derived RNG streams; crash-at-start and crash-schedule faults
//! (`FailureSpec`) decide who binds an endpoint and who dies at which
//! virtual time.
//!
//! ```
//! use gossip_model::scenario::{Backend, FanoutSpec, Scenario};
//! use gossip_runtime::RuntimeBackend;
//!
//! let scenario = Scenario::new(128, FanoutSpec::poisson(6.0))
//!     .with_failure_ratio(0.9)
//!     .with_replications(5);
//! let report = RuntimeBackend::channel().evaluate(&scenario).unwrap();
//! assert!(report.reliability > 0.8);
//! assert_eq!(report.transport.as_deref(), Some("channel"));
//! ```

#![deny(missing_docs)]

pub mod backend;
pub mod channel;
mod exec;
mod harness;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use backend::{shard_count, RuntimeBackend, TransportKind};
pub use channel::ChannelTransport;
pub use tcp::TcpTransport;
pub use transport::{Endpoint, Fabric, Transport};
pub use wire::WireMessage;

#[cfg(doc)]
use gossip_model::scenario::Backend;

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::scenario::{Backend, FailureSpec, FanoutSpec, Scenario};

    /// The crash-schedule convention matches netsim: members crashed
    /// after dissemination finished leave the denominator, so survivor
    /// reliability stays high.
    #[test]
    fn runtime_runs_crash_schedules() {
        let crashes: Vec<(u64, u32)> = (0..100).map(|v| (1_000_000_000, v + 1)).collect();
        let scenario = Scenario::new(200, FanoutSpec::poisson(6.0))
            .with_failure(FailureSpec::Schedule { crashes })
            .with_replications(3);
        let report = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        assert!(report.reliability > 0.9, "r = {}", report.reliability);
    }

    /// Crash at virtual time 0 = never participates: the member is
    /// unreachable from the start and out of the denominator.
    #[test]
    fn crash_at_zero_is_dead_at_start() {
        let crashes: Vec<(u64, u32)> = (0..50).map(|v| (0, v + 1)).collect();
        let scenario = Scenario::new(100, FanoutSpec::poisson(6.0))
            .with_failure(FailureSpec::Schedule { crashes })
            .with_replications(3);
        let report = RuntimeBackend::channel().evaluate(&scenario).unwrap();
        assert!(report.reliability > 0.8, "r = {}", report.reliability);
        assert!(report.messages_lost.unwrap() > 0.0, "sends to the dead");
    }
}
