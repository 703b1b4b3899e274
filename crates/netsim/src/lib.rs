//! # gossip-netsim
//!
//! A deterministic discrete-event network simulator, rebuilt from scratch
//! as the substrate the paper ran on MATLAB.
//!
//! The paper's §5 simulations execute the gossip algorithm over a group
//! of 1000–5000 members with fail-stop crashes; §3 additionally *assumes*
//! "a scalable membership protocol is available, such as \[12\] (SCAMP)".
//! This crate provides both: an event-driven simulator with configurable
//! latency/loss, crash injection matching the paper's failure model, and
//! membership services (full view, or the neighbour lists of a
//! `gossip-topology` overlay — SCAMP's partial views among them) that
//! protocols draw gossip targets from.
//!
//! Design constraints, per the HPC guides and the reproduction's needs:
//!
//! * **Determinism** — one `u64` seed fixes the entire run: event
//!   tie-breaks are by `(time, sequence)`, all randomness flows through
//!   one `Xoshiro256**`, and nothing depends on thread scheduling or map
//!   iteration order.
//! * **Few allocations on the event path** — the event queue, the
//!   outbox, timer and target buffers and per-node state are reused
//!   across events, and behaviours write into buffers owned by the
//!   simulator: a relay samples its targets and sends in one call,
//!   [`NodeCtx::gossip`]. The queue's in-order lane grows on demand.
//!   A copy whose fate is fixed when it is sent (its target crashed for
//!   good, or [settled](NodeBehavior::settled), as a push member is once
//!   it has the rumor) never enters the queue: the simulator counts it
//!   at send time while membership is frozen and no tracer is attached,
//!   with the full calendar's metrics at quiescence. Nothing is
//!   dispatched that does nothing: `on_start` runs only for a behaviour
//!   that declares [`NodeBehavior::HAS_START_HOOK`]. Some allocations
//!   remain: [`membership::OverlayView`] selects into a scratch `Vec`
//!   per call, and overlay peer selection may copy the neighbour pool.
//!   Reusing those buffers measured within noise.
//! * **Protocol-agnostic** — protocols implement [`NodeBehavior`] and
//!   never touch the queue directly; the simulator owns time.
//!
//! ```
//! use gossip_netsim::{
//!     membership::FullView, LatencyModel, NetworkConfig, NodeBehavior, NodeCtx, NodeId,
//!     Simulator,
//! };
//!
//! // A behaviour that echoes every message back to its sender once.
//! struct Echo {
//!     echoed: bool,
//! }
//! impl NodeBehavior<u32> for Echo {
//!     fn on_message(&mut self, ctx: &mut NodeCtx<'_, u32>, from: NodeId, msg: u32) {
//!         if !self.echoed {
//!             self.echoed = true;
//!             ctx.send(from, msg + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(
//!     (0..2).map(|_| Echo { echoed: false }).collect(),
//!     NetworkConfig::new(LatencyModel::constant_millis(1)),
//!     Box::new(FullView::new(2)),
//!     42,
//! );
//! sim.inject(0, 1, 7); // deliver 7 to node 1, pretending node 0 sent it
//! sim.run_to_quiescence();
//! // Injection, node 1's echo to node 0, and node 0's echo back.
//! assert_eq!(sim.metrics().messages_delivered, 3);
//! ```

pub mod event;
pub mod fault;
pub mod membership;
pub mod metrics;
pub mod network;
pub mod node;
pub mod queue;
pub mod sim;
pub mod time;
pub mod trace;

pub use event::{Event, EventKind, NodeId};
pub use fault::{FailurePlan, LinkFaults};
pub use metrics::SimMetrics;
pub use network::{LatencyModel, NetworkConfig};
pub use node::{NodeBehavior, NodeCtx};
pub use sim::Simulator;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceKind, Tracer};
