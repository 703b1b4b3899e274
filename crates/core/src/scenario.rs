//! The unified `Scenario` → [`Backend`] → [`Report`] API.
//!
//! The paper answers one question — *what does `Gossip(n, P, q)`
//! deliver?* — and this workspace answers it five ways through one
//! declarative entry point:
//!
//! | backend | layer | honours |
//! |---|---|---|
//! | `AnalyticBackend` | generating functions (Eqs. 3–12) | fanout, `q`, loss, flood, executions |
//! | `GraphBackend` | random-graph percolation census | fanout, `q`, loss, replications |
//! | `ProtocolBackend` | Monte-Carlo protocol runs (§5) | fanout, `q`, topology, protocol, replications |
//! | `NetSimBackend` | discrete-event network simulation | everything above + latency, loss, crash schedules |
//! | `RuntimeBackend` | live threads exchanging real messages | fanout, `q`, loss, latency (virtual clock), crash schedules, [`RuntimeSpec`] |
//!
//! The first four layers *model* the protocol; the fifth (crate
//! `gossip-runtime`) *executes* it — one thread per node, typed gossip
//! messages over an in-process channel or a TCP-loopback transport — so
//! the analytic predictions are validated against a real message-passing
//! implementation, not only simulations.
//!
//! The moving parts:
//!
//! * [`Scenario`] — a serde-friendly, data-describable experiment
//!   description: group size, fanout ([`FanoutSpec`], all eight
//!   distributions plus mixtures), failures ([`FailureSpec`]), message
//!   loss, latency ([`LatencySpec`]), overlay ([`TopologySpec`], SCAMP's
//!   partial views among them), protocol variant ([`ProtocolSpec`]), runtime execution knobs
//!   ([`RuntimeSpec`]), replication count, and seed.
//! * [`Backend`] — an object-safe evaluator `&Scenario → Report`. The
//!   analytic backend lives in [`crate::analytic`]; the graph,
//!   protocol, netsim, and runtime backends live in their own crates
//!   (`gossip_rgraph::GraphBackend`, `gossip_protocol::ProtocolBackend`,
//!   `gossip_protocol::NetSimBackend`, `gossip_runtime::RuntimeBackend`)
//!   and are re-exported together at the workspace root (`gossip`).
//! * [`Report`] — a typed result every backend fills the same way, so
//!   a Fig. 4 operating point evaluated analytically and by simulation
//!   is directly comparable.
//! * [`SweepGrid`] — a cartesian sweep runner that fans scenarios over
//!   `gossip_stats::parallel` with deterministic per-cell seeds.
//!
//! # Failure semantics and the reliability denominator
//!
//! Two conventions every timed backend (netsim, runtime) shares, stated
//! once here so the layers cannot drift apart:
//!
//! * **[`FailureSpec::Schedule`] is fail-stop at a virtual instant.** A
//!   `(time_ns, member)` pair crashes that member at that virtual time:
//!   messages it already relayed stand, messages arriving afterwards are
//!   absorbed, and a `time_ns = 0` entry means the member was never up.
//!   Crashing is idempotent — duplicate entries are harmless.
//!   [`crate::support`] states which backends honour a schedule.
//! * **The reliability denominator is "members alive at the end".** A
//!   member crashed by the end of the run (by a `Random` draw, a
//!   schedule entry, a churn *leave*, or a correlated zone failure)
//!   drops out of both the numerator and the denominator — the paper's
//!   `R` is the fraction of *nonfailed* members reached. A member that
//!   *joined* mid-run (churn) counts in the denominator from its join
//!   time onward: a joiner that arrives after dissemination quiesced
//!   never hears the broadcast and drags reliability down, which is
//!   exactly the churn cost the static model cannot price.
//!
//! And one every Monte-Carlo backend shares, decided in one module
//! ([`crate::reduce`]):
//!
//! * **[`Report::reliability`] is conditioned on take-off.** The paper's
//!   §5 averages over the executions that take off; an execution takes
//!   off when it reached at least `nonfailed^{2/3}` of its nonfailed
//!   members, the critical-window size of the surviving group, so the
//!   split reads each execution and prices nothing. Below q_c every run
//!   fizzles and `reliability` is 0.
//!   [`Report::reliability_raw`] averages all executions,
//!   [`Report::takeoff_rate`] is the split; rounds and quiescence time
//!   average the take-offs, message cost every execution. Streams
//!   condition per message. The graph backend's source-less default
//!   census has no fizzle mode and is not conditioned.
//!
//! ```
//! use gossip_model::analytic::AnalyticBackend;
//! use gossip_model::scenario::{Backend, FanoutSpec, Scenario};
//!
//! // The paper's headline point: n = 1000, Po(4) fanout, q = 0.9.
//! let scenario = Scenario::new(1000, FanoutSpec::poisson(4.0)).with_failure_ratio(0.9);
//! let report = AnalyticBackend.evaluate(&scenario).unwrap();
//! assert!((report.reliability - 0.9695).abs() < 1e-3);
//! assert!((report.critical_q.unwrap() - 0.25).abs() < 1e-12);
//! ```

use serde::{Deserialize, Serialize};

use crate::distribution::{
    BinomialFanout, EmpiricalFanout, FanoutDistribution, FixedFanout, GeometricFanout,
    MixtureFanout, PoissonFanout, PowerLawFanout, UniformFanout,
};
use crate::error::ModelError;
use gossip_faults::FaultSpec;
use gossip_stats::parallel::parallel_map;
use gossip_stats::rng::SplitMix64;
use gossip_topology::TopologySpec;
use gossip_traffic::{TrafficReport, TrafficSpec};

/// Data description of a fanout distribution `P` — every family the
/// model supports, including recursive mixtures, as plain data that can
/// be built programmatically or deserialized from JSON.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FanoutSpec {
    /// Poisson with mean `z` (the paper's §4.3 closed-form case).
    Poisson {
        /// Mean fanout `z ≥ 0`.
        mean: f64,
    },
    /// Every member relays to exactly `fanout` targets.
    Fixed {
        /// The constant fanout.
        fanout: usize,
    },
    /// Binomial `B(m, p)`.
    Binomial {
        /// Number of trials.
        m: usize,
        /// Success probability.
        p: f64,
    },
    /// Geometric with stop probability `p` (mean `(1 − p)/p`).
    Geometric {
        /// Stop probability in `(0, 1]`.
        p: f64,
    },
    /// Discrete uniform on `[lo, hi]`.
    Uniform {
        /// Smallest fanout.
        lo: usize,
        /// Largest fanout (inclusive).
        hi: usize,
    },
    /// Truncated power law `k^{−α}` on `[kmin, kmax]`.
    PowerLaw {
        /// Exponent `α > 0`.
        alpha: f64,
        /// Smallest fanout (`≥ 1`).
        kmin: usize,
        /// Largest fanout (inclusive).
        kmax: usize,
    },
    /// Arbitrary pmf table: `weights[k] ∝ Pr(F = k)`.
    Empirical {
        /// Non-negative weights, normalized by the constructor.
        weights: Vec<f64>,
    },
    /// Weighted mixture of other fanout specs (heterogeneous fleets).
    Mixture {
        /// `(weight, component)` pairs; weights are normalized.
        components: Vec<(f64, FanoutSpec)>,
    },
}

impl FanoutSpec {
    /// Poisson fanout with the given mean.
    pub fn poisson(mean: f64) -> Self {
        FanoutSpec::Poisson { mean }
    }

    /// Fixed fanout.
    pub fn fixed(fanout: usize) -> Self {
        FanoutSpec::Fixed { fanout }
    }

    /// Geometric fanout with the given *mean* (stop probability
    /// `1/(mean + 1)`).
    pub fn geometric_with_mean(mean: f64) -> Self {
        FanoutSpec::Geometric {
            p: 1.0 / (mean + 1.0),
        }
    }

    /// Checks every parameter domain *without* constructing the
    /// distribution — cheap even for table-backed families (power-law,
    /// empirical), so validation can run per sweep cell for free.
    pub fn validate(&self) -> Result<(), ModelError> {
        fn invalid(
            name: &'static str,
            value: f64,
            requirement: &'static str,
        ) -> Result<(), ModelError> {
            Err(ModelError::InvalidParameter {
                name,
                value,
                requirement,
            })
        }
        match self {
            FanoutSpec::Poisson { mean } => {
                if !(mean.is_finite() && *mean >= 0.0) {
                    return invalid("mean", *mean, "Poisson mean must be finite and >= 0");
                }
            }
            FanoutSpec::Fixed { .. } => {}
            FanoutSpec::Binomial { p, .. } => {
                if !(p.is_finite() && (0.0..=1.0).contains(p)) {
                    return invalid("p", *p, "binomial probability must lie in [0, 1]");
                }
            }
            FanoutSpec::Geometric { p } => {
                if !(p.is_finite() && *p > 0.0 && *p <= 1.0) {
                    return invalid("p", *p, "geometric stop probability must lie in (0, 1]");
                }
            }
            FanoutSpec::Uniform { lo, hi } => {
                if lo > hi {
                    return invalid("lo", *lo as f64, "uniform support needs lo <= hi");
                }
            }
            FanoutSpec::PowerLaw { alpha, kmin, kmax } => {
                if !(alpha.is_finite() && *alpha > 0.0) {
                    return invalid("alpha", *alpha, "power-law exponent must be positive");
                }
                if *kmin < 1 || kmin > kmax {
                    return invalid(
                        "kmin",
                        *kmin as f64,
                        "power-law support needs 1 <= kmin <= kmax",
                    );
                }
            }
            FanoutSpec::Empirical { weights } => {
                let total: f64 = weights.iter().sum();
                if weights.is_empty() || !(total.is_finite() && total > 0.0) {
                    return invalid(
                        "weights",
                        total,
                        "empirical table needs positive total weight",
                    );
                }
                if weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
                    return invalid("weights", f64::NAN, "empirical weights must be >= 0");
                }
            }
            FanoutSpec::Mixture { components } => {
                if components.is_empty() {
                    return Err(ModelError::Degenerate {
                        why: "mixture needs at least one component",
                    });
                }
                let total: f64 = components.iter().map(|(w, _)| *w).sum();
                if !(total.is_finite() && total > 0.0)
                    || components.iter().any(|(w, _)| *w < 0.0 || !w.is_finite())
                {
                    return invalid(
                        "weights",
                        total,
                        "mixture needs non-negative weights with positive total",
                    );
                }
                for (_, component) in components {
                    component.validate()?;
                }
            }
        }
        Ok(())
    }

    /// Builds the executable distribution, validating parameters.
    pub fn build(&self) -> Result<Box<dyn FanoutDistribution>, ModelError> {
        self.validate()?;
        Ok(match self {
            FanoutSpec::Poisson { mean } => Box::new(PoissonFanout::new(*mean)),
            FanoutSpec::Fixed { fanout } => Box::new(FixedFanout::new(*fanout)),
            FanoutSpec::Binomial { m, p } => Box::new(BinomialFanout::new(*m, *p)),
            FanoutSpec::Geometric { p } => Box::new(GeometricFanout::new(*p)),
            FanoutSpec::Uniform { lo, hi } => Box::new(UniformFanout::new(*lo, *hi)),
            FanoutSpec::PowerLaw { alpha, kmin, kmax } => {
                Box::new(PowerLawFanout::new(*alpha, *kmin, *kmax))
            }
            FanoutSpec::Empirical { weights } => Box::new(EmpiricalFanout::new(weights)),
            FanoutSpec::Mixture { components } => {
                let mut built = Vec::with_capacity(components.len());
                for (w, c) in components {
                    built.push((*w, c.build()?));
                }
                Box::new(MixtureFanout::new(built))
            }
        })
    }

    /// Mean fanout of the described distribution.
    pub fn mean(&self) -> Result<f64, ModelError> {
        Ok(self.build()?.mean())
    }

    /// Human-readable label, formatted from the spec data (same shapes
    /// as the built distributions' labels, but without constructing
    /// samplers).
    pub fn label(&self) -> String {
        match self {
            FanoutSpec::Poisson { mean } => format!("Po({mean})"),
            FanoutSpec::Fixed { fanout } => format!("Fixed({fanout})"),
            FanoutSpec::Binomial { m, p } => format!("Bin({m}, {p})"),
            FanoutSpec::Geometric { p } => format!("Geom(p={p})"),
            FanoutSpec::Uniform { lo, hi } => format!("U[{lo}, {hi}]"),
            FanoutSpec::PowerLaw { alpha, kmin, kmax } => {
                format!("PL(α={alpha}, [{kmin}, {kmax}])")
            }
            FanoutSpec::Empirical { weights } => format!("Empirical({} outcomes)", weights.len()),
            FanoutSpec::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| *w).sum();
                let parts: Vec<String> = components
                    .iter()
                    .map(|(w, c)| {
                        let norm = if total > 0.0 { w / total } else { *w };
                        format!("{:.2}·{}", norm, c.label())
                    })
                    .collect();
                format!("Mix[{}]", parts.join(" + "))
            }
        }
    }
}

/// Data description of the failure model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FailureSpec {
    /// Nobody fails (`q = 1`).
    None,
    /// The paper's model: each non-source member independently stays up
    /// with probability `q` (fail-stop crash with probability `1 − q`
    /// before the execution).
    Random {
        /// Nonfailed member ratio `q ∈ (0, 1]`.
        q: f64,
    },
    /// Explicit crash schedule: `(time_ns, member)` pairs, honoured by
    /// the timed backends only ([`crate::support`]).
    Schedule {
        /// `(simulated time in ns, member id)` crash events.
        crashes: Vec<(u64, u32)>,
    },
}

impl FailureSpec {
    /// The effective nonfailed ratio `q`: 1 for `None`, `q` for
    /// `Random`; `None` for schedules (not expressible as a ratio).
    pub fn ratio(&self) -> Option<f64> {
        match self {
            FailureSpec::None => Some(1.0),
            FailureSpec::Random { q } => Some(*q),
            FailureSpec::Schedule { .. } => None,
        }
    }
}

/// Data description of the protocol variant under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolSpec {
    /// The paper's Fig. 1 algorithm: push to `F ~ P` targets on first
    /// receipt.
    Push,
    /// Push plus periodic anti-entropy pulls (Demers-style): a member
    /// pushes to `F ~ P` targets on first receipt, and every member not
    /// yet infected pulls one random member every 5 ms, at most 10
    /// times. Only the netsim backend runs it.
    PushPull,
    /// Forward to the whole view on first receipt (upper-bound
    /// baseline).
    Flood,
}

/// Data description of per-message network latency (netsim backend).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LatencySpec {
    /// Every message takes exactly `ms` milliseconds.
    ConstantMillis {
        /// Latency in milliseconds.
        ms: u64,
    },
    /// Uniform in `[lo_ms, hi_ms]`.
    UniformMillis {
        /// Minimum latency in milliseconds.
        lo_ms: u64,
        /// Maximum latency in milliseconds.
        hi_ms: u64,
    },
    /// Exponential with the given mean (memoryless WAN approximation).
    ExponentialMillis {
        /// Mean latency in milliseconds.
        mean_ms: u64,
    },
}

impl Default for LatencySpec {
    fn default() -> Self {
        LatencySpec::ConstantMillis { ms: 1 }
    }
}

/// Execution knobs for the live runtime backend (`gossip-runtime`) —
/// the one layer that spawns real threads and moves real messages, so
/// it needs resource bounds the model layers do not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RuntimeSpec {
    /// Upper bound on OS threads one runtime execution may spawn. Node
    /// actors are multiplexed over this many shard threads when `n`
    /// exceeds it; `0` (default) picks an automatic bound from the
    /// machine's parallelism (and a nested run inside a `SweepGrid`
    /// sweep always collapses to one shard, so sweeps cannot
    /// oversubscribe).
    pub max_threads: usize,
    /// Quiescence watchdog for one live execution, in wall-clock
    /// seconds: a replication still in flight after this long is
    /// aborted and reported as `NoConvergence`. `0` (default) picks the
    /// historical 30 s bound; long streams at high k legitimately need
    /// more. Capped at 3600 by validation.
    pub watchdog_secs: u64,
}

impl RuntimeSpec {
    /// Seconds of the execution watchdog: the configured value, or the
    /// historical 30 s default when the knob is 0.
    pub fn watchdog_or_default(&self) -> u64 {
        if self.watchdog_secs == 0 {
            30
        } else {
            self.watchdog_secs
        }
    }
}

/// A declarative description of one evaluation: *what* to gossip-model,
/// independent of *which layer* evaluates it.
///
/// Construct with [`Scenario::new`] and the `with_*` builders; evaluate
/// with any [`Backend`]; fan over grids with [`SweepGrid`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// Group size `n ≥ 2`.
    pub n: usize,
    /// Fanout distribution `P`.
    pub fanout: FanoutSpec,
    /// Failure model (default: none).
    pub failure: FailureSpec,
    /// Independent per-message loss probability in `[0, 1)` (default 0).
    pub loss: f64,
    /// Per-message latency model (timed backends only).
    pub latency: LatencySpec,
    /// Overlay topology and peer-selection policy: whose views members
    /// gossip into (default: complete overlay with uniform global
    /// selection — the paper's full-view model; every backend treats the
    /// default as "no structured topology"). SCAMP's partial views are
    /// the overlay `OverlaySpec::Scamp`.
    pub topology: TopologySpec,
    /// Fault families beyond the paper's model (default: none — a
    /// strict passthrough; see [`FaultSpec`]): membership churn,
    /// correlated zone failures, Gilbert-Elliott bursty loss, and
    /// adversarial link blocking.
    pub faults: FaultSpec,
    /// Sustained multi-message traffic (default: `None` — the classic
    /// single-message execution, a strict byte-identical passthrough).
    /// When set, the source streams k concurrent messages under the
    /// spec's injection plan, bandwidth cap, bounded send queue, and
    /// batching policy; backends fill [`Report::traffic`].
    pub traffic: Option<TrafficSpec>,
    /// Protocol variant (default: the paper's push).
    pub protocol: ProtocolSpec,
    /// Live-runtime execution knobs (thread cap, quiescence watchdog).
    pub runtime: RuntimeSpec,
    /// Monte-Carlo replications for simulation backends (paper: 20).
    pub replications: usize,
    /// Execution count `t` for the success-of-gossiping calculus
    /// (Eqs. 5–6); reports fill `success_within_t` for this `t`.
    pub executions: u32,
    /// Base seed; all backend randomness derives from it.
    pub seed: u64,
}

impl Scenario {
    /// A scenario with the paper's defaults: no failures, no loss, 1 ms
    /// constant latency, full membership, push gossip, 20 replications,
    /// `t = 1`.
    pub fn new(n: usize, fanout: FanoutSpec) -> Self {
        Scenario {
            n,
            fanout,
            failure: FailureSpec::None,
            loss: 0.0,
            latency: LatencySpec::default(),
            topology: TopologySpec::default(),
            faults: FaultSpec::default(),
            traffic: None,
            protocol: ProtocolSpec::Push,
            runtime: RuntimeSpec::default(),
            replications: 20,
            executions: 1,
            seed: 0x1CC_2008, // "ICPP 2008"
        }
    }

    /// Sets the paper's random fail-stop model with nonfailed ratio `q`.
    pub fn with_failure_ratio(mut self, q: f64) -> Self {
        self.failure = FailureSpec::Random { q };
        self
    }

    /// Sets the failure model.
    pub fn with_failure(mut self, failure: FailureSpec) -> Self {
        self.failure = failure;
        self
    }

    /// Sets the per-message loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: LatencySpec) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the overlay topology and peer-selection policy.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the fault families riding on this scenario.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the sustained multi-message traffic workload.
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Sets the protocol variant.
    pub fn with_protocol(mut self, protocol: ProtocolSpec) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the live-runtime execution knobs.
    pub fn with_runtime(mut self, runtime: RuntimeSpec) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the Monte-Carlo replication count.
    pub fn with_replications(mut self, replications: usize) -> Self {
        self.replications = replications;
        self
    }

    /// Sets the execution count `t` for the success calculus.
    pub fn with_executions(mut self, executions: u32) -> Self {
        self.executions = executions;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The effective nonfailed ratio, if the failure model has one.
    pub fn q(&self) -> Option<f64> {
        self.failure.ratio()
    }

    /// The topology label backends put in [`Report::topology`]: `None`
    /// for the paper's default (complete overlay, uniform selection),
    /// `Some(label)` for structured overlays.
    pub fn topology_label(&self) -> Option<String> {
        if self.topology.is_default() {
            None
        } else {
            Some(self.topology.label())
        }
    }

    /// The fault label backends put in [`Report::faults`]: `None` for
    /// the default (fault-free) spec, `Some(label)` otherwise.
    pub fn faults_label(&self) -> Option<String> {
        if self.faults.is_default() {
            None
        } else {
            Some(self.faults.label())
        }
    }

    /// The traffic label backends put in reports: `None` for the
    /// default single-message workload, `Some(label)` for streams.
    fn traffic_label(&self) -> Option<String> {
        self.traffic.as_ref().map(TrafficSpec::label)
    }

    /// Checks every parameter domain; backends call this first.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.n < 2 {
            return Err(ModelError::InvalidParameter {
                name: "n",
                value: self.n as f64,
                requirement: "group must have at least 2 members",
            });
        }
        // Node ids are u32 throughout the simulation layers (CSR
        // adjacency, stub lists, bitset frontiers); a group that cannot
        // index as u32 must be refused here, not narrowed silently.
        if self.n > u32::MAX as usize {
            return Err(ModelError::InvalidParameter {
                name: "n",
                value: self.n as f64,
                requirement: "group size must fit a u32 node id (n <= 2^32 - 1)",
            });
        }
        self.fanout.validate()?;
        match &self.failure {
            FailureSpec::None => {}
            FailureSpec::Random { q } => {
                if !(q.is_finite() && *q > 0.0 && *q <= 1.0) {
                    return Err(ModelError::InvalidParameter {
                        name: "q",
                        value: *q,
                        requirement: "nonfailed member ratio must lie in (0, 1]",
                    });
                }
            }
            FailureSpec::Schedule { crashes } => {
                if let Some(&(_, node)) = crashes.iter().find(|&&(_, node)| node as usize >= self.n)
                {
                    return Err(ModelError::InvalidParameter {
                        name: "crashes",
                        value: node as f64,
                        requirement: "crash schedule member ids must lie in [0, n)",
                    });
                }
            }
        }
        if let LatencySpec::UniformMillis { lo_ms, hi_ms } = self.latency {
            if lo_ms > hi_ms {
                return Err(ModelError::InvalidParameter {
                    name: "lo_ms",
                    value: lo_ms as f64,
                    requirement: "uniform latency needs lo_ms <= hi_ms",
                });
            }
        }
        if !(self.loss.is_finite() && (0.0..1.0).contains(&self.loss)) {
            return Err(ModelError::InvalidParameter {
                name: "loss",
                value: self.loss,
                requirement: "message loss probability must lie in [0, 1)",
            });
        }
        // Topology, fault and traffic parameters are validated by their
        // own crates, whose errors map losslessly onto InvalidParameter.
        self.topology.validate(self.n)?;
        self.faults.validate(self.n, &self.topology)?;
        // Bursty loss *replaces* the i.i.d. loss channel; letting both
        // run would double-count drops, so the combination is rejected
        // here (the faults crate never sees the scenario's loss knob).
        if self.faults.bursty_loss.is_some() && self.loss > 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "loss",
                value: self.loss,
                requirement: "bursty (Gilbert-Elliott) loss replaces i.i.d. loss; set loss = 0",
            });
        }
        if let Some(traffic) = &self.traffic {
            traffic.validate()?;
            // No backend runs a stream over an overlay, under a crash
            // schedule, or by push-pull.
            if !self.topology.is_default()
                || self.q().is_none()
                || self.protocol == ProtocolSpec::PushPull
            {
                return Err(ModelError::InvalidParameter {
                    name: "traffic",
                    value: traffic.messages as f64,
                    requirement:
                        "streams need push or flood over the complete view and static crashes (no push-pull, no overlay, no crash schedule)",
                });
            }
        }
        if self.replications == 0 {
            return Err(ModelError::InvalidParameter {
                name: "replications",
                value: 0.0,
                requirement: "need at least one replication",
            });
        }
        // Runtime knobs: the live backend spawns threads and sleeps for
        // real, so absurd values must fail fast here, before anything
        // is spawned.
        if self.runtime.max_threads > 4096 {
            return Err(ModelError::InvalidParameter {
                name: "max_threads",
                value: self.runtime.max_threads as f64,
                requirement: "runtime thread cap must be at most 4096 (0 = auto)",
            });
        }
        if self.runtime.watchdog_secs > 3600 {
            return Err(ModelError::InvalidParameter {
                name: "watchdog_secs",
                value: self.runtime.watchdog_secs as f64,
                requirement: "the quiescence watchdog is capped at 3600 s (0 = the 30 s default)",
            });
        }
        Ok(())
    }

    /// One-line description, e.g. `n=1000 Po(4) q=0.9 loss=0`.
    pub fn label(&self) -> String {
        let q = match self.q() {
            Some(q) => format!("q={q}"),
            None => String::from("q=scheduled"),
        };
        let mut label = format!("n={} {} {q}", self.n, self.fanout.label());
        if self.loss > 0.0 {
            label.push_str(&format!(" loss={}", self.loss));
        }
        if let Some(topology) = self.topology_label() {
            label.push_str(&format!(" {topology}"));
        }
        if let Some(faults) = self.faults_label() {
            label.push_str(&format!(" {faults}"));
        }
        if let Some(traffic) = self.traffic_label() {
            label.push_str(&format!(" {traffic}"));
        }
        match self.protocol {
            ProtocolSpec::Push => {}
            ProtocolSpec::PushPull => label.push_str(" push-pull"),
            ProtocolSpec::Flood => label.push_str(" flood"),
        }
        label
    }
}

/// What every evaluation layer reports for a [`Scenario`], in the same
/// units, so backends are directly comparable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Name of the backend that produced this report.
    pub backend: String,
    /// Label of the evaluated scenario.
    pub scenario: String,
    /// Replications actually aggregated (1 for the analytic backend).
    pub replications: usize,
    /// Reliability `R(q, P)`: expected fraction of nonfailed members
    /// reached in one execution, conditioned on take-off (the giant
    /// component the paper's curves plot).
    pub reliability: f64,
    /// Standard error of the reliability estimate (0 for analytic).
    pub reliability_std_error: f64,
    /// 95% confidence interval of the reliability estimate (degenerate
    /// for the analytic backend).
    pub reliability_ci95: (f64, f64),
    /// Unconditional mean reliability over *all* replications, fizzled
    /// executions included (drops toward `R²` at moderate reliability);
    /// `None` where the layer has no execution dynamics.
    pub reliability_raw: Option<f64>,
    /// Critical nonfailed ratio `q_c` of push gossip with this fanout
    /// distribution (Eq. 3); `None` when the distribution never
    /// percolates, and for flood and push-pull, which have no such
    /// threshold.
    pub critical_q: Option<f64>,
    /// Fraction of executions that took off (reached at least
    /// `nonfailed^{2/3}` members); `None` where nothing is split: the
    /// analytic layer and the graph census.
    pub takeoff_rate: Option<f64>,
    /// Mean over take-off executions of the last hop at which a member
    /// in the reliability denominator first received (the source is
    /// hop 0); for a stream, of the round its last first receipt landed
    /// in. `None` where the layer reports no per-hop receipts: the
    /// analytic layer and the graph census.
    pub rounds: Option<f64>,
    /// Mean messages sent per nonfailed member per execution: every
    /// send a member makes, blocked and lost ones included, but not the
    /// injection at the source.
    pub messages_per_member: Option<f64>,
    /// Mean simulated seconds to dissemination quiescence (timed
    /// backends only).
    pub quiescence_secs: Option<f64>,
    /// Transport the live runtime backend moved messages over
    /// (`"channel"` or `"tcp"`); `None` for every model layer.
    pub transport: Option<String>,
    /// Overlay topology and peer-selection policy the scenario gossiped
    /// over, e.g. `"ring(s=2000)/neigh"`; `None` for the paper's
    /// default (complete overlay, uniform selection).
    pub topology: Option<String>,
    /// Fault families the scenario was evaluated under, e.g.
    /// `"churn(j=10,l=10,h=200ms)"`; `None` for the fault-free default.
    pub faults: Option<String>,
    /// Mean messages lost in transit per execution — injected loss plus
    /// sends to crashed peers (live runtime backend only).
    pub messages_lost: Option<f64>,
    /// The §4.2 success calculus applied to this backend's reliability:
    /// `1 − (1 − R)^t` for the scenario's `t = executions` (Eq. 5).
    pub success_within_t: f64,
    /// Entry h: the fraction of nonfailed members first reached within
    /// h hops, averaged over take-off executions (a run that ended
    /// sooner stays at its final value), so the last entry is
    /// `reliability`. `None` where `rounds` is, and for streams.
    pub reach_by_round: Option<Vec<f64>>,
    /// Share of all executions that reached every nonfailed member —
    /// the strict §4.2 success event. `None` on the analytic layer, the
    /// graph census and streams.
    pub complete_rate: Option<f64>,
    /// Stream results when the scenario carries a [`TrafficSpec`]:
    /// per-message reliability min/mean, sustained messages/sec, and
    /// delivery-latency percentiles in rounds. `None` (serialized as
    /// `"traffic":null`) for the classic single-message workload —
    /// declared last so prior reports differ only by this trailing
    /// field.
    pub traffic: Option<TrafficReport>,
}

/// An evaluation layer: anything that can answer a [`Scenario`] with a
/// [`Report`]. Object-safe — backends are boxed and listed.
pub trait Backend: Send + Sync {
    /// Short stable name, e.g. `"analytic"`.
    fn name(&self) -> &'static str;

    /// Evaluates the scenario.
    fn evaluate(&self, scenario: &Scenario) -> Result<Report, ModelError>;
}

impl<B: Backend + ?Sized> Backend for &B {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn evaluate(&self, scenario: &Scenario) -> Result<Report, ModelError> {
        (**self).evaluate(scenario)
    }
}

impl<B: Backend + ?Sized> Backend for Box<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn evaluate(&self, scenario: &Scenario) -> Result<Report, ModelError> {
        (**self).evaluate(scenario)
    }
}

/// One evaluated cell of a [`SweepGrid`].
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// The scenario of this cell (with its derived per-cell seed).
    pub scenario: Scenario,
    /// The backend's answer.
    pub report: Result<Report, ModelError>,
}

/// A cartesian scenario grid: a base [`Scenario`] plus axes to vary.
///
/// Cell order is row-major in axis declaration order (fanouts ×
/// failure ratios × losses), and each cell's seed derives from
/// `(base.seed, cell index)` via SplitMix64 — results are a pure
/// function of the base seed, independent of thread count.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    base: Scenario,
    fanouts: Vec<FanoutSpec>,
    qs: Vec<f64>,
    losses: Vec<f64>,
}

impl SweepGrid {
    /// A grid over the single base scenario (add axes with `over_*`).
    pub fn new(base: Scenario) -> Self {
        SweepGrid {
            base,
            fanouts: Vec::new(),
            qs: Vec::new(),
            losses: Vec::new(),
        }
    }

    /// Varies the fanout specification.
    pub fn over_fanouts(mut self, fanouts: impl IntoIterator<Item = FanoutSpec>) -> Self {
        self.fanouts = fanouts.into_iter().collect();
        self
    }

    /// Varies Poisson mean fanout (the paper's Figs. 2, 4, 5 axis).
    pub fn over_poisson_means(self, means: &[f64]) -> Self {
        self.over_fanouts(means.iter().map(|&z| FanoutSpec::poisson(z)))
    }

    /// Varies the nonfailed ratio `q`.
    pub fn over_failure_ratios(mut self, qs: &[f64]) -> Self {
        self.qs = qs.to_vec();
        self
    }

    /// Varies the message loss probability.
    pub fn over_losses(mut self, losses: &[f64]) -> Self {
        self.losses = losses.to_vec();
        self
    }

    /// Materializes the grid cells in deterministic order, with derived
    /// per-cell seeds.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let fanouts: Vec<FanoutSpec> = if self.fanouts.is_empty() {
            vec![self.base.fanout.clone()]
        } else {
            self.fanouts.clone()
        };
        let qs: Vec<FailureSpec> = if self.qs.is_empty() {
            vec![self.base.failure.clone()]
        } else {
            self.qs.iter().map(|&q| FailureSpec::Random { q }).collect()
        };
        let losses: Vec<f64> = if self.losses.is_empty() {
            vec![self.base.loss]
        } else {
            self.losses.clone()
        };
        let mut cells = Vec::with_capacity(fanouts.len() * qs.len() * losses.len());
        for fanout in &fanouts {
            for failure in &qs {
                for &loss in &losses {
                    let index = cells.len() as u64;
                    let mut cell = self.base.clone();
                    cell.fanout = fanout.clone();
                    cell.failure = failure.clone();
                    cell.loss = loss;
                    cell.seed = SplitMix64::derive(self.base.seed, index);
                    cells.push(cell);
                }
            }
        }
        cells
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        let f = self.fanouts.len().max(1);
        let q = self.qs.len().max(1);
        let l = self.losses.len().max(1);
        f * q * l
    }

    /// True when the grid is empty (never: a grid has at least the base
    /// cell).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Evaluates every cell with `backend`, fanning over
    /// `gossip_stats::parallel` worker threads. Deterministic: cell
    /// seeds are fixed by [`SweepGrid::scenarios`], and results return
    /// in grid order regardless of scheduling.
    pub fn run(&self, backend: &dyn Backend) -> Vec<SweepCell> {
        let cells = self.scenarios();
        let reports = parallel_map(cells.len(), |i| backend.evaluate(&cells[i]));
        cells
            .into_iter()
            .zip(reports)
            .map(|(scenario, report)| SweepCell { scenario, report })
            .collect()
    }

    /// As [`SweepGrid::run`] for several backends: returns one
    /// `Vec<SweepCell>` per backend, in backend order.
    pub fn run_all(&self, backends: &[&dyn Backend]) -> Vec<Vec<SweepCell>> {
        backends.iter().map(|b| self.run(*b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::AnalyticBackend;
    use gossip_topology::OverlaySpec;

    fn headline() -> Scenario {
        Scenario::new(1000, FanoutSpec::poisson(4.0)).with_failure_ratio(0.9)
    }

    #[test]
    fn analytic_headline_point() {
        let report = AnalyticBackend.evaluate(&headline()).unwrap();
        assert!((report.reliability - 0.969_506).abs() < 1e-5);
        assert!((report.critical_q.unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(report.replications, 1);
        assert_eq!(report.reliability_std_error, 0.0);
        // Eq. 5 at t = 1 is just R.
        assert!((report.success_within_t - report.reliability).abs() < 1e-12);
    }

    #[test]
    fn analytic_rejects_unsupported() {
        let scamp = headline().with_topology(TopologySpec::new(OverlaySpec::Scamp { c: 2 }));
        assert!(matches!(
            AnalyticBackend.evaluate(&scamp),
            Err(ModelError::Unsupported {
                backend: "analytic",
                ..
            })
        ));
        let scheduled = headline().with_failure(FailureSpec::Schedule {
            crashes: vec![(1_000_000, 3)],
        });
        assert!(matches!(
            AnalyticBackend.evaluate(&scheduled),
            Err(ModelError::Unsupported {
                backend: "analytic",
                ..
            })
        ));
    }

    #[test]
    fn analytic_rejects_structured_topology() {
        let structured =
            headline().with_topology(TopologySpec::new(OverlaySpec::Ring { shortcuts: 100 }));
        assert!(matches!(
            AnalyticBackend.evaluate(&structured),
            Err(ModelError::Unsupported {
                backend: "analytic",
                ..
            })
        ));
    }

    #[test]
    fn analytic_success_calculus() {
        let report = AnalyticBackend
            .evaluate(&headline().with_executions(2))
            .unwrap();
        let r = report.reliability;
        assert!((report.success_within_t - (1.0 - (1.0 - r) * (1.0 - r))).abs() < 1e-12);
    }

    #[test]
    fn analytic_loss_folds_into_product() {
        // Po(6) with 25% loss ≡ Po(4.5) lossless (§ loss docs).
        let lossy = AnalyticBackend
            .evaluate(
                &Scenario::new(1000, FanoutSpec::poisson(6.0))
                    .with_failure_ratio(0.9)
                    .with_loss(0.25),
            )
            .unwrap();
        let thinned = AnalyticBackend
            .evaluate(&Scenario::new(1000, FanoutSpec::poisson(4.5)).with_failure_ratio(0.9))
            .unwrap();
        assert!((lossy.reliability - thinned.reliability).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(Scenario::new(1, FanoutSpec::poisson(4.0))
            .validate()
            .is_err());
        assert!(headline().with_loss(1.0).validate().is_err());
        assert!(headline().with_replications(0).validate().is_err());
        assert!(Scenario::new(100, FanoutSpec::poisson(4.0))
            .with_failure_ratio(0.0)
            .validate()
            .is_err());
        assert!(Scenario::new(100, FanoutSpec::Geometric { p: 0.0 })
            .validate()
            .is_err());
        assert!(
            Scenario::new(100, FanoutSpec::Empirical { weights: vec![] })
                .validate()
                .is_err()
        );
    }

    #[test]
    fn validate_rejects_bad_runtime_knobs() {
        // The runtime backend spawns real threads and sleeps for real:
        // a bogus cap must fail fast.
        let capped = headline().with_runtime(RuntimeSpec {
            max_threads: 100_000,
            watchdog_secs: 0,
        });
        assert!(matches!(
            capped.validate(),
            Err(ModelError::InvalidParameter {
                name: "max_threads",
                ..
            })
        ));
        // The watchdog knob is bounded too: nobody waits an hour-plus
        // on a wedged replication.
        let waited = headline().with_runtime(RuntimeSpec {
            max_threads: 0,
            watchdog_secs: 100_000,
        });
        assert!(matches!(
            waited.validate(),
            Err(ModelError::InvalidParameter {
                name: "watchdog_secs",
                ..
            })
        ));
        assert_eq!(RuntimeSpec::default().watchdog_or_default(), 30);
        // The defaults are always valid.
        assert!(headline()
            .with_runtime(RuntimeSpec::default())
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_schedule_and_latency() {
        // Crash schedules naming members outside [0, n) must error, not
        // panic inside the simulator.
        let scheduled =
            Scenario::new(100, FanoutSpec::poisson(4.0)).with_failure(FailureSpec::Schedule {
                crashes: vec![(0, 500)],
            });
        assert!(matches!(
            scheduled.validate(),
            Err(ModelError::InvalidParameter {
                name: "crashes",
                ..
            })
        ));
        // Inverted uniform latency bounds must error, not wrap.
        let inverted = Scenario::new(100, FanoutSpec::poisson(4.0))
            .with_latency(LatencySpec::UniformMillis { lo_ms: 5, hi_ms: 2 });
        assert!(matches!(
            inverted.validate(),
            Err(ModelError::InvalidParameter { name: "lo_ms", .. })
        ));
    }

    #[test]
    fn validate_rejects_malformed_topologies() {
        // k >= n.
        let fat = Scenario::new(50, FanoutSpec::poisson(4.0))
            .with_topology(TopologySpec::new(OverlaySpec::KRegular { k: 50 }));
        assert!(matches!(
            fat.validate(),
            Err(ModelError::InvalidParameter { name: "k", .. })
        ));
        // beta outside [0, 1].
        let skewed = Scenario::new(100, FanoutSpec::poisson(4.0)).with_topology(TopologySpec::new(
            OverlaySpec::WattsStrogatz { k: 4, beta: 1.5 },
        ));
        assert!(matches!(
            skewed.validate(),
            Err(ModelError::InvalidParameter { name: "beta", .. })
        ));
        // Zero zones.
        let zoneless = Scenario::new(100, FanoutSpec::poisson(4.0)).with_topology(
            TopologySpec::new(OverlaySpec::Clustered {
                zones: 0,
                intra: 2,
                inter: 1,
            }),
        );
        assert!(matches!(
            zoneless.validate(),
            Err(ModelError::InvalidParameter { name: "zones", .. })
        ));
        // Odd degree sum in the configuration-model family.
        let odd = Scenario::new(51, FanoutSpec::poisson(4.0))
            .with_topology(TopologySpec::new(OverlaySpec::KRegular { k: 3 }));
        assert!(matches!(
            odd.validate(),
            Err(ModelError::InvalidParameter { name: "k", .. })
        ));
        // A well-formed structured topology passes.
        let fine = Scenario::new(100, FanoutSpec::poisson(4.0))
            .with_topology(TopologySpec::new(OverlaySpec::Ring { shortcuts: 40 }));
        assert!(fine.validate().is_ok());
    }

    #[test]
    fn scenario_label_mentions_topology() {
        assert!(!headline().label().contains("complete"));
        let structured = headline().with_topology(TopologySpec::new(OverlaySpec::WattsStrogatz {
            k: 8,
            beta: 0.2,
        }));
        assert!(structured.label().contains("ws(k=8,beta=0.2)/neigh"));
        assert_eq!(
            structured.topology_label().as_deref(),
            Some("ws(k=8,beta=0.2)/neigh")
        );
        assert_eq!(headline().topology_label(), None);
    }

    #[test]
    fn analytic_flood_message_cost_is_view_sized() {
        let flood = headline().with_protocol(ProtocolSpec::Flood);
        let report = AnalyticBackend.evaluate(&flood).unwrap();
        // Every reached member forwards to its whole (n−1)-entry view.
        assert!((report.messages_per_member.unwrap() - 999.0).abs() < 1e-9);
        let pushpull = headline().with_protocol(ProtocolSpec::PushPull);
        assert!(
            matches!(
                AnalyticBackend.evaluate(&pushpull),
                Err(ModelError::Unsupported {
                    backend: "analytic",
                    ..
                })
            ),
            "pulls are not analytically modeled"
        );
    }

    #[test]
    fn fanout_spec_builds_all_families() {
        let specs = [
            FanoutSpec::poisson(4.0),
            FanoutSpec::fixed(3),
            FanoutSpec::Binomial { m: 10, p: 0.4 },
            FanoutSpec::geometric_with_mean(3.0),
            FanoutSpec::Uniform { lo: 2, hi: 6 },
            FanoutSpec::PowerLaw {
                alpha: 2.5,
                kmin: 1,
                kmax: 40,
            },
            FanoutSpec::Empirical {
                weights: vec![0.0, 0.3, 0.3, 0.4],
            },
            FanoutSpec::Mixture {
                components: vec![(0.8, FanoutSpec::fixed(2)), (0.2, FanoutSpec::poisson(8.0))],
            },
        ];
        for spec in &specs {
            let dist = spec.build().unwrap();
            assert!(dist.mean() >= 0.0, "{}", spec.label());
        }
        // Mixture mean is the weighted component mean.
        let mix = specs[7].mean().unwrap();
        assert!(
            (mix - (0.8 * 2.0 + 0.2 * 8.0)).abs() < 1e-9,
            "mix mean {mix}"
        );
    }

    #[test]
    fn sweep_grid_shape_and_determinism() {
        let grid = SweepGrid::new(headline())
            .over_poisson_means(&[2.0, 4.0])
            .over_failure_ratios(&[0.5, 0.7, 0.9]);
        assert_eq!(grid.len(), 6);
        let cells = grid.scenarios();
        assert_eq!(cells.len(), 6);
        // Distinct, deterministic per-cell seeds.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.seed, SplitMix64::derive(headline().seed, i as u64));
        }
        let a = grid.run(&AnalyticBackend);
        let b = grid.run(&AnalyticBackend);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.report.as_ref().unwrap().reliability,
                y.report.as_ref().unwrap().reliability
            );
        }
        // Row-major order: the last cell is (z=4, q=0.9), the paper's
        // headline value.
        let last = a.last().unwrap().report.as_ref().unwrap();
        assert!((last.reliability - 0.969_506).abs() < 1e-5);
    }

    #[test]
    fn backend_is_object_safe() {
        let boxed: Box<dyn Backend> = Box::new(AnalyticBackend);
        assert_eq!(boxed.name(), "analytic");
        let report = boxed.evaluate(&headline()).unwrap();
        assert!(report.reliability > 0.9);
        // And references to trait objects still implement Backend.
        let by_ref: &dyn Backend = &boxed;
        assert_eq!(by_ref.name(), "analytic");
    }

    #[test]
    fn scenario_label_mentions_knobs() {
        let label = headline()
            .with_loss(0.1)
            .with_topology(TopologySpec::new(OverlaySpec::Scamp { c: 2 }))
            .with_protocol(ProtocolSpec::Flood)
            .label();
        assert!(label.contains("n=1000"));
        assert!(label.contains("q=0.9"));
        assert!(label.contains("loss=0.1"));
        assert!(label.contains("scamp"));
        assert!(label.contains("flood"));
    }

    #[test]
    fn analytic_folds_degenerate_bursty_loss_into_closed_form() {
        use gossip_faults::BurstySpec;
        // Equal-state GE loss at 0.25 is plain i.i.d. loss at 0.25:
        // Po(6) thinned by it must equal explicit loss = 0.25.
        let bursty = Scenario::new(1000, FanoutSpec::poisson(6.0))
            .with_failure_ratio(0.9)
            .with_faults(FaultSpec::none().with_bursty_loss(BurstySpec {
                p_gb: 0.2,
                p_bg: 0.3,
                loss_good: 0.25,
                loss_bad: 0.25,
            }));
        let explicit = Scenario::new(1000, FanoutSpec::poisson(6.0))
            .with_failure_ratio(0.9)
            .with_loss(0.25);
        let a = AnalyticBackend.evaluate(&bursty).unwrap();
        let b = AnalyticBackend.evaluate(&explicit).unwrap();
        assert!((a.reliability - b.reliability).abs() < 1e-12);
        assert_eq!(
            a.faults.as_deref(),
            Some("ge(pgb=0.2,pbg=0.3,lg=0.25,lb=0.25)")
        );
        assert_eq!(b.faults, None);
    }

    #[test]
    fn analytic_declines_nonreducible_faults() {
        use gossip_faults::{AdversaryStrategy, BurstySpec, ChurnSpec};
        let churned =
            headline().with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(10.0, 200)));
        assert!(matches!(
            AnalyticBackend.evaluate(&churned),
            Err(ModelError::Unsupported {
                backend: "analytic",
                ..
            })
        ));
        let bursty = headline().with_faults(FaultSpec::none().with_bursty_loss(BurstySpec {
            p_gb: 0.05,
            p_bg: 0.15,
            loss_good: 0.0,
            loss_bad: 0.8,
        }));
        assert!(matches!(
            AnalyticBackend.evaluate(&bursty),
            Err(ModelError::Unsupported { .. })
        ));
        let blocked = headline()
            .with_faults(FaultSpec::none().with_adversary(999, AdversaryStrategy::WorstCase));
        assert!(matches!(
            AnalyticBackend.evaluate(&blocked),
            Err(ModelError::Unsupported { .. })
        ));
        // Zero-rate churn is a no-op: the closed form still applies.
        let idle =
            headline().with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(0.0, 200)));
        let report = AnalyticBackend.evaluate(&idle).unwrap();
        assert!((report.reliability - 0.969_506).abs() < 1e-5);
    }

    #[test]
    fn validate_rejects_malformed_faults() {
        use gossip_faults::{BurstySpec, ChurnSpec};
        // Negative churn rate maps losslessly onto InvalidParameter.
        let churned = headline().with_faults(FaultSpec::none().with_churn(ChurnSpec {
            join_per_sec: -1.0,
            leave_per_sec: 0.0,
            horizon_ms: 100,
        }));
        assert!(matches!(
            churned.validate(),
            Err(ModelError::InvalidParameter {
                name: "join_per_sec",
                ..
            })
        ));
        // Zone failures need a Clustered overlay.
        let zoned = headline().with_faults(FaultSpec::none().with_zone_failure(vec![0], 10));
        assert!(matches!(
            zoned.validate(),
            Err(ModelError::InvalidParameter {
                name: "zone_failure",
                ..
            })
        ));
        // Bursty loss and i.i.d. loss are mutually exclusive.
        let doubled = headline()
            .with_loss(0.1)
            .with_faults(FaultSpec::none().with_bursty_loss(BurstySpec {
                p_gb: 0.05,
                p_bg: 0.15,
                loss_good: 0.0,
                loss_bad: 0.8,
            }));
        assert!(matches!(
            doubled.validate(),
            Err(ModelError::InvalidParameter { name: "loss", .. })
        ));
    }

    #[test]
    fn scenario_label_mentions_faults() {
        use gossip_faults::ChurnSpec;
        assert_eq!(headline().faults_label(), None);
        let churned =
            headline().with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(10.0, 200)));
        assert!(churned.label().contains("churn(j=10,l=10,h=200ms)"));
        assert_eq!(
            churned.faults_label().as_deref(),
            Some("churn(j=10,l=10,h=200ms)")
        );
    }

    #[test]
    fn validate_rejects_malformed_traffic() {
        use gossip_traffic::ArrivalSpec;
        // Traffic errors map losslessly onto InvalidParameter.
        let cases = [
            (TrafficSpec::stream(0), "messages"),
            (TrafficSpec::stream(4).with_bandwidth(0), "bandwidth"),
            (
                TrafficSpec::stream(4).with_queue_capacity(0),
                "queue_capacity",
            ),
            (TrafficSpec::stream(4).with_piggyback(0), "frame_limit"),
            (
                TrafficSpec::stream(4).with_arrival(ArrivalSpec::Poisson {
                    rate_per_round: -0.5,
                }),
                "rate_per_round",
            ),
            (
                TrafficSpec::stream(4).with_arrival(ArrivalSpec::FixedInterval { every_rounds: 0 }),
                "every_rounds",
            ),
        ];
        for (spec, field) in cases {
            match headline().with_traffic(spec).validate() {
                Err(ModelError::InvalidParameter { name, .. }) => assert_eq!(name, field),
                other => panic!("expected InvalidParameter({field}), got {other:?}"),
            }
        }
        // A well-formed stream validates.
        assert!(headline()
            .with_traffic(TrafficSpec::stream(4))
            .validate()
            .is_ok());
        // No backend runs a stream over an overlay, under a crash
        // schedule or by push-pull: all three are invalid scenarios.
        let scheduled = FailureSpec::Schedule {
            crashes: vec![(1, 1)],
        };
        for case in [
            headline().with_topology(TopologySpec::new(OverlaySpec::Ring { shortcuts: 100 })),
            headline().with_failure(scheduled),
            headline().with_protocol(ProtocolSpec::PushPull),
        ] {
            match case.with_traffic(TrafficSpec::stream(4)).validate() {
                Err(ModelError::InvalidParameter { name, .. }) => assert_eq!(name, "traffic"),
                other => panic!("expected InvalidParameter(traffic), got {other:?}"),
            }
        }
    }

    #[test]
    fn scenario_label_mentions_traffic() {
        assert_eq!(headline().traffic_label(), None);
        let streamed = headline().with_traffic(TrafficSpec::stream(16).with_bandwidth(4));
        assert!(streamed.label().contains("stream(k=16,B=4,q=1024)"));
    }

    #[test]
    fn analytic_reduces_uncontended_traffic_and_declines_contended() {
        // Uncapped (or roomy) bandwidth: k i.i.d. copies of the single
        // closed form — the headline reliability, per message.
        let uncontended = headline().with_traffic(TrafficSpec::stream(4).with_bandwidth(64));
        let report = AnalyticBackend.evaluate(&uncontended).unwrap();
        let traffic = report.traffic.expect("stream scenarios fill the section");
        assert_eq!(traffic.messages, 4);
        assert!((traffic.reliability_mean - report.reliability).abs() < 1e-12);
        assert!((traffic.reliability_min - report.reliability).abs() < 1e-12);
        assert_eq!(traffic.messages_per_sec, None, "analytic has no clock");
        // 4 messages × E[F]=4 > B=8: queue coupling, no closed form.
        let contended = headline().with_traffic(TrafficSpec::stream(4).with_bandwidth(8));
        assert!(matches!(
            AnalyticBackend.evaluate(&contended),
            Err(ModelError::Unsupported {
                backend: "analytic",
                ..
            })
        ));
    }

    #[test]
    fn scenario_and_report_round_trip_with_traffic() {
        use gossip_traffic::ArrivalSpec;
        let scenario = headline().with_traffic(
            TrafficSpec::stream(16)
                .with_bandwidth(4)
                .with_piggyback(8)
                .with_arrival(ArrivalSpec::Poisson {
                    rate_per_round: 0.5,
                }),
        );
        let json = serde::json::to_string(&scenario).unwrap();
        let back: Scenario = serde::json::from_str(&json).unwrap();
        assert_eq!(scenario, back);
        // Default scenarios serialize the field as null.
        let json = serde::json::to_string(&headline()).unwrap();
        assert!(json.contains("\"traffic\":null"), "{json}");
        // Reports round-trip with the traffic section filled...
        let report = AnalyticBackend
            .evaluate(&headline().with_traffic(TrafficSpec::stream(4)))
            .unwrap();
        let json = serde::json::to_string(&report).unwrap();
        let back: Report = serde::json::from_str(&json).unwrap();
        assert_eq!(report, back);
        // ...and classic reports end with the trailing null field, so
        // prior archived reports differ only by this suffix.
        let report = AnalyticBackend.evaluate(&headline()).unwrap();
        let json = serde::json::to_string(&report).unwrap();
        assert!(json.ends_with(",\"traffic\":null}"), "{json}");
    }

    #[test]
    fn scenario_json_carries_no_engine() {
        let json = serde::json::to_string(&headline()).unwrap();
        assert!(!json.contains("\"engine\""), "{json}");
        // A text from before the engine switch was retired is refused,
        // and the error names the key.
        let old = json.replacen(
            "\"replications\"",
            "\"engine\":\"Auto\",\"replications\"",
            1,
        );
        assert_ne!(old, json);
        let err = serde::json::from_str::<Scenario>(&old).unwrap_err();
        assert!(err.to_string().contains("engine"), "{err}");
    }

    #[test]
    fn scenario_and_report_round_trip_with_faults() {
        use gossip_faults::ChurnSpec;
        let scenario =
            headline().with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(5.0, 150)));
        let json = serde::json::to_string(&scenario).unwrap();
        let back: Scenario = serde::json::from_str(&json).unwrap();
        assert_eq!(scenario, back);
        let report = AnalyticBackend.evaluate(&headline()).unwrap();
        let json = serde::json::to_string(&report).unwrap();
        assert!(json.contains("\"faults\":null"), "{json}");
        let back: Report = serde::json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
