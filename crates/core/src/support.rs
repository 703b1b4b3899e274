//! Which backend runs which scenario feature: the one place each
//! backend's domain is stated. Every `Backend::evaluate` asks [`check`]
//! once before it runs a kernel (graph and protocol through
//! `gossip_engine::evaluate_relay`, which asks it itself); README's
//! matrix is [`markdown`]'s output. What no backend runs is an invalid
//! scenario instead: churn on an overlay (`FaultSpec::validate`), a
//! stream over an overlay, under a crash schedule or by push-pull
//! (`Scenario::validate`).

use crate::scenario::{FailureSpec, LatencySpec, ProtocolSpec, Scenario};
use crate::ModelError;

/// The rows of the table: every backend's `Backend::name()`.
pub const BACKENDS: [&str; 6] = [
    "analytic",
    "graph",
    "protocol",
    "netsim",
    "runtime",
    "runtime-tcp",
];

/// Group-size ceiling of the TCP transport (one listener per member).
const TCP_MAX_GROUP: usize = 1024;

/// One scenario axis that some backend declines or reduces; see
/// [`Feature::in_scenario`] for when a scenario has it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Feature {
    CrashSchedule,
    Overlay,
    Flood,
    PushPull,
    Latency,
    Churn,
    StaticFaults,
    TimedZoneKill,
    Stream,
    ContendedStream,
    StreamVariant,
    StreamFaults,
    StreamLatency,
    LargeGroup,
}

/// How a backend treats a [`Feature`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Support {
    /// Runs it as specified.
    Native,
    /// Approximates it: the untimed layers ignore latency, and analytic
    /// folds faults through `FaultSpec::reduce` (declining the rest).
    Reduced,
    /// Declines it, for this reason.
    Refused(&'static str),
}

impl Feature {
    /// Every feature with its matrix label, in the order [`check`]
    /// asks and the matrix lists.
    pub const ALL: [(Feature, &'static str); 14] = {
        use Feature::*;
        [
            (CrashSchedule, "crash schedule"),
            (Overlay, "overlay"),
            (Flood, "flood"),
            (PushPull, "push-pull"),
            (Latency, "non-default latency"),
            (Churn, "churn"),
            (StaticFaults, "zone kill at t = 0 / bursty / adversary"),
            (TimedZoneKill, "zone kill at t > 0"),
            (Stream, "stream"),
            (ContendedStream, "contended stream (k·E[F] > B)"),
            (StreamVariant, "stream × flood"),
            (StreamFaults, "stream × fault injection"),
            (StreamLatency, "stream × stochastic latency"),
            (LargeGroup, "n > 1024"),
        ]
    };

    /// Whether `s` has this feature. Allocation-free, except that a
    /// stream with a bandwidth cap builds its fanout distribution to
    /// price the offered load `k·E[F]`.
    pub fn in_scenario(self, s: &Scenario) -> bool {
        use Feature::*;
        let (stream, f) = (s.traffic.is_some(), &s.faults);
        let zone_at = f.zone_failure.as_ref().map(|z| z.at_ms);
        match self {
            CrashSchedule => matches!(s.failure, FailureSpec::Schedule { .. }),
            Overlay => !s.topology.is_default(),
            Flood => s.protocol == ProtocolSpec::Flood,
            PushPull => s.protocol == ProtocolSpec::PushPull,
            Latency => s.latency != LatencySpec::default(),
            Churn => f.churn.is_some(),
            StaticFaults => zone_at == Some(0) || f.bursty_loss.is_some() || f.adversary.is_some(),
            TimedZoneKill => zone_at.is_some_and(|at| at > 0),
            Stream => stream,
            ContendedStream => s.traffic.is_some_and(|t| {
                t.bandwidth.is_some_and(|b| {
                    s.fanout
                        .mean()
                        .is_ok_and(|m| t.messages as f64 * m > b as f64)
                })
            }),
            StreamVariant => stream && s.protocol == ProtocolSpec::Flood,
            StreamFaults => stream && !f.is_default(),
            StreamLatency => stream && !matches!(s.latency, LatencySpec::ConstantMillis { .. }),
            LargeGroup => s.n > TCP_MAX_GROUP,
        }
    }
}

/// How `backend` (a [`BACKENDS`] name) treats `feature`. A reason names
/// a backend that runs the feature, where one does.
pub fn support(backend: &str, feature: Feature) -> Support {
    use Feature::*;
    match (backend, feature) {
        ("analytic", CrashSchedule) => Support::Refused(
            "crash schedules (the generating-function model is untimed; use the netsim or runtime backend)",
        ),
        ("analytic", Overlay) => Support::Refused(
            "structured overlays (the generating-function model assumes the complete graph; use the graph or protocol backend)",
        ),
        ("analytic", ContendedStream) => Support::Refused(
            "contended traffic (offered load k·E[F] exceeds the bandwidth cap; queue coupling has no closed form: use the protocol or netsim backend)",
        ),
        ("analytic", PushPull) => Support::Refused(
            "push-pull anti-entropy (pulls keep spreading below Eq. 3's q_c, which the generating-function model does not price; use the netsim backend)",
        ),
        ("analytic", TimedZoneKill) => Support::Refused(
            "zone kills after t = 0 (a zone kill needs a clustered overlay, which the generating-function model cannot hold, and a clock; use the netsim backend)",
        ),
        ("analytic", Latency | Churn | StaticFaults | StreamFaults | StreamLatency)
        | ("graph", Latency) => Support::Reduced,
        ("graph", Stream | ContendedStream | StreamVariant | StreamFaults | StreamLatency) => {
            Support::Refused("multi-message traffic (a percolation census has no rounds, queues or bandwidth; use the analytic, protocol or netsim backend)")
        }
        ("graph" | "protocol", CrashSchedule) => Support::Refused(
            "crash schedules (the relay kernel tosses i.i.d. crash coins and has no clock; use the netsim backend)",
        ),
        ("graph" | "protocol", Flood | PushPull) => Support::Refused(
            "protocol variants (the relay kernel runs the Fig. 1 push algorithm; use the netsim backend)",
        ),
        ("graph" | "protocol", Churn) => Support::Refused(
            "membership churn (the relay kernel's group is static; use the netsim backend)",
        ),
        ("graph" | "protocol", TimedZoneKill) => Support::Refused(
            "zone kills after t = 0 (the relay kernel has no clock to schedule them on; use the netsim backend)",
        ),
        ("protocol", Latency) => Support::Refused(
            "latency models (the §5 experiment is untimed; use the netsim backend)",
        ),
        ("runtime" | "runtime-tcp", PushPull) => Support::Refused(
            "push-pull anti-entropy (the runtime implements push and flood; use the netsim backend)",
        ),
        ("runtime-tcp", LargeGroup) => Support::Refused(
            "groups larger than 1024 over TCP (one loopback listener per member exhausts the fd budget; use the runtime backend's channel transport)",
        ),
        ("protocol" | "netsim" | "runtime" | "runtime-tcp", StreamVariant) => Support::Refused(
            "multi-message flood traffic (streams use the push relay; the analytic backend prices flood streams)",
        ),
        ("protocol" | "netsim" | "runtime" | "runtime-tcp", StreamFaults) => Support::Refused(
            "multi-message traffic under fault injection (streams model static crashes only; the analytic backend reduces what it can)",
        ),
        ("protocol" | "netsim" | "runtime" | "runtime-tcp", StreamLatency) => Support::Refused(
            "multi-message traffic under stochastic latency (streams are round-synchronous; use ConstantMillis, or the analytic backend)",
        ),
        _ => Support::Native,
    }
}

/// Refuses `scenario` on `backend` with its first [`Support::Refused`]
/// feature, in [`Feature::ALL`] order.
pub fn check(backend: &'static str, scenario: &Scenario) -> Result<(), ModelError> {
    for (feature, _) in Feature::ALL {
        if feature.in_scenario(scenario) {
            if let Support::Refused(what) = support(backend, feature) {
                return Err(ModelError::Unsupported { backend, what });
            }
        }
    }
    Ok(())
}

/// The support matrix as a Markdown table with its legend, as README
/// carries it. A cell refused for the stream's own reason reads `—`.
pub fn markdown() -> String {
    let mut out = format!("| feature | {} |\n|---|", BACKENDS.join(" | "));
    out.push_str(&"---|".repeat(BACKENDS.len()));
    for (feature, label) in Feature::ALL {
        out.push_str(&format!("\n| {label} |"));
        for backend in BACKENDS {
            let (cell, stream) = (support(backend, feature), support(backend, Feature::Stream));
            out.push_str(match cell {
                Support::Native => " ✓ |",
                Support::Reduced => " ≈ |",
                _ if feature != Feature::Stream && cell == stream => " — |",
                Support::Refused(_) => " ✗ |",
            });
        }
    }
    out + "\n\n✓ runs it · ≈ approximates it · ✗ refuses it, typed, naming a backend that runs it \
           · — the stream itself is refused\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FanoutSpec;

    #[test]
    fn the_default_scenario_runs_everywhere() {
        let scenario = Scenario::new(1000, FanoutSpec::poisson(4.0));
        for backend in BACKENDS {
            assert_eq!(check(backend, &scenario), Ok(()), "{backend}");
        }
        assert!(Feature::ALL.iter().all(|(f, _)| !f.in_scenario(&scenario)));
    }
}
