//! Serde-friendly fault descriptions and their validation.
//!
//! A [`FaultSpec`] is pure data riding on the scenario: which fault
//! families are active and with what parameters. Nothing here samples
//! randomness or touches an engine — the concrete realizations
//! ([`crate::ChurnPlan`], [`crate::BlockedLinks`], [`crate::GeChain`])
//! are built per execution by the backends from seed-derived streams.

use serde::{Deserialize, Serialize};
use std::fmt;

use gossip_topology::{OverlaySpec, TopologySpec};

/// A malformed fault parameter. Field-compatible with the model layer's
/// `InvalidParameter` error (and the topology crate's `TopologyError`)
/// so callers can map it losslessly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultError {
    /// Parameter name, e.g. `"join_per_sec"`.
    pub name: &'static str,
    /// Offending value.
    pub value: f64,
    /// Human-readable domain description.
    pub requirement: &'static str,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid fault parameter {} = {}: {}",
            self.name, self.value, self.requirement
        )
    }
}

impl std::error::Error for FaultError {}

fn invalid(name: &'static str, value: f64, requirement: &'static str) -> FaultError {
    FaultError {
        name,
        value,
        requirement,
    }
}

/// Poisson membership churn over a virtual-time horizon.
///
/// Joins and leaves arrive as independent Poisson processes over
/// `[0, horizon_ms]` of virtual time. A join adds a brand-new member
/// (ids `n, n+1, …` in arrival order) that bootstraps into the
/// membership view and participates from its join time onward; a leave
/// fail-stop crashes a uniformly chosen existing non-source member.
/// Members that left by the end of the run drop out of the reliability
/// denominator (the crash-schedule convention); members that joined are
/// counted in it — a joiner that arrives after dissemination quiesced
/// never hears the broadcast, which is exactly the churn cost the
/// paper's static model cannot price.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChurnSpec {
    /// Expected joins per second of virtual time (`≥ 0`).
    pub join_per_sec: f64,
    /// Expected leaves per second of virtual time (`≥ 0`).
    pub leave_per_sec: f64,
    /// Churn window in virtual milliseconds (events sample uniformly
    /// within it).
    pub horizon_ms: u64,
}

impl ChurnSpec {
    /// Equal join and leave rates over the given window.
    pub fn symmetric(rate_per_sec: f64, horizon_ms: u64) -> Self {
        ChurnSpec {
            join_per_sec: rate_per_sec,
            leave_per_sec: rate_per_sec,
            horizon_ms,
        }
    }
}

/// Correlated zone failures: whole zones of a `Clustered` overlay
/// fail-stop together at one scheduled virtual time.
///
/// Zone membership follows the clustered generator's layout exactly
/// (contiguous id blocks, see [`zone_members`]). The source member is
/// immune even when its home zone is listed, mirroring the paper's
/// immortal source; every other member of a listed zone is crashed by
/// the end of the run and leaves the reliability denominator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ZoneFailureSpec {
    /// Indices of the zones to kill (each `< zones` of the overlay).
    pub zones: Vec<usize>,
    /// Virtual time of the correlated failure, in milliseconds
    /// (`0` = the zones are dead from the start).
    pub at_ms: u64,
}

/// The zone count a zone failure resolves against: only a `Clustered`
/// overlay has zones.
fn zone_count(topology: &TopologySpec, z: &ZoneFailureSpec) -> Result<usize, FaultError> {
    match topology.overlay {
        OverlaySpec::Clustered { zones, .. } => Ok(zones),
        _ => Err(invalid(
            "zone_failure",
            z.zones.len() as f64,
            "correlated zone failures need a Clustered topology",
        )),
    }
}

impl ZoneFailureSpec {
    /// The members this failure kills in a group of `n` over `topology`:
    /// every member of the listed zones except `source`, in list order
    /// then id order. A typed error when `topology` is not `Clustered` —
    /// reachable only by configurations that bypass
    /// [`FaultSpec::validate`].
    pub fn killed_members(
        &self,
        n: usize,
        topology: &TopologySpec,
        source: u32,
    ) -> Result<Vec<u32>, FaultError> {
        let zones = zone_count(topology, self)?;
        Ok(self
            .zones
            .iter()
            .flat_map(|&zone| zone_members(n, zones, zone))
            .map(|member| member as u32)
            .filter(|&member| member != source)
            .collect())
    }
}

/// Gilbert-Elliott bursty loss: a two-state (good/bad) Markov channel
/// replacing the scenario's i.i.d. loss.
///
/// Each *sender* carries one chain over all of its outgoing links — a
/// node caught in the bad state loses most of its relay batch at once
/// (a bursty fade), which is what distinguishes the channel from i.i.d.
/// loss at the same mean rate in a one-shot push protocol. The chain
/// advances one step per transmission; its stationary loss rate has the
/// closed form implemented by [`crate::GilbertElliott::mean_loss`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BurstySpec {
    /// Good → bad transition probability per transmission (`∈ [0, 1]`).
    pub p_gb: f64,
    /// Bad → good transition probability per transmission (`∈ [0, 1]`).
    pub p_bg: f64,
    /// Loss probability while in the good state (`∈ [0, 1]`).
    pub loss_good: f64,
    /// Loss probability while in the bad state (`∈ [0, 1]`).
    pub loss_bad: f64,
}

/// How the oblivious adversary picks its blocked links.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdversaryStrategy {
    /// Doerr-style worst case against push: cut whole uplink fans in id
    /// order starting at the source (`f ≥ n − 1` silences the source
    /// entirely).
    WorstCase,
    /// `f` distinct directed links chosen uniformly from a seeded
    /// stream — the "how bad is a *random* adversary" baseline.
    Random,
}

/// An oblivious adversary that blocks up to `f` directed links for the
/// whole execution (chosen before the protocol's coins are flipped, per
/// Doerr et al.'s model).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AdversarySpec {
    /// Number of directed links blocked (`< n(n−1)`).
    pub f: usize,
    /// Worst-case or seeded-random link selection.
    pub strategy: AdversaryStrategy,
}

/// The fault families riding on one scenario. The default (all absent)
/// is a strict no-op: every backend keeps its classic code path bit for
/// bit.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultSpec {
    /// Poisson join/leave churn during dissemination.
    pub churn: Option<ChurnSpec>,
    /// Correlated whole-zone crashes on a clustered overlay.
    pub zone_failure: Option<ZoneFailureSpec>,
    /// Gilbert-Elliott bursty loss (replaces i.i.d. loss; the scenario's
    /// `loss` knob must stay 0 when enabled).
    pub bursty_loss: Option<BurstySpec>,
    /// Oblivious adversarial link blocking.
    pub adversary: Option<AdversarySpec>,
}

/// What a [`FaultSpec`] means to a layer that only knows the paper's
/// closed forms (see [`FaultSpec::reduce`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultReduction {
    /// Behaves exactly like the fault-free scenario.
    Noop,
    /// Equivalent to extra i.i.d. per-message loss at this rate
    /// (composes with the scenario's own loss knob as independent
    /// thinning).
    ExtraIidLoss(f64),
    /// No closed form — the analytic layer must decline with this
    /// explanation.
    Unsupported(&'static str),
}

impl FaultSpec {
    /// The fault-free spec (same as `FaultSpec::default()`).
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Adds membership churn.
    pub fn with_churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Adds a correlated zone failure.
    pub fn with_zone_failure(mut self, zones: Vec<usize>, at_ms: u64) -> Self {
        self.zone_failure = Some(ZoneFailureSpec { zones, at_ms });
        self
    }

    /// Adds Gilbert-Elliott bursty loss.
    pub fn with_bursty_loss(mut self, bursty: BurstySpec) -> Self {
        self.bursty_loss = Some(bursty);
        self
    }

    /// Adds adversarial link blocking.
    pub fn with_adversary(mut self, f: usize, strategy: AdversaryStrategy) -> Self {
        self.adversary = Some(AdversarySpec { f, strategy });
        self
    }

    /// True for the all-absent spec: every backend must treat it as a
    /// byte-identical passthrough of the classic failure/loss knobs.
    pub fn is_default(&self) -> bool {
        self == &FaultSpec::default()
    }

    /// Checks every present family's parameter domain against the group
    /// size and topology.
    pub fn validate(&self, n: usize, topology: &TopologySpec) -> Result<(), FaultError> {
        if let Some(c) = &self.churn {
            if !c.join_per_sec.is_finite() || c.join_per_sec < 0.0 {
                return Err(invalid(
                    "join_per_sec",
                    c.join_per_sec,
                    "churn rates must be finite and >= 0",
                ));
            }
            if !c.leave_per_sec.is_finite() || c.leave_per_sec < 0.0 {
                return Err(invalid(
                    "leave_per_sec",
                    c.leave_per_sec,
                    "churn rates must be finite and >= 0",
                ));
            }
            if (c.join_per_sec > 0.0 || c.leave_per_sec > 0.0) && c.horizon_ms == 0 {
                return Err(invalid(
                    "horizon_ms",
                    c.horizon_ms as f64,
                    "churn with nonzero rates needs a positive horizon",
                ));
            }
        }
        if let Some(z) = &self.zone_failure {
            let zones = zone_count(topology, z)?;
            for &zone in &z.zones {
                if zone >= zones {
                    return Err(invalid(
                        "zone",
                        zone as f64,
                        "zone index must be below the clustered overlay's zone count",
                    ));
                }
            }
            // The engines convert at_ms to nanoseconds of virtual time;
            // a value past u64::MAX / 1e6 would wrap the clock.
            if z.at_ms > u64::MAX / 1_000_000 {
                return Err(invalid(
                    "at_ms",
                    z.at_ms as f64,
                    "zone-failure time must fit the nanosecond clock (at_ms <= u64::MAX / 1e6)",
                ));
            }
        }
        if let Some(b) = &self.bursty_loss {
            for (name, value) in [
                ("p_gb", b.p_gb),
                ("p_bg", b.p_bg),
                ("loss_good", b.loss_good),
                ("loss_bad", b.loss_bad),
            ] {
                if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                    return Err(invalid(
                        name,
                        value,
                        "Gilbert-Elliott probabilities must lie in [0, 1]",
                    ));
                }
            }
            if b.p_gb + b.p_bg == 0.0 {
                return Err(invalid(
                    "p_gb",
                    b.p_gb,
                    "the Gilbert-Elliott chain needs p_gb + p_bg > 0 to mix",
                ));
            }
        }
        if let Some(a) = &self.adversary {
            let edge_count = n.saturating_mul(n.saturating_sub(1));
            if a.f >= edge_count {
                return Err(invalid(
                    "f",
                    a.f as f64,
                    "the adversary must block fewer links than the complete digraph has (f < n(n-1))",
                ));
            }
        }
        Ok(())
    }

    /// Maps degenerate corners back onto the paper's closed forms so the
    /// analytic layer keeps covering them; everything genuinely novel is
    /// a typed refusal.
    pub fn reduce(&self) -> FaultReduction {
        if let Some(c) = &self.churn {
            if c.join_per_sec > 0.0 || c.leave_per_sec > 0.0 {
                return FaultReduction::Unsupported(
                    "membership churn (no closed form for mid-dissemination joins and leaves)",
                );
            }
        }
        if let Some(z) = &self.zone_failure {
            if !z.zones.is_empty() {
                return FaultReduction::Unsupported(
                    "correlated zone failures (member crashes are not independent, breaking the site-percolation reduction)",
                );
            }
        }
        if let Some(a) = &self.adversary {
            if a.f > 0 {
                return FaultReduction::Unsupported(
                    "adversarial link blocking (worst-case link removal has no i.i.d. equivalent)",
                );
            }
        }
        if let Some(b) = &self.bursty_loss {
            if (b.loss_good - b.loss_bad).abs() > 1e-12 {
                return FaultReduction::Unsupported(
                    "bursty (Gilbert-Elliott) loss (correlated link state breaks the i.i.d. bond-percolation reduction)",
                );
            }
            if b.loss_good > 0.0 {
                return FaultReduction::ExtraIidLoss(b.loss_good);
            }
        }
        FaultReduction::Noop
    }

    /// Compact human-readable description, e.g.
    /// `churn(j=2,l=2,h=200ms)+adv(f=999,worst)`. Empty for the default.
    pub fn label(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(c) = &self.churn {
            parts.push(format!(
                "churn(j={},l={},h={}ms)",
                c.join_per_sec, c.leave_per_sec, c.horizon_ms
            ));
        }
        if let Some(z) = &self.zone_failure {
            let zones: Vec<String> = z.zones.iter().map(|z| z.to_string()).collect();
            parts.push(format!("zones([{}]@{}ms)", zones.join(","), z.at_ms));
        }
        if let Some(b) = &self.bursty_loss {
            parts.push(format!(
                "ge(pgb={},pbg={},lg={},lb={})",
                b.p_gb, b.p_bg, b.loss_good, b.loss_bad
            ));
        }
        if let Some(a) = &self.adversary {
            let strategy = match a.strategy {
                AdversaryStrategy::WorstCase => "worst",
                AdversaryStrategy::Random => "rand",
            };
            parts.push(format!("adv(f={},{})", a.f, strategy));
        }
        parts.join("+")
    }
}

/// Members of zone `zone` in the clustered layout over `n` members and
/// `zones` zones — contiguous id blocks with sizes differing by at most
/// one, matching the `gossip-topology` generator exactly:
/// zone `z` covers `[⌈zn/zones⌉, ⌈(z+1)n/zones⌉)`.
pub fn zone_members(n: usize, zones: usize, zone: usize) -> std::ops::Range<usize> {
    (zone * n).div_ceil(zones)..((zone + 1) * n).div_ceil(zones)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_topology::TopologySpec;

    fn clustered(zones: usize) -> TopologySpec {
        TopologySpec::new(OverlaySpec::Clustered {
            zones,
            intra: 4,
            inter: 1,
        })
    }

    #[test]
    fn default_is_default_and_unlabelled() {
        let spec = FaultSpec::default();
        assert!(spec.is_default());
        assert_eq!(spec.label(), "");
        assert_eq!(spec.reduce(), FaultReduction::Noop);
        assert!(spec.validate(100, &TopologySpec::default()).is_ok());
    }

    #[test]
    fn rejects_negative_churn_rates() {
        let spec = FaultSpec::none().with_churn(ChurnSpec {
            join_per_sec: -1.0,
            leave_per_sec: 0.0,
            horizon_ms: 100,
        });
        let err = spec.validate(100, &TopologySpec::default()).unwrap_err();
        assert_eq!(err.name, "join_per_sec");
        let spec = FaultSpec::none().with_churn(ChurnSpec {
            join_per_sec: 0.0,
            leave_per_sec: f64::NAN,
            horizon_ms: 100,
        });
        assert_eq!(
            spec.validate(100, &TopologySpec::default())
                .unwrap_err()
                .name,
            "leave_per_sec"
        );
        let spec = FaultSpec::none().with_churn(ChurnSpec::symmetric(5.0, 0));
        assert_eq!(
            spec.validate(100, &TopologySpec::default())
                .unwrap_err()
                .name,
            "horizon_ms"
        );
    }

    #[test]
    fn zone_failure_needs_clustered_topology() {
        let spec = FaultSpec::none().with_zone_failure(vec![0], 10);
        let err = spec.validate(100, &TopologySpec::default()).unwrap_err();
        assert_eq!(err.name, "zone_failure");
        assert!(spec.validate(100, &clustered(5)).is_ok());
    }

    #[test]
    fn zone_index_must_be_in_range() {
        let spec = FaultSpec::none().with_zone_failure(vec![5], 10);
        let err = spec.validate(100, &clustered(5)).unwrap_err();
        assert_eq!(err.name, "zone");
        assert_eq!(err.value, 5.0);
    }

    #[test]
    fn zone_failure_time_must_fit_the_nanosecond_clock() {
        let spec = FaultSpec::none().with_zone_failure(vec![0], u64::MAX / 1_000_000 + 1);
        let err = spec.validate(100, &clustered(5)).unwrap_err();
        assert_eq!(err.name, "at_ms");
        let ok = FaultSpec::none().with_zone_failure(vec![0], u64::MAX / 1_000_000);
        assert!(ok.validate(100, &clustered(5)).is_ok());
    }

    #[test]
    fn bursty_probabilities_must_be_unit_interval() {
        let bad = BurstySpec {
            p_gb: 0.1,
            p_bg: 1.5,
            loss_good: 0.0,
            loss_bad: 0.8,
        };
        let spec = FaultSpec::none().with_bursty_loss(bad);
        assert_eq!(
            spec.validate(100, &TopologySpec::default())
                .unwrap_err()
                .name,
            "p_bg"
        );
        let frozen = BurstySpec {
            p_gb: 0.0,
            p_bg: 0.0,
            loss_good: 0.0,
            loss_bad: 0.8,
        };
        let spec = FaultSpec::none().with_bursty_loss(frozen);
        assert_eq!(
            spec.validate(100, &TopologySpec::default())
                .unwrap_err()
                .requirement,
            "the Gilbert-Elliott chain needs p_gb + p_bg > 0 to mix"
        );
    }

    #[test]
    fn adversary_bounded_by_edge_count() {
        let spec = FaultSpec::none().with_adversary(90, AdversaryStrategy::WorstCase);
        assert!(spec.validate(10, &TopologySpec::default()).is_err());
        let spec = FaultSpec::none().with_adversary(89, AdversaryStrategy::WorstCase);
        assert!(spec.validate(10, &TopologySpec::default()).is_ok());
    }

    #[test]
    fn reductions_cover_degenerate_corners() {
        // Zero-rate churn, empty zone list, f = 0: all noops.
        let spec = FaultSpec::none()
            .with_churn(ChurnSpec::symmetric(0.0, 100))
            .with_zone_failure(vec![], 10)
            .with_adversary(0, AdversaryStrategy::Random);
        assert_eq!(spec.reduce(), FaultReduction::Noop);
        // Equal-state bursty loss is plain i.i.d. loss.
        let spec = FaultSpec::none().with_bursty_loss(BurstySpec {
            p_gb: 0.2,
            p_bg: 0.3,
            loss_good: 0.25,
            loss_bad: 0.25,
        });
        assert_eq!(spec.reduce(), FaultReduction::ExtraIidLoss(0.25));
        // Real burstiness has no closed form.
        let spec = FaultSpec::none().with_bursty_loss(BurstySpec {
            p_gb: 0.05,
            p_bg: 0.15,
            loss_good: 0.0,
            loss_bad: 0.8,
        });
        assert!(matches!(spec.reduce(), FaultReduction::Unsupported(_)));
        assert!(matches!(
            FaultSpec::none()
                .with_churn(ChurnSpec::symmetric(5.0, 100))
                .reduce(),
            FaultReduction::Unsupported(_)
        ));
    }

    #[test]
    fn labels_compose() {
        let spec = FaultSpec::none()
            .with_churn(ChurnSpec::symmetric(2.0, 200))
            .with_zone_failure(vec![0, 3], 5)
            .with_adversary(999, AdversaryStrategy::WorstCase);
        assert_eq!(
            spec.label(),
            "churn(j=2,l=2,h=200ms)+zones([0,3]@5ms)+adv(f=999,worst)"
        );
    }

    #[test]
    fn zone_members_matches_clustered_layout() {
        // n = 10, zones = 3: generator's zone_of(v) = v * zones / n.
        let zone_of = |v: usize| v * 3 / 10;
        for zone in 0..3 {
            for v in zone_members(10, 3, zone) {
                assert_eq!(zone_of(v), zone, "member {v} of zone {zone}");
            }
        }
        let total: usize = (0..3).map(|z| zone_members(10, 3, z).len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn killed_members_spares_the_source_and_needs_clusters() {
        let z = ZoneFailureSpec {
            zones: vec![2, 0],
            at_ms: 0,
        };
        // n = 10, zones = 3: zone 2 = {7, 8, 9}, zone 0 = {0..=3}.
        assert_eq!(
            z.killed_members(10, &clustered(3), 0).unwrap(),
            vec![7, 8, 9, 1, 2, 3]
        );
        assert_eq!(
            z.killed_members(10, &clustered(3), 8).unwrap(),
            vec![7, 9, 0, 1, 2, 3]
        );
        let err = z.killed_members(10, &TopologySpec::default(), 0);
        assert_eq!(err.unwrap_err().name, "zone_failure");
    }

    #[test]
    fn serde_round_trip() {
        let spec = FaultSpec::none()
            .with_churn(ChurnSpec::symmetric(3.0, 150))
            .with_bursty_loss(BurstySpec {
                p_gb: 0.05,
                p_bg: 0.15,
                loss_good: 0.0,
                loss_bad: 0.8,
            })
            .with_adversary(42, AdversaryStrategy::Random);
        let json = serde::json::to_string(&spec).unwrap();
        let back: FaultSpec = serde::json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
