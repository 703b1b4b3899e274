//! Serde-friendly overlay and peer-selection descriptions.
//!
//! A [`TopologySpec`] is pure data — which overlay family the group is
//! wired as, and how a member picks gossip targets from its neighbour
//! list — validated against the group size before anything is built.
//! The default (`Complete` + `UniformGlobal`) is exactly the paper's
//! assumption, so every evaluation layer treats it as "no topology" and
//! keeps its original uniform-sampling code path bit for bit.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::csr::Topology;
use crate::generate;

/// A malformed topology parameter. Field-compatible with the model
/// layer's `InvalidParameter` error so callers can map it losslessly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopologyError {
    /// Parameter name, e.g. `"k"`.
    pub name: &'static str,
    /// Offending value.
    pub value: f64,
    /// Human-readable domain description.
    pub requirement: &'static str,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid topology parameter {} = {}: {}",
            self.name, self.value, self.requirement
        )
    }
}

impl std::error::Error for TopologyError {}

fn invalid(name: &'static str, value: f64, requirement: &'static str) -> TopologyError {
    TopologyError {
        name,
        value,
        requirement,
    }
}

/// Which overlay family the group is wired as.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum OverlaySpec {
    /// Everyone adjacent to everyone — the paper's assumption.
    Complete,
    /// A cycle `0–1–…–(n−1)–0` plus `shortcuts` random chords
    /// (distinct, non-adjacent pairs).
    Ring {
        /// Number of random chords added to the cycle.
        shortcuts: usize,
    },
    /// The `k`-regular circulant lattice: each node adjacent to its
    /// `⌊k/2⌋` nearest successors and predecessors in id order (plus its
    /// antipode when `k` is odd, which requires even `n`).
    KRegular {
        /// Node degree (`n·k` must be even).
        k: usize,
    },
    /// Watts–Strogatz small world: the even-`k` circulant, with each
    /// clockwise lattice edge rewired to a uniform random endpoint with
    /// probability `beta`.
    WattsStrogatz {
        /// Base lattice degree (even, `2 ≤ k < n`).
        k: usize,
        /// Rewiring probability in `[0, 1]`.
        beta: f64,
    },
    /// Erased configuration model with a truncated power-law degree
    /// sequence `deg^(−alpha)` on `[kmin, kmax]` (parity of the stub
    /// count is fixed by bumping one random node).
    PowerLaw {
        /// Exponent `alpha > 0`.
        alpha: f64,
        /// Smallest degree (`≥ 1`).
        kmin: usize,
        /// Largest degree (inclusive, `< n`).
        kmax: usize,
    },
    /// Datacenter-style layout: `zones` contiguous zones; every node
    /// draws `intra` random peers inside its zone and `inter` random
    /// peers outside it (undirected union, so mean degree ≈
    /// `2·(intra + inter)`).
    Clustered {
        /// Number of zones (`≥ 1`; sizes differ by at most one).
        zones: usize,
        /// Random intra-zone peers drawn per node.
        intra: usize,
        /// Random cross-zone peers drawn per node.
        inter: usize,
    },
    /// SCAMP partial views (the membership service the paper cites,
    /// its reference \[12\]): each member's neighbour list is the view
    /// a subscription walk leaves it, of expected size `(c + 1)·ln n`.
    /// Views are directed — a member's view need not hold it in return.
    Scamp {
        /// Redundancy: extra copies of each subscription
        /// (`c + 2 < n`, and `c ≤ 64` so a join costs a bounded walk).
        c: usize,
    },
}

/// Largest SCAMP redundancy `c` a spec may ask for. Each join forwards
/// `|view| + c + 1` subscription copies and views grow as
/// `(c + 1)·ln n`, so the ceiling bounds both the work per join and
/// the overlay's size; SCAMP itself runs with a `c` of a few units.
const SCAMP_MAX_C: usize = 64;

impl OverlaySpec {
    /// Checks every parameter against the group size `n` (which the
    /// scenario layer has already checked to be `≥ 2`).
    pub fn validate(&self, n: usize) -> Result<(), TopologyError> {
        match *self {
            OverlaySpec::Complete => Ok(()),
            OverlaySpec::Ring { shortcuts } => {
                if n < 3 {
                    return Err(invalid("n", n as f64, "a ring overlay needs n >= 3"));
                }
                // Chords join non-adjacent pairs: n(n-3)/2 of them exist.
                let max_chords = n * (n - 3) / 2;
                if shortcuts > max_chords {
                    return Err(invalid(
                        "shortcuts",
                        shortcuts as f64,
                        "ring shortcuts cannot exceed n(n-3)/2 distinct chords",
                    ));
                }
                Ok(())
            }
            OverlaySpec::KRegular { k } => {
                if k == 0 || k >= n {
                    return Err(invalid("k", k as f64, "k-regular degree needs 1 <= k < n"));
                }
                if !(n * k).is_multiple_of(2) {
                    return Err(invalid(
                        "k",
                        k as f64,
                        "k-regular overlay needs an even degree sum (n*k must be even)",
                    ));
                }
                Ok(())
            }
            OverlaySpec::WattsStrogatz { k, beta } => {
                if k < 2 || k >= n {
                    return Err(invalid(
                        "k",
                        k as f64,
                        "Watts-Strogatz lattice degree needs 2 <= k < n",
                    ));
                }
                if k % 2 != 0 {
                    return Err(invalid(
                        "k",
                        k as f64,
                        "Watts-Strogatz lattice degree must be even",
                    ));
                }
                if !(beta.is_finite() && (0.0..=1.0).contains(&beta)) {
                    return Err(invalid(
                        "beta",
                        beta,
                        "rewiring probability must lie in [0, 1]",
                    ));
                }
                Ok(())
            }
            OverlaySpec::PowerLaw { alpha, kmin, kmax } => {
                if !(alpha.is_finite() && alpha > 0.0) {
                    return Err(invalid(
                        "alpha",
                        alpha,
                        "power-law exponent must be positive and finite",
                    ));
                }
                if kmin < 1 || kmin > kmax {
                    return Err(invalid(
                        "kmin",
                        kmin as f64,
                        "power-law degrees need 1 <= kmin <= kmax",
                    ));
                }
                if kmax >= n {
                    return Err(invalid(
                        "kmax",
                        kmax as f64,
                        "power-law degrees must stay below the group size",
                    ));
                }
                Ok(())
            }
            OverlaySpec::Clustered {
                zones,
                intra,
                inter,
            } => {
                if zones == 0 {
                    return Err(invalid(
                        "zones",
                        0.0,
                        "clustered overlay needs at least one zone",
                    ));
                }
                if zones > n {
                    return Err(invalid(
                        "zones",
                        zones as f64,
                        "cannot have more zones than members",
                    ));
                }
                // Contiguous zones: the smallest has floor(n/zones) members.
                let min_zone = n / zones;
                if intra == 0 || intra >= min_zone {
                    return Err(invalid(
                        "intra",
                        intra as f64,
                        "intra-zone degree needs 1 <= intra < smallest zone size",
                    ));
                }
                if zones == 1 {
                    if inter != 0 {
                        return Err(invalid(
                            "inter",
                            inter as f64,
                            "a single-zone overlay has no cross-zone peers",
                        ));
                    }
                } else {
                    // Largest zone = ceil(n/zones); everyone else is eligible.
                    let max_zone = n.div_ceil(zones);
                    if inter > n - max_zone {
                        return Err(invalid(
                            "inter",
                            inter as f64,
                            "cross-zone degree cannot exceed the members outside a zone",
                        ));
                    }
                }
                Ok(())
            }
            OverlaySpec::Scamp { c } => {
                if c > SCAMP_MAX_C {
                    return Err(invalid(
                        "c",
                        c as f64,
                        "SCAMP redundancy is capped at 64 (bounded work per join)",
                    ));
                }
                if c + 2 >= n {
                    return Err(invalid(
                        "c",
                        c as f64,
                        "SCAMP needs c + 2 < n (the c + 2 bootstrap members must leave a joiner)",
                    ));
                }
                Ok(())
            }
        }
    }

    /// Short human-readable label, e.g. `ring(s=2000)`.
    pub fn label(&self) -> String {
        match *self {
            OverlaySpec::Complete => String::from("complete"),
            OverlaySpec::Ring { shortcuts } => format!("ring(s={shortcuts})"),
            OverlaySpec::KRegular { k } => format!("kreg({k})"),
            OverlaySpec::WattsStrogatz { k, beta } => format!("ws(k={k},beta={beta})"),
            OverlaySpec::PowerLaw { alpha, kmin, kmax } => {
                format!("plaw(a={alpha},[{kmin},{kmax}])")
            }
            OverlaySpec::Clustered {
                zones,
                intra,
                inter,
            } => format!("clustered(z={zones},intra={intra},inter={inter})"),
            OverlaySpec::Scamp { c } => format!("scamp(c={c})"),
        }
    }
}

/// How a member picks gossip targets from its neighbour list (the
/// ciruela peer-selection strategies, generalized to arbitrary
/// overlays).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeerSelection {
    /// Uniform over the whole group — the paper's rule. Only valid on
    /// the complete overlay, where "everyone" and "my neighbours"
    /// coincide.
    UniformGlobal,
    /// `f` distinct uniform draws from the neighbour list.
    RandomNeighbour,
    /// The first `f` neighbours after this node in cyclic id order
    /// (deterministic; the `idx+1, idx+2` pattern).
    NextPair,
    /// Exponentially spaced neighbours in cyclic id order — ranks
    /// `1, 2, 4, 8, …` into the rotated neighbour list (deterministic;
    /// the `idx+1, +3, +7, +15` pattern).
    SkipFew,
}

impl PeerSelection {
    /// Short label, e.g. `neigh`.
    pub fn label(&self) -> &'static str {
        match self {
            PeerSelection::UniformGlobal => "uniform",
            PeerSelection::RandomNeighbour => "neigh",
            PeerSelection::NextPair => "next-pair",
            PeerSelection::SkipFew => "skip-few",
        }
    }
}

/// The full topology description a scenario carries: overlay wiring
/// plus peer-selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TopologySpec {
    /// Overlay family.
    pub overlay: OverlaySpec,
    /// Target-selection policy over the neighbour list.
    pub selection: PeerSelection,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            overlay: OverlaySpec::Complete,
            selection: PeerSelection::UniformGlobal,
        }
    }
}

impl TopologySpec {
    /// A spec with the given overlay and the random-neighbour policy
    /// (the natural generalization of the paper's uniform rule).
    pub fn new(overlay: OverlaySpec) -> Self {
        TopologySpec {
            overlay,
            selection: PeerSelection::RandomNeighbour,
        }
    }

    /// Replaces the peer-selection policy.
    pub fn with_selection(mut self, selection: PeerSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Whether this is the paper's default (`Complete` +
    /// `UniformGlobal`) — the spec every evaluation layer treats as
    /// "no structured topology".
    pub fn is_default(&self) -> bool {
        *self == TopologySpec::default()
    }

    /// Validates overlay parameters against the group size and the
    /// overlay/selection combination.
    pub fn validate(&self, n: usize) -> Result<(), TopologyError> {
        self.overlay.validate(n)?;
        if self.selection == PeerSelection::UniformGlobal && self.overlay != OverlaySpec::Complete {
            return Err(invalid(
                "selection",
                f64::NAN,
                "uniform-global selection requires the complete overlay; structured overlays gossip to neighbours only",
            ));
        }
        Ok(())
    }

    /// One-line label, e.g. `ring(s=2000)/neigh`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.overlay.label(), self.selection.label())
    }

    /// Builds the overlay adjacency, deterministically in `seed`.
    /// Parameters must have been validated.
    pub fn build(&self, n: usize, seed: u64) -> Topology {
        generate::build_overlay(&self.overlay, n, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_assumption() {
        let spec = TopologySpec::default();
        assert!(spec.is_default());
        assert_eq!(spec.overlay, OverlaySpec::Complete);
        assert_eq!(spec.selection, PeerSelection::UniformGlobal);
        assert!(spec.validate(100).is_ok());
        assert!(!TopologySpec::new(OverlaySpec::Ring { shortcuts: 5 }).is_default());
    }

    #[test]
    fn rejects_k_at_least_n() {
        let spec = TopologySpec::new(OverlaySpec::KRegular { k: 50 });
        let err = spec.validate(50).unwrap_err();
        assert_eq!(err.name, "k");
        assert!(spec.validate(51).is_ok());
    }

    #[test]
    fn rejects_odd_degree_sum() {
        // n = 51, k = 3: degree sum 153 is odd — no such graph exists.
        let spec = TopologySpec::new(OverlaySpec::KRegular { k: 3 });
        let err = spec.validate(51).unwrap_err();
        assert!(err.requirement.contains("even degree sum"));
        // Even n makes it fine (antipode edge completes odd k).
        assert!(spec.validate(52).is_ok());
    }

    #[test]
    fn rejects_beta_outside_unit_interval() {
        for beta in [-0.1, 1.5, f64::NAN] {
            let spec = TopologySpec::new(OverlaySpec::WattsStrogatz { k: 4, beta });
            assert_eq!(spec.validate(100).unwrap_err().name, "beta");
        }
        assert!(
            TopologySpec::new(OverlaySpec::WattsStrogatz { k: 4, beta: 0.5 })
                .validate(100)
                .is_ok()
        );
    }

    #[test]
    fn rejects_odd_ws_lattice_degree() {
        let spec = TopologySpec::new(OverlaySpec::WattsStrogatz { k: 5, beta: 0.1 });
        assert_eq!(spec.validate(100).unwrap_err().name, "k");
    }

    #[test]
    fn rejects_zero_zones_and_oversized_intra() {
        let zero = TopologySpec::new(OverlaySpec::Clustered {
            zones: 0,
            intra: 2,
            inter: 1,
        });
        assert_eq!(zero.validate(100).unwrap_err().name, "zones");
        let fat = TopologySpec::new(OverlaySpec::Clustered {
            zones: 10,
            intra: 10, // zone size is 10: only 9 other members inside
            inter: 1,
        });
        assert_eq!(fat.validate(100).unwrap_err().name, "intra");
        let fine = TopologySpec::new(OverlaySpec::Clustered {
            zones: 10,
            intra: 4,
            inter: 1,
        });
        assert!(fine.validate(100).is_ok());
    }

    #[test]
    fn rejects_uniform_global_on_structured_overlays() {
        let spec = TopologySpec::new(OverlaySpec::Ring { shortcuts: 10 })
            .with_selection(PeerSelection::UniformGlobal);
        assert_eq!(spec.validate(100).unwrap_err().name, "selection");
        // But any selection is valid on the complete overlay.
        for selection in [
            PeerSelection::RandomNeighbour,
            PeerSelection::NextPair,
            PeerSelection::SkipFew,
        ] {
            let spec = TopologySpec::new(OverlaySpec::Complete).with_selection(selection);
            assert!(spec.validate(100).is_ok());
        }
    }

    #[test]
    fn rejects_power_law_degrees_reaching_n() {
        let spec = TopologySpec::new(OverlaySpec::PowerLaw {
            alpha: 2.5,
            kmin: 2,
            kmax: 100,
        });
        assert_eq!(spec.validate(100).unwrap_err().name, "kmax");
        let inverted = TopologySpec::new(OverlaySpec::PowerLaw {
            alpha: 2.5,
            kmin: 8,
            kmax: 4,
        });
        assert_eq!(inverted.validate(100).unwrap_err().name, "kmin");
    }

    #[test]
    fn ring_shortcut_budget() {
        // n = 10: 10·7/2 = 35 possible chords.
        let over = TopologySpec::new(OverlaySpec::Ring { shortcuts: 36 });
        assert_eq!(over.validate(10).unwrap_err().name, "shortcuts");
        assert!(TopologySpec::new(OverlaySpec::Ring { shortcuts: 35 })
            .validate(10)
            .is_ok());
    }

    #[test]
    fn scamp_bounds_its_redundancy() {
        let scamp = |c| TopologySpec::new(OverlaySpec::Scamp { c });
        for c in [usize::MAX, 1_000_000_000, 65, 198] {
            assert_eq!(scamp(c).validate(200).unwrap_err().name, "c", "c = {c}");
        }
        assert!(scamp(64).validate(200).is_ok());
        assert!(scamp(0).validate(3).is_ok());
        assert_eq!(scamp(1).validate(3).unwrap_err().name, "c");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TopologySpec::default().label(), "complete/uniform");
        assert_eq!(
            TopologySpec::new(OverlaySpec::WattsStrogatz { k: 8, beta: 0.2 })
                .with_selection(PeerSelection::SkipFew)
                .label(),
            "ws(k=8,beta=0.2)/skip-few"
        );
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = TopologySpec::new(OverlaySpec::Clustered {
            zones: 8,
            intra: 5,
            inter: 2,
        })
        .with_selection(PeerSelection::NextPair);
        let text = serde::json::to_string(&spec).expect("serializes");
        let back: TopologySpec = serde::json::from_str(&text).expect("deserializes");
        assert_eq!(back, spec);
        assert!(text.contains("\"Clustered\""));
        assert!(text.contains("\"zones\":8"));
    }

    #[test]
    fn error_display() {
        let err = TopologySpec::new(OverlaySpec::KRegular { k: 9 })
            .validate(5)
            .unwrap_err();
        assert!(err.to_string().contains("k = 9"));
    }
}
