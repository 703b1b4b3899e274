//! The paper's analytic law — the one fixed point every analytic answer
//! in this crate reads (§4).
//!
//! One execution of the gossip algorithm induces a random graph whose
//! degree distribution is the fanout distribution `P`; fail-stop crashes
//! remove ("unoccupy") each non-source node independently with
//! probability `1 − q` (site percolation, Callaway et al., the paper's
//! reference \[15\], with the uniform occupation `q_k = q` of Eq. 1).
//! Message loss, an extension beyond the paper, thins each edge
//! independently: a copy is delivered with probability `b = 1 − ℓ`
//! (bond percolation). With `u` the probability that an edge leads to a
//! node outside the giant component,
//!
//! ```text
//! u = (1 − b) + b·[(1 − q) + q·G1(u)],       R = 1 − G0(u).
//! ```
//!
//! At `ℓ = 0` this is the paper's `u = 1 − q + q·G1(u)` (Callaway et
//! al.'s form; Eq. 4 as printed carries a sign typo), and `R` is the
//! fraction of **nonfailed** members inside the giant component — the
//! paper's reliability `S` of Eq. 11 and Figs. 2, 4, 5. A giant
//! component exists iff `b·q·G1'(1) > 1`; at `ℓ = 0` that is Eq. 3's
//! `q > q_c = 1/G1'(1)` ([`critical_q`]). For Poisson fanout the law
//! collapses to `R = 1 − e^{−z·b·q·R}` ([`crate::poisson_case`]): loss
//! multiplies into the epidemic product `z·q`, so a deployment can trade
//! fanout against loss one for one.

use crate::distribution::FanoutDistribution;
use crate::error::ModelError;
use crate::solver::smallest_fixed_point;

/// Convergence tolerance for the `u` fixed point.
const U_TOL: f64 = 1e-13;
/// Iteration budget for the `u` fixed point (generous: near-critical
/// convergence is linear with rate → 1).
const U_MAX_ITER: usize = 4_000_000;

/// Critical nonfailed ratio `q_c = 1 / G1'(1)` (paper Eq. 3); for
/// Poisson fanout `1/z` (Eq. 10).
///
/// `None` when the distribution has no excess degree at all
/// (`G1'(1) = 0`, e.g. fixed fanout ≤ 1) — then no `q` percolates.
/// Values above 1 mean the graph does not percolate even without
/// failures.
pub fn critical_q<D: FanoutDistribution + ?Sized>(dist: &D) -> Option<f64> {
    let g1p = dist.g1_prime_at_one();
    (g1p > 0.0).then(|| 1.0 / g1p)
}

/// The percolated gossip graph `Gossip(n, P, q)` under message loss `ℓ`,
/// seen through the generating-function formalism. Borrow-based:
/// analysis never needs to own the distribution.
#[derive(Clone, Copy, Debug)]
pub struct PaperLaw<'a, D: FanoutDistribution + ?Sized> {
    dist: &'a D,
    q: f64,
    loss: f64,
}

impl<'a, D: FanoutDistribution + ?Sized> PaperLaw<'a, D> {
    /// The law for fanout distribution `dist`, nonfailed member ratio
    /// `q ∈ (0, 1]` and message loss probability `loss ∈ [0, 1)`.
    pub fn new(dist: &'a D, q: f64, loss: f64) -> Result<Self, ModelError> {
        if !(q.is_finite() && q > 0.0 && q <= 1.0) {
            return Err(ModelError::InvalidParameter {
                name: "q",
                value: q,
                requirement: "nonfailed member ratio must lie in (0, 1]",
            });
        }
        if !(loss.is_finite() && (0.0..1.0).contains(&loss)) {
            return Err(ModelError::InvalidParameter {
                name: "loss",
                value: loss,
                requirement: "message loss probability must lie in [0, 1)",
            });
        }
        Ok(Self { dist, q, loss })
    }

    /// Mean branching number `b·q·G1'(1)`: how many members a reached
    /// member passes the message on to, beyond the edge it came in by.
    fn branching(&self) -> f64 {
        (1.0 - self.loss) * self.q * self.dist.g1_prime_at_one()
    }

    /// Whether a giant component (nonzero reliability) exists:
    /// `b·q·G1'(1) > 1`, the law's one threshold test.
    fn is_supercritical(&self) -> bool {
        self.branching() > 1.0
    }

    /// Solves `u = (1 − b) + b·[(1 − q) + q·G1(u)]` for the smallest root
    /// in `[0, 1]`: an edge leads outside the giant component if its copy
    /// is lost (`1 − b`), its head failed (`1 − q`), or its head is
    /// nonfailed but heads a finite branch (`q·G1(u)`).
    pub fn u(&self) -> Result<f64, ModelError> {
        // Subcritical: the only root is the trivial u = 1, which the
        // iteration would crawl toward; answer directly.
        if !self.is_supercritical() {
            return Ok(1.0);
        }
        let (b, q) = (1.0 - self.loss, self.q);
        let fp = smallest_fixed_point(
            |u| (1.0 - b) + b * ((1.0 - q) + q * self.dist.g1(u)),
            0.0,
            0.0,
            1.0,
            U_TOL,
            U_MAX_ITER,
        )?;
        Ok(fp.value)
    }

    /// Reliability of gossiping `R = 1 − G0(u)`: the probability that a
    /// randomly chosen **nonfailed** member belongs to the giant
    /// component and hence receives the message.
    pub fn reliability(&self) -> Result<f64, ModelError> {
        let u = self.u()?;
        // Clamp tiny negative values from G0 rounding.
        Ok((1.0 - self.dist.g0(u)).clamp(0.0, 1.0))
    }

    /// Critical loss probability at this `q`: `1 − q_c/q`, the loss at
    /// which the branching number falls to 1. `None` when even lossless
    /// transmission cannot percolate.
    pub fn critical_loss(&self) -> Option<f64> {
        let b_crit = critical_q(self.dist)? / self.q;
        (b_crit <= 1.0).then_some(1.0 - b_crit)
    }

    /// Mean size of the finite components, `⟨s⟩ = q·[1 + b·q·G0'(1)/(1 −
    /// b·q·G1'(1))]` (paper Eq. 2 at `b = 1`).
    ///
    /// Defined below the threshold; `None` at or above it, where the
    /// formula diverges (that divergence *is* the phase transition).
    pub fn mean_component_size(&self) -> Option<f64> {
        let branching = self.branching();
        if branching >= 1.0 {
            return None;
        }
        let (b, q) = (1.0 - self.loss, self.q);
        Some(q * (1.0 + b * q * self.dist.g0_prime(1.0) / (1.0 - branching)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{
        EmpiricalFanout, FixedFanout, GeometricFanout, PoissonFanout, UniformFanout,
    };
    use crate::poisson_case::{self, reliability_with_loss};
    use crate::success;

    fn poisson_reliability(z: f64, q: f64) -> f64 {
        let d = PoissonFanout::new(z);
        PaperLaw::new(&d, q, 0.0).unwrap().reliability().unwrap()
    }

    #[test]
    fn paper_headline_number() {
        // §5.2: {f = 4.0, q = 0.9} and {f = 6.0, q = 0.6} both give
        // reliability "0.967" (product f·q = 3.6). The exact root of
        // Eq. 11 at zq = 3.6 is 0.969506; the paper's 0.967 is a rounded
        // simulation estimate, so allow that slack here.
        let r1 = poisson_reliability(4.0, 0.9);
        let r2 = poisson_reliability(6.0, 0.6);
        assert!((r1 - 0.969_506).abs() < 1e-5, "R(4.0, 0.9) = {r1}");
        assert!(
            (r1 - 0.967).abs() < 4e-3,
            "must stay near the paper's 0.967"
        );
        assert!((r1 - r2).abs() < 1e-9, "identical f·q must match");
    }

    #[test]
    fn doc_example_numbers() {
        let d = PoissonFanout::new(4.0);
        let law = PaperLaw::new(&d, 0.9, 0.0).unwrap();
        let r = law.reliability().unwrap();
        assert!((r - 0.967).abs() < 5e-3);
        // The paper works Eq. 6 with its rounded p_r = 0.967 and gets
        // t = 3; the exact root p_r = 0.969506 sits just across the
        // integer boundary, giving t = 2 (1 − (1−0.9695)² ≈ 0.99907).
        assert_eq!(success::required_executions(r, 0.999).unwrap(), 2);
        assert!(
            success::required_executions(0.967, 0.999).unwrap() == 3,
            "paper's rounded p_r reproduces its t = 3"
        );
        assert!(law.is_supercritical());
        assert!((critical_q(&d).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn subcritical_model() {
        let d = PoissonFanout::new(4.0);
        let law = PaperLaw::new(&d, 0.2, 0.0).unwrap();
        assert!(!law.is_supercritical());
        let r = law.reliability().unwrap();
        assert_eq!(r, 0.0);
        assert!(success::required_executions(r, 0.9).is_err());
        assert!((success::success_probability(r, 10) - 0.0).abs() < 1e-15);
    }

    #[test]
    fn poisson_fixed_point_identity() {
        // R must satisfy Eq. 11: S = 1 − e^{−zqS}.
        for &(z, q) in &[(2.0, 1.0), (3.0, 0.8), (5.0, 0.5), (1.5, 0.9)] {
            let s = poisson_reliability(z, q);
            let rhs = 1.0 - (-z * q * s).exp();
            assert!(
                (s - rhs).abs() < 1e-9,
                "z={z}, q={q}: S = {s}, 1 - e^(-zqS) = {rhs}"
            );
        }
    }

    #[test]
    fn critical_point_poisson() {
        // Eq. 10: q_c = 1/z.
        let d = PoissonFanout::new(4.0);
        assert!((critical_q(&d).unwrap() - 0.25).abs() < 1e-12);
        // Just below critical: reliability 0. Just above: positive.
        let below = PaperLaw::new(&d, 0.24, 0.0).unwrap();
        assert!(below.reliability().unwrap() < 1e-6);
        assert!(!below.is_supercritical());
        let above = PaperLaw::new(&d, 0.30, 0.0).unwrap();
        assert!(above.reliability().unwrap() > 0.1);
        assert!(above.is_supercritical());
    }

    #[test]
    fn reliability_monotone_in_q_and_z() {
        let mut prev = 0.0;
        for i in 1..=10 {
            let q = i as f64 / 10.0;
            let r = poisson_reliability(4.0, q);
            assert!(r >= prev - 1e-12, "not monotone in q at q = {q}");
            prev = r;
        }
        prev = 0.0;
        for i in 1..=20 {
            let z = i as f64 / 2.0;
            let r = poisson_reliability(z, 0.8);
            assert!(r >= prev - 1e-12, "not monotone in z at z = {z}");
            prev = r;
        }
    }

    #[test]
    fn no_failures_is_classic_giant_component() {
        // q = 1, Po(z): S = 1 − e^{−zS}; at z = 1 the transition point,
        // S = 0; at z = 2, S ≈ 0.7968.
        let r = poisson_reliability(2.0, 1.0);
        assert!((r - 0.796_812).abs() < 1e-4, "got {r}");
        let r = poisson_reliability(1.0, 1.0);
        assert!(r < 1e-4, "at the critical point S should vanish, got {r}");
    }

    #[test]
    fn fixed_fanout_degenerates() {
        // Fixed fanout 1 → perfect matching, no giant component ever.
        let d1 = FixedFanout::new(1);
        let p = PaperLaw::new(&d1, 1.0, 0.0).unwrap();
        assert_eq!(critical_q(&d1), None);
        assert_eq!(p.reliability().unwrap(), 0.0);
        // Fixed fanout 0 → nobody relays.
        let d0 = FixedFanout::new(0);
        let p0 = PaperLaw::new(&d0, 1.0, 0.0).unwrap();
        assert_eq!(p0.reliability().unwrap(), 0.0);
    }

    #[test]
    fn never_percolating_distribution() {
        let d = FixedFanout::new(1);
        let p = PaperLaw::new(&d, 1.0, 0.0).unwrap();
        assert_eq!(critical_q(&d), None);
        assert!(!p.is_supercritical());
        assert_eq!(p.reliability().unwrap(), 0.0);
    }

    #[test]
    fn fixed_fanout_three_known_value() {
        // 3-regular graph: u = u² (from G1(u) = u², q = 1) → u = 0,
        // S = 1 − G0(0) = 1. Full percolation.
        let d = FixedFanout::new(3);
        let p = PaperLaw::new(&d, 1.0, 0.0).unwrap();
        assert!((p.reliability().unwrap() - 1.0).abs() < 1e-9);
        // q_c = 1/2 for fixed fanout 3 (G1'(1) = 2).
        assert!((critical_q(&d).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_component_size_diverges_at_critical() {
        let d = PoissonFanout::new(4.0); // q_c = 0.25
        let size = |q| PaperLaw::new(&d, q, 0.0).unwrap().mean_component_size();
        let s_sub = size(0.10).unwrap();
        assert!(s_sub > 0.0 && s_sub.is_finite());
        let s_near = size(0.24).unwrap();
        assert!(
            s_near > s_sub,
            "⟨s⟩ must grow toward the transition: {s_near} vs {s_sub}"
        );
        assert_eq!(size(0.25), None);
        assert_eq!(size(0.5), None);
    }

    #[test]
    fn eq2_value_check() {
        // Hand-check Eq. 2 for Po(z=2), q = 0.2 (subcritical, q_c = 0.5):
        // <s> = q[1 + q·z/(1 − q·z)] = 0.2·[1 + 0.4/0.6]. Loss thins the
        // fanout, so Po(4) at ℓ = 0.5 has the same size.
        let expect = 0.2 * (1.0 + 0.4 / 0.6);
        for (z, loss) in [(2.0, 0.0), (4.0, 0.5)] {
            let d = PoissonFanout::new(z);
            let size = PaperLaw::new(&d, 0.2, loss).unwrap().mean_component_size();
            assert!((size.unwrap() - expect).abs() < 1e-12, "z = {z}");
        }
    }

    #[test]
    fn heavy_tail_beats_poisson_at_equal_mean() {
        // Geometric fanout percolates earlier (smaller q_c) than Poisson
        // with the same mean because G1'(1) = 2z vs z.
        let g = GeometricFanout::with_mean(3.0);
        let p = PoissonFanout::new(3.0);
        assert!(critical_q(&g).unwrap() < critical_q(&p).unwrap());
    }

    #[test]
    fn uniform_and_empirical_consistency() {
        // U[2,6] has the same mean as Po(4); reliabilities should be in
        // the same ballpark but not equal.
        let u = UniformFanout::new(2, 6);
        let ru = PaperLaw::new(&u, 0.9, 0.0).unwrap().reliability().unwrap();
        assert!(ru > 0.9, "U[2,6] at q=0.9 should be highly reliable: {ru}");
        let e = EmpiricalFanout::new(&[0.0, 0.0, 0.2, 0.2, 0.2, 0.2, 0.2]);
        let re = PaperLaw::new(&e, 0.9, 0.0).unwrap().reliability().unwrap();
        assert!((ru - re).abs() < 1e-9, "same table, same result");
    }

    #[test]
    fn rejects_bad_q() {
        let d = PoissonFanout::new(2.0);
        for q in [0.0, -0.1, 1.1, f64::NAN] {
            assert!(PaperLaw::new(&d, q, 0.0).is_err(), "q = {q}");
        }
    }

    #[test]
    fn construction_errors() {
        let d = PoissonFanout::new(4.0);
        assert!(PaperLaw::new(&d, 0.0, 0.0).is_err());
        assert!(PaperLaw::new(&d, 1.01, 0.0).is_err());
    }

    #[test]
    fn zero_loss_reduces_to_site_percolation() {
        // At ℓ = 0 the law's u is the root of the paper's crash-only map
        // u = 1 − q + q·G1(u).
        let d = GeometricFanout::with_mean(3.0);
        for &q in &[0.5, 0.9, 1.0] {
            let u = PaperLaw::new(&d, q, 0.0).unwrap().u().unwrap();
            let site = 1.0 - q + q * d.g1(u);
            assert!((u - site).abs() < 1e-10, "q = {q}: u {u} vs map {site}");
        }
    }

    #[test]
    fn poisson_loss_folds_into_product() {
        // The generic law must match the closed form R = f(z·b·q).
        let d = PoissonFanout::new(5.0);
        for &(q, loss) in &[(0.9, 0.1), (0.8, 0.3), (1.0, 0.5), (0.6, 0.2)] {
            let generic = PaperLaw::new(&d, q, loss).unwrap().reliability().unwrap();
            let closed = reliability_with_loss(5.0, q, loss).unwrap();
            assert!(
                (generic - closed).abs() < 1e-8,
                "q={q}, ℓ={loss}: generic {generic} vs closed {closed}"
            );
        }
    }

    #[test]
    fn loss_fanout_equivalence() {
        // z(1−ℓ) at zero loss ≡ z at loss ℓ (Poisson only).
        let with_loss = reliability_with_loss(6.0, 0.9, 0.25).unwrap();
        let thinned = poisson_case::reliability(4.5, 0.9).unwrap();
        assert!((with_loss - thinned).abs() < 1e-12);
    }

    #[test]
    fn critical_loss_surface() {
        // Po(4), q = 0.5: b_crit = 1/(0.5·4) = 0.5 → loss_crit = 0.5.
        let d = PoissonFanout::new(4.0);
        let m = PaperLaw::new(&d, 0.5, 0.0).unwrap();
        assert!((m.critical_loss().unwrap() - 0.5).abs() < 1e-12);
        // Just below the critical loss: alive; above: dead.
        let alive = PaperLaw::new(&d, 0.5, 0.45).unwrap();
        assert!(alive.is_supercritical());
        assert!(alive.reliability().unwrap() > 0.0);
        let dead = PaperLaw::new(&d, 0.5, 0.55).unwrap();
        assert!(!dead.is_supercritical());
        assert_eq!(dead.reliability().unwrap(), 0.0);
        // Eq. 2's ⟨s⟩ diverges at the critical loss, not at q_c.
        assert!(dead.mean_component_size().is_some());
        assert_eq!(alive.mean_component_size(), None);
    }

    #[test]
    fn critical_loss_none_when_hopeless() {
        // Po(1.5) at q = 0.5: even lossless zq = 0.75 < 1.
        let d = PoissonFanout::new(1.5);
        let m = PaperLaw::new(&d, 0.5, 0.0).unwrap();
        assert_eq!(m.critical_loss(), None);
        // Fixed(1) never percolates at all.
        let f1 = FixedFanout::new(1);
        assert_eq!(PaperLaw::new(&f1, 1.0, 0.0).unwrap().critical_loss(), None);
    }

    #[test]
    fn reliability_monotone_in_loss() {
        let d = PoissonFanout::new(4.0);
        let mut last = 1.0;
        for i in 0..8 {
            let loss = i as f64 * 0.1;
            let r = PaperLaw::new(&d, 0.9, loss).unwrap().reliability().unwrap();
            assert!(r <= last + 1e-12, "loss {loss}: R must fall");
            last = r;
        }
    }

    #[test]
    fn rejects_bad_loss() {
        let d = PoissonFanout::new(3.0);
        assert!(PaperLaw::new(&d, 0.9, 1.0).is_err());
        assert!(PaperLaw::new(&d, 0.9, -0.1).is_err());
        assert!(reliability_with_loss(3.0, 0.9, 1.0).is_err());
    }
}
