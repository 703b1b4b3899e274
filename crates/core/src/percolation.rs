//! Site percolation on the generalized random graph of gossiping —
//! the analytical heart of the paper (§4).
//!
//! One execution of the gossip algorithm induces a random graph whose
//! degree distribution is the fanout distribution `P`; fail-stop crashes
//! remove ("unoccupy") each non-source node independently with probability
//! `1 − q`. Following Callaway et al. (the paper's reference \[15\]) with
//! the uniform occupation `q_k = q` of the paper's Eq. 1:
//!
//! * `F0(x) = q·G0(x)`, `F1(x) = q·G1(x)`;
//! * the self-consistency condition is `u = 1 − q + q·G1(u)` — `u` is the
//!   probability that an edge leads to a node *not* in the giant
//!   component (Callaway et al.'s form; the paper's Eq. 4 as printed
//!   carries a sign typo);
//! * the giant component occupies a fraction `q·(1 − G0(u))` of **all**
//!   nodes ([`SitePercolation::giant_fraction`]) and a fraction
//!   `1 − G0(u)` of **nonfailed** nodes — the paper's reliability
//!   `R(q, P)` ([`SitePercolation::reliability`]);
//! * the mean size of (non-giant) components is
//!   `⟨s⟩ = q·[1 + q·G0'(1)/(1 − q·G1'(1))]` (Eq. 2), which diverges at
//!   the critical point `q_c = 1/G1'(1)` (Eq. 3).

use crate::distribution::FanoutDistribution;
use crate::error::ModelError;
use crate::solver::smallest_fixed_point;

/// Convergence tolerance for the `u` fixed point.
const U_TOL: f64 = 1e-13;
/// Iteration budget for the `u` fixed point (generous: near-critical
/// convergence is linear with rate → 1).
const U_MAX_ITER: usize = 4_000_000;

/// The percolated gossip random graph `Gossip(n, P, q)` seen through the
/// generating-function formalism. Borrow-based: analysis never needs to
/// own the distribution.
#[derive(Clone, Copy, Debug)]
pub struct SitePercolation<'a, D: FanoutDistribution + ?Sized> {
    dist: &'a D,
    q: f64,
}

impl<'a, D: FanoutDistribution + ?Sized> SitePercolation<'a, D> {
    /// Creates the percolation analysis for fanout distribution `dist`
    /// and nonfailed member ratio `q ∈ (0, 1]`.
    pub fn new(dist: &'a D, q: f64) -> Result<Self, ModelError> {
        if !(q.is_finite() && q > 0.0 && q <= 1.0) {
            return Err(ModelError::InvalidParameter {
                name: "q",
                value: q,
                requirement: "nonfailed member ratio must lie in (0, 1]",
            });
        }
        Ok(Self { dist, q })
    }

    /// The nonfailed member ratio `q`.
    #[inline]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The fanout distribution under analysis.
    #[inline]
    pub fn distribution(&self) -> &'a D {
        self.dist
    }

    /// Critical nonfailed ratio `q_c = 1 / G1'(1)` (paper Eq. 3).
    ///
    /// Returns `None` when the distribution has no excess degree at all
    /// (`G1'(1) = 0`, e.g. fixed fanout ≤ 1) — then no `q` percolates.
    /// Values above 1 mean the graph does not percolate even without
    /// failures.
    pub fn critical_q(&self) -> Option<f64> {
        let g1p = self.dist.g1_prime_at_one();
        if g1p <= 0.0 {
            None
        } else {
            Some(1.0 / g1p)
        }
    }

    /// Whether `(q, P)` lies above the percolation threshold, i.e. a giant
    /// component (nonzero reliability) exists.
    pub fn is_supercritical(&self) -> bool {
        match self.critical_q() {
            Some(qc) => self.q > qc,
            None => false,
        }
    }

    /// Solves the self-consistency condition `u = 1 − q + q·G1(u)` for the
    /// smallest root in `[0, 1]`.
    ///
    /// `u` is the probability that following a random edge leads to a node
    /// outside the giant component (either failed, with probability
    /// `1 − q`, or nonfailed but heading a finite branch, `q·G1(u)`).
    pub fn u(&self) -> Result<f64, ModelError> {
        let q = self.q;
        // Subcritical shortcut: the only root is the trivial u = 1, and
        // the iteration would crawl toward it; answer directly.
        if !self.is_supercritical() {
            return Ok(1.0);
        }
        let fp = smallest_fixed_point(
            |u| 1.0 - q + q * self.dist.g1(u),
            0.0,
            0.0,
            1.0,
            U_TOL,
            U_MAX_ITER,
        )?;
        Ok(fp.value)
    }

    /// Reliability of gossiping `R(q, P)` — the probability that a
    /// randomly chosen **nonfailed** member belongs to the giant component
    /// and hence receives the message (paper's `S` in Eq. 11 and in all of
    /// Figs. 2, 4, 5).
    pub fn reliability(&self) -> Result<f64, ModelError> {
        let u = self.u()?;
        // Clamp tiny negative values from F0 rounding.
        Ok((1.0 - self.dist.g0(u)).clamp(0.0, 1.0))
    }

    /// Fraction of **all** `n` members (failed included) inside the giant
    /// component: `F0(1) − F0(u) = q·(1 − G0(u))`, the paper's Eq. 4 read
    /// literally.
    pub fn giant_fraction(&self) -> Result<f64, ModelError> {
        Ok(self.q * self.reliability()?)
    }

    /// Mean size of the finite components, `⟨s⟩ = q·[1 + q·G0'(1)/(1 −
    /// q·G1'(1))]` (paper Eq. 2).
    ///
    /// Defined below the critical point; returns `None` at or above it,
    /// where the formula diverges (that divergence *is* the phase
    /// transition).
    pub fn mean_component_size(&self) -> Option<f64> {
        let g1p = self.dist.g1_prime_at_one();
        let denom = 1.0 - self.q * g1p;
        if denom <= 0.0 {
            return None;
        }
        Some(self.q * (1.0 + self.q * self.dist.g0_prime(1.0) / denom))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{
        EmpiricalFanout, FixedFanout, GeometricFanout, PoissonFanout, UniformFanout,
    };

    fn poisson_reliability(z: f64, q: f64) -> f64 {
        let d = PoissonFanout::new(z);
        SitePercolation::new(&d, q).unwrap().reliability().unwrap()
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
        let p = SitePercolation::new(&d, 0.5).unwrap();
        assert!((p.critical_q().unwrap() - 0.25).abs() < 1e-12);
        // Just below critical: reliability 0. Just above: positive.
        let below = SitePercolation::new(&d, 0.24).unwrap();
        assert!(below.reliability().unwrap() < 1e-6);
        assert!(!below.is_supercritical());
        let above = SitePercolation::new(&d, 0.30).unwrap();
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
        let p = SitePercolation::new(&d1, 1.0).unwrap();
        assert_eq!(p.critical_q(), None);
        assert_eq!(p.reliability().unwrap(), 0.0);
        // Fixed fanout 0 → nobody relays.
        let d0 = FixedFanout::new(0);
        let p0 = SitePercolation::new(&d0, 1.0).unwrap();
        assert_eq!(p0.reliability().unwrap(), 0.0);
    }

    #[test]
    fn fixed_fanout_three_known_value() {
        // 3-regular graph: u = u² (from G1(u) = u², q = 1) → u = 0,
        // S = 1 − G0(0) = 1. Full percolation.
        let d = FixedFanout::new(3);
        let p = SitePercolation::new(&d, 1.0).unwrap();
        assert!((p.reliability().unwrap() - 1.0).abs() < 1e-9);
        // q_c = 1/2 for fixed fanout 3 (G1'(1) = 2).
        assert!((p.critical_q().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_component_size_diverges_at_critical() {
        let d = PoissonFanout::new(4.0); // q_c = 0.25
        let sub = SitePercolation::new(&d, 0.10).unwrap();
        let s_sub = sub.mean_component_size().unwrap();
        assert!(s_sub > 0.0 && s_sub.is_finite());
        let nearer = SitePercolation::new(&d, 0.24).unwrap();
        let s_near = nearer.mean_component_size().unwrap();
        assert!(
            s_near > s_sub,
            "⟨s⟩ must grow toward the transition: {s_near} vs {s_sub}"
        );
        let critical = SitePercolation::new(&d, 0.25).unwrap();
        assert_eq!(critical.mean_component_size(), None);
        let sup = SitePercolation::new(&d, 0.5).unwrap();
        assert_eq!(sup.mean_component_size(), None);
    }

    #[test]
    fn eq2_value_check() {
        // Hand-check Eq. 2 for Po(z=2), q = 0.2 (subcritical, q_c = 0.5):
        // <s> = q[1 + q·z/(1 − q·z)] = 0.2·[1 + 0.4/0.6].
        let d = PoissonFanout::new(2.0);
        let p = SitePercolation::new(&d, 0.2).unwrap();
        let expect = 0.2 * (1.0 + 0.4 / 0.6);
        assert!((p.mean_component_size().unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn heavy_tail_beats_poisson_at_equal_mean() {
        // Geometric fanout percolates earlier (smaller q_c) than Poisson
        // with the same mean because G1'(1) = 2z vs z.
        let g = GeometricFanout::with_mean(3.0);
        let p = PoissonFanout::new(3.0);
        let perc_g = SitePercolation::new(&g, 0.5).unwrap();
        let perc_p = SitePercolation::new(&p, 0.5).unwrap();
        assert!(perc_g.critical_q().unwrap() < perc_p.critical_q().unwrap());
    }

    #[test]
    fn uniform_and_empirical_consistency() {
        // U[2,6] has the same mean as Po(4); reliabilities should be in
        // the same ballpark but not equal.
        let u = UniformFanout::new(2, 6);
        let ru = SitePercolation::new(&u, 0.9)
            .unwrap()
            .reliability()
            .unwrap();
        assert!(ru > 0.9, "U[2,6] at q=0.9 should be highly reliable: {ru}");
        let e = EmpiricalFanout::new(&[0.0, 0.0, 0.2, 0.2, 0.2, 0.2, 0.2]);
        let re = SitePercolation::new(&e, 0.9)
            .unwrap()
            .reliability()
            .unwrap();
        assert!((ru - re).abs() < 1e-9, "same table, same result");
    }

    #[test]
    fn rejects_bad_q() {
        let d = PoissonFanout::new(2.0);
        assert!(SitePercolation::new(&d, 0.0).is_err());
        assert!(SitePercolation::new(&d, -0.1).is_err());
        assert!(SitePercolation::new(&d, 1.1).is_err());
        assert!(SitePercolation::new(&d, f64::NAN).is_err());
    }

    #[test]
    fn giant_fraction_is_q_times_reliability() {
        let d = PoissonFanout::new(4.0);
        let p = SitePercolation::new(&d, 0.7).unwrap();
        let r = p.reliability().unwrap();
        let g = p.giant_fraction().unwrap();
        assert!((g - 0.7 * r).abs() < 1e-12);
    }
}
