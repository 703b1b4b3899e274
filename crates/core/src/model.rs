//! The `Gossip(n, P, q)` façade — the paper's model object (§4.1).

use crate::distribution::FanoutDistribution;
use crate::error::ModelError;
use crate::percolation::SitePercolation;
use crate::success;

/// The gossiping model `Gossip(n, P, q)`: `n` members, fanout
/// distribution `P`, and nonfailed member ratio `q`; the source member
/// never fails (paper §4.1).
///
/// This type bundles the percolation analysis and the success calculus
/// behind one API, mirroring how the paper uses the model: pick `(P, q)`,
/// read off reliability, then size the execution count.
#[derive(Clone, Debug)]
pub struct Gossip<D: FanoutDistribution> {
    n: usize,
    dist: D,
    q: f64,
}

impl<D: FanoutDistribution> Gossip<D> {
    /// Creates the model. Requires `n ≥ 2` (a group needs someone to
    /// gossip to) and `q ∈ (0, 1]`.
    pub fn new(n: usize, dist: D, q: f64) -> Result<Self, ModelError> {
        if n < 2 {
            return Err(ModelError::InvalidParameter {
                name: "n",
                value: n as f64,
                requirement: "group must have at least 2 members",
            });
        }
        if !(q.is_finite() && q > 0.0 && q <= 1.0) {
            return Err(ModelError::InvalidParameter {
                name: "q",
                value: q,
                requirement: "nonfailed member ratio must lie in (0, 1]",
            });
        }
        Ok(Self { n, dist, q })
    }

    /// Group size `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nonfailed member ratio `q`.
    #[inline]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The fanout distribution `P`.
    #[inline]
    pub fn distribution(&self) -> &D {
        &self.dist
    }

    /// Number of nonfailed members `[n·q]`, rounded to the nearest
    /// integer — the paper's bracket notation `n_nonfailed = [n·q]`
    /// denotes rounding, not floor (e.g. `n = 10, q = 0.25` gives 3,
    /// matching the expected count `2.5` to the nearest member).
    pub fn nonfailed_count(&self) -> usize {
        (self.n as f64 * self.q).round() as usize
    }

    /// The percolation view of this model.
    pub fn percolation(&self) -> Result<SitePercolation<'_, D>, ModelError> {
        SitePercolation::new(&self.dist, self.q)
    }

    /// Reliability of gossiping `R(q, P)` for one execution.
    pub fn reliability(&self) -> Result<f64, ModelError> {
        self.percolation()?.reliability()
    }

    /// Critical nonfailed ratio `q_c` (Eq. 3); `None` if the distribution
    /// can never percolate.
    pub fn critical_q(&self) -> Option<f64> {
        self.percolation().ok().and_then(|p| p.critical_q())
    }

    /// Probability that a given nonfailed member is reached at least once
    /// in `t` executions (Eq. 5), using this model's reliability as `p_r`.
    pub fn success_probability(&self, t: u32) -> Result<f64, ModelError> {
        Ok(success::success_probability(self.reliability()?, t))
    }

    /// Minimum executions to achieve success probability `p_s` (Eq. 6).
    pub fn required_executions(&self, p_s: f64) -> Result<u32, ModelError> {
        success::required_executions(self.reliability()?, p_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{FixedFanout, PoissonFanout};

    #[test]
    fn doc_example_numbers() {
        let g = Gossip::new(1000, PoissonFanout::new(4.0), 0.9).unwrap();
        assert_eq!(g.n(), 1000);
        assert_eq!(g.nonfailed_count(), 900);
        let r = g.reliability().unwrap();
        assert!((r - 0.967).abs() < 5e-3);
        // The paper works Eq. 6 with its rounded p_r = 0.967 and gets
        // t = 3; the exact root p_r = 0.969506 sits just across the
        // integer boundary, giving t = 2 (1 − (1−0.9695)² ≈ 0.99907).
        assert_eq!(g.required_executions(0.999).unwrap(), 2);
        assert!(
            crate::success::required_executions(0.967, 0.999).unwrap() == 3,
            "paper's rounded p_r reproduces its t = 3"
        );
        assert!(g.percolation().unwrap().is_supercritical());
        assert!((g.critical_q().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn subcritical_model() {
        let g = Gossip::new(1000, PoissonFanout::new(4.0), 0.2).unwrap();
        assert!(!g.percolation().unwrap().is_supercritical());
        assert_eq!(g.reliability().unwrap(), 0.0);
        assert!(g.required_executions(0.9).is_err());
        assert!((g.success_probability(10).unwrap() - 0.0).abs() < 1e-15);
    }

    #[test]
    fn construction_errors() {
        assert!(Gossip::new(1, PoissonFanout::new(4.0), 0.9).is_err());
        assert!(Gossip::new(100, PoissonFanout::new(4.0), 0.0).is_err());
        assert!(Gossip::new(100, PoissonFanout::new(4.0), 1.01).is_err());
    }

    #[test]
    fn never_percolating_distribution() {
        let g = Gossip::new(100, FixedFanout::new(1), 1.0).unwrap();
        assert_eq!(g.critical_q(), None);
        assert!(!g.percolation().unwrap().is_supercritical());
        assert_eq!(g.reliability().unwrap(), 0.0);
    }

    #[test]
    fn accessors() {
        let g = Gossip::new(500, PoissonFanout::new(2.5), 0.75).unwrap();
        assert_eq!(g.q(), 0.75);
        assert!((g.distribution().z() - 2.5).abs() < 1e-15);
        assert_eq!(g.nonfailed_count(), 375);
    }

    #[test]
    fn nonfailed_count_rounds_to_nearest() {
        // The paper's [n·q] is rounding, not floor: 10 · 0.25 = 2.5 → 3.
        let g = Gossip::new(10, PoissonFanout::new(4.0), 0.25).unwrap();
        assert_eq!(g.nonfailed_count(), 3);
        // 10 · 0.24 = 2.4 → 2.
        let g = Gossip::new(10, PoissonFanout::new(4.0), 0.24).unwrap();
        assert_eq!(g.nonfailed_count(), 2);
    }
}
