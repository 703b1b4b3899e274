//! The SI epidemic model (paper §2, reference \[9\] — LRG).
//!
//! Gossip as disease: every member is Susceptible or Infected, infected
//! members contact others at rate `β` (≈ fanout per round), and the
//! infected fraction follows the logistic balance equation
//!
//! ```text
//! di/dt = β · i · (1 − i)   ⇒   i(t) = i₀ / (i₀ + (1 − i₀)·e^{−βt})
//! ```
//!
//! The paper's critique (§2): the SI model "cannot explain how to obtain
//! the optimal value of the probability with which a node gossips" and
//! "does not consider node failures". We implement it faithfully —
//! including that blindness — and additionally expose the obvious
//! failure-thinned variant (`β → β·q`) so E12 can show thinning alone
//! does not recover the critical point.

/// Continuous-time SI (logistic) dissemination model.
#[derive(Clone, Copy, Debug)]
pub struct SiModel {
    /// Contact rate β (expected contacts per infected member per unit
    /// time; ≈ mean fanout per round).
    pub beta: f64,
    /// Initial infected fraction `i₀` (a single source in a group of n:
    /// `1/n`).
    pub i0: f64,
}

impl SiModel {
    /// Creates the model. Panics on non-positive `β` or `i₀ ∉ (0, 1]`.
    pub fn new(beta: f64, i0: f64) -> Self {
        assert!(beta > 0.0 && beta.is_finite(), "beta must be positive");
        assert!(i0 > 0.0 && i0 <= 1.0, "i0 must be in (0, 1]");
        Self { beta, i0 }
    }

    /// Single-source initial condition for a group of `n` members.
    pub fn single_source(beta: f64, n: usize) -> Self {
        assert!(n >= 1, "group must be non-empty");
        Self::new(beta, 1.0 / n as f64)
    }

    /// Failure-thinned variant: only a ratio `q` of members forward, so
    /// the effective contact rate is `β·q`. (The original model has no
    /// failure notion; this is the textbook patch.)
    pub fn with_failures(self, q: f64) -> Self {
        assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
        Self {
            beta: self.beta * q,
            i0: self.i0,
        }
    }

    /// Infected fraction at time `t` (closed-form logistic solution).
    pub fn infected_fraction(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "time must be non-negative");
        let e = (-self.beta * t).exp();
        self.i0 / (self.i0 + (1.0 - self.i0) * e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logistic_shape() {
        let m = SiModel::single_source(3.0, 1000);
        assert!((m.infected_fraction(0.0) - 0.001).abs() < 1e-12);
        let mut last = 0.0;
        for i in 0..60 {
            let t = i as f64 * 0.2;
            let frac = m.infected_fraction(t);
            assert!(frac >= last, "monotone");
            assert!((0.0..=1.0).contains(&frac));
            last = frac;
        }
        assert!(last > 0.999, "saturates: {last}");
    }

    #[test]
    fn spread_time_logarithmic_in_n() {
        // t(90%) grows like ln n / β — the classic epidemic-speed law: a
        // group 1000× larger reaches 90 % ln(1000)/β later.
        let small = SiModel::single_source(3.0, 1_000);
        let large = SiModel::single_source(3.0, 1_000_000);
        let t = (9.0f64 * 999.0).ln() / 3.0; // small reaches 0.9 here
        assert!((small.infected_fraction(t) - 0.9).abs() < 1e-9);
        let late = large.infected_fraction(t + (1_000.0f64).ln() / 3.0);
        assert!((late - 0.9).abs() < 0.01, "large group at 90 %: {late}");
        assert!(large.infected_fraction(t) < 0.01);
    }

    #[test]
    fn failure_thinning_slows_but_never_stops() {
        // The documented blindness: even q far below any percolation
        // threshold, the SI model still predicts full dissemination —
        // just slower.
        let healthy = SiModel::single_source(2.0, 10_000);
        let degraded = healthy.with_failures(0.2); // fq = 0.4 ≪ 1
        assert!(degraded.infected_fraction(7.0) < healthy.infected_fraction(7.0));
        assert!(
            degraded.infected_fraction(35.0) > 0.98,
            "SI has no critical point"
        );
    }
}
