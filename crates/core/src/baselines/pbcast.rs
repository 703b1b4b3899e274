//! The pbcast recurrence model (paper §2, reference \[5\]).
//!
//! Bimodal Multicast analyzes gossip round by round: if `s_t` of the `n`
//! processes are infected after round `t`, each susceptible process is
//! contacted in the next round by any given infected process with
//! probability `≈ f/n`, so
//!
//! ```text
//! E[s_{t+1}] = s_t + (n − s_t) · (1 − (1 − f/n)^{s_t})
//! ```
//!
//! Fail-stop crashes thin the infectious population: with nonfailed
//! ratio `q` only `q·s_t` of the infected forward, giving the adjusted
//! contact probability used here. The paper's critique (§2) — the exact
//! chain is intractable, so "only upper bounds or lower bounds on the
//! reliability can be obtained" and the model "does not show how to find
//! a proper number of rounds" — is what E12 probes: this mean-field
//! recurrence tracks the *bulk* of dissemination well but has no notion
//! of a critical point or of the take-off/die-out dichotomy.

/// Mean-field recurrence for round-based gossip dissemination.
#[derive(Clone, Copy, Debug)]
pub struct PbcastRecurrence {
    /// Group size `n`.
    pub n: usize,
    /// Per-round fanout `f` of an infected process.
    pub fanout: f64,
    /// Nonfailed member ratio `q` (failed processes never forward).
    pub q: f64,
}

impl PbcastRecurrence {
    /// Creates the recurrence. Panics on out-of-domain parameters.
    pub fn new(n: usize, fanout: f64, q: f64) -> Self {
        assert!(n >= 2, "need at least 2 processes");
        assert!(fanout >= 0.0 && fanout.is_finite(), "fanout must be >= 0");
        assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
        Self { n, fanout, q }
    }

    /// One step of the recurrence: expected infected count after the
    /// next round, starting from `s_t` infected.
    pub fn step(&self, s_t: f64) -> f64 {
        let n = self.n as f64;
        let s_t = s_t.clamp(0.0, n);
        // Only nonfailed infected processes gossip; each susceptible
        // escapes one infectious process's round with prob 1 − f/n.
        let active = self.q * s_t;
        let escape = (1.0 - self.fanout / n).max(0.0).powf(active);
        s_t + (n - s_t) * (1.0 - escape)
    }

    /// Expected infected-count trajectory over `rounds` rounds, starting
    /// from one infected process (the source). Index `t` holds `E[s_t]`.
    pub fn trajectory(&self, rounds: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(rounds + 1);
        let mut s = 1.0;
        out.push(s);
        for _ in 0..rounds {
            s = self.step(s);
            out.push(s);
        }
        out
    }

    /// Expected infected fraction (of all n) after `rounds` rounds.
    pub fn infected_fraction(&self, rounds: usize) -> f64 {
        self.trajectory(rounds)
            .last()
            .copied()
            .expect("trajectory non-empty")
            / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_growth_to_saturation() {
        let m = PbcastRecurrence::new(1000, 3.0, 1.0);
        let traj = m.trajectory(30);
        for w in traj.windows(2) {
            assert!(w[1] >= w[0], "recurrence must be monotone");
        }
        assert!(
            traj.last().unwrap() / 1000.0 > 0.99,
            "fanout 3 should saturate: {}",
            traj.last().unwrap()
        );
    }

    #[test]
    fn early_rounds_are_exponential() {
        // While s ≪ n, s_{t+1} ≈ s_t(1 + f): growth factor ≈ 1 + f.
        let m = PbcastRecurrence::new(1_000_000, 2.0, 1.0);
        let traj = m.trajectory(5);
        for w in traj.windows(2) {
            let factor = w[1] / w[0];
            assert!(
                (factor - 3.0).abs() < 0.1,
                "early growth factor {factor} ≉ 1 + f"
            );
        }
    }

    #[test]
    fn failures_slow_dissemination() {
        let healthy = PbcastRecurrence::new(1000, 3.0, 1.0);
        let degraded = PbcastRecurrence::new(1000, 3.0, 0.5);
        assert!(healthy.infected_fraction(6) > degraded.infected_fraction(6));
    }

    #[test]
    fn rounds_to_fraction_logarithmic_in_n() {
        // Multiplying n by 1000 adds O(1) rounds — the gossip
        // scalability story.
        let rounds_to_99 = |n| {
            let traj = PbcastRecurrence::new(n, 3.0, 1.0).trajectory(100);
            traj.iter().position(|&s| s / n as f64 >= 0.99).unwrap()
        };
        let (r1, r2) = (rounds_to_99(1_000), rounds_to_99(1_000_000));
        assert!(r2 > r1);
        assert!(r2 - r1 <= 8, "r({}) = {r1}, r(10^6) = {r2}", 1000);
    }

    #[test]
    fn zero_fanout_never_reaches() {
        let m = PbcastRecurrence::new(100, 0.0, 1.0);
        assert!(m.trajectory(50).iter().all(|&s| s == 1.0));
        assert!((m.infected_fraction(50) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn no_critical_point_blind_spot() {
        // The paper's §2 critique made concrete: the mean-field
        // recurrence still predicts eventual (partial) spread below the
        // percolation threshold, where the real process a.s. dies — e.g.
        // f·q = 0.6 < 1. The recurrence saturates at a nonzero fixed
        // point (it ignores variance/extinction).
        let m = PbcastRecurrence::new(10_000, 2.0, 0.3);
        let frac = m.infected_fraction(200);
        assert!(
            frac > 0.05,
            "mean-field happily spreads below criticality: {frac}"
        );
        // The generalized-random-graph model knows better:
        let d = crate::distribution::PoissonFanout::new(2.0);
        let r = crate::law::PaperLaw::new(&d, 0.3, 0.0)
            .unwrap()
            .reliability()
            .unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    #[should_panic(expected = "q must be in (0, 1]")]
    fn rejects_bad_q() {
        PbcastRecurrence::new(10, 2.0, 0.0);
    }
}
