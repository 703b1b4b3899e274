//! The Gilbert-Elliott two-state Markov loss channel.
//!
//! State `Good` loses a transmission with probability `loss_good`,
//! state `Bad` with `loss_bad`; after every transmission the chain
//! moves `Good → Bad` with probability `p_gb` and `Bad → Good` with
//! `p_bg`. The stationary distribution puts mass
//! `π_bad = p_gb / (p_gb + p_bg)` on the bad state, so the long-run
//! mean loss rate is `(1 − π_bad)·loss_good + π_bad·loss_bad` — the
//! i.i.d. rate an observer who ignores correlation would fit. The whole
//! point of the channel is that at *equal mean rate* the losses clump:
//! a sender caught in the bad state drops most of its relay fan at
//! once, which hurts a one-shot push protocol strictly more than the
//! same loss mass sprinkled independently (the mixture of thinned
//! fanout laws has the same mean but a larger extinction probability).

use gossip_stats::rng::Xoshiro256StarStar;

use crate::spec::BurstySpec;

/// Channel parameters plus the closed-form stationary quantities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Good → bad transition probability per transmission.
    pub p_gb: f64,
    /// Bad → good transition probability per transmission.
    pub p_bg: f64,
    /// Loss probability in the good state.
    pub loss_good: f64,
    /// Loss probability in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Builds the channel from its spec (assumed validated: all
    /// probabilities in `[0, 1]`, `p_gb + p_bg > 0`).
    pub fn new(spec: &BurstySpec) -> Self {
        GilbertElliott {
            p_gb: spec.p_gb,
            p_bg: spec.p_bg,
            loss_good: spec.loss_good,
            loss_bad: spec.loss_bad,
        }
    }

    /// Stationary probability of the bad state,
    /// `π_bad = p_gb / (p_gb + p_bg)`.
    pub fn stationary_bad(&self) -> f64 {
        self.p_gb / (self.p_gb + self.p_bg)
    }

    /// Long-run mean loss rate — the i.i.d. rate this channel matches.
    pub fn mean_loss(&self) -> f64 {
        let pi_bad = self.stationary_bad();
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// One chain instance — per *sender*, shared by all of its outgoing
/// links, advanced once per transmission (the bursty-fade regime: a
/// node's whole relay batch tends to share channel state).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeChain {
    bad: bool,
}

impl GeChain {
    /// Starts a chain from the stationary distribution (one draw from
    /// `rng`), so the channel has no warm-up transient.
    pub fn start(ge: &GilbertElliott, rng: &mut Xoshiro256StarStar) -> Self {
        GeChain {
            bad: rng.next_bool(ge.stationary_bad()),
        }
    }

    /// One transmission: draws the loss outcome from the current state,
    /// then advances the chain. Returns `true` when the transmission is
    /// lost.
    pub fn transmit(&mut self, ge: &GilbertElliott, rng: &mut Xoshiro256StarStar) -> bool {
        let lost = rng.next_bool(if self.bad { ge.loss_bad } else { ge.loss_good });
        if self.bad {
            if rng.next_bool(ge.p_bg) {
                self.bad = false;
            }
        } else if rng.next_bool(ge.p_gb) {
            self.bad = true;
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> GilbertElliott {
        GilbertElliott::new(&BurstySpec {
            p_gb: 0.05,
            p_bg: 0.15,
            loss_good: 0.0,
            loss_bad: 0.8,
        })
    }

    #[test]
    fn stationary_closed_form() {
        let ge = channel();
        assert!((ge.stationary_bad() - 0.25).abs() < 1e-12);
        assert!((ge.mean_loss() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empirical_loss_matches_mean() {
        let ge = channel();
        let mut rng = Xoshiro256StarStar::new(7);
        let mut chain = GeChain::start(&ge, &mut rng);
        let trials = 200_000;
        let lost = (0..trials)
            .filter(|_| chain.transmit(&ge, &mut rng))
            .count();
        let rate = lost as f64 / trials as f64;
        assert!(
            (rate - ge.mean_loss()).abs() < 0.01,
            "empirical {rate} vs closed form {}",
            ge.mean_loss()
        );
    }

    #[test]
    fn losses_are_bursty() {
        // P(loss | previous loss) must exceed the marginal loss rate:
        // that conditional lift is the burstiness the spec promises.
        let ge = channel();
        let mut rng = Xoshiro256StarStar::new(11);
        let mut chain = GeChain::start(&ge, &mut rng);
        let mut prev = false;
        let (mut after_loss, mut after_loss_lost, mut losses, mut total) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..200_000 {
            let lost = chain.transmit(&ge, &mut rng);
            total += 1;
            if lost {
                losses += 1;
            }
            if prev {
                after_loss += 1;
                if lost {
                    after_loss_lost += 1;
                }
            }
            prev = lost;
        }
        let marginal = losses as f64 / total as f64;
        let conditional = after_loss_lost as f64 / after_loss as f64;
        assert!(
            conditional > marginal + 0.2,
            "conditional {conditional} should exceed marginal {marginal}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let ge = channel();
        let run = |seed| {
            let mut rng = Xoshiro256StarStar::new(seed);
            let mut chain = GeChain::start(&ge, &mut rng);
            (0..64)
                .map(|_| chain.transmit(&ge, &mut rng))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42));
    }
}
