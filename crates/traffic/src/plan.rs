//! Sampling an [`ArrivalSpec`] into concrete injection rounds.

use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};

use crate::spec::ArrivalSpec;

/// Seed-stream tag for injection plans, declared in the workspace
/// registry so traffic arrivals never correlate with crash draws or
/// relay coins.
pub use gossip_stats::rng::streams::TRAFFIC_PLAN as TRAFFIC_PLAN_STREAM;

/// The round each of `messages` messages is injected at, nondecreasing,
/// a pure function of `(seed, arrival)`.
///
/// `AllAtOnce` puts every message at round 0; `FixedInterval` spaces
/// them `every_rounds` apart; `Poisson` draws exponential gaps with
/// mean `1 / rate_per_round` from the `(seed, TRAFFIC_PLAN_STREAM)`
/// stream and floors the cumulative arrival times to rounds.
pub fn injection_rounds(arrival: &ArrivalSpec, messages: usize, seed: u64) -> Vec<u64> {
    match *arrival {
        ArrivalSpec::AllAtOnce => vec![0; messages],
        ArrivalSpec::FixedInterval { every_rounds } => {
            (0..messages as u64).map(|m| m * every_rounds).collect()
        }
        ArrivalSpec::Poisson { rate_per_round } => {
            let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, TRAFFIC_PLAN_STREAM));
            let mut at = 0.0_f64;
            (0..messages)
                .map(|_| {
                    // Inverse-CDF exponential gap; 1 - u in (0, 1] keeps
                    // ln away from 0.
                    let u = rng.next_f64();
                    at += -(1.0 - u).ln() / rate_per_round;
                    // A degenerate (absurdly slow) plan still fits u64.
                    at.min(u64::MAX as f64 / 2.0) as u64
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_at_once_is_a_burst() {
        assert_eq!(injection_rounds(&ArrivalSpec::AllAtOnce, 4, 7), vec![0; 4]);
    }

    #[test]
    fn fixed_interval_spaces_evenly() {
        let plan = injection_rounds(&ArrivalSpec::FixedInterval { every_rounds: 3 }, 4, 7);
        assert_eq!(plan, vec![0, 3, 6, 9]);
    }

    #[test]
    fn poisson_is_deterministic_and_monotone() {
        let arrival = ArrivalSpec::Poisson {
            rate_per_round: 0.5,
        };
        let a = injection_rounds(&arrival, 64, 0x1CC_2008);
        let b = injection_rounds(&arrival, 64, 0x1CC_2008);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "{a:?}");
        let other = injection_rounds(&arrival, 64, 0x1CC_2009);
        assert_ne!(a, other, "distinct seeds should give distinct plans");
    }

    #[test]
    fn poisson_rate_sets_the_pace() {
        // Mean gap 1/rate: 256 messages at rate 0.25 span ~1024 rounds.
        let plan = injection_rounds(
            &ArrivalSpec::Poisson {
                rate_per_round: 0.25,
            },
            256,
            42,
        );
        let last = *plan.last().unwrap() as f64;
        assert!(
            (512.0..2048.0).contains(&last),
            "256 arrivals at 0.25/round ended at {last}"
        );
    }
}
