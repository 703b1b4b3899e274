//! Sampling a [`ChurnSpec`] into one execution's
//! concrete join/leave schedule.

use gossip_stats::poisson::Poisson;
use gossip_stats::rng::Xoshiro256StarStar;

use crate::spec::ChurnSpec;

const NS_PER_MS: u64 = 1_000_000;

/// One execution's realized churn: who joins and who leaves, when (in
/// virtual nanoseconds), both sorted by time.
///
/// Join ids are brand new — `n, n+1, …, n+K−1` in arrival order — so an
/// engine sized for `n + K` nodes can keep joiners dormant until their
/// join time. Leaves pick distinct existing members uniformly,
/// excluding the source (the paper's source is immortal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnPlan {
    /// `(virtual time ns, new member id)`, ids `n..n+K`, time-sorted.
    pub joins: Vec<(u64, u32)>,
    /// `(virtual time ns, existing member id)`, time-sorted, distinct
    /// non-source members.
    pub leaves: Vec<(u64, u32)>,
}

impl ChurnPlan {
    /// Samples the plan for a group of `n` initial members. Pure in
    /// `(spec, n, source, seed)`.
    ///
    /// Event counts are Poisson with mean `rate × horizon` (leaves
    /// capped at `n − 1`: the source cannot leave and nobody leaves
    /// twice); event times are uniform over the horizon.
    pub fn sample(spec: &ChurnSpec, n: usize, source: u32, seed: u64) -> ChurnPlan {
        let mut rng = Xoshiro256StarStar::new(seed);
        let horizon_secs = spec.horizon_ms as f64 / 1000.0;
        let horizon_ns = (spec.horizon_ms * NS_PER_MS).max(1);
        let join_count = Poisson::new(spec.join_per_sec * horizon_secs).sample(&mut rng) as usize;
        let leave_count = (Poisson::new(spec.leave_per_sec * horizon_secs).sample(&mut rng)
            as usize)
            .min(n.saturating_sub(1));

        let mut join_times: Vec<u64> = (0..join_count)
            .map(|_| rng.next_below(horizon_ns))
            .collect();
        join_times.sort_unstable();
        let joins: Vec<(u64, u32)> = join_times
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, (n + i) as u32))
            .collect();

        let mut leavers: Vec<u32> = Vec::with_capacity(leave_count);
        while leavers.len() < leave_count {
            let v = rng.next_below(n as u64) as u32;
            if v == source || leavers.contains(&v) {
                continue;
            }
            leavers.push(v);
        }
        let mut leaves: Vec<(u64, u32)> = leavers
            .into_iter()
            .map(|v| (rng.next_below(horizon_ns), v))
            .collect();
        leaves.sort_unstable();

        ChurnPlan { joins, leaves }
    }

    /// Members present at the end of the run: the initial group, plus
    /// everyone who joined, minus everyone who left.
    pub fn final_population(&self, n: usize) -> usize {
        n + self.joins.len() - self.leaves.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: f64) -> ChurnSpec {
        ChurnSpec::symmetric(rate, 200)
    }

    #[test]
    fn join_ids_are_fresh_and_contiguous() {
        let plan = ChurnPlan::sample(&spec(50.0), 100, 0, 1);
        for (i, &(_, id)) in plan.joins.iter().enumerate() {
            assert_eq!(id as usize, 100 + i);
        }
        assert!(plan.joins.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn leavers_are_distinct_existing_non_source() {
        let plan = ChurnPlan::sample(&spec(80.0), 50, 3, 2);
        let mut seen = Vec::new();
        for &(_, v) in &plan.leaves {
            assert!(v != 3, "source must not leave");
            assert!((v as usize) < 50, "leavers are initial members");
            assert!(!seen.contains(&v), "no member leaves twice");
            seen.push(v);
        }
        assert!(plan.leaves.len() <= 49);
    }

    #[test]
    fn population_is_conserved() {
        let plan = ChurnPlan::sample(&spec(30.0), 200, 0, 3);
        assert_eq!(
            plan.final_population(200),
            200 + plan.joins.len() - plan.leaves.len()
        );
    }

    #[test]
    fn zero_rates_yield_empty_plan() {
        let plan = ChurnPlan::sample(&ChurnSpec::symmetric(0.0, 0), 100, 0, 4);
        assert!(plan.joins.is_empty());
        assert!(plan.leaves.is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = ChurnPlan::sample(&spec(40.0), 120, 0, 9);
        let b = ChurnPlan::sample(&spec(40.0), 120, 0, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn times_stay_inside_horizon() {
        let plan = ChurnPlan::sample(&spec(100.0), 100, 0, 5);
        let horizon_ns = 200 * NS_PER_MS;
        for &(t, _) in plan.joins.iter().chain(&plan.leaves) {
            assert!(t < horizon_ns);
        }
    }
}
