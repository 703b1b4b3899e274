//! The Figs. 6/7 / Eq. 5 harness (paper §5.2): the measurements a
//! `Report` cannot express.
//!
//! A Monte-Carlo *reliability* (Figs. 4/5) is a `Scenario` evaluated by
//! [`crate::ProtocolBackend`] or [`crate::NetSimBackend`] and reduced —
//! take-off conditioning included — by `gossip_model::reduce`; nothing
//! here estimates one. What remains is per-execution and per-member:
//!
//! * **Success of gossiping** (Figs. 6/7): "we run our gossiping
//!   algorithm for 20 times in one simulation, and each simulation is
//!   repeated for 100 times; then we report the distribution of the
//!   number X of gossiping successes among the 20 executions" —
//!   [`member_receipt_distribution`], [`success_count_distribution`].
//! * **Success vs. t** (Eq. 5 validation): empirical probability that a
//!   member is reached at least once within `t` executions —
//!   [`success_within_t`].
//! * **Dissemination dynamics**: the raw [`executions`] and the mean
//!   cumulative [`hop_profile`] the related-work baselines are compared
//!   against.
//!
//! All runs derive per-replication seeds from `(base_seed, index)` and
//! fan out over [`gossip_stats::parallel`], so results are identical on
//! 1 or 64 threads.

use gossip_model::distribution::FanoutDistribution;
use gossip_stats::histogram::IntHistogram;
use gossip_stats::parallel::parallel_map;
use gossip_stats::rng::SplitMix64;

use crate::engine::{run_push, ExecutionConfig, ExecutionOutcome};

/// Runs `reps` independent executions, returning every outcome (for cost
/// and latency metrics beyond reliability).
pub fn executions<D>(
    cfg: &ExecutionConfig,
    dist: &D,
    reps: usize,
    base_seed: u64,
) -> Vec<ExecutionOutcome>
where
    D: FanoutDistribution + Clone + Sync + 'static,
{
    parallel_map(reps, |rep| {
        let seed = SplitMix64::derive(base_seed, rep as u64);
        run_push(cfg, dist, seed).expect("paper-model execution config is infallible")
    })
}

/// The Figs. 6/7 procedure: `sims` simulations of `execs_per_sim`
/// executions each; the histogram records, per simulation, the paper's
/// §4.2 variable `X` — *the number of executions in which a nonfailed
/// member receives the message* (tracked via the per-execution observer
/// member, see [`ExecutionOutcome::observer_reached`]). The paper's
/// analysis line is `X ~ B(execs_per_sim, R)`.
///
/// The paper uses `execs_per_sim = 20`, `sims = 100`, n = 2000.
pub fn member_receipt_distribution<D>(
    cfg: &ExecutionConfig,
    dist: &D,
    execs_per_sim: usize,
    sims: usize,
    base_seed: u64,
) -> IntHistogram
where
    D: FanoutDistribution + Clone + Sync + 'static,
{
    let counts = parallel_map(sims, |sim_idx| {
        let sim_seed = SplitMix64::derive(base_seed, sim_idx as u64);
        let mut receipts = 0u64;
        for exec in 0..execs_per_sim {
            let seed = SplitMix64::derive(sim_seed, exec as u64);
            if run_push(cfg, dist, seed)
                .expect("paper-model execution config is infallible")
                .observer_reached
            {
                receipts += 1;
            }
        }
        receipts
    });
    IntHistogram::from_samples(execs_per_sim, counts)
}

/// Strict-success variant: counts, per simulation, executions in which
/// **every** nonfailed member was reached (the literal §4.2 definition
/// of `S(q, P, t)`'s underlying event).
///
/// At group sizes in the thousands this count is essentially always 0 —
/// an execution with per-member reliability `R < 1` leaves `≈ (1−R)·nq`
/// stragglers — which is precisely why the paper's own Figs. 6/7 must be
/// read as plotting the per-member receipt count
/// ([`member_receipt_distribution`]). Kept for that metric-definition
/// contrast, which `repro fig6` / `repro fig7` (gossip-bench) print.
pub fn success_count_distribution<D>(
    cfg: &ExecutionConfig,
    dist: &D,
    execs_per_sim: usize,
    sims: usize,
    base_seed: u64,
) -> IntHistogram
where
    D: FanoutDistribution + Clone + Sync + 'static,
{
    let counts = parallel_map(sims, |sim_idx| {
        let sim_seed = SplitMix64::derive(base_seed, sim_idx as u64);
        let mut successes = 0u64;
        for exec in 0..execs_per_sim {
            let seed = SplitMix64::derive(sim_seed, exec as u64);
            if run_push(cfg, dist, seed)
                .expect("paper-model execution config is infallible")
                .is_success()
            {
                successes += 1;
            }
        }
        successes
    });
    IntHistogram::from_samples(execs_per_sim, counts)
}

/// Mean cumulative dissemination profile: entry `h` is the expected
/// fraction of nonfailed members first reached within `h` hops of the
/// source, averaged over the executions that took off (reliability
/// above `takeoff_threshold`, conventionally half the analytic
/// prediction).
///
/// Hop distance is the discrete-time analogue of gossip "rounds", making
/// this directly comparable to the pbcast recurrence and SI epidemic
/// baselines (E12).
pub fn hop_profile<D>(
    cfg: &ExecutionConfig,
    dist: &D,
    reps: usize,
    base_seed: u64,
    takeoff_threshold: f64,
) -> Vec<f64>
where
    D: FanoutDistribution + Clone + Sync + 'static,
{
    let outcomes = executions(cfg, dist, reps, base_seed);
    let taken: Vec<&ExecutionOutcome> = outcomes
        .iter()
        .filter(|o| o.reliability() > takeoff_threshold)
        .collect();
    if taken.is_empty() {
        return Vec::new();
    }
    let len = taken
        .iter()
        .map(|o| o.hop_histogram.len())
        .max()
        .expect("non-empty");
    let mut cumulative = vec![0.0f64; len];
    for o in &taken {
        let denom = o.nonfailed as f64;
        let mut acc = 0.0;
        for (h, slot) in cumulative.iter_mut().enumerate() {
            // Executions with shorter profiles stay saturated at their
            // final value for larger h.
            acc += o.hop_histogram.get(h).copied().unwrap_or(0) as f64;
            *slot += acc / denom;
        }
    }
    for v in &mut cumulative {
        *v /= taken.len() as f64;
    }
    cumulative
}

/// Empirical check of Eq. 5: the probability that a nonfailed member is
/// reached at least once within `t` executions, measured through the
/// per-execution observer member
/// ([`ExecutionOutcome::observer_reached`]).
///
/// Returns the fraction of `trials` (each = `t` fresh executions) in
/// which the observer was reached at least once; Eq. 5 predicts
/// `1 − (1 − R)^t`.
pub fn success_within_t<D>(
    cfg: &ExecutionConfig,
    dist: &D,
    t: usize,
    trials: usize,
    base_seed: u64,
) -> f64
where
    D: FanoutDistribution + Clone + Sync + 'static,
{
    let hits = parallel_map(trials, |trial| {
        let trial_seed = SplitMix64::derive(base_seed, trial as u64);
        for exec in 0..t {
            let seed = SplitMix64::derive(trial_seed, exec as u64);
            if run_push(cfg, dist, seed)
                .expect("paper-model execution config is infallible")
                .observer_reached
            {
                return 1u32;
            }
        }
        0u32
    });
    hits.iter().map(|&h| h as f64).sum::<f64>() / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::distribution::PoissonFanout;
    use gossip_model::poisson_case;

    #[test]
    fn success_counts_concentrate_at_high_reliability() {
        // Small group, very high fanout: essentially every execution
        // succeeds, X ≈ execs_per_sim.
        let cfg = ExecutionConfig::new(100, 1.0);
        let hist = success_count_distribution(&cfg, &PoissonFanout::new(8.0), 10, 20, 9);
        assert_eq!(hist.total(), 20);
        assert!(hist.mean() > 8.0, "mean successes {}", hist.mean());
    }

    #[test]
    fn executions_deterministic() {
        let cfg = ExecutionConfig::new(300, 0.8);
        let a = executions(&cfg, &PoissonFanout::new(4.0), 5, 123);
        let b = executions(&cfg, &PoissonFanout::new(4.0), 5, 123);
        assert_eq!(a, b);
    }

    #[test]
    fn hop_profile_is_cumulative_and_saturates() {
        let cfg = ExecutionConfig::new(800, 0.9);
        let dist = PoissonFanout::new(4.0);
        let analytic = poisson_case::reliability(4.0, 0.9).unwrap();
        let profile = hop_profile(&cfg, &dist, 15, 11, 0.5 * analytic);
        assert!(!profile.is_empty());
        // Monotone non-decreasing, bounded by 1.
        for w in profile.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!(*profile.last().unwrap() <= 1.0);
        // Saturates near the analytic reliability.
        assert!(
            (profile.last().unwrap() - analytic).abs() < 0.03,
            "endpoint {} vs {analytic}",
            profile.last().unwrap()
        );
        // Hop 0 is just the source.
        assert!(profile[0] < 0.01);
    }

    #[test]
    fn member_receipt_distribution_shape() {
        let cfg = ExecutionConfig::new(400, 0.9);
        let dist = PoissonFanout::new(5.0);
        let hist = member_receipt_distribution(&cfg, &dist, 8, 25, 17);
        assert_eq!(hist.total(), 25);
        assert_eq!(hist.buckets(), 9);
        // High reliability: mode near the top bucket.
        assert!(hist.mode() >= 6, "mode {}", hist.mode());
    }

    #[test]
    fn success_within_t_increases_with_t() {
        let cfg = ExecutionConfig::new(500, 0.9);
        let dist = PoissonFanout::new(3.0);
        let p1 = success_within_t(&cfg, &dist, 1, 60, 5);
        let p3 = success_within_t(&cfg, &dist, 3, 60, 5);
        assert!(p3 >= p1, "p3 = {p3} < p1 = {p1}");
        assert!(p3 > 0.9, "three executions should near-guarantee receipt");
    }
}
