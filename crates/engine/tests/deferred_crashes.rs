//! The relay kernel tosses a member's crash coin when the rumor arrives
//! and settles everyone it never met with one binomial draw. These tests
//! hold that against the eager reading of the model — the crash set
//! fixed before the push starts — using the kernel's own `prefailed`
//! path as the eager reference, and pin the cost property that follows:
//! the random words a replication consumes depend on how far the rumor
//! got, not on the group size.

use gossip_engine::{FanoutSampler, RelayOutcome, RelayScratch, RelaySetup};
use gossip_model::distribution::{FanoutDistribution, FixedFanout, PoissonFanout};
use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};

const REPS: u64 = 2_000;

fn setup<'a>(
    n: usize,
    q: f64,
    dist: &'a dyn FanoutDistribution,
    sampler: &'a FanoutSampler,
    prefailed: &'a [u32],
) -> RelaySetup<'a> {
    RelaySetup {
        n,
        source: 0,
        q,
        loss: 0.0,
        dist,
        sampler,
        overlay: None,
        blocked: None,
        prefailed,
    }
}

fn rng(seed: u64, rep: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::new(SplitMix64::derive(seed, rep))
}

/// Crash coins tossed on arrival, `q` as given.
fn deferred(n: usize, q: f64, dist: &dyn FanoutDistribution, seed: u64) -> Vec<RelayOutcome> {
    let sampler = FanoutSampler::new(dist);
    let mut scratch = RelayScratch::new(n);
    (0..REPS)
        .map(|rep| setup(n, q, dist, &sampler, &[]).run(&mut scratch, &mut rng(seed, rep)))
        .collect()
}

/// The crash set drawn up front from an RNG of its own and handed over
/// as `prefailed`; the kernel itself runs at `q = 1` and tosses nothing.
fn eager(n: usize, q: f64, dist: &dyn FanoutDistribution, seed: u64) -> Vec<RelayOutcome> {
    let sampler = FanoutSampler::new(dist);
    let mut scratch = RelayScratch::new(n);
    (0..REPS)
        .map(|rep| {
            let mut coins = rng(seed ^ 0xC015, rep);
            let crashed: Vec<u32> = (1..n as u32).filter(|_| !coins.next_bool(q)).collect();
            setup(n, 1.0, dist, &sampler, &crashed).run(&mut scratch, &mut rng(seed, rep))
        })
        .collect()
}

/// Mean and variance of a sample with the squared standard error of
/// each (the variance's from the fourth central moment, so bimodal
/// take-off / fizzle samples are not held to a normal-theory width).
struct Moments {
    mean: f64,
    var: f64,
    mean_se2: f64,
    var_se2: f64,
}

fn moments(xs: &[f64]) -> Moments {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let central = |k: i32| xs.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / n;
    let (m2, m4) = (central(2), central(4));
    Moments {
        mean,
        var: m2,
        mean_se2: m2 / n,
        var_se2: (m4 - m2 * m2) / n,
    }
}

fn assert_same_moments(what: &str, a: &[f64], b: &[f64]) {
    let (a, b) = (moments(a), moments(b));
    let mean_tol = 5.0 * (a.mean_se2 + b.mean_se2).sqrt();
    let var_tol = 5.0 * (a.var_se2 + b.var_se2).sqrt();
    assert!(
        (a.mean - b.mean).abs() <= mean_tol,
        "{what}: mean {} vs {} (5 SE = {mean_tol})",
        a.mean,
        b.mean
    );
    assert!(
        (a.var - b.var).abs() <= var_tol,
        "{what}: variance {} vs {} (5 SE = {var_tol})",
        a.var,
        b.var
    );
}

/// Two-sample Kolmogorov–Smirnov distance, scaled by √(NM/(N+M)).
fn ks_two_sample(a: &[f64], b: &[f64]) -> f64 {
    let sorted = |xs: &[f64]| {
        let mut xs = xs.to_vec();
        xs.sort_by(f64::total_cmp);
        xs
    };
    let (a, b) = (sorted(a), sorted(b));
    let (mut i, mut j, mut d) = (0, 0, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    d * ((a.len() * b.len()) as f64 / (a.len() + b.len()) as f64).sqrt()
}

type Tally = fn(&RelayOutcome) -> f64;

/// Deferred ≡ eager in distribution, above and below the critical point.
///
/// False-failure probability for a correct kernel, over the choice of
/// seed: 24 two-sided 5 SE comparisons (3 cases × 4 tallies × mean and
/// variance, ≈ 6e-7 each) plus 3 KS tests at scaled distance 2.2
/// (2·exp(−2·2.2²) ≈ 1.3e-4 each, less with ties) — below 5e-4 in all.
#[test]
fn deferred_crash_coins_match_an_eager_crash_set() {
    let po4 = PoissonFanout::new(4.0);
    let fixed3 = FixedFanout::new(3);
    let cases: [(usize, &dyn FanoutDistribution, f64); 3] =
        [(2_000, &po4, 0.6), (2_000, &po4, 0.2), (500, &fixed3, 0.8)];
    for (case, (n, dist, q)) in cases.into_iter().enumerate() {
        let d = deferred(n, q, dist, 0xDEFE_0000 + case as u64);
        let e = eager(n, q, dist, 0xEA6E_0000 + case as u64);
        let tallies: [(&str, Tally); 4] = [
            ("nonfailed", |o| o.nonfailed as f64),
            ("nonfailed_reached", |o| o.nonfailed_reached as f64),
            ("messages_sent", |o| o.messages_sent as f64),
            ("reliability", RelayOutcome::reliability),
        ];
        for (name, tally) in tallies {
            let column = |outs: &[RelayOutcome]| outs.iter().map(tally).collect::<Vec<f64>>();
            let (d, e) = (column(&d), column(&e));
            assert_same_moments(&format!("n = {n}, q = {q}: {name}"), &d, &e);
            if name == "reliability" {
                let ks = ks_two_sample(&d, &e);
                assert!(ks < 2.2, "n = {n}, q = {q}: scaled KS distance {ks}");
            }
        }
    }
}

/// Pre-failed members and crashes shrink one denominator: with `d`
/// distinct pre-failed members other than the source, `nonfailed − 1` is
/// `Binomial(n − 1 − d, q)` whatever the rumor reached (two 5 SE checks,
/// false failure ≈ 1e-6).
#[test]
fn prefailed_and_crashes_share_the_denominator() {
    let dist = PoissonFanout::new(4.0);
    let sampler = FanoutSampler::new(&dist);
    let (n, q) = (1_000, 0.5);
    // 100 distinct members, every one listed twice, plus the source
    // (which never fails, listed or not).
    let prefailed: Vec<u32> = (0..=100).chain(1..=100).collect();
    let mut scratch = RelayScratch::new(n);
    let outcomes: Vec<RelayOutcome> = (0..REPS)
        .map(|rep| setup(n, q, &dist, &sampler, &prefailed).run(&mut scratch, &mut rng(31, rep)))
        .collect();
    for out in &outcomes {
        assert!(out.nonfailed_reached >= 1 && out.nonfailed_reached <= out.nonfailed);
        assert!(out.nonfailed <= n - 100);
    }
    let trials = (n - 1 - 100) as f64;
    let m = moments(
        &outcomes
            .iter()
            .map(|o| (o.nonfailed - 1) as f64)
            .collect::<Vec<_>>(),
    );
    let (mean, var) = (trials * q, trials * q * (1.0 - q));
    assert!(
        (m.mean - mean).abs() <= 5.0 * m.mean_se2.sqrt(),
        "mean of nonfailed − 1: {} vs {mean}",
        m.mean
    );
    assert!(
        (m.var - var).abs() <= 5.0 * m.var_se2.sqrt(),
        "variance of nonfailed − 1: {} vs {var}",
        m.var
    );
}

#[test]
fn certain_survival_tosses_no_coin() {
    let dist = FixedFanout::new(3);
    let sampler = FanoutSampler::new(&dist);
    let prefailed = [5, 5, 0, 9];
    let mut scratch = RelayScratch::new(200);
    let mut used = rng(3, 0);
    let out = setup(200, 1.0, &dist, &sampler, &prefailed).run(&mut scratch, &mut used);
    assert_eq!(out.nonfailed, 198);
    // Fanout 3 with nobody crashing reaches (nearly) everyone, and the
    // tallies stay consistent with the two absorbed members.
    assert!(out.nonfailed_reached > 150 && out.nonfailed_reached <= 198);

    // The same run with nothing to send consumes the fanout draw only.
    let silent = FixedFanout::new(0);
    let silent_sampler = FanoutSampler::new(&silent);
    let mut used = rng(3, 1);
    let out = setup(200, 1.0, &silent, &silent_sampler, &prefailed).run(&mut scratch, &mut used);
    assert_eq!((out.nonfailed, out.nonfailed_reached), (198, 1));
    let mut fanout_only = rng(3, 1);
    silent_sampler.sample(&silent, &mut fanout_only);
    assert_eq!(used.next(), fanout_only.next());
}

#[test]
fn certain_crash_leaves_the_source_alone() {
    let dist = FixedFanout::new(3);
    let sampler = FanoutSampler::new(&dist);
    let mut scratch = RelayScratch::new(200);
    let out = setup(200, 0.0, &dist, &sampler, &[]).run(&mut scratch, &mut rng(4, 0));
    assert_eq!((out.nonfailed, out.nonfailed_reached), (1, 1));
    // Three copies land, all on members that turn out crashed: none of
    // them is a receipt the hops count.
    assert_eq!(out.messages_sent, 3);
    assert_eq!(scratch.hops(), [1, 0]);
    assert_eq!(out.reliability(), 1.0);
}

/// O(reached), as a count: a source that sends nothing leaves the RNG in
/// the same state in a group of 10³ and of 10⁶, because no word is drawn
/// for a member the rumor never met. (An up-front crash loop draws n.)
#[test]
fn words_consumed_do_not_depend_on_the_group_size() {
    let dist = FixedFanout::new(0);
    let sampler = FanoutSampler::new(&dist);
    let state_after = |n: usize| {
        let mut rng = rng(77, 0);
        let out = setup(n, 0.5, &dist, &sampler, &[]).run(&mut RelayScratch::new(n), &mut rng);
        assert_eq!((out.nonfailed_reached, out.messages_sent), (1, 0));
        // Still a draw over the whole group: about half of it survives.
        assert!((out.nonfailed as f64 / n as f64 - 0.5).abs() < 0.1);
        rng.next()
    };
    assert_eq!(state_after(1_000), state_after(1_000_000));
}
