//! Flat percolation for the million-node regime: the census pairs only
//! occupied stubs.
//!
//! One replication is site percolation (crash ratio `q`) and bond
//! percolation (loss rate `loss`) on a configuration-model graph, and
//! its reliability is the largest occupied component over the occupied
//! count — Eq. 4's giant-component fraction. A pair of stubs with an
//! unoccupied end can never join two occupied members, so the kernel
//! never materialises those stubs:
//!
//! 1. **One pass over members.** Each member tosses its crash coin,
//!    then draws its degree through the `gossip-engine` alias sampler.
//!    An occupied member gets the next dense *rank* `0..occupied` and
//!    pushes that many stubs; an unoccupied member's stubs are only
//!    counted (`free`).
//! 2. **Parity fix.** An odd stub total gives one extra stub to a
//!    uniform member: `r = next_below(n)` lands on occupied rank `r`
//!    when `r < occupied`, and on a counted stub otherwise.
//! 3. **Pairing.** Stubs pop off the end of the buffer and each pairs
//!    with a uniform partner among all unpaired stubs — a stored stub
//!    by index (swap-remove), or a counted one with probability
//!    `free / (len + free)`. That is the sequential construction of a
//!    uniform perfect matching, so the law is the configuration model's.
//!    Each occupied–occupied pair tosses its loss coin, and the
//!    survivors are written into the tail the pairing has freed.
//! 4. **Unions.** The surviving pairs feed a [`UnionFind`] over the
//!    occupied ranks, which tracks its largest set as it merges.
//!
//! No adjacency, occupancy mask or shuffle of unoccupied stubs exists,
//! and both buffers are reused across replications.
//! `tests/tests/engine_agreement.rs` keeps the unfused pipeline —
//! `gossip_topology::match_stubs` over every member's degree, each pair
//! kept with probability `1 − loss`, a [`crate::Sweep`] read at a
//! binomial occupied count — as the reference, and this module's tests
//! check the law exactly at small n.

use gossip_engine::FanoutSampler;
use gossip_model::distribution::FanoutDistribution;
use gossip_stats::rng::Xoshiro256StarStar;

use crate::unionfind::UnionFind;

/// Arena for flat percolation replications: both buffers grow to the
/// largest replication seen and are reused, never shrunk.
#[derive(Debug, Default)]
pub struct PercolationScratch {
    /// Occupied members' stubs as occupied ranks; after pairing, its
    /// tail holds the surviving pairs.
    stubs: Vec<u32>,
    /// Components over the occupied ranks.
    uf: UnionFind,
}

impl PercolationScratch {
    /// Empty buffers. Allocates nothing: the first replication sizes
    /// them, so `n` is not needed up front.
    pub fn new(_n: usize) -> Self {
        Self::default()
    }
}

/// One evaluation's immutable percolation configuration (shared
/// read-only across replications and worker threads).
#[derive(Clone, Copy)]
pub struct FlatPercolation<'a> {
    /// Number of nodes, at most [`UnionFind::MAX_LEN`].
    pub n: usize,
    /// Site-occupation (nonfailed) probability.
    pub q: f64,
    /// Bond-removal (message loss) probability.
    pub loss: f64,
    /// Degree distribution.
    pub dist: &'a dyn FanoutDistribution,
    /// Alias-table degree draws.
    pub sampler: &'a FanoutSampler,
}

impl<'a> FlatPercolation<'a> {
    /// Runs one replication, returning the paper's reliability: the
    /// largest occupied component over the occupied count.
    ///
    /// # Panics
    ///
    /// If `n` exceeds [`UnionFind::MAX_LEN`]; the graph backend refuses
    /// such groups with a typed error before it gets here.
    pub fn run(&self, scratch: &mut PercolationScratch, rng: &mut Xoshiro256StarStar) -> f64 {
        assert!(
            self.n <= UnionFind::MAX_LEN,
            "the census ranks members as i32"
        );
        let PercolationScratch { stubs, uf } = scratch;

        // 1. Crash coin, then degree, per member; only occupied stubs
        // are stored.
        stubs.clear();
        let mut occupied = 0u32;
        let mut free = 0u64;
        for _ in 0..self.n {
            let up = self.q >= 1.0 || rng.next_bool(self.q);
            let degree = self.sampler.sample(self.dist, rng);
            if up {
                stubs.resize(stubs.len() + degree, occupied);
                occupied += 1;
            } else {
                free += degree as u64;
            }
        }
        if occupied == 0 {
            return 0.0;
        }

        // 2. Standard parity fix: one extra stub at a uniform member.
        if (stubs.len() as u64 + free) % 2 == 1 {
            let lucky = rng.next_below(self.n as u64);
            if lucky < u64::from(occupied) {
                stubs.push(lucky as u32);
            } else {
                free += 1;
            }
        }

        // 3. Uniform perfect matching, popped off the end. The unpaired
        // stored stubs are `stubs[..len]`; surviving pairs fill
        // `stubs[tail..]`, and `tail ≥ len` because every pair frees at
        // least as many slots as it writes.
        let mut len = stubs.len();
        let mut tail = len;
        while len > 0 {
            len -= 1;
            let a = stubs[len];
            debug_assert!(len as u64 + free > 0, "an even stub total pairs every stub");
            let j = rng.next_below(len as u64 + free);
            if j >= len as u64 {
                free -= 1; // partner unoccupied: the edge joins nobody
                continue;
            }
            len -= 1;
            let b = stubs[j as usize];
            stubs[j as usize] = stubs[len];
            if self.loss > 0.0 && rng.next_bool(self.loss) {
                continue; // bond percolation: the edge never transmits
            }
            tail -= 2;
            stubs[tail] = a;
            stubs[tail + 1] = b;
        }

        // 4. Components of the surviving occupied–occupied edges.
        uf.reset(occupied as usize);
        for pair in stubs[tail..].chunks_exact(2) {
            uf.union(pair[0], pair[1]);
        }
        f64::from(uf.largest()) / f64::from(occupied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::distribution::{FixedFanout, PoissonFanout};
    use gossip_model::PaperLaw;
    use gossip_stats::descriptive::OnlineStats;
    use gossip_stats::rng::SplitMix64;

    fn runs(flat: &FlatPercolation<'_>, reps: u64, seed: u64) -> Vec<f64> {
        let mut scratch = PercolationScratch::new(flat.n);
        (0..reps)
            .map(|rep| {
                let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, rep));
                flat.run(&mut scratch, &mut rng)
            })
            .collect()
    }

    fn mean_reliability(n: usize, z: f64, q: f64, loss: f64, reps: u64, seed: u64) -> f64 {
        let dist = PoissonFanout::new(z);
        let sampler = FanoutSampler::new(&dist);
        let flat = FlatPercolation {
            n,
            q,
            loss,
            dist: &dist,
            sampler: &sampler,
        };
        runs(&flat, reps, seed).iter().sum::<f64>() / reps as f64
    }

    #[test]
    fn matches_the_analytic_giant_component() {
        // Po(4) at q = 0.9: S from the generating-function model.
        let dist = PoissonFanout::new(4.0);
        let predicted = PaperLaw::new(&dist, 0.9, 0.0)
            .unwrap()
            .reliability()
            .unwrap();
        let measured = mean_reliability(5000, 4.0, 0.9, 0.0, 12, 0xF1A7);
        assert!(
            (measured - predicted).abs() < 0.03,
            "flat {measured} vs analytic {predicted}"
        );
    }

    #[test]
    fn loss_thins_to_the_smaller_poisson() {
        // Po(6) with 25% bond loss ≈ Po(4.5) lossless.
        let lossy = mean_reliability(5000, 6.0, 0.9, 0.25, 10, 1);
        let thinned = mean_reliability(5000, 4.5, 0.9, 0.0, 10, 2);
        assert!((lossy - thinned).abs() < 0.04, "lossy {lossy} vs {thinned}");
    }

    #[test]
    fn subcritical_collapses() {
        // q = 0.15 < q_c = 0.25 for Po(4).
        let r = mean_reliability(5000, 4.0, 0.15, 0.0, 8, 3);
        assert!(r < 0.05, "subcritical reliability {r}");
    }

    #[test]
    fn deterministic_and_scratch_reuse_is_clean() {
        let a = mean_reliability(2000, 4.0, 0.9, 0.1, 6, 42);
        let b = mean_reliability(2000, 4.0, 0.9, 0.1, 6, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn a_reused_scratch_equals_fresh_ones_across_sizes() {
        let dist = PoissonFanout::new(4.0);
        let sampler = FanoutSampler::new(&dist);
        let big = FlatPercolation {
            n: 2000,
            q: 0.9,
            loss: 0.1,
            dist: &dist,
            sampler: &sampler,
        };
        let small = FlatPercolation {
            n: 500,
            q: 0.3,
            ..big
        };
        let mut shared = PercolationScratch::new(0);
        for (rep, flat) in [big, small, big, small].into_iter().enumerate() {
            let seed = SplitMix64::derive(0x5C7A, rep as u64);
            let reused = flat.run(&mut shared, &mut Xoshiro256StarStar::new(seed));
            let fresh = flat.run(
                &mut PercolationScratch::new(flat.n),
                &mut Xoshiro256StarStar::new(seed),
            );
            assert_eq!(reused, fresh, "replication {rep} at n = {}", flat.n);
        }
    }

    /// Exact law of one replication at tiny `n`, by enumeration: each
    /// occupancy pattern, each lucky member when the stub total is odd,
    /// each perfect matching of the stubs, and each loss coin of an
    /// occupied–occupied pair. Returns the mean and variance of R.
    fn exact_moments(n: usize, degree: usize, q: f64, loss: f64) -> (f64, f64) {
        /// Walks the matchings of `stubs` (member ids), merging the
        /// component labels of occupied pairs that survive loss, and
        /// accumulates `(Σ p·R, Σ p·R²)` over the leaves.
        fn walk(
            stubs: &[usize],
            up: &[bool],
            labels: [usize; 4],
            p: f64,
            loss: f64,
            acc: &mut (f64, f64),
        ) {
            let Some((&a, rest)) = stubs.split_first() else {
                let occupied = up.iter().filter(|&&u| u).count();
                let largest = (0..up.len())
                    .map(|l| (0..up.len()).filter(|&v| up[v] && labels[v] == l).count())
                    .max()
                    .unwrap_or(0);
                let r = largest as f64 / occupied as f64;
                acc.0 += p * r;
                acc.1 += p * r * r;
                return;
            };
            // `a` pairs with each remaining stub equally likely.
            let p = p / rest.len() as f64;
            for i in 0..rest.len() {
                let b = rest[i];
                let mut remaining = rest.to_vec();
                remaining.remove(i);
                let joins = up[a] && up[b];
                if !joins || loss > 0.0 {
                    let p_dropped = if joins { loss } else { 1.0 };
                    walk(&remaining, up, labels, p * p_dropped, loss, acc);
                }
                if joins && loss < 1.0 {
                    let (from, to) = (labels[b], labels[a]);
                    let merged = labels.map(|l| if l == from { to } else { l });
                    walk(&remaining, up, merged, p * (1.0 - loss), loss, acc);
                }
            }
        }

        assert!(n <= 4);
        let mut acc = (0.0, 0.0);
        for mask in 0u32..1 << n {
            let up: Vec<bool> = (0..n).map(|v| mask & (1 << v) != 0).collect();
            let k = mask.count_ones() as i32;
            let p_occ = q.powi(k) * (1.0 - q).powi(n as i32 - k);
            if k == 0 || p_occ == 0.0 {
                continue; // R = 0 contributes nothing to either moment
            }
            let base: Vec<usize> = (0..n).flat_map(|v| vec![v; degree]).collect();
            let luckies: Vec<Option<usize>> = if base.len() % 2 == 1 {
                (0..n).map(Some).collect()
            } else {
                vec![None]
            };
            let p_lucky = 1.0 / luckies.len() as f64;
            for lucky in luckies {
                let mut stubs = base.clone();
                stubs.extend(lucky);
                walk(&stubs, &up, [0, 1, 2, 3], p_occ * p_lucky, loss, &mut acc);
            }
        }
        (acc.0, acc.1 - acc.0 * acc.0)
    }

    #[test]
    fn small_groups_follow_the_exact_law() {
        // 24 cells, each a z-test of a 20 000-run mean against the exact
        // mean with the exact standard deviation: P(|Z| > 4) = 6.3e-5 a
        // cell, so a correct kernel fails the test with probability
        // < 1.6e-3.
        const REPS: u64 = 20_000;
        let mut cell = 0;
        for (n, degree) in [(3, 1), (3, 3), (4, 1), (4, 3), (2, 1), (2, 3)] {
            let dist = FixedFanout::new(degree);
            let sampler = FanoutSampler::new(&dist);
            for q in [1.0, 0.5] {
                for loss in [0.0, 0.3] {
                    let (mean, var) = exact_moments(n, degree, q, loss);
                    let flat = FlatPercolation {
                        n,
                        q,
                        loss,
                        dist: &dist,
                        sampler: &sampler,
                    };
                    let mut measured = OnlineStats::new();
                    for r in runs(&flat, REPS, SplitMix64::derive(0x1A3, cell)) {
                        measured.push(r);
                    }
                    let bound = 4.0 * (var / REPS as f64).sqrt() + 1e-12;
                    assert!(
                        (measured.mean() - mean).abs() <= bound,
                        "n = {n}, Fixed({degree}), q = {q}, loss = {loss}: \
                         {} vs exact {mean} (4 SE = {bound})",
                        measured.mean()
                    );
                    cell += 1;
                }
            }
        }
    }
}
