//! Newman–Ziff sweeps: site percolation on one graph at every occupied
//! count in one pass (Newman & Ziff, *Phys. Rev. Lett.* 85, 4104, 2000).
//!
//! Members are occupied one at a time in a uniformly random order, each
//! unioned with its occupied neighbours in a [`UnionFind`], so after `m`
//! occupations the forest is site percolation with `m` nonfailed
//! members. One O(|E| α(n)) pass records, at every `m`, the largest
//! component `L(m)` and `Σ s²`, from which the finite-cluster
//! susceptibility `χ(m)` follows. A result at the paper's nonfailed
//! ratio `q` is the Binomial(n, q) mixture over `m`, which needs only
//! the O(√n) terms near `nq`; one draw of that mixture is exactly the
//! law of i.i.d. crash coins. The peak of `χ` averaged over sweeps
//! locates `q_c = 1/G1'(1)` (Eqs. 3 and 10) at resolution `1/n`.

use gossip_model::distribution::FanoutDistribution;
use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};
use gossip_stats::Binomial;
use gossip_topology::{match_stubs, Topology};

use crate::unionfind::UnionFind;

/// A configuration-model graph of `dist` on `n` members: `n` degree
/// draws, one uniform stub matching ([`match_stubs`]), erased to a
/// simple [`Topology`]. Erasing self-loops and parallel edges changes
/// no site-percolation component, so its [`Sweep`] is the multigraph's.
pub fn configuration_model(
    dist: &dyn FanoutDistribution,
    n: usize,
    rng: &mut Xoshiro256StarStar,
) -> Topology {
    let mut degrees: Vec<usize> = (0..n).map(|_| dist.sample(rng)).collect();
    Topology::from_edges(n, match_stubs(&mut degrees, rng))
}

/// One sweep's record at every occupied count `m = 0..=n`.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// `largest[m]`: the largest component after `m` occupations.
    largest: Vec<u32>,
    /// `sum_sq[m]`: `Σ s²` over the components after `m` occupations.
    sum_sq: Vec<u64>,
}

impl Sweep {
    /// Sweeps the symmetric overlay `g` in a uniformly random order
    /// (Fisher–Yates from `rng`).
    pub fn new(g: &Topology, rng: &mut Xoshiro256StarStar) -> Self {
        let mut order: Vec<u32> = (0..g.node_count() as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        Self::in_order(g, &order)
    }

    /// Sweeps `g`, occupying `order[0]`, `order[1]`, … in turn. Panics
    /// if `order` is not a permutation of `g`'s members.
    pub fn in_order(g: &Topology, order: &[u32]) -> Self {
        let n = g.node_count();
        assert_eq!(order.len(), n, "the order must occupy every member once");
        let mut uf = UnionFind::new(n);
        let mut occupied = vec![false; n];
        let (mut largest, mut sum_sq, mut squares) = (vec![0], vec![0], 0u64);
        for &v in order {
            let fresh = !std::mem::replace(&mut occupied[v as usize], true);
            assert!(fresh, "member {v} occupied twice");
            squares += 1;
            for &u in g.neighbors(v) {
                if occupied[u as usize] {
                    // Sizes first, so `union` itself does no extra work.
                    let (a, b) = (uf.size_of(v), uf.size_of(u));
                    if uf.union(v, u) {
                        squares += 2 * u64::from(a) * u64::from(b);
                    }
                }
            }
            // Unoccupied members are singletons, so once one member is
            // occupied the forest's largest set is the largest component.
            largest.push(uf.largest());
            sum_sq.push(squares);
        }
        Self { largest, sum_sq }
    }

    /// Members swept, `n`.
    pub fn nodes(&self) -> usize {
        self.largest.len() - 1
    }

    /// The largest component after `m` occupations, `L(m)`.
    pub fn largest(&self, m: usize) -> u32 {
        self.largest[m]
    }

    /// `L(m)/m`: the reliability of this graph with `m` nonfailed
    /// members (0 at `m = 0`).
    pub fn fraction(&self, m: usize) -> f64 {
        f64::from(self.largest[m]) / m.max(1) as f64
    }

    /// Finite-cluster susceptibility `χ(m) = (Σ s² − L²)/(m − L)`: the
    /// mean size of the component holding an occupied member outside the
    /// largest (0 when the largest holds them all).
    pub fn susceptibility(&self, m: usize) -> f64 {
        let l = u64::from(self.largest[m]);
        match m as u64 - l {
            0 => 0.0,
            rest => (self.sum_sq[m] - l * l) as f64 / rest as f64,
        }
    }

    /// Reliability at nonfailed ratio `q`: the Binomial(n, q)-weighted
    /// mean of `L(m)/m` over the terms within 12 standard deviations of
    /// `nq` (renormalised; the rest weigh below 1e-30).
    pub fn reliability(&self, q: f64) -> f64 {
        let law = Binomial::new(self.nodes() as u64, q);
        let reach = 12.0 * law.variance().sqrt() + 1.0;
        let lo = (law.mean() - reach).max(0.0) as usize;
        let hi = ((law.mean() + reach) as usize).min(self.nodes());
        let (mut mass, mut sum) = (0.0, 0.0);
        for m in lo..=hi {
            let w = law.pmf(m as u64);
            mass += w;
            sum += w * self.fraction(m);
        }
        sum / mass
    }

    /// One draw of this graph's reliability under i.i.d. crash coins at
    /// `q`: `m ~ Binomial(n, q)`, then `L(m)/m`.
    pub fn sample(&self, q: f64, rng: &mut Xoshiro256StarStar) -> f64 {
        self.fraction(Binomial::new(self.nodes() as u64, q).sample(rng) as usize)
    }
}

/// The occupied count `m*` at which the susceptibility averaged over
/// `sweeps` peaks (the first such `m` on a tie). Panics if `sweeps` is
/// empty or the sweeps differ in `n`.
fn susceptibility_peak(sweeps: impl IntoIterator<Item = Sweep>) -> usize {
    let mut total: Option<Vec<f64>> = None;
    for sweep in sweeps {
        let total = total.get_or_insert_with(|| vec![0.0; sweep.nodes() + 1]);
        assert_eq!(total.len(), sweep.nodes() + 1, "sweeps of one size");
        for (m, chi) in total.iter_mut().enumerate() {
            *chi += sweep.susceptibility(m);
        }
    }
    let total = total.expect("need at least one sweep");
    first_max(total.len(), |m| total[m])
}

/// The first of `0..len` at which `chi` is largest.
fn first_max(len: usize, chi: impl Fn(usize) -> f64) -> usize {
    (0..len).fold(0, |best, m| if chi(m) > chi(best) { m } else { best })
}

/// The empirical critical point of one fanout law.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPoint {
    /// `q* = m*/n` at the peak of the susceptibility averaged over the
    /// graphs.
    pub pooled: f64,
    /// Each graph's own peak `m*/n`, in draw order.
    pub per_graph: Vec<f64>,
}

/// The empirical critical point over `graphs` configuration-model
/// graphs of `dist` on `n` members, graph `i` drawn and swept from
/// `SplitMix64::derive(seed, i)`.
pub fn critical_q(
    dist: &dyn FanoutDistribution,
    n: usize,
    graphs: usize,
    seed: u64,
) -> CriticalPoint {
    let mut per_graph = Vec::with_capacity(graphs);
    let peak = susceptibility_peak((0..graphs as u64).map(|i| {
        let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, i));
        let sweep = Sweep::new(&configuration_model(dist, n, &mut rng), &mut rng);
        let own = first_max(n + 1, |m| sweep.susceptibility(m));
        per_graph.push(own as f64 / n as f64);
        sweep
    }));
    CriticalPoint {
        pooled: peak as f64 / n as f64,
        per_graph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::distribution::PoissonFanout;
    use gossip_model::PaperLaw;

    fn poisson_graph(n: usize, z: f64, seed: u64) -> Topology {
        let mut rng = Xoshiro256StarStar::new(seed);
        configuration_model(&PoissonFanout::new(z), n, &mut rng)
    }

    fn sweep(g: &Topology, seed: u64) -> Sweep {
        Sweep::new(g, &mut Xoshiro256StarStar::new(seed))
    }

    #[test]
    fn census_of_two_triangles_and_isolate() {
        let g = Topology::from_edges(7, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let s = Sweep::in_order(&g, &[6, 0, 3, 1, 4, 2, 5]);
        let largest: Vec<u32> = (0..=7).map(|m| s.largest(m)).collect();
        assert_eq!(largest, [0, 1, 1, 1, 2, 2, 3, 3]);
        // m = 5: {0, 1}, {3, 4}, {6}; the largest is one of the pairs,
        // so χ = (4 + 1)/(2 + 1).
        assert!((s.susceptibility(5) - 5.0 / 3.0).abs() < 1e-12);
        // m = 7: sizes {3, 3, 1} → (9 + 1)/(3 + 1) = 2.5.
        assert!((s.susceptibility(7) - 2.5).abs() < 1e-12);
        assert!((s.fraction(7) - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn fully_unoccupied() {
        // m = 0, or q = 0: no member occupied, so no component at all.
        let g = Topology::from_edges(7, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let s = Sweep::in_order(&g, &[6, 0, 3, 1, 4, 2, 5]);
        assert_eq!(s.largest(0), 0);
        assert_eq!((s.fraction(0), s.susceptibility(0)), (0.0, 0.0));
        assert_eq!(s.reliability(0.0), 0.0);
        assert_eq!(s.sample(0.0, &mut Xoshiro256StarStar::new(1)), 0.0);
    }

    /// `(L, Σ s²)` over every edge of `g`, counted by a plain union-find.
    fn full_census(g: &Topology) -> (u32, u64) {
        let mut uf = UnionFind::new(g.node_count());
        for v in 0..g.node_count() as u32 {
            for &u in g.neighbors(v) {
                uf.union(v, u);
            }
        }
        let sum_sq = uf
            .component_sizes()
            .into_iter()
            .map(|s| u64::from(s).pow(2));
        (uf.largest(), sum_sq.sum())
    }

    #[test]
    fn occupied_equals_full_when_all_true() {
        // With every member occupied (m = n) the sweep is the census of
        // the whole graph, whatever the order.
        let g = poisson_graph(2000, 1.5, 11);
        let n = g.node_count();
        let (l, sum_sq) = full_census(&g);
        for seed in [1, 2, 3] {
            let s = sweep(&g, seed);
            assert_eq!(s.largest(n), l);
            let chi = (sum_sq - u64::from(l).pow(2)) as f64 / (n as u64 - u64::from(l)) as f64;
            assert!((s.susceptibility(n) - chi).abs() < 1e-12);
        }
    }

    #[test]
    fn q_one_matches_full_census() {
        // q = 1 puts all Binomial mass on m = n: both readings of R are
        // the full census's largest component over n.
        let g = poisson_graph(3000, 4.0, 12);
        let full = f64::from(full_census(&g).0) / 3000.0;
        let s = sweep(&g, 13);
        assert_eq!(s.reliability(1.0), full);
        assert_eq!(s.sample(1.0, &mut Xoshiro256StarStar::new(14)), full);
    }

    #[test]
    fn empty_graph_census() {
        let s = Sweep::in_order(&Topology::from_edges(0, vec![]), &[]);
        assert_eq!(s.nodes(), 0);
        assert_eq!(s.reliability(0.5), 0.0);
        assert_eq!(susceptibility_peak([s]), 0);
    }

    #[test]
    #[should_panic(expected = "occupied twice")]
    fn rejects_an_order_that_is_not_a_permutation() {
        Sweep::in_order(&Topology::from_edges(2, vec![(0, 1)]), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one sweep")]
    fn rejects_an_empty_scan() {
        susceptibility_peak([]);
    }

    #[test]
    fn reliability_is_the_whole_binomial_mixture() {
        // At n = 40 the 12-SD window spans every m with mass, so the
        // truncated mean equals the sum over all m = 0..=n.
        let s = sweep(&poisson_graph(40, 3.0, 9), 10);
        for q in [0.05, 0.3, 0.5, 0.9] {
            let law = Binomial::new(40, q);
            let full: f64 = (0..=40).map(|m| law.pmf(m) * s.fraction(m as usize)).sum();
            assert!((s.reliability(q) - full).abs() < 1e-12, "q = {q}");
        }
    }

    #[test]
    fn the_peak_is_the_first_maximum_of_the_mean() {
        // The path 0-1-2 swept in two orders: at m = 2 one holds the pair
        // {0, 1} (χ = 0), the other {0} and {2} apart (χ = 1).
        let g = Topology::from_edges(3, vec![(0, 1), (1, 2)]);
        let (a, b) = (
            Sweep::in_order(&g, &[0, 1, 2]),
            Sweep::in_order(&g, &[0, 2, 1]),
        );
        assert_eq!((a.susceptibility(2), b.susceptibility(2)), (0.0, 1.0));
        assert_eq!(susceptibility_peak([a, b]), 2);
        // Three isolates: χ = 1 at both m = 2 and m = 3; the first wins.
        let isolates = Sweep::in_order(&Topology::from_edges(3, vec![]), &[0, 1, 2]);
        assert_eq!(
            (isolates.susceptibility(2), isolates.susceptibility(3)),
            (1.0, 1.0)
        );
        assert_eq!(susceptibility_peak([isolates]), 2);
    }

    #[test]
    fn empirical_matches_analytic_reliability() {
        // Po(4) at q = 0.8: analytic reliability ≈ 0.9575…; a 5000-node
        // graph lands within a few percent, read either way.
        let g = poisson_graph(5000, 4.0, 3);
        let dist = PoissonFanout::new(4.0);
        let analytic = PaperLaw::new(&dist, 0.8, 0.0)
            .unwrap()
            .reliability()
            .unwrap();
        let s = sweep(&g, 99);
        let mut rng = Xoshiro256StarStar::new(4);
        let drawn = (0..10).map(|_| s.sample(0.8, &mut rng)).sum::<f64>() / 10.0;
        for measured in [s.reliability(0.8), drawn] {
            assert!(
                (measured - analytic).abs() < 0.03,
                "measured {measured} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn subcritical_has_no_giant() {
        // Po(4) at q = 0.15 < q_c = 0.25: the largest component is tiny.
        let s = sweep(&poisson_graph(5000, 4.0, 4), 7);
        assert!(s.reliability(0.15) < 0.05, "{}", s.reliability(0.15));
    }

    #[test]
    fn susceptibility_matches_eq2_below_the_threshold() {
        // Eq. 2's ⟨s⟩ counts every member (a failed one holds size 0), so
        // the mean component of an occupied member is ⟨s⟩/q: for Po(4) at
        // q = 0.15 that is 1 + 0.6/0.4 = 2.5.
        let dist = PoissonFanout::new(4.0);
        let eq2 = PaperLaw::new(&dist, 0.15, 0.0)
            .unwrap()
            .mean_component_size()
            .unwrap()
            / 0.15;
        let n = 50_000;
        let s = sweep(&poisson_graph(n, 4.0, 5), 6);
        let chi = s.susceptibility(n * 15 / 100);
        assert!((chi - eq2).abs() < 0.1, "χ = {chi} vs Eq. 2 {eq2}");
    }

    #[test]
    fn poisson_transition_near_one_over_z() {
        // Po(4): q_c = 0.25; at n = 4000 the peak sits a little above it.
        let dist = PoissonFanout::new(4.0);
        let point = critical_q(&dist, 4000, 4, 2024);
        assert!((point.pooled - 0.25).abs() <= 0.08, "{point:?}");
        // Graph i is drawn from derive(seed, i) whatever the family size,
        // and a family of one graph peaks where that graph does.
        let one = critical_q(&dist, 4000, 1, 2024);
        assert_eq!(one.per_graph, [one.pooled]);
        assert_eq!(one.pooled, point.per_graph[0]);
    }

    #[test]
    fn determinism_across_runs() {
        let g = poisson_graph(500, 3.0, 8);
        let (a, b) = (sweep(&g, 1234), sweep(&g, 1234));
        assert_eq!(a.reliability(0.5), b.reliability(0.5));
    }

    #[test]
    fn scan_is_deterministic() {
        let dist = PoissonFanout::new(3.0);
        assert_eq!(critical_q(&dist, 500, 2, 7), critical_q(&dist, 500, 2, 7));
    }
}
