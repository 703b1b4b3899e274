//! The configuration model: uniform random multigraphs with a prescribed
//! degree sequence, the family the paper's generalized-random-graph
//! analysis (§3) describes exactly. The power-law overlay and the
//! percolation sweeps of `gossip-rgraph` both build it with [`match_stubs`].

use gossip_stats::rng::Xoshiro256StarStar;

/// One uniform stub matching over `degrees` (member `v` holds
/// `degrees[v]` stubs). An odd stub total first gives one extra stub to
/// a uniformly drawn member, written back into `degrees` (the standard
/// parity fix, an O(1/n) distortion); a Fisher–Yates shuffle then pairs
/// consecutive stubs. The pairs form a multigraph: self-loops and
/// repeated pairs stay, and [`crate::Topology::from_edges`] erases them.
pub fn match_stubs(degrees: &mut [usize], rng: &mut Xoshiro256StarStar) -> Vec<(u32, u32)> {
    let n = degrees.len();
    assert!(n <= u32::MAX as usize, "node ids limited to u32");
    if degrees.iter().sum::<usize>() % 2 == 1 {
        degrees[rng.next_below(n as u64) as usize] += 1;
    }
    let mut stubs: Vec<u32> = Vec::with_capacity(degrees.iter().sum());
    for (v, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v as u32, d));
    }
    for i in (1..stubs.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        stubs.swap(i, j);
    }
    stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_stats::poisson::Poisson;

    /// How many pair endpoints each of `n` members holds.
    fn endpoint_counts(n: usize, pairs: &[(u32, u32)]) -> Vec<usize> {
        let mut counts = vec![0; n];
        for &(a, b) in pairs {
            counts[a as usize] += 1;
            counts[b as usize] += 1;
        }
        counts
    }

    #[test]
    fn degree_sum_is_even_and_mean_matches() {
        let mut rng = Xoshiro256StarStar::new(7);
        let po4 = Poisson::new(4.0);
        let mut degrees: Vec<usize> = (0..5000).map(|_| po4.sample(&mut rng) as usize).collect();
        let pairs = match_stubs(&mut degrees, &mut rng);
        let total: usize = degrees.iter().sum();
        assert_eq!(total % 2, 0);
        assert_eq!(2 * pairs.len(), total);
        let mean = total as f64 / degrees.len() as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean degree {mean}");
    }

    #[test]
    fn generated_graph_realizes_degrees() {
        // 3-regular: 1000 · 3 is even, so no member is bumped.
        let mut degrees = vec![3; 1000];
        let pairs = match_stubs(&mut degrees, &mut Xoshiro256StarStar::new(11));
        assert_eq!(degrees, vec![3; 1000]);
        assert_eq!(endpoint_counts(1000, &pairs), degrees);
    }

    #[test]
    fn explicit_degrees_roundtrip() {
        let pairs = match_stubs(&mut [1, 1, 2, 2], &mut Xoshiro256StarStar::new(3));
        assert_eq!(pairs.len(), 3);
        assert_eq!(endpoint_counts(4, &pairs), [1, 1, 2, 2]);
    }

    #[test]
    fn determinism_by_seed() {
        let degrees: Vec<usize> = (0..300).map(|v| v % 7).collect();
        let run = |seed| match_stubs(&mut degrees.clone(), &mut Xoshiro256StarStar::new(seed));
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }
}
