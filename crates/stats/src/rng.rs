//! Deterministic pseudo-random number generators.
//!
//! Everything stochastic in this workspace is seeded through here so that a
//! single `u64` reproduces an entire experiment bit-for-bit, regardless of
//! thread count (see [`crate::parallel`]). Two generators are provided:
//!
//! * [`SplitMix64`] — Steele/Lea/Vigna's 64-bit mixer. Tiny state, passes
//!   BigCrush when used as a stream, and — crucially — ideal for *seed
//!   derivation*: feeding a counter through SplitMix64 yields decorrelated
//!   seeds for child generators.
//! * [`Xoshiro256StarStar`] — Blackman/Vigna's general-purpose generator;
//!   the workhorse for simulation sampling.
//!
//! Both implement `rand::RngCore` + `rand::SeedableRng` so
//! they compose with the `rand` distribution machinery used elsewhere.

use rand::{RngCore, SeedableRng};

/// SplitMix64 generator (public-domain algorithm by Sebastiano Vigna).
///
/// Primarily used to derive independent child seeds from a `(base, index)`
/// pair: replication `i` of a Monte-Carlo experiment uses
/// `SplitMix64::new(base).nth_seed(i)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose stream is fully determined by `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output and advances the state.
    ///
    /// Named `next` to match the reference C implementation; this is not
    /// an `Iterator` (an RNG never ends), hence the lint allowance.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives the `index`-th child seed of this generator's *initial*
    /// state without disturbing `self`.
    ///
    /// The derivation is `mix(seed + (index+1)·γ)`, i.e. the `(index+1)`-th
    /// output of a fresh SplitMix64 — stable under reordering and safe to
    /// call from multiple threads on clones.
    #[inline]
    pub fn nth_seed(&self, index: u64) -> u64 {
        let mut g = Self::new(
            self.state
                .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        g.next()
    }

    /// Convenience: derive a child seed directly from `(base, index)`.
    #[inline]
    pub fn derive(base: u64, index: u64) -> u64 {
        Self::new(base).nth_seed(index)
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state)
    }
}

/// Xoshiro256** generator (public-domain algorithm by Blackman & Vigna).
///
/// 256 bits of state, period 2^256 − 1, excellent statistical quality, and
/// roughly one rotation + two multiplies per output — the default sampler
/// for every simulation in the workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the 256-bit state by running SplitMix64 on `seed`, as
    /// recommended by the algorithm's authors (avoids the all-zero state).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next();
        }
        // The all-zero state is the only invalid one; SplitMix64 cannot
        // produce four consecutive zeros in practice, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Returns the next 64-bit output.
    ///
    /// Named `next` to match the reference C implementation; not an
    /// `Iterator` (see [`SplitMix64::next`]).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased, usually a single multiply).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below bound must be positive");
        let mut x = self.next();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

impl RngCore for Xoshiro256StarStar {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }
}

impl SeedableRng for Xoshiro256StarStar {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if s == [0; 4] {
            return Self::new(0);
        }
        Self { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state)
    }
}

/// Appends `min(k, n − 1)` distinct uniform members of `0..n`, never
/// `me`, to `out` — one sender's gossip targets on the complete overlay.
/// Only the appended range is kept distinct; what `out` already holds is
/// left alone.
///
/// Rejection sampling while `k ≪ n` (the gossip regime — fanouts are
/// O(log n)): one `next_below(n)` per attempt, so seeds reproduce across
/// every caller. From `3k ≥ n − 1` on, where rejection turns quadratic,
/// a partial Fisher–Yates over the candidates, staged in `out` itself.
#[inline]
pub fn sample_distinct_excluding(
    n: usize,
    me: u32,
    k: usize,
    rng: &mut Xoshiro256StarStar,
    out: &mut Vec<u32>,
) {
    let available = n.saturating_sub(1);
    let k = k.min(available);
    let start = out.len();
    if k * 3 >= available {
        out.extend((0..n as u32).filter(|&v| v != me));
        for i in 0..k {
            let j = i + rng.next_below((available - i) as u64) as usize;
            out.swap(start + i, start + j);
        }
        out.truncate(start + k);
        return;
    }
    while out.len() - start < k {
        let t = rng.next_below(n as u64) as u32;
        if t != me && !out[start..].contains(&t) {
            out.push(t);
        }
    }
}

/// The registry of seed-stream tags: every constant the workspace mixes
/// into [`SplitMix64::derive`] to split one execution seed into
/// decorrelated child streams (crash draws, overlay wiring, relay
/// coins, ...). One name per stream, declared once — layers that must
/// face the *same* draw (the churn plan, the adversary's blocked links,
/// the live failure pattern) share a tag by importing it, and a test
/// keeps all registered values pairwise distinct.
pub mod streams {
    macro_rules! stream_tags {
        ($($(#[$doc:meta])* $name:ident = $value:expr;)*) => {
            $($(#[$doc])* pub const $name: u64 = $value;)*
            /// Every registered tag with its name, in declaration order.
            pub const ALL: &[(&str, u64)] = &[$((stringify!($name), $name)),*];
        };
    }

    stream_tags! {
        /// Flat engine: the single per-replication RNG (graph and
        /// protocol), so flat and event-calendar runs are independent
        /// samples.
        FLAT = 0xF1A7;
        /// Flat engine: the overlay CSR built once per evaluation.
        FLAT_TOPOLOGY = 0xF170;
        /// Protocol engine: the per-execution overlay the views are
        /// pinned to (SCAMP views included).
        MEMBERSHIP = 0x5CA0;
        /// Protocol engine: the discrete-event simulator's own RNG.
        SIMULATOR = 0x51E0;
        /// Protocol engine: Gilbert-Elliott chain start states.
        GE_CHAIN = 0x6E11;
        /// Churn plan — shared by the protocol engine and the live
        /// runtime so both realize the same joins and leaves.
        CHURN = 0xC4A2;
        /// Adversary's blocked-link set — shared by the graph backend,
        /// the protocol engine and the live runtime.
        ADVERSARY = 0xAD7E;
        /// Stream injection plan (Poisson arrivals).
        TRAFFIC_PLAN = 0x7AFF1C;
        /// Round-engine stream execution (alive draw + relay coins).
        STREAM_EXEC = 0x7AFF2C;
        /// Live runtime: the crash pattern, single-message and stream
        /// executions alike.
        FAILURE = 0xFA11;
        /// Live runtime: per-actor draws, mixed with the node id — the
        /// Gilbert-Elliott chain start — and then with the first message
        /// id of an arrival group — that group's relay draws.
        ACTOR = 0x0A_C708;
        /// Live runtime: per-execution overlay wiring.
        RUNTIME_TOPOLOGY = 0x7090;
    }
}

fn fill_bytes_via_u64<R: RngCore + ?Sized>(rng: &mut R, dest: &mut [u8]) {
    let mut chunks = dest.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let bytes = rng.next_u64().to_le_bytes();
        rem.copy_from_slice(&bytes[..rem.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from Vigna's C implementation.
        let mut g = SplitMix64::new(1234567);
        let first = g.next();
        let second = g.next();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut h = SplitMix64::new(1234567);
        assert_eq!(h.next(), first);
        assert_eq!(h.next(), second);
    }

    #[test]
    fn splitmix_zero_seed_streams() {
        let mut g = SplitMix64::new(0);
        // Known first output of SplitMix64 with seed 0.
        assert_eq!(g.next(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn derive_is_stable_and_decorrelated() {
        let a = SplitMix64::derive(42, 0);
        let b = SplitMix64::derive(42, 1);
        let c = SplitMix64::derive(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, SplitMix64::derive(42, 0));
    }

    #[test]
    fn stream_tags_are_pairwise_distinct() {
        for (i, (name, tag)) in streams::ALL.iter().enumerate() {
            for (other, other_tag) in &streams::ALL[i + 1..] {
                assert_ne!(tag, other_tag, "{name} and {other} share a stream tag");
            }
        }
        assert_eq!(streams::ALL.len(), 12);
    }

    #[test]
    fn xoshiro_determinism_and_distribution() {
        let mut g = Xoshiro256StarStar::new(7);
        let mut h = Xoshiro256StarStar::new(7);
        for _ in 0..100 {
            assert_eq!(g.next(), h.next());
        }
        // Crude uniformity sanity check on f64 outputs.
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut g = Xoshiro256StarStar::new(99);
        let bound = 10u64;
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = g.next_below(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn rngcore_fill_bytes_covers_remainder() {
        let mut g = Xoshiro256StarStar::new(3);
        let mut buf = [0u8; 13];
        g.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn seedable_from_seed_roundtrip() {
        let mut seed = [0u8; 32];
        seed[0] = 1;
        let mut a = Xoshiro256StarStar::from_seed(seed);
        let mut b = Xoshiro256StarStar::from_seed(seed);
        assert_eq!(a.next(), b.next());
        let mut z = Xoshiro256StarStar::from_seed([0u8; 32]);
        // All-zero seed must be remapped to a valid state.
        assert_ne!(z.next(), 0);
    }
}
