//! The flat push-relay kernel.
//!
//! One replication of the paper's Fig. 1 relay process: the source
//! pushes to `F ~ dist` members, every first-time receiver pushes to
//! its own `F` members, crashed members absorb without forwarding, and
//! lossy links drop each copy independently. Materializing that as a
//! per-replication relay digraph (a CSR build) and BFS-ing it is the
//! textbook form; this kernel instead defers every random decision
//! about a member — its crash coin, its fanout, its targets — to the
//! moment the rumor reaches it. The two are distributionally identical
//! — every member is expanded at most once and all draws are
//! independent of the relay process — but the deferred form never
//! touches members the epidemic misses and never builds
//! per-replication adjacency at all: a replication costs O(reached),
//! not O(n). The members the rumor never met only matter through how
//! many of them survived (the reliability denominator), and that is one
//! `Binomial(unreached, q)` draw.
//!
//! All state is struct-of-arrays in a [`RelayScratch`] arena: the
//! reached bitset, a pre-failed bitset when the setup has zone
//! failures, three `u32` vectors (current frontier, next frontier,
//! target buffer) and the survivors per level ([`RelayScratch::hops`]).
//! `RelayScratch::reset` clears without freeing, so an evaluation
//! allocates once and sweeps thousands of replications through the
//! same buffers.
//!
//! No other code in the workspace samples the gossip digraph as a
//! graph, and one function turns a `Scenario` into a [`RelaySetup`]:
//! [`crate::evaluate_relay`], which `GraphBackend` runs for directed
//! reach on overlays and under static faults (`blocked`, `prefailed`)
//! and `ProtocolBackend` for the §5 push relay, static faults included.
//! Its reference is the event calendar (`NetSimBackend`), which
//! `tests/tests/engine_agreement.rs` holds it to on every `Report`
//! metric.

use gossip_faults::adversary::BlockedLinks;
use gossip_model::distribution::FanoutDistribution;
use gossip_stats::binomial::Binomial;
use gossip_stats::rng::{sample_distinct_excluding, Xoshiro256StarStar};
use gossip_topology::{PeerSelection, Topology};

use crate::bitset::BitSet;
use crate::sampler::FanoutSampler;

/// Arena of per-replication state, reset — never reallocated — between
/// replications (the `UnionFind::reset` pattern applied to the whole
/// hot loop). The `failed` bitset holds the `prefailed` members only —
/// crashes are coins tossed on arrival, never stored — and is allocated
/// by the first replication that has any.
#[derive(Debug)]
pub struct RelayScratch {
    failed: Option<BitSet>,
    reached: BitSet,
    frontier: Vec<u32>,
    next: Vec<u32>,
    targets: Vec<u32>,
    hops: Vec<u32>,
}

impl RelayScratch {
    /// Buffers for a group of `n` members.
    pub fn new(n: usize) -> Self {
        RelayScratch {
            failed: None,
            reached: BitSet::new(n),
            frontier: Vec::new(),
            next: Vec::new(),
            targets: Vec::new(),
            hops: Vec::new(),
        }
    }

    /// Universe size the buffers were sized for.
    pub fn capacity(&self) -> usize {
        self.reached.len()
    }

    /// Clears every buffer in place.
    pub fn reset(&mut self) {
        if let Some(failed) = &mut self.failed {
            failed.clear();
        }
        self.reached.clear();
        self.frontier.clear();
        self.next.clear();
        self.targets.clear();
        self.hops.clear();
    }

    /// The last replication's first receipts by nonfailed members per
    /// level: `hops()[h]` survived their crash coin h hops from the
    /// source (the source alone at 0). Crashed and pre-failed receivers
    /// absorb uncounted, so the counts sum to `nonfailed_reached`.
    pub fn hops(&self) -> &[u32] {
        &self.hops
    }
}

/// Tallies from one replication.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RelayOutcome {
    /// Members that neither crashed nor were pre-failed: the reached
    /// ones counted as their crash coins were tossed, the unreached
    /// rest settled by one `Binomial(unreached, q)` draw.
    pub nonfailed: usize,
    /// Nonfailed members the rumor reached (source included).
    pub nonfailed_reached: usize,
    /// Copies sent, blocked and lost ones included — the count every
    /// layer reports as `messages_per_member`.
    pub messages_sent: u64,
}

impl RelayOutcome {
    /// Paper reliability R = n_rece / n_nonfailed (Eq. 2 denominator
    /// excludes crashed members).
    pub fn reliability(&self) -> f64 {
        if self.nonfailed == 0 {
            0.0
        } else {
            self.nonfailed_reached as f64 / self.nonfailed as f64
        }
    }
}

/// One replication's immutable configuration. Everything borrowed here
/// is shared read-only across replications (and across worker threads):
/// the overlay CSR, the alias table, the blocked-link set, the
/// pre-failed list.
#[derive(Clone, Copy)]
pub struct RelaySetup<'a> {
    /// Group size.
    pub n: usize,
    /// Rumor origin (never crashes).
    pub source: u32,
    /// Per-member survival probability in [0, 1] (no crash coin is
    /// tossed at 1).
    pub q: f64,
    /// Per-copy independent loss probability.
    pub loss: f64,
    /// Fanout law F.
    pub dist: &'a dyn FanoutDistribution,
    /// Alias-table draws for F.
    pub sampler: &'a FanoutSampler,
    /// `None` ⇒ complete overlay (uniform member selection, never
    /// materialized); `Some` ⇒ structured overlay + selection policy.
    pub overlay: Option<(&'a Topology, PeerSelection)>,
    /// Adversarially blocked links, consulted before the loss draw.
    pub blocked: Option<&'a BlockedLinks>,
    /// Members failed before the push starts (zone failures). The
    /// source is skipped if listed.
    pub prefailed: &'a [u32],
}

impl<'a> RelaySetup<'a> {
    /// Runs one replication through `scratch` using `rng`.
    pub fn run(&self, scratch: &mut RelayScratch, rng: &mut Xoshiro256StarStar) -> RelayOutcome {
        debug_assert_eq!(scratch.capacity(), self.n);
        scratch.reset();

        // Distinct pre-failed members the rumor has not met (yet).
        let mut prefailed_unreached = 0usize;
        if !self.prefailed.is_empty() {
            let failed = scratch.failed.get_or_insert_with(|| BitSet::new(self.n));
            for &node in self.prefailed {
                if node != self.source && failed.insert(node as usize) {
                    prefailed_unreached += 1;
                }
            }
        }

        scratch.reached.set(self.source as usize);
        scratch.frontier.push(self.source);

        let mut reached = 1usize;
        let mut nonfailed_reached = 0usize;
        let mut messages_sent = 0u64;
        while !scratch.frontier.is_empty() {
            let mut survivors = 0u32;
            // Split borrows: the frontier is drained while targets/next
            // are filled, so take it out of the arena for the level.
            let mut frontier = std::mem::take(&mut scratch.frontier);
            for &v in &frontier {
                // Failed members absorb, never forward.
                if scratch.failed.as_ref().is_some_and(|f| f.get(v as usize)) {
                    prefailed_unreached -= 1;
                    continue;
                }
                // The crash coin, tossed now that the rumor has arrived:
                // crashes are i.i.d. and independent of the relay, so
                // the run is distributed as if every coin had been
                // tossed up front.
                if self.q < 1.0 && v != self.source && !rng.next_bool(self.q) {
                    continue;
                }
                survivors += 1;
                let fanout = self.sampler.sample(self.dist, rng);
                match self.overlay {
                    None => {
                        // Complete overlay: uniform distinct members —
                        // the K(n−1) neighbour lists are never built.
                        scratch.targets.clear();
                        sample_distinct_excluding(self.n, v, fanout, rng, &mut scratch.targets);
                    }
                    Some((topo, policy)) => {
                        gossip_topology::select_targets(
                            topo,
                            policy,
                            v,
                            fanout,
                            rng,
                            &mut scratch.targets,
                        );
                    }
                }
                for &t in &scratch.targets {
                    // A send costs a message whether or not it arrives.
                    messages_sent += 1;
                    if let Some(blocked) = self.blocked {
                        if blocked.blocks(v, t) {
                            continue;
                        }
                    }
                    if self.loss > 0.0 && rng.next_bool(self.loss) {
                        continue;
                    }
                    if scratch.reached.insert(t as usize) {
                        scratch.next.push(t);
                        reached += 1;
                    }
                }
            }
            frontier.clear();
            scratch.frontier = frontier;
            std::mem::swap(&mut scratch.frontier, &mut scratch.next);
            scratch.hops.push(survivors);
            nonfailed_reached += survivors as usize;
        }

        // Members the rumor never met tossed no coin: how many of them
        // survived is all the denominator needs.
        let undecided = (self.n - reached - prefailed_unreached) as u64;
        let nonfailed = nonfailed_reached + Binomial::new(undecided, self.q).sample(rng) as usize;
        RelayOutcome {
            nonfailed,
            nonfailed_reached,
            messages_sent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::distribution::{FixedFanout, PoissonFanout};
    use gossip_model::poisson_case;
    use gossip_stats::rng::SplitMix64;
    use gossip_topology::OverlaySpec;

    fn run_reps(setup: &RelaySetup<'_>, reps: u64, seed: u64) -> Vec<RelayOutcome> {
        let mut scratch = RelayScratch::new(setup.n);
        (0..reps)
            .map(|rep| {
                let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, rep));
                let outcome = setup.run(&mut scratch, &mut rng);
                // The hops count each nonfailed receipt once, the source
                // alone at hop 0.
                let hops = scratch.hops();
                assert_eq!(hops[0], 1);
                assert_eq!(hops.iter().sum::<u32>() as usize, outcome.nonfailed_reached);
                outcome
            })
            .collect()
    }

    #[test]
    fn complete_overlay_matches_the_analytic_curve() {
        // Fig. 4 operating point: Po(6) fanout, q = 0.9. Mean relay
        // reliability should sit near the §4.3 closed form.
        let dist = PoissonFanout::new(6.0);
        let sampler = FanoutSampler::new(&dist);
        let setup = RelaySetup {
            n: 4000,
            source: 0,
            q: 0.9,
            loss: 0.0,
            dist: &dist,
            sampler: &sampler,
            overlay: None,
            blocked: None,
            prefailed: &[],
        };
        let outcomes = run_reps(&setup, 40, 0xF1A7_0001);
        let mean: f64 =
            outcomes.iter().map(RelayOutcome::reliability).sum::<f64>() / outcomes.len() as f64;
        let predicted = poisson_case::reliability(6.0, 0.9).unwrap();
        assert!(
            (mean - predicted).abs() < 0.05,
            "relay mean {mean} vs analytic {predicted}"
        );
    }

    #[test]
    fn deterministic_in_the_seed() {
        let dist = PoissonFanout::new(4.0);
        let sampler = FanoutSampler::new(&dist);
        let setup = RelaySetup {
            n: 500,
            source: 3,
            q: 0.8,
            loss: 0.1,
            dist: &dist,
            sampler: &sampler,
            overlay: None,
            blocked: None,
            prefailed: &[7, 8, 9],
        };
        let a = run_reps(&setup, 10, 42);
        let b = run_reps(&setup, 10, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn prefailed_members_absorb_and_shrink_the_denominator() {
        let dist = FixedFanout::new(8);
        let sampler = FanoutSampler::new(&dist);
        let prefailed: Vec<u32> = (1..=100).collect();
        let setup = RelaySetup {
            n: 1000,
            source: 0,
            q: 1.0,
            loss: 0.0,
            dist: &dist,
            sampler: &sampler,
            overlay: None,
            blocked: None,
            prefailed: &prefailed,
        };
        let outcome = run_reps(&setup, 1, 7)[0];
        assert_eq!(outcome.nonfailed, 900);
        assert!(outcome.nonfailed_reached <= 900);
        // Fanout 8 on an intact group saturates it.
        assert!(outcome.nonfailed_reached as f64 / 900.0 > 0.99);
    }

    #[test]
    fn loss_thins_like_a_lower_fanout() {
        // Po(8) with 50% loss ⇒ effective Po(4) reach (bond-thinning of
        // a Poisson relay graph).
        let lossy = PoissonFanout::new(8.0);
        let thin = PoissonFanout::new(4.0);
        let lossy_sampler = FanoutSampler::new(&lossy);
        let thin_sampler = FanoutSampler::new(&thin);
        let base = RelaySetup {
            n: 3000,
            source: 0,
            q: 1.0,
            loss: 0.5,
            dist: &lossy,
            sampler: &lossy_sampler,
            overlay: None,
            blocked: None,
            prefailed: &[],
        };
        let thinned = RelaySetup {
            loss: 0.0,
            dist: &thin,
            sampler: &thin_sampler,
            ..base
        };
        let mean = |outs: &[RelayOutcome]| {
            outs.iter().map(RelayOutcome::reliability).sum::<f64>() / outs.len() as f64
        };
        let a = mean(&run_reps(&base, 30, 11));
        let b = mean(&run_reps(&thinned, 30, 12));
        assert!((a - b).abs() < 0.05, "lossy {a} vs thinned {b}");
    }

    #[test]
    fn structured_overlay_runs_and_respects_degree() {
        let dist = FixedFanout::new(4);
        let sampler = FanoutSampler::new(&dist);
        let topo = gossip_topology::build_overlay(&OverlaySpec::KRegular { k: 4 }, 256, 99);
        let setup = RelaySetup {
            n: 256,
            source: 0,
            q: 1.0,
            loss: 0.0,
            dist: &dist,
            sampler: &sampler,
            overlay: Some((&topo, PeerSelection::RandomNeighbour)),
            blocked: None,
            prefailed: &[],
        };
        let mut scratch = RelayScratch::new(256);
        let outcome = setup.run(&mut scratch, &mut Xoshiro256StarStar::new(5));
        // Ring(k=4) with fanout 4 floods the whole ring, at least half
        // its circumference deep.
        assert_eq!(outcome.nonfailed_reached, 256);
        assert!(scratch.hops().len() > 256 / 4 / 2);
    }
}
