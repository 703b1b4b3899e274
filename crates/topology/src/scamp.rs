//! SCAMP partial views as a directed overlay.
//!
//! The paper cites SCAMP (Ganesh, Kermarrec, Massoulié — its reference
//! \[12\]) as the membership service gossip would run on in a real
//! deployment. This module reimplements the core of SCAMP's
//! *subscription* algorithm to build per-member partial views whose
//! expected size is `(c + 1)·ln n` — large enough (by SCAMP's analysis)
//! for gossip over partial views to behave like gossip over uniform
//! views. The membership-ablation experiment (E10) quantifies exactly
//! that claim against this implementation.
//!
//! The construction runs offline (views frozen before the multicast
//! starts), which matches the paper's model: membership churn is out of
//! scope, only crashes during dissemination matter. A view is the list
//! of members its holder gossips to, so the overlay is directed.

use gossip_stats::rng::Xoshiro256StarStar;

use crate::csr::Topology;

/// Builds SCAMP views for `n` members with redundancy parameter `c`
/// (SCAMP's "c additional copies"). Validation guarantees `c + 2 < n`,
/// so at least one member joins through the subscription walk.
pub(crate) fn scamp(n: usize, c: usize, rng: &mut Xoshiro256StarStar) -> Topology {
    let mut views: Vec<Vec<u32>> = vec![Vec::new(); n];

    // Bootstrap: a small ring among the first few members so early
    // subscriptions have somewhere to land.
    let boot = c + 2;
    for (i, view) in views.iter_mut().enumerate().take(boot) {
        view.push(((i + 1) % boot) as u32);
    }

    // Incremental joins, as in SCAMP: member j subscribes via a contact
    // chosen among the *already joined* members 0..j. (The (c+1)·ln n
    // view size comes precisely from this growth process — the k-th
    // join deposits |view(contact)| + c + 1 ≈ (c+1)·ln k arcs.)
    for j in boot as u32..n as u32 {
        let contact = rng.next_below(j as u64) as u32;
        // The subscriber initializes its own view with its contact.
        views[j as usize].push(contact);
        // The contact forwards the subscription to every member of its
        // view, plus c extra copies to random view members; the contact
        // itself also integrates j.
        let mut copies: Vec<u32> = views[contact as usize].clone();
        for _ in 0..c {
            if let Some(&extra) = pick(&views[contact as usize], rng) {
                copies.push(extra);
            }
        }
        copies.push(contact);

        for mut holder in copies {
            // Forward until kept: keep with probability 1/(1+|view|),
            // otherwise pass to a random view member. The hop cap keeps
            // termination unconditional; the forced keep at the cap only
            // adds O(1/n) distortion.
            let mut hops = 0;
            loop {
                hops += 1;
                let view = &mut views[holder as usize];
                let keep_p = 1.0 / (1.0 + view.len() as f64);
                if holder != j && !view.contains(&j) && (rng.next_bool(keep_p) || hops >= 50) {
                    view.push(j);
                    break;
                }
                match pick(view, rng).copied() {
                    Some(next) if next != j => holder = next,
                    _ => {
                        // Dead end (empty view or only j): keep here if
                        // legal, else drop the copy.
                        if holder != j && !views[holder as usize].contains(&j) {
                            views[holder as usize].push(j);
                        }
                        break;
                    }
                }
            }
        }
    }

    // Guarantee no isolated members: anyone with an empty view gets one
    // uniform contact (SCAMP's lease/rebalance safety net).
    for v in 0..n as u32 {
        if views[v as usize].is_empty() {
            let target = loop {
                let cand = rng.next_below(n as u64) as u32;
                if cand != v {
                    break cand;
                }
            };
            views[v as usize].push(target);
        }
    }

    Topology::from_out_lists(views)
}

/// Uniform element of a slice, or `None` if empty.
fn pick<'a, T>(slice: &'a [T], rng: &mut Xoshiro256StarStar) -> Option<&'a T> {
    if slice.is_empty() {
        None
    } else {
        Some(&slice[rng.next_below(slice.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use crate::{build_overlay, OverlaySpec, Topology};

    fn views(n: usize, c: usize, seed: u64) -> Topology {
        build_overlay(&OverlaySpec::Scamp { c }, n, seed)
    }

    #[test]
    fn view_size_scales_like_c_plus_one_log_n() {
        for &(n, c) in &[(500usize, 2usize), (2000, 3)] {
            let mean = views(n, c, 77).mean_degree();
            let expected = (c as f64 + 1.0) * (n as f64).ln();
            assert!(
                mean > 0.4 * expected && mean < 2.5 * expected,
                "n={n}, c={c}: mean view {mean:.1}, SCAMP predicts ≈{expected:.1}"
            );
        }
    }

    #[test]
    fn views_contain_no_self_or_duplicates() {
        let t = views(300, 2, 9);
        for v in 0..300u32 {
            let view = t.neighbors(v);
            assert!(!view.contains(&v), "self in view of {v}");
            assert!(view.windows(2).all(|w| w[0] < w[1]), "view of {v}");
        }
    }

    #[test]
    fn no_empty_views() {
        let t = views(100, 1, 3);
        for v in 0..100u32 {
            assert!(t.degree(v) >= 1, "member {v} isolated");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(views(150, 2, 42), views(150, 2, 42));
        assert_ne!(views(150, 2, 42), views(150, 2, 43));
    }

    #[test]
    fn views_are_directed() {
        // Some member's view holds a member whose view does not hold it.
        let t = views(300, 1, 5);
        assert!((0..300u32).any(|v| t.neighbors(v).iter().any(|&w| !t.neighbors(w).contains(&v))));
    }
}
