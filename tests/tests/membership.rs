//! The membership assumption (paper §3): gossip over SCAMP-style partial
//! views behaves like gossip over uniform views once views reach the
//! `(c+1)·ln n` size SCAMP provides. SCAMP views are an overlay
//! (`OverlaySpec::Scamp`), so they are checked through `Topology`.

use gossip_integration_tests::assert_close;
use gossip_model::{
    poisson_case, Backend, FanoutSpec, OverlaySpec, Report, Scenario, TopologySpec,
};
use gossip_netsim::membership::{Membership, OverlayView};
use gossip_protocol::ProtocolBackend;
use gossip_stats::rng::Xoshiro256StarStar;

fn scamp(c: usize) -> TopologySpec {
    TopologySpec::new(OverlaySpec::Scamp { c })
}

/// The §5 push experiment over SCAMP partial views, n = 1200.
fn over_scamp(f: f64, q: f64, c: usize, reps: usize, seed: u64) -> Report {
    let scenario = Scenario::new(1200, FanoutSpec::poisson(f))
        .with_failure_ratio(q)
        .with_topology(scamp(c))
        .with_replications(reps)
        .with_seed(seed);
    ProtocolBackend.evaluate(&scenario).unwrap()
}

#[test]
fn scamp_view_sizes_scale_with_log_n() {
    let n = 1500;
    let c = 2;
    let predicted = (c as f64 + 1.0) * (n as f64).ln();
    let mean = scamp(c).build(n, 7).mean_degree();
    assert!(
        mean > 0.4 * predicted && mean < 2.5 * predicted,
        "mean view {mean:.1} vs SCAMP prediction {predicted:.1}"
    );
}

#[test]
fn gossip_over_scamp_approaches_uniform_analysis() {
    // 12 replications, conditioned on take-off; tolerance 0.05.
    let (f, q) = (5.0, 0.9);
    let analytic = poisson_case::reliability(f, q).unwrap();
    let report = over_scamp(f, q, 2, 12, 5);
    assert_close(
        report.reliability,
        analytic,
        0.05,
        "partial-view gossip vs uniform analysis",
    );
}

#[test]
fn view_richness_tracks_uniform_analysis() {
    // Once views clear the SCAMP size, reliability (conditioned on
    // take-off, to remove source-extinction noise) sits near the uniform
    // analysis for every redundancy level. 16 replications per level;
    // tolerance 0.06.
    let (f, q) = (4.0, 0.9);
    let analytic = poisson_case::reliability(f, q).unwrap();
    for c in [0usize, 2, 4] {
        let report = over_scamp(f, q, c, 16, 9 + c as u64);
        assert_close(
            report.reliability,
            analytic,
            0.06,
            &format!("SCAMP c={c}: conditional reliability vs uniform analysis"),
        );
    }
}

#[test]
fn views_have_no_self_or_duplicates_at_scale() {
    let views = scamp(3).build(2000, 13);
    for v in 0..2000u32 {
        let view = views.neighbors(v);
        assert!(!view.contains(&v), "self-arc at {v}");
        assert!(view.windows(2).all(|w| w[0] < w[1]), "duplicate arc at {v}");
    }
}

#[test]
fn sampling_over_trait_object() {
    let views = OverlayView::build(500, &scamp(2), 17);
    let m: &dyn Membership = &views;
    let mut rng = Xoshiro256StarStar::new(1);
    let mut out = Vec::new();
    m.sample_targets(10, 4, &mut rng, &mut out);
    assert!(!out.is_empty() && out.len() <= 4);
    for t in &out {
        assert!(
            views.topology().neighbors(10).contains(t),
            "{t} not in view"
        );
    }
    let mut distinct = out.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), out.len(), "duplicate targets {out:?}");
}
