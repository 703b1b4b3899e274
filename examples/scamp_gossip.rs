//! Gossip over SCAMP partial views: the paper assumes a membership
//! service exists (§3, citing SCAMP); this example runs the same
//! [`Scenario`] over the full view and over SCAMP's partial views (the
//! overlay `OverlaySpec::Scamp`) through the protocol backend and
//! compares with the full-view analysis.
//!
//! ```sh
//! cargo run --release --example scamp_gossip
//! ```

use gossip::topology::{OverlaySpec, TopologySpec};
use gossip::{AnalyticBackend, Backend, FanoutSpec, ProtocolBackend, Scenario};

fn main() {
    let n = 2_000;
    let (f, q) = (5.0, 0.85);
    let base = Scenario::new(n, FanoutSpec::poisson(f))
        .with_failure_ratio(q)
        .with_replications(15)
        .with_seed(3);
    let analytic = AnalyticBackend
        .evaluate(&base)
        .expect("valid scenario")
        .reliability;

    println!("n = {n}, Po({f}) fanout, q = {q}");
    println!("analytic reliability (uniform targets): {analytic:.4}\n");

    println!(
        "{:>12} {:>16} {:>12} {:>8}",
        "membership", "mean view size", "reliability", "gap"
    );
    let full = ProtocolBackend.evaluate(&base).expect("valid scenario");
    println!(
        "{:>12} {:>16} {:>12.4} {:>8.4}",
        "full view",
        n - 1,
        full.reliability,
        (full.reliability - analytic).abs()
    );

    for c in [0usize, 1, 2, 4] {
        let scamp = TopologySpec::new(OverlaySpec::Scamp { c });
        let views = scamp.build(n, 99);
        let scenario = base.clone().with_topology(scamp).with_seed(3 + c as u64);
        let report = ProtocolBackend.evaluate(&scenario).expect("valid scenario");
        println!(
            "{:>12} {:>16.1} {:>12.4} {:>8.4}",
            format!("SCAMP c={c}"),
            views.mean_degree(),
            report.reliability,
            (report.reliability - analytic).abs()
        );
    }

    println!(
        "\nWith (c+1)·ln n ≈ {:.0}-entry views (c = 2), gossip over partial views \
         is practically indistinguishable from the uniform-membership analysis — \
         the paper's membership assumption costs almost nothing.",
        3.0 * (n as f64).ln()
    );
}
