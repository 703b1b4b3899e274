//! Figs. 4a/4b — reliability vs mean fanout in a **1000-node** group:
//! simulation (20 runs per `{f, q}` point) against the analytic giant
//! component (Eq. 11).
//!
//! Paper procedure (§5.1): q ∈ {0.1, 0.3, 0.5, 1.0} (4a) and
//! {0.4, 0.6, 0.8, 1.0} (4b); f from 1.1 to 6.7 step 0.4; every critical
//! point respects q > 1/f; "the results of simulations tally with the
//! analytical results except very few points".

use gossip_bench::figures::{
    max_supercritical_gap, paper_fanout_grid, reliability_table, reliability_vs_fanout,
};
use gossip_bench::{ascii_plot, base_seed, scaled};

fn main() {
    run(1000, "fig4");
}

/// Shared driver for Figs. 4 (n = 1000) and 5 (n = 5000).
pub fn run(n: usize, tag: &str) {
    let reps = scaled(20); // paper: 20 runs per point
    let panels: [(&str, &[f64]); 2] = [("a", &[0.1, 0.3, 0.5, 1.0]), ("b", &[0.4, 0.6, 0.8, 1.0])];
    for (panel, qs) in panels {
        let points = reliability_vs_fanout(n, qs, reps, base_seed());
        let title =
            format!("Fig. {tag}{panel} — reliability vs mean fanout, n = {n}, {reps} runs/point");
        let table = reliability_table(&title, qs, &points);
        table.print();
        table.save(&format!("{tag}{panel}_reliability_n{n}.csv"));

        // Simulated series only (analytic curves are smooth; the plot is
        // for eyeballing agreement).
        let grid = paper_fanout_grid();
        let series: Vec<(String, Vec<(f64, f64)>)> = qs
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                (
                    format!("sim q={q}"),
                    grid.iter()
                        .enumerate()
                        .map(|(fi, &f)| (f, points[qi * grid.len() + fi].simulated))
                        .collect(),
                )
            })
            .collect();
        let series_refs: Vec<(&str, Vec<(f64, f64)>)> = series
            .iter()
            .map(|(l, p)| (l.as_str(), p.clone()))
            .collect();
        println!("{}", ascii_plot(&series_refs, 70, 20));

        let gap = max_supercritical_gap(&points);
        println!(
            "checkpoint: max |sim − analysis| over supercritical points = {gap:.4} \
             (paper: curves \"tally\" except few points)\n"
        );
    }
}
