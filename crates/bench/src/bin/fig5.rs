//! Figs. 5a/5b — reliability vs mean fanout in a **5000-node** group.
//!
//! Same procedure as Fig. 4; the paper observes the simulation "tallies
//! with the analytical results better than in Fig. 4, which indicates
//! that our modeling works better in larger scale systems". The
//! `finite_size` binary quantifies that scaling claim directly.

use gossip_bench::figures::{
    max_supercritical_gap, paper_fanout_grid, reliability_table, reliability_vs_fanout,
};
use gossip_bench::{ascii_plot, base_seed, scaled};

fn main() {
    let n = 5000;
    let reps = scaled(20);
    let panels: [(&str, &[f64]); 2] = [("a", &[0.1, 0.3, 0.5, 1.0]), ("b", &[0.4, 0.6, 0.8, 1.0])];
    for (panel, qs) in panels {
        let points = reliability_vs_fanout(n, qs, reps, base_seed());
        let title =
            format!("Fig. 5{panel} — reliability vs mean fanout, n = {n}, {reps} runs/point");
        let table = reliability_table(&title, qs, &points);
        table.print();
        table.save(&format!("fig5{panel}_reliability_n{n}.csv"));

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
             (should be smaller than the Fig. 4 gap at n = 1000)\n"
        );
    }
}
