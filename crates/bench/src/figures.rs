//! Shared experiment drivers for the figure binaries, built on the
//! unified `Scenario` → `Backend` → `Report` API.
//!
//! The Figs. 4/5 sweep is one [`SweepGrid`] evaluated twice — once by
//! [`AnalyticBackend`] (the Eq. 11 curves) and once by
//! [`ProtocolBackend`] (the paper's 20-runs-per-point procedure) — so
//! the binaries carry no per-layer glue of their own.

use gossip_model::scenario::{AnalyticBackend, Backend, FanoutSpec, Scenario, SweepGrid};
use gossip_protocol::backend::ProtocolBackend;
use gossip_protocol::experiment;
use gossip_stats::binomial::Binomial;
use gossip_stats::gof::{chi_square_pvalue, total_variation_distance};
use gossip_stats::histogram::IntHistogram;

use crate::Table;

/// One `{f, q}` measurement of the Figs. 4/5 procedure.
#[derive(Clone, Copy, Debug)]
pub struct ReliabilityPoint {
    /// Mean fanout `f`.
    pub f: f64,
    /// Nonfailed ratio `q`.
    pub q: f64,
    /// Simulated reliability, conditioned on take-off — the estimator of
    /// the giant-component size that the paper's analysis curves plot.
    pub simulated: f64,
    /// Unconditional mean over all replications (duds included); drops
    /// toward `R²` at moderate reliability — reported in the CSVs for
    /// transparency.
    pub simulated_raw: f64,
    /// Fraction of replications that took off.
    pub takeoff_rate: f64,
    /// Analytic reliability: the root of Eq. 11.
    pub analytic: f64,
}

/// The paper's fanout grid for Figs. 4/5: 1.1 to 6.7 step 0.4.
pub fn paper_fanout_grid() -> Vec<f64> {
    let mut grid = Vec::new();
    let mut f = 1.1;
    while f <= 6.7 + 1e-9 {
        grid.push((f * 10.0f64).round() / 10.0);
        f += 0.4;
    }
    grid
}

/// The Figs. 4/5 scenario grid: Poisson fanout over the paper's grid,
/// one failure-ratio row per `q`, `reps` protocol runs per point.
pub fn fig45_grid(n: usize, qs: &[f64], reps: usize, base_seed: u64) -> SweepGrid {
    let base = Scenario::new(n, FanoutSpec::poisson(4.0))
        .with_replications(reps)
        .with_seed(base_seed);
    SweepGrid::new(base)
        .over_failure_ratios(qs)
        .over_poisson_means(&paper_fanout_grid())
}

/// Runs the Figs. 4/5 sweep: reliability vs mean fanout for each `q`,
/// on groups of `n` members; `reps` runs per point (paper: 20).
///
/// Points are ordered `q`-major (all fanouts of `qs[0]` first), the
/// layout [`reliability_table`] expects.
pub fn reliability_vs_fanout(
    n: usize,
    qs: &[f64],
    reps: usize,
    base_seed: u64,
) -> Vec<ReliabilityPoint> {
    let grid = fig45_grid(n, qs, reps, base_seed);
    let analytic = grid.run(&AnalyticBackend);
    let simulated = grid.run(&ProtocolBackend);
    // Cell order is fanout-major (the grid's outer axis); the table
    // layout wants q-major.
    let cells: Vec<ReliabilityPoint> = analytic
        .iter()
        .zip(&simulated)
        .map(|(ana, sim)| {
            let scenario = &ana.scenario;
            let f = match scenario.fanout {
                FanoutSpec::Poisson { mean } => mean,
                _ => unreachable!("fig45 grid is Poisson"),
            };
            let ana = ana.report.as_ref().expect("analytic evaluates every cell");
            let sim = sim.report.as_ref().expect("protocol evaluates every cell");
            ReliabilityPoint {
                f,
                q: scenario.q().expect("grid rows are failure ratios"),
                simulated: sim.reliability,
                simulated_raw: sim.reliability_raw.expect("protocol reports raw mean"),
                takeoff_rate: sim.takeoff_rate.expect("protocol reports take-off"),
                analytic: ana.reliability,
            }
        })
        .collect();
    let (nf, nq) = (paper_fanout_grid().len(), qs.len());
    (0..nq)
        .flat_map(|qi| (0..nf).map(move |fi| (fi, qi)))
        .map(|(fi, qi)| cells[fi * nq + qi])
        .collect()
}

/// Formats a [`reliability_vs_fanout`] sweep as a table with one
/// sim/analysis column pair per `q`.
pub fn reliability_table(title: &str, qs: &[f64], points: &[ReliabilityPoint]) -> Table {
    let grid = paper_fanout_grid();
    let mut headers = vec!["f".to_string()];
    for q in qs {
        headers.push(format!("sim q={q}"));
        headers.push(format!("ana q={q}"));
        headers.push(format!("raw q={q}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    for (fi, &f) in grid.iter().enumerate() {
        let mut row = vec![f];
        for (qi, _) in qs.iter().enumerate() {
            let p = &points[qi * grid.len() + fi];
            row.push(p.simulated);
            row.push(p.analytic);
            row.push(p.simulated_raw);
        }
        table.push_floats(&row, 4);
    }
    table
}

/// Largest |sim − analysis| across supercritical points (f·q > 1.2 —
/// clear of the transition, where finite-size rounding dominates).
pub fn max_supercritical_gap(points: &[ReliabilityPoint]) -> f64 {
    points
        .iter()
        .filter(|p| p.f * p.q > 1.2)
        .map(|p| (p.simulated - p.analytic).abs())
        .fold(0.0, f64::max)
}

/// The Figs. 6/7 procedure: distribution of the paper's §4.2 variable
/// `X` — executions (out of `execs`) in which a nonfailed member
/// received the message — over `sims` simulations, vs the analytic
/// `B(execs, R)` with `R` from Eq. 11.
pub struct SuccessCountFigure {
    /// Simulated histogram of `X` (per-member receipt count).
    pub histogram: IntHistogram,
    /// The analytic distribution the paper plots: `B(execs, R)`.
    pub analytic: Binomial,
    /// The paper's rounded reliability for these parameters (0.967).
    pub paper_r: f64,
    /// Total-variation distance between simulated pmf and analytic pmf.
    pub tv_distance: f64,
    /// Chi-square p-value of the fit.
    pub chi2_pvalue: f64,
    /// The *directed* refinement the paper's model misses: a member
    /// receives iff the source's dissemination takes off (prob. S) AND
    /// the member sits in the reachable giant component (prob. S) —
    /// `B(execs, S²)`. The measured histogram fits this line tighter.
    pub analytic_directed: Binomial,
    /// TV distance to the `B(execs, S²)` refinement.
    pub tv_directed: f64,
    /// For contrast: the strict group-wide success count (every
    /// nonfailed member reached) over an equal number of executions —
    /// essentially 0 at n in the thousands, which is how we know the
    /// paper's Figs. 6/7 plot the per-member variable (EXPERIMENTS.md).
    pub strict_success_mean: f64,
}

/// Runs the success-count experiment for `{f, q}` at group size `n`.
/// The per-execution histogram machinery stays on the experiment
/// harness (the §4.2 variable `X` is not a per-scenario scalar); the
/// analytic reference line comes from the scenario API.
pub fn success_count_figure(
    n: usize,
    f: f64,
    q: f64,
    execs: usize,
    sims: usize,
    base_seed: u64,
) -> SuccessCountFigure {
    let scenario = Scenario::new(n, FanoutSpec::poisson(f))
        .with_failure_ratio(q)
        .with_seed(base_seed);
    // The per-member histogram needs a `Clone` distribution, so the
    // experiment harness gets a concrete PoissonFanout — but both it and
    // the ExecutionConfig are derived from the scenario's own fields so
    // the analytic overlay and the simulation cannot diverge.
    let dist = match scenario.fanout {
        FanoutSpec::Poisson { mean } => gossip_model::PoissonFanout::new(mean),
        _ => unreachable!("success-count figures are Poisson"),
    };
    let cfg = gossip_protocol::engine::ExecutionConfig::new(
        scenario.n,
        scenario.q().expect("ratio failure model"),
    );
    let histogram =
        experiment::member_receipt_distribution(&cfg, &dist, execs, sims, scenario.seed);
    let strict = experiment::success_count_distribution(
        &cfg,
        &dist,
        execs,
        (sims / 10).max(1),
        scenario.seed ^ 0xDEAD,
    );

    let analytic_r = AnalyticBackend
        .evaluate(&scenario)
        .expect("parameters validated upstream")
        .reliability;
    let analytic = Binomial::new(execs as u64, analytic_r);
    let analytic_directed = Binomial::new(execs as u64, analytic_r * analytic_r);
    let sim_pmf = histogram.pmf_vector();
    let ana_pmf = analytic.pmf_vector();
    let tv = total_variation_distance(&sim_pmf, &ana_pmf);
    let tv_directed = total_variation_distance(&sim_pmf, &analytic_directed.pmf_vector());
    let chi = chi_square_pvalue(histogram.counts(), &ana_pmf, 5.0);
    SuccessCountFigure {
        histogram,
        analytic,
        paper_r: 0.967,
        tv_distance: tv,
        chi2_pvalue: chi.p_value,
        analytic_directed,
        tv_directed,
        strict_success_mean: strict.mean(),
    }
}

/// Formats a [`SuccessCountFigure`] as a table of `Pr(X = k)`.
pub fn success_count_table(title: &str, fig: &SuccessCountFigure) -> Table {
    let mut table = Table::new(
        title,
        &[
            "k",
            "Pr(X=k) sim",
            "Pr(X=k) B(t,R) [paper]",
            "Pr(X=k) B(t,R^2) [directed]",
        ],
    );
    for k in 0..fig.histogram.buckets() {
        table.push_floats(
            &[
                k as f64,
                fig.histogram.pmf(k),
                fig.analytic.pmf(k as u64),
                fig.analytic_directed.pmf(k as u64),
            ],
            4,
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_matches_caption() {
        let grid = paper_fanout_grid();
        assert_eq!(grid.first().copied(), Some(1.1));
        assert_eq!(grid.last().copied(), Some(6.7));
        assert_eq!(grid.len(), 15);
        for w in grid.windows(2) {
            assert!(((w[1] - w[0]) - 0.4).abs() < 1e-9);
        }
    }
}
