//! The paper's own evaluation, Figs. 2–7, on the unified
//! `Scenario` → `Backend` → `Report` API.
//!
//! The Figs. 4/5 sweep is one [`SweepGrid`] evaluated twice — once by
//! [`AnalyticBackend`] (the Eq. 11 curves) and once by
//! [`ProtocolBackend`] (the paper's 20-runs-per-point procedure); the
//! Figs. 6/7 histogram is a seeded `B(20, p)` sample at the member
//! receipt probability p a [`ProtocolBackend`] report measures.

use gossip_model::analytic::AnalyticBackend;
use gossip_model::scenario::{Backend, FanoutSpec, Scenario, SweepGrid};
use gossip_model::{poisson_case, success};
use gossip_protocol::backend::ProtocolBackend;
use gossip_stats::binomial::Binomial;
use gossip_stats::gof::{chi_square_pvalue, total_variation_distance};

use crate::{analytic_r, ascii_plot, push, Outcome, Table, SEED};

/// Fig. 2 — mean fanout `z` vs reliability `S` for q ∈ {0.2, …, 1.0}
/// (analytic, paper Eq. 12: `z = −ln(1 − S)/(qS)`).
///
/// Each designed `z` is round-tripped through an [`AnalyticBackend`]
/// scenario: the forward model must reproduce the reliability the
/// inverse design promised. Paper reference points: the curves span
/// S ∈ [0.1111, 0.9999] with z rising to ≈46 at (q = 0.2, S = 0.9999)
/// and staying below ≈10 at q = 1.0.
pub fn fig2(out: &mut Outcome) {
    let qs = [0.2, 0.4, 0.6, 0.8, 1.0];
    let steps = 60;
    let (s_min, s_max) = (0.1111, 0.9999);

    let mut headers = vec!["S".to_string()];
    headers.extend(qs.iter().map(|q| format!("z(q={q})")));
    headers.push("max |roundtrip err|".into());
    let mut table = Table::new(
        "Fig. 2 — mean fanout required for reliability S (Poisson, Eq. 12)",
        &headers,
    );

    let mut series: Vec<(String, Vec<(f64, f64)>)> =
        qs.iter().map(|q| (format!("q={q}"), Vec::new())).collect();
    let mut worst_roundtrip = 0.0f64;
    for i in 0..steps {
        let s = s_min + (s_max - s_min) * i as f64 / (steps - 1) as f64;
        let mut row = vec![s];
        let mut row_err = 0.0f64;
        for (qi, &q) in qs.iter().enumerate() {
            // Inverse design (Eq. 12), then forward verification through
            // the scenario API.
            let z = poisson_case::mean_fanout_for(s, q).expect("Eq. 12 well-defined");
            let scenario = Scenario::new(1000, FanoutSpec::poisson(z)).with_failure_ratio(q);
            row_err = row_err.max((analytic_r(&scenario) - s).abs());
            row.push(z);
            series[qi].1.push((s, z));
        }
        worst_roundtrip = worst_roundtrip.max(row_err);
        row.push(row_err);
        table.push_floats(&row, 4);
    }
    out.table("fig2_fanout_vs_reliability.csv", table);
    out.note(ascii_plot(&series, 70, 22));

    let z_max = series[0].1.last().expect("non-empty").1;
    out.finding(
        (z_max - 46.0).abs() < 0.5,
        format!("z(q=0.2, S=0.9999) = {z_max:.2} (paper plot: ≈46, held to ±0.5)"),
    );
    out.finding(
        worst_roundtrip < 1e-6,
        format!("Eq. 12 round-trips through Eq. 11: worst |R(designed z) − S| = {worst_roundtrip:.2e} < 1e-6"),
    );
}

/// Fig. 3 — minimum number of executions `t` for success probability
/// p_s = 0.999, as a function of per-execution reliability `S`
/// (analytic, paper Eq. 6: `t ≥ lg(1 − p_s)/lg(1 − S)`).
///
/// `t_min` is found by stepping the scenario's `executions` until the
/// [`AnalyticBackend`] report's `success_within_t` (Eq. 5) crosses
/// `p_s`; the closed form (Eq. 6) must agree at every point. Paper
/// reference: t ≈ 20 near S = 0.3, dropping below 5 around S ≈ 0.75 and
/// to ~1–2 as S → 1.
pub fn fig3(out: &mut Outcome) {
    let ps = 0.999;
    let steps = 60;
    let (s_min, s_max) = (0.20, 0.995);

    let mut table = Table::new(
        "Fig. 3 — minimum executions t for Pr(success) ≥ 0.999 (Eq. 6)",
        &["S", "t_min"],
    );
    let mut points = Vec::with_capacity(steps);
    let mut worst_step_gap = 0;
    for i in 0..steps {
        let s = s_min + (s_max - s_min) * i as f64 / (steps - 1) as f64;
        // A scenario whose one-execution reliability is S (invert
        // Eq. 11 for the fanout at q = 1), then step t upward until the
        // reported Eq. 5 success probability clears p_s.
        let z = poisson_case::mean_fanout_for(s, 1.0).expect("Eq. 12 well-defined");
        let scenario = Scenario::new(1000, FanoutSpec::poisson(z));
        let t_min = (1..=64u32)
            .find(|&t| {
                let report = AnalyticBackend
                    .evaluate(&scenario.clone().with_executions(t))
                    .expect("valid scenario");
                report.success_within_t >= ps
            })
            .unwrap_or_else(|| panic!("t_min must exist for S = {s}"));
        // The scenario's reliability differs from S only by solver
        // epsilon, so the closed form may sit one boundary step away.
        let closed = success::required_executions(s, ps).expect("supercritical S");
        worst_step_gap = worst_step_gap.max((t_min as i64 - closed as i64).abs());
        table.push(vec![format!("{s:.4}"), format!("{t_min}")]);
        points.push((s, t_min as f64));
    }
    out.table("fig3_required_executions.csv", table);
    out.note(ascii_plot(
        &[("t_min(S), ps=0.999", points.clone())],
        70,
        18,
    ));

    out.finding(
        worst_step_gap <= 1,
        format!("stepped Eq. 5 search vs Eq. 6 closed form: worst |Δt| = {worst_step_gap} ≤ 1 over {steps} points"),
    );
    let (first, last) = (points[0], points[steps - 1]);
    out.finding(
        first.1 >= 20.0 && last.1 <= 2.0,
        format!(
            "t_min({:.2}) = {} ≥ 20, t_min({:.3}) = {} ≤ 2 (paper: ~20 at small S, 1–2 near 1)",
            first.0, first.1, last.0, last.1
        ),
    );
}

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
    /// Analytic reliability: the root of Eq. 11.
    pub analytic: f64,
}

/// The paper's fanout grid for Figs. 4/5: 1.1 to 6.7 step 0.4.
fn paper_fanout_grid() -> Vec<f64> {
    let mut grid = Vec::new();
    let mut f = 1.1;
    while f <= 6.7 + 1e-9 {
        grid.push((f * 10.0f64).round() / 10.0);
        f += 0.4;
    }
    grid
}

/// Runs the Figs. 4/5 sweep: reliability vs mean fanout for each `q`,
/// on groups of `n` members; `reps` runs per point (paper: 20).
///
/// Points come in the grid's order, fanout-major: all `qs` of the
/// first fanout, then all of the second.
pub fn reliability_vs_fanout(
    n: usize,
    qs: &[f64],
    reps: usize,
    seed: u64,
) -> Vec<ReliabilityPoint> {
    let base = Scenario::new(n, FanoutSpec::poisson(4.0))
        .with_replications(reps)
        .with_seed(seed);
    let grid = SweepGrid::new(base)
        .over_failure_ratios(qs)
        .over_poisson_means(&paper_fanout_grid());
    let analytic = grid.run(&AnalyticBackend);
    let simulated = grid.run(&ProtocolBackend);
    analytic
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
                analytic: ana.reliability,
            }
        })
        .collect()
}

/// Absolute |sim − analysis| over the points with `f·q` above `floor`
/// (clear of the transition, where finite-size rounding dominates).
pub fn supercritical_gaps(points: &[ReliabilityPoint], floor: f64) -> Vec<f64> {
    points
        .iter()
        .filter(|p| p.f * p.q > floor)
        .map(|p| (p.simulated - p.analytic).abs())
        .collect()
}

/// Shared driver for Figs. 4 and 5: both panels at group size `n`, one
/// sim / analysis / raw column triple per `q`. Returns the largest
/// supercritical (f·q > 1.2) |sim − analysis| of each panel.
fn reliability_figure(out: &mut Outcome, fig: u32, n: usize) -> [f64; 2] {
    let reps = 20; // paper: 20 runs per point
    let panels: [(&str, [f64; 4]); 2] = [("a", [0.1, 0.3, 0.5, 1.0]), ("b", [0.4, 0.6, 0.8, 1.0])];
    panels.map(|(panel, qs)| {
        let points = reliability_vs_fanout(n, &qs, reps, SEED);
        let mut headers = vec!["f".to_string()];
        for q in qs {
            headers.extend([
                format!("sim q={q}"),
                format!("ana q={q}"),
                format!("raw q={q}"),
            ]);
        }
        let mut table = Table::new(
            format!("Fig. {fig}{panel} — reliability vs mean fanout, n = {n}, {reps} runs/point"),
            &headers,
        );
        for row in points.chunks(qs.len()) {
            let mut cells = vec![row[0].f];
            cells.extend(
                row.iter()
                    .flat_map(|p| [p.simulated, p.analytic, p.simulated_raw]),
            );
            table.push_floats(&cells, 4);
        }
        out.table(format!("fig{fig}{panel}_reliability_n{n}.csv"), table);

        // Simulated series only (analytic curves are smooth; the plot is
        // for eyeballing agreement).
        let series: Vec<(String, Vec<(f64, f64)>)> = qs
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let column = points.iter().skip(qi).step_by(qs.len());
                let curve = column.map(|p| (p.f, p.simulated)).collect();
                (format!("sim q={q}"), curve)
            })
            .collect();
        out.note(ascii_plot(&series, 70, 20));
        supercritical_gaps(&points, 1.2)
            .into_iter()
            .fold(0.0, f64::max)
    })
}

/// Figs. 4a/4b — reliability vs mean fanout in a **1000-node** group:
/// simulation (20 runs per `{f, q}` point) against the analytic giant
/// component (Eq. 11).
///
/// Paper procedure (§5.1): q ∈ {0.1, 0.3, 0.5, 1.0} (4a) and
/// {0.4, 0.6, 0.8, 1.0} (4b); f from 1.1 to 6.7 step 0.4; every critical
/// point respects q > 1/f; "the results of simulations tally with the
/// analytical results except very few points".
pub fn fig4(out: &mut Outcome) {
    let [a, b] = reliability_figure(out, 4, 1000);
    // Measured 0.0199 / 0.0534: panel b's worst point is the one
    // near-critical cell f·q ≈ 1.2, not a trend.
    out.finding(
        a <= 0.04 && b <= 0.2,
        format!("max supercritical |sim − ana| at n = 1000: panel a {a:.4} ≤ 0.04, panel b {b:.4} ≤ 0.2"),
    );
}

/// Figs. 5a/5b — reliability vs mean fanout in a **5000-node** group.
///
/// Same procedure as Fig. 4; the paper observes the simulation "tallies
/// with the analytical results better than in Fig. 4, which indicates
/// that our modeling works better in larger scale systems". That holds
/// for the worst point over both panels, not panel by panel (at this
/// seed panel a reads 0.0343 against Fig. 4a's 0.0199);
/// [`finite_size`](crate::extensions::finite_size) measures the trend.
pub fn fig5(out: &mut Outcome) {
    let [a, b] = reliability_figure(out, 5, 5000);
    // Measured 0.0343 / 0.0290.
    out.finding(
        a <= 0.07 && b <= 0.06,
        format!("max supercritical |sim − ana| at n = 5000: panel a {a:.4} ≤ 0.07, panel b {b:.4} ≤ 0.06"),
    );
    let small = reliability_figure(&mut Outcome::default(), 4, 1000);
    let (worst_5000, worst_1000) = (a.max(b), small[0].max(small[1]));
    out.finding(
        worst_5000 < worst_1000,
        format!("worst supercritical gap over both panels shrinks with n: {worst_5000:.4} at n = 5000 < {worst_1000:.4} at n = 1000"),
    );
}

/// Shared driver for Figs. 6 and 7: the distribution of the paper's
/// §4.2 variable `X` — executions (out of 20) in which a nonfailed
/// member received the message — over 100 simulations at n = 2000,
/// against the paper's analysis line `B(20, R)` (R from Eq. 11) and
/// against the *directed* refinement `B(20, R²)`: a member receives iff
/// the source's dissemination takes off (prob. R) AND the member sits in
/// the reachable giant component (prob. R).
///
/// Executions are fresh and i.i.d., so `X ~ B(20, p)` exactly, with p
/// the member receipt probability: one [`ProtocolBackend`] report over
/// the paper's 20 × 100 executions measures it as `reliability_raw`
/// (see `gossip_model::reduce`), and the histogram is a seeded sample
/// of that law.
fn success_count_figure(out: &mut Outcome, fig: u32, f: f64, q: f64) {
    let (n, execs, sims) = (2000, 20, 100);
    let scenario = Scenario::new(n, FanoutSpec::poisson(f)).with_failure_ratio(q);
    let report = push(&scenario, execs * sims, SEED);
    let p = report.reliability_raw.expect("push measures p");
    let histogram = success::receipt_counts(p, execs as u32, sims, SEED);
    // For contrast: the strict group-wide success rate (every nonfailed
    // member reached) — essentially 0 at n in the thousands, which is
    // how we know Figs. 6/7 plot the per-member variable.
    let strict = report.complete_rate.expect("push measures strict success");

    let r = analytic_r(&scenario);
    let paper = Binomial::new(execs as u64, r);
    let directed = Binomial::new(execs as u64, r * r);
    let sim_pmf = histogram.pmf_vector();
    let tv_paper = total_variation_distance(&sim_pmf, &paper.pmf_vector());
    let tv_directed = total_variation_distance(&sim_pmf, &directed.pmf_vector());
    let chi = chi_square_pvalue(histogram.counts(), &paper.pmf_vector(), 5.0);

    let mut table = Table::new(
        format!(
            "Fig. {fig} — Pr(X = k) for X = #successes among {execs} executions, \
             n = {n}, f = {f}, q = {q}, {sims} sims"
        ),
        &[
            "k",
            "Pr(X=k) sim",
            "Pr(X=k) B(t,R) [paper]",
            "Pr(X=k) B(t,R^2) [directed]",
        ],
    );
    for k in 0..histogram.buckets() {
        let row = [
            k as f64,
            histogram.pmf(k),
            paper.pmf(k as u64),
            directed.pmf(k as u64),
        ];
        table.push_floats(&row, 4);
    }
    out.table(
        format!("fig{fig}_success_distribution_f{f}_q{q}.csv"),
        table,
    );
    out.note(format!(
        "analysis line B({execs}, R) with exact R = {r:.4} (paper rounds to 0.967); measured \
         member receipt probability p = {p:.4} (R² = {:.4}); simulated mean X = {:.2}, \
         mode = {}, chi2 p against it = {:.3}; the strict group-wide success count averages \
         {:.2}/{execs} at this n, so X is the per-member receipt count",
        r * r,
        histogram.mean(),
        histogram.mode(),
        chi.p_value,
        strict * execs as f64
    ));
    // Measured: TV 0.2272 / 0.2272 to the paper's line, 0.0669 / 0.0607
    // to the directed one (Fig. 6 / Fig. 7).
    out.finding(
        tv_directed < tv_paper,
        format!(
            "the histogram sits closer to the directed B({execs}, R²) than to the paper's \
             B({execs}, R): TV {tv_directed:.4} < {tv_paper:.4} — the source-extinction \
             factor the undirected model folds away"
        ),
    );
}

/// Fig. 6 — distribution of the gossip-success count `X` among 20
/// executions, n = 2000, **f = 4.0, q = 0.9**, 100 simulations, against
/// the analysis line `B(20, 0.967)`.
///
/// Paper procedure (§5.2): "for each pair of parameters, we run our
/// gossiping algorithm for 20 times in one simulation, and each
/// simulation is repeated for 100 times; then we report the distribution
/// of the number X".
pub fn fig6(out: &mut Outcome) {
    success_count_figure(out, 6, 4.0, 0.9);
}

/// Fig. 7 — the same distribution at **f = 6.0, q = 0.6**.
///
/// The paper's point: `{4.0, 0.9}` (Fig. 6) and `{6.0, 0.6}` (here) have
/// the same product f·q = 3.6 and hence the same one-execution
/// reliability (Eq. 6 then requires t ≥ 3 at p_s = 0.999), yet "their
/// corresponding distributions of gossiping success are not exactly
/// identical" — fanout and failure ratio carry different weight for
/// whole-group success.
pub fn fig7(out: &mut Outcome) {
    success_count_figure(out, 7, 6.0, 0.6);
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
