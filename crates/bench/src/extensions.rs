//! E7–E14 — experiments beyond the paper's figures that test the
//! claims its text makes: the critical point, arbitrary fanout
//! distributions, the success calculus, the membership assumption,
//! scale, the related-work baselines of §2, and message loss.

use gossip_model::baselines::asymptotic;
use gossip_model::baselines::pbcast::PbcastRecurrence;
use gossip_model::baselines::si::SiModel;
use gossip_model::distribution::PoissonFanout;
use gossip_model::loss::LossyGossip;
use gossip_model::scenario::{
    AnalyticBackend, Backend, FanoutSpec, Scenario, SweepCell, SweepGrid,
};
use gossip_model::{poisson_case, success, OverlaySpec, SitePercolation, TopologySpec};
use gossip_protocol::{NetSimBackend, ProtocolBackend};
use gossip_rgraph::percolation_sim::percolate_many;
use gossip_rgraph::phase::scan_configuration_model;
use gossip_rgraph::ConfigurationModel;
use gossip_stats::rng::Xoshiro256StarStar;

use crate::figures::{reliability_vs_fanout, supercritical_gaps};
use crate::{analytic_r, ascii_plot, push, Outcome, Table, SEED};

/// E7 — empirical validation of the critical point `q_c = 1/G1'(1)`
/// (paper Eqs. 3 and 10).
///
/// The paper asserts, and Figs. 4/5 visually show, that gossip only
/// works when `q > 1/f` for Poisson fanout. This experiment locates the
/// phase transition directly: sweep `q` on configuration-model graphs,
/// find the second-largest-component peak, and compare against the
/// analytic `q_c` ([`AnalyticBackend`]'s `Report::critical_q`): Po(z)
/// transitions at 1/z (Eq. 10), Fixed(3) at 1/2 (Eq. 3).
pub fn critical_point(out: &mut Outcome) {
    let n = 20_000;
    let reps = 6;
    let step = 0.025;
    let qs: Vec<f64> = (2..=40).map(|i| i as f64 * step).collect(); // 0.05 .. 1.0

    let mut table = Table::new(
        format!("E7 — empirical vs analytic critical point (n = {n}, {reps} graphs/point)"),
        &["distribution", "analytic q_c", "empirical q_c", "|gap|"],
    );
    let cases = [
        FanoutSpec::poisson(2.5),
        FanoutSpec::poisson(4.0),
        FanoutSpec::fixed(3),
        FanoutSpec::geometric_with_mean(3.0),
    ];
    let mut worst_gap = 0.0f64;
    for spec in &cases {
        let analytic = AnalyticBackend
            .evaluate(&Scenario::new(n, spec.clone()))
            .expect("valid scenario")
            .critical_q
            .expect("all cases percolate");
        let dist = spec.build().expect("valid fanout spec");
        let scan = scan_configuration_model(&dist, n, &qs, reps, SEED);
        let gap = (scan.estimated_qc - analytic).abs();
        worst_gap = worst_gap.max(gap);
        table.push(vec![
            spec.label(),
            format!("{analytic:.4}"),
            format!("{:.4}", scan.estimated_qc),
            format!("{gap:.4}"),
        ]);
    }
    out.table("e7_critical_point.csv", table);
    // Measured gaps 0.000 / 0.025 / 0.025 / 0.0083: the scan cannot
    // resolve finer than its own grid.
    out.finding(
        worst_gap <= step + 1e-9,
        format!("every empirical q_c within one grid step of 1/G1'(1): worst gap {worst_gap:.4} ≤ {step}"),
    );
}

/// E8 — the "arbitrary fanout distribution" claim (paper §2, third
/// advantage), measured three ways at equal mean fanout:
///
/// * **analytic** — the paper's undirected generalized-random-graph
///   model (`1 − G0(u)`);
/// * **graph** — undirected giant component measured on percolated
///   configuration-model graphs (validates the *model* exactly);
/// * **protocol** — the live directed gossip protocol on the simulator.
///
/// The analytic and graph columns order by fanout *variance* (fixed >
/// uniform > Poisson > geometric at equal mean), but the protocol
/// column is nearly constant across shapes — directed receipt depends
/// on the in-degree, which uniform target selection makes ≈ Poisson(f·q)
/// for *every* fanout shape. The paper validated only with Poisson
/// fanouts, where model and protocol coincide.
pub fn distribution_zoo(out: &mut Outcome) {
    let n = 2000;
    let q = 0.9;
    let (reps, graph_reps) = (40, 10);

    let zoo: Vec<(&str, FanoutSpec)> = vec![
        ("Fixed(4)", FanoutSpec::fixed(4)),
        ("U[2,6]", FanoutSpec::Uniform { lo: 2, hi: 6 }),
        ("Bin(8,0.5)", FanoutSpec::Binomial { m: 8, p: 0.5 }),
        ("Po(4)", FanoutSpec::poisson(4.0)),
        (
            "Bimodal{1,8}",
            // mean = 0.5714·1 + 0.4286·8 ≈ 4.0
            FanoutSpec::Empirical {
                weights: vec![0.0, 0.5714, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4286],
            },
        ),
        ("Geom(mean 4)", FanoutSpec::geometric_with_mean(4.0)),
    ];

    let mut table = Table::new(
        format!(
            "E8 — fanout families at mean ≈ 4, n = {n}, q = {q} \
             (analytic = paper model; graph = undirected GC; protocol = directed gossip)"
        ),
        &[
            "distribution",
            "mean",
            "q_c",
            "R analytic",
            "R graph",
            "R protocol",
        ],
    );
    let directed = poisson_case::reliability(4.0, q).expect("supercritical");
    let (mut worst_graph, mut worst_protocol) = (0.0f64, 0.0f64);
    for (i, (label, spec)) in zoo.iter().enumerate() {
        let dist = spec.build().expect("zoo parameters are valid");
        let perc = SitePercolation::new(&*dist, q).expect("valid q");
        let qc = perc
            .critical_q()
            .map_or_else(|| "—".into(), |v| format!("{v:.3}"));
        let analytic = perc.reliability().expect("solver converges");

        // Graph level: undirected giant component on configuration-model
        // realizations (the object the paper's math describes).
        let seed = SEED.wrapping_add(1000 + i as u64);
        let g =
            ConfigurationModel::new(&*dist, 20_000).generate(&mut Xoshiro256StarStar::new(seed));
        let graph_r = percolate_many(&g, q, &[], graph_reps, seed ^ 0xF00D)
            .reliability
            .mean();

        // Protocol level: the live directed push protocol, conditioned
        // on take-off.
        let scenario = Scenario::new(n, spec.clone())
            .with_failure_ratio(q)
            .with_replications(reps)
            .with_seed(SEED.wrapping_add(i as u64));
        let sim = ProtocolBackend
            .evaluate(&scenario)
            .expect("the §5 push experiment runs every family")
            .reliability;

        worst_graph = worst_graph.max((analytic - graph_r).abs());
        worst_protocol = worst_protocol.max((sim - directed).abs());
        table.push(vec![
            label.to_string(),
            format!("{:.3}", dist.mean()),
            qc,
            format!("{analytic:.4}"),
            format!("{graph_r:.4}"),
            format!("{sim:.4}"),
        ]);
    }
    out.table("e8_distribution_zoo.csv", table);
    // Measured worst gaps 0.0012 and 0.0011.
    out.finding(
        worst_graph <= 0.0025,
        format!("analytic ≈ graph in all six families — the generalized-random-graph model is exact for its object: worst gap {worst_graph:.4} ≤ 0.0025"),
    );
    out.finding(
        worst_protocol <= 0.0025,
        format!("protocol ≈ R(Po(4·q)) = {directed:.4} in all six families — directed receipt washes out fanout shape: worst gap {worst_protocol:.4} ≤ 0.0025"),
    );
}

/// E9 — validating Eq. 5: the probability that a member is reached at
/// least once grows as `1 − (1 − R)^t` with the number of executions.
///
/// This is the load-bearing assumption behind the paper's success
/// calculus (executions as independent Bernoulli trials); the experiment
/// measures the per-member hit rate at each `t` against the
/// [`AnalyticBackend`] report's `success_within_t` at `executions = t`.
/// Executions are fresh and i.i.d., so the hit rate within `t` is
/// `P(B(t, p) ≥ 1)` for the member receipt probability p, which a
/// [`ProtocolBackend`] report over 6 × 300 executions measures as
/// `reliability_raw`; each `t` draws 300 seeded trials of that law.
pub fn success_vs_t(out: &mut Outcome) {
    let n = 1000;
    let (f, q) = (4.0, 0.9);
    let trials = 300;
    let scenario = Scenario::new(n, FanoutSpec::poisson(f)).with_failure_ratio(q);
    let p = push(&scenario, 6 * trials, SEED).reliability_raw;
    let p = p.expect("push measures p");

    let mut table = Table::new(
        format!("E9 — Pr(member reached within t executions), n = {n}, f = {f}, q = {q}, {trials} trials"),
        &["t", "measured", "Eq.5: 1-(1-R)^t"],
    );
    let mut gaps = Vec::new();
    for t in 1..=6usize {
        let measured = 1.0 - success::receipt_counts(p, t as u32, trials, SEED).pmf(0);
        let analytic = AnalyticBackend
            .evaluate(&scenario.clone().with_executions(t as u32))
            .expect("valid scenario")
            .success_within_t;
        gaps.push((measured - analytic).abs());
        table.push_floats(&[t as f64, measured, analytic], 4);
    }
    out.table("e9_success_vs_t.csv", table);
    let r = analytic_r(&scenario);
    out.note(format!(
        "member receipt probability p = {p:.4} (R² = {:.4}); Eq. 6 minimum t for ps = 0.999 \
         at R = {r:.4} is {}",
        r * r,
        success::required_executions(r, 0.999).expect("achievable")
    ));
    // Measured gaps 0.0228 at t = 1 (a single execution reaches a member
    // with the directed R², not R — Figs. 6/7's finding) and ≤ 0.0024
    // from t = 2 on.
    let later = gaps[1..].iter().fold(0.0f64, |a, &b| a.max(b));
    out.finding(
        gaps[0] <= 0.08 && later <= 0.012,
        format!("measured hit rate tracks Eq. 5: gap {:.4} ≤ 0.08 at t = 1, worst {later:.4} ≤ 0.012 for t ≥ 2", gaps[0]),
    );
}

/// E10 — membership ablation: the paper assumes targets drawn uniformly
/// from the whole group ("a scalable membership protocol is available",
/// §3). How much reliability is lost when gossip runs over SCAMP-style
/// partial views instead?
///
/// The same scenario evaluated over the full view and over the SCAMP
/// overlay `OverlaySpec::Scamp { c }` through [`ProtocolBackend`],
/// against the uniform-target analysis. The backend conditions on take-off throughout: the
/// comparison is about *where the message spreads*, not about
/// source-extinction luck.
pub fn membership_ablation(out: &mut Outcome) {
    let n = 2000;
    let (f, q) = (4.0, 0.9);
    let reps = 40;
    let base = Scenario::new(n, FanoutSpec::poisson(f))
        .with_failure_ratio(q)
        .with_replications(reps)
        .with_seed(SEED);
    let analytic = analytic_r(&base);

    let mut table = Table::new(
        format!("E10 — full view vs SCAMP partial views, n = {n}, Po({f}), q = {q}, {reps} runs"),
        &[
            "membership",
            "mean view size",
            "R simulated",
            "R analytic (uniform)",
        ],
    );
    let full = ProtocolBackend.evaluate(&base).expect("valid scenario");
    table.push(vec![
        "full view".into(),
        format!("{}", n - 1),
        format!("{:.4}", full.reliability),
        format!("{analytic:.4}"),
    ]);
    let mut worst_scamp = 0.0f64;
    for c in [0usize, 1, 2, 4] {
        let scamp = TopologySpec::new(OverlaySpec::Scamp { c });
        let scenario = base
            .clone()
            .with_topology(scamp)
            .with_seed(SEED.wrapping_add(c as u64));
        let report = ProtocolBackend.evaluate(&scenario).expect("valid scenario");
        worst_scamp = worst_scamp.max(analytic - report.reliability);
        // Report the view size of a representative construction.
        table.push(vec![
            format!("SCAMP c={c}"),
            format!("{:.1}", scamp.build(n, SEED).mean_degree()),
            format!("{:.4}", report.reliability),
            format!("{analytic:.4}"),
        ]);
    }
    out.table("e10_membership_ablation.csv", table);
    // Measured: full view 0.0007 off the analysis, SCAMP at most 0.0291
    // below it (c = 0, mean view 11.1 ≈ 1.5·ln n).
    let full_gap = (full.reliability - analytic).abs();
    out.finding(
        full_gap <= 0.0015 && worst_scamp <= 0.055,
        format!("the paper's membership assumption is safe: full view {full_gap:.4} ≤ 0.0015 off the uniform analysis, SCAMP views at most {worst_scamp:.4} ≤ 0.055 below it"),
    );
}

/// E11 — finite-size scaling of the model error.
///
/// Paper §5.1: the 5000-node simulations "tally with the analytical
/// results better than" the 1000-node ones, "which indicates that our
/// modeling works better in larger scale systems." This experiment makes
/// that sentence quantitative: mean |sim − analysis| over a fixed
/// parameter set, as a function of n.
pub fn finite_size(out: &mut Outcome) {
    let qs = [0.5, 0.8, 1.0];
    let reps = 20;
    let mut table = Table::new(
        format!("E11 — model error vs group size ({reps} runs/point, q ∈ {qs:?})"),
        &["n", "mean |sim − ana|", "max |sim − ana|"],
    );
    let mut means = Vec::new();
    for n in [250usize, 500, 1000, 2000, 4000, 8000, 16000] {
        let points = reliability_vs_fanout(n, &qs, reps, SEED.wrapping_add(n as u64));
        // Restrict to clearly supercritical points: near the transition
        // the finite-size smoothing dominates at any n.
        let gaps = supercritical_gaps(&points, 1.5);
        let mean_err = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let max_err = gaps.iter().fold(0.0f64, |a, &b| a.max(b));
        means.push(mean_err);
        table.push(vec![
            n.to_string(),
            format!("{mean_err:.4}"),
            format!("{max_err:.4}"),
        ]);
    }
    out.table("e11_finite_size.csv", table);
    // Measured 0.0061 → 0.0007, a factor 8.7.
    let (first, last) = (means[0], means[means.len() - 1]);
    out.finding(
        last <= first / 4.0,
        format!("the model \"works better in larger scale systems\": mean error {first:.4} at n = 250 → {last:.4} at n = 16000, at least 4× smaller"),
    );
}

/// E12 — dissemination dynamics: the related-work models of §2 against
/// the live protocol, round by round.
///
/// The paper's model is *static* (it answers "how many, eventually", not
/// "how fast"); the pbcast recurrence and the SI epidemic model answer
/// the dynamics question but, as the paper argues, mispredict the
/// endpoint under failures (no critical point, no extinction). This
/// experiment shows both things at once: measured cumulative infected
/// fraction by hop (= round) — a [`ProtocolBackend`] report's
/// `reach_by_round` — vs the two baselines, with the paper-model
/// reliability as the measured end point's analytic twin.
pub fn baselines_rounds(out: &mut Outcome) {
    let n = 2000;
    let (f, q) = (4.0, 0.9);
    // The endpoint's SE is 0.00024 at 400 runs (0.0008 at 40), so the
    // 0.001 bound sits ≈ 3.7 SE from the measured finite-n bias.
    let reps = 400;
    let analytic = poisson_case::reliability(f, q).expect("supercritical");

    let scenario = Scenario::new(n, FanoutSpec::poisson(f)).with_failure_ratio(q);
    let measured = push(&scenario, reps, SEED).reach_by_round;
    let measured = measured.expect("push measures its reach curve");
    let pbcast: Vec<f64> = PbcastRecurrence::new(n, f, q)
        .trajectory(measured.len() - 1)
        .iter()
        .map(|infected| infected / n as f64)
        .collect();
    // SI counts infected among all n; measured counts nonfailed reached
    // among nonfailed — rescale SI by 1/q for comparability.
    let si_model = SiModel::single_source(f, n).with_failures(q);
    let si: Vec<f64> = (0..measured.len())
        .map(|h| (si_model.infected_fraction(h as f64) / q).min(1.0))
        .collect();

    let mut table = Table::new(
        format!(
            "E12 — infected fraction by round, n = {n}, Po({f}), q = {q} \
             (measured = reach by round over the take-offs of {reps} executions)"
        ),
        &[
            "round",
            "measured",
            "pbcast recurrence",
            "SI epidemic",
            "paper model (endpoint)",
        ],
    );
    for h in 0..measured.len() {
        table.push_floats(&[h as f64, measured[h], pbcast[h], si[h], analytic], 4);
    }
    out.table("e12_baselines_rounds.csv", table);
    let curve = |ys: &[f64]| ys.iter().enumerate().map(|(h, &y)| (h as f64, y)).collect();
    let series: [(&str, Vec<(f64, f64)>); 3] = [
        ("measured", curve(&measured)),
        ("pbcast", curve(&pbcast)),
        ("SI", curve(&si)),
    ];
    out.note(ascii_plot(&series, 70, 20));

    // Measured endpoints 0.9697 | paper model 0.9695 | pbcast 1.0000 | SI 1.0.
    let (end, end_pbcast) = (measured[measured.len() - 1], pbcast[pbcast.len() - 1]);
    out.finding(
        (end - analytic).abs() <= 0.001 && end_pbcast - end >= 0.015 && si[si.len() - 1] >= 0.999,
        format!("the paper model nails the endpoint (measured {end:.4} vs {analytic:.4}, held to 0.001); the baselines track the ramp but overshoot it (pbcast {end_pbcast:.4}, SI → 1: no extinction, no critical point)"),
    );
}

/// E13 — whole-group success: the Kermarrec–Massoulié–Ganesh asymptotic
/// `Pr(success) → e^{−e^{−c}}` at fanout `ln n' + c` (paper §2,
/// reference \[6\]) against measured strict success on the live protocol.
///
/// "Success" here is the all-or-nothing event the Microsoft model was
/// built for: *every* nonfailed member receives the message in one
/// execution. The paper's own model refuses to answer this (it gives
/// per-member reliability instead, and its Eq. 6 route repeats cheaper
/// executions — t × small fanout); this experiment shows the asymptotic
/// law is approached from below at n in the thousands. The law counts
/// fanout among the survivors, and a push to a crashed member is
/// wasted, so the fanout it sees is `q·(ln n' + c)`: measured strict
/// success sits on the law at that fanout, below it at the nominal one.
pub fn baselines_success(out: &mut Outcome) {
    let n = 1500;
    let q = 0.9;
    let survivors = (n as f64 * q) as usize;
    let ln_n = (survivors as f64).ln();
    // SE ≤ 0.0053 for c ≥ 4, where strict success is ≥ 0.94.
    let reps = 2000;

    let mut table = Table::new(
        format!(
            "E13 — Pr(all nonfailed reached) at fanout ln n' + c, n = {n}, q = {q} \
             (n' ≈ {survivors}, ln n' ≈ {ln_n:.2}; {reps} executions/point)"
        ),
        &[
            "c",
            "fanout",
            "measured",
            "KMG at fanout",
            "KMG at q·fanout",
        ],
    );
    let mut curve = Vec::new();
    // The c ≥ 4 gaps to the law at q·fanout (the finding) and at fanout.
    let (mut tail, mut tail_nominal) = (0.0f64, 0.0f64);
    for c in [-1.0f64, 0.0, 1.0, 2.0, 3.0, 4.0, 6.0] {
        let fanout = ln_n + c;
        let scenario = Scenario::new(n, FanoutSpec::poisson(fanout)).with_failure_ratio(q);
        let measured = push(&scenario, reps, SEED ^ c.to_bits()).complete_rate;
        let measured = measured.expect("push measures strict success");
        let nominal = asymptotic::success_probability(survivors, fanout);
        let thinned = asymptotic::success_probability(survivors, q * fanout);
        if c >= 4.0 {
            tail = tail.max((measured - thinned).abs());
            tail_nominal = tail_nominal.max((measured - nominal).abs());
        }
        curve.push((c, measured, nominal));
        table.push_floats(&[c, fanout, measured, nominal, thinned], 4);
    }
    out.table("e13_baselines_success.csv", table);
    out.note(format!(
        "required fanout for 99.9% success at n' = {survivors}: KMG says {:.2}",
        asymptotic::required_fanout(survivors, 0.999)
    ));
    // Measured gaps to the survivors' law at c = 4 and 6: 0.0024 and
    // 0.0017 (at the nominal fanout, 0.0389 and 0.0050).
    let rising = curve.windows(2).all(|w| w[0].1 < w[1].1);
    let below = curve
        .iter()
        .all(|&(_, measured, nominal)| measured <= nominal);
    out.note(format!(
        "at the nominal fanout ln n' + c the c ≥ 4 gap to the KMG law is {tail_nominal:.4}, \
         within 0.025: {} (pushes to crashed members are wasted)",
        tail_nominal <= 0.025
    ));
    out.finding(
        rising && below && tail <= 0.025,
        format!("strict success rises with c and approaches the KMG law from below; at the survivors' fanout q·(ln n' + c) it is within {tail:.4} ≤ 0.025 of it for c ≥ 4"),
    );
}

/// E14 — message loss as bond percolation (extension beyond the paper).
///
/// The paper models crashes only; real networks also drop messages. The
/// generating-function model extends to joint site+bond percolation
/// (`gossip_model::loss`), predicting for Poisson fanout
/// `R = 1 − e^{−z(1−ℓ)qR}` — loss is exactly fanout thinning — and a
/// critical loss `ℓ_c = 1 − 1/(zq)`. One [`SweepGrid`] over the loss
/// axis, evaluated by [`AnalyticBackend`] (the bond+site prediction) and
/// by [`NetSimBackend`] (the simulator's actual per-message loss model).
pub fn loss_sweep(out: &mut Outcome) {
    let n = 2000;
    let (f, q) = (4.0, 0.9);
    let reps = 30;
    let losses: Vec<f64> = (0..=16).map(|i| i as f64 * 0.05).collect();

    let loss_crit = LossyGossip::new(&PoissonFanout::new(f), q, 0.0)
        .expect("valid parameters")
        .critical_loss()
        .expect("supercritical at zero loss");

    let grid = SweepGrid::new(
        Scenario::new(n, FanoutSpec::poisson(f))
            .with_failure_ratio(q)
            .with_replications(reps)
            .with_seed(SEED),
    )
    .over_losses(&losses);
    let analytic = grid.run(&AnalyticBackend);
    let simulated = grid.run(&NetSimBackend);

    let mut table = Table::new(
        format!(
            "E14 — reliability vs message loss, n = {n}, Po({f}), q = {q}, {reps} runs \
             (critical loss ℓ_c = 1 − 1/(z·q) = {loss_crit:.4})"
        ),
        &[
            "loss",
            "R analytic (bond+site)",
            "R simulated (netsim)",
            "status",
        ],
    );
    let (mut worst_alive, mut worst_dead) = (0.0f64, 0.0f64);
    for (ana, sim) in analytic.iter().zip(&simulated) {
        let loss = ana.scenario.loss;
        let report = |cell: &SweepCell| {
            cell.report
                .as_ref()
                .expect("every cell evaluates")
                .reliability
        };
        let (predicted, measured) = (report(ana), report(sim));
        let alive = loss < loss_crit;
        if !alive {
            worst_dead = worst_dead.max(measured);
        } else if loss_crit - loss > 0.05 {
            worst_alive = worst_alive.max((measured - predicted).abs());
        }
        table.push(vec![
            format!("{loss:.2}"),
            format!("{predicted:.4}"),
            format!("{measured:.4}"),
            if alive { "alive" } else { "DEAD (ℓ > ℓ_c)" }.into(),
        ]);
    }
    out.table("e14_loss_sweep.csv", table);
    // Measured: worst gap 0.0091 (ℓ = 0.5) away from the transition,
    // 0.0058 residual reliability past it.
    out.finding(
        worst_alive <= 0.02 && worst_dead <= 0.012,
        format!("netsim's per-message loss tracks the bond+site prediction: worst gap {worst_alive:.4} ≤ 0.02 for ℓ ≤ ℓ_c − 0.05, residual reliability {worst_dead:.4} ≤ 0.012 past ℓ_c = {loss_crit:.4}"),
    );
}
