//! E8 — the "arbitrary fanout distribution" claim (paper §2, third
//! advantage), measured three ways at equal mean fanout:
//!
//! * **analytic** — the paper's undirected generalized-random-graph
//!   model (`1 − G0(u)`);
//! * **graph** — undirected giant component measured on percolated
//!   configuration-model graphs (validates the *model* exactly);
//! * **protocol** — the live directed gossip protocol on the simulator.
//!
//! The punchline this experiment quantifies: the analytic and graph
//! columns order by fanout *variance* (fixed > uniform > Poisson >
//! geometric at equal mean), but the protocol column is nearly constant
//! across shapes — directed receipt depends on the in-degree, which
//! uniform target selection makes ≈ Poisson(f·q) for *every* fanout
//! shape. The paper validated only with Poisson fanouts, where model and
//! protocol coincide (see EXPERIMENTS.md, finding F3).

use gossip_bench::{base_seed, scaled, Table};
use gossip_model::{Backend, FanoutSpec, Scenario, SitePercolation};
use gossip_protocol::ProtocolBackend;
use gossip_rgraph::percolation_sim::percolate_many;
use gossip_rgraph::ConfigurationModel;
use gossip_stats::rng::Xoshiro256StarStar;

fn main() {
    let n = 2000;
    let q = 0.9;
    let mean = 4.0;
    let reps = scaled(40);
    let graph_reps = scaled(10);

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
            "E8 — fanout families at mean ≈ {mean}, n = {n}, q = {q} \
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
    for (i, (label, spec)) in zoo.iter().enumerate() {
        let dist = spec.build().expect("zoo parameters are valid");
        let perc = SitePercolation::new(&*dist, q).expect("valid q");
        let qc = perc
            .critical_q()
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "—".into());
        let analytic = perc.reliability().expect("solver converges");

        // Graph level: undirected giant component on configuration-model
        // realizations (the object the paper's math describes).
        let seed = base_seed().wrapping_add(1000 + i as u64);
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
            .with_seed(base_seed().wrapping_add(i as u64));
        let sim = ProtocolBackend
            .evaluate(&scenario)
            .expect("the §5 push experiment runs every family")
            .reliability;

        table.push(vec![
            label.to_string(),
            format!("{:.3}", dist.mean()),
            qc,
            format!("{analytic:.4}"),
            format!("{graph_r:.4}"),
            format!("{sim:.4}"),
        ]);
    }
    table.print();
    table.save("e8_distribution_zoo.csv");
    println!(
        "checkpoints: (1) analytic ≈ graph for every family — the generalized-random-graph \
         model is exact for its object;"
    );
    println!(
        "             (2) protocol column ≈ R(Po(4·q)) = {:.4} for every family — directed \
         receipt washes out fanout shape (finding F3).",
        gossip_model::poisson_case::reliability(4.0, q).expect("supercritical")
    );
}
