//! Byte-exact `Report` goldens, one small seeded scenario per place
//! where replications are reduced to a `Report`.
//!
//! Every Monte-Carlo backend funnels its per-replication outcomes
//! through `gossip_model::reduce`; these goldens pin the exact
//! `serde::json::to_string(&report)` of each route into it — float for
//! float, field for field — so a refactor of the reduction (or of a
//! backend's replication loop, seed derivation, or push order into the
//! running statistics) cannot drift silently. They were captured at the
//! commit *before* the reductions were unified and must pass unchanged
//! across pure refactors. The event calendar is pinned through
//! `NetSimBackend`, its only backend; the flat kernels through
//! `ProtocolBackend` and `GraphBackend`, which run nothing else for a
//! single message. `protocol_static_faults`, `protocol_bursty_adversary`
//! and `protocol_lossy` pin the relay route both of those share under a
//! zone kill, an adversary, bursty loss and i.i.d. loss. The
//! `netsim_overlay_bursty_adversary`, `netsim_pushpull_exponential`,
//! `netsim_churn` and `netsim_zone_kill_timed` cases pin the calendar's
//! event order where it is hardest to keep: time-ordered deliveries
//! over an overlay under faults, pull timers mixed with exponential
//! deliveries, scheduled churn, and a timed zone kill queued ahead of
//! the injection.
//!
//! Regenerate (only when a change is *meant* to move the numbers — say
//! so in CHANGES.md) with one command from the workspace root:
//!
//! ```sh
//! GOSSIP_BLESS=1 cargo test -p gossip-integration-tests --test report_golden
//! ```
//!
//! which rewrites `tests/tests/golden/reports.jsonl` (one
//! `name<TAB>json` line per case). On a mismatch the test names every
//! drifted top-level key of every case as `key: want → got`, so a bless
//! can be checked against the keys it was meant to move. Every Report
//! with a reach curve must also climb monotonically to its conditioned
//! `reliability`.
//!
//! Deliberately not pinned: piggybacked *live* streams (which frame
//! wins a race picks the relayed group — aggregate-stable, not
//! seed-pure) and anything over TCP.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use gossip::{
    AdversaryStrategy, Backend, BurstySpec, ChurnSpec, FanoutSpec, FaultSpec, GraphBackend,
    LatencySpec, NetSimBackend, OverlaySpec, PeerSelection, ProtocolBackend, ProtocolSpec, Report,
    RuntimeBackend, Scenario, TopologySpec, TrafficSpec,
};

fn base(n: usize, mean: f64, q: f64, reps: usize, seed: u64) -> Scenario {
    Scenario::new(n, FanoutSpec::poisson(mean))
        .with_failure_ratio(q)
        .with_replications(reps)
        .with_seed(seed)
}

fn small_world() -> TopologySpec {
    TopologySpec::new(OverlaySpec::WattsStrogatz { k: 10, beta: 0.3 })
}

/// Ten zones of 6 intra- and 1 inter-zone links per member, neighbours
/// drawn at random, under bursty loss and a `Random` adversary.
fn bursty_adversary(seed: u64) -> Scenario {
    base(500, 5.0, 0.9, 6, seed)
        .with_topology(
            TopologySpec::new(OverlaySpec::Clustered {
                zones: 10,
                intra: 6,
                inter: 1,
            })
            .with_selection(PeerSelection::RandomNeighbour),
        )
        .with_faults(
            FaultSpec::none()
                .with_bursty_loss(BurstySpec {
                    p_gb: 0.05,
                    p_bg: 0.3,
                    loss_good: 0.01,
                    loss_bad: 0.8,
                })
                .with_adversary(50, AdversaryStrategy::Random),
        )
}

/// The pinned cases: `(name, backend, scenario)`.
fn cases() -> Vec<(&'static str, Box<dyn Backend>, Scenario)> {
    let capped_piggyback = TrafficSpec::stream(8)
        .with_bandwidth(3)
        .with_queue_capacity(16)
        .with_piggyback(4);
    vec![
        (
            // The event-calendar push at the default network.
            "netsim_push",
            Box::new(NetSimBackend),
            base(300, 4.0, 0.9, 12, 0x601D_0001),
        ),
        (
            // Near q_c = 0.25: some executions fizzle, so the
            // conditional and raw estimators part ways.
            "netsim_push_near_critical",
            Box::new(NetSimBackend),
            base(300, 4.0, 0.4, 12, 0x601D_0002),
        ),
        (
            // Below q_c: every run fizzles below the critical window,
            // so `reliability` is 0 and `reliability_raw` carries the
            // subcritical reach.
            "netsim_push_subcritical",
            Box::new(NetSimBackend),
            base(300, 4.0, 0.15, 8, 0x601D_0003),
        ),
        (
            "netsim_flood",
            Box::new(NetSimBackend),
            base(120, 4.0, 0.9, 5, 0x601D_0004).with_protocol(ProtocolSpec::Flood),
        ),
        (
            "protocol_flat",
            Box::new(ProtocolBackend),
            base(400, 4.0, 0.8, 12, 0x601D_0005),
        ),
        (
            "protocol_stream_capped_piggyback",
            Box::new(ProtocolBackend),
            base(300, 4.0, 0.9, 8, 0x601D_0006).with_traffic(capped_piggyback),
        ),
        (
            "netsim_lossy_exponential",
            Box::new(NetSimBackend),
            base(300, 6.0, 0.9, 10, 0x601D_0007)
                .with_loss(0.2)
                .with_latency(LatencySpec::ExponentialMillis { mean_ms: 8 }),
        ),
        (
            "netsim_stream",
            Box::new(NetSimBackend),
            base(300, 6.0, 0.9, 8, 0x601D_0008)
                .with_loss(0.2)
                .with_latency(LatencySpec::ConstantMillis { ms: 3 })
                .with_traffic(TrafficSpec::stream(4).with_bandwidth(8)),
        ),
        (
            "graph_flat_default",
            Box::new(GraphBackend),
            base(1000, 4.0, 0.9, 8, 0x601D_000A).with_loss(0.1),
        ),
        (
            "graph_overlay_flat",
            Box::new(GraphBackend),
            base(500, 5.0, 0.6, 10, 0x601D_000C).with_topology(small_world()),
        ),
        (
            "graph_adversary",
            Box::new(GraphBackend),
            base(300, 4.0, 0.9, 8, 0x601D_000D)
                .with_faults(FaultSpec::none().with_adversary(40, AdversaryStrategy::Random)),
        ),
        (
            // f = n − 1 cuts every uplink of the source: no execution
            // takes off, the zero-take-off branch of the reduction.
            "graph_adversary_no_takeoff",
            Box::new(GraphBackend),
            base(200, 4.0, 1.0, 4, 0x601D_0010)
                .with_faults(FaultSpec::none().with_adversary(199, AdversaryStrategy::WorstCase)),
        ),
        (
            "runtime_channel_bursty",
            Box::new(RuntimeBackend::channel()),
            base(200, 5.0, 0.9, 6, 0x601D_000E).with_faults(FaultSpec::none().with_bursty_loss(
                BurstySpec {
                    p_gb: 0.05,
                    p_bg: 0.25,
                    loss_good: 0.0,
                    loss_bad: 0.9,
                },
            )),
        ),
        (
            "runtime_channel_stream_unbatched",
            Box::new(RuntimeBackend::channel()),
            base(150, 5.0, 0.9, 4, 0x601D_000F)
                .with_loss(0.1)
                .with_traffic(TrafficSpec::stream(3)),
        ),
        (
            // The relay kernel on the complete overlay.
            "protocol_push_auto",
            Box::new(ProtocolBackend),
            base(300, 4.0, 0.9, 12, 0x601D_0011),
        ),
        (
            // The census on the complete overlay.
            "graph_default_auto",
            Box::new(GraphBackend),
            base(1000, 4.0, 0.9, 8, 0x601D_0012).with_loss(0.1),
        ),
        (
            // Static faults on the protocol backend: the relay kernel's
            // `prefailed` and `blocked`, the route `GraphBackend` takes.
            "protocol_static_faults",
            Box::new(ProtocolBackend),
            base(300, 5.0, 0.8, 10, 0x601D_0013)
                .with_topology(TopologySpec::new(OverlaySpec::Clustered {
                    zones: 5,
                    intra: 6,
                    inter: 2,
                }))
                .with_faults(
                    FaultSpec::none()
                        .with_zone_failure(vec![2], 0)
                        .with_adversary(300, AdversaryStrategy::Random),
                ),
        ),
        (
            // A power-law overlay's giant (≈ 0.19 of the survivors) sits
            // far below the complete-graph prediction (≈ 0.80): the
            // take-off split counts it from the execution alone.
            "protocol_powerlaw_q05",
            Box::new(ProtocolBackend),
            base(4000, 4.0, 0.5, 200, 11).with_topology(TopologySpec::new(OverlaySpec::PowerLaw {
                alpha: 2.5,
                kmin: 2,
                kmax: 30,
            })),
        ),
        (
            // Fixed(3) at q = 0.4: supercritical for push (q·E[K] = 1.2)
            // although Eq. 3 puts q_c at 0.5, so about 0.44 of the runs
            // take off and reach ≈ 0.31 of the survivors.
            "protocol_fixed3_q04",
            Box::new(ProtocolBackend),
            Scenario::new(2000, FanoutSpec::fixed(3))
                .with_failure_ratio(0.4)
                .with_replications(200)
                .with_seed(11),
        ),
        (
            // The k-regular lattice's reach is unimodal, with no
            // fizzle/giant gap: the conditioned `reliability` is a cut
            // of one mode at the critical window. Read
            // `reliability_raw` here.
            "protocol_lattice_q09",
            Box::new(ProtocolBackend),
            base(1000, 4.0, 0.9, 200, 11)
                .with_topology(TopologySpec::new(OverlaySpec::KRegular { k: 6 })),
        ),
        (
            // The calendar at constant latency over a clustered overlay
            // with bursty loss and a link-blocking adversary: every
            // delivery is scheduled in time order.
            "netsim_overlay_bursty_adversary",
            Box::new(NetSimBackend),
            bursty_adversary(0x601D_0014),
        ),
        (
            // 5 ms pull timers interleaved with exponential deliveries:
            // events arrive both in and out of time order.
            "netsim_pushpull_exponential",
            Box::new(NetSimBackend),
            base(300, 4.0, 0.8, 8, 0x601D_0015)
                .with_protocol(ProtocolSpec::PushPull)
                .with_latency(LatencySpec::ExponentialMillis { mean_ms: 4 }),
        ),
        (
            // Joins and leaves scheduled up front across a 100 ms
            // window, ahead of the injection.
            "netsim_churn",
            Box::new(NetSimBackend),
            base(300, 5.0, 0.9, 8, 0x601D_0016)
                .with_faults(FaultSpec::none().with_churn(ChurnSpec::symmetric(40.0, 100))),
        ),
        (
            // A zone kill at 2 ms: its crashes are scheduled before the
            // t = 0 injection.
            "netsim_zone_kill_timed",
            Box::new(NetSimBackend),
            base(400, 5.0, 0.9, 8, 0x601D_0017)
                .with_topology(TopologySpec::new(OverlaySpec::Clustered {
                    zones: 5,
                    intra: 5,
                    inter: 2,
                }))
                .with_faults(FaultSpec::none().with_zone_failure(vec![1, 3], 2)),
        ),
        (
            // The same cell on the relay kernel: one chain per sender,
            // started at first receipt, after the blocked-link check.
            "protocol_bursty_adversary",
            Box::new(ProtocolBackend),
            bursty_adversary(0x601D_0014),
        ),
        (
            // Directed push with i.i.d. loss on the complete overlay.
            "protocol_lossy",
            Box::new(ProtocolBackend),
            base(300, 6.0, 0.9, 10, 0x601D_0018).with_loss(0.2),
        ),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reports.jsonl")
}

/// The top-level keys whose JSON differs, as `key: want → got`.
fn drift(want: &str, got: &str) -> Vec<String> {
    let fields = |text: &str| -> BTreeMap<String, String> {
        let value: serde::Value = serde::json::from_str(text).expect("a golden is JSON");
        let fields = value.as_map().expect("a Report is a JSON object");
        let json = |v| serde::json::to_string(v).expect("serializes");
        fields.iter().map(|(k, v)| (k.clone(), json(v))).collect()
    };
    let (want, got) = (fields(want), fields(got));
    let keys: BTreeSet<&String> = want.keys().chain(got.keys()).collect();
    let show = |fields: &BTreeMap<String, String>, key| {
        fields
            .get(key)
            .map_or("(absent)", String::as_str)
            .to_string()
    };
    keys.into_iter()
        .filter(|key| want.get(*key) != got.get(*key))
        .map(|key| format!("{key}: {} → {}", show(&want, key), show(&got, key)))
        .collect()
}

#[test]
fn reports_match_the_committed_goldens() {
    let actual: Vec<(&str, String)> = cases()
        .into_iter()
        .map(|(name, backend, scenario)| {
            let report = backend
                .evaluate(&scenario)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            // The reach curve only climbs, to the conditioned reliability.
            if let Some(reach) = &report.reach_by_round {
                assert!(reach.windows(2).all(|w| w[0] <= w[1]), "{name}: {reach:?}");
                let end = reach[reach.len() - 1];
                assert!(
                    (end - report.reliability).abs() <= 1e-12,
                    "{name}: ends at {end}"
                );
            }
            (name, serde::json::to_string(&report).expect("serializes"))
        })
        .collect();

    if std::env::var_os("GOSSIP_BLESS").is_some() {
        let text: String = actual
            .iter()
            .map(|(name, json)| format!("{name}\t{json}\n"))
            .collect();
        let path = golden_path();
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, text).expect("write goldens");
        return;
    }

    let committed = std::fs::read_to_string(golden_path()).expect(
        "tests/tests/golden/reports.jsonl is committed (see the file header to regenerate)",
    );
    let expected: Vec<(&str, &str)> = committed
        .lines()
        .map(|line| line.split_once('\t').expect("name<TAB>json"))
        .collect();
    assert_eq!(
        expected.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        actual.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "the golden file and `cases()` list different cases"
    );
    let drifted: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|((_, want), (_, got))| got != want)
        .map(|((name, want), (_, got))| format!("{name}: {}", drift(want, got).join("; ")))
        .collect();
    assert!(
        drifted.is_empty(),
        "Report JSON drifted from its goldens:\n{}",
        drifted.join("\n")
    );
}

/// The decoder on every committed Report shape (reach curves, stream
/// traffic, labels, nulls): each golden line reads back into a `Report`
/// that writes out to the same bytes.
#[test]
fn goldens_decode_and_reencode_byte_for_byte() {
    let committed = std::fs::read_to_string(golden_path()).expect("goldens are committed");
    for line in committed.lines() {
        let (name, json) = line.split_once('\t').expect("name<TAB>json");
        let report: Report = serde::json::from_str(json).unwrap_or_else(|e| panic!("{name}: {e}"));
        let again = serde::json::to_string(&report).expect("serializes");
        assert_eq!(again, json, "{name}: {}", drift(json, &again).join("; "));
    }
}
