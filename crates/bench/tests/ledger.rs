//! The committed ledgers are goldens: each experiment re-run in-process
//! must serialise to its `BENCH_<name>.json` byte for byte. (`scaling`,
//! n = 10⁶ and 10⁷, is re-derived by CI's `repro all` only.)

use gossip_bench::{select, workspace_root};

fn assert_ledger_is_current(name: &str) {
    let experiment = select(name).expect("registered experiment")[0];
    let outcome = experiment.run();
    for finding in &outcome.findings {
        assert!(finding.holds, "{name}: finding failed — {}", finding.claim);
    }
    let root = workspace_root().unwrap_or_else(|e| panic!("{e}"));
    let path = experiment.ledger_path(&root);
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(
        experiment.ledger_json(&outcome) == committed,
        "BENCH_{name}.json no longer matches what `{name}` computes; run \
         `cargo run --release -p gossip-bench --bin repro -- all` and commit if the change \
         is intended"
    );
}

#[test]
fn topology_ablation_ledger_is_current() {
    assert_ledger_is_current("topology_ablation");
}

#[test]
fn fault_ablation_ledger_is_current() {
    assert_ledger_is_current("fault_ablation");
}

#[test]
fn stream_sweep_ledger_is_current() {
    assert_ledger_is_current("stream_sweep");
}
