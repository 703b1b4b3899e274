//! `benchmark/` is a cargo workspace of its own: the root build never
//! compiles it, yet it pins library items by name and by struct literal
//! (`RelaySetup { .. }`, `FlatPercolation { .. }`, `run_push`, …) and
//! library PRs may not edit it. A rename or signature change underneath
//! it used to surface only in the benchmark pipeline; this test makes
//! tier-1 see it, and checks that compiling left `benchmark/` and
//! `BENCHMARK.json` exactly as committed.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_package_compiles_against_the_library_and_stays_clean() {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the workspace root");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    // A target directory of its own: `benchmark/` is another workspace
    // with another lock file, and sharing the root's would contend for
    // the build lock of the `cargo test` this runs under.
    let check = Command::new(cargo)
        .args(["check", "--offline", "--locked", "--manifest-path"])
        .arg(workspace.join("benchmark/Cargo.toml"))
        .arg("--target-dir")
        .arg(workspace.join("target/benchmark-check"))
        .output()
        .expect("cargo runs");
    assert!(
        check.status.success(),
        "benchmark/ no longer compiles against the library:\n{}",
        String::from_utf8_lossy(&check.stderr)
    );

    if !workspace.join(".git").exists() {
        return;
    }
    let status = Command::new("git")
        .current_dir(workspace)
        .args(["status", "--porcelain", "--", "benchmark", "BENCHMARK.json"])
        .output()
        .expect("git runs in a git checkout");
    assert!(
        status.status.success(),
        "git status failed:\n{}",
        String::from_utf8_lossy(&status.stderr)
    );
    assert!(
        status.stdout.is_empty(),
        "benchmark/ or BENCHMARK.json differ from the commit:\n{}",
        String::from_utf8_lossy(&status.stdout)
    );
}
