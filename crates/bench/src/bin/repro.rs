//! `repro` — the one runner over [`gossip_bench::REGISTRY`].
//!
//! `repro` lists the experiment index, `repro <name>` runs one entry,
//! `repro all` runs every entry. Tables go to stdout and, as CSV, to
//! `results/`; committed experiments rewrite their `BENCH_<name>.json`
//! at the workspace root, so `repro all` followed by `git diff` is both
//! the regression check and the way to accept an intended change. The
//! root is the nearest ancestor of the current directory whose
//! `Cargo.toml` declares `[workspace]`; with none, `repro` exits 2 and
//! says so. Any finding that does not hold is reported with its
//! experiment's name and makes the exit status non-zero.

use std::fs;
use std::process::ExitCode;

use gossip_bench::{select, workspace_root, REGISTRY};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = match args.as_slice() {
        [arg] => select(arg),
        _ => None,
    };
    let Some(selected) = selected else {
        println!("usage: repro <name> | repro all\n");
        for e in &REGISTRY {
            println!("{:>7}  {:<20} {}", e.label, e.name, e.about);
        }
        // Asking for the index is fine; asking for something else is not.
        return ExitCode::from(if args.is_empty() { 0 } else { 2 });
    };

    let root = match workspace_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };
    let results = root.join("results");
    fs::create_dir_all(&results).expect("create results dir");
    let mut failures = Vec::new();
    for experiment in selected {
        println!(
            "\n================== {} · {} ==================",
            experiment.label, experiment.name
        );
        let outcome = experiment.run();
        for (csv, table) in &outcome.tables {
            print!("{}", table.render());
            table.write_csv(&results.join(csv));
        }
        for note in &outcome.notes {
            println!("{note}");
        }
        for finding in &outcome.findings {
            let verdict = if finding.holds { "ok" } else { "FAILED" };
            println!("finding [{verdict}]: {}", finding.claim);
            if !finding.holds {
                failures.push(format!("{}: {}", experiment.name, finding.claim));
            }
        }
        if experiment.ledger {
            let path = experiment.ledger_path(&root);
            fs::write(&path, experiment.ledger_json(&outcome))
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
    }
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    for failure in &failures {
        eprintln!("FAILED finding — {failure}");
    }
    ExitCode::FAILURE
}
