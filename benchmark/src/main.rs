//! The repo's benchmark: `Scenario -> Report` measured from outside.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object (the form BENCHMARK.json's command takes)
//! benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
//!     every workload, one process each, three interleaved rounds
//! benchmark --compare <a-dir> <b-dir>
//!     two sets of result files against the bounds of BENCHMARK.json
//! ```
//!
//! `--out <dir>` moves the result and trace files (default
//! `benchmark/out`); `--quick` measures for a tenth of the time.

mod calibrate;
mod check;
mod compare;
mod exec;
mod measure;
mod probes;
mod result;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use measure::RunArgs;
use result::{Metric, RunResult};
use spec::Spec;

/// Environment variable that marks the measuring process, which
/// `--workload` re-executes itself into.
const CHILD: &str = "GOSSIP_BENCHMARK_CHILD";
/// glibc raises its mmap threshold as large blocks are freed, and from
/// then on keeps some of them: the peak RSS of `fig4_flat_1m` came out
/// at 50 MiB or 73 MiB from one run to the next. Naming the threshold
/// (at its documented initial value) switches the adjustment off, so
/// large blocks always go back to the system when freed and the peak is
/// the live peak. Every large block is then page-faulted anew, which
/// costs the allocation-heavy workloads 8-15 % of their operation time.
const MALLOC_SETTING: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "131072");
/// Rounds of the all-workloads mode: A B C ... A B C ..., so slow drift
/// of a shared machine hits every workload alike.
const ROUNDS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
        quick: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick {
        args.seconds /= 10.0;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let spec = Spec::embedded();
    let outcome = parse_args(&spec).and_then(|args| match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare::compare(&spec, a, b),
        (None, Some(name)) => one_workload(&spec, &args, name),
        (None, None) => all_workloads(&spec, &args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload, in a process of its own: the first call
/// re-executes this command line with [`MALLOC_SETTING`] and, for a
/// traced run, pinned to core 0.
fn one_workload(spec: &Spec, args: &Args, name: &str) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
    if std::env::var_os(CHILD).is_none() {
        let pinned = args.trace && can_pin();
        if args.trace && !pinned {
            eprintln!("benchmark: `taskset -c 0` does not work here; tracing unpinned");
        }
        let status = measuring_process(pinned)
            .status()
            .map_err(|e| e.to_string())?;
        return Ok(status.success());
    }
    let run = RunArgs {
        workload,
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = if args.trace {
        let (result, spans) = measure::run_traced(&run, spec);
        let text = serde::json::to_string(&spans).map_err(|e| e.to_string())?;
        let path = args.out.join(format!("trace-{name}.json"));
        std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, text + "\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        result
    } else {
        measure::run_end_to_end(&run, spec)
    };
    result
        .write(&args.out)
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    print_result(&result);
    println!("{}", result.contract_line());
    Ok(result.ops_failed == 0)
}

/// Whether `taskset` exists and may pin a process to core 0.
fn can_pin() -> bool {
    Command::new("taskset")
        .args(["-c", "0", "true"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// This same command line as a child process. Pinned, it runs under
/// `taskset -c 0`, so that `available_parallelism` is 1, `parallel_map`
/// runs serially and spans never overlap.
fn measuring_process(pinned: bool) -> Command {
    let exe = std::env::current_exe().unwrap_or_else(|_| "benchmark".into());
    let mut command = if pinned {
        let mut taskset = Command::new("taskset");
        taskset.args(["-c", "0"]).arg(exe);
        taskset
    } else {
        Command::new(exe)
    };
    command
        .args(std::env::args_os().skip(1))
        .env(CHILD, "1")
        .env(MALLOC_SETTING.0, MALLOC_SETTING.1);
    command
}

fn print_result(result: &RunResult) {
    let env = &result.environment;
    println!(
        "workload {}  seed {}  {} s  traced {}  ops {} attempted / {} failed  samples: {} ops, {} set-ups",
        result.workload,
        result.seed,
        result.seconds,
        result.traced,
        result.ops_attempted,
        result.ops_failed,
        result.op_samples,
        result.setup_samples
    );
    println!(
        "commit {}  {}  {}  nproc {}  threads {}",
        env.commit, env.rustc, env.cpu, env.nproc, env.threads
    );
    for metric in result.metrics.iter().chain(&result.wall_clock) {
        println!(
            "  {:<40} {:>18.9} {}",
            metric.name, metric.value, metric.unit
        );
    }
}

/// Every workload, each run in a process of its own so that
/// `peak_rss_mb` is the workload's, in [`ROUNDS`] interleaved rounds;
/// each metric is the median over the rounds. With `--trace 1`, one
/// traced run per workload follows.
fn all_workloads(spec: &Spec, args: &Args) -> Result<bool, String> {
    let rounds = if args.quick { 1 } else { ROUNDS };
    let mut runs: Vec<Vec<RunResult>> = spec.workloads.iter().map(|_| Vec::new()).collect();
    let mut passed = true;
    for round in 1..=rounds {
        let dir = args.out.join(format!("round-{round}"));
        for (workload, runs) in spec.workloads.iter().zip(&mut runs) {
            eprintln!("round {round} of {rounds}: {}", workload.name);
            passed &= run_workload(&workload.name, args, false, &dir)?;
            runs.push(RunResult::read(&RunResult::path(
                &dir,
                &workload.name,
                false,
            ))?);
        }
    }
    for runs in &runs {
        let merged = merge_rounds(runs);
        merged
            .write(&args.out)
            .map_err(|e| format!("{}: {e}", args.out.display()))?;
        print_result(&merged);
    }
    if args.trace {
        for workload in &spec.workloads {
            passed &= run_workload(&workload.name, args, true, &args.out)?;
        }
    }
    Ok(passed)
}

/// One `--workload` run as a child process. An end-to-end run's output
/// is read back from its result file; a traced run prints its own.
fn run_workload(name: &str, args: &Args, traced: bool, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(&exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdout(if traced {
            Stdio::inherit()
        } else {
            Stdio::null()
        })
        .status()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(status.success())
}

/// One result for a workload's rounds: medians of the metrics, sums of
/// the counts.
fn merge_rounds(runs: &[RunResult]) -> RunResult {
    let mut merged = runs[0].clone();
    let median_over_rounds = |metric: &mut Metric, list: fn(&RunResult) -> &Vec<Metric>| {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|run| list(run).iter().find(|m| m.name == metric.name))
            .map(|m| m.value)
            .collect();
        metric.value = stats::median(&values);
    };
    for metric in &mut merged.metrics {
        median_over_rounds(metric, |run| &run.metrics);
    }
    for metric in &mut merged.wall_clock {
        median_over_rounds(metric, |run| &run.wall_clock);
    }
    merged.ops_attempted = runs.iter().map(|r| r.ops_attempted).sum();
    merged.ops_failed = runs.iter().map(|r| r.ops_failed).sum();
    merged.op_samples = runs.iter().map(|r| r.op_samples).sum();
    merged.setup_samples = runs.iter().map(|r| r.setup_samples).sum();
    merged.failures = runs.iter().flat_map(|r| r.failures.clone()).collect();
    merged
}
