//! One run of one workload: closed loop, one client — the next
//! operation starts when the previous one has returned and been checked.

use std::time::Instant;

use crate::calibrate::{at_reference_speed, Calibrator};
use crate::check::{check_op, Failure};
use crate::exec::{run_op, Backends};
use crate::probes;
use crate::result::{peak_rss_mb, threads, Environment, Metric, RunResult};
use crate::spec::Spec;
use crate::stats::{median, percentile};
use crate::trace::{layer_shares, Span, Tracer};
use crate::workloads::{op_seed, Op, Workload};

/// Untimed operations that open every set-up.
const WARMUP_OPS: u64 = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Operations a traced run replays, each once with and once without
/// spans (fewer when `--seconds` is below 10).
const TRACED_OPS: u64 = 10;

pub struct RunArgs<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
}

/// Counts and failure messages of every operation of a run, timed or not.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    watchdog_trips: usize,
    max_abs_err: f64,
    failures: Vec<String>,
}

impl Tally {
    /// Runs and checks one operation; returns its timed seconds.
    fn run(&mut self, op: &Op, seed: u64, backends: &Backends, tracer: &mut Tracer) -> Option<f64> {
        self.attempted += 1;
        let failure = match run_op(op, backends, tracer) {
            Ok(run) => match check_op(op, &run, backends) {
                Ok(err) => {
                    self.max_abs_err = self.max_abs_err.max(err);
                    return Some(run.seconds);
                }
                Err(failure) => failure,
            },
            Err(panic) => Failure {
                reason: format!("panicked: {panic}"),
                scenario_json: None,
                watchdog: false,
            },
        };
        self.failed += 1;
        self.watchdog_trips += usize::from(failure.watchdog);
        let scenario = failure.scenario_json.as_deref().unwrap_or("(whole op)");
        let message = format!("op seed {seed}: {}; scenario {scenario}", failure.reason);
        // The result file keeps every failure; the terminal the first few.
        if self.failed <= 3 {
            eprintln!("FAILED {message}");
        }
        self.failures.push(message);
        None
    }
}

fn build_op(args: &RunArgs<'_>, index: u64) -> (Op, u64) {
    let seed = op_seed(args.seed, index);
    ((args.workload.build)(seed, index, threads()), seed)
}

/// One set-up: backend construction, scenario generation and the
/// warm-up operations. Returns the backends and the seconds it took
/// (checking the warm-up outputs is not part of it).
fn set_up(args: &RunArgs<'_>, tally: &mut Tally) -> (Backends, f64) {
    let mut tracer = Tracer::new(false);
    let start = Instant::now();
    let backends = Backends::new();
    let ops: Vec<(Op, u64)> = (0..WARMUP_OPS).map(|i| build_op(args, i)).collect();
    let mut seconds = start.elapsed().as_secs_f64();
    for (op, seed) in &ops {
        seconds += tally.run(op, *seed, &backends, &mut tracer).unwrap_or(0.0);
    }
    (backends, seconds)
}

struct Metrics<'a> {
    spec: &'a Spec,
    list: Vec<Metric>,
}

impl Metrics<'_> {
    fn push(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} = {value}");
        let unit = self
            .spec
            .unit(name)
            .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"));
        self.list.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }
}

fn finish(
    args: &RunArgs<'_>,
    traced: bool,
    tally: Tally,
    op_samples: usize,
    setup_samples: usize,
    metrics: Vec<Metric>,
) -> RunResult {
    RunResult {
        workload: args.workload.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced,
        environment: Environment::capture(),
        ops_attempted: tally.attempted,
        ops_failed: tally.failed,
        op_samples,
        setup_samples,
        metrics,
        wall_clock: Vec::new(),
        failures: tally.failures,
    }
}

/// Timings of one kind, as measured and at reference speed.
#[derive(Default)]
struct Timings {
    wall: Vec<f64>,
    calibrated: Vec<f64>,
}

/// The end-to-end run: tracing off, all cores, every set-up and every
/// operation between two calibration slices (see [`crate::calibrate`]).
pub fn run_end_to_end(args: &RunArgs<'_>, spec: &Spec) -> RunResult {
    let mut tally = Tally::default();
    let mut calibrator = Calibrator::new(threads());
    let calibration_mb = calibrator.resident_mb();
    let mut before = calibrator.slice();
    let mut slices = vec![before];
    let mut record = |timings: &mut Timings, seconds: Option<f64>| {
        let after = calibrator.slice();
        slices.push(after);
        if let Some(seconds) = seconds {
            timings.wall.push(seconds);
            timings
                .calibrated
                .push(at_reference_speed(seconds, before, after));
        }
        before = after;
    };

    let mut setups = Timings::default();
    let backends = loop {
        let (backends, seconds) = set_up(args, &mut tally);
        record(&mut setups, Some(seconds));
        if setups.wall.len() == SETUP_REPS {
            break backends;
        }
    };

    let mut tracer = Tracer::new(false);
    let mut ops = Timings::default();
    let mut evaluations = 0usize;
    let window = Instant::now();
    let mut index = WARMUP_OPS;
    while window.elapsed().as_secs_f64() < args.seconds || ops.wall.is_empty() {
        let (op, seed) = build_op(args, index);
        let seconds = tally.run(&op, seed, &backends, &mut tracer);
        record(&mut ops, seconds);
        if seconds.is_some() {
            evaluations += op.evaluations();
        }
        index += 1;
        if ops.wall.is_empty() && index > 2 * WARMUP_OPS {
            break; // nothing succeeds: report the failures instead of spinning
        }
    }

    let mut metrics = Metrics {
        spec,
        list: Vec::new(),
    };
    let mut wall_clock = Vec::new();
    let mut wall = |name: &str, value: f64, unit: &str| {
        wall_clock.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        })
    };
    if !ops.wall.is_empty() {
        let evaluations = evaluations as f64;
        metrics.push("op_s_p50", percentile(&ops.calibrated, 50));
        metrics.push("op_s_p90", percentile(&ops.calibrated, 90));
        metrics.push(
            "evals_per_s",
            evaluations / ops.calibrated.iter().sum::<f64>(),
        );
        wall("op_wall_s_p50", percentile(&ops.wall, 50), "s");
        wall("op_wall_s_p90", percentile(&ops.wall, 90), "s");
        wall(
            "evals_per_wall_s",
            evaluations / ops.wall.iter().sum::<f64>(),
            "1/s",
        );
    }
    metrics.push("setup_s", median(&setups.calibrated));
    wall("setup_wall_s", median(&setups.wall), "s");
    wall("calibration_slice_wall_s", median(&slices), "s");
    metrics.push(
        "peak_rss_mb",
        peak_rss_mb().map_or(0.0, |mb| mb - calibration_mb),
    );
    let (op_samples, setup_samples) = (ops.wall.len(), setups.wall.len());
    RunResult {
        wall_clock,
        ..finish(args, false, tally, op_samples, setup_samples, metrics.list)
    }
}

/// The traced run (the caller has pinned the process to one core):
/// replays the workload's first operations with spans around every call
/// into a layer, then times each layer's public kernels.
pub fn run_traced(args: &RunArgs<'_>, spec: &Spec) -> (RunResult, Vec<Span>) {
    let mut tally = Tally::default();
    let (backends, _) = set_up(args, &mut tally);

    let mut tracer = Tracer::new(false);
    // Seconds with spans over seconds without, per replayed operation:
    // `[0]` where the spanned variant ran first, `[1]` where second.
    let mut overheads = [Vec::new(), Vec::new()];
    // A fixed count, so that the counts in the trace repeat for a seed.
    let replayed = TRACED_OPS.min((args.seconds as u64).max(3));
    for index in 0..replayed {
        let (op, seed) = build_op(args, index);
        // Alternate which variant runs first: whichever runs second
        // finds the caches warm.
        let spanned_first = index % 2 == 0;
        let mut seconds = [None, None];
        for traced in [spanned_first, !spanned_first] {
            tracer.set_enabled(traced);
            tracer.set_op(Some(index));
            seconds[usize::from(traced)] = tally.run(&op, seed, &backends, &mut tracer);
        }
        if let [Some(off), Some(on)] = seconds {
            overheads[usize::from(!spanned_first)].push(on / off);
        }
    }
    tracer.set_enabled(true);
    tracer.set_op(None);

    let mut metrics = Metrics {
        spec,
        list: Vec::new(),
    };
    let probes = tracer.begin("bench.probes");
    for (name, value) in probes::run_all(args.seed, &backends, &mut tracer) {
        metrics.push(name, value);
    }
    tracer.end(probes);

    for (name, value) in probes::span_metrics(tracer.spans(), spec) {
        metrics.push(&name, value);
    }
    let shares = layer_shares(tracer.spans());
    for layer in probes::LAYERS {
        let share = shares
            .iter()
            .find(|(name, _)| name == layer)
            .map_or(0.0, |&(_, share)| share);
        metrics.push(&format!("share.{layer}_ratio"), share);
    }
    metrics.push("core.reliability_abs_err_max", tally.max_abs_err);
    metrics.push("runtime.watchdog_trips", tally.watchdog_trips as f64);
    let [first, second] = &overheads;
    if !first.is_empty() && !second.is_empty() {
        // The geometric mean cancels what running second is worth.
        let ratio = (median(first) * median(second)).sqrt();
        metrics.push("trace.overhead_ratio", ratio - 1.0);
    }

    let missing: Vec<&str> = spec
        .per_layer
        .iter()
        .map(|m| m.name.as_str())
        .filter(|name| !metrics.list.iter().any(|m| m.name == *name))
        .collect();
    if !missing.is_empty() {
        tally.failed += 1;
        tally
            .failures
            .push(format!("per-layer metrics not measured: {missing:?}"));
    }
    let spans = tracer.spans().to_vec();
    let replays = overheads.iter().map(Vec::len).sum();
    let result = finish(args, true, tally, replays, 1, metrics.list);
    (result, spans)
}
