//! The output check every operation goes through, outside its timing.

use gossip::{Backend, FanoutSpec, ModelError, Report, Scenario};

use crate::exec::{Backends, OpRun, Roundtrip};
use crate::workloads::{BackendKind, Op, Reference, AGREEMENT_TOLERANCE};

/// Why an operation failed its check.
pub struct Failure {
    pub reason: String,
    /// JSON of the scenario to replay, when one evaluation is to blame.
    pub scenario_json: Option<String>,
    /// The runtime watchdog aborted an execution (`NoConvergence`).
    pub watchdog: bool,
}

impl Failure {
    fn of(scenario: &Scenario, reason: String) -> Failure {
        Failure {
            reason,
            scenario_json: serde::json::to_string(scenario).ok(),
            watchdog: false,
        }
    }
}

/// Checks every `Report` of the op. `Ok` carries the largest deviation
/// of a reliability from its reference.
pub fn check_op(op: &Op, run: &OpRun, backends: &Backends) -> Result<f64, Failure> {
    let mut max_err = 0.0_f64;
    // Per agreement group: the reliabilities that took off.
    let mut groups: Vec<(u8, &Scenario, Vec<f64>)> = Vec::new();
    for (index, (eval, output)) in op.evals.iter().zip(&run.outputs).enumerate() {
        for (scenario, result) in output.results(&eval.work) {
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    return Err(Failure {
                        watchdog: matches!(e, ModelError::NoConvergence { .. }),
                        ..Failure::of(scenario, format!("{} returned Err: {e}", eval.span))
                    })
                }
            };
            check_range(report).map_err(|reason| Failure::of(scenario, reason))?;
            if op.replay == Some(index) {
                check_replay(backends.get(eval.backend), scenario, report)
                    .map_err(|reason| Failure::of(scenario, reason))?;
            }
            if fizzled(report) {
                continue;
            }
            let reference = match eval.reference {
                Reference::Analytic if eval.backend == BackendKind::Analytic => {
                    fixed_point_residual(scenario, report).map(|r| (r, 1e-9))
                }
                Reference::Analytic => analytic_reference(scenario, report, backends),
                Reference::Backend(kind) => match backends.get(kind).evaluate(scenario) {
                    Ok(other) if !fizzled(&other) => Some((
                        (report.reliability - other.reliability).abs(),
                        AGREEMENT_TOLERANCE,
                    )),
                    _ => None,
                },
                Reference::Agreement(group) => {
                    match groups.iter_mut().find(|(g, _, _)| *g == group) {
                        Some((_, _, values)) => values.push(report.reliability),
                        None => groups.push((group, scenario, vec![report.reliability])),
                    }
                    None
                }
                Reference::RangeOnly => None,
            };
            if let Some((err, tolerance)) = reference {
                max_err = max_err.max(err);
                if err > tolerance {
                    return Err(Failure::of(
                        scenario,
                        format!(
                            "{}: reliability {} is {err} from its reference (tolerance {tolerance})",
                            eval.span, report.reliability
                        ),
                    ));
                }
            }
        }
    }
    for (group, scenario, values) in &groups {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let err = hi - lo;
        max_err = max_err.max(err);
        if err > AGREEMENT_TOLERANCE {
            return Err(Failure::of(
                scenario,
                format!("backends of group {group} disagree: reliabilities {values:?}"),
            ));
        }
    }
    if let Some(roundtrip) = &run.roundtrip {
        check_roundtrip(op, run, roundtrip).map_err(|reason| Failure {
            reason,
            scenario_json: None,
            watchdog: false,
        })?;
    }
    Ok(max_err)
}

/// Every number finite, every ratio in its range.
fn check_range(report: &Report) -> Result<(), String> {
    let mut numbers = vec![
        ("reliability", report.reliability),
        ("reliability_std_error", report.reliability_std_error),
        ("reliability_ci95.lo", report.reliability_ci95.0),
        ("reliability_ci95.hi", report.reliability_ci95.1),
        ("success_within_t", report.success_within_t),
    ];
    let optional = [
        ("reliability_raw", report.reliability_raw),
        ("critical_q", report.critical_q),
        ("takeoff_rate", report.takeoff_rate),
        ("rounds", report.rounds),
        ("messages_per_member", report.messages_per_member),
        ("quiescence_secs", report.quiescence_secs),
        ("messages_lost", report.messages_lost),
    ];
    numbers.extend(optional.iter().filter_map(|&(n, v)| v.map(|v| (n, v))));
    if let Some(traffic) = &report.traffic {
        numbers.push(("traffic.reliability_mean", traffic.reliability_mean));
        numbers.push(("traffic.reliability_min", traffic.reliability_min));
        let optional = [
            ("traffic.messages_per_sec", traffic.messages_per_sec),
            ("traffic.latency_rounds_p50", traffic.latency_rounds_p50),
            ("traffic.latency_rounds_p90", traffic.latency_rounds_p90),
            ("traffic.latency_rounds_p99", traffic.latency_rounds_p99),
            ("traffic.copies_sent", traffic.copies_sent),
            ("traffic.copies_dropped", traffic.copies_dropped),
            ("traffic.copies_lost", traffic.copies_lost),
        ];
        numbers.extend(optional.iter().filter_map(|&(n, v)| v.map(|v| (n, v))));
        if traffic.reliability_min > traffic.reliability_mean + 1e-12 {
            return Err(format!(
                "{}: traffic.reliability_min {} above the mean {}",
                report.backend, traffic.reliability_min, traffic.reliability_mean
            ));
        }
    }
    for (name, value) in numbers {
        if !value.is_finite() {
            return Err(format!(
                "{}: {name} = {value} is not finite",
                report.backend
            ));
        }
    }
    for (name, value) in [
        ("reliability", Some(report.reliability)),
        ("reliability_raw", report.reliability_raw),
        ("takeoff_rate", report.takeoff_rate),
        ("success_within_t", Some(report.success_within_t)),
    ] {
        if value.is_some_and(|v| !(0.0..=1.0).contains(&v)) {
            return Err(format!(
                "{}: {name} = {value:?} outside [0, 1]",
                report.backend
            ));
        }
    }
    Ok(())
}

/// A second evaluation of `scenario` must give `report` again, byte for
/// byte of its JSON.
fn check_replay(backend: &dyn Backend, scenario: &Scenario, report: &Report) -> Result<(), String> {
    let json = |report: &Report| serde::json::to_string(report).map_err(|e| e.to_string());
    let again = backend.evaluate(scenario).map_err(|e| e.to_string())?;
    if json(report)? != json(&again)? {
        return Err(format!(
            "{}: a second evaluation of the same seed gave another report",
            report.backend
        ));
    }
    Ok(())
}

/// No replication took off: the report's conditional reliability is the
/// empty mean, a valid answer that has nothing to compare.
fn fizzled(report: &Report) -> bool {
    report.takeoff_rate == Some(0.0)
}

/// Deviation from `AnalyticBackend` and the tolerance it must meet, or
/// `None` where the analytic layer declines the scenario.
///
/// The tolerance is `max(floor, 6 SE)`. The floor is what finite size
/// leaves between a Monte-Carlo layer and Eq. 11, measured over a few
/// thousand reports per workload and doubled: 0.005 at n = 1e6, 0.06 at
/// n = 1e3, 0.15 at n = 128. Where mean fanout times q times (1 - loss)
/// is below 1.75 - under or near the critical point - finite size moves
/// a group of 1e3 by up to 0.2, and only the range check applies.
fn analytic_reference(
    scenario: &Scenario,
    report: &Report,
    backends: &Backends,
) -> Option<(f64, f64)> {
    let analytic = backends
        .get(BackendKind::Analytic)
        .evaluate(scenario)
        .ok()?;
    let err = (report.reliability - analytic.reliability).abs();
    let floor = match scenario.n {
        100_000.. => 0.005,
        1000.. => 0.06,
        _ => 0.15,
    };
    let branching =
        scenario.fanout.mean().ok()? * scenario.q().unwrap_or(1.0) * (1.0 - scenario.loss);
    if scenario.n < 100_000 && branching < 1.75 {
        return None;
    }
    Some((err, (6.0 * report.reliability_std_error).max(floor)))
}

/// Residual of the paper's Poisson fixed point `R = 1 - exp(-z q R)`
/// (Eq. 11 with a Poisson fanout), an independent check of the solver.
fn fixed_point_residual(scenario: &Scenario, report: &Report) -> Option<f64> {
    let FanoutSpec::Poisson { mean } = scenario.fanout else {
        return None;
    };
    let r = report.reliability;
    let rate = mean * scenario.q()? * (1.0 - scenario.loss);
    Some((r - (1.0 - (-rate * r).exp())).abs())
}

fn check_roundtrip(op: &Op, run: &OpRun, roundtrip: &Roundtrip) -> Result<(), String> {
    let index = op.json_roundtrip.expect("a round trip has a source");
    let originals: Vec<&Report> = run.outputs[index]
        .results(&op.evals[index].work)
        .into_iter()
        .filter_map(|(_, result)| result.as_ref().ok())
        .collect();
    let decoded = roundtrip
        .decoded
        .as_ref()
        .map_err(|e| format!("JSON round trip: {e}"))?;
    if decoded.len() != originals.len() || decoded.iter().zip(&originals).any(|(a, b)| a != *b) {
        return Err("JSON round trip changed the reports".to_string());
    }
    Ok(())
}
