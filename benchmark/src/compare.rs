//! `--compare <a-dir> <b-dir>`: two sets of result files side by side.

use std::path::Path;

use crate::result::RunResult;
use crate::spec::{EndToEndSpec, Spec};

/// By what share of `a` the value `b` is worse (negative: better).
pub fn worse_by(metric: &EndToEndSpec, a: f64, b: f64) -> f64 {
    if metric.better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Prints, per workload and end-to-end metric, both values, how much
/// worse `b` is than `a`, and PASS or FAIL against the metric's bound.
/// Returns whether every row passed.
pub fn compare(spec: &Spec, a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    println!(
        "{:<22} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "b worse", "bound"
    );
    let mut all_pass = true;
    for workload in &spec.workloads {
        let a = RunResult::read(&RunResult::path(a_dir, &workload.name, false))?;
        let b = RunResult::read(&RunResult::path(b_dir, &workload.name, false))?;
        for metric in &spec.end_to_end {
            let (Some(va), Some(vb)) = (a.metric(&metric.name), b.metric(&metric.name)) else {
                return Err(format!("{}: {} is missing", workload.name, metric.name));
            };
            let worse = worse_by(metric, va, vb);
            let pass = worse <= metric.bound;
            all_pass &= pass;
            println!(
                "{:<22} {:<12} {:>14.6} {:>14.6} {:>8.1}% {:>5.0}%  {}",
                workload.name,
                metric.name,
                va,
                vb,
                worse * 100.0,
                metric.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        let failed = a.ops_failed + b.ops_failed;
        all_pass &= failed == 0;
        println!(
            "{:<22} {:<12} {:>14} {:>14} {:>9} {:>6}  {}",
            workload.name,
            "failed ops",
            format!("{}/{}", a.ops_failed, a.ops_attempted),
            format!("{}/{}", b.ops_failed, b.ops_attempted),
            "",
            "0",
            if failed == 0 { "PASS" } else { "FAIL" }
        );
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &str) -> EndToEndSpec {
        EndToEndSpec {
            name: "m".to_string(),
            unit: "s".to_string(),
            better: better.to_string(),
            bound: 0.1,
        }
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(&metric("lower"), 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worse_by(&metric("lower"), 2.0, 1.8) + 0.1).abs() < 1e-12);
        assert!((worse_by(&metric("higher"), 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(&metric("higher"), 100.0, 120.0) + 0.2).abs() < 1e-12);
    }
}
