//! `BENCHMARK.json`, the one description of this benchmark: workload
//! names, metric names, units and bounds all come from it.

use serde::Deserialize;

#[derive(Clone, Debug, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
}

#[derive(Clone, Debug, Deserialize)]
pub struct EndToEndSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the other side's value by which the metric may be worse.
    pub bound: f64,
}

#[derive(Clone, Debug, Deserialize)]
pub struct PerLayerSpec {
    pub name: String,
    pub unit: String,
}

#[derive(Clone, Debug, Deserialize)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<EndToEndSpec>,
    pub per_layer: Vec<PerLayerSpec>,
}

impl Spec {
    /// The copy of `BENCHMARK.json` compiled into this binary.
    pub fn embedded() -> Spec {
        serde::json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json matches the Spec schema")
    }

    /// Unit of a metric of either list.
    pub fn unit(&self, metric: &str) -> Option<&str> {
        let end_to_end = self.end_to_end.iter().map(|m| (&m.name, &m.unit));
        let per_layer = self.per_layer.iter().map(|m| (&m.name, &m.unit));
        end_to_end
            .chain(per_layer)
            .find(|(name, _)| *name == metric)
            .map(|(_, unit)| unit.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_names_the_workloads_the_code_runs() {
        let spec = Spec::embedded();
        let declared: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let built: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, built);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn metric_names_are_unique_and_directions_known() {
        let spec = Spec::embedded();
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for metric in &spec.end_to_end {
            assert!(metric.better == "lower" || metric.better == "higher");
        }
    }
}
