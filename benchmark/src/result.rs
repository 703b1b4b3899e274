//! The result file of one run, one schema for all workloads, and the
//! environment stamp it carries.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Deserialize, Serialize, Value};

/// Where and how a number was measured.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    pub commit: String,
    pub rustc: String,
    pub cpu: String,
    pub nproc: usize,
    /// Threads the library could use: `available_parallelism` of this
    /// process, which is also the runtime workloads' `max_threads`.
    pub threads: usize,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.trim().to_string()).filter(|t| !t.is_empty())
}

/// `available_parallelism` of this process (honours `taskset`).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

impl Environment {
    pub fn capture() -> Environment {
        let unknown = || "unknown".to_string();
        let manifest_dir = env!("CARGO_MANIFEST_DIR");
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find(|line| line.starts_with("model name"))
            .and_then(|line| line.split(':').nth(1))
            .map(|model| model.trim().to_string());
        let nproc = cpuinfo
            .lines()
            .filter(|line| line.starts_with("processor"))
            .count();
        Environment {
            commit: command_line("git", &["-C", manifest_dir, "rev-parse", "HEAD"])
                .unwrap_or_else(unknown),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            cpu: cpu.unwrap_or_else(unknown),
            nproc: nproc.max(1),
            threads: threads(),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one run of one workload measured.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub environment: Environment,
    pub ops_attempted: usize,
    pub ops_failed: usize,
    /// Timed operations behind `op_s_p50` / `op_s_p90`.
    pub op_samples: usize,
    /// Set-up repetitions behind `setup_s`.
    pub setup_samples: usize,
    pub metrics: Vec<Metric>,
    /// The timings as the clock read them, before calibration (not held
    /// to any bound: they follow the machine's load).
    pub wall_clock: Vec<Metric>,
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line result the contract asks for on standard output.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Map(vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.ops_failed == 0)),
            (
                "attempted".to_string(),
                Value::U64(self.ops_attempted as u64),
            ),
            ("failed".to_string(), Value::U64(self.ops_failed as u64)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde::json::to_string(&line).expect("every metric is finite")
    }

    pub fn path(dir: &Path, workload: &str, traced: bool) -> PathBuf {
        let kind = if traced { "layers" } else { "result" };
        dir.join(format!("{kind}-{workload}.json"))
    }

    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let text = serde::json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(Self::path(dir, &self.workload, self.traced), text + "\n")
    }

    pub fn read(path: &Path) -> Result<RunResult, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde::json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
