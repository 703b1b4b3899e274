//! The reproduction ledger: every experiment of the paper's evaluation
//! (Figs. 2–7) and of this repo's extensions (E7–E18) is one entry of
//! [`REGISTRY`] — the experiment index — run by the one `repro` binary
//! (`repro <name>`, `repro all`, no argument lists the index).
//!
//! An experiment is a function that builds its `Scenario`s, fills a
//! [`Table`] of the same series the paper plots, and states its
//! [`Finding`]s — each a claim checked against a bound, so a regressed
//! number fails the run instead of scrolling past. The runner prints
//! the tables, writes them as CSV into the git-ignored `results/`, and
//! for the four committed experiments writes the [`Experiment::ledger_json`]
//! to `BENCH_<name>.json` at the workspace root. There are no knobs:
//! the seed and every replication count are constants, so a run is
//! deterministic and the committed ledgers are goldens
//! (`tests/ledger.rs`).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use gossip_model::analytic::AnalyticBackend;
use gossip_model::scenario::{Backend, Report, Scenario};
use gossip_protocol::ProtocolBackend;
use serde::{json, Serialize, Value};

pub mod ablations;
pub mod extensions;
pub mod figures;

/// Base seed of every experiment ("ICPP 2008").
pub const SEED: u64 = 0x1CC_2008;

/// The workspace root: where the committed `BENCH_*.json` ledgers live
/// and where `results/` is created. Resolved at run time from the
/// current directory (see [`workspace_root_from`]), so a binary run in
/// another checkout writes that checkout's ledgers.
pub fn workspace_root() -> Result<PathBuf, WorkspaceRootError> {
    let cwd = std::env::current_dir().map_err(|e| WorkspaceRootError {
        start: PathBuf::from("."),
        reason: e.to_string(),
    })?;
    workspace_root_from(&cwd)
}

/// The nearest ancestor of `start` (itself included) whose `Cargo.toml`
/// declares `[workspace]`.
pub fn workspace_root_from(start: &Path) -> Result<PathBuf, WorkspaceRootError> {
    for dir in start.ancestors() {
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        if manifest
            .lines()
            .any(|line| line.trim_start().starts_with("[workspace]"))
        {
            return Ok(dir.to_path_buf());
        }
    }
    Err(WorkspaceRootError {
        start: start.to_path_buf(),
        reason: "no ancestor holds a Cargo.toml with [workspace]".into(),
    })
}

/// Why [`workspace_root`] found no workspace to write into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkspaceRootError {
    /// Where the search started.
    pub start: PathBuf,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for WorkspaceRootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no workspace root above {}: {}; run from inside the gossip workspace",
            self.start.display(),
            self.reason
        )
    }
}

impl std::error::Error for WorkspaceRootError {}

/// Eq. 11 (with loss, Eq. 11's bond+site extension) for a scenario.
pub(crate) fn analytic_r(scenario: &Scenario) -> f64 {
    AnalyticBackend
        .evaluate(scenario)
        .expect("the analytic backend prices every experiment scenario")
        .reliability
}

/// The §5 push experiment on [`ProtocolBackend`]: `reps` executions of
/// `scenario` from `seed`.
pub(crate) fn push(scenario: &Scenario, reps: usize, seed: u64) -> Report {
    let scenario = scenario.clone().with_replications(reps).with_seed(seed);
    ProtocolBackend
        .evaluate(&scenario)
        .expect("the push experiment runs")
}

/// A printable, CSV-writable table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[impl AsRef<str>]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Convenience: appends a row of floats with the given precision.
    pub fn push_floats(&mut self, values: &[f64], precision: usize) {
        self.push(values.iter().map(|v| format!("{v:.precision$}")).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    out.push_str("  ");
                }
                first = false;
                let _ = write!(out, "{cell:>w$}");
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let rule: String = widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("--");
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Writes the table as CSV.
    pub fn write_csv(&self, path: &Path) {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        fs::write(path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// Renders labelled `(x, y)` series as a crude ASCII scatter plot —
/// enough to eyeball curve shapes (the actual comparison is numeric).
pub fn ascii_plot<S: AsRef<str>>(
    series: &[(S, Vec<(f64, f64)>)],
    width: usize,
    height: usize,
) -> String {
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for (_, pts) in series {
        for &(x, y) in pts {
            xs.push(x);
            ys.push(y);
        }
    }
    if xs.is_empty() {
        return String::from("(no data)\n");
    }
    let (xmin, xmax) = bounds(&xs);
    let (ymin, ymax) = bounds(&ys);
    let mut grid = vec![vec![' '; width]; height];
    let marks = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for &(x, y) in pts {
            let cx = scale_to(x, xmin, xmax, width - 1);
            let cy = scale_to(y, ymin, ymax, height - 1);
            grid[height - 1 - cy][cx] = mark;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "y ∈ [{ymin:.3}, {ymax:.3}]");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    let _ = writeln!(out, " x ∈ [{xmin:.3}, {xmax:.3}]");
    for (si, (label, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} {}", marks[si % marks.len()], label.as_ref());
    }
    out
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if (hi - lo).abs() < 1e-12 {
        (lo - 0.5, hi + 0.5)
    } else {
        (lo, hi)
    }
}

fn scale_to(v: f64, lo: f64, hi: f64, max_idx: usize) -> usize {
    (((v - lo) / (hi - lo)) * max_idx as f64)
        .round()
        .clamp(0.0, max_idx as f64) as usize
}

/// One claim an experiment makes about its numbers, checked against a
/// bound stated in the claim itself.
#[derive(Clone, Debug, Serialize)]
pub struct Finding {
    /// The claim, with the measured values and the bound it was held to.
    pub claim: String,
    /// Whether the claim held on this run.
    pub holds: bool,
}

/// What one experiment produced: its tables (each with the CSV file
/// name it is saved under), free-form notes (plots, context) and its
/// checked findings.
#[derive(Default)]
pub struct Outcome {
    /// `(csv file name, table)`, in print order.
    pub tables: Vec<(String, Table)>,
    /// Plots and remarks printed after the tables.
    pub notes: Vec<String>,
    /// The checked claims; any with `holds == false` fails the run.
    pub findings: Vec<Finding>,
}

impl Outcome {
    /// Adds a table, saved as `results/<csv>`.
    pub fn table(&mut self, csv: impl Into<String>, table: Table) {
        self.tables.push((csv.into(), table));
    }

    /// Adds a plot or remark.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Records a checked claim.
    pub fn finding(&mut self, holds: bool, claim: impl Into<String>) {
        self.findings.push(Finding {
            claim: claim.into(),
            holds,
        });
    }
}

/// One entry of the experiment index.
pub struct Experiment {
    /// The name `repro <name>` runs it by.
    pub name: &'static str,
    /// Its unique label in the index (`Fig. 4`, `E16`, …).
    pub label: &'static str,
    /// One line on what it measures.
    pub about: &'static str,
    /// Whether its ledger is committed as `BENCH_<name>.json`.
    pub ledger: bool,
    body: fn(&mut Outcome),
}

/// The experiment index: the paper's Figs. 2–7, the model-validation
/// extensions E7–E14 and the four ablations E15–E18 whose ledgers are
/// committed. An entry's name is its function's name.
pub static REGISTRY: [Experiment; 18] = {
    macro_rules! index {
        ($($label:literal $module:ident::$name:ident ledger=$ledger:literal $about:literal;)*) => {
            [$(Experiment {
                name: stringify!($name),
                label: $label,
                about: $about,
                ledger: $ledger,
                body: $module::$name,
            }),*]
        };
    }
    index! {
        "Fig. 2" figures::fig2 ledger=false "mean fanout z needed for reliability S (Eq. 12)";
        "Fig. 3" figures::fig3 ledger=false "minimum executions t for success 0.999 (Eq. 6)";
        "Fig. 4" figures::fig4 ledger=false "reliability vs mean fanout, n = 1000, sim vs Eq. 11";
        "Fig. 5" figures::fig5 ledger=false "reliability vs mean fanout, n = 5000, sim vs Eq. 11";
        "Fig. 6" figures::fig6 ledger=false "success count among 20 executions, f = 4.0, q = 0.9";
        "Fig. 7" figures::fig7 ledger=false "success count among 20 executions, f = 6.0, q = 0.6";
        "E7" extensions::critical_point ledger=false "empirical vs analytic q_c = 1/G1'(1)";
        "E8" extensions::distribution_zoo ledger=false "six fanout families at equal mean";
        "E9" extensions::success_vs_t ledger=false "Eq. 5: member reached within t executions";
        "E10" extensions::membership_ablation ledger=false "full view vs SCAMP partial views";
        "E11" extensions::finite_size ledger=false "model error vs group size, n = 250 … 16 000";
        "E12" extensions::baselines_rounds ledger=false "round-by-round spread vs pbcast and SI";
        "E13" extensions::baselines_success ledger=false "whole-group success vs the KMG law";
        "E14" extensions::loss_sweep ledger=false "message loss as bond percolation";
        "E15" ablations::topology_ablation ledger=true "empirical q_c on six overlay families";
        "E16" ablations::fault_ablation ledger=true "four fault families vs the i.i.d. prediction";
        "E17" ablations::stream_sweep ledger=true "k-message streams under a bandwidth cap";
        "E18" ablations::scaling ledger=true "the Fig. 4 curve at n = 10⁶, one point at 10⁷";
    }
};

/// The experiments `repro <arg>` runs: the whole registry for `all`,
/// the entry of that name otherwise, `None` for an unknown name.
pub fn select(arg: &str) -> Option<Vec<&'static Experiment>> {
    if arg == "all" {
        return Some(REGISTRY.iter().collect());
    }
    REGISTRY.iter().find(|e| e.name == arg).map(|e| vec![e])
}

/// The one ledger schema, derived from the table the experiment builds.
#[derive(Serialize)]
struct Ledger {
    experiment: String,
    seed: u64,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    findings: Vec<Finding>,
}

impl Experiment {
    /// Runs the experiment (no I/O beyond what the backends do).
    pub fn run(&self) -> Outcome {
        let mut outcome = Outcome::default();
        (self.body)(&mut outcome);
        outcome
    }

    /// Where this experiment's ledger is committed, under the workspace
    /// `root` ([`workspace_root`]).
    pub fn ledger_path(&self, root: &Path) -> PathBuf {
        root.join(format!("BENCH_{}.json", self.name))
    }

    /// Serialises the outcome's (single) table and findings in the
    /// ledger schema: one field per line, one row or finding per line,
    /// numeric cells as JSON numbers at their printed precision.
    pub fn ledger_json(&self, outcome: &Outcome) -> String {
        let [(_, table)] = outcome.tables.as_slice() else {
            panic!("{}: a ledger holds exactly one table", self.name);
        };
        let cell = |text: &String| match (text.parse::<u64>(), text.parse::<f64>()) {
            (Ok(int), _) => Value::U64(int),
            (_, Ok(float)) if float.is_finite() => Value::F64(float),
            _ => Value::Str(text.clone()),
        };
        let ledger = Ledger {
            experiment: self.name.to_string(),
            seed: SEED,
            title: table.title.clone(),
            columns: table.headers.clone(),
            rows: table
                .rows
                .iter()
                .map(|row| row.iter().map(cell).collect())
                .collect(),
            findings: outcome.findings.clone(),
        };
        let compact =
            |value: &dyn Serialize| json::to_string(value).expect("ledger cells are finite");
        let Ok(Value::Map(fields)) = json::parse(&compact(&ledger)) else {
            unreachable!("a struct serialises as a map");
        };
        let fields: Vec<String> = fields
            .iter()
            .map(|(key, value)| match value {
                Value::Seq(items)
                    if matches!(items.first(), Some(Value::Seq(_) | Value::Map(_))) =>
                {
                    let lines: Vec<String> = items
                        .iter()
                        .map(|v| format!("    {}", compact(v)))
                        .collect();
                    format!("  \"{key}\": [\n{}\n  ]", lines.join(",\n"))
                }
                other => format!("  \"{key}\": {}", compact(other)),
            })
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.push(vec!["1".into(), "0.5".into()]);
        t.push_floats(&[2.0, 0.25], 2);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("0.25"));
        assert_eq!(s.lines().count(), 5, "title, header, rule, two rows");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_arity_mismatch() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("gossip-bench-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        t.write_csv(&path);
        let content = fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn ascii_plot_contains_marks() {
        let s = ascii_plot(
            &[
                ("up", vec![(0.0, 0.0), (1.0, 1.0)]),
                ("down", vec![(0.0, 1.0)]),
            ],
            20,
            8,
        );
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("up"));
    }

    #[test]
    fn registry_is_a_unique_index() {
        let all = select("all").expect("`all` is always runnable");
        assert_eq!(all.len(), REGISTRY.len());
        for (i, experiment) in REGISTRY.iter().enumerate() {
            assert!(
                std::ptr::eq(all[i], experiment),
                "`all` runs the registry in order"
            );
            let found = select(experiment.name).expect("every name resolves");
            assert!(
                matches!(found[..], [one] if std::ptr::eq(one, experiment)),
                "{} resolves to its own entry",
                experiment.name
            );
            for other in &REGISTRY[..i] {
                assert_ne!(other.name, experiment.name, "duplicate name");
                assert_ne!(other.label, experiment.label, "duplicate label");
            }
        }
        assert!(select("no_such_experiment").is_none());
        assert_eq!(REGISTRY.iter().filter(|e| e.ledger).count(), 4);
    }

    #[test]
    fn workspace_root_is_the_nearest_workspace_manifest() {
        let tree = std::env::temp_dir().join(format!("gossip-bench-root-{}", std::process::id()));
        let member = tree.join("ws/crates/member/src");
        let plain = tree.join("plain/deep");
        fs::create_dir_all(&member).unwrap();
        fs::create_dir_all(&plain).unwrap();
        fs::write(
            tree.join("ws/Cargo.toml"),
            "[workspace]\nmembers = [\"crates/member\"]\n",
        )
        .unwrap();
        // A member manifest that only inherits from the workspace is
        // not a root.
        fs::write(
            tree.join("ws/crates/member/Cargo.toml"),
            "[package]\nname = \"member\"\nversion.workspace = true\n",
        )
        .unwrap();
        fs::write(
            tree.join("plain/Cargo.toml"),
            "[package]\nname = \"plain\"\n",
        )
        .unwrap();

        let ws = tree.join("ws");
        assert_eq!(workspace_root_from(&member), Ok(ws.clone()));
        assert_eq!(workspace_root_from(&ws), Ok(ws.clone()));
        let err = workspace_root_from(&plain).unwrap_err();
        assert_eq!(err.start, plain);
        assert!(err.to_string().contains("no workspace root above"), "{err}");
        fs::remove_dir_all(&tree).unwrap();
    }

    #[test]
    fn empty_plot() {
        assert_eq!(ascii_plot::<&str>(&[], 10, 5), "(no data)\n");
    }
}
