//! Runs one operation: the timed chain of calls into the backends.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gossip::{
    AnalyticBackend, Backend, GraphBackend, ModelError, NetSimBackend, ProtocolBackend, Report,
    RuntimeBackend, Scenario, SweepCell,
};

use crate::trace::Tracer;
use crate::workloads::{BackendKind, Op, Work};

/// One instance of every backend, built during set-up.
pub struct Backends {
    analytic: AnalyticBackend,
    graph: GraphBackend,
    protocol: ProtocolBackend,
    netsim: NetSimBackend,
    channel: RuntimeBackend,
    tcp: RuntimeBackend,
}

impl Backends {
    pub fn new() -> Backends {
        Backends {
            analytic: AnalyticBackend,
            graph: GraphBackend,
            protocol: ProtocolBackend,
            netsim: NetSimBackend,
            channel: RuntimeBackend::channel(),
            tcp: RuntimeBackend::tcp(),
        }
    }

    pub fn get(&self, kind: BackendKind) -> &dyn Backend {
        match kind {
            BackendKind::Analytic => &self.analytic,
            BackendKind::Graph => &self.graph,
            BackendKind::Protocol => &self.protocol,
            BackendKind::NetSim => &self.netsim,
            BackendKind::RuntimeChannel => &self.channel,
            BackendKind::RuntimeTcp => &self.tcp,
        }
    }
}

/// What one [`crate::workloads::Eval`] returned.
// An op holds at most 16 of these; boxing the report would put an
// allocation into the timed region instead.
#[allow(clippy::large_enum_variant)]
pub enum Output {
    One(Result<Report, ModelError>),
    Grid(Vec<SweepCell>),
}

impl Output {
    /// `(scenario, result)` of every evaluation `work` asked for.
    pub fn results<'a>(
        &'a self,
        work: &'a Work,
    ) -> Vec<(&'a Scenario, &'a Result<Report, ModelError>)> {
        match (self, work) {
            (Output::One(result), Work::One(scenario)) => vec![(scenario, result)],
            (Output::Grid(cells), _) => cells.iter().map(|c| (&c.scenario, &c.report)).collect(),
            (Output::One(_), Work::Grid(_)) => unreachable!("a grid entry returns cells"),
        }
    }
}

/// The JSON round trip of an op that asks for one.
pub struct Roundtrip {
    pub bytes: usize,
    pub decoded: Result<Vec<Report>, String>,
}

pub struct OpRun {
    /// Wall clock of the timed region: every call of the chain, nothing
    /// of the output check.
    pub seconds: f64,
    pub outputs: Vec<Output>,
    pub roundtrip: Option<Roundtrip>,
}

/// Runs the op's chain once. `Err` carries the panic message when a
/// backend panicked instead of returning.
pub fn run_op(op: &Op, backends: &Backends, tracer: &mut Tracer) -> Result<OpRun, String> {
    catch_unwind(AssertUnwindSafe(|| run_chain(op, backends, tracer))).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic with a non-string payload".to_string())
    })
}

fn run_chain(op: &Op, backends: &Backends, tracer: &mut Tracer) -> OpRun {
    let mut outputs = Vec::with_capacity(op.evals.len());
    let mut roundtrip = None;
    let start = Instant::now();
    let op_span = tracer.begin("bench.op");
    for (index, eval) in op.evals.iter().enumerate() {
        let backend = backends.get(eval.backend);
        let span = tracer.begin(eval.span);
        let output = match &eval.work {
            Work::One(scenario) => Output::One(backend.evaluate(scenario)),
            Work::Grid(grid) => Output::Grid(grid.run(backend)),
        };
        tracer.end(span);
        if op.json_roundtrip == Some(index) {
            roundtrip = Some(json_roundtrip(&output, tracer));
        }
        outputs.push(output);
    }
    tracer.end(op_span);
    let seconds = start.elapsed().as_secs_f64();
    OpRun {
        seconds,
        outputs,
        roundtrip,
    }
}

fn json_roundtrip(output: &Output, tracer: &mut Tracer) -> Roundtrip {
    let reports: Vec<&Report> = match output {
        Output::One(result) => result.iter().collect(),
        Output::Grid(cells) => cells
            .iter()
            .filter_map(|c| c.report.as_ref().ok())
            .collect(),
    };
    let span = tracer.begin("core.report_json_encode");
    let text = serde::json::to_string(&reports);
    tracer.end(span);
    let span = tracer.begin("core.report_json_decode");
    let decoded = text
        .as_ref()
        .map_err(|e| e.to_string())
        .and_then(|text| serde::json::from_str::<Vec<Report>>(text).map_err(|e| e.to_string()));
    tracer.end(span);
    Roundtrip {
        bytes: text.map_or(0, |t| t.len()),
        decoded,
    }
}
