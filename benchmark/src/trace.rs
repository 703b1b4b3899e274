//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Kept in memory and written out when the run ends. A layer's self
//! time is its span's duration minus the time its child spans cover;
//! the traced run is pinned to one core, so children never overlap and
//! the subtraction is exact.

use std::time::Instant;

use serde::Serialize;

/// One recorded interval. `name` is `<layer>.<what>`; `parent` indexes
/// the span that was open when this one began; spans of one operation
/// share `op`.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The crate that owns the spanned call: the name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Operation id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    pub fn end(&mut self, id: SpanId) {
        if let SpanId(Some(index)) = id {
            let end_ns = self.now_ns();
            self.spans[index].end_ns = end_ns;
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(index), "spans close innermost first");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Share of the traced operations' time each layer spent in its own
/// code, as `(layer, share)` in first-seen order. Only spans that carry
/// an operation id count, so the kernel probes stay out of the shares.
pub fn layer_shares(spans: &[Span]) -> Vec<(String, f64)> {
    let own = self_times_ns(spans);
    let mut totals: Vec<(String, u64)> = Vec::new();
    for (span, &ns) in spans.iter().zip(&own) {
        if span.op.is_none() {
            continue;
        }
        match totals.iter_mut().find(|(layer, _)| layer == span.layer()) {
            Some((_, total)) => *total += ns,
            None => totals.push((span.layer().to_string(), ns)),
        }
    }
    let all: u64 = totals.iter().map(|&(_, ns)| ns).sum();
    totals
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / all.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] > eval [10,90] > kernel [20,50]; op also > check [90,95].
        let spans = vec![
            span("bench.op", 0, 100, None),
            span("protocol.eval", 10, 90, Some(0)),
            span("engine.relay", 20, 50, Some(1)),
            span("bench.check", 90, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 50, 30, 5]);
        // Self times partition the root span.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn layer_shares_sum_to_one_and_skip_probe_spans() {
        let mut spans = vec![
            span("bench.op", 0, 100, None),
            span("protocol.eval", 0, 60, Some(0)),
            span("rgraph.eval", 60, 100, Some(0)),
        ];
        spans.push(Span {
            op: None,
            ..span("engine.probe", 100, 1000, None)
        });
        let shares = layer_shares(&spans);
        assert_eq!(
            shares,
            vec![
                ("bench".to_string(), 0.0),
                ("protocol".to_string(), 0.6),
                ("rgraph".to_string(), 0.4),
            ]
        );
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.set_op(Some(7));
        let outer = tracer.begin("bench.op");
        let inner = tracer.begin("core.sweep");
        tracer.end(inner);
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("bench.op");
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
