//! Spans recorded by the benchmark around calls into the program's
//! layers. They are held in memory and written out when the run ends.

use fairsqg_wire::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: what ran, when, under which span, for which request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Spans of one request (one panel member's sweep, one job) share it.
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records properly nested spans on one thread. A disabled tracer runs
/// the same calls and records nothing, so traced and untraced runs share
/// their code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        debug_assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time summed per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut ns_by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *ns_by_name.entry(s.name).or_insert(0) += own;
    }
    ns_by_name
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e6))
        .collect()
}

/// Nanoseconds it costs to record one span, measured on empty ones.
pub fn empty_span_ns() -> f64 {
    const N: usize = 10_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..N {
        t.time("empty", 0, || ());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// The trace file: a header, the per-name self times, and every span.
pub fn trace_value(header: Vec<(&'static str, Value)>, spans: &[Span]) -> Value {
    let self_ms = Value::Object(
        self_ms_by_name(spans)
            .into_iter()
            .map(|(name, ms)| (name.to_string(), Value::Float(ms)))
            .collect(),
    );
    let rows = spans
        .iter()
        .map(|s| {
            Value::object([
                ("name", Value::from(s.name)),
                ("start_ns", Value::Int(s.start_ns as i64)),
                ("end_ns", Value::Int(s.end_ns as i64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                ),
                ("req", Value::Int(s.req as i64)),
            ])
        })
        .collect();
    let mut fields = header;
    fields.push(("self_ms", self_ms));
    fields.push(("spans", Value::Array(rows)));
    Value::object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("sweep", 0, 1000, None),
            span("match", 100, 400, Some(0)),
            span("candidates", 150, 250, Some(1)),
            span("score", 400, 900, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![200, 200, 100, 500]);
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["match"], 200.0 / 1e6);
        // Self times partition the root: nothing is counted twice.
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn same_named_spans_accumulate() {
        let spans = [
            span("job", 0, 100, None),
            span("score", 10, 30, Some(0)),
            span("score", 40, 90, Some(0)),
        ];
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["score"], 70.0 / 1e6);
        assert_eq!(by_name["job"], 30.0 / 1e6);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut t = Tracer::new(true);
        t.enter("root", 9);
        let v = t.time("leaf", 9, || 5);
        t.enter("mid", 9);
        t.time("leaf", 9, || ());
        t.exit();
        t.exit();
        assert_eq!(v, 5);
        let spans = t.spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.req == 9));
        assert!(spans[1].end_ns <= spans[2].start_ns);
    }

    #[test]
    fn a_disabled_tracer_still_runs_the_work() {
        let mut t = Tracer::new(false);
        t.enter("root", 0);
        assert_eq!(t.time("leaf", 0, || 3), 3);
        t.exit();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn trace_file_carries_header_self_times_and_spans() {
        let spans = [span("sweep", 0, 10, None), span("score", 2, 6, Some(0))];
        let v = trace_value(vec![("workload", Value::from("gen-div"))], &spans);
        assert_eq!(v.get("workload").and_then(Value::as_str), Some("gen-div"));
        assert_eq!(v.get("spans").and_then(Value::as_array).unwrap().len(), 2);
        let own = v.get("self_ms").unwrap();
        assert_eq!(own.get("score").and_then(Value::as_f64), Some(4.0 / 1e6));
    }
}
