//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around the calls it makes into
//! each layer's public functions; nothing inside the library is
//! instrumented. Each span carries a name, a start and an end (ns since
//! the recorder was created), its parent span and the trace id of the
//! workload iteration it belongs to. Spans stay in memory and are
//! written as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified span name, e.g. `"detector.push_slot"`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The workload iteration this span belongs to.
    pub trace_id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    trace_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            trace_id: 0,
        }
    }

    /// Starts the next workload iteration: later spans carry a new trace
    /// id.
    pub fn next_trace(&mut self) -> u64 {
        self.trace_id += 1;
        self.trace_id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            trace_id: self.trace_id,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in ns.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Runs `f` under a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Median duration of the spans named `name` after the first `skip`,
    /// in units of `scale` ns (1e6 for ms, 1e9 for s, a call count for ns
    /// per call); 0 when there are none.
    pub fn median(&self, name: &str, skip: usize, scale: f64) -> f64 {
        let values: Vec<f64> = self
            .durations(name)
            .iter()
            .skip(skip)
            .map(|&ns| ns as f64 / scale)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            crate::stats::median(&values)
        }
    }

    /// Total ns spent in spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trace_id
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, timing it, and under a span named `name` when `tracer` is
/// set (the traced run). Returns `f`'s result and its wall seconds.
pub fn timed<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = tracer.as_mut().map(|t| t.start(name, parent));
    let started = Instant::now();
    let out = f();
    let secs = started.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.end(id);
    }
    (out, secs)
}

/// Self time of span `id`: its duration minus the part of its interval
/// covered by its direct children. Overlapping children are merged, so
/// time two children cover together is subtracted once, and child time
/// outside the parent's interval is ignored.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let span = &spans[id];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    covered.sort_unstable();
    let mut union = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in covered {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                union += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        union += cb - ca;
    }
    span.duration_ns() - union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 70);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // a = [10, 40), b = [30, 70), c = [65, 80): union [10, 80) = 70.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 65, 80, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn nested_and_contained_children() {
        // b lies inside a; only direct children count for root, and a
        // grandchild counts against its own parent.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 20, 60, Some(0)),
            span("b", 25, 35, Some(0)),
            span("g", 40, 50, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 60);
        assert_eq!(self_time_ns(&spans, 1), 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span("root", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 45, 90, Some(0)),
            span("outside", 60, 70, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 25);
    }

    #[test]
    fn timed_records_a_span_only_when_tracing() {
        let mut off: Option<Tracer> = None;
        let (x, secs) = timed(&mut off, "work", None, || 3);
        assert_eq!(x, 3);
        assert!(secs >= 0.0);
        let mut on = Some(Tracer::new());
        timed(&mut on, "work", None, || ());
        let t = on.expect("tracer");
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].name, "work");
    }

    #[test]
    fn recorder_tracks_parents_traces_and_totals() {
        let mut t = Tracer::new();
        let trace = t.next_trace();
        let root = t.start("root", None);
        let x = t.span("child", Some(root), || 7);
        t.end(root);
        assert_eq!(x, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.spans().iter().all(|s| s.trace_id == trace));
        assert!(t.total_ns("root") >= t.total_ns("child"));
        assert_eq!(
            self_time_ns(t.spans(), root),
            t.total_ns("root") - t.total_ns("child")
        );
        assert_eq!(t.median("child", 0, 1.0), t.total_ns("child") as f64);
        assert_eq!(t.median("child", 1, 1.0), 0.0);
    }
}
