//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (never inside the program under test), kept in memory, and written
//! out once when the run ends. A span's name is `<layer>.<what>`; its
//! *self time* is its duration minus the part of its interval that its
//! child spans cover. With the recorder off, `enter`/`exit` are a branch
//! and nothing else, which is how the end-to-end numbers are taken.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `lang.parse` or `machine.rbtree`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or operation) the span belongs to; every span of one
    /// request shares it.
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Handle for an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        let idx = self.push(name.into(), start_ns, start_ns, req);
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`] (and any left open
    /// inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.ns(Instant::now());
        self.spans[idx].end_ns = end_ns;
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Records a finished span under the innermost open one; returns its
    /// index (for children measured elsewhere, such as per-pass timings).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        req: u64,
    ) -> Option<usize> {
        self.on
            .then(|| self.push(name.into(), start_ns, end_ns, req))
    }

    fn push(&mut self, name: String, start_ns: u64, end_ns: u64, req: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.spans.len() - 1
    }

    /// Records a finished span under an explicit parent.
    pub fn record_under(
        &mut self,
        parent: Option<usize>,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        req: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                name: name.into(),
                start_ns,
                end_ns,
                parent,
                req,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}

/// The repository's layers. A span of any other prefix (`compile.op`,
/// `bench.pipeline`) is the benchmark's own glue: its self time is not
/// attributed to the program.
pub const LAYERS: [&str; 10] = [
    "lang", "passes", "check", "analysis", "code", "machine", "heap", "codegen", "native", "serve",
];

/// The intervals of each span's children, indexed like `spans`.
fn children(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut out = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            out[p].push((s.start_ns, s.end_ns));
        }
    }
    out
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(children(spans))
        .map(|(s, kids)| s.duration_ns() - covered(&kids, s.start_ns, s.end_ns))
        .collect()
}

/// Self time summed by span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += t;
    }
    out
}

/// Self time summed by layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0) += t;
    }
    out
}

/// Nanoseconds of `[lo, hi)` that no layer's self time covers: the
/// window minus the union of the self-time intervals (a span's interval
/// less its children's) of every span of a [`LAYERS`] layer. Glue spans
/// and untraced stretches count as unattributed.
pub fn unattributed_ns(spans: &[Span], lo: u64, hi: u64) -> u64 {
    let mut attributed = Vec::new();
    for (s, kids) in spans.iter().zip(children(spans)) {
        if LAYERS.contains(&s.layer()) {
            attributed.extend(gaps(&kids, s.start_ns, s.end_ns));
        }
    }
    (hi - lo) - covered(&attributed, lo, hi)
}

/// The union of `intervals` clipped to `[lo, hi)`, as sorted disjoint
/// intervals.
fn merged(intervals: &[(u64, u64)], lo: u64, hi: u64) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (a, b) in v {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    merged(intervals, lo, hi).iter().map(|(a, b)| b - a).sum()
}

/// The parts of `[lo, hi)` that `intervals` leave uncovered.
fn gaps(intervals: &[(u64, u64)], lo: u64, hi: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut at = lo;
    for (a, b) in merged(intervals, lo, hi) {
        if at < a {
            out.push((at, a));
        }
        at = b;
    }
    if at < hi {
        out.push((at, hi));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            req: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // compile [0,100) holds lang.parse [10,40) and passes [30,70)
        // (overlapping children count once) and code [90,120), which
        // overruns its parent and is clipped to [90,100).
        let spans = vec![
            span("compile.all", 0, 100, None),
            span("lang.parse", 10, 40, Some(0)),
            span("passes.fuse", 30, 70, Some(0)),
            span("code.compile", 90, 120, Some(0)),
            span("lang.lex", 12, 20, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 60 - 10, 30 - 8, 40, 30, 8]);
        let by_layer = self_by_layer(&spans);
        assert_eq!(by_layer["lang"], 22 + 8);
        assert_eq!(by_layer["compile"], 30);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["lang.lex"], 8);
    }

    #[test]
    fn unattributed_is_the_window_minus_layer_self_time() {
        // bench.op is glue: its self time [0,10) [40,50) [70,90) is not
        // attributed. The layers' self time covers [10,40), [50,70) and
        // [90,120) of the window [0,120).
        let spans = vec![
            span("bench.op", 0, 100, None),
            span("lang.parse", 10, 40, Some(0)),
            span("lang.lex", 12, 20, Some(1)),
            span("passes.fuse", 50, 70, Some(0)),
            span("serve.request", 90, 130, None),
            span("serve.service", 95, 100, Some(4)),
        ];
        assert_eq!(unattributed_ns(&spans, 0, 120), 40);
        // Stretches no span covers are unattributed too.
        let top = vec![
            span("lang.parse", 10, 40, None),
            span("lang.lex", 12, 20, Some(0)),
        ];
        assert_eq!(unattributed_ns(&top, 0, 100), 70);
        assert_eq!(
            gaps(&[(2, 4), (3, 6), (8, 9)], 0, 10),
            vec![(0, 2), (6, 8), (9, 10)]
        );
    }

    #[test]
    fn recorder_nests_and_stays_silent_when_off() {
        let mut t = Tracer::new(true);
        let outer = t.enter("batch.round", 1);
        let inner = t.enter("machine.run", 1);
        t.exit(inner);
        let child = t.record("native.run", 5, 6, 1);
        t.exit(outer);
        assert_eq!(child, Some(2));
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].end_ns >= s[1].end_ns);

        let mut off = Tracer::new(false);
        let o = off.enter("x.y", 0);
        off.exit(o);
        assert!(off.record("x.z", 0, 1, 0).is_none());
        assert!(off.spans().is_empty());
    }
}
