//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded around calls into the library's public API from
//! this benchmark's own code; nothing inside the library changes. Each
//! span carries its name, start and end (ns since the tracer was made),
//! the span that was open when it started (its parent), and a request
//! id — the live-point index it serves, when it serves one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use spectral_telemetry::json_quote;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans; a span is opened with [`open`](Self::open) (or
/// wrapped around a closure with [`leaf`](Self::leaf)) and becomes the
/// parent of every span opened before it closes.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Spans opened so far; the next span's id.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed before the trace is read");
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children. Children may overlap one another (spans
/// recorded on different threads); the covered part is their union,
/// clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    pub self_ns: u64,
    /// Every span's full duration, for percentiles.
    pub durations_ns: Vec<u64>,
}

impl LayerTotals {
    /// Mean self time per span, in µs.
    pub fn mean_us(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64 / 1e3
    }
}

/// Totals by span name over the spans `keep` selects (by index).
pub fn totals(
    spans: &[Span],
    self_ns: &[u64],
    keep: impl Fn(usize) -> bool,
) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|&(i, _)| keep(i)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += self_ns[i];
        t.durations_ns.push(s.duration_ns());
    }
    out
}

/// Whether span `i` lies inside span `root` (or is `root`).
pub fn within(spans: &[Span], mut i: usize, root: usize) -> bool {
    loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// The trace as JSONL: one object per span, in open order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            json_quote(s.name),
            opt(s.parent.map(|p| p as u64)),
            opt(s.request),
            s.start_ns,
            s.end_ns,
            self_ns[i],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: None }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); c [50,60) under root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children overlap each other ([10,50) and [30,70)) and one runs
        // past the parent's end; only [10,80) ∩ [0,80) is covered.
        let spans = vec![
            span("root", 0, 80, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 60, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_links_parents_and_totals_by_name() {
        let mut t = Tracer::new();
        let root = t.open("rep", None);
        for i in 0..3u64 {
            t.leaf("work", Some(i), || std::hint::black_box(i * 2));
        }
        t.close(root);
        let spans = t.into_spans();
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(spans[3].request, Some(2));
        let self_ns = self_times(&spans);
        let by_name = totals(&spans, &self_ns, |i| within(&spans, i, root));
        assert_eq!(by_name["work"].count, 3);
        assert_eq!(by_name["rep"].count, 1);
        let jsonl = to_jsonl(&spans);
        for line in jsonl.lines() {
            spectral_telemetry::JsonValue::parse(line).expect("span line is JSON");
        }
        assert_eq!(jsonl.lines().count(), 4);
    }
}
