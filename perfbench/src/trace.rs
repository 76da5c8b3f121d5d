//! In-memory span and counter recorder.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! a layer's public functions, never inside the library. A disabled
//! recorder records nothing, so untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named after a layer call; its parent is the
    /// innermost span still open.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Adds `value` to a named counter (traced runs only).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += value;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn has(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name) || self.counters.contains_key(name)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span with this name, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push((s.end_ns - s.start_ns) as f64 / 1e6);
        }
        out
    }

    /// Total duration of spans without a parent, in milliseconds.
    pub fn top_level_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes one JSON object per span: name, start, end, parent index
    /// and request id.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}

/// Cost of recording one span: nanoseconds a traced `begin`/`end` pair
/// takes beyond an untraced one, measured on a scratch recorder.
pub fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let per_pair = |enabled: bool| {
        let mut t = Tracer::new(enabled);
        let start = Instant::now();
        for i in 0..PAIRS {
            let id = t.begin("calibrate", u64::from(i));
            t.end(black_box(id));
        }
        black_box(t.span_count());
        start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
    };
    let mut diffs: Vec<f64> = (0..5).map(|_| per_pair(true) - per_pair(false)).collect();
    diffs.sort_by(f64::total_cmp);
    diffs[2].max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.durations_ms("inner").len(), 1);

        let mut off = Tracer::new(false);
        let id = off.begin("x", 0);
        off.end(id);
        off.count("c", 1.0);
        assert_eq!(off.span_count(), 0);
        assert!(!off.has("c"));
    }
}
