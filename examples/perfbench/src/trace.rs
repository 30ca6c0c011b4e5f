//! In-memory spans recorded from perfbench's own call sites.
//!
//! A span has a name, a start, an end and the span that caused it.
//! Spans are kept in memory and written as Chrome trace-event JSON when
//! the workload ends. A layer's self time is its span minus the part
//! its children cover. Spans inside the engines are a later change;
//! everything here is measured from outside, around calls into a layer.

use std::collections::BTreeMap;
use std::time::Instant;

use simbench_campaign::json;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Index into the label list given to [`Tracer::chrome_json`].
    label: Option<usize>,
}

/// Span recorder. When off, every call returns at once and nothing is
/// stored, so the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Self time and call count of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.add_labelled(name, start, end, parent, None)
    }

    /// Record a finished span carrying a label index (the cell).
    pub fn add_labelled(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        label: Option<usize>,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            label,
        });
        self.spans.len() - 1
    }

    /// Open a span that encloses later ones; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.add(name, now, now, parent)
    }

    pub fn close(&mut self, id: SpanId) {
        if self.on {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Time `f` as a span under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start, Instant::now(), parent);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when every span lies inside its parent.
    pub fn nests(&self) -> bool {
        self.spans.iter().all(|s| {
            s.start_ns <= s.end_ns
                && s.parent.is_none_or(|p| {
                    let p = &self.spans[p];
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
                })
        })
    }

    /// Per span name: calls, total time and self time (span minus the
    /// time its children cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        by_name
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events with microsecond `ts`/`dur`; `args` carries the span id,
    /// its parent and, for cells, the cell label.
    pub fn chrome_json(&self, labels: &[String]) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"id\": {id}",
                json::quote(s.name),
                json::num(s.start_ns as f64 / 1e3),
                json::num((s.end_ns - s.start_ns) as f64 / 1e3),
            ));
            if let Some(p) = s.parent {
                out.push_str(&format!(", \"parent\": {p}"));
            }
            if let Some(label) = s.label.and_then(|l| labels.get(l)) {
                out.push_str(&format!(", \"cell\": {}", json::quote(label)));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let t0 = t.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let pass = t.add("pass", at(0), at(100), None);
        let cell = t.add_labelled("cell", at(10), at(90), Some(pass), Some(0));
        t.add("engine.run", at(20), at(70), Some(cell));
        assert!(t.nests());
        let st = t.self_times();
        assert_eq!(st["pass"].self_ns, 20_000_000);
        assert_eq!(st["cell"].self_ns, 30_000_000);
        assert_eq!(st["engine.run"].self_ns, 50_000_000);
        assert_eq!(st["cell"].calls, 1);

        let doc = json::parse(&t.chrome_json(&["armlet/interp/x".to_string()])).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("cell").unwrap().as_str(), Some("armlet/interp/x"));
        assert_eq!(events[2].get("dur").unwrap().as_f64(), Some(50_000.0));
    }

    #[test]
    fn escaping_child_breaks_nesting_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let t0 = t.epoch;
        let p = t.add("pass", t0, t0 + Duration::from_millis(5), None);
        t.add("cell", t0, t0 + Duration::from_millis(6), Some(p));
        assert!(!t.nests());

        let mut off = Tracer::new(false);
        let id = off.open("pass", None);
        off.close(id);
        assert_eq!(off.span("x", None, || 3), 3);
        assert_eq!(off.len(), 0);
    }
}
