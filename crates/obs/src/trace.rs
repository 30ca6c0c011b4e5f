//! Spans, instant events and Chrome trace-event export.
//!
//! Recording sites use the [`crate::span!`] / [`crate::event!`] macros
//! (or [`Span::enter`] / [`instant`] directly). When tracing is off the
//! whole site is a relaxed load and a branch. When on, each record is
//! one push onto the calling thread's ring (see [`crate::ring`]).
//!
//! [`chrome_trace_json`] drains every ring into the Chrome trace-event
//! JSON format (`{"traceEvents": [...]}` with `ph`/`ts`/`pid`/`tid`
//! records), directly loadable in Perfetto or `chrome://tracing`.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::ring::{self, Event, Phase};

/// Nanoseconds since the process trace epoch (the first call fixes the
/// epoch). Monotonic and allocation-free after the first call.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A scoped span: begin event on [`Span::enter`], end event on drop.
/// Disabled spans are inert — no ring access, no timestamp.
pub struct Span {
    name: &'static str,
    armed: bool,
}

impl Span {
    /// Open a span. One relaxed load + branch when tracing is off.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        let armed = crate::tracing_enabled();
        if armed {
            record(Phase::Begin, name);
        }
        Span { name, armed }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            record(Phase::End, self.name);
        }
    }
}

/// Record an instant event. One relaxed load + branch when tracing is
/// off.
#[inline]
pub fn instant(name: &'static str) {
    if crate::tracing_enabled() {
        record(Phase::Instant, name);
    }
}

fn record(phase: Phase, name: &'static str) {
    let ts_ns = now_ns();
    ring::with_ring(|r| {
        r.push(Event { phase, name, ts_ns });
    });
}

/// Drain every thread's ring into Chrome trace-event JSON. `ts` is in
/// microseconds per the format; `tid` is the recording thread's dense
/// ring id. Threads that overflowed their ring get an instant
/// `obs.dropped_events` marker carrying the loss count.
pub fn chrome_trace_json() -> String {
    let mut out = String::from("{\"traceEvents\": [");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("\n  ");
        out.push_str(&line);
    };
    for (tid, events, dropped) in ring::drain_all() {
        for e in &events {
            let ph = match e.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"name\": \"{}\", \"ph\": \"{ph}\", \"ts\": {:.3}, \"pid\": 1, \"tid\": {tid}",
                escape(e.name),
                e.ts_ns as f64 / 1000.0,
            );
            if e.phase == Phase::Instant {
                line.push_str(", \"s\": \"t\"");
            }
            line.push('}');
            push(line, &mut first);
        }
        if dropped > 0 {
            push(
                format!(
                    "{{\"name\": \"obs.dropped_events\", \"ph\": \"i\", \"ts\": 0.0, \
                     \"pid\": 1, \"tid\": {tid}, \"s\": \"t\", \"args\": {{\"count\": {dropped}}}}}"
                ),
                &mut first,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Minimal JSON string escaping (site names are static identifiers,
/// but the format must stay valid whatever they contain).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_guard();
        crate::set_tracing(false);
        let before = ring::drain_all()
            .iter()
            .map(|(_, e, _)| e.len())
            .sum::<usize>();
        {
            let _span = crate::span!("test.disabled");
            crate::event!("test.disabled_instant");
        }
        let after = ring::drain_all()
            .iter()
            .map(|(_, e, _)| e.len())
            .sum::<usize>();
        assert_eq!(before, after);
    }

    #[test]
    fn enabled_spans_pair_begin_and_end() {
        let _guard = crate::test_guard();
        crate::set_tracing(true);
        {
            let _span = crate::span!("test.span");
            crate::event!("test.instant");
        }
        crate::set_tracing(false);
        let mine: Vec<Event> = ring::drain_all()
            .into_iter()
            .flat_map(|(_, e, _)| e)
            .filter(|e| e.name.starts_with("test."))
            .collect();
        let begins = mine
            .iter()
            .filter(|e| e.name == "test.span" && e.phase == Phase::Begin)
            .count();
        let ends = mine
            .iter()
            .filter(|e| e.name == "test.span" && e.phase == Phase::End)
            .count();
        assert!(begins >= 1, "begin recorded");
        assert_eq!(begins, ends, "every begin has its end");
        assert!(mine.iter().any(|e| e.name == "test.instant"));
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let _guard = crate::test_guard();
        crate::set_tracing(true);
        {
            let _span = crate::span!("test.export");
        }
        crate::set_tracing(false);
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"name\": \"test.export\""));
        // Timestamps are microseconds and monotone non-negative.
        assert!(!json.contains("\"ts\": -"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain.name"), "plain.name");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
