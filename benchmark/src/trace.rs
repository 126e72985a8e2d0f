//! Benchmark-side span recorder.
//!
//! Spans are recorded *around* the public calls the benchmark makes into the
//! crates — nothing inside the program is instrumented here. They stay in
//! memory for the whole pass and are written to
//! `benchmark/out/trace-<workload>.json` when it ends.
//!
//! A span has a name, the layer (crate) the call enters, a start and an end
//! on the pass clock, and the span that caused it (`parent`, the enclosing
//! open span). Per-event calls would make hundreds of thousands of spans, so
//! a run of consecutive calls to one function is folded into a *slice* span
//! that also carries `calls` and `busy_ns` (the summed duration of the calls
//! themselves); the slice's own duration minus `busy_ns` is driver-loop time.

use serde::Value;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The crate the call enters.
    pub layer: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds on the trace clock.
    pub start_ns: u64,
    /// End, nanoseconds on the trace clock (0 while open).
    pub end_ns: u64,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
    /// Summed duration of those calls.
    pub busy_ns: u64,
}

/// In-memory span log of one pass.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds on the trace clock.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes a plain span: its one call was busy for its whole duration.
    /// Returns the duration.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let busy = now - self.spans[id].start_ns;
        self.end_slice(id, 1, busy);
        busy
    }

    /// Closes a slice span that folded `calls` calls lasting `busy_ns` in
    /// total.
    pub fn end_slice(&mut self, id: usize, calls: u64, busy_ns: u64) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost-first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.calls = calls;
        span.busy_ns = busy_ns;
    }

    /// Times one call as a plain span.
    pub fn call<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns != 0)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self time of a span: its duration minus what its direct children
    /// cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// The trace as a JSON document, with `counters` (the public counter
    /// structs read at the end of the pass) alongside the spans.
    pub fn to_json(&self, workload: &str, seed: u64, counters: Vec<(String, Value)>) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("name".into(), Value::Str(s.name.into())),
                    ("layer".into(), Value::Str(s.layer.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    ("calls".into(), Value::UInt(s.calls)),
                    ("busy_ns".into(), Value::UInt(s.busy_ns)),
                    ("self_ns".into(), Value::UInt(self.self_ns(id))),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::UInt(seed)),
            (
                "clock".into(),
                Value::Str("ns since the pass started".into()),
            ),
            ("spans".into(), Value::Array(spans)),
            ("counters".into(), Value::Object(counters)),
        ])
    }
}

/// Times `f` as a plain span when a trace is being recorded; just calls it
/// otherwise (the untraced passes must read no clock here).
pub fn spanned<T>(
    trace: Option<&mut Trace>,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some(t) => t.call(name, layer, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Trace::new();
        let outer = t.begin("pass", "harness");
        let inner = t.begin("register", "core");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        let inner_ns = spans[inner].end_ns - spans[inner].start_ns;
        let outer_ns = spans[outer].end_ns - spans[outer].start_ns;
        assert!(inner_ns >= 2_000_000 && outer_ns >= inner_ns);
        assert_eq!(t.self_ns(outer), outer_ns - inner_ns);
        assert_eq!(t.durations("register"), vec![inner_ns]);
    }

    #[test]
    fn json_carries_every_span_and_counter() {
        let mut t = Trace::new();
        let id = t.begin("process_into.slice", "core");
        t.end_slice(id, 1_000, 123_456);
        let doc = t.to_json(
            "w",
            7,
            vec![("profile.iso_searches".into(), Value::UInt(9))],
        );
        let text = serde::json::to_compact_string(&doc);
        let back = serde::json::parse(&text).unwrap();
        let span = &back.get("spans").unwrap().as_array().unwrap()[0];
        assert_eq!(span.get("calls").unwrap().as_u64(), Some(1_000));
        assert_eq!(span.get("busy_ns").unwrap().as_u64(), Some(123_456));
        assert_eq!(span.get("parent"), Some(&Value::Null));
        assert_eq!(
            back.get("counters")
                .unwrap()
                .get("profile.iso_searches")
                .unwrap()
                .as_u64(),
            Some(9)
        );
    }
}
