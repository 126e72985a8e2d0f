//! Time-series export: periodic registry snapshots rendered as JSON lines,
//! plus a human-readable dashboard table.
//!
//! The exporter is *caller-driven*: it spawns no thread. Call
//! [`SnapshotExporter::tick`] from wherever the application already loops
//! (the ingest loop, a batch boundary, ...) and a sample is written whenever
//! the sample interval has elapsed. This keeps the exporter usable in
//! single-threaded benchmarks and makes tests deterministic.

use crate::histogram::PercentileSummary;
use crate::registry::{MetricsRegistry, MetricsSnapshot};
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Writes periodic snapshots of a [`MetricsRegistry`] as a time series.
pub struct SnapshotExporter {
    registry: MetricsRegistry,
    sample_interval: Duration,
    out: Box<dyn Write + Send>,
    started: Instant,
    last_sample: Option<Instant>,
    samples_written: u64,
}

impl std::fmt::Debug for SnapshotExporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotExporter")
            .field("sample_interval", &self.sample_interval)
            .field("samples_written", &self.samples_written)
            .finish_non_exhaustive()
    }
}

impl SnapshotExporter {
    /// An exporter sampling `registry` into `out` as JSON lines, at most
    /// once per `sample_interval` from [`SnapshotExporter::tick`].
    pub fn new(
        registry: MetricsRegistry,
        sample_interval: Duration,
        out: Box<dyn Write + Send>,
    ) -> Self {
        Self {
            registry,
            sample_interval,
            out,
            started: Instant::now(),
            last_sample: None,
            samples_written: 0,
        }
    }

    /// Number of samples written so far.
    pub fn samples_written(&self) -> u64 {
        self.samples_written
    }

    /// Write a sample if the sample interval has elapsed since the last one
    /// (or if none has been written yet). Returns `Ok(true)` when a sample
    /// was written.
    pub fn tick(&mut self) -> io::Result<bool> {
        let due = match self.last_sample {
            None => true,
            Some(t) => t.elapsed() >= self.sample_interval,
        };
        if !due {
            return Ok(false);
        }
        self.force_sample()?;
        Ok(true)
    }

    /// Write a sample unconditionally.
    pub fn force_sample(&mut self) -> io::Result<()> {
        let elapsed = self.started.elapsed().as_secs_f64();
        write_jsonl(&mut self.out, elapsed, &self.registry.snapshot())?;
        self.out.flush()?;
        self.last_sample = Some(Instant::now());
        self.samples_written += 1;
        Ok(())
    }
}

/// Escape a metric name for embedding in a JSON string. Names are plain
/// identifiers in practice; this keeps arbitrary names safe anyway.
fn json_escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn write_jsonl(out: &mut dyn Write, elapsed: f64, s: &MetricsSnapshot) -> io::Result<()> {
    let mut line = format!("{{\"elapsed_s\":{elapsed:.3}");
    line.push_str(",\"counters\":{");
    for (i, (name, v)) in s.counters.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{}\":{v}", json_escape(name)));
    }
    line.push_str("},\"gauges\":{");
    for (i, (name, v)) in s.gauges.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{}\":{v}", json_escape(name)));
    }
    line.push_str("},\"histograms\":{");
    for (i, (name, h)) in s.histograms.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let p = h.percentiles();
        line.push_str(&format!(
            "\"{}\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"max\":{},\"mean\":{:.1}}}",
            json_escape(name),
            p.count,
            p.p50,
            p.p90,
            p.p99,
            p.p999,
            p.max,
            h.mean().unwrap_or(0.0),
        ));
    }
    line.push_str("}}");
    writeln!(out, "{line}")
}

/// Render a point-in-time snapshot as a fixed-width dashboard table, the
/// human-facing counterpart of the JSON-lines series (used by the
/// `observed_firehose` example).
pub fn render_dashboard(s: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !s.counters.is_empty() || !s.gauges.is_empty() {
        out.push_str(&format!("{:<44} {:>16}\n", "counter / gauge", "value"));
        out.push_str(&format!("{:-<44} {:->16}\n", "", ""));
        for (name, v) in &s.counters {
            out.push_str(&format!("{name:<44} {v:>16}\n"));
        }
        for (name, v) in &s.gauges {
            out.push_str(&format!("{name:<44} {v:>16}\n"));
        }
    }
    if !s.histograms.is_empty() {
        out.push_str(&format!(
            "\n{:<34} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "histogram", "count", "p50", "p90", "p99", "p99.9", "max"
        ));
        out.push_str(&format!(
            "{:-<34} {:->9} {:->10} {:->10} {:->10} {:->10} {:->10}\n",
            "", "", "", "", "", "", ""
        ));
        for (name, h) in &s.histograms {
            let p: PercentileSummary = h.percentiles();
            out.push_str(&format!(
                "{name:<34} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                p.count, p.p50, p.p90, p.p99, p.p999, p.max
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A `Write` sink capturing into a shared buffer.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Capture {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("stream.edges_total").add(42);
        reg.gauge("runtime.queue_depth.w0").set(3);
        let h = reg.histogram("match.latency_ns");
        for v in [100, 200, 300, 10_000] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn jsonl_sample_is_valid_shape() {
        let cap = Capture::default();
        let mut ex = SnapshotExporter::new(
            sample_registry(),
            Duration::from_secs(1),
            Box::new(cap.clone()),
        );
        assert!(ex.tick().unwrap()); // first tick always samples
        assert!(!ex.tick().unwrap()); // interval (1 s) not yet elapsed
        let text = cap.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let line = lines[0];
        assert!(line.starts_with("{\"elapsed_s\":"));
        assert!(line.contains("\"stream.edges_total\":42"));
        assert!(line.contains("\"runtime.queue_depth.w0\":3"));
        assert!(line.contains("\"match.latency_ns\":{\"count\":4"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn dashboard_renders_all_metrics() {
        let table = render_dashboard(&sample_registry().snapshot());
        assert!(table.contains("stream.edges_total"));
        assert!(table.contains("runtime.queue_depth.w0"));
        assert!(table.contains("match.latency_ns"));
        assert!(table.contains("p99.9"));
    }
}
