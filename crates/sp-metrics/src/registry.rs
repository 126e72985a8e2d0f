//! Named-metric registry with lock-free handles.
//!
//! Registration (naming a counter/gauge/histogram) takes a mutex once and
//! hands back an `Arc`-backed handle; every subsequent `inc`/`set`/`record`
//! on the handle is a relaxed atomic with no lock and no allocation. The
//! registry itself is `Clone + Send + Sync`, so the exporter can sample on
//! one thread while workers record on others.

use crate::histogram::{HistogramSnapshot, LogHistogram};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter (events, edges, stalls, total
/// nanoseconds spent in a stage, ...).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter detached from any registry (useful in tests).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depth, live edges, ...).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge detached from any registry (useful in tests).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (which may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared handle to a log-bucketed histogram (see
/// [`LogHistogram`](crate::LogHistogram)).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<LogHistogram>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(LogHistogram::new()))
    }
}

impl Histogram {
    /// A histogram detached from any registry (useful in tests).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Record one value. Lock-free, allocation-free.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Record `n` occurrences of one value (see
    /// [`LogHistogram::record_n`]).
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        self.0.record_n(value, n);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Copy the current contents into an owned, mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

/// A registry of named metrics.
///
/// Cloning shares the underlying store; registering the same name twice
/// returns a handle to the same metric, so independent components can safely
/// register "their" metrics without coordination.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::default();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::default();
        inner.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Sample every registered metric into an owned snapshot, sorted by
    /// metric name within each kind.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut counters: Vec<(String, u64)> = inner
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, i64)> = inner
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = inner
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time copy of every metric in a registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Level of the gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Snapshot of the histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("edges");
        let b = reg.counter("edges");
        a.add(3);
        b.inc();
        assert_eq!(reg.snapshot().counter("edges"), Some(4));
    }

    #[test]
    fn gauges_go_up_and_down() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-1);
        assert_eq!(reg.snapshot().gauge("depth"), Some(-1));
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").add(2);
        reg.histogram("lat").record(100);
        let s = reg.snapshot();
        assert_eq!(s.counters[0].0, "a.first");
        assert_eq!(s.counters[1].0, "z.last");
        assert_eq!(s.histogram("lat").unwrap().count(), 1);
        assert!(s.histogram("missing").is_none());
    }

    #[test]
    fn handles_record_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let h = reg.histogram("v");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for k in 0..1000 {
                        c.inc();
                        h.record(k);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = reg.snapshot();
        assert_eq!(s.counter("n"), Some(4000));
        assert_eq!(s.histogram("v").unwrap().count(), 4000);
    }
}
