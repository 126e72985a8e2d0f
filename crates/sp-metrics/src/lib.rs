//! # sp-metrics — stream-level telemetry
//!
//! Observability substrate for the StreamPattern engine: the paper's §6.4
//! argues from a *measured* cost split between isomorphism search and
//! SJ-Tree maintenance, and this crate makes the same measurement available
//! continuously — per-stage timing spans, match-detection latency
//! percentiles, and a time-series exporter — instead of end-of-run totals.
//!
//! Three layers:
//!
//! * [`LogHistogram`] / [`HistogramSnapshot`] — log-bucketed latency
//!   histograms (p50/p90/p99/p99.9 within 6.25% relative error), lock-free
//!   and allocation-free on the record path, mergeable across runtime
//!   workers;
//! * [`MetricsRegistry`] — named [`Counter`] / [`Gauge`] / [`Histogram`]
//!   handles: registration takes a mutex once, every record afterwards is a
//!   relaxed atomic;
//! * [`SnapshotExporter`] — caller-driven sampling into a JSON-lines time
//!   series, plus [`render_dashboard`] for a human-readable table.
//!
//! ```
//! use sp_metrics::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let edges = reg.counter("stream.edges_total");
//! let latency = reg.histogram("match.latency_ns");
//! edges.inc();
//! latency.record(1_250);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("stream.edges_total"), Some(1));
//! assert_eq!(snap.histogram("match.latency_ns").unwrap().count(), 1);
//! ```

// The optional `count-allocs` feature installs a counting
// `#[global_allocator]`, which requires an `unsafe impl GlobalAlloc`; that
// module carries the only `allow(unsafe_code)`. Without the feature the
// crate-wide forbid is intact.
#![cfg_attr(not(feature = "count-allocs"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-allocs", deny(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "count-allocs")]
pub mod alloc;
mod exporter;
mod histogram;
mod registry;

#[cfg(feature = "count-allocs")]
pub use alloc::alloc_counts;
pub use exporter::{render_dashboard, SnapshotExporter};
pub use histogram::{
    bucket_lower_bound, HistogramSnapshot, LogHistogram, PercentileSummary, NUM_BUCKETS,
    SUB_BUCKETS,
};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
