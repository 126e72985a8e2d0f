//! The SOC rule pack under live telemetry: a netflow firehose through the
//! parallel runtime with a `MetricsRegistry` attached, a time-series
//! exporter appending JSON-lines samples, and the dashboard re-rendered
//! every few batches.
//!
//! Run with:
//! ```text
//! cargo run --release --example observed_firehose
//! ```
//!
//! The closing per-stage split is the paper's §6.4 claim as a live view:
//! nearly all of the per-edge budget is spent in the private engines (leaf
//! isomorphism searches + SJ-Tree joins), not in dispatch or bookkeeping.

use sp_bench::experiments::netflow_rule_pack;
use sp_datasets::NetflowConfig;
use sp_metrics::{render_dashboard, MetricsRegistry, SnapshotExporter};
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use std::time::Duration;
use streampattern::Strategy;

fn main() {
    let dataset = NetflowConfig {
        num_hosts: 1_500,
        num_edges: 30_000,
        ..NetflowConfig::default()
    }
    .generate();

    let registry = MetricsRegistry::new();
    let series_path = std::env::temp_dir().join("observed_firehose_series.jsonl");
    let series = std::fs::File::create(&series_path).expect("create series file");
    let mut exporter = SnapshotExporter::new(
        registry.clone(),
        Duration::from_millis(100),
        Box::new(series),
    );

    let mut runtime =
        ParallelStreamProcessor::new(dataset.schema.clone(), RuntimeConfig::with_workers(2))
            .with_metrics(&registry);
    for rule in netflow_rule_pack(&dataset.schema, 12) {
        runtime
            .register(rule, Strategy::SingleLazy, Some(500))
            .expect("rule decomposes");
    }

    // Feed the firehose in slices; each slice ends on a pipeline drain, so
    // the dashboard shows settled counters, and the exporter appends a
    // sample whenever its interval has elapsed.
    let chunk = 5_000;
    for (i, slice) in dataset.events.chunks(chunk).enumerate() {
        let matches = runtime.process_all(slice.iter());
        exporter.tick().expect("append time-series sample");
        println!(
            "=== after {} edges ({} matches in this slice) ===",
            (i + 1) * chunk.min(slice.len()),
            matches
        );
        println!("{}", render_dashboard(&registry.snapshot()));
    }
    exporter.force_sample().expect("append final sample");

    // The §6.4 split, live: private engines (isomorphism + joins) dominate.
    let snapshot = registry.snapshot();
    let stages = [
        ("ingest", "stage.ingest_ns"),
        ("dispatch", "stage.dispatch_ns"),
        ("shared join", "stage.shared_join_ns"),
        ("private engine", "stage.private_engine_ns"),
        ("emit", "stage.emit_ns"),
        ("purge", "stage.purge_ns"),
    ];
    let total: u64 = stages
        .iter()
        .filter_map(|(_, name)| snapshot.counter(name))
        .sum();
    println!("=== per-stage time split (both worker replicas) ===");
    for (label, name) in stages {
        let ns = snapshot.counter(name).unwrap_or(0);
        println!(
            "  {label:<15} {:>9.3}s  {:>5.1}%",
            ns as f64 / 1e9,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
    let latency = snapshot
        .histogram("match.latency_ns")
        .expect("latency series")
        .percentiles();
    println!(
        "detection latency: p50 {:.3}ms  p99 {:.3}ms  over {} matches",
        latency.p50 as f64 / 1e6,
        latency.p99 as f64 / 1e6,
        latency.count
    );
    println!(
        "time series: {} samples appended to {}",
        exporter.samples_written(),
        series_path.display()
    );
    drop(runtime.shutdown());
}
