//! The metric catalogue and the result line.
//!
//! The names here are normative: `BENCHMARK.json`, the README and later
//! issues cite them. `BENCHMARK.json` must list exactly [`END_TO_END`] (with
//! bounds) and [`PER_LAYER`]; a unit test compares the two.

use serde::Value;

/// Static description of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit, in the character set `BENCHMARK.json` allows.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end: share of the parent's median by which it may worsen.
    /// Per-layer metrics carry no bound (0).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    e2e(name, unit, higher, 0.0)
}

/// The end-to-end metrics, reported by `--trace 0`. The detection latencies
/// are not among them: they did not repeat within any allowed bound on the
/// reference VM and are reported, unbounded, with the per-layer metrics.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_eps", "edges/s", true, 0.25),
    e2e("cpu_us_per_edge", "us", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.10),
];

/// The per-layer metrics, reported by `--trace 1`, grouped by crate.
pub const PER_LAYER: [MetricDef; 57] = [
    // sp-datasets (harness cost, kept out of setup_s)
    layer("datasets.generate_s", "s", false),
    layer("datasets.stream_events", "count", true),
    // sp-graph (isolation replay)
    layer("graph.ingest_ns_per_edge", "ns", false),
    layer("graph.expire_ns_per_edge", "ns", false),
    layer("graph.live_edges_peak", "count", false),
    layer("graph.live_vertices_peak", "count", false),
    // sp-selectivity
    layer("selectivity.observe_ns_per_edge", "ns", false),
    layer("adaptive.checks", "count", false),
    layer("adaptive.drifts_detected", "count", false),
    layer("adaptive.redecompositions", "count", false),
    layer("adaptive.replay_ms", "ms", false),
    layer("adaptive.replay_searches", "count", false),
    // sp-iso
    layer("iso.searches_per_edge", "1/edge", false),
    layer("iso.leaf_matches_per_search", "ratio", true),
    layer("iso.time_share", "ratio", false),
    layer("iso.search_ns_per_call", "ns", false),
    // sp-sjtree
    layer("sjtree.inserts_per_edge", "1/edge", false),
    layer("sjtree.update_time_share", "ratio", false),
    layer("sjtree.stored_matches_peak", "count", false),
    layer("sjtree.purged_per_edge", "1/edge", false),
    layer("sjtree.insert_ns_per_row", "ns", false),
    layer("sjtree.purge_ms_per_pass", "ms", false),
    // core
    layer("core.ingest_share", "ratio", false),
    layer("core.dispatch_share", "ratio", false),
    layer("core.shared_join_share", "ratio", false),
    layer("core.shared_leaf_share", "ratio", false),
    layer("core.private_engine_share", "ratio", false),
    layer("core.emit_share", "ratio", false),
    layer("core.purge_share", "ratio", false),
    layer("core.span_coverage", "ratio", true),
    layer("core.unattributed_share", "ratio", false),
    layer("core.matches_per_edge", "1/edge", true),
    layer("core.lazy_skip_ratio", "ratio", true),
    layer("core.shared_leaf_elimination", "ratio", true),
    layer("core.shared_join_inserts_saved_ratio", "ratio", true),
    layer("core.trie_replays", "count", false),
    layer("core.register_ms_p50", "ms", false),
    layer("core.register_ms_max", "ms", false),
    layer("core.deregister_ms_p50", "ms", false),
    layer("core.control_share", "ratio", false),
    // sp-runtime (0 on the sequential workloads: the crate is not executed)
    layer("runtime.seq_baseline_eps", "edges/s", true),
    layer("runtime.overhead_ratio", "ratio", false),
    layer("runtime.batches_sent", "count", false),
    layer("runtime.backpressure_per_batch", "ratio", false),
    layer("runtime.match_batches_received", "count", false),
    layer("runtime.shard_cost_skew", "ratio", false),
    layer("runtime.drain_ms", "ms", false),
    layer("runtime.batch_fill_ms", "ms", false),
    // sp-metrics
    layer("metrics.overhead_ratio", "ratio", false),
    // harness: the paced stretches of the traced run's untraced repetitions
    layer("detect_latency_p50_ms", "ms", false),
    layer("detect_latency_p99_ms", "ms", false),
    layer("latency.samples", "count", true),
    layer("pacer.offered_eps", "edges/s", true),
    layer("pacer.late_p99_us", "us", false),
    layer("pacer.overshoot_p99_us", "us", false),
    layer("pacer.backlog_share", "ratio", false),
    layer("reps.throughput_spread", "ratio", false),
];

/// Measured values, in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            self.get(name).is_none(),
            "metric {name} recorded more than once"
        );
        self.0.push((name, value));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Renders the result line the driver reads: exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`, with one `{value, unit}` per catalogue
/// entry, in catalogue order.
///
/// # Panics
/// Panics when a catalogue metric was not measured or is not finite — a
/// missing number must never read as a number.
pub fn result_line(
    catalogue: &[MetricDef],
    measured: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics = catalogue
        .iter()
        .map(|def| {
            let value = measured
                .get(def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            assert!(value.is_finite(), "metric {} is not finite", def.name);
            (
                def.name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(def.unit.into())),
                ]),
            )
        })
        .collect();
    serde::json::to_compact_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted.max(1))),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the driver's definition of run-to-run spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let n = v.len();
    let cut = |i: usize| {
        // j = i·(n+1) div 4, clamped to [1, n-1]; interpolate between the
        // j-th and (j+1)-th order statistics.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        for (i, def) in END_TO_END.iter().enumerate() {
            m.set(def.name, 1.5 + i as f64);
        }
        let line = result_line(&END_TO_END, &m, true, 10, 0);
        let v = serde::json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[1].1.get("unit").unwrap().as_str(),
            Some("edges/s"),
            "{line}"
        );
        assert_eq!(metrics[0].1.get("value").unwrap().as_f64(), Some(1.5));
        assert!(!line.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_an_error_not_a_zero() {
        result_line(&END_TO_END, &Metrics::default(), true, 1, 0);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
    }
}
