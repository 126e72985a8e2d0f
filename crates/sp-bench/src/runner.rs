//! Workload execution helpers shared by the experiments and the tests: run a
//! query under a strategy over a stream, sweep a group of random queries,
//! and sample queries by Expected Selectivity as the paper's methodology
//! prescribes.

use serde::{Deserialize, Serialize};
use sp_datasets::Dataset;
use sp_query::QueryGraph;
use sp_selectivity::{DriftConfig, SelectivityEstimator, StatsMode};
use sp_sjtree::{decompose, expected_selectivity, PrimitivePolicy};
use std::time::{Duration, Instant};
use streampattern::{
    ContinuousQueryEngine, DynamicGraph, EdgeEvent, PipelineMetrics, ProfileCounters, Schema,
    Shard, Strategy, StrategySpec, StreamProcessor, SubgraphMatch, DEFAULT_PURGE_INTERVAL,
};

/// Experiment scale: how many stream edges each measurement processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Quick smoke-test scale (seconds end to end).
    Small,
    /// Default scale used by `reproduce` (a few minutes end to end).
    Medium,
    /// Larger scale for closer-to-paper stream sizes.
    Large,
}

impl Scale {
    /// Parses `small` / `medium` / `large`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// Stream length (edges) for the SJ-Tree strategies.
    pub fn stream_edges(self) -> usize {
        match self {
            Scale::Small => 4_000,
            Scale::Medium => 20_000,
            Scale::Large => 100_000,
        }
    }

    /// Stream length (edges) for runs that include the non-incremental VF2
    /// baseline, whose per-edge cost grows with the graph.
    pub fn baseline_edges(self) -> usize {
        match self {
            Scale::Small => 800,
            Scale::Medium => 2_500,
            Scale::Large => 5_000,
        }
    }

    /// Number of hosts / persons for the generators.
    pub fn entities(self) -> usize {
        match self {
            Scale::Small => 1_000,
            Scale::Medium => 4_000,
            Scale::Large => 20_000,
        }
    }

    /// Number of random queries generated per group before filtering.
    pub fn queries_per_group(self) -> usize {
        match self {
            Scale::Small => 20,
            Scale::Medium => 50,
            Scale::Large => 100,
        }
    }

    /// Number of queries kept per group after Expected-Selectivity sampling.
    pub fn sampled_queries(self) -> usize {
        match self {
            Scale::Small => 2,
            Scale::Medium => 5,
            Scale::Large => 8,
        }
    }
}

/// One measured run of one query under one strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMeasurement {
    /// Query name.
    pub query: String,
    /// Strategy label ("SingleLazy", "VF2", ...).
    pub strategy: String,
    /// Number of stream edges processed.
    pub edges: usize,
    /// Wall-clock processing time.
    #[serde(with = "serde_duration")]
    pub elapsed: Duration,
    /// Number of complete matches reported.
    pub matches: u64,
    /// Peak number of stored partial matches (0 for the VF2 baseline).
    pub peak_partial_matches: usize,
    /// Engine profile counters.
    pub profile: ProfileCounters,
}

mod serde_duration {
    use serde::{Deserialize, Deserializer, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(d.as_secs_f64())
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let secs = f64::deserialize(d)?;
        Ok(Duration::from_secs_f64(secs))
    }
}

/// Aggregated result for one query group (same kind and size), as plotted in
/// Figure 9: mean runtime per strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryGroupResult {
    /// Group label, e.g. "path-3" or "tree-7".
    pub group: String,
    /// Number of queries measured.
    pub queries: usize,
    /// Number of stream edges each query processed.
    pub edges: usize,
    /// `(strategy label, mean seconds, mean matches)` per strategy.
    pub per_strategy: Vec<(String, f64, f64)>,
}

impl QueryGroupResult {
    /// Mean runtime for a strategy label, if present.
    pub fn mean_seconds(&self, label: &str) -> Option<f64> {
        self.per_strategy
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, s, _)| *s)
    }
}

/// Runs one query under one strategy over the first `limit` events of the
/// dataset and reports the measurement. No metrics are attached, so the run
/// reads no clock per edge and the profile's `iso_time` / `update_time` are
/// zero; [`run_query_metered`] measures them.
pub fn run_query(
    dataset: &Dataset,
    estimator: &SelectivityEstimator,
    query: &QueryGraph,
    strategy: Strategy,
    limit: usize,
    window: Option<u64>,
) -> RunMeasurement {
    measure_query(dataset, estimator, query, strategy, limit, window, false)
}

/// [`run_query`] with [`PipelineMetrics`] attached, so the profile carries
/// the §6.4 split between subgraph isomorphism (`iso_time`) and SJ-Tree
/// update time (`update_time`). Its `elapsed` includes those clock reads:
/// compare wall clocks with [`run_query`].
pub fn run_query_metered(
    dataset: &Dataset,
    estimator: &SelectivityEstimator,
    query: &QueryGraph,
    strategy: Strategy,
    limit: usize,
    window: Option<u64>,
) -> RunMeasurement {
    measure_query(dataset, estimator, query, strategy, limit, window, true)
}

fn measure_query(
    dataset: &Dataset,
    estimator: &SelectivityEstimator,
    query: &QueryGraph,
    strategy: Strategy,
    limit: usize,
    window: Option<u64>,
    metered: bool,
) -> RunMeasurement {
    let engine = ContinuousQueryEngine::new(query.clone(), strategy, estimator, window)
        .expect("query decomposes");
    // Statistics collection stays off: the paper's methodology feeds the
    // estimator from a stream prefix only, and the measurement should not
    // include statistics maintenance.
    let mut proc =
        StreamProcessor::with_engine(dataset.schema.clone(), engine).with_statistics(false);
    if metered {
        proc = proc.with_metrics(PipelineMetrics::detached());
    }
    let events = &dataset.events()[..limit.min(dataset.len())];
    let start = Instant::now();
    let matches = proc.process_all(events.iter());
    let elapsed = start.elapsed();
    let peak = proc
        .engine()
        .live_partial_matches()
        .max(proc.profile().peak_partial_matches);
    RunMeasurement {
        query: query.name().to_owned(),
        strategy: strategy.label().to_owned(),
        edges: events.len(),
        elapsed,
        matches,
        peak_partial_matches: peak,
        profile: proc.profile(),
    }
}

/// The independent oracle for one query: runs `engine` alone on
/// its own data graph, from stream position `from` on (earlier events only
/// grow the graph, as for a query registered mid-stream), hands every match
/// it reports to `on_match` and returns the engine with its counters.
/// Ingestion, graph retention (the engine's window, from `from` on) and the
/// purge cadence are those of a single-query [`StreamProcessor`], but there
/// is no shard: the engine searches every leaf itself
/// ([`ContinuousQueryEngine::process_edge`]), so no shared join stage is on
/// the path the shard is checked against.
pub fn run_alone(
    schema: &Schema,
    mut engine: ContinuousQueryEngine,
    events: &[EdgeEvent],
    from: usize,
    mut on_match: impl FnMut(SubgraphMatch),
) -> ContinuousQueryEngine {
    let mut graph = DynamicGraph::new(schema.clone());
    let mut since_purge = 0;
    for (i, ev) in events.iter().enumerate() {
        if i == from {
            graph.set_window(engine.window());
        }
        if !Shard::accepts(ev) {
            continue;
        }
        let (edge, _) = graph.ingest(ev);
        if i >= from
            && engine
                .query()
                .edges()
                .any(|e| e.edge_type == edge.edge_type)
        {
            engine
                .process_edge(&graph, &edge)
                .into_iter()
                .for_each(&mut on_match);
        }
        since_purge += 1;
        if since_purge == DEFAULT_PURGE_INTERVAL {
            graph.expire();
            engine.purge(&graph);
            since_purge = 0;
        }
    }
    engine
}

/// Partial-match inserts a processor has performed: every engine's store
/// plus the shared prefix tables' per-edge advances (their back-fills
/// excluded).
pub fn partial_match_inserts(proc: &StreamProcessor) -> u64 {
    let engines: u64 = proc
        .query_ids()
        .iter()
        .filter_map(|&id| proc.engine_for(id))
        .map(ContinuousQueryEngine::stored_matches)
        .sum();
    engines + proc.shared_join_stats().inserts_run
}

/// A processor's leaf work so far, as `(leaf searches, leaf matches)`: the
/// anchored and retroactive searches the engines' plans demanded — run, or
/// refused by the type signatures ([`ProfileCounters::searches_rejected`])
/// — and the leaf matches they found, plus the prefix leaf searches the
/// shared join stage ran on its subscribers' behalf and the leaf matches
/// those found. Re-decomposition replays are not included
/// ([`ProfileCounters::replay_searches`]).
pub fn leaf_work(proc: &mut StreamProcessor) -> (u64, u64) {
    let (profile, join) = (proc.profile(), proc.shared_join_stats());
    (
        profile.iso_searches
            + profile.retroactive_searches
            + profile.searches_rejected
            + join.searches_run,
        profile.leaf_matches + join.leaf_matches,
    )
}

/// One measured drift run: the same rule pack over the same shifting stream
/// executed three ways — drift-adaptive, fixed-plan (adaptivity off), and
/// an oracle whose plans were built from the *post-shift* statistics. All
/// per-arm counters below are **post-shift deltas**, so they measure how
/// each plan copes with the distribution the stream actually has after the
/// flip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftMeasurement {
    /// Number of registered queries.
    pub queries: usize,
    /// Stream edges processed by each arm.
    pub edges: usize,
    /// Stream position of the distribution flip.
    pub shift_at: usize,
    /// Edges processed after the flip (the delta window).
    pub post_edges: usize,
    /// Strategy-spec label the pack ran under ("SingleLazy", "Auto", ...).
    pub strategy: String,
    /// Matches found (asserted identical across all three arms).
    pub matches: u64,
    /// Engine rebuilds the adaptive arm performed.
    pub redecompositions: u64,
    /// Post-shift searches spent inside re-decomposition replays (adaptive
    /// arm only) — the one-off switching cost, kept separate from the
    /// steady-state leaf-search counters below.
    pub adaptive_replay_searches: u64,
    /// Post-shift wall time of those replays.
    #[serde(with = "serde_duration")]
    pub adaptive_replay_time: Duration,
    /// Post-shift wall time of the adaptive arm (includes drift checks and
    /// replays).
    #[serde(with = "serde_duration")]
    pub adaptive_post_elapsed: Duration,
    /// Post-shift wall time of the fixed-plan arm.
    #[serde(with = "serde_duration")]
    pub fixed_post_elapsed: Duration,
    /// Post-shift wall time of the oracle arm.
    #[serde(with = "serde_duration")]
    pub oracle_post_elapsed: Duration,
    /// Post-shift leaf searches, adaptive arm: the engines' anchored and
    /// retroactive ones plus the shared prefix tables'.
    pub adaptive_post_leaf_searches: u64,
    /// Post-shift leaf searches, fixed arm: the engines' anchored and
    /// retroactive ones plus the shared prefix tables'.
    pub fixed_post_leaf_searches: u64,
    /// Post-shift leaf searches, oracle arm: the engines' anchored and
    /// retroactive ones plus the shared prefix tables'.
    pub oracle_post_leaf_searches: u64,
    /// Post-shift leaf matches, adaptive arm: found by the engines' searches
    /// and by the shared prefix tables'.
    pub adaptive_post_leaf_matches: u64,
    /// Post-shift leaf matches, fixed arm: found by the engines' searches
    /// and by the shared prefix tables'.
    pub fixed_post_leaf_matches: u64,
    /// Post-shift leaf matches, oracle arm: found by the engines' searches
    /// and by the shared prefix tables'.
    pub oracle_post_leaf_matches: u64,
}

impl DriftMeasurement {
    /// Fraction of the fixed arm's post-shift leaf searches the adaptive
    /// arm eliminated.
    pub fn search_savings(&self) -> f64 {
        if self.fixed_post_leaf_searches == 0 {
            0.0
        } else {
            1.0 - self.adaptive_post_leaf_searches as f64 / self.fixed_post_leaf_searches as f64
        }
    }

    /// Post-shift speedup of the adaptive arm over the fixed arm.
    pub fn post_speedup(&self) -> f64 {
        self.fixed_post_elapsed.as_secs_f64() / self.adaptive_post_elapsed.as_secs_f64().max(1e-12)
    }
}

/// Runs `queries` over a shifting stream three times — adaptive, fixed, and
/// post-shift oracle — asserting identical match multisets and reporting
/// post-shift work deltas. `shift_at` is the stream *position* of the flip
/// (the generators carry it in the timestamps); `decay_interval` configures
/// the decayed estimator both the adaptive and fixed arms share, so the only
/// difference between those two arms is whether anyone acts on the moving
/// statistics.
#[allow(clippy::too_many_arguments)]
pub fn run_drift(
    dataset: &Dataset,
    queries: &[QueryGraph],
    spec: StrategySpec,
    shift_at: usize,
    limit: usize,
    window: Option<u64>,
    drift_config: DriftConfig,
    decay_interval: u64,
) -> DriftMeasurement {
    let events = &dataset.events()[..limit.min(dataset.len())];
    let split = events.partition_point(|ev| (ev.timestamp.0 as usize) < shift_at);
    let (pre, post) = events.split_at(split);

    // Phase-1 statistics seed (first half of the pre-shift segment), decayed
    // so the estimator keeps moving while the arms process the stream.
    let mode = StatsMode::Decayed(decay_interval);
    let phase1_est = Dataset::estimator_from_events(&pre[..pre.len() / 2], mode);
    // The oracle registers against the post-shift distribution and keeps its
    // statistics frozen (no live collection) so its plan never degrades.
    let phase2_est = Dataset::estimator_from_events(&post[..(post.len() / 2).max(1)], mode);

    struct ArmResult {
        matches: Vec<(streampattern::QueryId, String)>,
        post_elapsed: Duration,
        post_leaf_searches: u64,
        post_leaf_matches: u64,
        redecompositions: u64,
        replay_searches: u64,
        replay_time: Duration,
    }
    let run_arm = |adaptive: bool, est: SelectivityEstimator, collect: bool| -> ArmResult {
        let mut proc = StreamProcessor::new(dataset.schema.clone())
            .with_estimator(est)
            .with_statistics(collect);
        if adaptive {
            proc = proc.with_adaptive(drift_config);
        }
        for query in queries {
            proc.register(query.clone(), spec, window)
                .expect("query decomposes");
        }
        let mut found: Vec<(streampattern::QueryId, streampattern::SubgraphMatch)> = Vec::new();
        let mut sink = streampattern::FnSink(|q, m: streampattern::SubgraphMatch| {
            found.push((q, m));
        });
        for ev in pre {
            proc.process_into(ev, &mut sink);
        }
        let at_shift = proc.profile();
        let (searches_at_shift, leaf_matches_at_shift) = leaf_work(&mut proc);
        let start = Instant::now();
        for ev in post {
            proc.process_into(ev, &mut sink);
        }
        let post_elapsed = start.elapsed();
        let end = proc.profile();
        let (searches_at_end, leaf_matches_at_end) = leaf_work(&mut proc);
        let mut matches: Vec<(streampattern::QueryId, String)> = found
            .into_iter()
            .map(|(q, m)| (q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())))
            .collect();
        matches.sort();
        ArmResult {
            matches,
            post_elapsed,
            post_leaf_searches: searches_at_end - searches_at_shift,
            post_leaf_matches: leaf_matches_at_end - leaf_matches_at_shift,
            redecompositions: end.redecompositions,
            replay_searches: end.replay_searches - at_shift.replay_searches,
            replay_time: end.replay_time - at_shift.replay_time,
        }
    };

    let adaptive = run_arm(true, phase1_est.clone(), true);
    let fixed = run_arm(false, phase1_est, true);
    let oracle = run_arm(false, phase2_est, false);

    assert_eq!(
        adaptive.matches, fixed.matches,
        "drift-adaptive re-decomposition changed the match multiset"
    );
    assert_eq!(
        adaptive.matches, oracle.matches,
        "the oracle plan changed the match multiset"
    );

    let spec_label = match spec {
        StrategySpec::Fixed(s) => s.label().to_owned(),
        StrategySpec::Auto => "Auto".to_owned(),
    };
    DriftMeasurement {
        queries: queries.len(),
        edges: events.len(),
        shift_at,
        post_edges: post.len(),
        strategy: spec_label,
        matches: adaptive.matches.len() as u64,
        redecompositions: adaptive.redecompositions,
        adaptive_replay_searches: adaptive.replay_searches,
        adaptive_replay_time: adaptive.replay_time,
        adaptive_post_elapsed: adaptive.post_elapsed,
        fixed_post_elapsed: fixed.post_elapsed,
        oracle_post_elapsed: oracle.post_elapsed,
        adaptive_post_leaf_searches: adaptive.post_leaf_searches,
        fixed_post_leaf_searches: fixed.post_leaf_searches,
        oracle_post_leaf_searches: oracle.post_leaf_searches,
        adaptive_post_leaf_matches: adaptive.post_leaf_matches,
        fixed_post_leaf_matches: fixed.post_leaf_matches,
        oracle_post_leaf_matches: oracle.post_leaf_matches,
    }
}

/// Expected Selectivity of a query under the 2-edge-path decomposition —
/// the quantity the paper samples query groups by.
pub fn query_expected_selectivity(query: &QueryGraph, estimator: &SelectivityEstimator) -> f64 {
    decompose(query, PrimitivePolicy::TwoEdgePath, estimator)
        .map(|tree| expected_selectivity(&tree, estimator).expected)
        .unwrap_or(1.0)
}

/// The paper's sampling step: order the valid queries by Expected Selectivity
/// and keep `k` of them spread (near-)uniformly across that range.
pub fn sample_by_expected_selectivity(
    mut queries: Vec<QueryGraph>,
    estimator: &SelectivityEstimator,
    k: usize,
) -> Vec<QueryGraph> {
    if queries.len() <= k {
        return queries;
    }
    queries.sort_by(|a, b| {
        query_expected_selectivity(a, estimator)
            .partial_cmp(&query_expected_selectivity(b, estimator))
            .expect("selectivities are finite")
    });
    let n = queries.len();
    let mut picked = Vec::with_capacity(k);
    for i in 0..k {
        let idx = i * (n - 1) / (k - 1).max(1);
        picked.push(queries[idx].clone());
    }
    picked
}

/// Runs a whole query group (already generated and sampled) under the given
/// strategies and aggregates mean runtimes — one point per strategy on a
/// Figure 9 plot.
pub fn run_group(
    group: &str,
    dataset: &Dataset,
    estimator: &SelectivityEstimator,
    queries: &[QueryGraph],
    strategies: &[Strategy],
    limit: usize,
    window: Option<u64>,
) -> QueryGroupResult {
    let mut per_strategy = Vec::new();
    for &strategy in strategies {
        let mut total_time = 0.0;
        let mut total_matches = 0.0;
        for query in queries {
            let m = run_query(dataset, estimator, query, strategy, limit, window);
            total_time += m.elapsed.as_secs_f64();
            total_matches += m.matches as f64;
        }
        let n = queries.len().max(1) as f64;
        per_strategy.push((
            strategy.label().to_owned(),
            total_time / n,
            total_matches / n,
        ));
    }
    QueryGroupResult {
        group: group.to_owned(),
        queries: queries.len(),
        edges: limit.min(dataset.len()),
        per_strategy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_datasets::{NetflowConfig, QueryGenerator, QueryKind};
    use streampattern::{choose_strategy, RELATIVE_SELECTIVITY_THRESHOLD};

    fn tiny() -> (Dataset, SelectivityEstimator) {
        let d = NetflowConfig {
            num_hosts: 200,
            num_edges: 1_500,
            ..NetflowConfig::tiny()
        }
        .generate();
        let est = d.estimator_from_prefix(d.len() / 2);
        (d, est)
    }

    #[test]
    fn scale_parsing_and_sizes() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("MEDIUM"), Some(Scale::Medium));
        assert_eq!(Scale::parse("nope"), None);
        assert!(Scale::Small.stream_edges() < Scale::Large.stream_edges());
        assert!(Scale::Small.baseline_edges() <= Scale::Small.stream_edges());
        assert!(Scale::Medium.sampled_queries() <= Scale::Medium.queries_per_group());
        assert!(Scale::Large.entities() > Scale::Small.entities());
    }

    #[test]
    fn run_query_produces_consistent_measurement() {
        let (d, est) = tiny();
        let mut gen = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 5);
        let q = gen.generate(QueryKind::Path { length: 3 });
        let m = run_query(&d, &est, &q, Strategy::SingleLazy, 1_000, None);
        assert_eq!(m.edges, 1_000);
        assert_eq!(m.strategy, "SingleLazy");
        assert!(m.elapsed > Duration::ZERO);
        assert_eq!(m.profile.edges_processed, 1_000);
    }

    #[test]
    fn sampling_spreads_across_the_selectivity_range() {
        let (d, est) = tiny();
        let mut gen = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 5);
        let all = gen.generate_valid_batch(QueryKind::Path { length: 3 }, 30, &est);
        let sampled = sample_by_expected_selectivity(all.clone(), &est, 4);
        assert!(sampled.len() <= 4);
        if all.len() >= 4 {
            assert_eq!(sampled.len(), 4);
            let s: Vec<f64> = sampled
                .iter()
                .map(|q| query_expected_selectivity(q, &est))
                .collect();
            assert!(s.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        }
    }

    #[test]
    fn group_run_aggregates_all_strategies() {
        let (d, est) = tiny();
        let mut gen = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 9);
        let queries = gen.generate_valid_batch(QueryKind::Path { length: 3 }, 10, &est);
        let sampled = sample_by_expected_selectivity(queries, &est, 2);
        let result = run_group(
            "path-3",
            &d,
            &est,
            &sampled,
            &[Strategy::SingleLazy, Strategy::PathLazy],
            800,
            None,
        );
        assert_eq!(result.group, "path-3");
        assert_eq!(result.per_strategy.len(), 2);
        assert!(result.mean_seconds("SingleLazy").unwrap() > 0.0);
        assert!(result.mean_seconds("VF2").is_none());
    }

    #[test]
    fn relative_selectivity_is_finite_for_generated_queries() {
        let (d, est) = tiny();
        let mut gen = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 13);
        for q in gen.generate_valid_batch(QueryKind::Path { length: 4 }, 10, &est) {
            let xi = choose_strategy(&q, &est, RELATIVE_SELECTIVITY_THRESHOLD)
                .map_or(1.0, |c| c.relative_selectivity);
            assert!(xi.is_finite() && xi > 0.0);
        }
    }
}
