//! Workload execution helpers shared by the experiments and the Criterion
//! benches: run a query under a strategy over a stream, sweep a group of
//! random queries, and sample queries by Expected Selectivity as the paper's
//! methodology prescribes.

use serde::{Deserialize, Serialize};
use sp_datasets::Dataset;
use sp_query::QueryGraph;
use sp_selectivity::{DriftConfig, SelectivityEstimator, StatsMode};
use sp_sjtree::{decompose, expected_selectivity, PrimitivePolicy};
use std::time::{Duration, Instant};
use streampattern::{
    ContinuousQueryEngine, ProfileCounters, Strategy, StrategySpec, StreamProcessor,
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
/// dataset and reports the measurement.
pub fn run_query(
    dataset: &Dataset,
    estimator: &SelectivityEstimator,
    query: &QueryGraph,
    strategy: Strategy,
    limit: usize,
    window: Option<u64>,
) -> RunMeasurement {
    let engine = ContinuousQueryEngine::new(query.clone(), strategy, estimator, window)
        .expect("query decomposes");
    // Statistics collection stays off: the paper's methodology feeds the
    // estimator from a stream prefix only, and the measurement should not
    // include statistics maintenance.
    let mut proc =
        StreamProcessor::with_engine(dataset.schema.clone(), engine).with_statistics(false);
    let events = &dataset.events()[..limit.min(dataset.len())];
    let start = Instant::now();
    let matches = proc.process_all(events.iter());
    let elapsed = start.elapsed();
    let peak = proc
        .engine()
        .store_stats()
        .map(|s| s.total_live_matches)
        .unwrap_or(0)
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

/// One measured multi-query run: the same query set executed once on a
/// shared-graph [`StreamProcessor`] (one ingest pass, edge-type dispatch)
/// and once as N independent single-query processors (N graph copies, N
/// ingest passes — the pre-registry architecture).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiQueryMeasurement {
    /// Number of queries executed.
    pub queries: usize,
    /// Number of stream edges processed (once for shared, per query for
    /// separate).
    pub edges: usize,
    /// Wall-clock time of the shared multi-query processor.
    #[serde(with = "serde_duration")]
    pub shared_elapsed: Duration,
    /// Wall-clock time of the N independent processors, summed.
    #[serde(with = "serde_duration")]
    pub separate_elapsed: Duration,
    /// Matches found by the shared processor (all queries).
    pub shared_matches: u64,
    /// Matches found by the independent processors, summed.
    pub separate_matches: u64,
    /// Sum of per-engine `edges_processed` in the shared run — the edges
    /// that actually reached an engine after edge-type dispatch.
    pub dispatched_edges: u64,
    /// `queries × edges`: the engine invocations the pre-registry
    /// architecture performs.
    pub undispatched_edges: u64,
}

impl MultiQueryMeasurement {
    /// Speedup of the shared processor over the N independent processors.
    pub fn speedup(&self) -> f64 {
        self.shared_elapsed.as_secs_f64().max(1e-12).recip() * self.separate_elapsed.as_secs_f64()
    }

    /// Fraction of engine invocations the dispatch index eliminated.
    pub fn dispatch_savings(&self) -> f64 {
        if self.undispatched_edges == 0 {
            0.0
        } else {
            1.0 - self.dispatched_edges as f64 / self.undispatched_edges as f64
        }
    }
}

/// Runs `queries` over the first `limit` events of the dataset twice — once
/// sharing a single data graph through the registry, once as independent
/// processors — and reports both measurements. The two executions must find
/// the same matches; this is asserted.
pub fn run_multi_query(
    dataset: &Dataset,
    estimator: &SelectivityEstimator,
    queries: &[QueryGraph],
    strategy: Strategy,
    limit: usize,
    window: Option<u64>,
) -> MultiQueryMeasurement {
    let events = &dataset.events()[..limit.min(dataset.len())];

    // Shared: one graph, one ingest pass, dispatch through the registry.
    // Both executions decompose against the same prefix statistics.
    let mut shared = StreamProcessor::new(dataset.schema.clone())
        .with_estimator(estimator.clone())
        .with_statistics(false);
    for query in queries {
        shared
            .register(query.clone(), strategy, window)
            .expect("query decomposes");
    }
    let start = Instant::now();
    let shared_matches = shared.process_all(events.iter());
    let shared_elapsed = start.elapsed();
    let dispatched_edges: u64 = shared
        .query_ids()
        .iter()
        .filter_map(|&id| shared.profile_for(id))
        .map(|p| p.edges_processed)
        .sum();

    // Separate: the pre-registry architecture — every query pays a full
    // graph copy and a full ingest pass. Engines are built outside the
    // timed section, mirroring the shared arm where registration (and its
    // SJ-Tree decomposition) happens before the timer starts.
    let mut separate_procs: Vec<StreamProcessor> = queries
        .iter()
        .map(|query| {
            let engine = ContinuousQueryEngine::new(query.clone(), strategy, estimator, window)
                .expect("query decomposes");
            StreamProcessor::with_engine(dataset.schema.clone(), engine).with_statistics(false)
        })
        .collect();
    let mut separate_matches = 0u64;
    let start = Instant::now();
    for proc in &mut separate_procs {
        separate_matches += proc.process_all(events.iter());
    }
    let separate_elapsed = start.elapsed();

    assert_eq!(
        shared_matches, separate_matches,
        "shared and separate execution disagree"
    );
    MultiQueryMeasurement {
        queries: queries.len(),
        edges: events.len(),
        shared_elapsed,
        separate_elapsed,
        shared_matches,
        separate_matches,
        dispatched_edges,
        undispatched_edges: queries.len() as u64 * events.len() as u64,
    }
}

/// One measured shared-vs-unshared leaf-evaluation run: the same rule pack
/// executed on one shared-graph [`StreamProcessor`] with shared-leaf
/// evaluation on, and again with it off (every engine re-running its own
/// anchored leaf searches).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharingMeasurement {
    /// Number of registered queries.
    pub queries: usize,
    /// Stream edges processed by each arm.
    pub edges: usize,
    /// Strategy label the rule pack ran under.
    pub strategy: String,
    /// Wall-clock time with shared-leaf evaluation enabled.
    #[serde(with = "serde_duration")]
    pub shared_elapsed: Duration,
    /// Wall-clock time with sharing disabled (per-engine searches).
    #[serde(with = "serde_duration")]
    pub unshared_elapsed: Duration,
    /// Matches found (asserted identical between the two arms).
    pub matches: u64,
    /// Distinct canonical leaf shapes the pack decomposed into.
    pub distinct_leaves: usize,
    /// Leaf subscriptions across the pack (`>= distinct_leaves`; the gap is
    /// the sharing opportunity).
    pub leaf_subscriptions: usize,
    /// Anchored leaf searches the shared arm actually executed.
    pub leaf_searches_run: u64,
    /// Leaf searches the shared arm eliminated (served from a search another
    /// subscriber triggered on the same edge) — also surfaced per query via
    /// `ProfileCounters::leaf_searches_shared`.
    pub leaf_searches_eliminated: u64,
    /// Leaf searches delegated back to a single-subscriber engine (no
    /// sharing possible for that shape, so no shared-stage overhead paid).
    pub leaf_searches_delegated: u64,
}

impl SharingMeasurement {
    /// Speedup of the shared arm over the unshared arm.
    pub fn speedup(&self) -> f64 {
        self.unshared_elapsed.as_secs_f64() / self.shared_elapsed.as_secs_f64().max(1e-12)
    }

    /// Fraction of would-be leaf searches that sharing eliminated.
    pub fn elimination_ratio(&self) -> f64 {
        let total =
            self.leaf_searches_run + self.leaf_searches_eliminated + self.leaf_searches_delegated;
        if total == 0 {
            0.0
        } else {
            self.leaf_searches_eliminated as f64 / total as f64
        }
    }

    /// Shared-arm throughput in stream edges per second.
    pub fn throughput_eps(&self) -> f64 {
        self.edges as f64 / self.shared_elapsed.as_secs_f64().max(1e-12)
    }

    /// Unshared-arm throughput in stream edges per second.
    pub fn unshared_throughput_eps(&self) -> f64 {
        self.edges as f64 / self.unshared_elapsed.as_secs_f64().max(1e-12)
    }
}

/// Runs `queries` over the first `limit` events twice on a shared-graph
/// [`StreamProcessor`] — once with shared-leaf evaluation, once without —
/// asserting identical match multisets, and reports both timings plus the
/// shared-leaf index statistics.
pub fn run_sharing(
    dataset: &Dataset,
    estimator: &SelectivityEstimator,
    queries: &[QueryGraph],
    strategy: Strategy,
    limit: usize,
    window: Option<u64>,
) -> SharingMeasurement {
    let events = &dataset.events()[..limit.min(dataset.len())];
    let run = |sharing: bool| {
        // Join sharing stays off in both arms: this experiment measures
        // shared-*leaf* evaluation against the per-engine path, and the
        // join stage would move prefix searches out of the leaf counters
        // compared here (the shared join stage has its own `sharedjoin`
        // experiment with a leaf-only baseline).
        let mut proc = StreamProcessor::new(dataset.schema.clone())
            .with_estimator(estimator.clone())
            .with_statistics(false)
            .with_sharing(sharing)
            .with_join_sharing(false);
        for query in queries {
            proc.register(query.clone(), strategy, window)
                .expect("query decomposes");
        }
        // Collect raw matches in the timed loop; fingerprint and sort the
        // multiset outside it so the equality check does not skew the
        // shared-vs-unshared timing.
        let mut found: Vec<(streampattern::QueryId, streampattern::SubgraphMatch)> = Vec::new();
        let mut sink = streampattern::FnSink(|q, m: streampattern::SubgraphMatch| {
            found.push((q, m));
        });
        let start = Instant::now();
        for ev in events {
            proc.process_into(ev, &mut sink);
        }
        let elapsed = start.elapsed();
        let mut found: Vec<(streampattern::QueryId, String)> = found
            .into_iter()
            .map(|(q, m)| (q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())))
            .collect();
        found.sort();
        (elapsed, found, proc.shared_leaf_stats())
    };
    // Interleave two passes per arm and keep the faster one, so allocator /
    // page-cache warm-up does not systematically favor whichever arm runs
    // second (the counter-based statistics are identical across passes).
    let (unshared_first, unshared_matches, _) = run(false);
    let (shared_first, shared_matches, stats) = run(true);
    let (unshared_second, _, _) = run(false);
    let (shared_second, _, _) = run(true);
    assert_eq!(
        shared_matches, unshared_matches,
        "shared-leaf evaluation changed the match multiset"
    );
    SharingMeasurement {
        queries: queries.len(),
        edges: events.len(),
        strategy: strategy.label().to_owned(),
        shared_elapsed: shared_first.min(shared_second),
        unshared_elapsed: unshared_first.min(unshared_second),
        matches: shared_matches.len() as u64,
        distinct_leaves: stats.distinct_leaves,
        leaf_subscriptions: stats.total_subscriptions,
        leaf_searches_run: stats.searches_run,
        leaf_searches_eliminated: stats.searches_shared,
        leaf_searches_delegated: stats.searches_delegated,
    }
}

/// One measured shared-join run: the same rule pack executed on one
/// shared-graph [`StreamProcessor`] twice — leaf-only sharing (the PR 3
/// architecture) and the shared join stage (a trie of canonical prefix
/// tables: nested prefixes share storage, parent emissions feed child
/// nodes) — with identical match multisets asserted between the arms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharedJoinMeasurement {
    /// Number of registered queries.
    pub queries: usize,
    /// Stream edges processed by each arm.
    pub edges: usize,
    /// Strategy label the rule pack ran under.
    pub strategy: String,
    /// Wall-clock time with leaf-only sharing.
    #[serde(with = "serde_duration")]
    pub leafonly_elapsed: Duration,
    /// Wall-clock time with the shared join stage.
    #[serde(with = "serde_duration")]
    pub sharedjoin_elapsed: Duration,
    /// Matches found (asserted identical between the two arms).
    pub matches: u64,
    /// Live shared prefix tables at end of run.
    pub tables: usize,
    /// Queries subscribed to a shared prefix table.
    pub join_subscriptions: usize,
    /// Join-stage partial-match inserts of the leaf-only arm (every
    /// engine's own tables).
    pub leafonly_join_inserts: u64,
    /// Join-stage inserts of the shared-join arm (engines' remaining
    /// private tables plus each trie node once; a nested prefix's partials
    /// live only in its deepest covering node).
    pub sharedjoin_join_inserts: u64,
    /// Total leaf searches the leaf-only arm physically ran.
    pub leafonly_searches: u64,
    /// Total leaf searches the shared-join arm physically ran (engines'
    /// private leaf searches plus the shared stage's prefix leaf searches —
    /// a child trie node consumes its parent's emissions instead of
    /// re-running the parent's leaf searches).
    pub sharedjoin_searches: u64,
    /// Prefix leaf searches the shared stage executed.
    pub prefix_searches_run: u64,
    /// Prefix leaf searches subscribers no longer run (per advance,
    /// `searches × (subscribers − 1)`).
    pub prefix_searches_saved: u64,
    /// Shared-table inserts subscribers no longer perform, accounted the
    /// same way.
    pub prefix_inserts_saved: u64,
    /// Prefix-root matches emitted by the shared tables.
    pub emissions: u64,
    /// Deepest live trie node (≥ 3 exactly when nesting prefixes folded
    /// into one trie path).
    pub trie_max_depth: usize,
    /// Parent-node emissions child trie nodes consumed in place of
    /// re-running the parent's leaf searches and joins.
    pub parent_feeds: u64,
}

impl SharedJoinMeasurement {
    /// Fraction of the leaf-only arm's join-stage inserts the shared join
    /// stage eliminated.
    pub fn insert_reduction(&self) -> f64 {
        if self.leafonly_join_inserts == 0 {
            0.0
        } else {
            1.0 - self.sharedjoin_join_inserts as f64 / self.leafonly_join_inserts as f64
        }
    }

    /// Speedup of the shared-join arm over the leaf-only arm.
    pub fn speedup(&self) -> f64 {
        self.leafonly_elapsed.as_secs_f64() / self.sharedjoin_elapsed.as_secs_f64().max(1e-12)
    }
}

/// Runs `rules` (query, window) over the first `limit` events twice on a
/// shared-graph [`StreamProcessor`] — leaf-only sharing and the shared join
/// stage — asserting identical match multisets and reporting both timings
/// plus the join-stage work deltas.
pub fn run_sharedjoin(
    dataset: &Dataset,
    estimator: &SelectivityEstimator,
    rules: &[(QueryGraph, Option<u64>)],
    strategy: Strategy,
    limit: usize,
) -> SharedJoinMeasurement {
    let events = &dataset.events()[..limit.min(dataset.len())];
    struct Arm {
        elapsed: Duration,
        matches: Vec<(streampattern::QueryId, String)>,
        join_inserts: u64,
        searches: u64,
        stats: streampattern::SharedJoinStats,
    }
    let run = |join_sharing: bool| -> Arm {
        let mut proc = StreamProcessor::new(dataset.schema.clone())
            .with_estimator(estimator.clone())
            .with_statistics(false)
            .with_join_sharing(join_sharing);
        for (query, window) in rules {
            proc.register(query.clone(), strategy, *window)
                .expect("query decomposes");
        }
        let mut found: Vec<(streampattern::QueryId, streampattern::SubgraphMatch)> = Vec::new();
        let mut sink = streampattern::FnSink(|q, m: streampattern::SubgraphMatch| {
            found.push((q, m));
        });
        let start = Instant::now();
        for ev in events {
            proc.process_into(ev, &mut sink);
        }
        let elapsed = start.elapsed();
        let mut matches: Vec<(streampattern::QueryId, String)> = found
            .into_iter()
            .map(|(q, m)| (q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())))
            .collect();
        matches.sort();
        // Join-stage inserts actually performed: every engine's private
        // tables plus (shared arm) each canonical table once.
        let engine_inserts: u64 = proc
            .query_ids()
            .iter()
            .filter_map(|&id| proc.engine_for(id))
            .filter_map(|e| e.store_stats())
            .map(|s| s.total_inserted_per_node.iter().sum::<u64>())
            .sum();
        let stats = proc.shared_join_stats();
        Arm {
            elapsed,
            matches,
            join_inserts: engine_inserts + stats.inserts_run,
            searches: proc.profile().iso_searches + stats.searches_run,
            stats,
        }
    };
    // Interleave two passes per arm and keep the faster one, so allocator /
    // page-cache warm-up does not systematically favor whichever arm runs
    // last (the counter-based statistics are identical across passes).
    let leafonly_first = run(false);
    let trie_first = run(true);
    let leafonly_second = run(false);
    let trie_second = run(true);
    assert_eq!(
        trie_first.matches, leafonly_first.matches,
        "the shared join stage changed the match multiset"
    );
    SharedJoinMeasurement {
        queries: rules.len(),
        edges: events.len(),
        strategy: strategy.label().to_owned(),
        leafonly_elapsed: leafonly_first.elapsed.min(leafonly_second.elapsed),
        sharedjoin_elapsed: trie_first.elapsed.min(trie_second.elapsed),
        matches: trie_first.matches.len() as u64,
        tables: trie_first.stats.tables,
        join_subscriptions: trie_first.stats.subscriptions,
        leafonly_join_inserts: leafonly_first.join_inserts,
        sharedjoin_join_inserts: trie_first.join_inserts,
        leafonly_searches: leafonly_first.searches,
        sharedjoin_searches: trie_first.searches,
        prefix_searches_run: trie_first.stats.searches_run,
        prefix_searches_saved: trie_first.stats.searches_saved,
        prefix_inserts_saved: trie_first.stats.inserts_saved,
        emissions: trie_first.stats.emissions,
        trie_max_depth: trie_first.stats.max_depth,
        parent_feeds: trie_first.stats.parent_feeds,
    }
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
    /// Post-shift anchored + retroactive leaf searches, adaptive arm.
    pub adaptive_post_leaf_searches: u64,
    /// Post-shift anchored + retroactive leaf searches, fixed arm.
    pub fixed_post_leaf_searches: u64,
    /// Post-shift anchored + retroactive leaf searches, oracle arm.
    pub oracle_post_leaf_searches: u64,
    /// Post-shift leaf matches stored, adaptive arm.
    pub adaptive_post_leaf_matches: u64,
    /// Post-shift leaf matches stored, fixed arm.
    pub fixed_post_leaf_matches: u64,
    /// Post-shift leaf matches stored, oracle arm.
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
        // Join sharing moves prefix searches off the per-engine counters
        // this experiment compares (and re-decomposition churns table
        // subscriptions), so it stays off here: the drift experiment
        // isolates *private-engine* adaptivity. The shared join stage has
        // its own experiment (`sharedjoin`) and its own drift-interplay
        // parity tests.
        let mut proc = StreamProcessor::new(dataset.schema.clone())
            .with_estimator(est)
            .with_statistics(collect)
            .with_join_sharing(false);
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
        let start = Instant::now();
        for ev in post {
            proc.process_into(ev, &mut sink);
        }
        let post_elapsed = start.elapsed();
        let end = proc.profile();
        let mut matches: Vec<(streampattern::QueryId, String)> = found
            .into_iter()
            .map(|(q, m)| (q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())))
            .collect();
        matches.sort();
        ArmResult {
            matches,
            post_elapsed,
            post_leaf_searches: (end.iso_searches + end.retroactive_searches)
                - (at_shift.iso_searches + at_shift.retroactive_searches),
            post_leaf_matches: end.leaf_matches - at_shift.leaf_matches,
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

/// One measured run of the parallel runtime against the sequential
/// [`StreamProcessor`] on the same multi-query workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelMeasurement {
    /// Worker threads in the parallel run.
    pub workers: usize,
    /// Number of registered queries.
    pub queries: usize,
    /// Stream edges processed.
    pub edges: usize,
    /// Wall-clock time of the sequential shared-graph processor.
    #[serde(with = "serde_duration")]
    pub sequential_elapsed: Duration,
    /// Wall-clock time of the parallel runtime (including ingest, transport
    /// and the final drain).
    #[serde(with = "serde_duration")]
    pub parallel_elapsed: Duration,
    /// Matches found (asserted identical between the two runs).
    pub matches: u64,
    /// Backpressure events recorded by the parallel ingest loop.
    pub backpressure_events: u64,
    /// Per-query engine counters from the parallel run, labelled with the
    /// query name (aggregated across shards by the facade).
    pub per_query: Vec<(String, ProfileCounters)>,
}

impl ParallelMeasurement {
    /// Speedup of the parallel runtime over the sequential processor.
    pub fn speedup(&self) -> f64 {
        self.sequential_elapsed.as_secs_f64() / self.parallel_elapsed.as_secs_f64().max(1e-12)
    }

    /// Parallel throughput in stream edges per second.
    pub fn throughput_eps(&self) -> f64 {
        self.edges as f64 / self.parallel_elapsed.as_secs_f64().max(1e-12)
    }

    /// Sequential throughput in stream edges per second.
    pub fn sequential_throughput_eps(&self) -> f64 {
        self.edges as f64 / self.sequential_elapsed.as_secs_f64().max(1e-12)
    }
}

/// Runs `queries` over the first `limit` events on the sequential
/// shared-graph [`StreamProcessor`] and returns `(elapsed, matches)` — the
/// baseline a worker-count sweep measures [`run_parallel`] against once,
/// instead of re-timing it for every sweep point.
pub fn run_sequential_baseline(
    dataset: &Dataset,
    estimator: &SelectivityEstimator,
    queries: &[QueryGraph],
    strategy: Strategy,
    limit: usize,
    window: Option<u64>,
) -> (Duration, u64) {
    let events = &dataset.events()[..limit.min(dataset.len())];
    let mut seq = StreamProcessor::new(dataset.schema.clone())
        .with_estimator(estimator.clone())
        .with_statistics(false);
    for query in queries {
        seq.register(query.clone(), strategy, window)
            .expect("query decomposes");
    }
    let start = Instant::now();
    let matches = seq.process_all(events.iter());
    (start.elapsed(), matches)
}

/// Runs `queries` over the first `limit` events on the sharded
/// [`ParallelStreamProcessor`](sp_runtime::ParallelStreamProcessor) with
/// `workers` threads and reports the measurement against a sequential
/// baseline. `baseline` is the [`run_sequential_baseline`] result to
/// compare (and assert match-count equality) against; pass `None` to
/// measure it in place. `ingest_filter` enables shard-local graph filtering
/// in the parallel arm (safe here: queries are registered before the stream
/// starts).
#[allow(clippy::too_many_arguments)]
pub fn run_parallel(
    dataset: &Dataset,
    estimator: &SelectivityEstimator,
    queries: &[QueryGraph],
    strategy: Strategy,
    limit: usize,
    window: Option<u64>,
    workers: usize,
    ingest_filter: bool,
    baseline: Option<(Duration, u64)>,
) -> ParallelMeasurement {
    let events = &dataset.events()[..limit.min(dataset.len())];
    let (sequential_elapsed, seq_matches) = baseline.unwrap_or_else(|| {
        run_sequential_baseline(dataset, estimator, queries, strategy, limit, window)
    });

    // Parallel arm: same queries, same prefix statistics, N shards.
    let config = sp_runtime::RuntimeConfig::with_workers(workers)
        .statistics(false)
        .ingest_filtering(ingest_filter);
    let mut par = sp_runtime::ParallelStreamProcessor::new(dataset.schema.clone(), config)
        .with_estimator(estimator.clone());
    let mut ids = Vec::with_capacity(queries.len());
    for query in queries {
        ids.push(
            par.register(query.clone(), strategy, window)
                .expect("query decomposes"),
        );
    }
    let start = Instant::now();
    let par_matches = par.process_all(events.iter());
    let parallel_elapsed = start.elapsed();

    assert_eq!(
        seq_matches, par_matches,
        "sequential and parallel execution disagree at {workers} workers"
    );
    let per_query = ids
        .iter()
        .zip(queries)
        .filter_map(|(&id, q)| par.profile_for(id).map(|p| (q.name().to_owned(), p)))
        .collect();
    let backpressure_events = par.stats().backpressure_events;
    ParallelMeasurement {
        workers,
        queries: queries.len(),
        edges: events.len(),
        sequential_elapsed,
        parallel_elapsed,
        matches: par_matches,
        backpressure_events,
        per_query,
    }
}

/// Expected Selectivity of a query under the 2-edge-path decomposition —
/// the quantity the paper samples query groups by.
pub fn query_expected_selectivity(query: &QueryGraph, estimator: &SelectivityEstimator) -> f64 {
    decompose(query, PrimitivePolicy::TwoEdgePath, estimator)
        .map(|tree| expected_selectivity(&tree, estimator).expected)
        .unwrap_or(1.0)
}

/// Relative Selectivity ξ of a query (2-edge vs 1-edge decomposition).
pub fn query_relative_selectivity(query: &QueryGraph, estimator: &SelectivityEstimator) -> f64 {
    let single = decompose(query, PrimitivePolicy::SingleEdge, estimator);
    let path = decompose(query, PrimitivePolicy::TwoEdgePath, estimator);
    match (single, path) {
        (Ok(s), Ok(p)) => {
            expected_selectivity(&p, estimator).relative_to(&expected_selectivity(&s, estimator))
        }
        _ => 1.0,
    }
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
    fn multi_query_shared_and_separate_agree() {
        let (d, est) = tiny();
        let mut gen = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 21);
        let queries = gen.generate_valid_batch(QueryKind::Path { length: 3 }, 4, &est);
        assert!(queries.len() >= 2, "generator produced too few queries");
        let m = run_multi_query(&d, &est, &queries, Strategy::SingleLazy, 1_000, None);
        assert_eq!(m.queries, queries.len());
        assert_eq!(m.edges, 1_000);
        assert_eq!(m.shared_matches, m.separate_matches);
        // The dispatch index can only reduce engine invocations.
        assert!(m.dispatched_edges <= m.undispatched_edges);
        assert!(m.dispatch_savings() >= 0.0);
        assert!(m.speedup() > 0.0);
    }

    #[test]
    fn parallel_runner_matches_sequential_and_times_both() {
        let (d, est) = tiny();
        let mut gen = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 31);
        let queries = gen.generate_valid_batch(QueryKind::Path { length: 3 }, 4, &est);
        assert!(queries.len() >= 2, "generator produced too few queries");
        let m = run_parallel(
            &d,
            &est,
            &queries,
            Strategy::SingleLazy,
            1_000,
            None,
            2,
            false,
            None,
        );
        assert_eq!(m.workers, 2);
        assert_eq!(m.edges, 1_000);
        assert!(m.parallel_elapsed > Duration::ZERO);
        assert!(m.sequential_elapsed > Duration::ZERO);
        assert!(m.speedup() > 0.0);
        assert!(m.throughput_eps() > 0.0);
        assert_eq!(m.per_query.len(), queries.len());
        // Each query's engine saw only its dispatched edges.
        for (_, p) in &m.per_query {
            assert!(p.edges_processed <= 1_000);
        }
    }

    #[test]
    fn relative_selectivity_is_finite_for_generated_queries() {
        let (d, est) = tiny();
        let mut gen = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 13);
        for q in gen.generate_valid_batch(QueryKind::Path { length: 4 }, 10, &est) {
            let xi = query_relative_selectivity(&q, &est);
            assert!(xi.is_finite() && xi > 0.0);
        }
    }
}
