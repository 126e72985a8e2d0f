//! The stream processor: one shared data graph, many continuous queries.
//!
//! [`StreamProcessor`] is the "query processing" half of the paper's
//! experimental setup (Section 6.1), generalized to the multi-query
//! deployment the system paper (StreamWorks) describes: it owns **one**
//! [`DynamicGraph`] shared by every registered query, streams
//! [`EdgeEvent`]s into it exactly once, and dispatches each new edge through
//! the [`QueryRegistry`]'s edge-type index so that only the engines whose
//! pattern can use the edge are invoked. Windowing is per query: the graph
//! retains edges for the *largest* registered window while each engine
//! filters and purges with its own `tW`.
//!
//! Matches are pushed into a [`MatchSink`]; [`StreamProcessor::process`] is
//! the convenience wrapper that collects them into a vector.

use crate::adaptive::{leaf_structure, AdaptiveStats, QueryDriftState};
use crate::engine::ContinuousQueryEngine;
use crate::error::EngineError;
use crate::metrics::PipelineMetrics;
use crate::profile::ProfileCounters;
use crate::registry::{QueryId, QueryRegistry, StrategySpec};
use crate::sink::{CollectSink, CountSink, MatchSink};
use crate::strategy::{choose_strategy_with_sharing, Strategy, RELATIVE_SELECTIVITY_THRESHOLD};
use sp_graph::{monotonic_nanos, DynamicGraph, EdgeEvent, Schema, VertexId};
use sp_iso::SubgraphMatch;
use sp_query::QueryGraph;
use sp_selectivity::{DriftConfig, SelectivityEstimator};
use sp_sjtree::{SjTree, UNBOUND};
use std::collections::HashMap;
use std::time::Instant;

/// Default number of edges between partial-match purges.
const DEFAULT_PURGE_INTERVAL: u64 = 4096;

/// The processor's drift-adaptivity state: per-query detectors plus the
/// shared check cadence.
#[derive(Debug, Clone)]
struct AdaptiveRuntime {
    config: DriftConfig,
    since_check: u64,
    per_query: HashMap<QueryId, QueryDriftState>,
    stats: AdaptiveStats,
}

impl AdaptiveRuntime {
    fn new(config: DriftConfig) -> Self {
        Self {
            config,
            since_check: 0,
            per_query: HashMap::new(),
            stats: AdaptiveStats::default(),
        }
    }
}

/// Owns the shared [`DynamicGraph`] and the [`QueryRegistry`] and feeds the
/// stream through both.
#[derive(Debug, Clone)]
pub struct StreamProcessor {
    graph: DynamicGraph,
    registry: QueryRegistry,
    estimator: SelectivityEstimator,
    collect_statistics: bool,
    purge_interval: u64,
    since_purge: u64,
    total_matches: u64,
    adaptive: Option<AdaptiveRuntime>,
    /// The strategy spec each live query was registered with, kept so that
    /// adaptivity enabled *after* registration still re-runs the strategy
    /// selection for `Auto` queries (the registry only stores the resolved
    /// engine).
    specs: HashMap<QueryId, StrategySpec>,
    /// Processor-level counters: events ingested and vertex-type conflicts.
    stream: ProfileCounters,
    /// Telemetry handles; `None` (the default) keeps the hot path at a
    /// single branch with no clock reads.
    metrics: Option<PipelineMetrics>,
}

impl StreamProcessor {
    /// Creates a processor with an empty data graph and no registered
    /// queries. Register queries with [`StreamProcessor::register`] (or
    /// [`StreamProcessor::register_engine`]); until a query is registered,
    /// processed edges only grow the graph.
    pub fn new(schema: Schema) -> Self {
        Self {
            graph: DynamicGraph::new(schema),
            registry: QueryRegistry::new(),
            estimator: SelectivityEstimator::new(),
            collect_statistics: true,
            purge_interval: DEFAULT_PURGE_INTERVAL,
            since_purge: 0,
            total_matches: 0,
            adaptive: None,
            specs: HashMap::new(),
            stream: ProfileCounters::new(),
            metrics: None,
        }
    }

    /// Convenience constructor for the single-query setup of the paper's
    /// experiments: a processor with exactly one registered engine. The
    /// engine's id is the first element of [`StreamProcessor::query_ids`].
    pub fn with_engine(schema: Schema, engine: ContinuousQueryEngine) -> Self {
        let mut p = Self::new(schema);
        p.register_engine(engine);
        p
    }

    /// Overrides how many edges are processed between partial-match purges
    /// (the purge is an amortized maintenance pass; correctness of reported
    /// matches does not depend on it).
    pub fn with_purge_interval(mut self, interval: u64) -> Self {
        self.purge_interval = interval.max(1);
        self
    }

    /// Enables or disables continuous stream-statistics collection (on by
    /// default). The statistics feed [`StrategySpec::Auto`] registration;
    /// disable them to reproduce the paper's measurement methodology, where
    /// statistics come from a stream prefix only.
    pub fn with_statistics(mut self, enabled: bool) -> Self {
        self.collect_statistics = enabled;
        self
    }

    /// Seeds the processor's stream statistics, e.g. from
    /// `Dataset::estimator_from_prefix`. Subsequent edges keep updating the
    /// estimator unless statistics collection is disabled.
    pub fn with_estimator(mut self, estimator: SelectivityEstimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Attaches telemetry (off by default): every processed edge records
    /// per-stage timing spans and every reported match records its
    /// detection latency into the bundle's histograms — see
    /// [`PipelineMetrics`] for the metric catalogue. With metrics off the
    /// hot path pays one branch and reads no clock.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches or detaches telemetry on a live processor (the runtime
    /// workers receive their handles over a control message after spawn).
    pub fn set_metrics(&mut self, metrics: Option<PipelineMetrics>) {
        self.metrics = metrics;
    }

    /// The attached telemetry bundle, if any.
    pub fn metrics(&self) -> Option<&PipelineMetrics> {
        self.metrics.as_ref()
    }

    /// Enables or disables shared-leaf evaluation (on by default): with
    /// sharing on, structurally identical SJ-Tree leaves from different
    /// registered queries are searched **once** per edge and the results
    /// fanned out; with sharing off every engine re-runs its own anchored
    /// searches. The reported match multiset is identical either way — the
    /// toggle exists for measurement (the `sharing` benchmark) and
    /// equivalence testing.
    pub fn with_sharing(mut self, enabled: bool) -> Self {
        self.registry.set_sharing(enabled);
        self
    }

    /// Snapshot of the shared-leaf index: distinct leaf shapes, current
    /// subscriptions, and how many anchored searches sharing eliminated.
    pub fn shared_leaf_stats(&self) -> crate::SharedLeafStats {
        self.registry.shared_leaf_stats()
    }

    /// Enables or disables shared-**join** evaluation for queries
    /// registered afterwards (on by default): with it on, queries whose
    /// decompositions begin with the same canonical leaf sequence share one
    /// refcounted partial-match table for that prefix — leaf searches,
    /// inserts and hash joins for the prefix run once registry-wide, and
    /// the prefix-root matches are fanned out (window- and
    /// boundary-filtered per subscriber). The reported match multiset is
    /// identical either way; the toggle exists for measurement (the
    /// `sharedjoin` benchmark compares leaf-only sharing against
    /// leaf+join sharing) and equivalence testing. Unlike the leaf stage,
    /// subscriptions are decided at registration time — flip the toggle
    /// before registering.
    pub fn with_join_sharing(mut self, enabled: bool) -> Self {
        self.registry.set_join_sharing(enabled);
        self
    }

    /// Snapshot of the shared join stage: live prefix tables, current
    /// subscriptions, and how much join-stage work sharing eliminated.
    pub fn shared_join_stats(&self) -> crate::SharedJoinStats {
        self.registry.shared_join_stats()
    }

    /// Total partial matches ever stored across every engine and shared
    /// prefix table — the denominator of the allocs-per-stored-match
    /// ceilings in `tests/integration_scratch.rs`.
    pub fn stored_matches(&self) -> u64 {
        self.registry.stored_matches()
    }

    /// Enables drift-adaptive re-decomposition (off by default): every
    /// [`DriftConfig::check_interval`] processed edges, each registered
    /// query's [`DriftDetector`](sp_selectivity::DriftDetector) compares the
    /// live statistics against the ranking its plan was built on; when the
    /// detector fires and the authoritative re-plan differs, the engine is
    /// swapped via [`ContinuousQueryEngine::rebuild`] (replaying the
    /// retained graph, so no partial state is lost) and its leaf shapes are
    /// re-subscribed in the shared-leaf index. `Auto`-registered queries
    /// re-run the strategy selection; `Fixed` queries keep their strategy
    /// but may re-order leaves.
    ///
    /// Adaptivity is semantics-preserving: the reported match multiset is
    /// identical with it on or off. It only pays off when the statistics
    /// actually move — pair it with a decayed estimator
    /// ([`sp_selectivity::StatsMode::Decayed`] via
    /// [`StreamProcessor::with_estimator`]) and leave statistics collection
    /// enabled.
    pub fn with_adaptive(mut self, config: DriftConfig) -> Self {
        let mut adaptive = AdaptiveRuntime::new(config);
        // Backfill detectors for queries registered before the call, with
        // their original specs: a query registered `Auto` stays auto no
        // matter which order registration and `with_adaptive` happened in.
        for (id, engine) in self.registry.iter() {
            if engine.tree().is_some() {
                let spec = self
                    .specs
                    .get(&id)
                    .copied()
                    .unwrap_or(StrategySpec::Fixed(engine.strategy()));
                adaptive.per_query.insert(
                    id,
                    QueryDriftState::new(config, engine.query(), spec, &self.estimator),
                );
            }
        }
        self.adaptive = Some(adaptive);
        self
    }

    /// Whether drift-adaptive re-decomposition is enabled.
    pub fn adaptive_enabled(&self) -> bool {
        self.adaptive.is_some()
    }

    /// Cumulative adaptivity counters (zeroes when adaptivity is off).
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        self.adaptive.as_ref().map(|a| a.stats).unwrap_or_default()
    }

    /// Registers a continuous query: decomposes it under the given strategy
    /// (or picks one via the Relative Selectivity rule for
    /// [`StrategySpec::Auto`]) against the processor's current stream
    /// statistics, and indexes it for dispatch. `window` is the query's own
    /// `tW`; the shared graph retains edges for the largest window across
    /// all registered queries.
    pub fn register(
        &mut self,
        query: QueryGraph,
        spec: impl Into<StrategySpec>,
        window: Option<u64>,
    ) -> Result<QueryId, EngineError> {
        let spec = spec.into();
        let strategy = match spec {
            StrategySpec::Fixed(s) => s,
            StrategySpec::Auto => {
                // Sharing-aware selection: the choice also reports how much
                // of the new query's leaf work the registry already pays for
                // (the rule itself is unchanged — equivalence with the
                // runtime facade's Auto path depends on that).
                let shared = self.registry.shared_leaves();
                choose_strategy_with_sharing(
                    &query,
                    &self.estimator,
                    RELATIVE_SELECTIVITY_THRESHOLD,
                    |sig| shared.contains(sig),
                )?
                .strategy
            }
        };
        let engine = ContinuousQueryEngine::new(query, strategy, &self.estimator, window)?;
        let id = self.register_engine(engine);
        // `register_engine` records a `Fixed` spec; keep `Auto` queries auto
        // so drift checks re-run the strategy selection for them.
        if spec == StrategySpec::Auto {
            self.record_registration(id, StrategySpec::Auto);
        }
        Ok(id)
    }

    /// Registers a pre-built engine (custom decompositions, replayed trees).
    /// Under adaptivity the engine's current strategy is treated as a
    /// `Fixed` registration: drift may re-order its leaves but never change
    /// the strategy.
    pub fn register_engine(&mut self, engine: ContinuousQueryEngine) -> QueryId {
        let strategy = engine.strategy();
        let id = self.registry.register_shared(engine, &self.graph);
        self.graph.set_window(self.registry.graph_retention());
        self.record_registration(id, StrategySpec::Fixed(strategy));
        id
    }

    /// Records a (re)registration's spec and, when adaptivity is on, seeds
    /// the query's drift detector against the current statistics.
    fn record_registration(&mut self, id: QueryId, spec: StrategySpec) {
        self.specs.insert(id, spec);
        if let Some(adaptive) = self.adaptive.as_mut() {
            if let Some(engine) = self.registry.engine(id) {
                if engine.tree().is_some() {
                    adaptive.per_query.insert(
                        id,
                        QueryDriftState::new(
                            adaptive.config,
                            engine.query(),
                            spec,
                            &self.estimator,
                        ),
                    );
                }
            }
        }
    }

    /// Deregisters a query mid-stream, returning its engine (and runtime
    /// state). The graph's retention window is recomputed immediately from
    /// the remaining queries (it shrinks when the removed query held the
    /// maximum `tW`), and the dispatch index stops routing the query's edge
    /// types. Deregistering the *last* query keeps the current retention
    /// window in place (rather than reverting to unbounded retention), so an
    /// idle processor does not accumulate edges forever; the next
    /// registration recomputes it.
    pub fn deregister(&mut self, id: QueryId) -> Option<ContinuousQueryEngine> {
        let engine = self.registry.deregister(id)?;
        if !self.registry.is_empty() {
            self.graph.set_window(self.registry.graph_retention());
        }
        self.specs.remove(&id);
        if let Some(adaptive) = self.adaptive.as_mut() {
            adaptive.per_query.remove(&id);
        }
        Some(engine)
    }

    /// Overrides the shared graph's retention window, bypassing the
    /// per-registry recomputation that [`StreamProcessor::register`] and
    /// [`StreamProcessor::deregister`] perform.
    ///
    /// This is the hook the parallel runtime (`sp-runtime`) uses to keep
    /// every worker's graph replica retaining edges for the *global* maximum
    /// window across all shards, so that a query registered mid-stream on
    /// any shard still finds the history it is entitled to. Callers that
    /// use the override are responsible for re-applying it after
    /// registering or deregistering queries (both recompute the window from
    /// the local registry).
    pub fn set_graph_retention(&mut self, window: Option<u64>) {
        self.graph.set_window(window);
    }

    /// Whether an event can be ingested: vertex id `u64::MAX` is the
    /// interned match rows' unbound-slot sentinel, so an event naming it is
    /// rejected at the door. The one rule behind
    /// [`StreamProcessor::process_into`] and the parallel runtime's facade.
    pub fn accepts(event: &EdgeEvent) -> bool {
        event.src != UNBOUND && event.dst != UNBOUND
    }

    /// Ingests one stream event, pushing every complete match it creates
    /// into `sink`. Returns the number of matches reported.
    ///
    /// An event [`StreamProcessor::accepts`] refuses is dropped before it
    /// touches the graph and counted in
    /// [`ProfileCounters::rejected_events`]. A vertex-type conflict (the
    /// vertex already exists with a different concrete type) keeps the
    /// original type and is recorded in
    /// [`ProfileCounters::vertex_type_conflicts`].
    pub fn process_into<S: MatchSink + ?Sized>(&mut self, event: &EdgeEvent, sink: &mut S) -> u64 {
        if !Self::accepts(event) {
            self.stream.rejected_events += 1;
            return 0;
        }
        self.stream.edges_processed += 1;
        // The single metrics branch of the hot path: with metrics off,
        // `started` stays `None` and no clock is ever read. The arrival
        // instant prefers the stamp the runtime facade put on the event (the
        // moment it left the producer) over "now", so detection latency
        // includes batching and queueing delay.
        let started = self.metrics.as_ref().map(|m| {
            m.edges.inc();
            let arrival = if event.arrival_ns != 0 {
                event.arrival_ns
            } else {
                monotonic_nanos()
            };
            (arrival, Instant::now())
        });
        let src = match self
            .graph
            .ensure_vertex(VertexId(event.src), event.src_type)
        {
            Ok(v) => v,
            Err(_) => {
                self.stream.vertex_type_conflicts += 1;
                VertexId(event.src)
            }
        };
        let dst = match self
            .graph
            .ensure_vertex(VertexId(event.dst), event.dst_type)
        {
            Ok(v) => v,
            Err(_) => {
                self.stream.vertex_type_conflicts += 1;
                VertexId(event.dst)
            }
        };
        let edge_id = self
            .graph
            .add_edge(src, dst, event.edge_type, event.timestamp);
        let edge = *self.graph.edge(edge_id).expect("edge was just inserted");

        if self.collect_statistics {
            self.estimator.observe_edge(&edge);
        }
        if let (Some(m), Some((_, t0))) = (&self.metrics, started) {
            m.ingest_ns.add(t0.elapsed().as_nanos() as u64);
        }

        let telemetry = self
            .metrics
            .as_ref()
            .zip(started)
            .map(|(pm, (arrival_ns, _))| (pm, arrival_ns));
        let found =
            self.registry
                .process_edge(&self.graph, &edge, |q, m| sink.on_match(q, m), telemetry);
        self.total_matches += found;

        self.since_purge += 1;
        if self.since_purge >= self.purge_interval {
            let span = self.metrics.as_ref().map(|_| Instant::now());
            self.graph.expire();
            self.registry.purge(&self.graph);
            self.since_purge = 0;
            if let (Some(m), Some(t)) = (&self.metrics, span) {
                m.purge_ns.add(t.elapsed().as_nanos() as u64);
            }
        }
        if let (Some(m), Some((_, t0))) = (&self.metrics, started) {
            m.edge_ns.record(t0.elapsed().as_nanos() as u64);
        }

        // Drift cadence: re-decomposition is semantics-preserving, so the
        // check point only affects *when* work is saved, never what matches
        // are reported.
        if let Some(adaptive) = self.adaptive.as_mut() {
            adaptive.since_check += 1;
            if adaptive.since_check >= adaptive.config.check_interval {
                adaptive.since_check = 0;
                self.run_drift_checks();
            }
        }
        found
    }

    /// Runs one drift check over every registered query *now* (bypassing
    /// the [`DriftConfig::check_interval`] cadence): queries whose detector
    /// fires and whose authoritative re-plan differs from the active plan
    /// are rebuilt in place. Returns the number of engines rebuilt. A no-op
    /// when adaptivity is off.
    pub fn run_drift_checks(&mut self) -> usize {
        // Take the adaptive state out so the per-query loop can borrow the
        // registry, graph and estimator freely.
        let Some(mut adaptive) = self.adaptive.take() else {
            return 0;
        };
        let ids: Vec<QueryId> = self.registry.query_ids().collect();
        let mut rebuilt = 0;
        for id in ids {
            let Some(state) = adaptive.per_query.get_mut(&id) else {
                continue;
            };
            let Some(engine) = self.registry.engine(id) else {
                continue;
            };
            let Some(tree) = engine.tree() else {
                continue;
            };
            adaptive.stats.checks += 1;
            let current_strategy = engine.strategy();
            let current_leaves = leaf_structure(tree);
            let query = engine.query().clone();
            let mut drifted = false;
            let plan = state.check_plan(
                &query,
                current_strategy,
                &current_leaves,
                &self.estimator,
                &mut drifted,
            );
            if drifted {
                adaptive.stats.drifts_detected += 1;
            }
            let Some((strategy, tree)) = plan else {
                continue;
            };
            let engine = self.registry.engine_mut(id).expect("engine exists");
            if engine.rebuild(strategy, tree, &self.graph).is_ok() {
                self.registry.resubscribe(id, &self.graph);
                adaptive.stats.redecompositions += 1;
                rebuilt += 1;
            }
        }
        self.adaptive = Some(adaptive);
        rebuilt
    }

    /// Swaps one query's decomposition for an externally supplied plan:
    /// rebuilds the engine via [`ContinuousQueryEngine::rebuild`] (replaying
    /// the retained graph, preserving the reported match multiset) and
    /// re-subscribes its leaf shapes in the shared-leaf index. This is the
    /// entry point the parallel runtime's `Redecompose` control message
    /// lands on, and a deterministic lever for tests and tooling; the
    /// drift-driven path ([`StreamProcessor::run_drift_checks`]) computes
    /// the plan itself.
    pub fn redecompose(
        &mut self,
        id: QueryId,
        strategy: Strategy,
        tree: SjTree,
    ) -> Result<(), EngineError> {
        let engine = self
            .registry
            .engine_mut(id)
            .ok_or(EngineError::UnknownQuery)?;
        engine.rebuild(strategy, tree, &self.graph)?;
        self.registry.resubscribe(id, &self.graph);
        if let Some(adaptive) = self.adaptive.as_mut() {
            if let Some(state) = adaptive.per_query.get_mut(&id) {
                let engine = self.registry.engine(id).expect("engine exists");
                state.rebase(engine.query(), &self.estimator);
            }
            adaptive.stats.redecompositions += 1;
        }
        Ok(())
    }

    /// Ingests one stream event and returns the complete matches it created,
    /// tagged with the query they belong to.
    pub fn process(&mut self, event: &EdgeEvent) -> Vec<(QueryId, SubgraphMatch)> {
        let mut sink = CollectSink::new();
        self.process_into(event, &mut sink);
        sink.into_matches()
    }

    /// Ingests a batch of stream events into one sink, returning the number
    /// of matches reported. This is the batch loop both the sequential
    /// driver ([`StreamProcessor::process_all`]) and the parallel runtime's
    /// workers route through: one registry-owned edge cache and one warm
    /// per-engine scratch serve every edge of the batch.
    pub fn process_batch_into<'a, S, I>(&mut self, events: I, sink: &mut S) -> u64
    where
        S: MatchSink + ?Sized,
        I: IntoIterator<Item = &'a EdgeEvent>,
    {
        let mut found = 0;
        for e in events {
            found += self.process_into(e, sink);
        }
        found
    }

    /// Ingests a whole stream, returning the total number of matches found
    /// across all registered queries (allocation-free per event).
    pub fn process_all<'a, I>(&mut self, events: I) -> u64
    where
        I: IntoIterator<Item = &'a EdgeEvent>,
    {
        let mut sink = CountSink::new();
        self.process_batch_into(events, &mut sink);
        sink.matches
    }

    /// The shared data graph in its current state.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The query registry.
    pub fn registry(&self) -> &QueryRegistry {
        &self.registry
    }

    /// Mutable access to the query registry.
    pub fn registry_mut(&mut self) -> &mut QueryRegistry {
        &mut self.registry
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.registry.len()
    }

    /// Ids of the registered queries, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.registry.query_ids().collect()
    }

    /// The engine of a registered query.
    pub fn engine_for(&self, id: QueryId) -> Option<&ContinuousQueryEngine> {
        self.registry.engine(id)
    }

    /// Mutable access to the engine of a registered query.
    pub fn engine_for_mut(&mut self, id: QueryId) -> Option<&mut ContinuousQueryEngine> {
        self.registry.engine_mut(id)
    }

    /// Single-query convenience: the one registered engine.
    ///
    /// # Panics
    /// Panics unless exactly one query is registered; multi-query callers
    /// use [`StreamProcessor::engine_for`].
    pub fn engine(&self) -> &ContinuousQueryEngine {
        assert_eq!(
            self.registry.len(),
            1,
            "StreamProcessor::engine() requires exactly one registered query"
        );
        self.registry.iter().next().expect("one query").1
    }

    /// Single-query convenience: mutable access to the one registered
    /// engine.
    ///
    /// # Panics
    /// Panics unless exactly one query is registered.
    pub fn engine_mut(&mut self) -> &mut ContinuousQueryEngine {
        assert_eq!(
            self.registry.len(),
            1,
            "StreamProcessor::engine_mut() requires exactly one registered query"
        );
        self.registry.iter_mut().next().expect("one query").1
    }

    /// Aggregated profiling counters: the engines' counters summed, with
    /// `edges_processed` reporting events *ingested by the processor* (each
    /// engine's own `edges_processed` counts only the edges dispatched to
    /// it) and `vertex_type_conflicts` / `rejected_events` from the
    /// ingestion path.
    pub fn profile(&self) -> ProfileCounters {
        let mut total = ProfileCounters::new();
        for (_, engine) in self.registry.iter() {
            total.merge(engine.profile());
        }
        total.edges_processed = self.stream.edges_processed;
        total.vertex_type_conflicts = self.stream.vertex_type_conflicts;
        total.rejected_events = self.stream.rejected_events;
        total
    }

    /// Profiling counters of one query's engine.
    pub fn profile_for(&self, id: QueryId) -> Option<&ProfileCounters> {
        self.registry.engine(id).map(|e| e.profile())
    }

    /// The stream statistics collected so far.
    pub fn estimator(&self) -> &SelectivityEstimator {
        &self.estimator
    }

    /// Total matches found since construction, across all queries.
    pub fn total_matches(&self) -> u64 {
        self.total_matches
    }

    /// Resets all runtime state — every engine's partial matches and
    /// counters, the processor's counters, and the data graph — while
    /// keeping the registered queries and their decompositions, so the same
    /// processor can replay another stream. Stream statistics are cleared
    /// only when live collection is enabled; an estimator seeded through
    /// [`StreamProcessor::with_estimator`] with collection disabled is
    /// external input and survives the reset.
    pub fn reset(&mut self) {
        let schema = self.graph.schema().clone();
        let window = self.registry.graph_retention();
        self.graph = DynamicGraph::new(schema);
        self.graph.set_window(window);
        for (_, engine) in self.registry.iter_mut() {
            engine.reset();
        }
        self.registry.reset_shared_state();
        if self.collect_statistics {
            let mode = self.estimator.mode();
            self.estimator = SelectivityEstimator::new().with_mode(mode);
        }
        if let Some(adaptive) = self.adaptive.as_mut() {
            adaptive.since_check = 0;
            for (id, state) in adaptive.per_query.iter_mut() {
                if let Some(engine) = self.registry.engine(*id) {
                    state.rebase(engine.query(), &self.estimator);
                }
            }
        }
        self.since_purge = 0;
        self.total_matches = 0;
        self.stream = ProfileCounters::new();
    }
}

// The parallel runtime moves engines and whole processors across worker
// threads; pin the `Send` guarantee at compile time so a future field (an
// `Rc`, a raw pointer) cannot silently take it away.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StreamProcessor>();
    assert_send::<PipelineMetrics>();
    assert_send::<ContinuousQueryEngine>();
    assert_send::<QueryRegistry>();
    assert_send::<ProfileCounters>();
    assert_send::<SubgraphMatch>();
    assert_send::<crate::sink::CollectSink>();
    assert_send::<crate::sink::CountSink>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use sp_graph::{Schema, Timestamp};
    use sp_query::QueryGraph;
    use sp_selectivity::SelectivityEstimator;

    fn simple_setup(strategy: Strategy, window: Option<u64>) -> (Schema, StreamProcessor) {
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let esp = schema.intern_edge_type("esp");
        let _ = ip;
        let mut q = QueryGraph::new("esp-tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, esp);
        q.add_edge(b, c, tcp);
        let est = SelectivityEstimator::new();
        let engine = ContinuousQueryEngine::new(q, strategy, &est, window).unwrap();
        let proc = StreamProcessor::with_engine(schema.clone(), engine);
        (schema, proc)
    }

    #[test]
    fn processes_events_and_counts_matches() {
        let (schema, mut proc) = simple_setup(Strategy::SingleLazy, None);
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let events = [
            EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1)),
            EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2)),
            EdgeEvent::homogeneous(7, 8, ip, tcp, Timestamp(3)),
        ];
        let found = proc.process_all(events.iter());
        assert_eq!(found, 1);
        assert_eq!(proc.total_matches(), 1);
        assert_eq!(proc.graph().num_edges(), 3);
        assert_eq!(proc.profile().edges_processed, 3);
    }

    #[test]
    fn metrics_record_stages_and_latency_without_changing_matches() {
        use sp_metrics::MetricsRegistry;

        let events: Vec<EdgeEvent> = {
            let (schema, _) = simple_setup(Strategy::SingleLazy, None);
            let ip = schema.vertex_type("ip").unwrap();
            let tcp = schema.edge_type("tcp").unwrap();
            let esp = schema.edge_type("esp").unwrap();
            (0..200u64)
                .map(|i| {
                    let ty = if i % 3 == 0 { esp } else { tcp };
                    EdgeEvent::homogeneous(i % 17, (i % 13) + 5, ip, ty, Timestamp(i))
                })
                .collect()
        };

        let run = |metrics: Option<&MetricsRegistry>| {
            let (_, mut proc) = simple_setup(Strategy::SingleLazy, None);
            if let Some(reg) = metrics {
                proc = proc.with_metrics(PipelineMetrics::register(reg));
            }
            let mut got: Vec<String> = Vec::new();
            {
                let mut sink = crate::sink::FnSink(|q: QueryId, m: SubgraphMatch| {
                    got.push(format!("{q}:{:?}", m.edge_pairs().collect::<Vec<_>>()));
                });
                for ev in &events {
                    proc.process_into(ev, &mut sink);
                }
            }
            got.sort();
            got
        };

        let reg = MetricsRegistry::new();
        let with = run(Some(&reg));
        let without = run(None);
        // Telemetry is observation only: identical match multiset.
        assert_eq!(with, without);
        assert!(!with.is_empty(), "test stream should produce matches");

        let snap = reg.snapshot();
        assert_eq!(snap.counter("stream.edges_total"), Some(200));
        assert_eq!(
            snap.counter("stream.matches_total"),
            Some(with.len() as u64)
        );
        // Per-edge pipeline histogram saw every edge; match latency saw
        // every match, measured from the ingest entry instant.
        assert_eq!(snap.histogram("pipeline.edge_ns").unwrap().count(), 200);
        assert_eq!(
            snap.histogram("match.latency_ns").unwrap().count(),
            with.len() as u64
        );
        // The stage spans that must run on this workload actually ticked.
        assert!(snap.counter("stage.ingest_ns").unwrap() > 0);
        assert!(snap.counter("stage.private_engine_ns").unwrap() > 0);
    }

    #[test]
    fn window_expires_graph_edges() {
        let (schema, proc) = simple_setup(Strategy::SingleLazy, Some(10));
        let mut proc = proc.with_purge_interval(1);
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        for i in 0..20u64 {
            let ev = EdgeEvent::homogeneous(i, i + 1000, ip, tcp, Timestamp(i * 5));
            proc.process(&ev);
        }
        // With a window of 10 ticks and edges every 5 ticks, only a handful
        // of edges stay live.
        assert!(proc.graph().num_edges() <= 3);
        assert!(proc.graph().total_edges_seen() == 20);
    }

    #[test]
    fn reset_clears_processor_state_between_runs() {
        let (schema, mut proc) = simple_setup(Strategy::PathLazy, None);
        let ip = schema.vertex_type("ip").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        proc.process(&EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1)));
        assert_eq!(proc.profile().edges_processed, 1);
        proc.reset();
        assert_eq!(proc.profile().edges_processed, 0);
        assert_eq!(proc.graph().num_edges(), 0);
        assert_eq!(proc.engine().strategy(), Strategy::PathLazy);
    }

    #[test]
    fn matches_are_tagged_with_their_query_id() {
        let (schema, mut proc) = simple_setup(Strategy::SingleLazy, None);
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let qid = proc.query_ids()[0];
        proc.process(&EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1)));
        let matches = proc.process(&EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2)));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].0, qid);
        assert_eq!(matches[0].1.num_edges(), 2);
    }

    #[test]
    fn vertex_type_conflicts_are_counted_not_swallowed() {
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let person = schema.intern_vertex_type("person");
        let tcp = schema.intern_edge_type("tcp");
        let mut q = QueryGraph::new("tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        let est = SelectivityEstimator::new();
        let engine = ContinuousQueryEngine::new(q, Strategy::Single, &est, None).unwrap();
        let mut proc = StreamProcessor::with_engine(schema, engine);
        // Vertex 1 first appears as "ip", then as "person": the conflict
        // keeps the original type and bumps the counter.
        proc.process(&EdgeEvent::homogeneous(1, 2, ip, tcp, Timestamp(1)));
        assert_eq!(proc.profile().vertex_type_conflicts, 0);
        proc.process(&EdgeEvent::homogeneous(1, 3, person, tcp, Timestamp(2)));
        assert_eq!(proc.profile().vertex_type_conflicts, 1);
        assert_eq!(proc.graph().vertex_type(VertexId(1)), Some(ip));
    }

    #[test]
    fn events_naming_the_unbound_sentinel_are_rejected_and_counted() {
        let (schema, _) = simple_setup(Strategy::Single, None);
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let clean = [
            EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1)),
            EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2)),
            EdgeEvent::homogeneous(2, 4, ip, tcp, Timestamp(3)),
        ];
        // The hostile events would complete the pattern through vertex
        // `u64::MAX` if they were ingested.
        let mut hostile = clean.to_vec();
        hostile.insert(
            1,
            EdgeEvent::homogeneous(2, u64::MAX, ip, tcp, Timestamp(2)),
        );
        hostile.insert(
            0,
            EdgeEvent::homogeneous(u64::MAX, 2, ip, esp, Timestamp(0)),
        );
        let run = |events: &[EdgeEvent]| {
            let (_, mut proc) = simple_setup(Strategy::Single, None);
            let mut got: Vec<String> = events
                .iter()
                .flat_map(|ev| proc.process(ev))
                .map(|(q, m)| format!("{q}:{:?}", m.vertex_pairs().collect::<Vec<_>>()))
                .collect();
            got.sort();
            (got, proc.profile())
        };
        let (expected, clean_profile) = run(&clean);
        let (got, profile) = run(&hostile);
        assert_eq!(expected.len(), 2);
        assert_eq!(got, expected);
        assert_eq!(profile.rejected_events, 2);
        assert_eq!(
            profile.edges_processed, 3,
            "rejected events are not ingested"
        );
        assert_eq!(clean_profile.rejected_events, 0);
    }

    #[test]
    fn dispatch_skips_engines_without_the_edge_type() {
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let esp = schema.intern_edge_type("esp");
        let mut proc = StreamProcessor::new(schema);
        let mut q_tcp = QueryGraph::new("tcp-only");
        let a = q_tcp.add_any_vertex();
        let b = q_tcp.add_any_vertex();
        q_tcp.add_edge(a, b, tcp);
        let mut q_esp = QueryGraph::new("esp-only");
        let a = q_esp.add_any_vertex();
        let b = q_esp.add_any_vertex();
        q_esp.add_edge(a, b, esp);
        let tcp_id = proc.register(q_tcp, Strategy::Single, None).unwrap();
        let esp_id = proc.register(q_esp, Strategy::Single, None).unwrap();

        for i in 0..10u64 {
            proc.process(&EdgeEvent::homogeneous(i, i + 100, ip, tcp, Timestamp(i)));
        }
        proc.process(&EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(50)));

        // The esp engine never saw the 10 tcp edges; the tcp engine never
        // saw the esp edge. The processor ingested all 11.
        assert_eq!(proc.profile_for(tcp_id).unwrap().edges_processed, 10);
        assert_eq!(proc.profile_for(esp_id).unwrap().edges_processed, 1);
        assert_eq!(proc.profile().edges_processed, 11);
        assert_eq!(proc.total_matches(), 11);
    }

    #[test]
    fn deregister_returns_the_engine_and_stops_dispatch() {
        let (schema, mut proc) = simple_setup(Strategy::SingleLazy, None);
        let ip = schema.vertex_type("ip").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let qid = proc.query_ids()[0];
        proc.process(&EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1)));
        let engine = proc.deregister(qid).expect("registered");
        assert_eq!(engine.profile().edges_processed, 1);
        assert_eq!(proc.num_queries(), 0);
        // Further events are ingested into the graph but matched by no one.
        proc.process(&EdgeEvent::homogeneous(2, 3, ip, esp, Timestamp(2)));
        assert_eq!(proc.total_matches(), 0);
        assert!(proc.deregister(qid).is_none());
    }

    #[test]
    fn deregister_recomputes_retention_and_dispatch_immediately() {
        // Regression test: removing the query with the widest window must
        // shrink the graph's retention to the remaining maximum right away
        // (not keep the old maximum), and the dispatch index must stop
        // routing the removed query's edge types.
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let esp = schema.intern_edge_type("esp");
        let mut proc = StreamProcessor::new(schema);
        let mut wide = QueryGraph::new("wide");
        let a = wide.add_any_vertex();
        let b = wide.add_any_vertex();
        wide.add_edge(a, b, esp);
        let mut narrow = QueryGraph::new("narrow");
        let a = narrow.add_any_vertex();
        let b = narrow.add_any_vertex();
        narrow.add_edge(a, b, tcp);
        let wide_id = proc.register(wide, Strategy::Single, Some(1_000)).unwrap();
        let narrow_id = proc.register(narrow, Strategy::Single, Some(10)).unwrap();
        assert_eq!(proc.graph().window(), Some(1_000));

        proc.deregister(wide_id).expect("wide query was registered");
        // Retention shrinks immediately, not on the next purge.
        assert_eq!(proc.graph().window(), Some(10));
        assert!(proc.registry().candidates(esp).is_empty());
        assert_eq!(proc.registry().candidates(tcp), &[narrow_id]);

        // With the narrow window in force, old edges actually expire.
        let mut proc = proc.with_purge_interval(1);
        for i in 0..50u64 {
            proc.process(&EdgeEvent::homogeneous(
                i,
                i + 500,
                ip,
                tcp,
                Timestamp(i * 10),
            ));
        }
        assert!(proc.graph().num_edges() <= 2);
    }

    #[test]
    fn set_graph_retention_overrides_registry_window() {
        let (_, mut proc) = simple_setup(Strategy::SingleLazy, Some(10));
        assert_eq!(proc.graph().window(), Some(10));
        // The runtime facade widens retention beyond the local registry's
        // maximum (e.g. another shard holds a wider query).
        proc.set_graph_retention(Some(500));
        assert_eq!(proc.graph().window(), Some(500));
        proc.set_graph_retention(None);
        assert_eq!(proc.graph().window(), None);
    }

    #[test]
    fn deregistering_the_last_query_keeps_graph_retention() {
        let (schema, mut proc) = simple_setup(Strategy::SingleLazy, Some(100));
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let qid = proc.query_ids()[0];
        assert_eq!(proc.graph().window(), Some(100));
        proc.deregister(qid);
        // The retention window survives so an idle processor keeps expiring
        // old edges instead of accumulating them forever.
        assert_eq!(proc.graph().window(), Some(100));
        let mut proc = proc.with_purge_interval(1);
        for i in 0..50u64 {
            proc.process(&EdgeEvent::homogeneous(
                i,
                i + 500,
                ip,
                tcp,
                Timestamp(i * 10),
            ));
        }
        assert!(proc.graph().num_edges() < 50);
    }

    #[test]
    fn reset_preserves_an_externally_seeded_estimator() {
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let mut seed = SelectivityEstimator::new();
        seed.observe_edge(&sp_graph::EdgeData {
            id: sp_graph::EdgeId(0),
            src: VertexId(1),
            dst: VertexId(2),
            edge_type: tcp,
            timestamp: Timestamp(1),
        });
        let mut proc = StreamProcessor::new(schema)
            .with_estimator(seed)
            .with_statistics(false);
        proc.process(&EdgeEvent::homogeneous(1, 2, ip, tcp, Timestamp(1)));
        proc.reset();
        // With live collection disabled the estimator is external input and
        // must survive the reset.
        assert_eq!(proc.estimator().num_edges_observed(), 1);
    }

    #[test]
    fn auto_strategy_registration_uses_stream_statistics() {
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let esp = schema.intern_edge_type("esp");
        let mut proc = StreamProcessor::new(schema);
        // Warm the live statistics with plenty of traffic.
        for i in 0..200u64 {
            proc.process(&EdgeEvent::homogeneous(i, i + 1, ip, tcp, Timestamp(i)));
        }
        proc.process(&EdgeEvent::homogeneous(500, 501, ip, esp, Timestamp(300)));
        let mut q = QueryGraph::new("esp-tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, esp);
        q.add_edge(b, c, tcp);
        let qid = proc.register(q, StrategySpec::Auto, None).unwrap();
        let chosen = proc.engine_for(qid).unwrap().strategy();
        assert!(chosen.is_lazy(), "auto picks a lazy strategy, got {chosen}");
    }

    #[test]
    fn drift_check_rebuilds_the_engine_when_the_ranking_flips() {
        use sp_selectivity::StatsMode;
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let esp = schema.intern_edge_type("esp");
        let mut proc = StreamProcessor::new(schema)
            .with_estimator(SelectivityEstimator::new().with_mode(StatsMode::Decayed(64)))
            .with_adaptive(sp_selectivity::DriftConfig {
                check_interval: 32,
                min_observations: 32,
                confirm_checks: 1,
            });
        assert!(proc.adaptive_enabled());
        // Phase 1: esp is rare.
        for i in 0..180u64 {
            let t = if i % 10 == 0 { esp } else { tcp };
            proc.process(&EdgeEvent::homogeneous(i, i + 1000, ip, t, Timestamp(i)));
        }
        let mut q = QueryGraph::new("esp-tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, esp);
        q.add_edge(b, c, tcp);
        let qid = proc.register(q, Strategy::SingleLazy, Some(50)).unwrap();
        let leaf0_before = {
            let tree = proc.engine_for(qid).unwrap().tree().unwrap();
            tree.subgraph(tree.leaf(0)).primitive(tree.query()).unwrap()
        };
        assert_eq!(leaf0_before, sp_query::Primitive::SingleEdge(esp));

        // Phase 2: the mix inverts — esp floods, tcp dries up.
        for i in 0..600u64 {
            let t = if i % 10 == 0 { tcp } else { esp };
            proc.process(&EdgeEvent::homogeneous(
                10_000 + i,
                20_000 + i,
                ip,
                t,
                Timestamp(200 + i),
            ));
        }
        let stats = proc.adaptive_stats();
        assert!(stats.checks > 0);
        assert!(
            stats.redecompositions >= 1,
            "ranking flip must trigger a rebuild: {stats:?}"
        );
        assert_eq!(
            proc.profile_for(qid).unwrap().redecompositions,
            stats.redecompositions
        );
        let leaf0_after = {
            let tree = proc.engine_for(qid).unwrap().tree().unwrap();
            tree.subgraph(tree.leaf(0)).primitive(tree.query()).unwrap()
        };
        assert_eq!(
            leaf0_after,
            sp_query::Primitive::SingleEdge(tcp),
            "the now-rare tcp leaf must lead the decomposition"
        );
    }

    #[test]
    fn redecompose_swaps_plans_and_rejects_unknown_ids() {
        let (schema, mut proc) = simple_setup(Strategy::SingleLazy, Some(100));
        let ip = schema.vertex_type("ip").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let qid = proc.query_ids()[0];
        // Live partial mid-window, then an externally supplied flipped plan.
        proc.process(&EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1)));
        let q = proc.engine_for(qid).unwrap().query().clone();
        let leaves = vec![
            sp_query::QuerySubgraph::from_edges(&q, [sp_query::QueryEdgeId(1)]),
            sp_query::QuerySubgraph::from_edges(&q, [sp_query::QueryEdgeId(0)]),
        ];
        let flipped = SjTree::from_leaves(q.clone(), leaves);
        proc.redecompose(qid, Strategy::SingleLazy, flipped.clone())
            .unwrap();
        assert_eq!(proc.profile_for(qid).unwrap().redecompositions, 1);
        // The partial still completes exactly once after the swap.
        let matches = proc.process(&EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2)));
        assert_eq!(matches.len(), 1);
        assert!(matches!(
            proc.redecompose(QueryId(999), Strategy::SingleLazy, flipped),
            Err(EngineError::UnknownQuery)
        ));
    }

    #[test]
    fn register_rejects_empty_queries() {
        let schema = Schema::new();
        let mut proc = StreamProcessor::new(schema);
        let q = QueryGraph::new("empty");
        assert!(proc.register(q, StrategySpec::Auto, None).is_err());
    }
}
