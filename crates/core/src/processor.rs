//! The stream processor: one shared data graph, many continuous queries.
//!
//! [`StreamProcessor`] is the "query processing" half of the paper's
//! experimental setup (Section 6.1), generalized to the multi-query
//! deployment the system paper (StreamWorks) describes. It is the sequential
//! front end over the two halves of the engine: a
//! [`ControlPlane`] that plans, numbers and re-plans queries from the stream
//! statistics, and one [`Shard`] — **one** [`DynamicGraph`] shared by every
//! registered query, into which [`EdgeEvent`]s stream exactly once and are
//! dispatched through the [`QueryRegistry`]'s edge-type index so that only
//! the engines whose pattern can use the edge are invoked — applied inline.
//! Windowing is per query: the graph retains edges for the *largest*
//! registered window while each engine filters and purges with its own `tW`.
//!
//! Matches are pushed into a [`MatchSink`]; [`StreamProcessor::process`] is
//! the convenience wrapper that collects them into a vector.

use crate::adaptive::AdaptiveStats;
use crate::control::ControlPlane;
use crate::engine::ContinuousQueryEngine;
use crate::error::EngineError;
use crate::metrics::PipelineMetrics;
use crate::profile::ProfileCounters;
use crate::registry::{QueryId, QueryRegistry, StrategySpec};
use crate::shard::Shard;
use crate::sink::{CollectSink, CountSink, MatchSink};
use crate::strategy::Strategy;
use sp_graph::{DynamicGraph, EdgeEvent, Schema};
use sp_iso::SubgraphMatch;
use sp_query::QueryGraph;
use sp_selectivity::{DriftConfig, SelectivityEstimator};
use sp_sjtree::SjTree;

/// A [`ControlPlane`] and the one [`Shard`] it drives, on the caller's
/// thread.
#[derive(Debug, Clone)]
pub struct StreamProcessor {
    control: ControlPlane,
    shard: Shard,
}

impl StreamProcessor {
    /// Creates a processor with an empty data graph and no registered
    /// queries. Register queries with [`StreamProcessor::register`] (or
    /// [`StreamProcessor::register_engine`]); until a query is registered,
    /// processed edges only grow the graph.
    pub fn new(schema: Schema) -> Self {
        Self {
            control: ControlPlane::new(),
            shard: Shard::new(schema),
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
        self.shard.set_purge_interval(interval);
        self
    }

    /// Enables or disables continuous stream-statistics collection (on by
    /// default). The statistics feed [`StrategySpec::Auto`] registration;
    /// disable them to reproduce the paper's measurement methodology, where
    /// statistics come from a stream prefix only.
    pub fn with_statistics(mut self, enabled: bool) -> Self {
        self.control.set_statistics(enabled);
        self
    }

    /// Seeds the processor's stream statistics, e.g. from
    /// `Dataset::estimator_from_prefix`. Subsequent edges keep updating the
    /// estimator unless statistics collection is disabled.
    pub fn with_estimator(mut self, estimator: SelectivityEstimator) -> Self {
        self.control.set_estimator(estimator);
        self
    }

    /// Attaches telemetry (off by default): every processed edge records
    /// per-stage timing spans and every reported match records its
    /// detection latency into the bundle's histograms — see
    /// [`PipelineMetrics`] for the metric catalogue. With metrics off the
    /// hot path pays one branch and reads no clock.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> Self {
        self.shard.set_metrics(Some(metrics));
        self
    }

    /// Enables or disables shared-leaf evaluation (on by default): with
    /// sharing on, structurally identical SJ-Tree leaves from different
    /// registered queries are searched **once** per edge and the results
    /// fanned out; with sharing off every engine re-runs its own anchored
    /// searches. The reported match multiset is identical either way — the
    /// toggle exists for measurement (the `sharing` benchmark) and
    /// equivalence testing.
    pub fn with_sharing(mut self, enabled: bool) -> Self {
        self.shard.registry_mut().set_sharing(enabled);
        self
    }

    /// Snapshot of the shared-leaf index: distinct leaf shapes, current
    /// subscriptions, and how many anchored searches sharing eliminated.
    pub fn shared_leaf_stats(&self) -> crate::SharedLeafStats {
        self.registry().shared_leaf_stats()
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
        self.shard.registry_mut().set_join_sharing(enabled);
        self
    }

    /// Snapshot of the shared join stage: live prefix tables, current
    /// subscriptions, and how much join-stage work sharing eliminated.
    pub fn shared_join_stats(&self) -> crate::SharedJoinStats {
        self.registry().shared_join_stats()
    }

    /// Total partial matches ever stored across every engine and shared
    /// prefix table — the denominator of the allocs-per-stored-match
    /// ceilings in `tests/integration_scratch.rs`.
    pub fn stored_matches(&self) -> u64 {
        self.registry().stored_matches()
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
    /// but may re-order leaves — whichever order registration and this call
    /// happened in.
    ///
    /// Adaptivity is semantics-preserving: the reported match multiset is
    /// identical with it on or off. It only pays off when the statistics
    /// actually move — pair it with a decayed estimator
    /// ([`sp_selectivity::StatsMode::Decayed`] via
    /// [`StreamProcessor::with_estimator`]) and leave statistics collection
    /// enabled.
    pub fn with_adaptive(mut self, config: DriftConfig) -> Self {
        self.control.set_adaptive(config);
        self
    }

    /// Cumulative adaptivity counters (zeroes when adaptivity is off).
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        self.control.adaptive_stats()
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
        let (id, engine) = self.control.plan(query, spec.into(), window)?;
        self.install(id, engine);
        Ok(id)
    }

    /// Registers a pre-built engine (custom decompositions, replayed trees).
    /// Under adaptivity the engine's current strategy is treated as a
    /// `Fixed` registration: drift may re-order its leaves but never change
    /// the strategy.
    pub fn register_engine(&mut self, engine: ContinuousQueryEngine) -> QueryId {
        let id = self.control.adopt(&engine);
        self.install(id, engine);
        id
    }

    fn install(&mut self, id: QueryId, engine: ContinuousQueryEngine) {
        self.shard.register(id, engine);
        self.shard.set_retention(self.control.retention());
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
        let engine = self.shard.deregister(id)?;
        self.control.forget(id);
        self.shard.set_retention(self.control.retention());
        Some(engine)
    }

    /// Ingests one stream event, pushing every complete match it creates
    /// into `sink` ([`Shard::process_into`], with the accepted edge feeding
    /// the control plane's statistics). Returns the number of matches
    /// reported.
    pub fn process_into<S: MatchSink + ?Sized>(&mut self, event: &EdgeEvent, sink: &mut S) -> u64 {
        let control = &mut self.control;
        let found = self
            .shard
            .process_into(event, sink, |edge| control.observe(edge));
        // Drift cadence: re-decomposition is semantics-preserving, so the
        // check point only affects *when* work is saved, never what matches
        // are reported.
        if self.control.drift_due() {
            self.run_drift_checks();
        }
        found
    }

    /// Runs one drift check over every registered query *now* (bypassing
    /// the [`DriftConfig::check_interval`] cadence): queries whose detector
    /// fires and whose authoritative re-plan differs from the active plan
    /// are rebuilt in place. Returns the number of engines rebuilt. A no-op
    /// when adaptivity is off.
    pub fn run_drift_checks(&mut self) -> usize {
        let plans = self.control.check_drift();
        let rebuilt = plans.len();
        for (id, strategy, tree) in plans {
            self.shard
                .redecompose(id, strategy, tree)
                .expect("the control plane re-planned a query this shard runs");
        }
        rebuilt
    }

    /// Swaps one query's decomposition for an externally supplied plan:
    /// rebuilds the engine via [`ContinuousQueryEngine::rebuild`] (replaying
    /// the retained graph, preserving the reported match multiset) and
    /// re-subscribes its leaf shapes in the shared-leaf index. A
    /// deterministic lever for tests and tooling; the drift-driven path
    /// ([`StreamProcessor::run_drift_checks`]) computes the plan itself.
    pub fn redecompose(
        &mut self,
        id: QueryId,
        strategy: Strategy,
        tree: SjTree,
    ) -> Result<(), EngineError> {
        self.shard.redecompose(id, strategy, tree)?;
        let tree = self.shard.registry().engine(id).and_then(|e| e.tree());
        self.control
            .replanned(id, strategy, tree.expect("rebuilt onto an SJ-Tree"));
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
    /// of matches reported: one registry-owned edge cache and one warm
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
        self.shard.graph()
    }

    /// The query registry.
    pub fn registry(&self) -> &QueryRegistry {
        self.shard.registry()
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.registry().len()
    }

    /// Ids of the registered queries, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.registry().query_ids().collect()
    }

    /// The engine of a registered query.
    pub fn engine_for(&self, id: QueryId) -> Option<&ContinuousQueryEngine> {
        self.registry().engine(id)
    }

    /// Single-query convenience: the one registered engine.
    ///
    /// # Panics
    /// Panics unless exactly one query is registered; multi-query callers
    /// use [`StreamProcessor::engine_for`].
    pub fn engine(&self) -> &ContinuousQueryEngine {
        assert_eq!(
            self.num_queries(),
            1,
            "StreamProcessor::engine() requires exactly one registered query"
        );
        self.registry().iter().next().expect("one query").1
    }

    /// Aggregated profiling counters ([`Shard::profile`]): the engines'
    /// counters summed, with `edges_processed` reporting events *ingested by
    /// the processor* and `vertex_type_conflicts` / `rejected_events` from
    /// the ingestion path.
    pub fn profile(&self) -> ProfileCounters {
        self.shard.profile()
    }

    /// Profiling counters of one query's engine.
    pub fn profile_for(&self, id: QueryId) -> Option<&ProfileCounters> {
        self.engine_for(id).map(|e| e.profile())
    }

    /// The stream statistics collected so far.
    pub fn estimator(&self) -> &SelectivityEstimator {
        self.control.estimator()
    }

    /// Total matches found since construction, across all queries.
    pub fn total_matches(&self) -> u64 {
        self.shard.total_matches()
    }
}

// The parallel runtime moves engines and whole shards across worker
// threads; pin the `Send` guarantee at compile time so a future field (an
// `Rc`, a raw pointer) cannot silently take it away.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StreamProcessor>();
    assert_send::<Shard>();
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
    use sp_graph::{Schema, Timestamp, VertexId};
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
