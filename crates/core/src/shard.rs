//! The data half: one data graph, the engines registered on it, and the
//! per-edge pipeline between them ([`Shard`]).
//!
//! An incoming edge is only handed to the engines whose query contains that
//! edge's type: an *edge-type → candidate queries* dispatch index routes it,
//! and every other engine provably never sees the edge (its
//! [`ProfileCounters::edges_processed`] stays put). Skipping is sound: a
//! leaf search anchored at an edge whose type occurs nowhere in the query
//! can neither produce a leaf match nor enable a lazy search, and the VF2
//! baseline only reports embeddings that use the new edge.

use crate::control::QueryId;
use crate::engine::ContinuousQueryEngine;
use crate::error::EngineError;
use crate::metrics::{PipelineMetrics, StageClock};
use crate::profile::ProfileCounters;
use crate::sharedjoin::{JoinDelivery, SharedJoinIndex, SharedSource};
use crate::sink::RowSink;
use crate::strategy::Strategy;
use sp_graph::{monotonic_nanos, DynamicGraph, EdgeData, EdgeEvent, EdgeType, FastMap, Schema};
use sp_sjtree::{SjTree, UNBOUND};
use std::collections::BTreeMap;
use std::time::Instant;

/// Default number of edges between purge passes. The pass expires the
/// graph's edges, sweeps every engine's partial matches and sweeps the
/// **unwindowed** shared prefix tables; a windowed table expires its own rows
/// before each edge it takes, off this cadence (see
/// [`SharedJoinIndex`]).
pub const DEFAULT_PURGE_INTERVAL: u64 = 4096;

/// One executor of the stream: a data graph, the engines registered on it,
/// and the per-edge pipeline between them.
///
/// A shard decides nothing. Its [`Processor`](crate::Processor) tells it,
/// through a job its executor runs, which engine to run under which id, how
/// long to retain edges and which plan to rebuild an engine onto; it owns
/// the [`DynamicGraph`], the engines with their dispatch index and the
/// shared join stage, the purge cadence, the telemetry handles and the
/// stream counters.
#[derive(Debug, Clone)]
pub struct Shard {
    graph: DynamicGraph,
    /// Engines by query id; a `BTreeMap` keeps iteration (and therefore match
    /// reporting) in registration order.
    engines: BTreeMap<QueryId, ContinuousQueryEngine>,
    /// Edge type → queries whose pattern contains an edge of that type.
    dispatch: FastMap<EdgeType, Vec<QueryId>>,
    /// Canonical SJ-Tree prefix → refcounted shared partial-match table;
    /// deduplicates the join stage across queries with common decomposition
    /// prefixes (see [`SharedJoinIndex`]).
    join: SharedJoinIndex,
    /// Reusable flat buffer for the complete matches of an engine that ran
    /// (full-depth shared-join subscribers bypass it), as rows of that
    /// engine's layout; handed to the sink as one burst per engine.
    complete: Vec<u64>,
    purge_interval: u64,
    since_purge: u64,
    total_matches: u64,
    /// Events rejected, and vertex-type conflicts; the graph counts the
    /// events ingested.
    stream: ProfileCounters,
    /// Telemetry handles; `None` (the default) keeps the hot path at a
    /// single branch with no clock reads.
    metrics: Option<PipelineMetrics>,
}

impl Shard {
    /// A shard with an empty data graph and no registered engine. Until one
    /// is registered, processed edges only grow the graph.
    pub fn new(schema: Schema) -> Self {
        Self {
            graph: DynamicGraph::new(schema),
            engines: BTreeMap::new(),
            dispatch: FastMap::default(),
            join: SharedJoinIndex::new(),
            complete: Vec::new(),
            purge_interval: DEFAULT_PURGE_INTERVAL,
            since_purge: 0,
            total_matches: 0,
            stream: ProfileCounters::new(),
            metrics: None,
        }
    }

    /// Overrides how many edges are processed between purge passes (see
    /// [`DEFAULT_PURGE_INTERVAL`] for what a pass covers). Clamped to at
    /// least 1.
    pub(crate) fn set_purge_interval(&mut self, interval: u64) {
        self.purge_interval = interval.max(1);
    }

    /// Attaches or detaches telemetry: with it, every processed edge records
    /// per-stage timing spans and every reported match its detection latency
    /// — see [`PipelineMetrics`] for the catalogue.
    pub(crate) fn set_metrics(&mut self, metrics: Option<PipelineMetrics>) {
        self.metrics = metrics;
    }

    /// Starts running `engine` under the id its control plane allocated:
    /// sets its registration boundary to the current stream position,
    /// indexes it under every edge type its query uses, subscribes it to the
    /// shared join stage — its decomposition's canonical prefix chain is
    /// matched against the live tables and the other registered chains,
    /// possibly creating a new refcounted table and migrating previously
    /// private partners onto it (see [`SharedJoinIndex`]).
    ///
    /// # Panics
    /// Panics when `id` is already registered (ids are never reused).
    pub fn register(&mut self, id: QueryId, mut engine: ContinuousQueryEngine) {
        for edge in engine.query().edges() {
            let slot = self.dispatch.entry(edge.edge_type).or_default();
            if !slot.contains(&id) {
                slot.push(id);
            }
        }
        engine.boundary = self.graph.total_edges_seen();
        let previous = self.engines.insert(id, engine);
        assert!(previous.is_none(), "query id {id} registered twice");
        self.subscribe_join(id);
    }

    /// Runs the shared-join placement for one query (newly registered or
    /// freshly re-decomposed) and applies every placement it made — the
    /// query's own and those of the partners it pulled in: each placed
    /// engine drops its private tables for the prefix of `depth` leaves it
    /// now rides (`0`: none, it stays private).
    fn subscribe_join(&mut self, id: QueryId) {
        let now = self.graph.total_edges_seen();
        for (q, depth) in self.join.subscribe(id, &self.engines, now, &self.graph) {
            let engine = self.engines.get_mut(&q).expect("subscribed engine exists");
            engine.clear_prefix_state(depth);
        }
    }

    /// Stops running a query, returning its engine with runtime state
    /// intact (`None` for an id this shard does not run). The dispatch index
    /// drops the query from every edge-type slot, and a prefix table whose
    /// last subscriber left is dropped.
    pub fn deregister(&mut self, id: QueryId) -> Option<ContinuousQueryEngine> {
        let engine = self.engines.remove(&id)?;
        self.dispatch.retain(|_, ids| {
            ids.retain(|&q| q != id);
            !ids.is_empty()
        });
        self.join.unsubscribe(id);
        Some(engine)
    }

    /// Sets how long the graph retains edges; takes effect at the next purge
    /// pass.
    pub fn set_retention(&mut self, window: Option<u64>) {
        self.graph.set_window(window);
    }

    /// Swaps one query's decomposition for the given plan: rebuilds the
    /// engine via [`ContinuousQueryEngine::rebuild`] (replaying the retained
    /// graph, preserving the reported match multiset), then drops its old
    /// prefix subscription (a table whose last subscriber left is evicted)
    /// and subscribes the new decomposition in its place
    /// with the query's **original** registration boundary, so the rebuilt
    /// engine keeps seeing exactly the matches a never-rebuilt one would.
    /// The dispatch index needs no update: a re-decomposition never changes
    /// the query's edge types.
    ///
    /// # Errors
    /// [`EngineError::UnknownQuery`] for an id this shard does not run, or
    /// the rebuild's error — the old plan stays in force either way.
    pub fn redecompose(
        &mut self,
        id: QueryId,
        strategy: Strategy,
        tree: SjTree,
    ) -> Result<(), EngineError> {
        let engine = self.engines.get_mut(&id).ok_or(EngineError::UnknownQuery)?;
        engine.rebuild(strategy, tree, &self.graph)?;
        self.join.unsubscribe(id);
        self.subscribe_join(id);
        Ok(())
    }

    /// Whether an event can be ingested: vertex id `u64::MAX` is the
    /// interned match rows' unbound-slot sentinel, so an event naming it is
    /// rejected at the door ([`Shard::process_into`]).
    pub fn accepts(event: &EdgeEvent) -> bool {
        event.src != UNBOUND && event.dst != UNBOUND
    }

    /// Ingests one stream event, handing every complete match it creates to
    /// `sink` as a row. Returns the number of matches reported.
    ///
    /// An event [`Shard::accepts`] refuses is dropped before it touches the
    /// graph and counted in [`ProfileCounters::rejected_events`]. A
    /// vertex-type conflict (the vertex already exists with a different
    /// concrete type) keeps the original type and is recorded in
    /// [`ProfileCounters::vertex_type_conflicts`].
    ///
    /// `observe` is handed every accepted edge once it is in the graph,
    /// inside the ingest span: inline, the control plane's statistics; a
    /// worker thread, whose statistics live on the facade, passes a no-op.
    ///
    /// With metrics attached, a match's detection latency counts from this
    /// call's entry.
    #[inline]
    pub fn process_into<S: RowSink + ?Sized>(
        &mut self,
        event: &EdgeEvent,
        sink: &mut S,
        observe: impl FnOnce(&EdgeData),
    ) -> u64 {
        self.process_arrived_into(event, 0, sink, observe)
    }

    /// [`Shard::process_into`] for an event that reached the stream at
    /// `arrival_ns` ([`monotonic_nanos`] scale; 0: at this call's entry).
    /// A worker passes the instant its facade took the event in, so
    /// detection latency includes batching and queueing delay. The stamp is
    /// read only with metrics attached.
    pub(crate) fn process_arrived_into<S: RowSink + ?Sized>(
        &mut self,
        event: &EdgeEvent,
        arrival_ns: u64,
        sink: &mut S,
        observe: impl FnOnce(&EdgeData),
    ) -> u64 {
        if !Self::accepts(event) {
            self.stream.rejected_events += 1;
            return 0;
        }
        // The single metrics branch of the hot path: with metrics off,
        // `started` stays `None` and no clock is ever read. The ingest span
        // opens first, so the arrival clock read of an unstamped event falls
        // inside it.
        let started = self.metrics.as_ref().map(|m| {
            let t0 = Instant::now();
            m.edges.inc();
            let arrival = if arrival_ns != 0 {
                arrival_ns
            } else {
                monotonic_nanos()
            };
            (arrival, t0)
        });
        let (edge, conflicts) = self.graph.ingest(event);
        self.stream.vertex_type_conflicts += conflicts;
        observe(&edge);
        if let (Some(m), Some((_, t0))) = (&self.metrics, started) {
            m.ingest_ns.add(t0.elapsed().as_nanos() as u64);
        }

        let found = self.dispatch_edge(&edge, sink, started.map_or(0, |(arrival, _)| arrival));
        self.total_matches += found;

        self.since_purge += 1;
        if self.since_purge >= self.purge_interval {
            let span = self.metrics.as_ref().map(|_| Instant::now());
            self.graph.expire();
            for engine in self.engines.values_mut() {
                engine.purge(&self.graph);
            }
            self.join.purge(&self.graph);
            self.since_purge = 0;
            if let (Some(m), Some(t)) = (&self.metrics, span) {
                m.purge_ns.add(t.elapsed().as_nanos() as u64);
            }
        }
        if let (Some(m), Some((_, t0))) = (&self.metrics, started) {
            m.edge_ns.record(t0.elapsed().as_nanos() as u64);
        }
        found
    }

    /// Dispatches one new edge (already in the graph) to every candidate
    /// engine and forwards the complete matches to `sink`, as rows. Returns
    /// the number of matches reported.
    ///
    /// The shared **join** stage first advances each live canonical prefix
    /// table once for the edge. Then every candidate is served in dispatch
    /// order: a subscriber whose prefix spans its whole tree has its matches
    /// handed from the table's emission rows straight to `sink` (no engine
    /// involved); any other candidate's engine runs its one leaf loop
    /// ([`ContinuousQueryEngine::process_edge_into`]), searching every leaf
    /// that survives the loop's type filter, Lazy Search gate and
    /// type-signature refusal, after pulling a partial-depth subscriber's
    /// prefix-root rows from its table through the shard's
    /// [`SharedSource`]. An engine that runs
    /// reports its root joins into the flat `complete` buffer, passed to
    /// `sink` as one burst. Each candidate's matches arrive in emission
    /// order.
    ///
    /// With metrics attached the same code additionally records the
    /// per-stage spans (see [`PipelineMetrics`] for the span boundaries)
    /// and, once per delivering candidate, the burst's match count and its
    /// detection latency since the event's arrival instant `arrival_ns`
    /// (`monotonic_nanos` scale).
    /// Without metrics no clock is read.
    // Kept out of line: inlined into `process_into`, this loop has made the
    // compiler stop inlining `SharedJoinIndex::deliver`, at ~10 % of
    // `netflow_storm` throughput.
    #[inline(never)]
    fn dispatch_edge(
        &mut self,
        edge: &EdgeData,
        sink: &mut (impl RowSink + ?Sized),
        arrival_ns: u64,
    ) -> u64 {
        let Shard {
            graph,
            engines,
            dispatch,
            join,
            complete,
            metrics,
            ..
        } = self;
        let mut clock = StageClock::start(metrics.as_ref());
        let ids = dispatch.get(&edge.edge_type);
        clock.charge(|m| &m.dispatch_ns);
        let Some(ids) = ids else {
            return 0;
        };
        let mut reported = 0;
        // Advance every shared prefix table this edge can touch — one
        // search-and-join pass per table, not per subscriber. No table of
        // the edge's type, no span.
        if join.advance_edge(graph, edge) {
            clock.charge(|m| &m.shared_join_ns);
        }
        for &id in ids {
            let engine = engines
                .get_mut(&id)
                .expect("dispatch index only references live queries");
            let found = match join.deliver(id, edge, sink) {
                JoinDelivery::Complete { delivered, shared } => {
                    // Filter + materialize + sink call: delivery, not join.
                    engine.record_shared_delivery(delivered, shared);
                    delivered
                }
                JoinDelivery::Engine(prefix) => {
                    let mut source = SharedSource {
                        prefix,
                        clock: &mut clock,
                    };
                    engine.process_edge_into(graph, edge, Some(&mut source), complete);
                    clock.charge(|m| &m.private_engine_ns);
                    let layout = engine.row_layout();
                    if !complete.is_empty() {
                        sink.on_rows(id, layout, complete);
                    }
                    (complete.len() / layout.stride()) as u64
                }
            };
            clock.charge(|m| &m.emit_ns);
            if let Some(m) = metrics.as_ref().filter(|_| found > 0) {
                // One clock read for the whole burst.
                m.matches.add(found);
                m.match_latency_ns
                    .record_n(monotonic_nanos().saturating_sub(arrival_ns), found);
            }
            reported += found;
        }
        reported
    }

    /// The data graph in its current state.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The engine of a query.
    pub fn engine(&self, id: QueryId) -> Option<&ContinuousQueryEngine> {
        self.engines.get(&id)
    }

    /// The `(id, engine)` pairs this shard runs, in registration order.
    pub fn engines(&self) -> impl Iterator<Item = (QueryId, &ContinuousQueryEngine)> + '_ {
        self.engines.iter().map(|(&id, e)| (id, e))
    }

    /// Number of queries this shard runs.
    pub fn num_queries(&self) -> usize {
        self.engines.len()
    }

    /// The queries whose pattern contains the given edge type (the dispatch
    /// index lookup). The slice is in registration order.
    pub fn candidates(&self, edge_type: EdgeType) -> &[QueryId] {
        self.dispatch
            .get(&edge_type)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Read access to the shared join stage (its trie nodes, each query's
    /// subscription depth and its bookkeeping).
    pub fn shared_joins(&self) -> &SharedJoinIndex {
        &self.join
    }

    /// Total partial matches ever stored across every live engine and
    /// shared prefix table — the denominator of the allocs-per-stored-match
    /// ceilings in `tests/integration_scratch.rs`.
    pub fn stored_matches(&self) -> u64 {
        self.engines
            .values()
            .map(ContinuousQueryEngine::stored_matches)
            .sum::<u64>()
            + self.join.lifetime_stored()
    }

    /// Aggregated profiling counters: the engines' counters summed, with
    /// the stream-level `edges_processed` (events ingested: each engine's
    /// own counts only the edges dispatched to it), `vertex_type_conflicts`
    /// and `rejected_events` from the ingestion path.
    pub fn profile(&self) -> ProfileCounters {
        let mut total = ProfileCounters::new();
        for engine in self.engines.values() {
            total.merge(engine.profile());
        }
        total.edges_processed = self.graph.total_edges_seen();
        total.vertex_type_conflicts = self.stream.vertex_type_conflicts;
        total.rejected_events = self.stream.rejected_events;
        total
    }

    /// Total matches found since construction, across all queries.
    pub fn total_matches(&self) -> u64 {
        self.total_matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlPlane;
    use sp_query::QueryGraph;
    use sp_selectivity::SelectivityEstimator;

    /// A shard on an empty graph, with ids handed out the way the
    /// processors do it.
    struct Fixture {
        control: ControlPlane,
        shard: Shard,
    }

    impl Fixture {
        fn new() -> Self {
            Self {
                control: ControlPlane::new(1),
                shard: Shard::new(Schema::new()),
            }
        }

        fn register(&mut self, types: &[EdgeType]) -> QueryId {
            let mut q = QueryGraph::new("q");
            let mut prev = q.add_any_vertex();
            for &t in types {
                let next = q.add_any_vertex();
                q.add_edge(prev, next, t);
                prev = next;
            }
            let est = SelectivityEstimator::new();
            let engine = ContinuousQueryEngine::new(q, Strategy::SingleLazy, &est, None).unwrap();
            let (id, _) = self.control.adopt(&engine);
            self.shard.register(id, engine);
            id
        }
    }

    #[test]
    fn dispatch_index_tracks_registered_edge_types() {
        let mut f = Fixture::new();
        let a = f.register(&[EdgeType(0), EdgeType(1)]);
        let b = f.register(&[EdgeType(1), EdgeType(2)]);
        assert_eq!(f.shard.candidates(EdgeType(0)), &[a]);
        assert_eq!(f.shard.candidates(EdgeType(1)), &[a, b]);
        assert_eq!(f.shard.candidates(EdgeType(2)), &[b]);
        assert!(f.shard.candidates(EdgeType(9)).is_empty());
        assert_eq!(f.shard.num_queries(), 2);
    }

    #[test]
    fn deregister_removes_dispatch_entries() {
        let mut f = Fixture::new();
        let a = f.register(&[EdgeType(0), EdgeType(1)]);
        let b = f.register(&[EdgeType(1)]);
        assert!(f.shard.deregister(a).is_some());
        assert!(f.shard.candidates(EdgeType(0)).is_empty());
        assert_eq!(f.shard.candidates(EdgeType(1)), &[b]);
        assert!(f.shard.deregister(a).is_none(), "double deregister");
        assert_eq!(f.shard.num_queries(), 1);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut f = Fixture::new();
        let a = f.register(&[EdgeType(0)]);
        f.shard.deregister(a);
        f.control.forget(a);
        let b = f.register(&[EdgeType(0)]);
        assert_ne!(a, b);
        assert_eq!(f.shard.candidates(EdgeType(0)), &[b]);
    }

    #[test]
    fn duplicate_edge_types_in_one_query_index_once() {
        let mut f = Fixture::new();
        let a = f.register(&[EdgeType(3), EdgeType(3)]);
        assert_eq!(f.shard.candidates(EdgeType(3)), &[a]);
    }

    #[test]
    fn redecompose_swaps_plans_and_rejects_unknown_ids() {
        use sp_graph::Timestamp;
        use sp_iso::SubgraphMatch;
        use sp_query::{QueryEdgeId, QuerySubgraph};

        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let esp = schema.intern_edge_type("esp");
        let mut q = QueryGraph::new("esp-tcp");
        let (a, b, c) = (q.add_any_vertex(), q.add_any_vertex(), q.add_any_vertex());
        q.add_edge(a, b, esp);
        q.add_edge(b, c, tcp);
        let est = SelectivityEstimator::new();
        let engine =
            ContinuousQueryEngine::new(q.clone(), Strategy::SingleLazy, &est, Some(100)).unwrap();
        let mut shard = Shard::new(schema);
        let qid = QueryId(0);
        shard.register(qid, engine);
        shard.set_retention(Some(100));
        let mut matches: Vec<(QueryId, SubgraphMatch)> = Vec::new();
        // Live partial mid-window, then an externally supplied flipped plan.
        let esp_edge = EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1));
        shard.process_into(&esp_edge, &mut matches, |_| {});
        let leaves = vec![
            QuerySubgraph::from_edges(&q, [QueryEdgeId(1)]),
            QuerySubgraph::from_edges(&q, [QueryEdgeId(0)]),
        ];
        let flipped = SjTree::from_leaves(q, leaves);
        shard
            .redecompose(qid, Strategy::SingleLazy, flipped.clone())
            .unwrap();
        assert_eq!(shard.engine(qid).unwrap().profile().redecompositions, 1);
        // The partial still completes exactly once after the swap.
        let tcp_edge = EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2));
        shard.process_into(&tcp_edge, &mut matches, |_| {});
        assert_eq!(matches.len(), 1);
        assert!(matches!(
            shard.redecompose(QueryId(999), Strategy::SingleLazy, flipped),
            Err(EngineError::UnknownQuery)
        ));
    }
}
