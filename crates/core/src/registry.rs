//! The multi-query registry and its edge-type dispatch index.
//!
//! The paper's deployment story (StreamWorks) is a monitoring system where
//! many continuous queries watch one edge stream. [`QueryRegistry`] owns one
//! [`ContinuousQueryEngine`] per registered query and maintains an
//! *edge-type → candidate queries* index so that an incoming edge is only
//! handed to the engines whose query contains that edge's type — every other
//! engine provably never sees the edge (its
//! [`ProfileCounters::edges_processed`](crate::ProfileCounters) stays put).
//! Skipping is sound: a leaf search anchored at an edge whose type occurs
//! nowhere in the query can neither produce a leaf match nor enable a lazy
//! search, and the VF2 baseline only reports embeddings that use the new
//! edge.

use crate::engine::ContinuousQueryEngine;
use crate::metrics::{PipelineMetrics, StageClock};
use crate::sharedjoin::{JoinDelivery, JoinSubscription, SharedJoinIndex, SharedJoinStats};
use crate::sharing::{EdgeSearchCache, SharedLeafIndex, SharedLeafStats, SharedSource};
use crate::sink::RowSink;
use crate::strategy::Strategy;
use sp_graph::{monotonic_nanos, DynamicGraph, EdgeData, EdgeType, FastMap};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Stable identifier of a registered continuous query. Ids are handed out by
/// the [`ControlPlane`](crate::ControlPlane) and never reused, even after
/// the query is deregistered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// How a query's execution strategy is chosen at registration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategySpec {
    /// Use the given strategy as-is.
    Fixed(Strategy),
    /// Choose between `SingleLazy` and `PathLazy` with the Relative
    /// Selectivity rule of Section 6.5, evaluated against the stream
    /// statistics the processor has collected so far.
    Auto,
}

impl From<Strategy> for StrategySpec {
    fn from(s: Strategy) -> Self {
        StrategySpec::Fixed(s)
    }
}

/// Owns the engines of all registered queries plus the edge-type dispatch
/// index and the shared-leaf index over them.
#[derive(Debug, Clone)]
pub struct QueryRegistry {
    /// Engines by query id; a `BTreeMap` keeps iteration (and therefore match
    /// reporting) in registration order.
    engines: BTreeMap<QueryId, ContinuousQueryEngine>,
    /// Edge type → queries whose pattern contains an edge of that type.
    dispatch: FastMap<EdgeType, Vec<QueryId>>,
    /// Canonical leaf shape → subscribers; deduplicates the anchored leaf
    /// searches across queries (see [`crate::SharedLeafIndex`]).
    shared: SharedLeafIndex,
    /// Canonical SJ-Tree prefix → refcounted shared partial-match table;
    /// deduplicates the join stage across queries with common decomposition
    /// prefixes (see [`crate::SharedJoinIndex`]).
    join: SharedJoinIndex,
    /// Whether dispatched edges go through the shared leaf-search stage
    /// (default) or every engine re-runs its own searches.
    sharing: bool,
    /// Whether *newly registered* queries may additionally share their join
    /// stage (default). Unlike the stateless leaf stage this is a
    /// registration-time property: a subscribed query's prefix state lives
    /// in the shared table, so subscriptions are never toggled mid-stream.
    join_sharing: bool,
    /// Registry-owned per-edge memo for the shared leaf-search stage,
    /// *reset* (not reconstructed) per edge so its map table, row buffer
    /// and search scratch keep their capacity across the stream.
    cache: EdgeSearchCache,
    /// Reusable flat buffer for the complete matches of an engine that ran
    /// (full-depth shared-join subscribers bypass it), as rows of that
    /// engine's layout; handed to the sink as one burst per engine.
    complete: Vec<u64>,
    /// The next subscription boundary: one past the id of the last
    /// processed edge. A query registered now is entitled to matches
    /// anchored at edge ids `>= boundary` (see the shared-join module docs).
    boundary: u64,
    /// Each live query's original registration boundary, preserved across
    /// drift-driven re-subscriptions.
    origins: HashMap<QueryId, u64>,
}

impl Default for QueryRegistry {
    fn default() -> Self {
        Self {
            engines: BTreeMap::new(),
            dispatch: FastMap::default(),
            shared: SharedLeafIndex::new(),
            join: SharedJoinIndex::new(),
            sharing: true,
            join_sharing: true,
            cache: EdgeSearchCache::new(),
            complete: Vec::new(),
            boundary: 0,
            origins: HashMap::new(),
        }
    }
}

impl QueryRegistry {
    /// Creates an empty registry (shared-leaf evaluation enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables shared-leaf evaluation. Disabling reverts to the
    /// per-engine search path (each engine re-runs its own anchored leaf
    /// searches); the reported match multiset is identical either way.
    /// Queries registered while sharing is off still subscribe, so sharing
    /// can be toggled back on at any time.
    pub fn set_sharing(&mut self, enabled: bool) {
        self.sharing = enabled;
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

    /// Snapshot of the shared-leaf index bookkeeping (distinct shapes,
    /// subscriptions, searches run vs eliminated).
    pub fn shared_leaf_stats(&self) -> SharedLeafStats {
        self.shared.stats()
    }

    /// Enables or disables shared-join subscription for *future*
    /// registrations (enabled by default). Queries already subscribed to a
    /// prefix table keep running through it — their prefix state lives in
    /// the shared table and cannot be toggled statelessly the way the leaf
    /// stage can.
    pub fn set_join_sharing(&mut self, enabled: bool) {
        self.join_sharing = enabled;
    }

    /// Snapshot of the shared join stage bookkeeping (live tables,
    /// subscriptions, work run vs saved).
    pub fn shared_join_stats(&self) -> SharedJoinStats {
        self.join.stats()
    }

    /// Read access to the shared join index (residency queries for
    /// sharing-aware cost estimates).
    pub fn shared_joins(&self) -> &SharedJoinIndex {
        &self.join
    }

    /// Registers an engine under `id` (handed out by the
    /// [`ControlPlane`](crate::ControlPlane)): indexes it under every edge
    /// type its query uses, subscribes its leaves to the shared-leaf index
    /// and, when join sharing is enabled, subscribes it to the shared join
    /// stage — its decomposition's canonical prefix chain is matched against
    /// the live tables and the other registered chains, possibly creating a
    /// new refcounted table and migrating previously private partners onto
    /// it (see [`crate::SharedJoinIndex`]). `graph` is the data graph the
    /// registry runs against, needed to back-fill tables for subscribers
    /// entitled to retained history.
    ///
    /// # Panics
    /// Panics when `id` is already registered (ids are never reused).
    pub fn register(&mut self, id: QueryId, engine: ContinuousQueryEngine, graph: &DynamicGraph) {
        for edge in engine.query().edges() {
            let slot = self.dispatch.entry(edge.edge_type).or_default();
            if !slot.contains(&id) {
                slot.push(id);
            }
        }
        self.shared.subscribe(id, &engine, 0);
        self.origins.insert(id, self.boundary);
        let previous = self.engines.insert(id, engine);
        assert!(previous.is_none(), "query id {id} registered twice");
        if self.sharing && self.join_sharing {
            self.subscribe_join(id, graph);
        }
    }

    /// Runs the shared-join subscription policy for one query (newly
    /// registered or freshly re-decomposed), narrowing its leaf-stage
    /// subscription to the suffix leaves on success and migrating any
    /// partners the policy pulled in.
    fn subscribe_join(&mut self, id: QueryId, graph: &DynamicGraph) {
        let Some(engine) = self.engines.get(&id) else {
            return;
        };
        let boundary = self.origins.get(&id).copied().unwrap_or(self.boundary);
        let outcome = self
            .join
            .subscribe(id, engine, boundary, self.boundary, graph);
        let JoinSubscription::Shared { depth, migrations } = outcome else {
            return;
        };
        self.adopt_join_subscription(id, depth);
        for partner in migrations {
            let Some(partner_engine) = self.engines.get(&partner) else {
                continue;
            };
            let partner_boundary = self.origins.get(&partner).copied().unwrap_or(self.boundary);
            if let Some(partner_depth) =
                self.join
                    .attach_partner(partner, partner_engine, partner_boundary, graph)
            {
                self.adopt_join_subscription(partner, partner_depth);
            }
        }
    }

    /// Switches one engine onto its shared prefix: drop the (now redundant)
    /// private prefix tables and narrow the leaf-stage subscription to the
    /// suffix leaves.
    fn adopt_join_subscription(&mut self, id: QueryId, depth: usize) {
        let engine = self.engines.get_mut(&id).expect("subscribed engine exists");
        engine.clear_prefix_state(depth);
        self.shared.unsubscribe(id);
        self.shared.subscribe(id, engine, depth);
    }

    /// Removes a query, returning its engine (with all its runtime state) or
    /// `None` for an unknown id. The dispatch index drops the query from
    /// every edge-type slot, and the shared-leaf index drops shapes whose
    /// last subscriber left.
    pub fn deregister(&mut self, id: QueryId) -> Option<ContinuousQueryEngine> {
        let engine = self.engines.remove(&id)?;
        self.dispatch.retain(|_, ids| {
            ids.retain(|&q| q != id);
            !ids.is_empty()
        });
        self.shared.unsubscribe(id);
        self.join.unsubscribe(id);
        self.origins.remove(&id);
        Some(engine)
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// `true` when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The engine of a query.
    pub fn engine(&self, id: QueryId) -> Option<&ContinuousQueryEngine> {
        self.engines.get(&id)
    }

    /// Mutable access to the engine of a query.
    pub fn engine_mut(&mut self, id: QueryId) -> Option<&mut ContinuousQueryEngine> {
        self.engines.get_mut(&id)
    }

    /// Iterates over `(id, engine)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &ContinuousQueryEngine)> + '_ {
        self.engines.iter().map(|(&id, e)| (id, e))
    }

    /// Ids of all registered queries, in registration order.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.engines.keys().copied()
    }

    /// The queries whose pattern contains the given edge type (the dispatch
    /// index lookup). The slice is in registration order.
    pub fn candidates(&self, edge_type: EdgeType) -> &[QueryId] {
        self.dispatch
            .get(&edge_type)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Dispatches one new edge (already inserted into `graph`) to every
    /// candidate engine and forwards the complete matches to `sink`, as
    /// rows. Returns the number of matches reported.
    ///
    /// The shared **join** stage first advances each live canonical prefix
    /// table once for the edge. Then every candidate is served in dispatch
    /// order: a subscriber whose prefix spans its whole tree has its matches
    /// handed from the table's emission rows straight to `sink` (no engine
    /// involved); any other candidate's engine runs its one leaf loop
    /// ([`ContinuousQueryEngine::process_edge_into`]), pulling — per leaf
    /// that survives the loop's type filter and Lazy Search gate — from the
    /// registry's [`LeafSource`](crate::LeafSource): a partial-depth
    /// subscriber's prefix-root rows from its table, the rows of a
    /// multi-subscriber leaf shape from the edge's search memo (each
    /// distinct canonical search runs once), and "search it yourself" for
    /// everything else (single-subscriber shapes, the VF2 baseline,
    /// oversized leaves, sharing switched off). An engine that
    /// runs reports its root joins into one registry-owned flat buffer,
    /// passed to `sink` as one burst. Each candidate's matches arrive in
    /// emission order.
    ///
    /// `metrics` is the telemetry bundle plus the event's arrival stamp
    /// (`monotonic_nanos` scale): with it, the same code additionally
    /// records the per-stage spans (see [`PipelineMetrics`] for the span
    /// boundaries) and, once per delivering candidate, the burst's match
    /// count and detection latency. With `None` no clock is read.
    pub fn process_edge(
        &mut self,
        graph: &DynamicGraph,
        edge: &EdgeData,
        sink: &mut (impl RowSink + ?Sized),
        metrics: Option<(&PipelineMetrics, u64)>,
    ) -> u64 {
        // Edge ids are monotone in arrival order; one past the newest edge
        // is the boundary recorded for queries registered from now on.
        self.boundary = self.boundary.max(edge.id.0 + 1);
        let QueryRegistry {
            engines,
            dispatch,
            shared,
            join,
            sharing,
            cache,
            complete,
            ..
        } = self;
        let mut clock = StageClock::start(metrics.map(|(m, _)| m));
        let ids = dispatch.get(&edge.edge_type);
        clock.charge(|m| &m.dispatch_ns);
        let Some(ids) = ids else {
            return 0;
        };
        let mut reported = 0;
        // Reset the registry-owned per-edge memo in place: the map table,
        // the row buffer and the anchored-search scratch keep their
        // capacity from previous edges.
        cache.begin_edge();
        // Advance every shared prefix table this edge can touch — one
        // search-and-join pass per table, not per subscriber. Runs
        // independently of the leaf-stage toggle: a subscribed query's
        // prefix state lives here. No table of the edge's type, no span.
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
                        id,
                        leaves: sharing.then_some(&mut *shared),
                        cache: &mut *cache,
                        prefix,
                        clock: &mut clock,
                    };
                    engine.process_edge_into(graph, edge, &mut source, complete);
                    clock.charge(|m| &m.private_engine_ns);
                    let layout = engine.row_layout();
                    if !complete.is_empty() {
                        sink.on_rows(id, layout, complete);
                    }
                    (complete.len() / layout.stride()) as u64
                }
            };
            clock.charge(|m| &m.emit_ns);
            if let Some((m, arrival_ns)) = metrics.filter(|_| found > 0) {
                // One clock read for the whole burst.
                m.matches.add(found);
                m.match_latency_ns
                    .record_n(monotonic_nanos().saturating_sub(arrival_ns), found);
            }
            reported += found;
        }
        reported
    }

    /// Re-registers a query's shapes with both shared stages after its
    /// engine was re-decomposed: the old leaf subscriptions are dropped
    /// (shapes whose last subscriber left are evicted), the old prefix
    /// subscription is dropped (a table whose last subscriber left is
    /// evicted — drift moves prefix refcounts exactly like leaf refcounts),
    /// and the engine's *current* decomposition is re-subscribed in their
    /// place with its **original** registration boundary, so the rebuilt
    /// engine keeps seeing exactly the matches a never-rebuilt one would.
    /// Returns whether the query is on a shared leaf path afterwards
    /// (`false` for unknown ids and engines that cannot share). The
    /// dispatch index needs no update — re-decomposition never changes the
    /// query's edge types.
    pub fn resubscribe(&mut self, id: QueryId, graph: &DynamicGraph) -> bool {
        let Some(engine) = self.engines.get(&id) else {
            return false;
        };
        self.shared.unsubscribe(id);
        self.join.unsubscribe(id);
        let ok = self.shared.subscribe(id, engine, 0);
        if self.sharing && self.join_sharing {
            self.subscribe_join(id, graph);
        }
        ok
    }

    /// Runs every engine's and every shared prefix table's purge pass
    /// against the current graph. Returns the total number of partial
    /// matches dropped.
    pub fn purge(&mut self, graph: &DynamicGraph) -> usize {
        let engines: usize = self.engines.values_mut().map(|e| e.purge(graph)).sum();
        engines + self.join.purge(graph)
    }
}

/// The graph retention window implied by a set of per-query windows: the
/// maximum `tW`, or `None` (retain everything) when any window is `None` or
/// the set is empty. This is the single encoding of the retention rule: the
/// [`ControlPlane`](crate::ControlPlane) applies it to the registered
/// queries, the shared join stage to a prefix table's subscribers.
pub(crate) fn retention_for_windows<I>(windows: I) -> Option<u64>
where
    I: IntoIterator<Item = Option<u64>>,
{
    let mut max = 0u64;
    let mut any = false;
    for window in windows {
        match window {
            None => return None,
            Some(w) => {
                any = true;
                max = max.max(w);
            }
        }
    }
    if any {
        Some(max)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlPlane;
    use sp_graph::Schema;
    use sp_query::QueryGraph;
    use sp_selectivity::SelectivityEstimator;

    fn engine_for(types: &[EdgeType], window: Option<u64>) -> ContinuousQueryEngine {
        let mut q = QueryGraph::new("q");
        let mut prev = q.add_any_vertex();
        for &t in types {
            let next = q.add_any_vertex();
            q.add_edge(prev, next, t);
            prev = next;
        }
        let est = SelectivityEstimator::new();
        ContinuousQueryEngine::new(q, Strategy::SingleLazy, &est, window).unwrap()
    }

    /// A registry on an empty graph, with ids handed out the way the
    /// processors do it.
    struct Fixture {
        control: ControlPlane,
        graph: DynamicGraph,
        reg: QueryRegistry,
    }

    impl Fixture {
        fn new() -> Self {
            Self {
                control: ControlPlane::new(),
                graph: DynamicGraph::new(Schema::new()),
                reg: QueryRegistry::new(),
            }
        }

        fn register(&mut self, types: &[EdgeType]) -> QueryId {
            let engine = engine_for(types, None);
            let id = self.control.adopt(&engine);
            self.reg.register(id, engine, &self.graph);
            id
        }
    }

    #[test]
    fn dispatch_index_tracks_registered_edge_types() {
        let mut f = Fixture::new();
        let a = f.register(&[EdgeType(0), EdgeType(1)]);
        let b = f.register(&[EdgeType(1), EdgeType(2)]);
        assert_eq!(f.reg.candidates(EdgeType(0)), &[a]);
        assert_eq!(f.reg.candidates(EdgeType(1)), &[a, b]);
        assert_eq!(f.reg.candidates(EdgeType(2)), &[b]);
        assert!(f.reg.candidates(EdgeType(9)).is_empty());
        assert_eq!(f.reg.len(), 2);
    }

    #[test]
    fn deregister_removes_dispatch_entries() {
        let mut f = Fixture::new();
        let a = f.register(&[EdgeType(0), EdgeType(1)]);
        let b = f.register(&[EdgeType(1)]);
        assert!(f.reg.deregister(a).is_some());
        assert!(f.reg.candidates(EdgeType(0)).is_empty());
        assert_eq!(f.reg.candidates(EdgeType(1)), &[b]);
        assert!(f.reg.deregister(a).is_none(), "double deregister");
        assert_eq!(f.reg.len(), 1);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut f = Fixture::new();
        let a = f.register(&[EdgeType(0)]);
        f.reg.deregister(a);
        f.control.forget(a);
        let b = f.register(&[EdgeType(0)]);
        assert_ne!(a, b);
        assert_eq!(f.reg.candidates(EdgeType(0)), &[b]);
    }

    #[test]
    fn retention_rule_helper_matches_registry_semantics() {
        assert_eq!(retention_for_windows([]), None);
        assert_eq!(retention_for_windows([Some(10)]), Some(10));
        assert_eq!(retention_for_windows([Some(10), Some(500)]), Some(500));
        assert_eq!(retention_for_windows([Some(10), None]), None);
    }

    #[test]
    fn duplicate_edge_types_in_one_query_index_once() {
        let mut f = Fixture::new();
        let a = f.register(&[EdgeType(3), EdgeType(3)]);
        assert_eq!(f.reg.candidates(EdgeType(3)), &[a]);
    }
}
