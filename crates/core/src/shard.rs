//! The data half: one data graph, the engines registered on it, and the
//! per-edge pipeline between them ([`Shard`]).

use crate::engine::ContinuousQueryEngine;
use crate::error::EngineError;
use crate::metrics::PipelineMetrics;
use crate::profile::ProfileCounters;
use crate::registry::{QueryId, QueryRegistry};
use crate::sink::{MatchSink, Materialize, RowSink};
use crate::strategy::Strategy;
use sp_graph::{monotonic_nanos, DynamicGraph, EdgeData, EdgeEvent, Schema, VertexId};
use sp_sjtree::{SjTree, UNBOUND};
use std::time::Instant;

/// Default number of edges between partial-match purges.
const DEFAULT_PURGE_INTERVAL: u64 = 4096;

/// One executor of the stream: a data graph, the engines registered on it,
/// and the per-edge pipeline between them.
///
/// A shard decides nothing. It is told — by the
/// [`ControlPlane`](crate::ControlPlane) of whichever front end owns it —
/// which engine to run under which id, how long to retain edges and which
/// plan to rebuild an engine onto; what it owns is the [`DynamicGraph`], the
/// [`QueryRegistry`] with its dispatch index and shared stages, the purge
/// cadence, the telemetry handles and the stream counters. The sequential
/// [`StreamProcessor`](crate::StreamProcessor) drives one shard inline; each
/// worker thread of the parallel runtime owns one and nothing else.
#[derive(Debug, Clone)]
pub struct Shard {
    graph: DynamicGraph,
    registry: QueryRegistry,
    purge_interval: u64,
    since_purge: u64,
    total_matches: u64,
    /// Events ingested, rejected, and vertex-type conflicts.
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
            registry: QueryRegistry::new(),
            purge_interval: DEFAULT_PURGE_INTERVAL,
            since_purge: 0,
            total_matches: 0,
            stream: ProfileCounters::new(),
            metrics: None,
        }
    }

    /// Overrides how many edges are processed between partial-match purges
    /// (an amortized maintenance pass; correctness of reported matches does
    /// not depend on it). Clamped to at least 1.
    pub fn set_purge_interval(&mut self, interval: u64) {
        self.purge_interval = interval.max(1);
    }

    /// Attaches or detaches telemetry: with it, every processed edge records
    /// per-stage timing spans and every reported match its detection latency
    /// — see [`PipelineMetrics`] for the catalogue.
    pub fn set_metrics(&mut self, metrics: Option<PipelineMetrics>) {
        self.metrics = metrics;
    }

    /// Starts running `engine` under the id its control plane allocated
    /// (see [`QueryRegistry::register`]).
    pub fn register(&mut self, id: QueryId, engine: ContinuousQueryEngine) {
        self.registry.register(id, engine, &self.graph);
    }

    /// Stops running a query, returning its engine with runtime state
    /// intact (`None` for an id this shard does not run).
    pub fn deregister(&mut self, id: QueryId) -> Option<ContinuousQueryEngine> {
        self.registry.deregister(id)
    }

    /// Sets how long the graph retains edges
    /// ([`ControlPlane::retention`](crate::ControlPlane::retention)); takes
    /// effect at the next purge pass.
    pub fn set_retention(&mut self, window: Option<u64>) {
        self.graph.set_window(window);
    }

    /// Swaps one query's decomposition for the given plan: rebuilds the
    /// engine via [`ContinuousQueryEngine::rebuild`] (replaying the retained
    /// graph, preserving the reported match multiset) and re-subscribes its
    /// shapes in the shared stages.
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
        let engine = self
            .registry
            .engine_mut(id)
            .ok_or(EngineError::UnknownQuery)?;
        engine.rebuild(strategy, tree, &self.graph)?;
        self.registry.resubscribe(id, &self.graph);
        Ok(())
    }

    /// Whether an event can be ingested: vertex id `u64::MAX` is the
    /// interned match rows' unbound-slot sentinel, so an event naming it is
    /// rejected at the door. The one rule behind [`Shard::process_rows_into`] and
    /// the parallel runtime's facade, which filters before it batches.
    pub fn accepts(event: &EdgeEvent) -> bool {
        event.src != UNBOUND && event.dst != UNBOUND
    }

    /// Ingests one stream event, pushing every complete match it creates
    /// into `sink` — [`Shard::process_rows_into`] with each match
    /// materialized on its way into [`MatchSink::on_match`]. Returns the
    /// number of matches reported.
    pub fn process_into<S: MatchSink + ?Sized>(
        &mut self,
        event: &EdgeEvent,
        sink: &mut S,
        observe: impl FnOnce(&EdgeData),
    ) -> u64 {
        self.process_rows_into(event, &mut Materialize(sink), observe)
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
    /// inside the ingest span: the sequential front end feeds its control
    /// plane's statistics there; a runtime worker, whose statistics live on
    /// the facade, passes a no-op.
    pub fn process_rows_into<S: RowSink + ?Sized>(
        &mut self,
        event: &EdgeEvent,
        sink: &mut S,
        observe: impl FnOnce(&EdgeData),
    ) -> u64 {
        if !Self::accepts(event) {
            self.stream.rejected_events += 1;
            return 0;
        }
        self.stream.edges_processed += 1;
        // The single metrics branch of the hot path: with metrics off,
        // `started` stays `None` and no clock is ever read. The arrival
        // instant prefers the stamp the runtime facade put on the event (the
        // moment it left the producer) over "now", so detection latency
        // includes batching and queueing delay. The ingest span opens first,
        // so the stamp's own clock read falls inside it.
        let started = self.metrics.as_ref().map(|m| {
            let t0 = Instant::now();
            m.edges.inc();
            let arrival = if event.arrival_ns != 0 {
                event.arrival_ns
            } else {
                monotonic_nanos()
            };
            (arrival, t0)
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
        observe(&edge);
        if let (Some(m), Some((_, t0))) = (&self.metrics, started) {
            m.ingest_ns.add(t0.elapsed().as_nanos() as u64);
        }

        let telemetry = self
            .metrics
            .as_ref()
            .zip(started)
            .map(|(pm, (arrival_ns, _))| (pm, arrival_ns));
        let found = self
            .registry
            .process_edge(&self.graph, &edge, sink, telemetry);
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
        found
    }

    /// The data graph in its current state.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The engines this shard runs, with their dispatch index and shared
    /// stages.
    pub fn registry(&self) -> &QueryRegistry {
        &self.registry
    }

    /// Mutable registry access for the sharing toggles, which are set before
    /// anything registers; everything else goes through the methods above.
    pub(crate) fn registry_mut(&mut self) -> &mut QueryRegistry {
        &mut self.registry
    }

    /// Aggregated profiling counters: the engines' counters summed, with
    /// `edges_processed` reporting events *ingested by the shard* (each
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

    /// Total matches found since construction, across all queries.
    pub fn total_matches(&self) -> u64 {
        self.total_matches
    }
}
