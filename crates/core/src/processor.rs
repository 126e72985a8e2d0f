//! The one front end ([`Processor`]): a control plane over an [`Executor`]
//! that decides where the shards run.
//!
//! Every decision — query ids, strategy and decomposition, graph retention,
//! drift re-plans, which shard hosts a query — is made by the
//! [`ControlPlane`], once. A [`Shard`] (one [`DynamicGraph`], the engines
//! registered on it and the edge-type dispatch between them) is reached
//! only through a job its executor runs:
//!
//! * [`StreamProcessor`] = `Processor<Inline>`: one shard on the caller's
//!   thread; a job runs on the spot, rows go straight to the caller's
//!   [`RowSink`], and the drift cadence is checked after every edge.
//! * [`ParallelStreamProcessor`](crate::ParallelStreamProcessor) =
//!   `Processor<Threads>`: N shards on worker threads behind bounded FIFO
//!   channels ([`Threads`](crate::Threads)); the drift cadence is checked at
//!   batch boundaries.

use crate::adaptive::AdaptiveStats;
use crate::control::{ControlPlane, QueryId, StrategySpec};
use crate::engine::ContinuousQueryEngine;
use crate::error::EngineError;
use crate::metrics::PipelineMetrics;
use crate::profile::ProfileCounters;
use crate::shard::Shard;
use crate::sharedjoin::SharedJoinIndex;
use crate::sink::{CountSink, RowSink};
use sp_graph::{DynamicGraph, EdgeEvent, Schema};
use sp_iso::SubgraphMatch;
use sp_query::QueryGraph;
use sp_selectivity::{DriftConfig, SelectivityEstimator};
use std::ops::Range;

/// The counters of the shared-leaf stage, which no longer exists: every
/// engine searches its own leaves, so every field reads 0. Kept, with
/// [`StreamProcessor::shared_leaf_stats`], only because the repository
/// benchmark's trace still reads them; both go once it stops (ROADMAP
/// item 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedLeafStats {
    /// Distinct canonical leaf shapes interned (always 0).
    pub distinct_leaves: usize,
    /// (query, leaf) subscriptions (always 0).
    pub total_subscriptions: usize,
    /// Queries evaluated through the stage (always 0).
    pub shared_queries: usize,
    /// Canonical leaf searches the stage ran (always 0).
    pub searches_run: u64,
    /// Leaf searches served from another query's search (always 0).
    pub searches_shared: u64,
    /// Leaf searches handed back to their engine (always 0).
    pub searches_delegated: u64,
}

impl SharedLeafStats {
    /// `shared / (run + shared + delegated)`, 0 when nothing ran — always
    /// 0.
    pub fn elimination_ratio(&self) -> f64 {
        let total = self.searches_run + self.searches_shared + self.searches_delegated;
        if total == 0 {
            0.0
        } else {
            self.searches_shared as f64 / total as f64
        }
    }
}

/// Where a [`Processor`]'s shards run: [`Inline`] or
/// [`Threads`](crate::Threads), the only two implementations.
///
/// A job runs on one shard *between* the events ingested before and after
/// it was issued, so every executor reports the same matches for the same
/// sequence of calls.
pub trait Executor: Sized {
    /// Runs `job` on shard `shard`.
    fn run(&mut self, shard: usize, job: impl FnOnce(&mut Shard) + Send + 'static);

    /// Runs `job` on every shard in `shards` and returns the answers in
    /// shard order.
    fn ask<T: Send + 'static>(
        &mut self,
        shards: Range<usize>,
        job: impl Fn(&mut Shard) -> T + Clone + Send + 'static,
    ) -> Vec<T>;

    /// Ingests `events` into every shard, feeding the accepted edges to
    /// `p`'s control plane and running its due drift checks, and pushes
    /// every complete match into `sink`. Returns the number of matches
    /// delivered.
    fn ingest<'a, S: RowSink + ?Sized>(
        p: &mut Processor<Self>,
        events: impl IntoIterator<Item = &'a EdgeEvent>,
        sink: &mut S,
    ) -> u64;
}

/// The inline executor: one [`Shard`] on the caller's thread.
#[derive(Debug, Clone)]
pub struct Inline {
    shard: Shard,
}

impl Executor for Inline {
    fn run(&mut self, _: usize, job: impl FnOnce(&mut Shard) + Send + 'static) {
        job(&mut self.shard);
    }

    fn ask<T: Send + 'static>(
        &mut self,
        shards: Range<usize>,
        job: impl Fn(&mut Shard) -> T + Clone + Send + 'static,
    ) -> Vec<T> {
        shards.map(|_| job(&mut self.shard)).collect()
    }

    fn ingest<'a, S: RowSink + ?Sized>(
        p: &mut Processor<Self>,
        events: impl IntoIterator<Item = &'a EdgeEvent>,
        sink: &mut S,
    ) -> u64 {
        events.into_iter().map(|e| p.process_into(e, sink)).sum()
    }
}

/// A control plane and the shards it drives, through executor `X`.
///
/// The control plane places each query on the least-loaded shard: a
/// query's cost is [`SelectivityEstimator::estimate_query_cost`] of its
/// pattern against the live statistics, floored at `1e-6`; a shard's load
/// is the summed cost of the queries it hosts, and ties go to the lowest
/// shard index.
#[derive(Debug, Clone)]
pub struct Processor<X> {
    pub(crate) control: ControlPlane,
    pub(crate) exec: X,
}

/// The facade over one [`Shard`] on the caller's thread.
pub type StreamProcessor = Processor<Inline>;

impl<X: Executor> Processor<X> {
    /// A processor over `exec`, which runs `shards` shards, with no
    /// registered query.
    pub(crate) fn over(exec: X, shards: usize) -> Self {
        Self {
            control: ControlPlane::new(shards),
            exec,
        }
    }

    fn all_shards(&self) -> Range<usize> {
        0..self.control.loads().len()
    }

    /// Overrides how many edges each shard processes between partial-match
    /// purges (an amortized maintenance pass over the graph, the engines and
    /// the unwindowed shared prefix tables; a windowed table expires its own
    /// rows before every edge it takes). Clamped to at least 1.
    pub fn with_purge_interval(mut self, interval: u64) -> Self {
        self.on_every_shard(move |s| s.set_purge_interval(interval));
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
    ///
    /// Passing a clone costs no census copy: the clone shares the caller's
    /// wedge census copy-on-write ([`SelectivityEstimator`]). With
    /// statistics off the two share it for the whole stream; with them on,
    /// the first accepted edge copies it and the caller's estimator stays
    /// as it was.
    pub fn with_estimator(mut self, estimator: SelectivityEstimator) -> Self {
        self.control.set_estimator(estimator);
        self
    }

    /// Enables drift-adaptive re-decomposition (off by default): once every
    /// [`DriftConfig::check_interval`] accepted edges, the drift checks of
    /// [`Processor::run_drift_checks`] run. `Auto`-registered queries re-run
    /// the strategy selection; `Fixed` ones keep their strategy but may
    /// re-order leaves. The reported match multiset is identical with it on
    /// or off; it pays off only when the statistics move — pair it with a
    /// decayed estimator ([`sp_selectivity::StatsMode::Decayed`]).
    pub fn with_adaptive(mut self, config: DriftConfig) -> Self {
        self.control.set_adaptive(config);
        self
    }

    /// Cumulative adaptivity counters (zeroes when adaptivity is off).
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        self.control.adaptive_stats()
    }

    /// The stream statistics collected so far.
    pub fn estimator(&self) -> &SelectivityEstimator {
        self.control.estimator()
    }

    /// Registers a continuous query: decomposes it under the given strategy
    /// (or picks one via the Relative Selectivity rule for
    /// [`StrategySpec::Auto`]) against the processor's current stream
    /// statistics, and places it on a shard. `window` is the query's own
    /// `tW`; the graphs retain edges for the largest window across all
    /// registered queries.
    pub fn register(
        &mut self,
        query: QueryGraph,
        spec: impl Into<StrategySpec>,
        window: Option<u64>,
    ) -> Result<QueryId, EngineError> {
        let (id, shard, engine) = self.control.plan(query, spec.into(), window)?;
        self.start(id, shard, engine);
        Ok(id)
    }

    /// Registers a pre-built engine (custom decompositions, replayed trees).
    /// Under adaptivity the engine's current strategy is treated as a
    /// `Fixed` registration: drift may re-order its leaves but never change
    /// the strategy. Its tree is judged at the next due drift check like a
    /// planned one, so a leaf order the planner beats materially is rebuilt.
    pub fn register_engine(&mut self, engine: ContinuousQueryEngine) -> QueryId {
        let (id, shard) = self.control.adopt(&engine);
        self.start(id, shard, engine);
        id
    }

    /// Ships the engine to the shard the control plane placed it on, then
    /// the (possibly widened) retention window to every shard.
    fn start(&mut self, id: QueryId, shard: usize, engine: ContinuousQueryEngine) {
        self.exec.run(shard, move |s| s.register(id, engine));
        self.set_retention();
    }

    /// Deregisters a query mid-stream, after every event ingested before
    /// this call, returning its engine with runtime state intact. The
    /// retention window is recomputed from the remaining queries at once;
    /// the *last* query leaving keeps it in force, so an idle processor does
    /// not accumulate edges forever.
    pub fn deregister(&mut self, id: QueryId) -> Option<ContinuousQueryEngine> {
        let shard = self.control.forget(id)?;
        let engine = self.exec.ask(shard..shard + 1, move |s| s.deregister(id));
        self.set_retention();
        engine.into_iter().flatten().next()
    }

    /// Ships the control plane's retention window to every shard, so a
    /// query registered mid-stream on any shard still finds the history it
    /// is entitled to.
    fn set_retention(&mut self) {
        let retention = self.control.retention();
        self.on_every_shard(move |s| s.set_retention(retention));
    }

    fn on_every_shard(&mut self, job: impl Fn(&mut Shard) + Clone + Send + 'static) {
        for shard in self.all_shards() {
            self.exec.run(shard, job.clone());
        }
    }

    /// Runs the drift checks once [`DriftConfig::check_interval`] accepted
    /// edges have been observed since the last due check.
    pub(crate) fn check_drift_if_due(&mut self) {
        if self.control.drift_due() {
            self.run_drift_checks();
        }
    }

    /// Runs one drift check over every registered query *now*: each query
    /// whose re-plan from the live statistics is materially better than its
    /// live plan is rebuilt by its shard, after every event ingested before
    /// this call, via [`ContinuousQueryEngine::rebuild`] (replaying the
    /// retained graph, so no partial state is lost). Returns the number of
    /// re-decompositions issued; a no-op when adaptivity is off.
    pub fn run_drift_checks(&mut self) -> usize {
        let plans = self.control.check_drift();
        let issued = plans.len();
        for (id, shard, strategy, tree) in plans {
            self.exec.run(shard, move |s| {
                s.redecompose(id, strategy, tree)
                    .expect("the control plane re-planned a query this shard runs");
            });
        }
        issued
    }

    /// Ingests a stream, pushing every complete match it creates into
    /// `sink`, and returns the number of matches delivered by this call.
    /// On threads the call returns once every shard has processed every
    /// event (a drain barrier), so an empty `events` delivers what earlier
    /// control calls left buffered.
    pub fn process_all_into<'a, I, S>(&mut self, events: I, sink: &mut S) -> u64
    where
        I: IntoIterator<Item = &'a EdgeEvent>,
        S: RowSink + ?Sized,
    {
        X::ingest(self, events, sink)
    }

    /// Ingests a whole stream, returning the total number of matches found
    /// across all registered queries ([`CountSink`]: no match is built).
    pub fn process_all<'a, I>(&mut self, events: I) -> u64
    where
        I: IntoIterator<Item = &'a EdgeEvent>,
    {
        let mut sink = CountSink::new();
        self.process_all_into(events, &mut sink);
        sink.matches
    }

    /// Ingests one stream event and returns the complete matches it created,
    /// tagged with the query they belong to. On threads this is a full
    /// barrier per event: use [`Processor::process_all_into`] for
    /// throughput.
    pub fn process(&mut self, event: &EdgeEvent) -> Vec<(QueryId, SubgraphMatch)> {
        let mut matches = Vec::new();
        self.process_all_into(std::iter::once(event), &mut matches);
        matches
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.control.num_queries()
    }

    /// Ids of the registered queries, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.control.query_ids()
    }

    /// The shard a query is placed on.
    pub fn shard_of(&self, id: QueryId) -> Option<usize> {
        self.control.shard_of(id)
    }

    /// The retention window every shard's graph keeps (the maximum across
    /// registered queries; `None` retains everything).
    pub fn graph_retention(&self) -> Option<u64> {
        self.control.retention()
    }

    /// Aggregated profiling counters over every shard ([`Shard::profile`]):
    /// the engines' counters summed via [`ProfileCounters::merge`]. Every
    /// shard ingests the whole stream, so the stream-level counters —
    /// `edges_processed` (events ingested), `vertex_type_conflicts` and
    /// `rejected_events` — are each the largest any shard reports, not a
    /// sum.
    pub fn profile(&mut self) -> ProfileCounters {
        let shards = self.exec.ask(self.all_shards(), |s| s.profile());
        let mut total = ProfileCounters::new();
        for p in &shards {
            total.merge(p);
        }
        let most = |f: fn(&ProfileCounters) -> u64| shards.iter().map(f).max().unwrap_or(0);
        ProfileCounters {
            edges_processed: most(|p| p.edges_processed),
            vertex_type_conflicts: most(|p| p.vertex_type_conflicts),
            rejected_events: most(|p| p.rejected_events),
            ..total
        }
    }

    /// Profiling counters of one query's engine, asked of its shard alone.
    pub fn profile_for(&mut self, id: QueryId) -> Option<ProfileCounters> {
        let shard = self.shard_of(id)?;
        let profile = self.exec.ask(shard..shard + 1, move |s| {
            s.engine(id).map(|e| e.profile().clone())
        });
        profile.into_iter().flatten().next()
    }

    /// Total partial matches ever stored across every shard's engines and
    /// shared prefix tables. Shards store independently, so on threads this
    /// grows with the worker count; the reported matches do not.
    pub fn stored_matches(&mut self) -> u64 {
        self.sum_over_shards(Shard::stored_matches)
    }

    /// Total matches found since construction, across all queries.
    pub fn total_matches(&mut self) -> u64 {
        self.sum_over_shards(Shard::total_matches)
    }

    fn sum_over_shards(&mut self, count: fn(&Shard) -> u64) -> u64 {
        let counts = self.exec.ask(self.all_shards(), move |s| count(s));
        counts.into_iter().sum()
    }
}

impl Processor<Inline> {
    /// Creates a processor with an empty data graph and no registered
    /// queries. Register queries with [`Processor::register`] (or
    /// [`Processor::register_engine`]); until a query is registered,
    /// processed edges only grow the graph.
    pub fn new(schema: Schema) -> Self {
        let shard = Shard::new(schema);
        Self::over(Inline { shard }, 1)
    }

    /// Convenience constructor for the single-query setup of the paper's
    /// experiments: a processor with exactly one registered engine. The
    /// engine's id is the first element of [`Processor::query_ids`].
    pub fn with_engine(schema: Schema, engine: ContinuousQueryEngine) -> Self {
        let mut p = Self::new(schema);
        p.register_engine(engine);
        p
    }

    /// Attaches telemetry (off by default): every processed edge records
    /// per-stage timing spans and every reported match records its
    /// detection latency into the bundle's histograms — see
    /// [`PipelineMetrics`] for the metric catalogue — and the engines time
    /// their searches and inserts into [`ProfileCounters::iso_time`] /
    /// [`ProfileCounters::update_time`] (the §6.4 split). With metrics off
    /// the hot path pays one branch per edge and reads no clock, the
    /// engines' included: those two timers read zero, every count is the
    /// same.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> Self {
        self.exec.shard.set_metrics(Some(metrics));
        self
    }

    /// Ingests one stream event, pushing every complete match it creates
    /// into `sink` ([`Shard::process_into`], with the accepted edge feeding
    /// the control plane's statistics), then runs the drift checks if they
    /// came due. Returns the number of matches reported.
    pub fn process_into<S: RowSink + ?Sized>(&mut self, event: &EdgeEvent, sink: &mut S) -> u64 {
        let control = &mut self.control;
        let found = self
            .exec
            .shard
            .process_into(event, sink, |edge| control.observe(edge));
        // Re-decomposition is semantics-preserving: the check point only
        // affects *when* work is saved, never what matches are reported.
        self.check_drift_if_due();
        found
    }

    /// [`Processor::process_all_into`] under its former name, kept only
    /// because the repository benchmark's oracle still calls it; it goes
    /// once that stops (ROADMAP item 12).
    pub fn process_batch_into<'a, S, I>(&mut self, events: I, sink: &mut S) -> u64
    where
        S: RowSink + ?Sized,
        I: IntoIterator<Item = &'a EdgeEvent>,
    {
        self.process_all_into(events, sink)
    }

    /// The shared data graph in its current state.
    pub fn graph(&self) -> &DynamicGraph {
        self.exec.shard.graph()
    }

    /// The shared join stage: its trie nodes and each query's subscription
    /// depth.
    pub fn shared_joins(&self) -> &SharedJoinIndex {
        self.exec.shard.shared_joins()
    }

    /// Snapshot of the shared join stage: live prefix tables, current
    /// subscriptions, and how much join-stage work sharing eliminated.
    /// Queries whose decompositions begin with the same canonical leaf
    /// sequence share one refcounted partial-match table for that prefix —
    /// leaf searches, inserts and hash joins for the prefix run once
    /// shard-wide, and the prefix-root matches are fanned out (window-
    /// and boundary-filtered per subscriber).
    pub fn shared_join_stats(&self) -> crate::SharedJoinStats {
        self.shared_joins().stats()
    }

    /// All zeroes: there is no shared-leaf stage, every engine searches its
    /// own leaves (see [`SharedLeafStats`]). Kept only because the
    /// repository benchmark's trace still reads it; it goes once that stops
    /// (ROADMAP item 12).
    pub fn shared_leaf_stats(&self) -> SharedLeafStats {
        SharedLeafStats::default()
    }

    /// The engine of a registered query.
    pub fn engine_for(&self, id: QueryId) -> Option<&ContinuousQueryEngine> {
        self.exec.shard.engine(id)
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
        self.exec.shard.engines().next().expect("one query").1
    }
}

// The runtime moves engines and whole shards across worker threads; pin the
// `Send` guarantee at compile time so a future field (an `Rc`, a raw
// pointer) cannot silently take it away.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StreamProcessor>();
    assert_send::<crate::ParallelStreamProcessor>();
    assert_send::<Shard>();
    assert_send::<PipelineMetrics>();
    assert_send::<ContinuousQueryEngine>();
    assert_send::<ProfileCounters>();
    assert_send::<SubgraphMatch>();
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
        use std::time::Duration;

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
            (got, proc.profile())
        };

        let reg = MetricsRegistry::new();
        let (with, on) = run(Some(&reg));
        let (without, off) = run(None);
        // Telemetry is observation only: identical match multiset and
        // identical counts.
        assert_eq!(with, without);
        assert!(!with.is_empty(), "test stream should produce matches");
        let counts = |p: &ProfileCounters| ProfileCounters {
            iso_time: Duration::ZERO,
            update_time: Duration::ZERO,
            replay_time: Duration::ZERO,
            ..p.clone()
        };
        assert_eq!(format!("{:?}", counts(&on)), format!("{:?}", counts(&off)));
        // Metrics are the one switch for the engines' §6.4 timers: off,
        // not a single clock read lands in them; on, both ran.
        assert_eq!(off.iso_time, Duration::ZERO);
        assert_eq!(off.update_time, Duration::ZERO);
        assert!(on.iso_time > Duration::ZERO, "{on:?}");
        assert!(on.update_time > Duration::ZERO, "{on:?}");

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
        // The counter counts endpoints, not events: an event whose two
        // endpoints both conflict adds 2.
        proc.process(&EdgeEvent::homogeneous(2, 1, person, tcp, Timestamp(3)));
        assert_eq!(proc.profile().vertex_type_conflicts, 3);
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
        assert!(proc.exec.shard.candidates(esp).is_empty());
        assert_eq!(proc.exec.shard.candidates(tcp), &[narrow_id]);

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
    fn register_rejects_empty_queries() {
        let schema = Schema::new();
        let mut proc = StreamProcessor::new(schema);
        let q = QueryGraph::new("empty");
        assert!(proc.register(q, StrategySpec::Auto, None).is_err());
    }
}
