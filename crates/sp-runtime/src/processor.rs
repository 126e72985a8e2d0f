//! The parallel front end: one [`ControlPlane`] — the same one the sequential
//! [`StreamProcessor`] drives — plus shard placement, in front of N worker
//! threads that each run one [`Shard`](streampattern::Shard).

use crate::config::RuntimeConfig;
use crate::worker::{worker_loop, FromWorker, RowBatch, WorkerMsg, WorkerOutput, WorkerReport};
use sp_graph::{monotonic_nanos, EdgeData, EdgeEvent, EdgeId, Schema, VertexId};
use sp_iso::SubgraphMatch;
use sp_metrics::{Counter, Gauge, MetricsRegistry};
use sp_query::QueryGraph;
use sp_selectivity::SelectivityEstimator;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use streampattern::{
    canonicalize_subgraph, tree_chain, AdaptiveStats, CollectSink, ContinuousQueryEngine,
    ControlPlane, CountSink, EngineError, LeafSignature, MatchSink, PipelineMetrics,
    PrefixSignature, ProfileCounters, QueryId, Shard, SjTree, StrategySpec, MIN_PREFIX_DEPTH,
};

/// How long a wait for a `Deregister` / `Report` reply, or for room in a
/// full worker channel, sleeps before it drains the aggregation channel
/// again. Small enough to stay responsive, large enough not to spin. (The
/// drain barrier does not poll: its acknowledgements arrive on the
/// aggregation channel itself.)
const CONTROL_POLL: Duration = Duration::from_micros(50);

/// How long the drain barrier waits on the aggregation channel before it
/// checks that every worker thread is still running.
const LIVENESS_POLL: Duration = Duration::from_millis(100);

/// How much of a query's estimated cost is forgiven on a shard that already
/// hosts (some of) its canonical leaf shapes: each worker's registry runs
/// shared-leaf evaluation, so a co-located sharer pays only the join stage
/// for the overlapping leaves. 1.0 would assume leaf search is the entire
/// cost; 0.5 keeps the assignment balanced when the join stage dominates.
const SHARING_COST_DISCOUNT: f64 = 0.5;

/// Observable counters of the runtime itself (as opposed to the query
/// engines' [`ProfileCounters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Ingest batches broadcast so far (one count per batch, not per worker
    /// copy).
    pub batches_sent: u64,
    /// Times the ingest loop found a worker's bounded input channel full and
    /// had to wait — the backpressure signal. A sustained non-zero rate
    /// means the workers (or the match consumer) are the bottleneck.
    pub backpressure_events: u64,
    /// Match batches received from the aggregation channel.
    pub match_batches_received: u64,
}

/// Final report returned by [`ParallelStreamProcessor::shutdown`].
#[derive(Debug)]
pub struct RuntimeReport {
    /// Aggregated profiling counters (see
    /// [`ParallelStreamProcessor::profile`] for the aggregation rules).
    pub profile: ProfileCounters,
    /// Per-worker snapshots, in shard order.
    pub workers: Vec<WorkerReport>,
    /// Runtime counters.
    pub stats: RuntimeStats,
    /// Total matches found over the runtime's lifetime.
    pub total_matches: u64,
    /// Matches that were drained but never handed to a caller's sink (e.g.
    /// matches produced right before shutdown with no intervening
    /// `process_all_into`), materialized for this report.
    pub pending_matches: Vec<(QueryId, SubgraphMatch)>,
}

struct WorkerHandle {
    tx: SyncSender<WorkerMsg>,
    join: Option<JoinHandle<()>>,
}

/// Facade-side telemetry handles, live only when
/// [`ParallelStreamProcessor::enable_metrics`] has been called. The worker
/// replicas hold their own handles (shipped via [`WorkerMsg::Metrics`]); all
/// of them write into the same registry, so a snapshot aggregates the whole
/// runtime.
struct RuntimeMetrics {
    /// `runtime.backpressure_stalls_total` — mirrors
    /// [`RuntimeStats::backpressure_events`], but readable live from any
    /// thread holding the registry.
    backpressure: Counter,
    /// `runtime.batches_sent_total` — mirrors [`RuntimeStats::batches_sent`].
    batches: Counter,
    /// `runtime.queue_depth.w{i}` — batches enqueued on worker *i*'s input
    /// channel and not yet dequeued (facade increments on send, worker
    /// decrements on receive).
    queue_depth: Vec<Gauge>,
}

#[derive(Debug, Clone)]
struct ShardAssignment {
    worker: usize,
    cost: f64,
    /// The query's canonical leaf shapes, kept to release the shard's
    /// residency refcounts at deregistration.
    sigs: Vec<LeafSignature>,
    /// The query's canonical decomposition chain (`None` for VF2 /
    /// single-leaf trees), kept to release the shard's prefix refcounts.
    chain: Option<PrefixSignature>,
}

/// A parallel, sharded multi-query stream processor.
///
/// `ParallelStreamProcessor` offers the sequential
/// [`StreamProcessor`](streampattern::StreamProcessor) API —
/// [`register`](Self::register) / [`deregister`](Self::deregister) /
/// [`process_all`](Self::process_all) / [`profile`](Self::profile) — and
/// makes every planning decision through the same [`ControlPlane`], so query
/// ids, strategies, retention and drift re-plans are the sequential ones by
/// construction. What differs is where the queries execute — on `N` worker
/// threads:
///
/// * every query is assigned to one worker shard, chosen greedily by the
///   selectivity-based cost estimate
///   ([`SelectivityEstimator::estimate_query_cost`]) so shards stay
///   balanced;
/// * the calling thread is the ingest thread: it feeds the control plane's
///   statistics, batches events and broadcasts each batch over a bounded
///   channel per worker, blocking when a worker falls behind
///   (backpressure);
/// * each worker owns one [`Shard`](streampattern::Shard) — a full windowed
///   graph replica plus its slice of the engines — whose edge-type dispatch
///   index skips engines exactly as the sequential processor's would;
/// * complete matches flow back through one bounded MPSC aggregation
///   channel as fixed-width rows in each query's own numbering, one batch
///   per input batch; per-worker emission order is preserved, interleaving
///   across workers is arbitrary. A match becomes a `SubgraphMatch` once,
///   here on the calling thread, on its way into the caller's sink.
///
/// Because control messages share the per-worker FIFO channels with the
/// edge batches, a query registered between two `process_all` calls
/// observes exactly the stream suffix a sequential processor would — the
/// equivalence tests assert identical match multisets for 1, 2 and 4
/// workers.
pub struct ParallelStreamProcessor {
    config: RuntimeConfig,
    control: ControlPlane,
    workers: Vec<WorkerHandle>,
    match_rx: Receiver<FromWorker>,
    assignments: HashMap<QueryId, ShardAssignment>,
    shard_costs: Vec<f64>,
    /// Per-shard refcounts of resident canonical leaf shapes, mirroring what
    /// each worker's `SharedLeafIndex` holds; drives sharing-aware
    /// assignment.
    shard_sigs: Vec<HashMap<LeafSignature, usize>>,
    /// Per-shard refcounts of resident canonical chain **trie paths**: every
    /// prefix truncation (depth [`MIN_PREFIX_DEPTH`]..=chain depth) of each
    /// registered chain counts as one resident trie-path node, mirroring
    /// the node set the worker's `SharedJoinIndex` trie can materialize. A
    /// new query is discounted on shards whose resident paths cover a
    /// prefix of its own chain (the worker registry will share — or nest
    /// under — the join tables along that path).
    shard_chains: Vec<HashMap<PrefixSignature, usize>>,
    events_ingested: u64,
    /// Events refused at ingest ([`Shard::accepts`]).
    rejected_events: u64,
    total_matches: u64,
    /// Match batches received and not yet delivered to a sink.
    buffered: VecDeque<RowBatch>,
    /// `Drain` barriers sent whose [`WorkerOutput::Drained`] has not come
    /// back on the aggregation channel yet.
    drains_pending: usize,
    stats: RuntimeStats,
    metrics: Option<RuntimeMetrics>,
}

/// The canonical leaf shapes of a decomposition, in leaf order.
fn leaf_signatures(tree: &SjTree) -> Vec<LeafSignature> {
    tree.leaf_subgraphs()
        .filter_map(|sg| canonicalize_subgraph(tree.query(), sg).map(|(sig, _)| sig))
        .collect()
}

/// Every trie-path node of a chain: its prefix truncations from
/// [`MIN_PREFIX_DEPTH`] up to the full depth.
fn chain_paths(chain: Option<&PrefixSignature>) -> impl Iterator<Item = PrefixSignature> + '_ {
    chain
        .into_iter()
        .flat_map(|c| (MIN_PREFIX_DEPTH..=c.depth()).map(|d| c.truncated(d)))
}

impl ParallelStreamProcessor {
    /// Spawns the worker threads and returns an empty runtime (no registered
    /// queries). Until a query is registered, processed edges only grow the
    /// worker replicas.
    pub fn new(schema: Schema, config: RuntimeConfig) -> Self {
        let config = RuntimeConfig {
            workers: config.workers.max(1),
            batch_size: config.batch_size.max(1),
            channel_capacity: config.channel_capacity.max(1),
            match_capacity: config.match_capacity.max(1),
            purge_interval: config.purge_interval.max(1),
            ..config
        };
        let (match_tx, match_rx) = sync_channel::<FromWorker>(config.match_capacity);
        let mut workers = Vec::with_capacity(config.workers);
        for idx in 0..config.workers {
            let (tx, rx) = sync_channel::<WorkerMsg>(config.channel_capacity);
            let schema = schema.clone();
            let match_tx = match_tx.clone();
            let join = std::thread::Builder::new()
                .name(format!("sp-worker-{idx}"))
                .spawn(move || worker_loop(idx, schema, config, rx, match_tx))
                .expect("spawn worker thread");
            workers.push(WorkerHandle {
                tx,
                join: Some(join),
            });
        }
        let mut control = ControlPlane::new();
        control.set_statistics(config.collect_statistics);
        if let Some(drift) = config.adaptive {
            control.set_adaptive(drift);
        }
        Self {
            config,
            control,
            workers,
            match_rx,
            assignments: HashMap::new(),
            shard_costs: vec![0.0; config.workers],
            shard_sigs: vec![HashMap::new(); config.workers],
            shard_chains: vec![HashMap::new(); config.workers],
            events_ingested: 0,
            rejected_events: 0,
            total_matches: 0,
            buffered: VecDeque::new(),
            drains_pending: 0,
            stats: RuntimeStats::default(),
            metrics: None,
        }
    }

    /// Attaches a [`MetricsRegistry`] to the runtime. Registers the
    /// facade-level series (`runtime.backpressure_stalls_total`,
    /// `runtime.batches_sent_total`, one `runtime.queue_depth.w{i}` gauge per
    /// worker, `runtime.batch_sojourn_ns`) plus one shared
    /// [`PipelineMetrics`] bundle whose handles are shipped to every worker
    /// replica — the per-stage counters therefore aggregate over all shards,
    /// and `stream.edges_total` counts **replica ingests** (events × workers,
    /// minus ingest-filtered events). From this point on the facade also
    /// stamps every event's [`arrival_ns`](sp_graph::EdgeEvent::arrival_ns)
    /// at ingest, so `match.latency_ns` measures detection latency including
    /// the channel queueing delay.
    ///
    /// Metrics attach via the FIFO worker channels: batches already in
    /// flight stay unmetered, everything sent afterwards is metered. Calling
    /// this more than once re-registers the same names (idempotent in the
    /// registry) and re-ships handles.
    pub fn enable_metrics(&mut self, registry: &MetricsRegistry) {
        let pipeline = PipelineMetrics::register(registry);
        let sojourn = registry.histogram("runtime.batch_sojourn_ns");
        let queue_depth: Vec<Gauge> = (0..self.workers.len())
            .map(|w| registry.gauge(&format!("runtime.queue_depth.w{w}")))
            .collect();
        for (w, gauge) in queue_depth.iter().enumerate() {
            self.send_to_worker(
                w,
                WorkerMsg::Metrics {
                    pipeline: pipeline.clone(),
                    queue_depth: gauge.clone(),
                    sojourn: sojourn.clone(),
                },
            );
        }
        self.metrics = Some(RuntimeMetrics {
            backpressure: registry.counter("runtime.backpressure_stalls_total"),
            batches: registry.counter("runtime.batches_sent_total"),
            queue_depth,
        });
    }

    /// Builder-style variant of [`enable_metrics`](Self::enable_metrics).
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.enable_metrics(registry);
        self
    }

    /// Seeds the runtime's stream statistics (e.g. from
    /// `Dataset::estimator_from_prefix`). Subsequent edges keep updating the
    /// estimator unless statistics collection is disabled in the
    /// [`RuntimeConfig`].
    pub fn with_estimator(mut self, estimator: SelectivityEstimator) -> Self {
        self.control.set_estimator(estimator);
        self
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Runtime counters (batches, backpressure events).
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// The stream statistics collected so far on the ingest path.
    pub fn estimator(&self) -> &SelectivityEstimator {
        self.control.estimator()
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.assignments.len()
    }

    /// Ids of the registered queries, in ascending id (= registration)
    /// order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.assignments.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The worker shard a query is assigned to.
    pub fn shard_of(&self, id: QueryId) -> Option<usize> {
        self.assignments.get(&id).map(|a| a.worker)
    }

    /// The current estimated cost load of every shard, in shard order.
    pub fn shard_costs(&self) -> &[f64] {
        &self.shard_costs
    }

    /// Number of distinct canonical leaf shapes resident on a shard (the
    /// facade's mirror of the worker registry's shared-leaf index), used to
    /// observe sharing-aware placement.
    pub fn shard_resident_leaves(&self, worker: usize) -> usize {
        self.shard_sigs.get(worker).map(HashMap::len).unwrap_or(0)
    }

    /// Number of distinct canonical chain trie-path nodes resident on a
    /// shard — every prefix truncation of every registered chain counts
    /// once (the facade's mirror of the node set the worker registry's
    /// shared-join trie can materialize), used to observe
    /// prefix-sharing-aware placement. A shard hosting only depth-2 chains
    /// reports one node per distinct chain; a depth-3 chain contributes its
    /// depth-2 and depth-3 paths.
    pub fn shard_resident_chains(&self, worker: usize) -> usize {
        self.shard_chains.get(worker).map(HashMap::len).unwrap_or(0)
    }

    /// Books a decomposition's canonical leaf shapes and every trie-path
    /// node of its chain as resident on `worker` — what the worker's shared
    /// stages will hold once the plan runs there.
    fn occupy(&mut self, worker: usize, sigs: &[LeafSignature], chain: Option<&PrefixSignature>) {
        for sig in sigs {
            *self.shard_sigs[worker].entry(sig.clone()).or_insert(0) += 1;
        }
        for path in chain_paths(chain) {
            *self.shard_chains[worker].entry(path).or_insert(0) += 1;
        }
    }

    /// Releases what [`occupy`](Self::occupy) booked, dropping shapes and
    /// trie-path nodes whose refcount reaches zero.
    fn vacate(&mut self, worker: usize, sigs: &[LeafSignature], chain: Option<&PrefixSignature>) {
        fn release<K: std::hash::Hash + Eq>(counts: &mut HashMap<K, usize>, key: &K) {
            if let Some(count) = counts.get_mut(key) {
                *count -= 1;
                if *count == 0 {
                    counts.remove(key);
                }
            }
        }
        for sig in sigs {
            release(&mut self.shard_sigs[worker], sig);
        }
        for path in chain_paths(chain) {
            release(&mut self.shard_chains[worker], &path);
        }
    }

    /// Registers a continuous query, exactly as
    /// [`StreamProcessor::register`](streampattern::StreamProcessor::register)
    /// does — planned by the control plane against the ingest-path
    /// statistics — and places it on a shard
    /// ([`register_engine`](Self::register_engine) describes the placement).
    pub fn register(
        &mut self,
        query: QueryGraph,
        spec: impl Into<StrategySpec>,
        window: Option<u64>,
    ) -> Result<QueryId, EngineError> {
        let (id, engine) = self.control.plan(query, spec.into(), window)?;
        self.place(id, engine);
        Ok(id)
    }

    /// Registers a pre-built engine (custom decompositions, replayed trees)
    /// on the best shard by *sharing-aware* cost: the query's estimated cost
    /// is discounted on shards that already host its canonical leaf shapes
    /// (each worker's registry deduplicates leaf searches, so a co-located
    /// sharer is cheaper there), and the query goes to the shard minimizing
    /// `load + discounted cost`. With no overlap anywhere this reduces to
    /// the plain least-loaded assignment.
    ///
    /// Under adaptivity ([`crate::RuntimeConfig::adaptive`]) the engine's
    /// current strategy is treated as a `Fixed` registration: drift may
    /// re-order its leaves but never change the strategy.
    pub fn register_engine(&mut self, engine: ContinuousQueryEngine) -> QueryId {
        let id = self.control.adopt(&engine);
        self.place(id, engine);
        id
    }

    /// Shard placement: picks the worker, books the shard statistics, ships
    /// the engine and the (possibly widened) retention window.
    fn place(&mut self, id: QueryId, engine: ContinuousQueryEngine) {
        let estimator = self.control.estimator();
        // Cost floor keeps a shard from absorbing unbounded many "free"
        // queries: even a never-dispatched query costs registry space.
        let base_cost = estimator.estimate_query_cost(engine.query()).max(1e-6);
        let sigs = engine.tree().map(leaf_signatures).unwrap_or_default();
        let chain = engine.tree().and_then(tree_chain);
        let mut worker = 0;
        let mut cost = base_cost;
        let mut best_total = f64::INFINITY;
        for (w, &load) in self.shard_costs.iter().enumerate() {
            // A shard whose resident trie paths cover a prefix of this
            // chain will share the join tables along that path, not just
            // the leaf searches: the discount counts the covered prefix's
            // internal join nodes on top of the resident leaves. Resident
            // depths feed the trie-aware estimator as a set — nesting
            // paths are one storage, never double-counted.
            let resident_depths: Vec<usize> = chain
                .as_ref()
                .map(|c| {
                    (MIN_PREFIX_DEPTH..=c.depth())
                        .filter(|&d| self.shard_chains[w].contains_key(&c.truncated(d)))
                        .collect()
                })
                .unwrap_or_default();
            let benefit = estimator.estimate_sharing_benefit_with_prefixes(
                sigs.iter(),
                |sig| self.shard_sigs[w].contains_key(sig),
                resident_depths.iter().copied(),
            );
            let discounted = base_cost * (1.0 - SHARING_COST_DISCOUNT * benefit);
            let total = load + discounted;
            if total < best_total {
                best_total = total;
                worker = w;
                cost = discounted;
            }
        }
        self.shard_costs[worker] += cost;
        self.occupy(worker, &sigs, chain.as_ref());
        self.assignments.insert(
            id,
            ShardAssignment {
                worker,
                cost,
                sigs,
                chain,
            },
        );
        self.send_to_worker(
            worker,
            WorkerMsg::Register {
                id,
                engine: Box::new(engine),
            },
        );
        self.broadcast_retention();
    }

    /// Deregisters a query, returning its engine with runtime state intact.
    /// The owning worker removes it after finishing every batch sent before
    /// this call, so no in-flight event is lost or double-processed.
    pub fn deregister(&mut self, id: QueryId) -> Option<ContinuousQueryEngine> {
        let assignment = self.assignments.remove(&id)?;
        self.control.forget(id);
        let worker = assignment.worker;
        self.shard_costs[worker] = (self.shard_costs[worker] - assignment.cost).max(0.0);
        self.vacate(worker, &assignment.sigs, assignment.chain.as_ref());
        let (reply_tx, reply_rx) = channel();
        self.send_to_worker(
            worker,
            WorkerMsg::Deregister {
                id,
                reply: reply_tx,
            },
        );
        let engine = self.recv_reply(&reply_rx).map(|boxed| *boxed);
        self.broadcast_retention();
        engine
    }

    /// Ingests a whole stream: batches the events, broadcasts each batch to
    /// every worker, forwards every match into `sink`, and drains the
    /// pipeline before returning. Returns the number of matches delivered
    /// to `sink` by this call.
    pub fn process_all_into<'a, I, S>(&mut self, events: I, sink: &mut S) -> u64
    where
        I: IntoIterator<Item = &'a EdgeEvent>,
        S: MatchSink + ?Sized,
    {
        let mut delivered = self.flush_buffered(sink);
        let mut batch: Vec<EdgeEvent> = Vec::with_capacity(self.config.batch_size);
        for ev in events {
            if !Shard::accepts(ev) {
                // Dropped here, before the batch: every replica's edge ids
                // stay aligned with the facade's event count.
                self.rejected_events += 1;
                continue;
            }
            self.control.observe(&EdgeData {
                id: EdgeId(self.events_ingested),
                src: VertexId(ev.src),
                dst: VertexId(ev.dst),
                edge_type: ev.edge_type,
                timestamp: ev.timestamp,
            });
            self.events_ingested += 1;
            // With metrics attached the ingest instant rides on the event so
            // workers can measure detection latency from arrival, not from
            // dequeue. One clock read per event, only when metrics are on.
            batch.push(if self.metrics.is_some() {
                ev.stamped_now()
            } else {
                *ev
            });
            if batch.len() >= self.config.batch_size {
                self.broadcast(std::mem::take(&mut batch));
                batch = Vec::with_capacity(self.config.batch_size);
                delivered += self.flush_buffered(sink);
                self.check_drift_if_due();
            }
        }
        if !batch.is_empty() {
            self.broadcast(batch);
            self.check_drift_if_due();
        }
        delivered + self.drain_into(sink)
    }

    /// Ingests a whole stream and returns the total number of matches found,
    /// like [`StreamProcessor::process_all`](streampattern::StreamProcessor::process_all).
    pub fn process_all<'a, I>(&mut self, events: I) -> u64
    where
        I: IntoIterator<Item = &'a EdgeEvent>,
    {
        let mut sink = CountSink::new();
        self.process_all_into(events, &mut sink);
        sink.matches
    }

    /// Ingests one event and returns the matches it created. This drains the
    /// whole pipeline (a full barrier) per event — the counterpart of
    /// [`StreamProcessor::process`](streampattern::StreamProcessor::process),
    /// for convenience and tests; high-throughput callers should use
    /// [`process_all_into`](Self::process_all_into).
    pub fn process(&mut self, event: &EdgeEvent) -> Vec<(QueryId, SubgraphMatch)> {
        let mut sink = CollectSink::new();
        self.process_all_into(std::iter::once(event), &mut sink);
        sink.into_matches()
    }

    /// Barrier: waits until every worker has processed every batch sent so
    /// far, forwarding all resulting matches into `sink`. Returns the number
    /// of matches delivered by this call.
    pub fn drain_into<S: MatchSink + ?Sized>(&mut self, sink: &mut S) -> u64 {
        self.drain();
        self.flush_buffered(sink)
    }

    /// Barrier variant that buffers the drained matches internally (they are
    /// delivered to the next sink-taking call, or via
    /// [`take_pending_matches`](Self::take_pending_matches)).
    ///
    /// Every worker answers the barrier on the aggregation channel, behind
    /// the match batches it sent before it, so this blocks on that one
    /// channel until each worker's marker has arrived — by then all their
    /// matches have, too.
    pub fn drain(&mut self) {
        for w in 0..self.workers.len() {
            self.drains_pending += 1;
            self.send_to_worker(w, WorkerMsg::Drain);
        }
        while self.drains_pending > 0 {
            match self.match_rx.recv_timeout(LIVENESS_POLL) {
                Ok(output) => self.receive(output),
                // A worker that died with the barrier in its queue will
                // never answer it; the others keep the channel open.
                Err(RecvTimeoutError::Timeout) if self.workers_alive() => {}
                Err(_) => panic!("a worker thread terminated unexpectedly"),
            }
        }
    }

    fn workers_alive(&self) -> bool {
        self.workers
            .iter()
            .all(|w| w.join.as_ref().is_some_and(|j| !j.is_finished()))
    }

    /// Matches drained during control operations (register, deregister,
    /// profile, drain) that no sink has consumed yet, materialized.
    pub fn take_pending_matches(&mut self) -> Vec<(QueryId, SubgraphMatch)> {
        let mut pending = Vec::new();
        for batch in self.buffered.drain(..) {
            batch.deliver(&mut pending);
        }
        pending
    }

    /// Total matches found since construction, across all queries. Drains
    /// the pipeline to make the count exact.
    pub fn total_matches(&mut self) -> u64 {
        self.drain();
        self.total_matches
    }

    /// Aggregated profiling counters across all shards (drains the pipeline
    /// first): every query's engine counters merged via
    /// [`ProfileCounters::merge`], with `edges_processed` reporting events
    /// ingested by the runtime, `rejected_events` the events the facade
    /// refused before batching, and `vertex_type_conflicts` taken from the
    /// replica that saw the most (replicas are identical unless ingest
    /// filtering is on).
    pub fn profile(&mut self) -> ProfileCounters {
        let reports = self.worker_reports();
        self.merge_reports(&reports)
    }

    /// Total partial matches ever stored across every worker replica's
    /// match stores (drains the pipeline first) — the runtime's
    /// `alloc.allocs_per_match` denominator. Replicas store independently,
    /// so this grows with the worker count even though the reported match
    /// multiset does not.
    pub fn stored_matches(&mut self) -> u64 {
        self.worker_reports().iter().map(|r| r.stored_matches).sum()
    }

    /// Profiling counters of one query's engine (a snapshot; drains the
    /// pipeline first).
    pub fn profile_for(&mut self, id: QueryId) -> Option<ProfileCounters> {
        let worker = self.assignments.get(&id)?.worker;
        self.drain();
        let report = self.report_worker(worker);
        report
            .per_query
            .into_iter()
            .find(|&(q, _)| q == id)
            .map(|(_, p)| p)
    }

    /// The retention window currently broadcast to every graph replica (the
    /// global maximum across registered queries; `None` retains
    /// everything).
    pub fn graph_retention(&self) -> Option<u64> {
        self.control.retention()
    }

    /// Cumulative drift-adaptivity counters (zeroes when
    /// [`crate::RuntimeConfig::adaptive`] is off).
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        self.control.adaptive_stats()
    }

    /// The runtime's drift cadence: at a batch boundary, once
    /// `check_interval` edges have been ingested since the last check.
    fn check_drift_if_due(&mut self) {
        if self.control.drift_due() {
            self.run_drift_checks();
        }
    }

    /// One drift check over every registered query
    /// ([`ControlPlane::check_drift`]): each confirmed plan change is
    /// shipped to the owning worker as a `Redecompose` control message (FIFO
    /// with the edge batches, so the swap point is deterministic) and the
    /// shard's resident shapes move with it. Returns the number of
    /// re-decompositions issued. A no-op when adaptivity is off.
    pub fn run_drift_checks(&mut self) -> usize {
        let plans = self.control.check_drift();
        let issued = plans.len();
        for (id, strategy, tree) in plans {
            let mut placed = self
                .assignments
                .remove(&id)
                .expect("the control plane re-plans placed queries only");
            let worker = placed.worker;
            // The old leaves and trie paths unsubscribe on the worker's
            // `resubscribe`, the new ones subscribe; placement statistics
            // follow so future assignments stay accurate.
            self.vacate(worker, &placed.sigs, placed.chain.as_ref());
            placed.sigs = leaf_signatures(&tree);
            placed.chain = tree_chain(&tree);
            self.occupy(worker, &placed.sigs, placed.chain.as_ref());
            self.assignments.insert(id, placed);
            self.send_to_worker(
                worker,
                WorkerMsg::Redecompose {
                    id,
                    strategy,
                    tree: Box::new(tree),
                },
            );
        }
        issued
    }

    /// Merges worker snapshots into one aggregate, the same way
    /// [`StreamProcessor::profile`](streampattern::StreamProcessor::profile)
    /// aggregates its engines: engine counters summed via
    /// [`ProfileCounters::merge`], `edges_processed` reporting events
    /// ingested by the runtime, and `vertex_type_conflicts` taken from the
    /// replica that saw the most.
    fn merge_reports(&self, reports: &[WorkerReport]) -> ProfileCounters {
        let mut total = ProfileCounters::new();
        let mut conflicts = 0;
        for r in reports {
            for (_, p) in &r.per_query {
                total.merge(p);
            }
            conflicts = conflicts.max(r.vertex_type_conflicts);
        }
        total.edges_processed = self.events_ingested;
        total.vertex_type_conflicts = conflicts;
        total.rejected_events = self.rejected_events;
        total
    }

    /// Snapshots of every worker, in shard order (drains the pipeline
    /// first).
    pub fn worker_reports(&mut self) -> Vec<WorkerReport> {
        self.drain();
        (0..self.workers.len())
            .map(|w| self.report_worker(w))
            .collect()
    }

    /// Graceful shutdown: drains the pipeline, collects the final reports,
    /// terminates and joins every worker, and returns the merged report.
    pub fn shutdown(mut self) -> RuntimeReport {
        let workers = self.worker_reports();
        let profile = self.merge_reports(&workers);
        for w in 0..self.workers.len() {
            self.send_to_worker(w, WorkerMsg::Shutdown);
        }
        for handle in &mut self.workers {
            if let Some(join) = handle.join.take() {
                let _ = join.join();
            }
        }
        RuntimeReport {
            profile,
            workers,
            stats: self.stats,
            total_matches: self.total_matches,
            pending_matches: self.take_pending_matches(),
        }
    }

    // ---- internals ------------------------------------------------------

    /// Sends one message to one worker without deadlocking: when the bounded
    /// input channel is full, the ingest loop drains the aggregation channel
    /// (a blocked worker is usually blocked *on that channel*) and yields
    /// the core to the workers before retrying. Each blocked send counts as
    /// one backpressure event regardless of how long it waits.
    fn send_to_worker(&mut self, worker: usize, msg: WorkerMsg) {
        let mut msg = Some(msg);
        let mut blocked = false;
        loop {
            match self.workers[worker].tx.try_send(msg.take().expect("msg")) {
                Ok(()) => return,
                Err(TrySendError::Full(m)) => {
                    msg = Some(m);
                    if !blocked {
                        blocked = true;
                        self.stats.backpressure_events += 1;
                        if let Some(m) = &self.metrics {
                            m.backpressure.inc();
                        }
                    }
                    if self.drain_pending_matches() == 0 {
                        // Nothing to drain: the worker is compute-bound, not
                        // blocked on the aggregation channel. Sleep-wait on
                        // that channel instead of spinning — a match arrival
                        // wakes us immediately, and otherwise we hand the
                        // core to the workers for CONTROL_POLL.
                        self.drain_one_match_batch();
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    panic!("worker {worker} terminated unexpectedly")
                }
            }
        }
    }

    /// Broadcasts one batch to every worker.
    fn broadcast(&mut self, batch: Vec<EdgeEvent>) {
        let shared = Arc::new(batch);
        let sent_ns = if self.metrics.is_some() {
            monotonic_nanos()
        } else {
            0
        };
        for w in 0..self.workers.len() {
            if let Some(m) = &self.metrics {
                m.queue_depth[w].add(1);
            }
            self.send_to_worker(
                w,
                WorkerMsg::Batch {
                    events: shared.clone(),
                    sent_ns,
                },
            );
        }
        self.stats.batches_sent += 1;
        if let Some(m) = &self.metrics {
            m.batches.inc();
        }
    }

    /// Receives one control reply, draining the aggregation channel while
    /// waiting so a blocked worker can make progress toward replying.
    fn recv_reply<T>(&mut self, rx: &Receiver<T>) -> T {
        loop {
            match rx.recv_timeout(CONTROL_POLL) {
                Ok(v) => return v,
                Err(RecvTimeoutError::Timeout) => {
                    self.drain_pending_matches();
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("a worker thread terminated unexpectedly")
                }
            }
        }
    }

    fn report_worker(&mut self, worker: usize) -> WorkerReport {
        let (tx, rx) = channel();
        self.send_to_worker(worker, WorkerMsg::Report { reply: tx });
        self.recv_reply(&rx)
    }

    /// Books one aggregation-channel message: a match batch is queued for
    /// the next sink, a barrier marker retires one pending drain.
    fn receive(&mut self, (_, output): FromWorker) {
        match output {
            WorkerOutput::Matches(batch) => {
                self.stats.match_batches_received += 1;
                self.total_matches += batch.matches();
                self.buffered.push_back(batch);
            }
            WorkerOutput::Drained => self.drains_pending -= 1,
        }
    }

    /// Non-blocking drain of everything currently in the aggregation
    /// channel. Returns the number of batches drained.
    fn drain_pending_matches(&mut self) -> u64 {
        let mut drained = 0;
        while let Ok(output) = self.match_rx.try_recv() {
            self.receive(output);
            drained += 1;
        }
        drained
    }

    /// Blocks briefly for one match batch (used while a worker input channel
    /// is full, to guarantee forward progress without spinning). Tolerates a
    /// disconnected channel because it also runs during `Drop`, where the
    /// workers may already be gone.
    fn drain_one_match_batch(&mut self) {
        if let Ok(output) = self.match_rx.recv_timeout(CONTROL_POLL) {
            self.receive(output);
        }
    }

    fn flush_buffered<S: MatchSink + ?Sized>(&mut self, sink: &mut S) -> u64 {
        self.drain_pending_matches();
        let mut delivered = 0;
        while let Some(batch) = self.buffered.pop_front() {
            batch.deliver(sink);
            delivered += batch.matches();
        }
        delivered
    }

    /// Ships the control plane's retention window to every replica, so a
    /// query registered mid-stream on any shard still finds the history it
    /// is entitled to.
    fn broadcast_retention(&mut self) {
        let retention = self.control.retention();
        for w in 0..self.workers.len() {
            self.send_to_worker(w, WorkerMsg::SetRetention(retention));
        }
    }
}

impl Drop for ParallelStreamProcessor {
    fn drop(&mut self) {
        for w in 0..self.workers.len() {
            // Best effort: a full channel drains through the normal path; a
            // disconnected one means the worker is already gone.
            let mut msg = Some(WorkerMsg::Shutdown);
            loop {
                match self.workers[w].tx.try_send(msg.take().expect("msg")) {
                    Ok(()) => break,
                    Err(TrySendError::Full(m)) => {
                        msg = Some(m);
                        self.drain_one_match_batch();
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        }
        for handle in &mut self.workers {
            if let Some(join) = handle.join.take() {
                let _ = join.join();
            }
        }
    }
}
