//! The parallel front end: one [`ControlPlane`] — the same one the sequential
//! [`StreamProcessor`](streampattern::StreamProcessor) drives — plus shard
//! placement, in front of N worker threads that each run one [`Shard`].

use crate::config::RuntimeConfig;
use crate::worker::{
    worker_loop, FromWorker, RowBatch, Worker, WorkerMsg, WorkerOutput, WorkerReport,
};
use sp_graph::{monotonic_nanos, EdgeData, EdgeEvent, EdgeId, Schema, VertexId};
use sp_iso::SubgraphMatch;
use sp_metrics::{Counter, Gauge, MetricsRegistry};
use sp_query::QueryGraph;
use sp_selectivity::SelectivityEstimator;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use streampattern::{
    AdaptiveStats, ContinuousQueryEngine, ControlPlane, CountSink, EngineError, PipelineMetrics,
    ProfileCounters, QueryId, RowSink, Shard, StrategySpec,
};

/// How long a wait for room in a full worker channel sleeps on the
/// aggregation channel when nothing was queued there. Small enough to stay
/// responsive, large enough not to spin.
const CONTROL_POLL: Duration = Duration::from_micros(50);

/// How long a wait for worker answers blocks on the aggregation channel
/// before it checks that every worker thread is still running.
const LIVENESS_POLL: Duration = Duration::from_millis(100);

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
/// replicas hold their own handles (shipped in a control job); all
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

/// Where a query runs and the cost it added to that shard's load.
#[derive(Debug, Clone, Copy)]
struct ShardAssignment {
    worker: usize,
    cost: f64,
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
/// * each worker owns one [`Shard`] — a full windowed
///   graph replica plus its slice of the engines — whose edge-type dispatch
///   index skips engines exactly as the sequential processor's would;
/// * complete matches flow back through one bounded MPSC aggregation
///   channel as fixed-width rows in each query's own numbering, one batch
///   per input batch; per-worker emission order is preserved, interleaving
///   across workers is arbitrary. A match becomes a `SubgraphMatch` once,
///   here on the calling thread, on its way into the caller's sink.
///
/// Because control jobs share the per-worker FIFO channels with the
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
    events_ingested: u64,
    /// Events refused at ingest ([`Shard::accepts`]).
    rejected_events: u64,
    total_matches: u64,
    /// Match batches received and not yet delivered to a sink.
    buffered: VecDeque<RowBatch>,
    /// Answers to the pending [`ask`](Self::ask) received so far, with the
    /// worker that sent each.
    answers: Vec<(usize, Box<dyn Any + Send>)>,
    stats: RuntimeStats,
    metrics: Option<RuntimeMetrics>,
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
            events_ingested: 0,
            rejected_events: 0,
            total_matches: 0,
            buffered: VecDeque::new(),
            answers: Vec::new(),
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
    /// and `stream.edges_total` counts **replica ingests** (events ×
    /// workers). From this point on the facade also
    /// stamps every event's [`arrival_ns`](sp_graph::EdgeEvent::arrival_ns)
    /// at ingest, so `match.latency_ns` measures detection latency including
    /// the channel queueing delay, and the workers' engines start timing
    /// their searches and inserts into `ProfileCounters::{iso_time,
    /// update_time}`. Without this call no worker reads a clock per edge and
    /// those two timers read zero.
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
            let (pipeline, gauge, sojourn) = (pipeline.clone(), gauge.clone(), sojourn.clone());
            self.run(w, move |worker| {
                worker.shard.set_metrics(Some(pipeline));
                worker.telemetry = Some((gauge, sojourn));
            });
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

    /// The current estimated cost load of every shard, in shard order: the
    /// summed placement costs of the queries each shard hosts.
    pub fn shard_costs(&self) -> &[f64] {
        &self.shard_costs
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
    /// on the least-loaded shard. A query's cost is
    /// [`SelectivityEstimator::estimate_query_cost`] of its pattern against
    /// the ingest-path statistics, floored at `1e-6`; a shard's load is the
    /// summed cost of the queries it hosts ([`shard_costs`](Self::shard_costs)),
    /// and ties go to the lowest shard index.
    ///
    /// Under adaptivity ([`crate::RuntimeConfig::adaptive`]) the engine's
    /// current strategy is treated as a `Fixed` registration: drift may
    /// re-order its leaves but never change the strategy. Its tree is
    /// judged at the next due drift check like a planned one, so a leaf
    /// order the planner beats materially is rebuilt.
    pub fn register_engine(&mut self, engine: ContinuousQueryEngine) -> QueryId {
        let id = self.control.adopt(&engine);
        self.place(id, engine);
        id
    }

    /// Shard placement: picks the worker, books the shard statistics, ships
    /// the engine and the (possibly widened) retention window.
    fn place(&mut self, id: QueryId, engine: ContinuousQueryEngine) {
        // Cost floor keeps a shard from absorbing unbounded many "free"
        // queries: even a never-dispatched query costs shard space.
        let cost = self
            .control
            .estimator()
            .estimate_query_cost(engine.query())
            .max(1e-6);
        let worker = (0..self.shard_costs.len())
            .min_by(|&a, &b| self.shard_costs[a].total_cmp(&self.shard_costs[b]))
            .expect("the runtime has at least one worker");
        self.shard_costs[worker] += cost;
        self.assignments
            .insert(id, ShardAssignment { worker, cost });
        self.run(worker, move |w| w.shard.register(id, engine));
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
        let engine = self
            .ask(worker..worker + 1, move |w| w.shard.deregister(id))
            .pop();
        self.broadcast_retention();
        engine.flatten()
    }

    /// Ingests a whole stream: batches the events, broadcasts each batch to
    /// every worker, forwards every match into `sink`, and drains the
    /// pipeline before returning. Returns the number of matches delivered
    /// to `sink` by this call.
    pub fn process_all_into<'a, I, S>(&mut self, events: I, sink: &mut S) -> u64
    where
        I: IntoIterator<Item = &'a EdgeEvent>,
        S: RowSink + ?Sized,
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
        let mut matches = Vec::new();
        self.process_all_into(std::iter::once(event), &mut matches);
        matches
    }

    /// Barrier: waits until every worker has processed every batch sent so
    /// far, forwarding all resulting matches into `sink`. Returns the number
    /// of matches delivered by this call.
    pub fn drain_into<S: RowSink + ?Sized>(&mut self, sink: &mut S) -> u64 {
        self.drain();
        self.flush_buffered(sink)
    }

    /// Barrier variant that buffers the drained matches internally (they are
    /// delivered to the next sink-taking call, or in
    /// [`RuntimeReport::pending_matches`] at [`shutdown`](Self::shutdown)).
    ///
    /// Every worker answers an empty job on the aggregation channel, behind
    /// the match batches it sent before it, so once each worker's answer
    /// has arrived all their matches have, too.
    pub fn drain(&mut self) {
        self.ask(0..self.workers.len(), |_| ());
    }

    fn workers_alive(&self) -> bool {
        self.workers
            .iter()
            .all(|w| w.join.as_ref().is_some_and(|j| !j.is_finished()))
    }

    /// Matches drained during control operations (register, deregister,
    /// profile, drain) that no sink has consumed yet, materialized.
    fn take_pending_matches(&mut self) -> Vec<(QueryId, SubgraphMatch)> {
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
    /// replica that saw the most (every replica ingests the same events).
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
        self.worker_reports()
            .swap_remove(worker)
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
    /// ([`ControlPlane::check_drift`]): each materially better re-plan is
    /// shipped to the owning worker as a control job (FIFO
    /// with the edge batches, so the swap point is deterministic). The query
    /// stays on its shard. Returns the number of re-decompositions issued. A
    /// no-op when adaptivity is off.
    pub fn run_drift_checks(&mut self) -> usize {
        let plans = self.control.check_drift();
        let issued = plans.len();
        for (id, strategy, tree) in plans {
            let worker = self
                .assignments
                .get(&id)
                .expect("the control plane re-plans placed queries only")
                .worker;
            self.run(worker, move |w| {
                w.shard
                    .redecompose(id, strategy, tree)
                    .expect("the control plane re-planned a query this shard runs");
            });
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

    /// Snapshots of every worker, in shard order. Each report arrives
    /// behind its worker's earlier match batches, so this drains the
    /// pipeline too.
    pub fn worker_reports(&mut self) -> Vec<WorkerReport> {
        self.ask(0..self.workers.len(), |w| w.report())
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
    fn send_to_worker(&mut self, worker: usize, mut msg: WorkerMsg) {
        let mut blocked = false;
        loop {
            match self.workers[worker].tx.try_send(msg) {
                Ok(()) => return,
                Err(TrySendError::Full(m)) => {
                    msg = m;
                    if !blocked {
                        blocked = true;
                        self.stats.backpressure_events += 1;
                        if let Some(m) = &self.metrics {
                            m.backpressure.inc();
                        }
                    }
                    // Take what is queued; with nothing queued the worker is
                    // compute-bound, not blocked on the aggregation channel,
                    // so sleep-wait on that channel instead of spinning — an
                    // arrival wakes us immediately, and otherwise we hand
                    // the core to the workers for CONTROL_POLL.
                    self.wait(CONTROL_POLL);
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

    /// Runs `f` on one worker's shard, between the batches sent before and
    /// after this call.
    fn run(&mut self, worker: usize, f: impl FnOnce(&mut Worker) + Send + 'static) {
        let job = move |w: &mut Worker| {
            f(w);
            None
        };
        self.send_to_worker(worker, WorkerMsg::Run(Box::new(job)));
    }

    /// Runs `f` on each worker in `workers`, then waits until all of them
    /// have answered, booking the match batches that arrive meanwhile.
    /// Returns the answers in worker order. An answer arrives behind every
    /// match batch its worker sent before it, so each is also that worker's
    /// barrier.
    fn ask<T, F>(&mut self, workers: Range<usize>, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(&mut Worker) -> T + Clone + Send + 'static,
    {
        let asked = workers.len();
        for idx in workers {
            let f = f.clone();
            let job = move |w: &mut Worker| Some(Box::new(f(w)) as Box<dyn Any + Send>);
            self.send_to_worker(idx, WorkerMsg::Run(Box::new(job)));
        }
        while self.answers.len() < asked {
            self.wait(LIVENESS_POLL);
        }
        self.answers.sort_by_key(|&(w, _)| w);
        self.answers
            .drain(..)
            .map(|(_, answer)| *answer.downcast().expect("an answer of the asked type"))
            .collect()
    }

    /// Books everything queued on the aggregation channel, first waiting up
    /// to `timeout` when nothing is: a match batch is queued for the next
    /// sink, an answer belongs to the pending [`ask`](Self::ask).
    /// This holds the one liveness check: a worker that died never answers,
    /// but the others keep the channel open, so a wait that times out
    /// checks that every worker still runs.
    fn wait(&mut self, timeout: Duration) {
        match self.match_rx.recv_timeout(timeout) {
            Ok(output) => self.receive(output),
            Err(RecvTimeoutError::Timeout) if self.workers_alive() => return,
            Err(_) => panic!("a worker thread terminated unexpectedly"),
        }
        while let Ok(output) = self.match_rx.try_recv() {
            self.receive(output);
        }
    }

    /// Books one aggregation-channel message.
    fn receive(&mut self, (worker, output): FromWorker) {
        match output {
            WorkerOutput::Matches(batch) => {
                self.stats.match_batches_received += 1;
                self.total_matches += batch.matches();
                self.buffered.push_back(batch);
            }
            WorkerOutput::Answer(answer) => self.answers.push((worker, answer)),
        }
    }

    fn flush_buffered<S: RowSink + ?Sized>(&mut self, sink: &mut S) -> u64 {
        self.wait(Duration::ZERO);
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
            self.run(w, move |worker| worker.shard.set_retention(retention));
        }
    }
}

impl Drop for ParallelStreamProcessor {
    fn drop(&mut self) {
        for w in 0..self.workers.len() {
            // Best effort: a full channel is emptied by taking what the
            // worker sends (not through `wait`: the workers shut down
            // earlier in this loop are gone, and what arrives is dropped
            // with us); a disconnected one means the worker is already gone.
            let mut msg = WorkerMsg::Shutdown;
            while let Err(TrySendError::Full(m)) = self.workers[w].tx.try_send(msg) {
                msg = m;
                let _ = self.match_rx.recv_timeout(CONTROL_POLL);
            }
        }
        for handle in &mut self.workers {
            if let Some(join) = handle.join.take() {
                let _ = join.join();
            }
        }
    }
}
