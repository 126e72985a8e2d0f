//! The thread executor: N shards on worker threads behind bounded FIFO
//! channels ([`Threads`]), and what [`ParallelStreamProcessor`] adds to the
//! shared facade for it.
//!
//! ```text
//!              caller thread = ingest: batch + broadcast
//!  events ──► [e,e,e,…] ──┬──► bounded ch ──► worker 0: one Shard      ──┐
//!  (stats → ControlPlane) ├──► bounded ch ──► worker 1: (graph replica ─┤──► MPSC
//!                         └──► bounded ch ──► worker N:  + engines)    ─┘  aggregation
//!                                                                          (row batches)
//! ```

use crate::config::RuntimeConfig;
use crate::metrics::PipelineMetrics;
use crate::processor::{Executor, Processor};
use crate::profile::ProfileCounters;
use crate::shard::Shard;
use crate::sink::RowSink;
use crate::worker::{
    worker_loop, FromWorker, RowBatch, Worker, WorkerMsg, WorkerOutput, WorkerReport,
};
use crate::QueryId;
use sp_graph::{monotonic_nanos, EdgeData, EdgeEvent, EdgeId, Schema, VertexId};
use sp_iso::SubgraphMatch;
use sp_metrics::{Counter, Gauge, MetricsRegistry};
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a wait for room in a full worker channel sleeps on the
/// aggregation channel when nothing was queued there. Small enough to stay
/// responsive, large enough not to spin.
const CONTROL_POLL: Duration = Duration::from_micros(50);

/// How long a wait for worker answers blocks on the aggregation channel
/// before it checks that every worker thread is still running.
const LIVENESS_POLL: Duration = Duration::from_millis(100);

/// Observable counters of the thread executor itself (as opposed to the
/// query engines' [`ProfileCounters`]).
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
    /// Aggregated profiling counters ([`Processor::profile`]).
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

/// The thread executor: one [`Shard`] per worker thread.
///
/// * The calling thread batches the events and broadcasts each batch over
///   a bounded channel per worker, blocking when a worker falls behind
///   (backpressure). Every worker ingests every event into its own graph
///   replica, so a query registered on any shard finds its history.
/// * Complete matches come back through one bounded aggregation channel as
///   rows in each query's own numbering, in per-worker order, and become a
///   `SubgraphMatch` only in the caller's sink, on the calling thread.
/// * A job shares its worker's FIFO channel with the batches, and its
///   answer comes back behind that worker's earlier match batches: a query
///   registered between two calls sees exactly the stream suffix the
///   inline executor would, and every answer is a barrier.
pub struct Threads {
    config: RuntimeConfig,
    workers: Vec<WorkerHandle>,
    match_rx: Receiver<FromWorker>,
    /// Events accepted so far: the id the next accepted event gets on every
    /// replica.
    events_ingested: u64,
    /// Match batches received and not yet delivered to a sink.
    buffered: VecDeque<RowBatch>,
    /// Answers to the pending [`ask`](Threads::ask_workers) received so
    /// far, with the worker that sent each.
    answers: Vec<(usize, Box<dyn Any + Send>)>,
    stats: RuntimeStats,
    metrics: Option<RuntimeMetrics>,
}

/// The facade over N [`Shard`]s on worker threads.
pub type ParallelStreamProcessor = Processor<Threads>;

impl Executor for Threads {
    fn run(&mut self, shard: usize, job: impl FnOnce(&mut Shard) + Send + 'static) {
        self.run_worker(shard, move |w| job(&mut w.shard));
    }

    fn ask<T: Send + 'static>(
        &mut self,
        shards: Range<usize>,
        job: impl Fn(&mut Shard) -> T + Clone + Send + 'static,
    ) -> Vec<T> {
        self.ask_workers(shards, move |w| job(&mut w.shard))
    }

    /// Batches the events, broadcasts each batch to every worker, forwards
    /// every match into `sink`, checks the drift cadence at each batch
    /// boundary, and drains the pipeline before returning.
    fn ingest<'a, S: RowSink + ?Sized>(
        p: &mut Processor<Self>,
        events: impl IntoIterator<Item = &'a EdgeEvent>,
        sink: &mut S,
    ) -> u64 {
        let batch_size = p.exec.config.batch_size;
        let mut delivered = p.exec.flush_buffered(sink);
        let mut batch: Vec<EdgeEvent> = Vec::with_capacity(batch_size);
        // With metrics attached, each event's ingest instant rides beside
        // the batch so workers measure detection latency from arrival, not
        // from dequeue. One clock read per event, only when metrics are on.
        let mut arrivals: Option<Vec<u64>> = p
            .exec
            .metrics
            .is_some()
            .then(|| Vec::with_capacity(batch_size));
        for ev in events {
            // A refused event rides along: every replica refuses and counts
            // it, and only accepted events take an edge id.
            if Shard::accepts(ev) {
                p.control.observe(&EdgeData {
                    id: EdgeId(p.exec.events_ingested),
                    src: VertexId(ev.src),
                    dst: VertexId(ev.dst),
                    edge_type: ev.edge_type,
                    timestamp: ev.timestamp,
                });
                p.exec.events_ingested += 1;
            }
            batch.push(*ev);
            if let Some(stamps) = arrivals.as_mut() {
                stamps.push(monotonic_nanos());
            }
            if batch.len() >= batch_size {
                let stamps = arrivals
                    .as_mut()
                    .map(|a| std::mem::replace(a, Vec::with_capacity(batch_size)));
                p.exec.broadcast(std::mem::take(&mut batch), stamps);
                batch = Vec::with_capacity(batch_size);
                delivered += p.exec.flush_buffered(sink);
                p.check_drift_if_due();
            }
        }
        if !batch.is_empty() {
            p.exec.broadcast(batch, arrivals);
            p.check_drift_if_due();
        }
        p.exec.drain();
        delivered + p.exec.flush_buffered(sink)
    }
}

impl Processor<Threads> {
    /// Spawns the worker threads and returns an empty runtime (no registered
    /// queries). Until a query is registered, processed edges only grow the
    /// worker replicas.
    pub fn new(schema: Schema, config: RuntimeConfig) -> Self {
        let config = RuntimeConfig {
            workers: config.workers.max(1),
            batch_size: config.batch_size.max(1),
            channel_capacity: config.channel_capacity.max(1),
            match_capacity: config.match_capacity.max(1),
            ..config
        };
        let (match_tx, match_rx) = sync_channel::<FromWorker>(config.match_capacity);
        let workers = (0..config.workers)
            .map(|idx| {
                let (tx, rx) = sync_channel::<WorkerMsg>(config.channel_capacity);
                let (schema, match_tx) = (schema.clone(), match_tx.clone());
                let join = std::thread::Builder::new()
                    .name(format!("sp-worker-{idx}"))
                    .spawn(move || worker_loop(idx, schema, rx, match_tx))
                    .expect("spawn worker thread");
                WorkerHandle {
                    tx,
                    join: Some(join),
                }
            })
            .collect();
        let threads = Threads {
            config,
            workers,
            match_rx,
            events_ingested: 0,
            buffered: VecDeque::new(),
            answers: Vec::new(),
            stats: RuntimeStats::default(),
            metrics: None,
        };
        Self::over(threads, config.workers).with_statistics(config.collect_statistics)
    }

    /// Attaches a [`MetricsRegistry`]: the facade's series
    /// (`runtime.backpressure_stalls_total`, `runtime.batches_sent_total`,
    /// a `runtime.queue_depth.w{i}` gauge per worker,
    /// `runtime.batch_sojourn_ns`) plus one [`PipelineMetrics`] bundle
    /// shared by every worker, so the stage counters aggregate over all
    /// shards and `stream.edges_total` counts replica ingests (events ×
    /// workers). From here on the facade takes each event's ingest instant
    /// and ships it beside the batch, so `match.latency_ns` counts from
    /// ingest and includes the batching and queueing delay, and the engines
    /// time `ProfileCounters::{iso_time, update_time}`; without metrics no
    /// worker reads a clock per edge. Batches already in flight stay
    /// unmetered.
    pub fn enable_metrics(&mut self, registry: &MetricsRegistry) {
        let pipeline = PipelineMetrics::register(registry);
        let sojourn = registry.histogram("runtime.batch_sojourn_ns");
        let queue_depth: Vec<Gauge> = (0..self.exec.workers.len())
            .map(|w| registry.gauge(&format!("runtime.queue_depth.w{w}")))
            .collect();
        for (w, gauge) in queue_depth.iter().enumerate() {
            let (pipeline, gauge, sojourn) = (pipeline.clone(), gauge.clone(), sojourn.clone());
            self.exec.run_worker(w, move |worker| {
                worker.shard.set_metrics(Some(pipeline));
                worker.telemetry = Some((gauge, sojourn));
            });
        }
        self.exec.metrics = Some(RuntimeMetrics {
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

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.exec.config
    }

    /// Runtime counters (batches, backpressure events).
    pub fn stats(&self) -> RuntimeStats {
        self.exec.stats
    }

    /// The current estimated cost load of every shard, in shard order: the
    /// summed placement costs of the queries each shard hosts.
    pub fn shard_costs(&self) -> &[f64] {
        self.control.loads()
    }

    /// Barrier that buffers the drained matches internally (they are
    /// delivered to the next sink-taking call, or in
    /// [`RuntimeReport::pending_matches`] at [`shutdown`](Self::shutdown)).
    /// `process_all_into(&[], sink)` is the barrier that hands them to
    /// `sink`.
    pub fn drain(&mut self) {
        self.exec.drain();
    }

    /// Snapshots of every worker, in shard order. Each report arrives
    /// behind its worker's earlier match batches, so this drains the
    /// pipeline too.
    pub fn worker_reports(&mut self) -> Vec<WorkerReport> {
        self.exec
            .ask_workers(0..self.exec.workers.len(), |w| w.report())
    }

    /// Graceful shutdown: drains the pipeline, collects the final reports,
    /// then terminates and joins every worker (dropping the executor does
    /// that), and returns the merged report.
    pub fn shutdown(mut self) -> RuntimeReport {
        let workers = self.worker_reports();
        let mut pending_matches = Vec::new();
        self.process_all_into([], &mut pending_matches);
        RuntimeReport {
            profile: self.profile(),
            total_matches: workers.iter().map(|r| r.matches_found).sum(),
            workers,
            stats: self.exec.stats,
            pending_matches,
        }
    }
}

impl Threads {
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

    /// Broadcasts one batch, with its events' ingest instants when metrics
    /// are attached, to every worker.
    fn broadcast(&mut self, batch: Vec<EdgeEvent>, arrivals: Option<Vec<u64>>) {
        let shared = Arc::new(batch);
        let arrivals = arrivals.map(Arc::new);
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
                    arrivals: arrivals.clone(),
                    sent_ns,
                },
            );
        }
        self.stats.batches_sent += 1;
        if let Some(m) = &self.metrics {
            m.batches.inc();
        }
    }

    /// Runs `f` on one worker, between the batches sent before and after
    /// this call.
    fn run_worker(&mut self, worker: usize, f: impl FnOnce(&mut Worker) + Send + 'static) {
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
    fn ask_workers<T, F>(&mut self, workers: Range<usize>, f: F) -> Vec<T>
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

    /// Every worker answers an empty job behind the match batches it sent
    /// before it, so once each answer has arrived all their matches have,
    /// too.
    fn drain(&mut self) {
        self.ask_workers(0..self.workers.len(), |_| ());
    }

    /// Books everything queued on the aggregation channel, first waiting up
    /// to `timeout` when nothing is: a match batch is queued for the next
    /// sink, an answer belongs to the pending
    /// [`ask_workers`](Self::ask_workers). This holds the one liveness
    /// check: a worker that died never answers, but the others keep the
    /// channel open, so a wait that times out checks that every worker
    /// still runs.
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

    fn workers_alive(&self) -> bool {
        self.workers
            .iter()
            .all(|w| w.join.as_ref().is_some_and(|j| !j.is_finished()))
    }

    /// Books one aggregation-channel message.
    fn receive(&mut self, (worker, output): FromWorker) {
        match output {
            WorkerOutput::Matches(batch) => {
                self.stats.match_batches_received += 1;
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
}

impl Drop for Threads {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use sp_graph::Timestamp;
    use sp_query::QueryGraph;

    /// `match.latency_ns` counts from the facade's ingest instant, not from
    /// the worker's dequeue: a worker held up for 30 ms after the batch was
    /// sent reports every match at least 30 ms late.
    #[test]
    fn latency_counts_from_ingest_not_from_dequeue() {
        const HOLD: Duration = Duration::from_millis(30);
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let mut q = QueryGraph::new("tcp");
        let (a, b) = (q.add_any_vertex(), q.add_any_vertex());
        q.add_edge(a, b, tcp);
        let registry = MetricsRegistry::new();
        let mut p = ParallelStreamProcessor::new(schema, RuntimeConfig::with_workers(1))
            .with_metrics(&registry);
        p.register(q, Strategy::Single, None).unwrap();
        // Queued ahead of the batch: the job waits until the facade has
        // stamped and sent the batch (its queue-depth gauge rises on the
        // send), then holds the worker.
        p.exec.run_worker(0, |w| {
            let (queue_depth, _) = w.telemetry.as_ref().expect("metrics are attached");
            while queue_depth.get() < 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(HOLD);
        });
        let events: Vec<EdgeEvent> = (0..8)
            .map(|t| EdgeEvent::homogeneous(t, t + 1, ip, tcp, Timestamp(t)))
            .collect();
        assert_eq!(p.process_all(&events), 8);
        let snapshot = registry.snapshot();
        let latency = snapshot.histogram("match.latency_ns").unwrap();
        assert_eq!(latency.count(), 8);
        let least = latency.min().unwrap();
        assert!(
            least >= HOLD.as_nanos() as u64,
            "a match reported {least} ns after its ingest, under the {HOLD:?} hold"
        );
    }
}
