//! The worker side of the thread executor: one thread per shard, each
//! owning one [`Shard`] (its graph replica plus its slice of the engines)
//! and nothing that plans. A worker drains one bounded input channel in
//! FIFO order; besides edge batches it carries jobs, closures run on the
//! shard between two batches, so a query registered after batch *k* sees
//! exactly the stream from batch *k+1* on, as it would inline. Match
//! batches and job answers go back down the one aggregation channel, so an
//! answer arrives behind every match batch sent before it.

use crate::control::QueryId;
use crate::profile::ProfileCounters;
use crate::shard::Shard;
use crate::sharedjoin::SharedRow;
use crate::sink::RowSink;
use sp_graph::{monotonic_nanos, EdgeEvent, Schema};
use sp_metrics::{Gauge, Histogram};
use sp_sjtree::RowLayout;
use std::any::Any;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

/// The complete matches of one input batch, as fixed-width rows in each
/// query's own numbering: this is the worker's sink, and what crosses the
/// aggregation channel. Consecutive matches of one query form a *burst*
/// under one `(query, layout, count)` header, so a match costs its row
/// (edges + vertices + 2 words) on the wire, not a 288-byte `SubgraphMatch`;
/// the facade hands the bursts to the caller's sink ([`RowBatch::deliver`]),
/// so a `MatchSink` builds that value once, in the caller's thread.
#[derive(Debug, Default)]
pub(crate) struct RowBatch {
    /// One header per burst, in report order.
    bursts: Vec<(QueryId, RowLayout, u32)>,
    /// The bursts' rows, back to back.
    rows: Vec<u64>,
}

impl RowBatch {
    /// Extends the current burst by `count` rows if it has this header,
    /// else opens a new one.
    fn burst(&mut self, query: QueryId, layout: RowLayout, count: u32) {
        match self.bursts.last_mut() {
            Some((q, l, n)) if *q == query && *l == layout => *n += count,
            _ => self.bursts.push((query, layout, count)),
        }
    }

    /// Number of matches in the batch.
    pub(crate) fn matches(&self) -> u64 {
        self.bursts.iter().map(|&(_, _, n)| u64::from(n)).sum()
    }

    /// Moves the collected matches out, leaving an empty batch sized like
    /// the one that left — the next input batch fills it without regrowth.
    fn take(&mut self) -> RowBatch {
        let sized_alike = RowBatch {
            bursts: Vec::with_capacity(self.bursts.len()),
            rows: Vec::with_capacity(self.rows.len()),
        };
        std::mem::replace(self, sized_alike)
    }

    /// Hands every burst, in report order, to `sink` — the one place a
    /// match that crossed the channel leaves the runtime.
    pub(crate) fn deliver<S: RowSink + ?Sized>(&self, sink: &mut S) {
        let mut rows = self.rows.as_slice();
        for &(query, layout, count) in &self.bursts {
            let (burst, rest) = rows.split_at(count as usize * layout.stride());
            sink.on_rows(query, layout, burst);
            rows = rest;
        }
    }
}

impl RowSink for RowBatch {
    fn on_rows(&mut self, query: QueryId, layout: RowLayout, rows: &[u64]) {
        self.burst(query, layout, (rows.len() / layout.stride()) as u32);
        self.rows.extend_from_slice(rows);
    }

    fn on_shared_row(&mut self, query: QueryId, row: SharedRow<'_>) {
        self.burst(query, row.target_layout(), 1);
        row.rebase_into(&mut self.rows);
    }
}

/// What a worker puts on the aggregation channel.
pub(crate) enum WorkerOutput {
    /// The matches of one input batch, in report order. Matches from one
    /// worker always arrive in the order that worker produced them;
    /// interleaving across workers is arbitrary.
    Matches(RowBatch),
    /// A job's answer. The channel is FIFO per worker, so it arrives behind
    /// every match batch the worker sent before it.
    Answer(Box<dyn Any + Send>),
}

/// One aggregation-channel message: the originating worker index and its
/// output.
pub(crate) type FromWorker = (usize, WorkerOutput);

/// A control job: one call on a worker's shard, run between two input
/// batches. An answer it returns goes down the aggregation channel.
pub(crate) type Job = Box<dyn FnOnce(&mut Worker) -> Option<Box<dyn Any + Send>> + Send>;

/// Messages a worker accepts on its input channel.
pub(crate) enum WorkerMsg {
    /// A batch of stream events, shared across all workers via `Arc`.
    /// With metrics attached, `arrivals` holds each event's ingest instant
    /// on the process monotonic clock, in event order, and `sent_ns` the
    /// facade's broadcast instant — the worker's dequeue instant minus it
    /// is the batch's channel sojourn time. Without metrics they are `None`
    /// and 0.
    Batch {
        events: Arc<Vec<EdgeEvent>>,
        arrivals: Option<Arc<Vec<u64>>>,
        sent_ns: u64,
    },
    /// Run a control job. Riding the FIFO channel, it sees the shard exactly
    /// as every batch sent before it left it.
    Run(Job),
    /// Terminate the worker loop.
    Shutdown,
}

/// What a control job runs on: one worker's shard and telemetry handles.
pub(crate) struct Worker {
    /// Worker (shard) index.
    pub(crate) idx: usize,
    pub(crate) shard: Shard,
    /// This worker's queue-depth gauge and the shared batch-sojourn
    /// histogram; `None` keeps the loop clock-free.
    pub(crate) telemetry: Option<(Gauge, Histogram)>,
}

impl Worker {
    /// Snapshot of this worker's counters.
    pub(crate) fn report(&self) -> WorkerReport {
        WorkerReport {
            worker: self.idx,
            per_query: self
                .shard
                .engines()
                .map(|(id, engine)| (id, engine.profile().clone()))
                .collect(),
            edges_ingested: self.shard.graph().total_edges_seen(),
            matches_found: self.shard.total_matches(),
            graph_edges_live: self.shard.graph().num_edges(),
        }
    }
}

/// Snapshot of one worker's state, for per-worker reporting ([`RuntimeReport::workers`](crate::RuntimeReport::workers)).
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker (shard) index.
    pub worker: usize,
    /// Profiling counters per query hosted on this shard, sorted by id.
    pub per_query: Vec<(QueryId, ProfileCounters)>,
    /// Events this replica ingested into its graph: every event the facade
    /// accepted, so it equals the facade's event count.
    pub edges_ingested: u64,
    /// Cumulative matches this worker has emitted.
    pub matches_found: u64,
    /// Edges currently live in the shard's graph replica.
    pub graph_edges_live: usize,
}

/// The worker thread body. Runs until [`WorkerMsg::Shutdown`] arrives or the
/// input channel disconnects.
pub(crate) fn worker_loop(
    idx: usize,
    schema: Schema,
    rx: Receiver<WorkerMsg>,
    match_tx: SyncSender<FromWorker>,
) {
    let mut worker = Worker {
        idx,
        shard: Shard::new(schema),
        telemetry: None,
    };
    // The shard's sink, refilled per input batch.
    let mut out = RowBatch::default();

    while let Ok(msg) = rx.recv() {
        let output = match msg {
            WorkerMsg::Batch {
                events,
                arrivals,
                sent_ns,
            } => {
                if let Some((queue_depth, sojourn)) = &worker.telemetry {
                    if sent_ns != 0 {
                        sojourn.record(monotonic_nanos().saturating_sub(sent_ns));
                    }
                    queue_depth.sub(1);
                }
                // One warm per-engine scratch serves every event of the
                // batch. Statistics are the facade's business: nothing
                // observes the edges here.
                for (i, ev) in events.iter().enumerate() {
                    let arrival = arrivals.as_ref().map_or(0, |a| a[i]);
                    worker
                        .shard
                        .process_arrived_into(ev, arrival, &mut out, |_| {});
                }
                if out.bursts.is_empty() {
                    continue;
                }
                // A full aggregation channel blocks the send below, which in
                // turn fills this worker's input channel and stalls ingest:
                // backpressure reaches the producer with bounded memory.
                WorkerOutput::Matches(out.take())
            }
            WorkerMsg::Run(job) => match job(&mut worker) {
                Some(answer) => WorkerOutput::Answer(answer),
                None => continue,
            },
            WorkerMsg::Shutdown => return,
        };
        if match_tx.send((idx, output)).is_err() {
            return; // facade dropped the receiver: shut down
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ContinuousQueryEngine, SelectivityEstimator, Strategy};
    use sp_graph::Timestamp;
    use sp_query::QueryGraph;
    use std::sync::mpsc::sync_channel;
    use std::thread::JoinHandle;

    /// A job that sends `f`'s result back as its answer.
    fn ask<T: Send + 'static>(f: impl FnOnce(&mut Worker) -> T + Send + 'static) -> WorkerMsg {
        WorkerMsg::Run(Box::new(move |w: &mut Worker| {
            Some(Box::new(f(w)) as Box<dyn Any + Send>)
        }))
    }

    /// Unpacks a job's answer.
    fn answer<T: 'static>(output: WorkerOutput) -> T {
        let WorkerOutput::Answer(answer) = output else {
            panic!("expected a job's answer, got a match batch");
        };
        *answer.downcast().expect("an answer of the asked type")
    }

    /// Spawns worker `idx` and registers, by a job, a one-edge `tcp` query
    /// under `id`. Returns the worker's input channel, its aggregation
    /// channel, its thread and a maker of the `tcp` event `t → t+1` at `t`.
    fn spawn_worker(
        idx: usize,
        id: QueryId,
    ) -> (
        SyncSender<WorkerMsg>,
        Receiver<FromWorker>,
        JoinHandle<()>,
        impl Fn(u64) -> EdgeEvent,
    ) {
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let mut q = QueryGraph::new("tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        let engine =
            ContinuousQueryEngine::new(q, Strategy::Single, &SelectivityEstimator::new(), None)
                .unwrap();

        let (tx, rx) = sync_channel(8);
        let (match_tx, match_rx) = sync_channel(8);
        let worker = std::thread::spawn(move || worker_loop(idx, schema, rx, match_tx));
        tx.send(WorkerMsg::Run(Box::new(move |w: &mut Worker| {
            w.shard.register(id, engine);
            None
        })))
        .unwrap();
        let event = move |t| EdgeEvent::homogeneous(t, t + 1, ip, tcp, Timestamp(t));
        (tx, match_rx, worker, event)
    }

    /// A worker holds no id of its own: whatever id the control plane
    /// registered an engine under is the id on its matches, in its report
    /// and the one that deregisters it — even when it is the worker's first
    /// engine and the id is nowhere near 0.
    #[test]
    fn matches_carry_the_id_the_engine_was_registered_under() {
        let id = QueryId(41);
        let (tx, match_rx, worker, event) = spawn_worker(3, id);
        tx.send(WorkerMsg::Batch {
            events: Arc::new(vec![event(1), event(2)]),
            arrivals: None,
            sent_ns: 0,
        })
        .unwrap();
        let (worker_idx, WorkerOutput::Matches(batch)) = match_rx.recv().unwrap() else {
            panic!("the first output is the batch's matches");
        };
        assert_eq!(worker_idx, 3);
        assert_eq!(batch.matches(), 2);
        let mut matches: Vec<(QueryId, sp_iso::SubgraphMatch)> = Vec::new();
        batch.deliver(&mut matches);
        assert_eq!(matches.len(), 2);
        assert!(matches.iter().all(|&(q, _)| q == id));
        // Every answer comes back on the same channel, behind the matches.
        let run = |msg: WorkerMsg| {
            tx.send(msg).unwrap();
            let (worker_idx, output) = match_rx.recv().unwrap();
            assert_eq!(worker_idx, 3);
            output
        };
        let () = answer(run(ask(|_| ())));
        let report: WorkerReport = answer(run(ask(|w| w.report())));
        assert_eq!(report.per_query.len(), 1);
        assert_eq!(report.per_query[0].0, id);
        assert_eq!(report.per_query[0].1.complete_matches, 2);
        assert_eq!(report.matches_found, 2);
        let deregister =
            |q| answer::<Option<ContinuousQueryEngine>>(run(ask(move |w| w.shard.deregister(q))));
        assert!(deregister(QueryId(0)).is_none(), "no engine runs as Q0");
        assert!(deregister(id).is_some());
        tx.send(WorkerMsg::Shutdown).unwrap();
        worker.join().unwrap();
    }

    /// A job sees the shard exactly as the batches sent before it left it,
    /// and its answer arrives behind those batches' matches — even with the
    /// next batch already queued behind it.
    #[test]
    fn jobs_keep_their_place_in_the_stream() {
        let (tx, match_rx, worker, event) = spawn_worker(0, QueryId(0));
        for events in [[event(1), event(2)], [event(3), event(4)]] {
            tx.send(WorkerMsg::Batch {
                events: Arc::new(events.to_vec()),
                arrivals: None,
                sent_ns: 0,
            })
            .unwrap();
            tx.send(ask(|w| w.shard.graph().total_edges_seen()))
                .unwrap();
        }
        for seen in [2, 4] {
            let (_, WorkerOutput::Matches(batch)) = match_rx.recv().unwrap() else {
                panic!("the batch's matches arrive before the job's answer");
            };
            assert_eq!(batch.matches(), 2);
            assert_eq!(answer::<u64>(match_rx.recv().unwrap().1), seen);
        }
        tx.send(WorkerMsg::Shutdown).unwrap();
        worker.join().unwrap();
    }
}
