//! The worker side of the runtime: one thread per shard, each owning one
//! [`Shard`] — its own windowed `DynamicGraph` replica plus its slice of the
//! engines — and nothing that plans: no statistics, no strategy choice, no
//! retention rule, no id allocation. Those live on the facade's
//! `ControlPlane`; a worker does what the control messages say.
//!
//! A worker is a small actor: it drains one bounded input channel in FIFO
//! order, so control messages (register, deregister, drain, report) are
//! naturally serialized against the edge batches sent before them — a query
//! registered after batch *k* sees exactly the stream suffix starting at
//! batch *k+1* on every worker, just as it would on the sequential
//! processor. Everything it sends back — match batches and the answers to
//! `Deregister`, `Report` and `Drain` — goes down the one aggregation
//! channel, so an answer arrives behind every match batch sent before it.

use crate::config::RuntimeConfig;
use sp_graph::{monotonic_nanos, EdgeEvent, Schema};
use sp_metrics::{Gauge, Histogram};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use streampattern::{
    ContinuousQueryEngine, PipelineMetrics, ProfileCounters, QueryId, RowLayout, RowSink, Shard,
    SharedRow, SjTree, Strategy,
};

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
    /// The answer to [`WorkerMsg::Deregister`]: the query's engine with its
    /// runtime state intact, `None` for an id this worker does not run.
    Deregistered(Option<Box<ContinuousQueryEngine>>),
    /// The answer to [`WorkerMsg::Report`].
    Report(Box<WorkerReport>),
    /// The answer to [`WorkerMsg::Drain`]. The channel is FIFO per worker,
    /// so once any answer arrives every match batch the worker sent before
    /// it has arrived too.
    Drained,
}

/// One aggregation-channel message: the originating worker index and its
/// output.
pub(crate) type FromWorker = (usize, WorkerOutput);

/// Messages a worker accepts on its input channel.
pub(crate) enum WorkerMsg {
    /// A batch of stream events, shared across all workers via `Arc`.
    /// `sent_ns` is the facade's broadcast instant on the process monotonic
    /// clock (0 when metrics are off) — the worker's dequeue instant minus
    /// it is the batch's channel sojourn time.
    Batch {
        events: Arc<Vec<EdgeEvent>>,
        sent_ns: u64,
    },
    /// Attach telemetry handles: the shared pipeline bundle for this
    /// worker's shard, plus this worker's queue-depth gauge and
    /// the shared batch-sojourn histogram. Rides the FIFO channel, so
    /// batches sent before it stay unmetered and batches after it are fully
    /// metered.
    Metrics {
        pipeline: PipelineMetrics,
        queue_depth: Gauge,
        sojourn: Histogram,
    },
    /// Run an engine under the id the facade's control plane allocated.
    Register {
        id: QueryId,
        engine: Box<ContinuousQueryEngine>,
    },
    /// Deregister a query; answered with [`WorkerOutput::Deregistered`].
    Deregister(QueryId),
    /// Retain edges for the control plane's global window.
    SetRetention(Option<u64>),
    /// Swap a query's decomposition for the facade-planned replacement
    /// (drift-adaptive re-decomposition). Riding the FIFO channel, the swap
    /// is serialized against the edge batches sent before it, so every
    /// run interleaves identically to a sequential processor performing the
    /// same swap at the same stream position; the worker rebuilds the
    /// engine by replaying its retained graph replica, preserving the
    /// match multiset.
    Redecompose {
        /// The query to rebuild.
        id: QueryId,
        /// The (possibly re-chosen) strategy of the new plan.
        strategy: Strategy,
        /// The SJ-Tree decomposition computed from the facade's statistics.
        tree: Box<SjTree>,
    },
    /// Snapshot this worker's counters; answered with
    /// [`WorkerOutput::Report`].
    Report,
    /// Barrier: answered with [`WorkerOutput::Drained`] once every batch
    /// sent before this message has been fully processed and its matches
    /// pushed into the aggregation channel.
    Drain,
    /// Terminate the worker loop.
    Shutdown,
}

/// Snapshot of one worker's state, used for profile aggregation and
/// per-worker reporting ([`RuntimeReport::workers`](crate::RuntimeReport::workers)).
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker (shard) index.
    pub worker: usize,
    /// Profiling counters per query hosted on this shard, sorted by id.
    pub per_query: Vec<(QueryId, ProfileCounters)>,
    /// Events this replica ingested into its graph: every event the facade
    /// accepted, so it equals the facade's event count.
    pub edges_ingested: u64,
    /// Vertex-type conflicts seen by this replica's ingestion path, counted
    /// per event endpoint (0–2 per event), like
    /// [`ProfileCounters::vertex_type_conflicts`].
    pub vertex_type_conflicts: u64,
    /// Cumulative matches this worker has emitted.
    pub matches_found: u64,
    /// Edges currently live in the shard's graph replica.
    pub graph_edges_live: usize,
    /// Total partial matches ever stored by this replica's match stores
    /// (engines plus shared prefix tables).
    pub stored_matches: u64,
}

/// The worker thread body. Runs until [`WorkerMsg::Shutdown`] arrives or the
/// input channel disconnects.
pub(crate) fn worker_loop(
    idx: usize,
    schema: Schema,
    config: RuntimeConfig,
    rx: Receiver<WorkerMsg>,
    match_tx: SyncSender<FromWorker>,
) {
    let mut shard = Shard::new(schema);
    shard.set_purge_interval(config.purge_interval);
    // The shard's sink, refilled per input batch.
    let mut out = RowBatch::default();
    // Telemetry handles, attached via `WorkerMsg::Metrics`; `None` keeps the
    // loop clock-free.
    let mut telemetry: Option<(Gauge, Histogram)> = None;

    while let Ok(msg) = rx.recv() {
        let output = match msg {
            WorkerMsg::Batch { events, sent_ns } => {
                if let Some((queue_depth, sojourn)) = &telemetry {
                    if sent_ns != 0 {
                        sojourn.record(monotonic_nanos().saturating_sub(sent_ns));
                    }
                    queue_depth.sub(1);
                }
                // One warm per-engine scratch serves every event of the
                // batch. Statistics are the facade's business: nothing
                // observes the edges here.
                for ev in events.iter() {
                    shard.process_into(ev, &mut out, |_| {});
                }
                if out.bursts.is_empty() {
                    continue;
                }
                // A full aggregation channel blocks the send below, which in
                // turn fills this worker's input channel and stalls ingest:
                // backpressure reaches the producer with bounded memory.
                WorkerOutput::Matches(out.take())
            }
            WorkerMsg::Metrics {
                pipeline,
                queue_depth,
                sojourn,
            } => {
                shard.set_metrics(Some(pipeline));
                telemetry = Some((queue_depth, sojourn));
                continue;
            }
            WorkerMsg::Register { id, engine } => {
                shard.register(id, *engine);
                continue;
            }
            WorkerMsg::SetRetention(window) => {
                shard.set_retention(window);
                continue;
            }
            WorkerMsg::Redecompose { id, strategy, tree } => {
                shard
                    .redecompose(id, strategy, *tree)
                    .expect("the control plane re-planned a query this shard runs");
                continue;
            }
            WorkerMsg::Deregister(id) => {
                WorkerOutput::Deregistered(shard.deregister(id).map(Box::new))
            }
            WorkerMsg::Report => WorkerOutput::Report(Box::new(WorkerReport {
                worker: idx,
                per_query: shard
                    .engines()
                    .map(|(id, engine)| (id, engine.profile().clone()))
                    .collect(),
                edges_ingested: shard.graph().total_edges_seen(),
                vertex_type_conflicts: shard.profile().vertex_type_conflicts,
                matches_found: shard.total_matches(),
                graph_edges_live: shard.graph().num_edges(),
                stored_matches: shard.stored_matches(),
            })),
            WorkerMsg::Drain => WorkerOutput::Drained,
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
    use sp_graph::Timestamp;
    use sp_query::QueryGraph;
    use std::sync::mpsc::sync_channel;
    use streampattern::SelectivityEstimator;

    /// A worker holds no id of its own: whatever id the control plane
    /// registered an engine under is the id on its matches, in its report
    /// and the one that deregisters it — even when it is the worker's first
    /// engine and the id is nowhere near 0.
    #[test]
    fn matches_carry_the_id_the_engine_was_registered_under() {
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
        let config = RuntimeConfig::with_workers(1);
        let worker = std::thread::spawn(move || worker_loop(3, schema, config, rx, match_tx));
        let id = QueryId(41);
        tx.send(WorkerMsg::Register {
            id,
            engine: Box::new(engine),
        })
        .unwrap();
        let events = vec![
            EdgeEvent::homogeneous(1, 2, ip, tcp, Timestamp(1)),
            EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2)),
        ];
        tx.send(WorkerMsg::Batch {
            events: Arc::new(events),
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
        let ask = |msg: WorkerMsg| {
            tx.send(msg).unwrap();
            let (worker_idx, answer) = match_rx.recv().unwrap();
            assert_eq!(worker_idx, 3);
            answer
        };
        assert!(matches!(ask(WorkerMsg::Drain), WorkerOutput::Drained));
        let WorkerOutput::Report(report) = ask(WorkerMsg::Report) else {
            panic!("Report is answered with a report");
        };
        assert_eq!(report.per_query.len(), 1);
        assert_eq!(report.per_query[0].0, id);
        assert_eq!(report.per_query[0].1.complete_matches, 2);
        assert_eq!(report.matches_found, 2);
        assert!(
            matches!(
                ask(WorkerMsg::Deregister(QueryId(0))),
                WorkerOutput::Deregistered(None)
            ),
            "no engine runs as Q0"
        );
        assert!(matches!(
            ask(WorkerMsg::Deregister(id)),
            WorkerOutput::Deregistered(Some(_))
        ));
        tx.send(WorkerMsg::Shutdown).unwrap();
        worker.join().unwrap();
    }
}
