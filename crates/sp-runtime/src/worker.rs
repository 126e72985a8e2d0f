//! The worker side of the runtime: one thread per shard, each owning a full
//! [`StreamProcessor`] replica (its own windowed `DynamicGraph` plus the
//! shard's slice of the query registry).
//!
//! A worker is a small actor: it drains one bounded input channel in FIFO
//! order, so control messages (register, deregister, drain, report) are
//! naturally serialized against the edge batches sent before them — a query
//! registered after batch *k* sees exactly the stream suffix starting at
//! batch *k+1* on every worker, just as it would on the sequential
//! processor.

use crate::config::RuntimeConfig;
use sp_graph::{monotonic_nanos, EdgeEvent, Schema};
use sp_iso::SubgraphMatch;
use sp_metrics::{Gauge, Histogram};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use streampattern::{
    ContinuousQueryEngine, FnSink, PipelineMetrics, ProfileCounters, QueryId, SjTree, Strategy,
    StreamProcessor,
};

/// One aggregation-channel message: the originating worker index and the
/// `(query, match)` pairs produced by one input batch, in report order.
/// Matches from one worker always arrive in the order that worker produced
/// them; interleaving across workers is arbitrary.
pub(crate) type MatchBatch = (usize, Vec<(QueryId, SubgraphMatch)>);

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
    /// worker's processor replica, plus this worker's queue-depth gauge and
    /// the shared batch-sojourn histogram. Rides the FIFO channel, so
    /// batches sent before it stay unmetered and batches after it are fully
    /// metered.
    Metrics {
        pipeline: PipelineMetrics,
        queue_depth: Gauge,
        sojourn: Histogram,
    },
    /// Register an engine under the facade's global query id.
    Register {
        global: QueryId,
        engine: Box<ContinuousQueryEngine>,
    },
    /// Deregister a query, replying with its engine (runtime state intact).
    Deregister {
        global: QueryId,
        reply: Sender<Option<Box<ContinuousQueryEngine>>>,
    },
    /// Apply the facade's global graph-retention window to the replica.
    SetRetention(Option<u64>),
    /// Swap a query's decomposition for the facade-planned replacement
    /// (drift-adaptive re-decomposition). Riding the FIFO channel, the swap
    /// is serialized against the edge batches sent before it, so every
    /// run interleaves identically to a sequential processor performing the
    /// same swap at the same stream position; the worker rebuilds the
    /// engine by replaying its retained graph replica, preserving the
    /// match multiset.
    Redecompose {
        /// The facade's global query id.
        global: QueryId,
        /// The (possibly re-chosen) strategy of the new plan.
        strategy: Strategy,
        /// The SJ-Tree decomposition computed from the facade's statistics.
        tree: Box<SjTree>,
    },
    /// Reply with a snapshot of this worker's counters.
    Report { reply: Sender<WorkerReport> },
    /// Barrier: every batch sent before this message has been fully
    /// processed and its matches pushed into the aggregation channel. The
    /// ack carries the cumulative number of matches emitted by this worker.
    Drain { reply: Sender<DrainAck> },
    /// Terminate the worker loop.
    Shutdown,
}

/// Acknowledgement of a [`WorkerMsg::Drain`] barrier.
pub(crate) struct DrainAck {
    /// Cumulative matches this worker has pushed into the aggregation
    /// channel since it started.
    pub matches_emitted: u64,
}

/// Snapshot of one worker's state, used for profile aggregation and for the
/// per-shard tables in `sp-bench`.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker (shard) index.
    pub worker: usize,
    /// Profiling counters per query hosted on this shard, tagged with the
    /// facade's global ids and sorted by id.
    pub per_query: Vec<(QueryId, ProfileCounters)>,
    /// Events this replica ingested into its graph. Equals the facade's
    /// event count unless ingest filtering is enabled.
    pub edges_ingested: u64,
    /// Vertex-type conflicts seen by this replica's ingestion path.
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
    match_tx: SyncSender<MatchBatch>,
) {
    // Statistics stay off in workers: the facade maintains the single
    // estimator on the ingest path, so `Auto` registrations see exactly the
    // stream prefix a sequential processor would have seen.
    let mut proc = StreamProcessor::new(schema)
        .with_statistics(false)
        .with_purge_interval(config.purge_interval);
    let mut to_global: HashMap<QueryId, QueryId> = HashMap::new();
    let mut to_local: HashMap<QueryId, QueryId> = HashMap::new();
    let mut retention_override: Option<Option<u64>> = None;
    let mut emitted: u64 = 0;
    // Telemetry handles, attached via `WorkerMsg::Metrics`; `None` keeps the
    // loop clock-free.
    let mut telemetry: Option<(Gauge, Histogram)> = None;

    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Batch { events, sent_ns } => {
                if let Some((queue_depth, sojourn)) = &telemetry {
                    if sent_ns != 0 {
                        sojourn.record(monotonic_nanos().saturating_sub(sent_ns));
                    }
                    queue_depth.sub(1);
                }
                let mut out: Vec<(QueryId, SubgraphMatch)> = Vec::new();
                {
                    let mut sink = FnSink(|local: QueryId, m: SubgraphMatch| {
                        let global = to_global
                            .get(&local)
                            .copied()
                            .expect("match from an unmapped local query");
                        out.push((global, m));
                    });
                    if config.ingest_filter {
                        // The candidate pre-filter reads the registry between
                        // events, so this path stays per-event.
                        for ev in events.iter() {
                            if proc.registry().candidates(ev.edge_type).is_empty() {
                                continue;
                            }
                            proc.process_into(ev, &mut sink);
                        }
                    } else {
                        // Default path: the whole batch runs through the
                        // processor's batch loop — one warm edge cache and
                        // one per-engine scratch serve every event.
                        proc.process_batch_into(events.iter(), &mut sink);
                    }
                }
                emitted += out.len() as u64;
                if !out.is_empty() {
                    // A full aggregation channel blocks here, which in turn
                    // fills this worker's input channel and stalls ingest:
                    // backpressure reaches the producer with bounded memory.
                    if match_tx.send((idx, out)).is_err() {
                        return; // facade dropped the receiver: shut down
                    }
                }
            }
            WorkerMsg::Metrics {
                pipeline,
                queue_depth,
                sojourn,
            } => {
                proc.set_metrics(Some(pipeline));
                telemetry = Some((queue_depth, sojourn));
            }
            WorkerMsg::Register { global, engine } => {
                let local = proc.register_engine(*engine);
                to_global.insert(local, global);
                to_local.insert(global, local);
                if let Some(window) = retention_override {
                    proc.set_graph_retention(window);
                }
            }
            WorkerMsg::Deregister { global, reply } => {
                let engine = to_local.remove(&global).and_then(|local| {
                    to_global.remove(&local);
                    proc.deregister(local)
                });
                if let Some(window) = retention_override {
                    proc.set_graph_retention(window);
                }
                let _ = reply.send(engine.map(Box::new));
            }
            WorkerMsg::SetRetention(window) => {
                retention_override = Some(window);
                proc.set_graph_retention(window);
            }
            WorkerMsg::Redecompose {
                global,
                strategy,
                tree,
            } => {
                // A deregistration racing ahead of the facade's drift check
                // cannot happen (control messages are FIFO per worker), but
                // an unknown id is still tolerated as a no-op. A failing
                // rebuild (e.g. a hand-built tree beyond the lazy-bitmap
                // cap that slipped past the facade's guard) keeps the old
                // plan rather than poisoning the worker thread — mirroring
                // the sequential processor, which skips such plans too.
                if let Some(&local) = to_local.get(&global) {
                    let _ = proc.redecompose(local, strategy, *tree);
                }
            }
            WorkerMsg::Report { reply } => {
                let mut per_query: Vec<(QueryId, ProfileCounters)> = to_local
                    .iter()
                    .filter_map(|(&global, &local)| {
                        proc.profile_for(local).map(|p| (global, p.clone()))
                    })
                    .collect();
                per_query.sort_by_key(|&(id, _)| id);
                let stream = proc.profile();
                let _ = reply.send(WorkerReport {
                    worker: idx,
                    per_query,
                    edges_ingested: stream.edges_processed,
                    vertex_type_conflicts: stream.vertex_type_conflicts,
                    matches_found: emitted,
                    graph_edges_live: proc.graph().num_edges(),
                    stored_matches: proc.stored_matches(),
                });
            }
            WorkerMsg::Drain { reply } => {
                let _ = reply.send(DrainAck {
                    matches_emitted: emitted,
                });
            }
            WorkerMsg::Shutdown => return,
        }
    }
}
