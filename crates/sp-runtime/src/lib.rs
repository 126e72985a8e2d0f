//! # sp-runtime — parallel sharded multi-query runtime
//!
//! The sequential [`StreamProcessor`](streampattern::StreamProcessor) is one
//! [`ControlPlane`](streampattern::ControlPlane) driving one
//! [`Shard`](streampattern::Shard) — graph, engines, dispatch — on one core.
//! This crate puts the *same* control plane in front of N shards on worker
//! threads, the way the paper's deployment story (StreamWorks) frames
//! production rates: **query-parallel scale-out**. Planning, query ids,
//! retention and drift re-planning are therefore not re-implemented here;
//! what this crate adds is shard placement and the channels.
//!
//! ```text
//!              caller thread = ingest: batch + broadcast
//!  events ──► [e,e,e,…] ──┬──► bounded ch ──► worker 0: one Shard      ──┐
//!  (stats → ControlPlane) ├──► bounded ch ──► worker 1: (graph replica ─┤──► MPSC
//!                         └──► bounded ch ──► worker N:  + engines)    ─┘  aggregation
//!                                                                          (row batches)
//! ```
//!
//! * Each query goes to the least-loaded shard, where a shard's load is the
//!   summed estimated cost
//!   ([`SelectivityEstimator::estimate_query_cost`](sp_selectivity::SelectivityEstimator::estimate_query_cost))
//!   of the queries it hosts, so shards balance by *work*, not by query
//!   count.
//! * Every worker ingests every accepted event into its own graph replica,
//!   so a query registered mid-stream on any shard finds the history it is
//!   entitled to.
//! * Every channel is bounded: a worker that falls behind fills its input
//!   channel and blocks the ingest loop; a slow match consumer fills the
//!   aggregation channel and blocks the workers. Memory stays bounded end
//!   to end, and the backpressure is observable via
//!   [`RuntimeStats::backpressure_events`].
//! * Complete matches cross the aggregation channel as fixed-width rows
//!   in each query's own numbering; the facade hands them to the caller's
//!   [`RowSink`], so a `MatchSink` builds each `SubgraphMatch` once, on the
//!   calling thread, and a `CountSink` builds none.
//! * The facade reaches a shard one way: a control job, a closure the
//!   worker runs on its shard between two input batches (register,
//!   deregister, retention, re-decomposition, metrics, report, drain). Jobs
//!   share the per-worker FIFO channels with the edge batches, so a query
//!   registered mid-stream sees exactly the stream suffix a sequential
//!   processor would — parallel and sequential execution produce
//!   **identical match multisets** for any worker count (asserted by the
//!   integration tests). A job's answer comes back on the aggregation
//!   channel, behind the match batches the worker sent before it, so every
//!   answer is also that worker's barrier.
//!
//! ## Quick start
//!
//! ```
//! use sp_graph::{EdgeEvent, Schema, Timestamp};
//! use sp_query::QueryGraph;
//! use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
//! use streampattern::Strategy;
//!
//! let mut schema = Schema::new();
//! let ip = schema.intern_vertex_type("ip");
//! let tcp = schema.intern_edge_type("tcp");
//! let esp = schema.intern_edge_type("esp");
//!
//! let mut runtime = ParallelStreamProcessor::new(schema, RuntimeConfig::with_workers(2));
//! let mut tunnel = QueryGraph::new("esp-then-tcp");
//! let x = tunnel.add_any_vertex();
//! let y = tunnel.add_any_vertex();
//! let z = tunnel.add_any_vertex();
//! tunnel.add_edge(x, y, esp);
//! tunnel.add_edge(y, z, tcp);
//! let id = runtime.register(tunnel, Strategy::SingleLazy, Some(100)).unwrap();
//!
//! let events = [
//!     EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1)),
//!     EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2)),
//! ];
//! assert_eq!(runtime.process_all(events.iter()), 1);
//! assert_eq!(runtime.profile_for(id).unwrap().complete_matches, 1);
//! let report = runtime.shutdown();
//! assert_eq!(report.total_matches, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod processor;
mod worker;

pub use config::RuntimeConfig;
pub use processor::{ParallelStreamProcessor, RuntimeReport, RuntimeStats};
pub use worker::WorkerReport;

// Re-export the pieces callers need alongside the runtime.
pub use sp_metrics::MetricsRegistry;
pub use streampattern::{
    ContinuousQueryEngine, MatchSink, PipelineMetrics, ProfileCounters, QueryId, RowSink, Strategy,
    StrategySpec,
};
