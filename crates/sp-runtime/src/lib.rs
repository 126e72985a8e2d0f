//! # sp-runtime — the parallel runtime's names
//!
//! The runtime lives in `streampattern`: [`ParallelStreamProcessor`] is its
//! one facade, [`Processor`](streampattern::Processor), over the thread
//! executor — N shards on worker threads, batched ingest over bounded FIFO
//! channels, backpressure, match aggregation: the paper's deployment story
//! (StreamWorks) scaled out query-parallel. Every method it shares with the
//! inline [`StreamProcessor`](streampattern::StreamProcessor) has one body,
//! so both report **identical match multisets** for any worker count. This
//! crate re-exports the runtime's names.
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

pub use streampattern::{
    ContinuousQueryEngine, MatchSink, MetricsRegistry, ParallelStreamProcessor, PipelineMetrics,
    ProfileCounters, QueryId, RowSink, RuntimeConfig, RuntimeReport, RuntimeStats, Strategy,
    StrategySpec, WorkerReport,
};
