//! # streampattern — continuous subgraph pattern detection on streaming graphs
//!
//! This crate is the top of the StreamPattern workspace, a faithful
//! reproduction of *"A Selectivity based approach to Continuous Pattern
//! Detection in Streaming Graphs"* (Choudhury et al., EDBT 2015). It wires the
//! substrates — the dynamic graph store (`sp-graph`), the query model
//! (`sp-query`), the matchers (`sp-iso`), the stream statistics
//! (`sp-selectivity`) and the SJ-Tree (`sp-sjtree`) — into a continuous
//! **multi-query** engine with one front end, [`Processor`]. Its control
//! plane owns the stream statistics and every decision the paper derives
//! from them: query ids, plans (strategy and decomposition), the graph
//! retention window, drift re-plans and shard placement. Each [`Shard`]
//! owns one [`DynamicGraph`], the engines registered on it, their shared
//! join stage, and an edge-type dispatch index that hands each edge only to
//! the queries whose pattern can use it. An [`Executor`] decides where the
//! shards run: [`StreamProcessor`] is the facade over one shard on the
//! caller's thread ([`Inline`]), [`ParallelStreamProcessor`] over N shards
//! on worker threads ([`Threads`]).
//!
//! ## Quick start
//!
//! ```
//! use sp_graph::{EdgeEvent, Schema, Timestamp};
//! use sp_query::QueryGraph;
//! use streampattern::{StrategySpec, StreamProcessor, Strategy};
//!
//! // 1. A schema shared by the stream and the queries.
//! let mut schema = Schema::new();
//! let ip = schema.intern_vertex_type("ip");
//! let tcp = schema.intern_edge_type("tcp");
//! let esp = schema.intern_edge_type("esp");
//! let dns = schema.intern_edge_type("dns");
//!
//! // 2. One processor, one shared data graph, many continuous queries.
//! let mut proc = StreamProcessor::new(schema);
//!
//! // Pattern A: x -esp-> y -tcp-> z, within a 100-tick window.
//! let mut tunnel = QueryGraph::new("esp-then-tcp");
//! let x = tunnel.add_any_vertex();
//! let y = tunnel.add_any_vertex();
//! let z = tunnel.add_any_vertex();
//! tunnel.add_edge(x, y, esp);
//! tunnel.add_edge(y, z, tcp);
//! let tunnel_id = proc.register(tunnel, Strategy::SingleLazy, Some(100)).unwrap();
//!
//! // Pattern B: a dns edge, with the strategy chosen automatically from the
//! // stream statistics the processor maintains.
//! let mut lookup = QueryGraph::new("dns");
//! let a = lookup.add_any_vertex();
//! let b = lookup.add_any_vertex();
//! lookup.add_edge(a, b, dns);
//! let lookup_id = proc.register(lookup, StrategySpec::Auto, None).unwrap();
//!
//! // 3. Stream edges. Each edge is ingested once and dispatched only to the
//! //    queries whose pattern contains its type.
//! assert!(proc.process(&EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1))).is_empty());
//! let matches = proc.process(&EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2)));
//! assert_eq!(matches.len(), 1); // 1 -esp-> 2 -tcp-> 3
//! assert_eq!(matches[0].0, tunnel_id);
//! let matches = proc.process(&EdgeEvent::homogeneous(9, 10, ip, dns, Timestamp(3)));
//! assert_eq!(matches[0].0, lookup_id);
//!
//! // The dns engine never saw the esp/tcp edges (dispatch index), and the
//! // processor ingested every event exactly once.
//! assert_eq!(proc.profile_for(lookup_id).unwrap().edges_processed, 1);
//! assert_eq!(proc.profile().edges_processed, 3);
//! ```
//!
//! ## Strategies
//!
//! The four SJ-Tree strategies of the paper's evaluation, plus the
//! non-incremental baseline, are exposed through [`Strategy`]:
//!
//! | strategy | decomposition | lazy search |
//! |---|---|---|
//! | [`Strategy::Single`]     | 1-edge leaves    | no  |
//! | [`Strategy::SingleLazy`] | 1-edge leaves    | yes |
//! | [`Strategy::Path`]       | 2-edge leaves    | no  |
//! | [`Strategy::PathLazy`]   | 2-edge leaves    | yes |
//! | [`Strategy::Vf2Baseline`]| none (full VF2 per edge) | — |
//!
//! [`choose_strategy`] implements the automatic selection rule of Section
//! 6.5: *PathLazy* when the Relative Selectivity of the 2-edge decomposition
//! is below 10⁻³, *SingleLazy* otherwise. Registering a query with
//! [`StrategySpec::Auto`] applies the rule against the processor's live
//! stream statistics.
//!
//! ## Consuming matches
//!
//! [`RowSink`] is the one consumer trait: [`Shard::process_into`],
//! [`StreamProcessor::process_into`] and [`Processor::process_all_into`]
//! all take `S: RowSink + ?Sized`. A complete match reaches the sink as a
//! fixed-width row, and a sink decides whether to build anything from it:
//!
//! * [`CountSink`] counts rows and builds no match — what `process_all`
//!   uses;
//! * every [`MatchSink`] is a [`RowSink`] through one blanket impl that
//!   builds each [`SubgraphMatch`] once, as the argument of
//!   [`MatchSink::on_match`]. `Vec<(QueryId, SubgraphMatch)>` is the
//!   collecting sink (what `process` returns) and [`FnSink`] adapts a
//!   closure.
//!
//! ```
//! # use sp_graph::{EdgeEvent, Schema, Timestamp};
//! # use sp_query::QueryGraph;
//! # use streampattern::{CountSink, FnSink, QueryId, Strategy, StreamProcessor, SubgraphMatch};
//! # let mut schema = Schema::new();
//! # let ip = schema.intern_vertex_type("ip");
//! # let tcp = schema.intern_edge_type("tcp");
//! # let mut proc = StreamProcessor::new(schema);
//! # let mut q = QueryGraph::new("tcp");
//! # let (a, b) = (q.add_any_vertex(), q.add_any_vertex());
//! # q.add_edge(a, b, tcp);
//! # proc.register(q, Strategy::Single, None).unwrap();
//! let events = [
//!     EdgeEvent::homogeneous(1, 2, ip, tcp, Timestamp(1)),
//!     EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2)),
//! ];
//! let mut count = CountSink::new();
//! proc.process_all_into(&events, &mut count);
//! let mut alerts = Vec::new();
//! proc.process_all_into(&events, &mut FnSink(|q: QueryId, m: SubgraphMatch| {
//!     alerts.push((q, m.num_edges()));
//! }));
//! assert_eq!((count.matches, alerts.len()), (2, 2));
//! ```
//!
//! ## Windows
//!
//! Windowing is per query: each engine filters and purges with its own `tW`,
//! while the shared graph retains edges for the *largest* window across
//! registered queries (unbounded if any query is unwindowed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod config;
mod control;
mod engine;
mod error;
mod lazy;
mod metrics;
mod processor;
mod profile;
mod runtime;
mod shard;
mod sharedjoin;
mod sink;
mod strategy;
mod worker;

pub use adaptive::{leaf_structure, plan_query, AdaptiveStats};
pub use config::RuntimeConfig;
pub use control::{QueryId, StrategySpec};
pub use engine::ContinuousQueryEngine;
pub use error::EngineError;
pub use metrics::PipelineMetrics;
pub use processor::{Executor, Inline, Processor, SharedLeafStats, StreamProcessor};
pub use profile::ProfileCounters;
pub use runtime::{ParallelStreamProcessor, RuntimeReport, RuntimeStats, Threads};
pub use shard::{Shard, DEFAULT_PURGE_INTERVAL};
pub use sharedjoin::{SharedJoinIndex, SharedJoinStats, SharedRow, TrieNodeInfo};
pub use sink::{CountSink, FnSink, MatchSink, RowSink};
pub use strategy::{choose_strategy, Strategy, StrategyChoice, RELATIVE_SELECTIVITY_THRESHOLD};
pub use worker::WorkerReport;

// Re-export the building blocks so that downstream users only need one
// dependency for common tasks.
pub use sp_graph::{
    DynamicGraph, EdgeData, EdgeEvent, EdgeId, EdgeType, Schema, Timestamp, VertexId, VertexType,
};
pub use sp_iso::SubgraphMatch;
pub use sp_metrics::MetricsRegistry;
pub use sp_query::{QueryEdgeId, QueryGraph, QueryVertexId};
pub use sp_selectivity::{DriftConfig, SelectivityEstimator, StatsMode};
pub use sp_sjtree::{PrimitivePolicy, RowLayout, SjTree};
