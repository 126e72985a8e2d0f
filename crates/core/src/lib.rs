//! # streampattern — continuous subgraph pattern detection on streaming graphs
//!
//! This crate is the top of the StreamPattern workspace, a faithful
//! reproduction of *"A Selectivity based approach to Continuous Pattern
//! Detection in Streaming Graphs"* (Choudhury et al., EDBT 2015). It wires the
//! substrates — the dynamic graph store (`sp-graph`), the query model
//! (`sp-query`), the matchers (`sp-iso`), the stream statistics
//! (`sp-selectivity`) and the SJ-Tree (`sp-sjtree`) — into a continuous
//! **multi-query** engine in two halves. The [`ControlPlane`] owns the
//! stream statistics and every decision the paper derives from them: it
//! numbers queries, plans them (strategy and decomposition), keeps the graph
//! retention window and re-plans when the statistics drift. The data half, a
//! [`Shard`], owns one shared [`DynamicGraph`] plus a [`QueryRegistry`] of
//! continuous queries, and an edge-type dispatch index hands each incoming
//! edge only to the queries whose pattern can use it. A [`StreamProcessor`]
//! is one control plane driving one shard on the caller's thread; the
//! `sp-runtime` crate puts the same control plane in front of N shards on
//! worker threads.
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
//! ## Windows
//!
//! Windowing is per query: each engine filters and purges with its own `tW`,
//! while the shared graph retains edges for the *largest* window across
//! registered queries (unbounded if any query is unwindowed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod control;
mod engine;
mod error;
mod lazy;
mod metrics;
mod processor;
mod profile;
mod registry;
mod shard;
mod sharedjoin;
mod sharing;
mod sink;
mod strategy;

pub use adaptive::{leaf_structure, plan_cost, plan_query, AdaptiveStats, REDECOMPOSITION_GAIN};
pub use control::ControlPlane;
pub use engine::{ContinuousQueryEngine, LeafSource, SearchLocally, Served};
pub use error::EngineError;
pub use lazy::{LazyBitmap, MAX_LEAVES};
pub use metrics::PipelineMetrics;
pub use processor::StreamProcessor;
pub use profile::ProfileCounters;
pub use registry::{QueryId, QueryRegistry, StrategySpec};
pub use shard::Shard;
pub use sharedjoin::{
    tree_chain, JoinDelivery, JoinSubscription, PrefixRows, SharedJoinIndex, SharedJoinStats,
    SharedRow, TrieNodeInfo, MIN_PREFIX_DEPTH,
};
pub use sharing::{EdgeSearchCache, SharedLeafIndex, SharedLeafStats};
pub use sink::{CollectSink, CountSink, FnSink, MatchSink, Materialize, RowSink};
pub use strategy::{choose_strategy, Strategy, StrategyChoice, RELATIVE_SELECTIVITY_THRESHOLD};

// Re-export the building blocks so that downstream users only need one
// dependency for common tasks.
pub use sp_graph::{
    DynamicGraph, EdgeData, EdgeEvent, EdgeId, EdgeType, Schema, Timestamp, VertexId, VertexType,
};
pub use sp_iso::SubgraphMatch;
pub use sp_query::{
    canonicalize_subgraph, prefix_chain, ChainStep, LeafSignature, PrefixSignature, QueryEdgeId,
    QueryGraph, QueryVertexId,
};
pub use sp_selectivity::{DriftConfig, DriftDetector, DriftStats, SelectivityEstimator, StatsMode};
pub use sp_sjtree::{PrimitivePolicy, RowLayout, SjTree};
