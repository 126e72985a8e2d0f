//! # sp-graph — dynamic multi-relational graph store
//!
//! This crate provides the streaming-graph substrate used by the
//! StreamPattern engine (a reproduction of *"A Selectivity based approach to
//! Continuous Pattern Detection in Streaming Graphs"*, EDBT 2015).
//!
//! The data model follows Section 2 of the paper:
//!
//! * the graph is **directed**, **labeled** (typed vertices and typed edges)
//!   and allows **multi-edges** between the same vertex pair;
//! * every edge carries a **timestamp**; the graph is maintained as a sliding
//!   time window: given a window `tW`, edges older than `t_last - tW` are
//!   expired, where `t_last` is the timestamp of the newest edge;
//! * an edge's id is its **stream position**: the live edges sit in a ring
//!   indexed by id, which is also their expiry order;
//! * vertex and edge type names are interned through a [`Schema`] so that the
//!   hot path only ever compares small integer ids.
//!
//! The central type is [`DynamicGraph`]. Vertices carry the stream's own
//! (external) ids; [`DynamicGraph::ingest`] is the one step from a stream
//! [`EdgeEvent`] to a stored edge. A typical interaction:
//!
//! ```
//! use sp_graph::{DynamicGraph, EdgeEvent, Schema, Timestamp, VertexId};
//!
//! let mut schema = Schema::new();
//! let ip = schema.intern_vertex_type("ip");
//! let tcp = schema.intern_edge_type("tcp");
//!
//! let mut g = DynamicGraph::new(schema);
//! let a = g.ensure_vertex(VertexId(1), ip).unwrap();
//! let b = g.ensure_vertex(VertexId(2), ip).unwrap();
//! let e = g.add_edge(a, b, tcp, Timestamp(42));
//! assert_eq!(g.edge(e).unwrap().edge_type, tcp);
//!
//! // The same, straight from the stream: endpoints are ensured on the way.
//! let (edge, conflicts) = g.ingest(&EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(43)));
//! assert_eq!((edge.src, edge.dst, conflicts), (b, VertexId(3), 0));
//! assert_eq!(g.num_edges(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod error;
mod event;
mod graph;
mod hash;
mod ids;
mod schema;
mod window;

pub use clock::monotonic_nanos;
pub use error::GraphError;
pub use event::EdgeEvent;
pub use graph::{DegreeStats, DynamicGraph, EdgeData, IncidentEdge, TypeSignature, VertexData};
pub use hash::{FastHasher, FastMap, FastState};
pub use ids::{Direction, EdgeId, EdgeType, Timestamp, VertexId, VertexType};
pub use schema::Schema;

/// Convenient result alias for fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
