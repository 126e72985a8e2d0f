//! Search-primitive signatures.
//!
//! The decomposition algorithm (Section 5.1) restricts the SJ-Tree leaves to
//! two families of cheap-to-search, cheap-to-count subgraphs:
//!
//! * **single edges** — identified by their edge type (the output of the
//!   schema's `Map()` function), optionally refined by endpoint vertex types
//!   ([`EdgeSignature`], used by the dataset generators as "valid triples");
//! * **2-edge paths** — two edges sharing a center vertex, identified by the
//!   unordered pair of (edge type, direction-at-center) of the two edges
//!   ([`TwoEdgePathSignature`]), exactly the keys counted by Algorithm 5's
//!   `COUNT-2-EDGE-PATHS`.
//!
//! These signatures double as hash keys in the selectivity histograms of
//! `sp-selectivity`.

use crate::query::{QueryEdge, QueryEdgeId, QueryGraph};
use serde::{Deserialize, Serialize};
use sp_graph::{Direction, EdgeType, Schema, VertexType};
use std::fmt;

/// An edge type together with its direction relative to a reference vertex
/// (the shared center vertex for 2-edge paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DirectedEdgeType {
    /// The edge type.
    pub edge_type: EdgeType,
    /// `Outgoing` when the reference vertex is the source of the edge.
    pub direction: Direction,
}

impl DirectedEdgeType {
    /// Convenience constructor.
    pub fn new(edge_type: EdgeType, direction: Direction) -> Self {
        Self {
            edge_type,
            direction,
        }
    }

    /// Outgoing edge of the given type.
    pub fn outgoing(edge_type: EdgeType) -> Self {
        Self::new(edge_type, Direction::Outgoing)
    }

    /// Incoming edge of the given type.
    pub fn incoming(edge_type: EdgeType) -> Self {
        Self::new(edge_type, Direction::Incoming)
    }
}

// `Direction` does not implement Ord; order Outgoing < Incoming explicitly so
// DirectedEdgeType can be normalized deterministically.
impl DirectedEdgeType {
    fn order_key(&self) -> (u32, u8) {
        let d = match self.direction {
            Direction::Outgoing => 0,
            Direction::Incoming => 1,
        };
        (self.edge_type.0, d)
    }
}

/// A "valid triple" `(source vertex type, edge type, destination vertex
/// type)`. This is how the LSBench schema describes which edges may exist and
/// how labeled single-edge query primitives are described.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EdgeSignature {
    /// Type required of the source vertex ([`VertexType::ANY`] if unconstrained).
    pub src_type: VertexType,
    /// The edge type.
    pub edge_type: EdgeType,
    /// Type required of the destination vertex.
    pub dst_type: VertexType,
}

impl EdgeSignature {
    /// Creates a signature with unconstrained endpoints.
    pub fn untyped(edge_type: EdgeType) -> Self {
        Self {
            src_type: VertexType::ANY,
            edge_type,
            dst_type: VertexType::ANY,
        }
    }

    /// Creates a fully specified signature.
    pub fn new(src_type: VertexType, edge_type: EdgeType, dst_type: VertexType) -> Self {
        Self {
            src_type,
            edge_type,
            dst_type,
        }
    }

    /// Renders the signature with readable names.
    pub fn describe(&self, schema: &Schema) -> String {
        format!(
            "({} -[{}]-> {})",
            schema.vertex_type_name(self.src_type),
            schema.edge_type_name(self.edge_type),
            schema.vertex_type_name(self.dst_type)
        )
    }
}

/// Signature of a 2-edge path (wedge): two edges sharing a center vertex,
/// identified by the unordered pair of their (edge type, direction at the
/// center). The pair is normalized so that equal wedges hash equally
/// regardless of enumeration order — this mirrors the `LEXICALLY-GREATER`
/// constraint in Algorithm 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TwoEdgePathSignature {
    first: DirectedEdgeType,
    second: DirectedEdgeType,
}

impl TwoEdgePathSignature {
    /// Builds a normalized signature from the two incident directed edge
    /// types (order of arguments does not matter).
    pub fn new(a: DirectedEdgeType, b: DirectedEdgeType) -> Self {
        if a.order_key() <= b.order_key() {
            Self {
                first: a,
                second: b,
            }
        } else {
            Self {
                first: b,
                second: a,
            }
        }
    }

    /// The lexically smaller component.
    pub fn first(&self) -> DirectedEdgeType {
        self.first
    }

    /// The lexically larger component.
    pub fn second(&self) -> DirectedEdgeType {
        self.second
    }

    /// Renders the signature with readable names, center vertex in the middle.
    pub fn describe(&self, schema: &Schema) -> String {
        let part = |d: DirectedEdgeType| {
            let name = schema.edge_type_name(d.edge_type);
            match d.direction {
                Direction::Outgoing => format!("-[{name}]->"),
                Direction::Incoming => format!("<-[{name}]-"),
            }
        };
        format!("(* {} c {} *)", part(self.first), part(self.second))
    }
}

/// A search primitive: what an SJ-Tree leaf searches for on every incoming
/// edge, and what the selectivity estimator can put a number on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Primitive {
    /// A single typed edge.
    SingleEdge(EdgeType),
    /// A 2-edge path (wedge).
    TwoEdgePath(TwoEdgePathSignature),
}

impl Primitive {
    /// Number of edges in the primitive.
    pub fn num_edges(&self) -> usize {
        match self {
            Primitive::SingleEdge(_) => 1,
            Primitive::TwoEdgePath(_) => 2,
        }
    }

    /// Renders the primitive with readable names.
    pub fn describe(&self, schema: &Schema) -> String {
        match self {
            Primitive::SingleEdge(t) => format!("edge[{}]", schema.edge_type_name(*t)),
            Primitive::TwoEdgePath(sig) => format!("path{}", sig.describe(schema)),
        }
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Primitive::SingleEdge(t) => write!(f, "edge[{}]", t.0),
            Primitive::TwoEdgePath(sig) => write!(
                f,
                "path[{}/{:?},{}/{:?}]",
                sig.first.edge_type.0,
                sig.first.direction,
                sig.second.edge_type.0,
                sig.second.direction
            ),
        }
    }
}

impl QueryGraph {
    /// Signature (histogram key) of a single query edge.
    pub fn edge_primitive(&self, e: QueryEdgeId) -> Primitive {
        Primitive::SingleEdge(self.edge(e).edge_type)
    }

    /// Signature of the wedge formed by two query edges, if they share a
    /// vertex; each edge's direction is read relative to the shared (center)
    /// vertex.
    pub fn wedge_primitive(&self, a: QueryEdgeId, b: QueryEdgeId) -> Option<Primitive> {
        let ea = self.edge(a);
        let eb = self.edge(b);
        if a == b {
            return None;
        }
        // Find a shared vertex; prefer any.
        let shared = [ea.src, ea.dst].into_iter().find(|&v| eb.touches(v))?;
        let dir = |e: &QueryEdge| {
            if e.src == shared {
                Direction::Outgoing
            } else {
                Direction::Incoming
            }
        };
        Some(Primitive::TwoEdgePath(TwoEdgePathSignature::new(
            DirectedEdgeType::new(ea.edge_type, dir(ea)),
            DirectedEdgeType::new(eb.edge_type, dir(eb)),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryGraph;

    #[test]
    fn wedge_signature_is_order_independent() {
        let a = DirectedEdgeType::outgoing(EdgeType(3));
        let b = DirectedEdgeType::incoming(EdgeType(1));
        assert_eq!(
            TwoEdgePathSignature::new(a, b),
            TwoEdgePathSignature::new(b, a)
        );
    }

    #[test]
    fn direction_matters_in_wedge_signature() {
        let out_out = TwoEdgePathSignature::new(
            DirectedEdgeType::outgoing(EdgeType(0)),
            DirectedEdgeType::outgoing(EdgeType(1)),
        );
        let out_in = TwoEdgePathSignature::new(
            DirectedEdgeType::outgoing(EdgeType(0)),
            DirectedEdgeType::incoming(EdgeType(1)),
        );
        assert_ne!(out_out, out_in);
    }

    #[test]
    fn query_wedge_primitive_detects_shared_vertex() {
        let mut q = QueryGraph::new("wedge");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        let d = q.add_any_vertex();
        let e0 = q.add_edge(a, b, EdgeType(0));
        let e1 = q.add_edge(b, c, EdgeType(1));
        let e2 = q.add_edge(c, d, EdgeType(2));
        assert!(q.wedge_primitive(e0, e1).is_some());
        assert!(q.wedge_primitive(e0, e2).is_none());
        assert!(q.wedge_primitive(e0, e0).is_none());
    }

    #[test]
    fn query_wedge_signature_center_directions() {
        // a -> b <- c : at center b both edges are Incoming.
        let mut q = QueryGraph::new("in-in");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        let e0 = q.add_edge(a, b, EdgeType(0));
        let e1 = q.add_edge(c, b, EdgeType(0));
        let prim = q.wedge_primitive(e0, e1).unwrap();
        match prim {
            Primitive::TwoEdgePath(sig) => {
                assert_eq!(sig.first().direction, Direction::Incoming);
                assert_eq!(sig.second().direction, Direction::Incoming);
            }
            _ => panic!("expected a wedge primitive"),
        }
    }

    #[test]
    fn primitive_edge_count() {
        assert_eq!(Primitive::SingleEdge(EdgeType(0)).num_edges(), 1);
        let sig = TwoEdgePathSignature::new(
            DirectedEdgeType::outgoing(EdgeType(0)),
            DirectedEdgeType::outgoing(EdgeType(0)),
        );
        assert_eq!(Primitive::TwoEdgePath(sig).num_edges(), 2);
    }

    #[test]
    fn describe_renders_names() {
        let mut schema = Schema::new();
        let tcp = schema.intern_edge_type("tcp");
        let udp = schema.intern_edge_type("udp");
        let sig = TwoEdgePathSignature::new(
            DirectedEdgeType::outgoing(tcp),
            DirectedEdgeType::incoming(udp),
        );
        let text = Primitive::TwoEdgePath(sig).describe(&schema);
        assert!(text.contains("tcp"));
        assert!(text.contains("udp"));
        let single = Primitive::SingleEdge(tcp).describe(&schema);
        assert_eq!(single, "edge[tcp]");
        let es = EdgeSignature::untyped(tcp).describe(&schema);
        assert!(es.contains("tcp"));
        assert!(es.contains('*'));
    }

    #[test]
    fn display_impl_is_stable() {
        let p = Primitive::SingleEdge(EdgeType(4));
        assert_eq!(p.to_string(), "edge[4]");
    }
}
