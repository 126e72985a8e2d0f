//! Edge-subset views of a query graph.
//!
//! Each SJ-Tree node "corresponds to a subgraph of the query graph"
//! (Definition 3.1.1). Because the decomposition partitions the query's
//! *edges*, a query subgraph is fully described by the set of query edge ids
//! it contains; vertices are derived. [`QuerySubgraph`] is that edge-subset
//! view, with the set operations the SJ-Tree needs: join (union, Definition
//! 3.1.3) and cut (vertex intersection, Property 4).

use crate::query::{QueryEdgeId, QueryGraph, QueryVertexId};
use crate::signature::Primitive;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A subgraph of a query graph, identified by a subset of its edges.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuerySubgraph {
    edges: BTreeSet<QueryEdgeId>,
    vertices: BTreeSet<QueryVertexId>,
}

impl QuerySubgraph {
    /// Creates an empty subgraph.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a subgraph from a set of edges of `query`; vertices are the
    /// endpoints of those edges.
    pub fn from_edges<I>(query: &QueryGraph, edges: I) -> Self
    where
        I: IntoIterator<Item = QueryEdgeId>,
    {
        let mut sg = Self::default();
        for e in edges {
            sg.insert_edge(query, e);
        }
        sg
    }

    /// Adds a single edge (and its endpoints).
    pub fn insert_edge(&mut self, query: &QueryGraph, e: QueryEdgeId) {
        let edge = query.edge(e);
        self.edges.insert(e);
        self.vertices.insert(edge.src);
        self.vertices.insert(edge.dst);
    }

    /// Number of edges in the subgraph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices in the subgraph.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` when the subgraph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterates over the edge ids in ascending order.
    pub fn edges(&self) -> impl Iterator<Item = QueryEdgeId> + '_ {
        self.edges.iter().copied()
    }

    /// Iterates over the vertex ids in ascending order.
    pub fn vertices(&self) -> impl Iterator<Item = QueryVertexId> + '_ {
        self.vertices.iter().copied()
    }

    /// Membership test for an edge.
    pub fn contains_edge(&self, e: QueryEdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// Membership test for a vertex.
    pub fn contains_vertex(&self, v: QueryVertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// The join of two subgraphs: union of vertices and edges
    /// (Definition 3.1.3, `G3 = G1 ⋈ G2`).
    pub fn join(&self, other: &QuerySubgraph) -> QuerySubgraph {
        QuerySubgraph {
            edges: self.edges.union(&other.edges).copied().collect(),
            vertices: self.vertices.union(&other.vertices).copied().collect(),
        }
    }

    /// The cut between two subgraphs: the vertices they share (Property 4's
    /// `CUT-SUBGRAPH`). The decomposition partitions edges, so the
    /// intersection never contains edges.
    pub fn cut_vertices(&self, other: &QuerySubgraph) -> Vec<QueryVertexId> {
        self.vertices
            .intersection(&other.vertices)
            .copied()
            .collect()
    }

    /// Returns `true` when the subgraph is connected within `query`
    /// (ignoring edge direction). Empty subgraphs count as connected.
    pub fn is_connected(&self, query: &QueryGraph) -> bool {
        if self.edges.is_empty() {
            return true;
        }
        let mut seen: BTreeSet<QueryVertexId> = BTreeSet::new();
        let mut stack = Vec::new();
        let start = *self.vertices.iter().next().expect("non-empty subgraph");
        seen.insert(start);
        stack.push(start);
        while let Some(v) = stack.pop() {
            for e in self.edges.iter() {
                let edge = query.edge(*e);
                if let Some(n) = edge.other_endpoint(v) {
                    if edge.touches(v) && self.vertices.contains(&n) && seen.insert(n) {
                        stack.push(n);
                    }
                }
            }
        }
        seen.len() == self.vertices.len()
    }

    /// If this subgraph is a search primitive (a single edge or a 2-edge
    /// wedge), returns its signature; `None` for anything larger or for a
    /// disconnected 2-edge subgraph.
    pub fn primitive(&self, query: &QueryGraph) -> Option<Primitive> {
        let edges: Vec<QueryEdgeId> = self.edges.iter().copied().collect();
        match edges.as_slice() {
            [e] => Some(query.edge_primitive(*e)),
            [a, b] => query.wedge_primitive(*a, *b),
            _ => None,
        }
    }

    /// Whether this subgraph covers every edge of the query graph.
    pub fn covers(&self, query: &QueryGraph) -> bool {
        self.edges.len() == query.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::EdgeType;

    fn path4() -> QueryGraph {
        let mut q = QueryGraph::new("path4");
        let v: Vec<_> = (0..5).map(|_| q.add_any_vertex()).collect();
        for i in 0..4 {
            q.add_edge(v[i], v[i + 1], EdgeType(i as u32));
        }
        q
    }

    #[test]
    fn from_edges_collects_endpoints() {
        let q = path4();
        let sg = QuerySubgraph::from_edges(&q, [QueryEdgeId(0), QueryEdgeId(1)]);
        assert_eq!(sg.num_edges(), 2);
        assert_eq!(sg.num_vertices(), 3);
        assert!(sg.contains_vertex(QueryVertexId(1)));
        assert!(!sg.contains_vertex(QueryVertexId(4)));
    }

    #[test]
    fn join_is_union() {
        let q = path4();
        let a = QuerySubgraph::from_edges(&q, [QueryEdgeId(0)]);
        let b = QuerySubgraph::from_edges(&q, [QueryEdgeId(1), QueryEdgeId(2)]);
        let j = a.join(&b);
        assert_eq!(j.num_edges(), 3);
        assert_eq!(j.num_vertices(), 4);
        assert!(j.is_connected(&q));
    }

    #[test]
    fn cut_vertices_is_shared_vertices() {
        let q = path4();
        let a = QuerySubgraph::from_edges(&q, [QueryEdgeId(0), QueryEdgeId(1)]);
        let b = QuerySubgraph::from_edges(&q, [QueryEdgeId(2), QueryEdgeId(3)]);
        assert_eq!(a.cut_vertices(&b), vec![QueryVertexId(2)]);
    }

    #[test]
    fn connectivity_detection() {
        let q = path4();
        let connected = QuerySubgraph::from_edges(&q, [QueryEdgeId(1), QueryEdgeId(2)]);
        assert!(connected.is_connected(&q));
        let disconnected = QuerySubgraph::from_edges(&q, [QueryEdgeId(0), QueryEdgeId(3)]);
        assert!(!disconnected.is_connected(&q));
        assert!(QuerySubgraph::empty().is_connected(&q));
    }

    #[test]
    fn primitive_classification() {
        let q = path4();
        let one = QuerySubgraph::from_edges(&q, [QueryEdgeId(2)]);
        assert!(matches!(one.primitive(&q), Some(Primitive::SingleEdge(t)) if t == EdgeType(2)));
        let wedge = QuerySubgraph::from_edges(&q, [QueryEdgeId(1), QueryEdgeId(2)]);
        assert!(matches!(
            wedge.primitive(&q),
            Some(Primitive::TwoEdgePath(_))
        ));
        let non_wedge = QuerySubgraph::from_edges(&q, [QueryEdgeId(0), QueryEdgeId(3)]);
        assert!(non_wedge.primitive(&q).is_none());
        let big = QuerySubgraph::from_edges(&q, [QueryEdgeId(0), QueryEdgeId(1), QueryEdgeId(2)]);
        assert!(big.primitive(&q).is_none());
    }

    #[test]
    fn covers_detects_full_query() {
        let q = path4();
        let all = QuerySubgraph::from_edges(&q, q.edge_ids());
        assert!(all.covers(&q));
        let part = QuerySubgraph::from_edges(&q, [QueryEdgeId(0)]);
        assert!(!part.covers(&q));
    }
}
