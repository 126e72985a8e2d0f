//! Full-graph subgraph isomorphism — the non-incremental baseline.
//!
//! The paper compares its incremental strategies against "a non-incremental
//! approach that performs subgraph isomorphism for the query graph (using
//! VF2) on every new edge in the dynamic graph" (Section 6). [`Vf2Matcher`]
//! plays that role: it enumerates every embedding of the query graph in the
//! current data graph. The per-edge baseline keeps the embeddings that use
//! the new edge, so it reports only the *new* matches, like the incremental
//! engine does.
//!
//! The implementation follows the VF2 recipe of candidate-pair expansion with
//! connectivity-driven candidate generation; it is deliberately selectivity
//! *agnostic* — the query edges are explored in their textual order, which is
//! exactly the behaviour the paper's baseline exhibits.

use crate::anchored::find_matches_containing_edge;
use crate::match_map::SubgraphMatch;
use sp_graph::{DynamicGraph, EdgeData};
use sp_query::{QueryGraph, QuerySubgraph};

/// Enumerates embeddings of a full query graph in the data graph.
#[derive(Debug, Clone)]
pub struct Vf2Matcher {
    query: QueryGraph,
    whole: QuerySubgraph,
}

impl Vf2Matcher {
    /// Creates a matcher for the given query graph.
    ///
    /// # Panics
    /// Panics if the query graph is empty or disconnected: the baseline (like
    /// the SJ-Tree engine) only supports connected queries.
    pub fn new(query: QueryGraph) -> Self {
        assert!(query.num_edges() > 0, "query graph must have edges");
        assert!(query.is_connected(), "query graph must be connected");
        let whole = QuerySubgraph::from_edges(&query, query.edge_ids());
        Self { query, whole }
    }

    /// The query graph this matcher searches for.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// Enumerates every embedding of the query in the current data graph.
    ///
    /// Each embedding is reported exactly once: the first query edge is
    /// anchored on every compatible data edge in turn, and an embedding binds
    /// the first query edge to exactly one data edge.
    pub fn find_all(&self, graph: &DynamicGraph) -> Vec<SubgraphMatch> {
        let first = self.query.edge_ids().next().expect("non-empty query graph");
        let first_type = self.query.edge(first).edge_type;
        let mut out = Vec::new();
        // Snapshot candidate anchor edges to avoid holding the iterator while
        // the anchored search walks the graph.
        let anchors: Vec<EdgeData> = graph
            .edges()
            .filter(|e| e.edge_type == first_type)
            .copied()
            .collect();
        for anchor in anchors {
            for m in find_matches_containing_edge(graph, &self.query, &self.whole, &anchor) {
                // Keep only embeddings where the anchor serves the *first*
                // query edge; other bindings of the anchor are discovered
                // when their own first-edge anchor is processed.
                if m.data_edge(first) == Some(anchor.id) {
                    out.push(m);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{Schema, Timestamp};
    use sp_query::QueryVertexId;

    /// Star: hub sends tcp to k leaves; query is a 2-edge out-out wedge.
    #[test]
    fn counts_wedges_in_a_star() {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let mut g = DynamicGraph::new(schema);
        let hub = g.add_vertex(vt);
        for i in 0..4 {
            let leaf = g.add_vertex(vt);
            g.add_edge(hub, leaf, tcp, Timestamp(i));
        }
        let mut q = QueryGraph::new("wedge");
        let c = q.add_any_vertex();
        let l1 = q.add_any_vertex();
        let l2 = q.add_any_vertex();
        q.add_edge(c, l1, tcp);
        q.add_edge(c, l2, tcp);
        let m = Vf2Matcher::new(q);
        // Ordered pairs of distinct leaves: 4 * 3 = 12 embeddings.
        assert_eq!(m.find_all(&g).len(), 12);
    }

    #[test]
    fn directed_path_is_found_in_one_direction_only() {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let a_t = schema.intern_edge_type("a");
        let b_t = schema.intern_edge_type("b");
        let mut g = DynamicGraph::new(schema);
        let x = g.add_vertex(vt);
        let y = g.add_vertex(vt);
        let z = g.add_vertex(vt);
        g.add_edge(x, y, a_t, Timestamp(1));
        g.add_edge(y, z, b_t, Timestamp(2));
        g.add_edge(z, y, a_t, Timestamp(3)); // wrong direction for the path

        let mut q = QueryGraph::new("a-then-b");
        let u0 = q.add_any_vertex();
        let u1 = q.add_any_vertex();
        let u2 = q.add_any_vertex();
        q.add_edge(u0, u1, a_t);
        q.add_edge(u1, u2, b_t);
        let m = Vf2Matcher::new(q);
        let all = m.find_all(&g);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].data_vertex(QueryVertexId(0)), Some(x));
        assert_eq!(all[0].data_vertex(QueryVertexId(2)), Some(z));
    }

    #[test]
    fn find_containing_edge_only_reports_matches_with_that_edge() {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t = schema.intern_edge_type("t");
        let mut g = DynamicGraph::new(schema);
        let a = g.add_vertex(vt);
        let b = g.add_vertex(vt);
        let c = g.add_vertex(vt);
        let d = g.add_vertex(vt);
        g.add_edge(a, b, t, Timestamp(1));
        let e_cd = g.add_edge(c, d, t, Timestamp(2));

        let mut q = QueryGraph::new("one-edge");
        let u0 = q.add_any_vertex();
        let u1 = q.add_any_vertex();
        q.add_edge(u0, u1, t);
        let m = Vf2Matcher::new(q);
        assert_eq!(m.find_all(&g).len(), 2);
        // The per-edge baseline keeps the embeddings that use the new edge.
        let around: Vec<_> = m
            .find_all(&g)
            .into_iter()
            .filter(|x| x.uses_data_edge(e_cd))
            .collect();
        assert_eq!(around.len(), 1);
        assert_eq!(around[0].data_vertex(QueryVertexId(0)), Some(c));
    }

    #[test]
    fn triangle_query_on_triangle_data() {
        // Cyclic query: the DAG-decomposition approaches of related work
        // cannot express this; our matcher must (Section 2.2 discussion).
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t = schema.intern_edge_type("t");
        let mut g = DynamicGraph::new(schema);
        let a = g.add_vertex(vt);
        let b = g.add_vertex(vt);
        let c = g.add_vertex(vt);
        g.add_edge(a, b, t, Timestamp(1));
        g.add_edge(b, c, t, Timestamp(2));
        g.add_edge(c, a, t, Timestamp(3));

        let mut q = QueryGraph::new("triangle");
        let u0 = q.add_any_vertex();
        let u1 = q.add_any_vertex();
        let u2 = q.add_any_vertex();
        q.add_edge(u0, u1, t);
        q.add_edge(u1, u2, t);
        q.add_edge(u2, u0, t);
        let m = Vf2Matcher::new(q);
        // The directed 3-cycle has 3 rotational embeddings.
        assert_eq!(m.find_all(&g).len(), 3);
    }

    #[test]
    #[should_panic(expected = "must be connected")]
    fn disconnected_query_is_rejected() {
        let mut q = QueryGraph::new("bad");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        let d = q.add_any_vertex();
        q.add_edge(a, b, sp_graph::EdgeType(0));
        q.add_edge(c, d, sp_graph::EdgeType(0));
        let _ = Vf2Matcher::new(q);
    }

    #[test]
    #[should_panic(expected = "must have edges")]
    fn empty_query_is_rejected() {
        let q = QueryGraph::new("empty");
        let _ = Vf2Matcher::new(q);
    }
}
