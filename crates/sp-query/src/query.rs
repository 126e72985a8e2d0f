//! The query graph: a small directed, typed multigraph.

use serde::{Deserialize, Serialize};
use sp_graph::{EdgeType, Schema, VertexType};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Index of a vertex within a [`QueryGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryVertexId(pub usize);

/// Index of an edge within a [`QueryGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryEdgeId(pub usize);

impl fmt::Display for QueryVertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for QueryEdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A query vertex: a type constraint (possibly [`VertexType::ANY`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryVertex {
    /// The type a data vertex must have to be bound to this query vertex.
    pub vertex_type: VertexType,
}

/// A query edge: a directed, typed edge between two query vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryEdge {
    /// Id of this edge inside the query graph.
    pub id: QueryEdgeId,
    /// Source query vertex.
    pub src: QueryVertexId,
    /// Destination query vertex.
    pub dst: QueryVertexId,
    /// Required edge type.
    pub edge_type: EdgeType,
}

impl QueryEdge {
    /// Returns the endpoint other than `v`, or `None` if `v` is not an
    /// endpoint.
    pub fn other_endpoint(&self, v: QueryVertexId) -> Option<QueryVertexId> {
        if self.src == v {
            Some(self.dst)
        } else if self.dst == v {
            Some(self.src)
        } else {
            None
        }
    }

    /// Returns `true` if `v` is an endpoint of this edge.
    pub fn touches(&self, v: QueryVertexId) -> bool {
        self.src == v || self.dst == v
    }
}

/// A directed, typed query graph.
///
/// Query graphs are tiny (a handful of edges), so all operations favour
/// clarity over asymptotic cleverness; the hot path of the engine never
/// iterates a query graph per streaming edge beyond its (constant) size.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueryGraph {
    name: String,
    vertices: Vec<QueryVertex>,
    edges: Vec<QueryEdge>,
}

impl QueryGraph {
    /// Creates an empty query graph with a human-readable name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            vertices: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The query's name (used in reports and experiment output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a vertex with the given type constraint and returns its id.
    pub fn add_vertex(&mut self, vertex_type: VertexType) -> QueryVertexId {
        let id = QueryVertexId(self.vertices.len());
        self.vertices.push(QueryVertex { vertex_type });
        id
    }

    /// Adds an untyped (wildcard) vertex.
    pub fn add_any_vertex(&mut self) -> QueryVertexId {
        self.add_vertex(VertexType::ANY)
    }

    /// Adds a directed edge of the given type and returns its id.
    pub fn add_edge(
        &mut self,
        src: QueryVertexId,
        dst: QueryVertexId,
        edge_type: EdgeType,
    ) -> QueryEdgeId {
        assert!(src.0 < self.vertices.len(), "unknown source query vertex");
        assert!(
            dst.0 < self.vertices.len(),
            "unknown destination query vertex"
        );
        let id = QueryEdgeId(self.edges.len());
        self.edges.push(QueryEdge {
            id,
            src,
            dst,
            edge_type,
        });
        id
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns a vertex by id.
    pub fn vertex(&self, id: QueryVertexId) -> &QueryVertex {
        &self.vertices[id.0]
    }

    /// Returns an edge by id.
    pub fn edge(&self, id: QueryEdgeId) -> &QueryEdge {
        &self.edges[id.0]
    }

    /// Iterates over all vertices with their ids.
    pub fn vertices(&self) -> impl Iterator<Item = (QueryVertexId, &QueryVertex)> + '_ {
        self.vertices
            .iter()
            .enumerate()
            .map(|(i, v)| (QueryVertexId(i), v))
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &QueryEdge> + '_ {
        self.edges.iter()
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = QueryEdgeId> + '_ {
        (0..self.edges.len()).map(QueryEdgeId)
    }

    /// Iterates over all vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = QueryVertexId> + '_ {
        (0..self.vertices.len()).map(QueryVertexId)
    }

    /// Iterates over the edges incident to a query vertex (both directions).
    pub fn incident_edges(&self, v: QueryVertexId) -> impl Iterator<Item = &QueryEdge> + '_ {
        self.edges.iter().filter(move |e| e.touches(v))
    }

    /// Degree of a query vertex.
    pub fn degree(&self, v: QueryVertexId) -> usize {
        self.incident_edges(v).count()
    }

    /// Diameter proxy used in the evaluation plots: the number of edges of
    /// the longest shortest path in the undirected sense.
    pub fn undirected_diameter(&self) -> usize {
        let mut best = 0;
        for (start, _) in self.vertices() {
            let mut dist = vec![usize::MAX; self.vertices.len()];
            let mut queue = VecDeque::new();
            dist[start.0] = 0;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                for e in self.incident_edges(v) {
                    let n = e.other_endpoint(v).expect("incident edge touches v");
                    if dist[n.0] == usize::MAX {
                        dist[n.0] = dist[v.0] + 1;
                        queue.push_back(n);
                    }
                }
            }
            for &d in &dist {
                if d != usize::MAX {
                    best = best.max(d);
                }
            }
        }
        best
    }

    /// Returns `true` when the query graph is connected (ignoring edge
    /// direction). The SJ-Tree decomposition requires connected queries.
    pub fn is_connected(&self) -> bool {
        if self.vertices.is_empty() {
            return true;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(QueryVertexId(0));
        queue.push_back(QueryVertexId(0));
        while let Some(v) = queue.pop_front() {
            for e in self.incident_edges(v) {
                let n = e.other_endpoint(v).expect("incident edge touches v");
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        seen.len() == self.vertices.len()
    }

    /// Renders the query as a list of `src -[type]-> dst` triples using the
    /// schema for readable names.
    pub fn describe(&self, schema: &Schema) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "query \"{}\" ({} edges):\n",
            self.name,
            self.edges.len()
        ));
        for e in &self.edges {
            let st = self.vertices[e.src.0].vertex_type;
            let dt = self.vertices[e.dst.0].vertex_type;
            out.push_str(&format!(
                "  {}:{} -[{}]-> {}:{}\n",
                e.src,
                schema.vertex_type_name(st),
                schema.edge_type_name(e.edge_type),
                e.dst,
                schema.vertex_type_name(dt),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> QueryGraph {
        // v0 -a-> v1 -b-> v2 -c-> v3
        let mut q = QueryGraph::new("path3");
        let v: Vec<_> = (0..4).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], EdgeType(0));
        q.add_edge(v[1], v[2], EdgeType(1));
        q.add_edge(v[2], v[3], EdgeType(2));
        q
    }

    #[test]
    fn building_a_path_query() {
        let q = path3();
        assert_eq!(q.num_vertices(), 4);
        assert_eq!(q.num_edges(), 3);
        assert_eq!(q.edge(QueryEdgeId(1)).edge_type, EdgeType(1));
        assert!(q.is_connected());
        assert_eq!(q.undirected_diameter(), 3);
    }

    #[test]
    fn incident_edges_and_degree() {
        let q = path3();
        assert_eq!(q.degree(QueryVertexId(0)), 1);
        assert_eq!(q.degree(QueryVertexId(1)), 2);
        let incident: Vec<_> = q.incident_edges(QueryVertexId(1)).map(|e| e.id.0).collect();
        assert_eq!(incident, vec![0, 1]);
    }

    #[test]
    fn disconnected_query_is_detected() {
        let mut q = QueryGraph::new("disconnected");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let _c = q.add_any_vertex();
        q.add_edge(a, b, EdgeType(0));
        assert!(!q.is_connected());
    }

    #[test]
    fn empty_query_is_connected_by_convention() {
        let q = QueryGraph::new("empty");
        assert!(q.is_connected());
        assert_eq!(q.undirected_diameter(), 0);
    }

    #[test]
    fn other_endpoint_on_query_edges() {
        let q = path3();
        let e = q.edge(QueryEdgeId(0));
        assert_eq!(e.other_endpoint(QueryVertexId(0)), Some(QueryVertexId(1)));
        assert_eq!(e.other_endpoint(QueryVertexId(1)), Some(QueryVertexId(0)));
        assert_eq!(e.other_endpoint(QueryVertexId(3)), None);
    }

    #[test]
    fn describe_uses_schema_names() {
        let mut schema = Schema::new();
        let tcp = schema.intern_edge_type("tcp");
        let ip = schema.intern_vertex_type("ip");
        let mut q = QueryGraph::new("demo");
        let a = q.add_vertex(ip);
        let b = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        let text = q.describe(&schema);
        assert!(text.contains("tcp"));
        assert!(text.contains("ip"));
        assert!(text.contains('*'));
    }

    #[test]
    fn serde_roundtrip() {
        let q = path3();
        let json = serde_json::to_string(&q).unwrap();
        let back: QueryGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_edges(), q.num_edges());
        assert_eq!(back.name(), "path3");
    }

    #[test]
    #[should_panic(expected = "unknown source query vertex")]
    fn adding_edge_with_unknown_vertex_panics() {
        let mut q = QueryGraph::new("bad");
        let v = q.add_any_vertex();
        q.add_edge(QueryVertexId(5), v, EdgeType(0));
    }
}
