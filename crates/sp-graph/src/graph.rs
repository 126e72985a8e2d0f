//! The dynamic multi-relational graph.
//!
//! [`DynamicGraph`] is an in-memory, directed, typed multigraph optimized for
//! the access pattern of the continuous matcher:
//!
//! * edge insertion must be cheap (the stream calls it for every arriving
//!   edge);
//! * iteration over the edges incident to a single vertex must be cheap
//!   (the anchored isomorphism routines only ever look at local
//!   neighborhoods);
//! * expiring edges that fall out of the time window must be cheap and must
//!   report what was removed so that the engine can drop stale partial
//!   matches.

use crate::error::GraphError;
use crate::hash::FastMap;
use crate::ids::{Direction, EdgeId, EdgeType, Timestamp, VertexId, VertexType};
use crate::schema::Schema;
use crate::window::ExpiryQueue;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Payload of a single directed, typed, timestamped edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeData {
    /// Unique id of the edge.
    pub id: EdgeId,
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Interned edge type (output of the schema `Map()` function).
    pub edge_type: EdgeType,
    /// Arrival timestamp.
    pub timestamp: Timestamp,
}

impl EdgeData {
    /// Returns the endpoint opposite to `v`, or `None` if `v` is not an
    /// endpoint of this edge.
    pub fn other_endpoint(&self, v: VertexId) -> Option<VertexId> {
        if self.src == v {
            Some(self.dst)
        } else if self.dst == v {
            Some(self.src)
        } else {
            None
        }
    }

    /// Returns `true` if `v` is one of the endpoints.
    pub fn touches(&self, v: VertexId) -> bool {
        self.src == v || self.dst == v
    }
}

/// Per-vertex adjacency record.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VertexData {
    /// Interned vertex type.
    pub vertex_type: VertexType,
    /// Ids of edges whose source is this vertex.
    pub out_edges: Vec<EdgeId>,
    /// Ids of edges whose destination is this vertex.
    pub in_edges: Vec<EdgeId>,
}

impl VertexData {
    /// Total degree (in + out) counting multi-edges.
    pub fn degree(&self) -> usize {
        self.out_edges.len() + self.in_edges.len()
    }
}

/// An edge described relative to an anchor vertex, as produced by
/// [`DynamicGraph::incident_edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncidentEdge {
    /// Id of the edge.
    pub edge: EdgeId,
    /// The endpoint of the edge that is not the anchor (for self-loops this
    /// equals the anchor).
    pub neighbor: VertexId,
    /// Whether the anchor is the source (`Outgoing`) or destination
    /// (`Incoming`) of the edge.
    pub direction: Direction,
    /// Edge type.
    pub edge_type: EdgeType,
    /// Edge timestamp.
    pub timestamp: Timestamp,
}

/// Aggregate degree statistics used by the analytic cost model (Appendix A of
/// the paper, and Observation 3 in Section 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Mean total degree over all vertices.
    pub average_degree: f64,
    /// Maximum total degree observed.
    pub max_degree: usize,
    /// Mean degree per vertex type.
    pub per_type: HashMap<u32, f64>,
}

/// Directed, typed, timestamped multigraph maintained over a sliding time
/// window.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    schema: Schema,
    vertices: FastMap<VertexId, VertexData>,
    edges: FastMap<EdgeId, EdgeData>,
    names: HashMap<String, VertexId>,
    expiry: ExpiryQueue,
    window: Option<u64>,
    next_vertex_id: u64,
    next_edge_id: u64,
    latest_ts: Timestamp,
    total_edges_seen: u64,
}

impl DynamicGraph {
    /// Creates an empty graph with the given schema and no time window
    /// (edges are never expired).
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            vertices: FastMap::default(),
            edges: FastMap::default(),
            names: HashMap::new(),
            expiry: ExpiryQueue::new(),
            window: None,
            next_vertex_id: 0,
            next_edge_id: 0,
            latest_ts: Timestamp(0),
            total_edges_seen: 0,
        }
    }

    /// Creates an empty graph with a sliding window of width `window`: when a
    /// new edge with timestamp `t` arrives, edges older than `t - window` are
    /// removed by the next [`DynamicGraph::expire`] call.
    pub fn with_window(schema: Schema, window: u64) -> Self {
        let mut g = Self::new(schema);
        g.window = Some(window);
        g
    }

    /// Returns the shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Sets or clears the sliding window width.
    pub fn set_window(&mut self, window: Option<u64>) {
        self.window = window;
    }

    /// Returns the configured window width, if any.
    pub fn window(&self) -> Option<u64> {
        self.window
    }

    /// Allocates a fresh vertex with the given type.
    pub fn add_vertex(&mut self, vertex_type: VertexType) -> VertexId {
        let id = VertexId(self.next_vertex_id);
        self.next_vertex_id += 1;
        self.vertices.insert(
            id,
            VertexData {
                vertex_type,
                ..VertexData::default()
            },
        );
        id
    }

    /// Ensures a vertex with an externally chosen id exists, creating it with
    /// the given type when absent. Returns an error when the vertex exists
    /// with a different concrete type.
    pub fn ensure_vertex(&mut self, id: VertexId, vertex_type: VertexType) -> Result<VertexId> {
        if let Some(data) = self.vertices.get(&id) {
            if data.vertex_type != vertex_type && !vertex_type.is_any() {
                return Err(GraphError::VertexTypeConflict {
                    vertex: id,
                    existing: data.vertex_type.0,
                    requested: vertex_type.0,
                });
            }
            return Ok(id);
        }
        self.vertices.insert(
            id,
            VertexData {
                vertex_type,
                ..VertexData::default()
            },
        );
        self.next_vertex_id = self.next_vertex_id.max(id.0 + 1);
        Ok(id)
    }

    /// Looks up (or creates) a vertex by external name, e.g. an IP address or
    /// a user id string.
    pub fn ensure_vertex_named(&mut self, name: &str, vertex_type: VertexType) -> VertexId {
        if let Some(&id) = self.names.get(name) {
            // The vertex may have been dropped by window expiry while the
            // name mapping was retained; re-materialize it under the same id
            // so external names stay stable across the stream.
            self.vertices.entry(id).or_insert_with(|| VertexData {
                vertex_type,
                ..VertexData::default()
            });
            return id;
        }
        let id = self.add_vertex(vertex_type);
        self.names.insert(name.to_owned(), id);
        id
    }

    /// Resolves a previously registered vertex name.
    pub fn vertex_by_name(&self, name: &str) -> Option<VertexId> {
        self.names.get(name).copied()
    }

    /// Inserts a new directed edge and returns its id. Both endpoints must
    /// already exist (see [`DynamicGraph::ensure_vertex`] /
    /// [`DynamicGraph::ensure_vertex_named`] / [`DynamicGraph::add_vertex`]).
    ///
    /// The edge is *not* checked against the window here; call
    /// [`DynamicGraph::expire`] to slide the window forward.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        edge_type: EdgeType,
        timestamp: Timestamp,
    ) -> EdgeId {
        debug_assert!(self.vertices.contains_key(&src), "unknown source vertex");
        debug_assert!(
            self.vertices.contains_key(&dst),
            "unknown destination vertex"
        );
        let id = EdgeId(self.next_edge_id);
        self.next_edge_id += 1;
        let data = EdgeData {
            id,
            src,
            dst,
            edge_type,
            timestamp,
        };
        self.edges.insert(id, data);
        self.vertices
            .get_mut(&src)
            .expect("source vertex must exist")
            .out_edges
            .push(id);
        self.vertices
            .get_mut(&dst)
            .expect("destination vertex must exist")
            .in_edges
            .push(id);
        self.expiry.push(id, timestamp);
        if timestamp > self.latest_ts {
            self.latest_ts = timestamp;
        }
        self.total_edges_seen += 1;
        id
    }

    /// Checked variant of [`DynamicGraph::add_edge`] that verifies both
    /// endpoints exist and that the edge is not already outside the window.
    pub fn try_add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        edge_type: EdgeType,
        timestamp: Timestamp,
    ) -> Result<EdgeId> {
        if !self.vertices.contains_key(&src) {
            return Err(GraphError::UnknownVertex(src));
        }
        if !self.vertices.contains_key(&dst) {
            return Err(GraphError::UnknownVertex(dst));
        }
        if let Some(w) = self.window {
            let start = self.latest_ts.0.saturating_sub(w);
            if timestamp.0 < start {
                return Err(GraphError::StaleEdge {
                    timestamp: timestamp.0,
                    window_start: start,
                });
            }
        }
        Ok(self.add_edge(src, dst, edge_type, timestamp))
    }

    /// Slides the window forward to the newest edge seen so far, removing all
    /// edges older than `latest - window`. Returns the removed edges.
    ///
    /// Vertices whose last incident edge is removed are also removed
    /// (mirroring `REMOVE-SUBGRAPH`'s "disconnected vertex" rule).
    pub fn expire(&mut self) -> Vec<EdgeData> {
        let Some(w) = self.window else {
            return Vec::new();
        };
        let cutoff = Timestamp(self.latest_ts.0.saturating_sub(w));
        let expired = self.expiry.expire_older_than(cutoff);
        let mut removed = Vec::with_capacity(expired.len());
        for (edge_id, _) in expired {
            if let Some(data) = self.detach_edge(edge_id) {
                removed.push(data);
            }
        }
        removed
    }

    /// Removes a single edge from the adjacency structures, dropping now
    /// isolated endpoints. Returns the removed edge data.
    fn detach_edge(&mut self, edge_id: EdgeId) -> Option<EdgeData> {
        let data = self.edges.remove(&edge_id)?;
        for (vertex, incoming) in [(data.src, false), (data.dst, true)] {
            let remove_vertex = if let Some(vd) = self.vertices.get_mut(&vertex) {
                let list = if incoming {
                    &mut vd.in_edges
                } else {
                    &mut vd.out_edges
                };
                if let Some(pos) = list.iter().position(|&e| e == edge_id) {
                    list.swap_remove(pos);
                }
                vd.degree() == 0
            } else {
                false
            };
            if remove_vertex {
                self.vertices.remove(&vertex);
            }
        }
        Some(data)
    }

    /// Explicitly removes an edge (outside of window expiry).
    pub fn remove_edge(&mut self, edge_id: EdgeId) -> Result<EdgeData> {
        let ts = self
            .edges
            .get(&edge_id)
            .map(|e| e.timestamp)
            .ok_or(GraphError::UnknownEdge(edge_id))?;
        self.expiry.remove(edge_id, ts);
        self.detach_edge(edge_id)
            .ok_or(GraphError::UnknownEdge(edge_id))
    }

    /// Returns edge data by id, `None` if unknown or expired.
    pub fn edge(&self, id: EdgeId) -> Option<&EdgeData> {
        self.edges.get(&id)
    }

    /// Returns vertex data by id.
    pub fn vertex(&self, id: VertexId) -> Option<&VertexData> {
        self.vertices.get(&id)
    }

    /// Returns the type of a vertex.
    pub fn vertex_type(&self, id: VertexId) -> Option<VertexType> {
        self.vertices.get(&id).map(|v| v.vertex_type)
    }

    /// Returns `true` if the vertex is present.
    pub fn contains_vertex(&self, id: VertexId) -> bool {
        self.vertices.contains_key(&id)
    }

    /// Returns `true` if the edge is present (not expired).
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.contains_key(&id)
    }

    /// Number of live vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Total number of edges ever inserted (including expired ones).
    pub fn total_edges_seen(&self) -> u64 {
        self.total_edges_seen
    }

    /// Timestamp of the newest edge inserted so far.
    pub fn latest_timestamp(&self) -> Timestamp {
        self.latest_ts
    }

    /// Iterates over all live vertices.
    pub fn vertices(&self) -> impl Iterator<Item = (VertexId, &VertexData)> + '_ {
        self.vertices.iter().map(|(&id, data)| (id, data))
    }

    /// Iterates over all live edges.
    pub fn edges(&self) -> impl Iterator<Item = &EdgeData> + '_ {
        self.edges.values()
    }

    /// Total degree of a vertex (0 for unknown vertices).
    pub fn degree(&self, v: VertexId) -> usize {
        self.vertices.get(&v).map(VertexData::degree).unwrap_or(0)
    }

    /// Out-degree of a vertex.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.vertices
            .get(&v)
            .map(|d| d.out_edges.len())
            .unwrap_or(0)
    }

    /// In-degree of a vertex.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.vertices.get(&v).map(|d| d.in_edges.len()).unwrap_or(0)
    }

    /// Iterates over every edge incident to `v` (both directions), yielding
    /// the edge together with the opposite endpoint and the direction of the
    /// edge relative to `v`.
    pub fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = IncidentEdge> + '_ {
        let data = self.vertices.get(&v);
        let out = data.map(|d| d.out_edges.as_slice()).unwrap_or(&[]);
        let inc = data.map(|d| d.in_edges.as_slice()).unwrap_or(&[]);
        let out_iter = out.iter().filter_map(move |id| {
            self.edges.get(id).map(|e| IncidentEdge {
                edge: e.id,
                neighbor: e.dst,
                direction: Direction::Outgoing,
                edge_type: e.edge_type,
                timestamp: e.timestamp,
            })
        });
        let in_iter = inc.iter().filter_map(move |id| {
            self.edges.get(id).map(|e| IncidentEdge {
                edge: e.id,
                neighbor: e.src,
                direction: Direction::Incoming,
                edge_type: e.edge_type,
                timestamp: e.timestamp,
            })
        });
        out_iter.chain(in_iter)
    }

    /// Iterates over the outgoing edges of `v`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = &EdgeData> + '_ {
        self.vertices
            .get(&v)
            .map(|d| d.out_edges.as_slice())
            .unwrap_or(&[])
            .iter()
            .filter_map(move |id| self.edges.get(id))
    }

    /// Iterates over the incoming edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = &EdgeData> + '_ {
        self.vertices
            .get(&v)
            .map(|d| d.in_edges.as_slice())
            .unwrap_or(&[])
            .iter()
            .filter_map(move |id| self.edges.get(id))
    }

    /// Iterates over all edges from `src` to `dst` (there may be several in a
    /// multigraph).
    pub fn edges_between(
        &self,
        src: VertexId,
        dst: VertexId,
    ) -> impl Iterator<Item = &EdgeData> + '_ {
        self.out_edges(src).filter(move |e| e.dst == dst)
    }

    /// Computes aggregate degree statistics over the live graph.
    pub fn degree_stats(&self) -> DegreeStats {
        let mut total = 0usize;
        let mut max = 0usize;
        let mut per_type_sum: HashMap<u32, (usize, usize)> = HashMap::new();
        for data in self.vertices.values() {
            let d = data.degree();
            total += d;
            max = max.max(d);
            let entry = per_type_sum.entry(data.vertex_type.0).or_insert((0, 0));
            entry.0 += d;
            entry.1 += 1;
        }
        let n = self.vertices.len().max(1);
        let per_type = per_type_sum
            .into_iter()
            .map(|(ty, (sum, count))| (ty, sum as f64 / count.max(1) as f64))
            .collect();
        DegreeStats {
            average_degree: total as f64 / n as f64,
            max_degree: max,
            per_type,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> (Schema, VertexType, EdgeType, EdgeType) {
        let mut s = Schema::new();
        let ip = s.intern_vertex_type("ip");
        let tcp = s.intern_edge_type("tcp");
        let udp = s.intern_edge_type("udp");
        (s, ip, tcp, udp)
    }

    #[test]
    fn add_edge_updates_adjacency_and_counts() {
        let (s, ip, tcp, _) = schema();
        let mut g = DynamicGraph::new(s);
        let a = g.add_vertex(ip);
        let b = g.add_vertex(ip);
        let e = g.add_edge(a, b, tcp, Timestamp(1));
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
        assert_eq!(g.edge(e).unwrap().src, a);
        assert_eq!(g.edge(e).unwrap().dst, b);
    }

    #[test]
    fn multi_edges_between_same_pair_are_kept() {
        let (s, ip, tcp, udp) = schema();
        let mut g = DynamicGraph::new(s);
        let a = g.add_vertex(ip);
        let b = g.add_vertex(ip);
        g.add_edge(a, b, tcp, Timestamp(1));
        g.add_edge(a, b, tcp, Timestamp(2));
        g.add_edge(a, b, udp, Timestamp(3));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edges_between(a, b).count(), 3);
        assert_eq!(
            g.edges_between(a, b).filter(|e| e.edge_type == tcp).count(),
            2
        );
    }

    #[test]
    fn incident_edges_reports_both_directions() {
        let (s, ip, tcp, udp) = schema();
        let mut g = DynamicGraph::new(s);
        let a = g.add_vertex(ip);
        let b = g.add_vertex(ip);
        let c = g.add_vertex(ip);
        g.add_edge(a, b, tcp, Timestamp(1));
        g.add_edge(c, b, udp, Timestamp(2));
        let incident: Vec<_> = g.incident_edges(b).collect();
        assert_eq!(incident.len(), 2);
        assert!(incident
            .iter()
            .any(|i| i.direction == Direction::Incoming && i.neighbor == a));
        assert!(incident
            .iter()
            .any(|i| i.direction == Direction::Incoming && i.neighbor == c));
        assert_eq!(g.incident_edges(a).count(), 1);
        assert_eq!(
            g.incident_edges(a).next().unwrap().direction,
            Direction::Outgoing
        );
    }

    #[test]
    fn window_expiry_removes_old_edges_and_isolated_vertices() {
        let (s, ip, tcp, _) = schema();
        let mut g = DynamicGraph::with_window(s, 10);
        let a = g.add_vertex(ip);
        let b = g.add_vertex(ip);
        let c = g.add_vertex(ip);
        g.add_edge(a, b, tcp, Timestamp(1));
        g.add_edge(b, c, tcp, Timestamp(20));
        let removed = g.expire();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].src, a);
        assert_eq!(g.num_edges(), 1);
        // a became isolated and is dropped; b and c stay.
        assert!(!g.contains_vertex(a));
        assert!(g.contains_vertex(b));
        assert!(g.contains_vertex(c));
    }

    #[test]
    fn expire_without_window_is_a_noop() {
        let (s, ip, tcp, _) = schema();
        let mut g = DynamicGraph::new(s);
        let a = g.add_vertex(ip);
        let b = g.add_vertex(ip);
        g.add_edge(a, b, tcp, Timestamp(1));
        g.add_edge(a, b, tcp, Timestamp(1_000_000));
        assert!(g.expire().is_empty());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn try_add_edge_rejects_unknown_vertices_and_stale_edges() {
        let (s, ip, tcp, _) = schema();
        let mut g = DynamicGraph::with_window(s, 5);
        let a = g.add_vertex(ip);
        let b = g.add_vertex(ip);
        assert!(matches!(
            g.try_add_edge(VertexId(999), b, tcp, Timestamp(1)),
            Err(GraphError::UnknownVertex(_))
        ));
        g.add_edge(a, b, tcp, Timestamp(100));
        assert!(matches!(
            g.try_add_edge(a, b, tcp, Timestamp(10)),
            Err(GraphError::StaleEdge { .. })
        ));
        assert!(g.try_add_edge(a, b, tcp, Timestamp(99)).is_ok());
    }

    #[test]
    fn ensure_vertex_conflicting_type_is_an_error() {
        let mut s = Schema::new();
        let ip = s.intern_vertex_type("ip");
        let person = s.intern_vertex_type("person");
        let mut g = DynamicGraph::new(s);
        g.ensure_vertex(VertexId(7), ip).unwrap();
        assert!(g.ensure_vertex(VertexId(7), ip).is_ok());
        assert!(matches!(
            g.ensure_vertex(VertexId(7), person),
            Err(GraphError::VertexTypeConflict { .. })
        ));
        // wildcard re-ensure is allowed
        assert!(g.ensure_vertex(VertexId(7), VertexType::ANY).is_ok());
    }

    #[test]
    fn named_vertices_are_deduplicated() {
        let (s, ip, tcp, _) = schema();
        let mut g = DynamicGraph::new(s);
        let a = g.ensure_vertex_named("10.0.0.1", ip);
        let a2 = g.ensure_vertex_named("10.0.0.1", ip);
        let b = g.ensure_vertex_named("10.0.0.2", ip);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(g.vertex_by_name("10.0.0.1"), Some(a));
        assert_eq!(g.vertex_by_name("10.0.0.9"), None);
        g.add_edge(a, b, tcp, Timestamp(1));
        assert_eq!(g.num_vertices(), 2);
    }

    #[test]
    fn remove_edge_detaches_and_errors_on_double_remove() {
        let (s, ip, tcp, _) = schema();
        let mut g = DynamicGraph::new(s);
        let a = g.add_vertex(ip);
        let b = g.add_vertex(ip);
        let e = g.add_edge(a, b, tcp, Timestamp(1));
        let data = g.remove_edge(e).unwrap();
        assert_eq!(data.id, e);
        assert_eq!(g.num_edges(), 0);
        assert!(matches!(g.remove_edge(e), Err(GraphError::UnknownEdge(_))));
    }

    #[test]
    fn degree_stats_average_and_max() {
        let (s, ip, tcp, _) = schema();
        let mut g = DynamicGraph::new(s);
        let hub = g.add_vertex(ip);
        for _ in 0..4 {
            let leaf = g.add_vertex(ip);
            g.add_edge(hub, leaf, tcp, Timestamp(1));
        }
        let stats = g.degree_stats();
        assert_eq!(stats.max_degree, 4);
        // 5 vertices, total degree 8.
        assert!((stats.average_degree - 1.6).abs() < 1e-9);
        assert_eq!(stats.per_type.len(), 1);
    }

    #[test]
    fn other_endpoint_and_touches() {
        let e = EdgeData {
            id: EdgeId(0),
            src: VertexId(1),
            dst: VertexId(2),
            edge_type: EdgeType(0),
            timestamp: Timestamp(0),
        };
        assert_eq!(e.other_endpoint(VertexId(1)), Some(VertexId(2)));
        assert_eq!(e.other_endpoint(VertexId(2)), Some(VertexId(1)));
        assert_eq!(e.other_endpoint(VertexId(3)), None);
        assert!(e.touches(VertexId(1)));
        assert!(!e.touches(VertexId(3)));
    }

    #[test]
    fn total_edges_seen_counts_expired_edges() {
        let (s, ip, tcp, _) = schema();
        let mut g = DynamicGraph::with_window(s, 1);
        let a = g.add_vertex(ip);
        let b = g.add_vertex(ip);
        g.add_edge(a, b, tcp, Timestamp(1));
        g.add_edge(a, b, tcp, Timestamp(100));
        g.expire();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.total_edges_seen(), 2);
    }
}
