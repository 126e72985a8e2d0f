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
//! * looking an edge up by id and expiring the edges that fall out of the
//!   time window must be cheap: ids are stream positions, so the live edges
//!   sit in a ring indexed by id ([`EdgeRing`]) that is also the expiry
//!   order, and a vertex with at most two edges per direction keeps its
//!   adjacency inline, so a short-lived vertex costs no heap allocation to
//!   create or to drop. Expiry reports only how many edges went: the
//!   engine's partial-match stores expire by their own windows, which the
//!   graph's retention covers;
//! * a search that cannot match must be cheap to rule out: every vertex
//!   keeps a [`TypeSignature`] of the edge types it has had, by direction,
//!   which insertion sets and nothing clears while the vertex lives.

use crate::error::GraphError;
use crate::event::EdgeEvent;
use crate::hash::FastMap;
use crate::ids::{Direction, EdgeId, EdgeType, Timestamp, VertexId, VertexType};
use crate::schema::Schema;
use crate::window::EdgeRing;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
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

/// Edge ids one direction of a vertex keeps without a heap allocation.
const INLINE_EDGES: usize = 2;

/// Filler of an unused inline slot, and the id of a removed edge's ring slot.
/// Edge ids are stream positions assigned by the graph and never reach it.
pub(crate) const NO_EDGE: EdgeId = EdgeId(u64::MAX);

/// The edge ids of one direction of a vertex's adjacency, in `Vec` order:
/// appended at the back, removed by `swap_remove`. Up to [`INLINE_EDGES`]
/// ids live inline (filled slots first, [`NO_EDGE`] behind them); the
/// next one moves the list to the heap, where it stays until the vertex
/// goes. Either way the list is the size of a bare `Vec`.
#[derive(Debug, Clone)]
enum EdgeList {
    Inline([EdgeId; INLINE_EDGES]),
    Spilled(Vec<EdgeId>),
}

impl Default for EdgeList {
    fn default() -> Self {
        EdgeList::Inline([NO_EDGE; INLINE_EDGES])
    }
}

impl EdgeList {
    fn as_slice(&self) -> &[EdgeId] {
        match self {
            EdgeList::Inline(ids) => {
                let len = ids.iter().take_while(|&&e| e != NO_EDGE).count();
                &ids[..len]
            }
            EdgeList::Spilled(ids) => ids,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn push(&mut self, id: EdgeId) {
        match self {
            EdgeList::Inline(ids) => match ids.iter().position(|&e| e == NO_EDGE) {
                Some(free) => ids[free] = id,
                None => {
                    let mut spilled = Vec::with_capacity(2 * INLINE_EDGES);
                    spilled.extend_from_slice(ids);
                    spilled.push(id);
                    *self = EdgeList::Spilled(spilled);
                }
            },
            EdgeList::Spilled(ids) => ids.push(id),
        }
    }

    /// Removes `id` if present, moving the last id into its place.
    fn swap_remove(&mut self, id: EdgeId) {
        let ids = self.as_slice();
        let Some(pos) = ids.iter().position(|&e| e == id) else {
            return;
        };
        let last = ids.len() - 1;
        match self {
            EdgeList::Inline(ids) => {
                ids[pos] = ids[last];
                ids[last] = NO_EDGE;
            }
            EdgeList::Spilled(ids) => {
                ids.swap_remove(pos);
            }
        }
    }
}

/// A vertex's sticky type signature: bit `t % 64` of `out_types`
/// (`in_types`) is set by every edge of type `t` that leaves (enters) the
/// vertex, and no bit is cleared while the vertex lives; a re-created vertex
/// starts at zero. A **clear** bit therefore proves the vertex has no live
/// edge of that type in that direction, which lets an anchored search that
/// needs such an edge be refused without running. A set bit proves nothing:
/// the edge may have expired, or another type may share the bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeSignature {
    /// Types of the edges leaving the vertex, one bit per `type % 64`.
    pub out_types: u64,
    /// Types of the edges entering the vertex, likewise.
    pub in_types: u64,
}

impl TypeSignature {
    /// The mask bit of edge type `t`.
    pub fn bit(t: EdgeType) -> u64 {
        1 << (t.0 % 64)
    }

    /// Whether every bit of `need` is set here, direction by direction.
    pub fn covers(self, need: TypeSignature) -> bool {
        self.out_types & need.out_types == need.out_types
            && self.in_types & need.in_types == need.in_types
    }
}

/// Per-vertex adjacency record.
#[derive(Debug, Clone, Default)]
pub struct VertexData {
    /// Interned vertex type.
    pub vertex_type: VertexType,
    /// Every edge type the vertex has had since it was created, by
    /// direction. Set by [`DynamicGraph::add_edge`], left alone by expiry
    /// and removal.
    signature: TypeSignature,
    /// Ids of edges whose source is this vertex.
    out_edges: EdgeList,
    /// Ids of edges whose destination is this vertex.
    in_edges: EdgeList,
}

impl VertexData {
    /// Lists `edge` here, as its source or (`incoming`) its destination,
    /// and folds its type into the signature.
    fn link(&mut self, edge: EdgeData, incoming: bool) {
        let bit = TypeSignature::bit(edge.edge_type);
        if incoming {
            self.in_edges.push(edge.id);
            self.signature.in_types |= bit;
        } else {
            self.out_edges.push(edge.id);
            self.signature.out_types |= bit;
        }
    }

    /// The vertex's sticky type signature (see [`TypeSignature`]).
    pub fn type_signature(&self) -> TypeSignature {
        self.signature
    }

    /// Ids of the edges whose source is this vertex.
    pub fn out_edges(&self) -> &[EdgeId] {
        self.out_edges.as_slice()
    }

    /// Ids of the edges whose destination is this vertex.
    pub fn in_edges(&self) -> &[EdgeId] {
        self.in_edges.as_slice()
    }

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
    edges: EdgeRing,
    window: Option<u64>,
    next_vertex_id: u64,
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
            edges: EdgeRing::default(),
            window: None,
            next_vertex_id: 0,
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
        self.vertex_entry(id, vertex_type);
        id
    }

    /// Vertex `v`, created with `vertex_type` when absent, and whether it
    /// already has a type other than `vertex_type` (which it keeps).
    fn vertex_entry(&mut self, v: VertexId, vertex_type: VertexType) -> (&mut VertexData, bool) {
        match self.vertices.entry(v) {
            Entry::Occupied(slot) => {
                let data = slot.into_mut();
                let conflict = data.vertex_type != vertex_type && !vertex_type.is_any();
                (data, conflict)
            }
            Entry::Vacant(slot) => {
                self.next_vertex_id = self.next_vertex_id.max(v.0 + 1);
                let data = VertexData {
                    vertex_type,
                    ..VertexData::default()
                };
                (slot.insert(data), false)
            }
        }
    }

    /// Ensures a vertex with an externally chosen id exists, creating it with
    /// the given type when absent. Returns an error when the vertex exists
    /// with a different concrete type ([`VertexType::ANY`] conflicts with
    /// nothing). [`DynamicGraph::ingest`] applies the same rule to both
    /// endpoints of an event, in the same lookup that lists the edge.
    pub fn ensure_vertex(&mut self, id: VertexId, vertex_type: VertexType) -> Result<VertexId> {
        match self.vertex_entry(id, vertex_type) {
            (data, true) => Err(GraphError::VertexTypeConflict {
                vertex: id,
                existing: data.vertex_type.0,
                requested: vertex_type.0,
            }),
            (_, false) => Ok(id),
        }
    }

    /// Ingests one stream event under its external vertex ids: ensures both
    /// endpoints as [`DynamicGraph::ensure_vertex`] does, adds the edge as
    /// [`DynamicGraph::add_edge`] does, and returns the stored edge with the
    /// number of endpoints (0–2) whose event type conflicted with the type
    /// already recorded for the vertex. A conflicting endpoint keeps its
    /// recorded type; the edge is added either way. One map lookup per
    /// endpoint does the type check, the creation and the adjacency update.
    ///
    /// Types are not checked against the graph's [`Schema`]: an id the
    /// schema never interned is stored and matched like any other, and a
    /// vertex's [`TypeSignature`] folds it in at bit `t % 64`, so a signature
    /// refusal stays sound. This is by design — rejecting such types would
    /// put a schema lookup on the per-edge path and break every caller that
    /// builds on `Schema::new()` with raw ids.
    pub fn ingest(&mut self, event: &EdgeEvent) -> (EdgeData, u64) {
        let (src, dst) = (VertexId(event.src), VertexId(event.dst));
        let edge = self.push_edge(src, dst, event.edge_type, event.timestamp);
        let mut conflicts = 0;
        for (v, vertex_type, incoming) in
            [(src, event.src_type, false), (dst, event.dst_type, true)]
        {
            let (data, conflict) = self.vertex_entry(v, vertex_type);
            data.link(edge, incoming);
            conflicts += u64::from(conflict);
        }
        (edge, conflicts)
    }

    /// Inserts a new directed edge and returns its id. Both endpoints must
    /// already exist (see [`DynamicGraph::ensure_vertex`] /
    /// [`DynamicGraph::add_vertex`]).
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
        let edge = self.push_edge(src, dst, edge_type, timestamp);
        for (v, incoming) in [(src, false), (dst, true)] {
            let data = self.vertices.get_mut(&v).expect("endpoints must exist");
            data.link(edge, incoming);
        }
        edge.id
    }

    /// Stores the next edge of the stream, not yet listed at its endpoints:
    /// the `n`-th edge ever inserted gets id `n - 1`.
    fn push_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        edge_type: EdgeType,
        timestamp: Timestamp,
    ) -> EdgeData {
        let data = EdgeData {
            id: EdgeId(self.total_edges_seen),
            src,
            dst,
            edge_type,
            timestamp,
        };
        self.edges.push(data, timestamp < self.latest_ts);
        self.latest_ts = self.latest_ts.max(timestamp);
        self.total_edges_seen += 1;
        data
    }

    /// Slides the window forward to the newest edge seen so far, removing all
    /// edges older than `latest - window`, oldest first. Returns how many
    /// edges were removed.
    ///
    /// Vertices whose last incident edge is removed are also removed
    /// (mirroring `REMOVE-SUBGRAPH`'s "disconnected vertex" rule).
    pub fn expire(&mut self) -> usize {
        let Some(w) = self.window else {
            return 0;
        };
        let cutoff = Timestamp(self.latest_ts.0.saturating_sub(w));
        let mut removed = 0;
        while let Some(edge) = self.edges.pop_older_than(cutoff) {
            self.detach(&edge);
            removed += 1;
        }
        removed
    }

    /// Unlists a removed edge at its endpoints, dropping now isolated ones.
    fn detach(&mut self, data: &EdgeData) {
        for (vertex, incoming) in [(data.src, false), (data.dst, true)] {
            if let Entry::Occupied(mut slot) = self.vertices.entry(vertex) {
                let vd = slot.get_mut();
                if incoming {
                    vd.in_edges.swap_remove(data.id);
                } else {
                    vd.out_edges.swap_remove(data.id);
                }
                if vd.degree() == 0 {
                    slot.remove();
                }
            }
        }
    }

    /// Explicitly removes an edge (outside of window expiry).
    pub fn remove_edge(&mut self, edge_id: EdgeId) -> Result<EdgeData> {
        let data = self
            .edges
            .remove(edge_id)
            .ok_or(GraphError::UnknownEdge(edge_id))?;
        self.detach(&data);
        Ok(data)
    }

    /// Returns edge data by id, `None` if unknown or expired.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Option<&EdgeData> {
        self.edges.get(id)
    }

    /// Returns vertex data by id.
    pub fn vertex(&self, id: VertexId) -> Option<&VertexData> {
        self.vertices.get(&id)
    }

    /// Returns the type of a vertex.
    pub fn vertex_type(&self, id: VertexId) -> Option<VertexType> {
        self.vertices.get(&id).map(|v| v.vertex_type)
    }

    /// The sticky type signature of a vertex; all bits clear for an unknown
    /// vertex, which has no edge at all.
    pub fn type_signature(&self, id: VertexId) -> TypeSignature {
        self.vertices
            .get(&id)
            .map(VertexData::type_signature)
            .unwrap_or_default()
    }

    /// Returns `true` if the vertex is present.
    pub fn contains_vertex(&self, id: VertexId) -> bool {
        self.vertices.contains_key(&id)
    }

    /// Returns `true` if the edge is present (not expired).
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.get(id).is_some()
    }

    /// Number of live vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Total number of edges ever inserted (including expired ones): the
    /// stream position, and the id the next edge gets.
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

    /// Iterates over all live edges in id order, which is stream order.
    pub fn edges(&self) -> impl Iterator<Item = &EdgeData> + '_ {
        self.edges.iter()
    }

    /// Total degree of a vertex (0 for unknown vertices).
    pub fn degree(&self, v: VertexId) -> usize {
        self.vertices.get(&v).map(VertexData::degree).unwrap_or(0)
    }

    /// Out-degree of a vertex.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.vertices
            .get(&v)
            .map(|d| d.out_edges().len())
            .unwrap_or(0)
    }

    /// In-degree of a vertex.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.vertices
            .get(&v)
            .map(|d| d.in_edges().len())
            .unwrap_or(0)
    }

    /// Iterates over every edge incident to `v` (both directions), yielding
    /// the edge together with the opposite endpoint and the direction of the
    /// edge relative to `v`.
    pub fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = IncidentEdge> + '_ {
        let data = self.vertices.get(&v);
        let out = data.map(VertexData::out_edges).unwrap_or(&[]);
        let inc = data.map(VertexData::in_edges).unwrap_or(&[]);
        let out_iter = out.iter().filter_map(move |id| {
            self.edges.get(*id).map(|e| IncidentEdge {
                edge: e.id,
                neighbor: e.dst,
                direction: Direction::Outgoing,
                edge_type: e.edge_type,
                timestamp: e.timestamp,
            })
        });
        let in_iter = inc.iter().filter_map(move |id| {
            self.edges.get(*id).map(|e| IncidentEdge {
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
            .map(VertexData::out_edges)
            .unwrap_or(&[])
            .iter()
            .filter_map(move |&id| self.edges.get(id))
    }

    /// Iterates over the incoming edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = &EdgeData> + '_ {
        self.vertices
            .get(&v)
            .map(VertexData::in_edges)
            .unwrap_or(&[])
            .iter()
            .filter_map(move |&id| self.edges.get(id))
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
        let old = g.add_edge(a, b, tcp, Timestamp(1));
        let new = g.add_edge(b, c, tcp, Timestamp(20));
        assert_eq!(g.expire(), 1);
        assert!(!g.contains_edge(old));
        assert!(g.contains_edge(new));
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
        assert_eq!(g.expire(), 0);
        assert_eq!(g.num_edges(), 2);
        assert!(g.contains_vertex(a) && g.contains_vertex(b));
    }

    #[test]
    fn adjacency_keeps_vec_order_inline_and_spilled() {
        let (s, ip, tcp, _) = schema();
        let mut g = DynamicGraph::new(s);
        let (a, b, c) = (g.add_vertex(ip), g.add_vertex(ip), g.add_vertex(ip));
        let out = |g: &DynamicGraph, v| g.out_edges(v).map(|e| e.id).collect::<Vec<_>>();
        // A plain `Vec` with push / swap_remove is the reference at every
        // step: up to two edges (inline), four (spilled), back down to one
        // and up again.
        let mut reference = Vec::new();
        for t in 0..4 {
            reference.push(g.add_edge(a, b, tcp, Timestamp(t)));
            assert_eq!(out(&g, a), reference);
        }
        for pos in [1, 0, 1] {
            g.remove_edge(reference.swap_remove(pos)).unwrap();
            assert_eq!(out(&g, a), reference);
        }
        reference.push(g.add_edge(a, b, tcp, Timestamp(9)));
        assert_eq!(out(&g, a), reference);
        assert_eq!((g.degree(a), g.in_degree(b)), (2, 2));
        // An inline list: removing the first of two moves the second up.
        let first = g.add_edge(c, b, tcp, Timestamp(10));
        let second = g.add_edge(c, b, tcp, Timestamp(11));
        g.remove_edge(first).unwrap();
        assert_eq!(out(&g, c), vec![second]);
        assert_eq!(g.in_degree(b), 3);
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
    fn ingest_counts_type_conflicts_and_keeps_the_recorded_type() {
        let mut s = Schema::new();
        let ip = s.intern_vertex_type("ip");
        let person = s.intern_vertex_type("person");
        let tcp = s.intern_edge_type("tcp");
        let mut g = DynamicGraph::new(s);
        let event = |src, dst, dst_type| EdgeEvent {
            dst_type,
            ..EdgeEvent::homogeneous(src, dst, ip, tcp, Timestamp(src))
        };
        let (first, conflicts) = g.ingest(&event(1, 2, ip));
        assert_eq!(
            (first.id, first.src, first.dst, conflicts),
            (EdgeId(0), VertexId(1), VertexId(2), 0)
        );
        // Vertex 2 is an ip: a person event on it is counted, not applied,
        // and the edge is stored anyway.
        let (second, conflicts) = g.ingest(&event(3, 2, person));
        assert_eq!((second.id, conflicts), (EdgeId(1), 1));
        assert_eq!(g.edge(second.id), Some(&second));
        assert_eq!(g.vertex_type(VertexId(2)), Some(ip));
        assert_eq!(g.vertex_type(VertexId(3)), Some(ip));
        assert_eq!(g.total_edges_seen(), 2);
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
