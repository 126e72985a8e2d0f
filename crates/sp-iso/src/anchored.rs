//! Anchored (local) subgraph isomorphism.
//!
//! These routines implement the `SUBGRAPH-ISO(Gd, gqsub, es)` primitive used
//! on every incoming edge by Algorithms 1 and 3: find every embedding of a
//! small query subgraph that contains the new data edge (or, for the lazy
//! retroactive search of Section 4, that touches a given data vertex). The
//! search never looks further than the neighborhood of already-bound
//! vertices, so its cost is bounded by `O(d̄^(k-1))` for a `k`-edge subgraph,
//! as analysed in Appendix A.

use crate::match_map::SubgraphMatch;
use sp_graph::{DynamicGraph, EdgeData, EdgeType, TypeSignature, VertexId};
use sp_query::{QueryEdgeId, QueryGraph, QuerySubgraph};

/// The edge types a match of one subgraph needs around each data vertex it
/// binds: for every query vertex, the `(out, in)` type masks of its incident
/// subgraph edges, as a [`TypeSignature`]. A data vertex whose sticky
/// signature ([`DynamicGraph::type_signature`]) does not cover a query
/// vertex's needs lacks some edge that vertex's match must bind, so the
/// anchored searches can be refused in O(1) — before any binding — whenever
/// no way of anchoring them passes this test. A refused search is one that
/// provably finds nothing; an admitted one may still find nothing.
#[derive(Debug, Clone)]
pub struct TypeNeeds {
    /// Per edge of the subgraph: its type and the needs of its source and
    /// target. Every subgraph vertex is an endpoint of a subgraph edge, so
    /// these are also the needs of every vertex.
    edges: Vec<(EdgeType, TypeSignature, TypeSignature)>,
}

impl TypeNeeds {
    /// Derives the needs of `subgraph` (a subgraph of `query`).
    pub fn of(query: &QueryGraph, subgraph: &QuerySubgraph) -> Self {
        let need = |qv| {
            let mut need = TypeSignature::default();
            for qe in subgraph.edges() {
                let e = query.edge(qe);
                let bit = TypeSignature::bit(e.edge_type);
                if e.src == qv {
                    need.out_types |= bit;
                }
                if e.dst == qv {
                    need.in_types |= bit;
                }
            }
            need
        };
        Self {
            edges: subgraph
                .edges()
                .map(|qe| {
                    let e = query.edge(qe);
                    (e.edge_type, need(e.src), need(e.dst))
                })
                .collect(),
        }
    }

    /// Whether [`find_matches_containing_edge_with`] may find a match for
    /// `data_edge`: some subgraph edge of its type has both endpoint needs
    /// covered by the data edge's endpoints. `false` proves it finds none.
    pub fn admits_edge(&self, graph: &DynamicGraph, data_edge: &EdgeData) -> bool {
        let src = graph.type_signature(data_edge.src);
        let dst = graph.type_signature(data_edge.dst);
        self.edges
            .iter()
            .any(|&(t, s, d)| t == data_edge.edge_type && src.covers(s) && dst.covers(d))
    }

    /// Whether [`find_matches_around_vertex_with`] may find a match around
    /// `data_vertex`: some subgraph vertex's needs are covered by its
    /// signature. `false` proves it finds none.
    pub fn admits_vertex(&self, graph: &DynamicGraph, data_vertex: VertexId) -> bool {
        let sig = graph.type_signature(data_vertex);
        self.edges
            .iter()
            .any(|&(_, s, d)| sig.covers(s) || sig.covers(d))
    }
}

/// Returns `true` when `data_edge` can be bound to query edge `qe`:
/// edge types are equal and both endpoint vertex types are acceptable.
pub fn edge_compatible(
    graph: &DynamicGraph,
    query: &QueryGraph,
    qe: QueryEdgeId,
    data_edge: &EdgeData,
) -> bool {
    let q = query.edge(qe);
    if q.edge_type != data_edge.edge_type {
        return false;
    }
    let src_ok = match graph.vertex_type(data_edge.src) {
        Some(t) => query.vertex(q.src).vertex_type.accepts(t),
        None => false,
    };
    let dst_ok = match graph.vertex_type(data_edge.dst) {
        Some(t) => query.vertex(q.dst).vertex_type.accepts(t),
        None => false,
    };
    src_ok && dst_ok
}

/// Reusable per-search state, owned by a long-lived pipeline stage (a query
/// engine, the shared-join stage) rather than the
/// call: the steady-state per-edge path runs thousands of anchored searches
/// per second, and building a fresh 288-byte working match per search was
/// pure copying.
///
/// The scratch holds the one [`SubgraphMatch`] an anchored search works on.
/// The searches borrow it in place and extend it **with undo** (bind →
/// recurse → unbind + time-span restore), so no partial match is ever
/// cloned; a completed match is *visited* right there
/// ([`find_matches_containing_edge_with`]) — the pipeline encodes it into a
/// fixed-width row at that point and never copies the binding itself. Only
/// the collecting adapters clone, once per completed match, into a vector.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    /// The working match, mutated in place during extension and reset at
    /// the start of every seed.
    work: SubgraphMatch,
}

impl SearchScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Finds every match of `subgraph` (a connected subgraph of `query`) in the
/// data graph that uses `data_edge` for one of its query edges.
///
/// This is the per-edge search performed by the engine: a new streaming edge
/// can only create matches that contain it, so anchoring the search on the
/// new edge is both correct and cheap.
///
/// Convenience wrapper over
/// [`find_matches_containing_edge_into`] that allocates a fresh scratch and
/// result vector; hot-path callers hold a [`SearchScratch`] and call the
/// `_with` variant instead.
pub fn find_matches_containing_edge(
    graph: &DynamicGraph,
    query: &QueryGraph,
    subgraph: &QuerySubgraph,
    data_edge: &EdgeData,
) -> Vec<SubgraphMatch> {
    let mut scratch = SearchScratch::new();
    let mut results = Vec::new();
    find_matches_containing_edge_into(
        graph,
        query,
        subgraph,
        data_edge,
        &mut scratch,
        &mut results,
    );
    results
}

/// Collecting adapter over [`find_matches_containing_edge_with`]: clones
/// every match into `results`. `results` is not cleared — callers own its
/// lifecycle (and its capacity).
pub fn find_matches_containing_edge_into(
    graph: &DynamicGraph,
    query: &QueryGraph,
    subgraph: &QuerySubgraph,
    data_edge: &EdgeData,
    scratch: &mut SearchScratch,
    results: &mut Vec<SubgraphMatch>,
) {
    let collect = |m: &SubgraphMatch| results.push(m.clone());
    find_matches_containing_edge_with(graph, query, subgraph, data_edge, scratch, collect);
}

/// The visiting form of [`find_matches_containing_edge`]: `visit` is called
/// once per match, with the scratch's working match in its completed state.
/// Nothing is cloned and nothing is allocated; a visitor that needs the match
/// past the call copies out what it needs (the pipeline writes a row).
pub fn find_matches_containing_edge_with(
    graph: &DynamicGraph,
    query: &QueryGraph,
    subgraph: &QuerySubgraph,
    data_edge: &EdgeData,
    scratch: &mut SearchScratch,
    mut visit: impl FnMut(&SubgraphMatch),
) {
    let m = &mut scratch.work;
    for qe in subgraph.edges() {
        if !edge_compatible(graph, query, qe, data_edge) {
            continue;
        }
        let q = query.edge(qe);
        m.clear();
        if !m.bind_vertex(q.src, data_edge.src) {
            continue;
        }
        if !m.bind_vertex(q.dst, data_edge.dst) {
            continue;
        }
        if !m.bind_edge(qe, data_edge.id, data_edge.timestamp) {
            continue;
        }
        extend(graph, query, subgraph, m, &mut visit);
    }
}

/// Finds every match of `subgraph` in which `data_vertex` is bound to one of
/// the subgraph's query vertices. Used by the Lazy Search retroactive probe:
/// when search for a leaf is first enabled on a vertex, the engine looks for
/// matches of that leaf that *already* exist around the vertex, which makes
/// the algorithm robust to the arrival order of the query's components
/// (Section 4, "Robustness with subgraph arrival order").
///
/// Convenience wrapper that collects into a fresh vector; the engine holds a
/// [`SearchScratch`] and calls [`find_matches_around_vertex_with`].
pub fn find_matches_around_vertex(
    graph: &DynamicGraph,
    query: &QueryGraph,
    subgraph: &QuerySubgraph,
    data_vertex: VertexId,
) -> Vec<SubgraphMatch> {
    let mut results = Vec::new();
    find_matches_around_vertex_with(
        graph,
        query,
        subgraph,
        data_vertex,
        &mut SearchScratch::new(),
        |m| results.push(m.clone()),
    );
    results
}

/// The visiting form of [`find_matches_around_vertex`]; see
/// [`find_matches_containing_edge_with`].
pub fn find_matches_around_vertex_with(
    graph: &DynamicGraph,
    query: &QueryGraph,
    subgraph: &QuerySubgraph,
    data_vertex: VertexId,
    scratch: &mut SearchScratch,
    mut visit: impl FnMut(&SubgraphMatch),
) {
    let Some(vt) = graph.vertex_type(data_vertex) else {
        return;
    };
    let m = &mut scratch.work;
    for qv in subgraph.vertices() {
        if !query.vertex(qv).vertex_type.accepts(vt) {
            continue;
        }
        m.clear();
        if !m.bind_vertex(qv, data_vertex) {
            continue;
        }
        extend(graph, query, subgraph, m, &mut visit);
    }
}

/// Backtracking extension: repeatedly picks an unmatched query edge with at
/// least one bound endpoint and enumerates the data edges that can be bound
/// to it from the neighborhood of the bound endpoint.
///
/// The working match is extended speculatively in place: every candidate
/// bind is undone (unbind + time-span restore) after the recursive call, so
/// no partial match is ever cloned, and a completed one is handed to
/// `visit` where it stands.
fn extend(
    graph: &DynamicGraph,
    query: &QueryGraph,
    subgraph: &QuerySubgraph,
    m: &mut SubgraphMatch,
    visit: &mut impl FnMut(&SubgraphMatch),
) {
    // Complete when every subgraph edge is bound.
    if m.num_edges() == subgraph.num_edges() {
        visit(m);
        return;
    }

    // Pick the next query edge to bind: prefer one whose endpoints are both
    // bound (cheapest check), then one with a single bound endpoint.
    let mut best: Option<(QueryEdgeId, usize)> = None;
    for qe in subgraph.edges() {
        if m.data_edge(qe).is_some() {
            continue;
        }
        let q = query.edge(qe);
        let bound = usize::from(m.data_vertex(q.src).is_some())
            + usize::from(m.data_vertex(q.dst).is_some());
        match best {
            Some((_, b)) if b >= bound => {}
            _ => best = Some((qe, bound)),
        }
        if bound == 2 {
            break;
        }
    }
    let Some((qe, bound)) = best else {
        return;
    };
    let q = query.edge(qe);

    match bound {
        2 => {
            let src = m.data_vertex(q.src).expect("bound");
            let dst = m.data_vertex(q.dst).expect("bound");
            for e in graph.edges_between(src, dst) {
                if e.edge_type != q.edge_type || m.uses_data_edge(e.id) {
                    continue;
                }
                let span = m.time_span();
                if m.bind_edge(qe, e.id, e.timestamp) {
                    extend(graph, query, subgraph, m, visit);
                    m.unbind_edge(qe);
                }
                m.restore_time_span(span);
            }
        }
        1 => {
            // Exactly one endpoint bound: walk that endpoint's incident edges
            // in the matching direction, straight off the adjacency iterator
            // (no candidate buffer — the graph is only ever borrowed
            // immutably here).
            let (bound_qv, free_qv, outgoing) = if m.data_vertex(q.src).is_some() {
                (q.src, q.dst, true)
            } else {
                (q.dst, q.src, false)
            };
            let anchor = m.data_vertex(bound_qv).expect("bound");
            if outgoing {
                for e in graph.out_edges(anchor) {
                    try_one_bound(graph, query, subgraph, m, visit, qe, free_qv, e, true);
                }
            } else {
                for e in graph.in_edges(anchor) {
                    try_one_bound(graph, query, subgraph, m, visit, qe, free_qv, e, false);
                }
            }
        }
        _ => {
            // No bound endpoint (disconnected subgraph or vertex-seeded search
            // where the seed vertex has no incident subgraph edge left): fall
            // back to scanning all live edges of the right type. Correct but
            // only used off the hot path.
            for e in graph.edges() {
                if e.edge_type != q.edge_type || m.uses_data_edge(e.id) {
                    continue;
                }
                if !edge_compatible(graph, query, qe, e) {
                    continue;
                }
                let span = m.time_span();
                // Both endpoints may name the same query vertex (a self-loop
                // edge): track which binds actually inserted, so the undo
                // removes exactly what this candidate added.
                if let Some(src_new) = m.bind_vertex_tracked(q.src, e.src) {
                    if let Some(dst_new) = m.bind_vertex_tracked(q.dst, e.dst) {
                        if m.bind_edge(qe, e.id, e.timestamp) {
                            extend(graph, query, subgraph, m, visit);
                            m.unbind_edge(qe);
                        }
                        if dst_new {
                            m.unbind_vertex(q.dst);
                        }
                    }
                    if src_new {
                        m.unbind_vertex(q.src);
                    }
                }
                m.restore_time_span(span);
            }
        }
    }
}

/// One candidate of the single-bound-endpoint arm of [`extend`]: type- and
/// injectivity-check the edge, bind the free endpoint and the edge, recurse,
/// undo.
#[allow(clippy::too_many_arguments)]
fn try_one_bound(
    graph: &DynamicGraph,
    query: &QueryGraph,
    subgraph: &QuerySubgraph,
    m: &mut SubgraphMatch,
    visit: &mut impl FnMut(&SubgraphMatch),
    qe: QueryEdgeId,
    free_qv: sp_query::QueryVertexId,
    e: &EdgeData,
    outgoing: bool,
) {
    let q = query.edge(qe);
    if e.edge_type != q.edge_type || m.uses_data_edge(e.id) {
        return;
    }
    let free_data = if outgoing { e.dst } else { e.src };
    let Some(ft) = graph.vertex_type(free_data) else {
        return;
    };
    if !query.vertex(free_qv).vertex_type.accepts(ft) {
        return;
    }
    let span = m.time_span();
    // `free_qv` is the unbound endpoint of `qe`, so a successful bind always
    // inserts (and is undone unconditionally below).
    if m.bind_vertex(free_qv, free_data) {
        if m.bind_edge(qe, e.id, e.timestamp) {
            extend(graph, query, subgraph, m, visit);
            m.unbind_edge(qe);
        }
        m.unbind_vertex(free_qv);
    }
    m.restore_time_span(span);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{Schema, Timestamp, VertexType};
    use sp_query::{QuerySubgraph, QueryVertexId};

    /// Builds a small data graph:
    ///   a -tcp-> b -udp-> c
    ///   a -tcp-> c
    ///   d -udp-> c
    fn fixture() -> (DynamicGraph, Vec<VertexId>) {
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let udp = schema.intern_edge_type("udp");
        let mut g = DynamicGraph::new(schema);
        let a = g.add_vertex(ip);
        let b = g.add_vertex(ip);
        let c = g.add_vertex(ip);
        let d = g.add_vertex(ip);
        g.add_edge(a, b, tcp, Timestamp(1));
        g.add_edge(b, c, udp, Timestamp(2));
        g.add_edge(a, c, tcp, Timestamp(3));
        g.add_edge(d, c, udp, Timestamp(4));
        (g, vec![a, b, c, d])
    }

    fn tcp_udp_path_query(schema: &Schema) -> QueryGraph {
        // u0 -tcp-> u1 -udp-> u2
        let tcp = schema.edge_type("tcp").unwrap();
        let udp = schema.edge_type("udp").unwrap();
        let mut q = QueryGraph::new("tcp-udp");
        let u0 = q.add_any_vertex();
        let u1 = q.add_any_vertex();
        let u2 = q.add_any_vertex();
        q.add_edge(u0, u1, tcp);
        q.add_edge(u1, u2, udp);
        q
    }

    #[test]
    fn single_edge_match_containing_edge() {
        let (g, v) = fixture();
        let q = tcp_udp_path_query(g.schema());
        let single = QuerySubgraph::from_edges(&q, [QueryEdgeId(0)]);
        let e = *g.edges_between(v[0], v[1]).next().unwrap();
        let matches = find_matches_containing_edge(&g, &q, &single, &e);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].data_vertex(QueryVertexId(0)), Some(v[0]));
        assert_eq!(matches[0].data_vertex(QueryVertexId(1)), Some(v[1]));
    }

    #[test]
    fn wrong_edge_type_does_not_match() {
        let (g, v) = fixture();
        let q = tcp_udp_path_query(g.schema());
        let single = QuerySubgraph::from_edges(&q, [QueryEdgeId(0)]); // tcp
        let udp_edge = *g.edges_between(v[1], v[2]).next().unwrap();
        let matches = find_matches_containing_edge(&g, &q, &single, &udp_edge);
        assert!(matches.is_empty());
    }

    #[test]
    fn two_edge_path_match_containing_edge() {
        let (g, v) = fixture();
        let q = tcp_udp_path_query(g.schema());
        let whole = QuerySubgraph::from_edges(&q, q.edge_ids());
        // Anchoring on a-tcp->b should discover the full a->b->c path.
        let e = *g.edges_between(v[0], v[1]).next().unwrap();
        let matches = find_matches_containing_edge(&g, &q, &whole, &e);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].data_vertex(QueryVertexId(2)), Some(v[2]));
        assert_eq!(matches[0].num_edges(), 2);
        assert_eq!(matches[0].duration(), 1);
    }

    #[test]
    fn anchoring_on_shared_edge_finds_all_extensions() {
        let (g, v) = fixture();
        // Query: u0 -udp-> u1, i.e. any single udp edge.
        let udp = g.schema().edge_type("udp").unwrap();
        let mut q = QueryGraph::new("udp");
        let u0 = q.add_any_vertex();
        let u1 = q.add_any_vertex();
        q.add_edge(u0, u1, udp);
        let sub = QuerySubgraph::from_edges(&q, q.edge_ids());
        let e = *g.edges_between(v[3], v[2]).next().unwrap();
        let matches = find_matches_containing_edge(&g, &q, &sub, &e);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn vertex_anchored_search_finds_preexisting_matches() {
        let (g, v) = fixture();
        let q = tcp_udp_path_query(g.schema());
        let whole = QuerySubgraph::from_edges(&q, q.edge_ids());
        // Around vertex b there is exactly one tcp->udp path (a->b->c).
        let matches = find_matches_around_vertex(&g, &q, &whole, v[1]);
        assert_eq!(matches.len(), 1);
        // Around vertex c, vertex c can play u1 (needs outgoing udp: none) or
        // u2 (two incoming udp edges, each with a tcp into their source?):
        //   b has incoming tcp from a -> match a->b->c
        //   d has no incoming tcp -> no match
        let matches_c = find_matches_around_vertex(&g, &q, &whole, v[2]);
        assert_eq!(matches_c.len(), 1);
    }

    #[test]
    fn vertex_type_constraints_are_enforced() {
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let person = schema.intern_vertex_type("person");
        let knows = schema.intern_edge_type("knows");
        let mut g = DynamicGraph::new(schema);
        let p1 = g.add_vertex(person);
        let p2 = g.add_vertex(person);
        let host = g.add_vertex(ip);
        g.add_edge(p1, p2, knows, Timestamp(1));
        g.add_edge(p1, host, knows, Timestamp(2));

        // Query requires person -knows-> person.
        let mut q = QueryGraph::new("typed");
        let a = q.add_vertex(person);
        let b = q.add_vertex(person);
        q.add_edge(a, b, knows);
        let sub = QuerySubgraph::from_edges(&q, q.edge_ids());

        let e_ok = *g.edges_between(p1, p2).next().unwrap();
        let e_bad = *g.edges_between(p1, host).next().unwrap();
        assert_eq!(find_matches_containing_edge(&g, &q, &sub, &e_ok).len(), 1);
        assert!(find_matches_containing_edge(&g, &q, &sub, &e_bad).is_empty());
    }

    #[test]
    fn injectivity_prevents_vertex_reuse() {
        // Query: u0 -t-> u1 -t-> u2 (distinct vertices); data has a 2-cycle
        // a -t-> b -t-> a. The path a->b->a would need u0 and u2 both bound
        // to a, which isomorphism forbids.
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t = schema.intern_edge_type("t");
        let mut g = DynamicGraph::new(schema);
        let a = g.add_vertex(vt);
        let b = g.add_vertex(vt);
        g.add_edge(a, b, t, Timestamp(1));
        g.add_edge(b, a, t, Timestamp(2));

        let mut q = QueryGraph::new("path2");
        let u0 = q.add_any_vertex();
        let u1 = q.add_any_vertex();
        let u2 = q.add_any_vertex();
        q.add_edge(u0, u1, t);
        q.add_edge(u1, u2, t);
        let sub = QuerySubgraph::from_edges(&q, q.edge_ids());

        let e = *g.edges_between(a, b).next().unwrap();
        let matches = find_matches_containing_edge(&g, &q, &sub, &e);
        assert!(
            matches.is_empty(),
            "a->b->a must be rejected, got {matches:?}"
        );
    }

    #[test]
    fn multi_edges_produce_distinct_matches() {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t = schema.intern_edge_type("t");
        let u = schema.intern_edge_type("u");
        let mut g = DynamicGraph::new(schema);
        let a = g.add_vertex(vt);
        let b = g.add_vertex(vt);
        let c = g.add_vertex(vt);
        g.add_edge(a, b, t, Timestamp(1));
        g.add_edge(b, c, u, Timestamp(2));
        g.add_edge(b, c, u, Timestamp(3)); // parallel edge

        let mut q = QueryGraph::new("t-u");
        let u0 = q.add_any_vertex();
        let u1 = q.add_any_vertex();
        let u2 = q.add_any_vertex();
        q.add_edge(u0, u1, t);
        q.add_edge(u1, u2, u);
        let sub = QuerySubgraph::from_edges(&q, q.edge_ids());

        let e = *g.edges_between(a, b).next().unwrap();
        let matches = find_matches_containing_edge(&g, &q, &sub, &e);
        assert_eq!(matches.len(), 2, "each parallel edge yields its own match");
    }

    #[test]
    fn self_anchor_on_missing_vertex_returns_nothing() {
        let (g, _) = fixture();
        let q = tcp_udp_path_query(g.schema());
        let whole = QuerySubgraph::from_edges(&q, q.edge_ids());
        let matches = find_matches_around_vertex(&g, &q, &whole, VertexId(999));
        assert!(matches.is_empty());
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_across_searches() {
        // One scratch threaded through every search of the fixture must
        // yield exactly what per-call fresh scratches yield — no state may
        // leak between seeds or searches.
        let (g, v) = fixture();
        let q = tcp_udp_path_query(g.schema());
        let whole = QuerySubgraph::from_edges(&q, q.edge_ids());
        let single = QuerySubgraph::from_edges(&q, [QueryEdgeId(0)]);

        let mut scratch = SearchScratch::new();
        let mut reused: Vec<SubgraphMatch> = Vec::new();
        let mut fresh: Vec<SubgraphMatch> = Vec::new();
        for e in g.edges() {
            find_matches_containing_edge_into(&g, &q, &whole, e, &mut scratch, &mut reused);
            find_matches_containing_edge_into(&g, &q, &single, e, &mut scratch, &mut reused);
            fresh.extend(find_matches_containing_edge(&g, &q, &whole, e));
            fresh.extend(find_matches_containing_edge(&g, &q, &single, e));
        }
        for &vx in &v {
            find_matches_around_vertex_with(&g, &q, &whole, vx, &mut scratch, |m| {
                reused.push(m.clone())
            });
            fresh.extend(find_matches_around_vertex(&g, &q, &whole, vx));
        }
        assert!(!fresh.is_empty());
        assert_eq!(reused, fresh);
        // A warm scratch and a cold one agree.
        let (mut warm, mut cold) = (Vec::new(), Vec::new());
        let e = *g.edges_between(v[0], v[1]).next().unwrap();
        find_matches_containing_edge_into(&g, &q, &whole, &e, &mut scratch, &mut warm);
        let mut fresh_scratch = SearchScratch::new();
        find_matches_containing_edge_into(&g, &q, &whole, &e, &mut fresh_scratch, &mut cold);
        assert_eq!(warm, cold);
        assert_eq!(warm, find_matches_containing_edge(&g, &q, &whole, &e));
    }

    /// Refusal is sound: over seeded graphs and connected leaves of one to
    /// three edges — in and out wedges, paths, self-loops, repeated types,
    /// and types 64 apart that share a signature bit — a search
    /// [`TypeNeeds`] refuses finds nothing, anchored at an edge or at a
    /// vertex (live or gone).
    #[test]
    fn refused_searches_find_nothing() {
        const TYPES: [u32; 4] = [0, 1, 64, 65];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = move |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let (mut refused_edges, mut refused_vertices, mut found) = (0, 0, 0);
        for case in 0..200 {
            let mut schema = Schema::new();
            let vt = schema.intern_vertex_type("v");
            let mut g = DynamicGraph::new(schema);
            let vs: Vec<_> = (0..8).map(|_| g.add_vertex(vt)).collect();
            let ids: Vec<_> = (0..20)
                .map(|ts| {
                    let (s, d) = (vs[draw(8)], vs[draw(8)]);
                    g.add_edge(s, d, EdgeType(TYPES[draw(4)]), Timestamp(ts))
                })
                .collect();
            // A removed edge leaves its bits set, and a vertex it isolates
            // goes: signatures over-approximate what is live.
            for _ in 0..4 {
                let _ = g.remove_edge(ids[draw(ids.len())]);
            }

            let mut q = QueryGraph::new("leaf");
            let mut qvs = vec![q.add_any_vertex()];
            for _ in 0..=draw(3) {
                let from = qvs[draw(qvs.len())];
                let to = match draw(3) {
                    0 => from,
                    1 => qvs[draw(qvs.len())],
                    _ => {
                        qvs.push(q.add_any_vertex());
                        qvs[qvs.len() - 1]
                    }
                };
                let (src, dst) = if draw(2) == 0 { (from, to) } else { (to, from) };
                q.add_edge(src, dst, EdgeType(TYPES[draw(4)]));
            }
            let leaf = QuerySubgraph::from_edges(&q, q.edge_ids());
            let needs = TypeNeeds::of(&q, &leaf);

            for e in g.edges() {
                let matches = find_matches_containing_edge(&g, &q, &leaf, e);
                found += matches.len();
                if !needs.admits_edge(&g, e) {
                    assert!(matches.is_empty(), "case {case}: refused {e:?} matches");
                    refused_edges += 1;
                }
            }
            for &v in &vs {
                let matches = find_matches_around_vertex(&g, &q, &leaf, v);
                found += matches.len();
                if !needs.admits_vertex(&g, v) {
                    assert!(matches.is_empty(), "case {case}: refused {v:?} matches");
                    refused_vertices += 1;
                }
            }
        }
        assert!(
            refused_edges > 0 && refused_vertices > 0 && found > 0,
            "refused {refused_edges} edge / {refused_vertices} vertex searches, found {found}"
        );
    }

    #[test]
    fn wildcard_vertex_type_in_query_accepts_any_data_type() {
        let (g, v) = fixture();
        let tcp = g.schema().edge_type("tcp").unwrap();
        let mut q = QueryGraph::new("wild");
        let a = q.add_vertex(VertexType::ANY);
        let b = q.add_vertex(VertexType::ANY);
        q.add_edge(a, b, tcp);
        let sub = QuerySubgraph::from_edges(&q, q.edge_ids());
        let e = *g.edges_between(v[0], v[2]).next().unwrap();
        assert_eq!(find_matches_containing_edge(&g, &q, &sub, &e).len(), 1);
    }
}
