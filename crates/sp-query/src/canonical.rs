//! Canonical forms for small query subgraphs (SJ-Tree leaves).
//!
//! With a registry of many concurrent queries, distinct queries routinely
//! decompose into *structurally identical* leaf subpatterns — the same typed
//! edge, the same wedge — that differ only in how the owning query numbers
//! its vertices and edges. [`LeafSignature`] is a canonical form under which
//! such leaves compare (and hash) equal: vertex numbering is normalized to
//! `0..n` by exhaustive search over vertex bijections (leaves are tiny — at
//! most [`MAX_CANONICAL_VERTICES`] vertices — so this is exact, not
//! heuristic), and vertex types, edge types and edge direction are all part
//! of the encoding.
//!
//! [`canonicalize_subgraph`] also returns the [`CanonicalMapping`] from the
//! canonical numbering back to the original query's ids, so a match found
//! against the canonical leaf can be *rebased* onto any subscriber's
//! numbering (a slot permutation of its row). This is the foundation
//! of shared-leaf evaluation: run one anchored search per distinct canonical
//! leaf per streaming edge, then fan the results out to every query that
//! subscribes to that leaf shape.

use crate::query::{QueryEdgeId, QueryGraph, QueryVertexId};
use crate::subgraph::QuerySubgraph;
use serde::{Deserialize, Serialize};
use sp_graph::{EdgeType, VertexType};

/// Largest leaf (in vertices) the exact canonicalization accepts. The
/// decomposition policies produce leaves of at most 3 vertices; the cap only
/// matters for hand-built trees, whose engines simply fall back to private
/// (unshared) leaf search.
pub const MAX_CANONICAL_VERTICES: usize = 7;

/// A canonical edge: `(source, destination, type)` in canonical vertex
/// numbering. Direction is preserved — `0 -t-> 1` and `1 -t-> 0` are
/// different leaves.
pub type CanonicalEdge = (u32, u32, EdgeType);

/// Canonical form of a small query subgraph: two leaves from different
/// queries produce equal signatures **iff** they are isomorphic as typed,
/// directed multigraphs (including vertex-type constraints).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LeafSignature {
    /// Vertex type of each canonical vertex, indexed `0..n`.
    vertex_types: Vec<VertexType>,
    /// Edges in canonical numbering, sorted lexicographically.
    edges: Vec<CanonicalEdge>,
}

/// The bijection from the canonical numbering back to one query's ids,
/// stored per subscriber so shared search results can be rebased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalMapping {
    /// `vertices[c]` is the original query vertex the canonical vertex `c`
    /// stands for.
    pub vertices: Vec<QueryVertexId>,
    /// `edges[c]` is the original query edge the canonical edge `c` (in the
    /// signature's sorted order) stands for.
    pub edges: Vec<QueryEdgeId>,
}

impl LeafSignature {
    /// Number of canonical vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_types.len()
    }

    /// The vertex-type constraint of canonical vertex `c`.
    pub fn vertex_type(&self, c: usize) -> VertexType {
        self.vertex_types[c]
    }

    /// The canonical edges, sorted lexicographically — the order the
    /// signature (and every [`CanonicalMapping::edges`]) numbers them in.
    pub fn canonical_edges(&self) -> &[CanonicalEdge] {
        &self.edges
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The distinct edge types occurring in the leaf, ascending. A streaming
    /// edge whose type is not in this set can never produce a match of the
    /// leaf, so the shared search can skip it outright.
    pub fn edge_types(&self) -> Vec<EdgeType> {
        let mut types: Vec<EdgeType> = self.edges.iter().map(|&(_, _, t)| t).collect();
        types.sort_unstable();
        types.dedup();
        types
    }

    /// Materializes the canonical leaf as a standalone query graph (plus the
    /// subgraph view covering all of it), suitable for the anchored matchers.
    /// Canonical vertex `c` becomes `QueryVertexId(c)` and the `i`-th
    /// canonical edge becomes `QueryEdgeId(i)`.
    pub fn instantiate(&self, name: &str) -> (QueryGraph, QuerySubgraph) {
        let mut q = QueryGraph::new(name);
        for &vt in &self.vertex_types {
            q.add_vertex(vt);
        }
        for &(src, dst, t) in &self.edges {
            q.add_edge(QueryVertexId(src as usize), QueryVertexId(dst as usize), t);
        }
        let sub = QuerySubgraph::from_edges(&q, q.edge_ids());
        (q, sub)
    }
}

/// Computes the canonical signature of a subgraph of `query` together with
/// the mapping from canonical ids back to the query's ids. Returns `None`
/// when the subgraph is empty or larger than [`MAX_CANONICAL_VERTICES`]
/// vertices (callers fall back to private, unshared search).
pub fn canonicalize_subgraph(
    query: &QueryGraph,
    subgraph: &QuerySubgraph,
) -> Option<(LeafSignature, CanonicalMapping)> {
    let verts: Vec<QueryVertexId> = subgraph.vertices().collect();
    let edge_ids: Vec<QueryEdgeId> = subgraph.edges().collect();
    let n = verts.len();
    if n == 0 || n > MAX_CANONICAL_VERTICES {
        return None;
    }

    // `perm[i]` is the canonical index assigned to `verts[i]`. Enumerate all
    // bijections and keep the lexicographically smallest encoding; strict
    // improvement makes the winning permutation deterministic.
    let mut best: Option<(Vec<VertexType>, Vec<CanonicalEdge>, Vec<usize>)> = None;
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        let mut vertex_types = vec![VertexType::ANY; n];
        for (i, &v) in verts.iter().enumerate() {
            vertex_types[perm[i]] = query.vertex(v).vertex_type;
        }
        let canon_of = |v: QueryVertexId| -> u32 {
            let i = verts
                .binary_search(&v)
                .expect("endpoint is in the subgraph");
            perm[i] as u32
        };
        let mut edges: Vec<CanonicalEdge> = edge_ids
            .iter()
            .map(|&e| {
                let edge = query.edge(e);
                (canon_of(edge.src), canon_of(edge.dst), edge.edge_type)
            })
            .collect();
        edges.sort_unstable();
        let better = match &best {
            None => true,
            Some((bt, be, _)) => (&vertex_types, &edges) < (bt, be),
        };
        if better {
            best = Some((vertex_types, edges, perm.clone()));
        }
        if !next_permutation(&mut perm) {
            break;
        }
    }

    let (vertex_types, edges, perm) = best.expect("at least one permutation");

    // Invert the winning permutation: canonical index -> original vertex.
    let mut vertices = vec![QueryVertexId(usize::MAX); n];
    for (i, &v) in verts.iter().enumerate() {
        vertices[perm[i]] = v;
    }

    // Assign each canonical edge an original edge id. Identical triples
    // (parallel query edges inside one leaf) are interchangeable for match
    // enumeration; assign them in ascending original-id order so the mapping
    // is deterministic.
    let canon_of = |v: QueryVertexId| -> u32 {
        let i = verts
            .binary_search(&v)
            .expect("endpoint is in the subgraph");
        perm[i] as u32
    };
    let mut pool: Vec<(CanonicalEdge, QueryEdgeId)> = edge_ids
        .iter()
        .map(|&e| {
            let edge = query.edge(e);
            ((canon_of(edge.src), canon_of(edge.dst), edge.edge_type), e)
        })
        .collect();
    pool.sort_unstable();
    let edge_map: Vec<QueryEdgeId> = pool.iter().map(|&(_, e)| e).collect();
    debug_assert!(pool
        .iter()
        .map(|&(triple, _)| triple)
        .eq(edges.iter().copied()));

    Some((
        LeafSignature {
            vertex_types,
            edges,
        },
        CanonicalMapping {
            vertices,
            edges: edge_map,
        },
    ))
}

/// In-place lexicographic next permutation; returns `false` after the last
/// one (leaving the slice sorted descending).
fn next_permutation(p: &mut [usize]) -> bool {
    if p.len() < 2 {
        return false;
    }
    let mut i = p.len() - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = p.len() - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::EdgeType;

    fn sig_of(query: &QueryGraph, edges: &[usize]) -> (LeafSignature, CanonicalMapping) {
        let sub = QuerySubgraph::from_edges(query, edges.iter().map(|&e| QueryEdgeId(e)));
        canonicalize_subgraph(query, &sub).expect("small leaf canonicalizes")
    }

    #[test]
    fn next_permutation_enumerates_all() {
        let mut p = vec![0, 1, 2];
        let mut count = 1;
        while next_permutation(&mut p) {
            count += 1;
        }
        assert_eq!(count, 6);
    }

    #[test]
    fn same_shape_different_numbering_is_equal() {
        // Query A: v0 -t-> v1 (edge 0). Query B has extra vertices first, so
        // its t-edge lives between v2 and v1.
        let t = EdgeType(7);
        let mut qa = QueryGraph::new("a");
        let a0 = qa.add_any_vertex();
        let a1 = qa.add_any_vertex();
        qa.add_edge(a0, a1, t);

        let mut qb = QueryGraph::new("b");
        let _pad = qb.add_any_vertex();
        let b1 = qb.add_any_vertex();
        let b2 = qb.add_any_vertex();
        qb.add_edge(b1, b2, EdgeType(9)); // unrelated edge 0
        qb.add_edge(b2, b1, t); // the shared-shape edge 1

        let (sa, _) = sig_of(&qa, &[0]);
        let (sb, mb) = sig_of(&qb, &[1]);
        assert_eq!(sa, sb);
        // The mapping points back into query B's numbering.
        assert_eq!(mb.vertices.len(), 2);
        assert_eq!(mb.edges, vec![QueryEdgeId(1)]);
        assert!(mb.vertices.contains(&b1) && mb.vertices.contains(&b2));
    }

    #[test]
    fn direction_distinguishes_wedges() {
        let t = EdgeType(1);
        // out-out wedge: b <- a -> c ... encoded as a->b, a->c.
        let mut q1 = QueryGraph::new("out-out");
        let a = q1.add_any_vertex();
        let b = q1.add_any_vertex();
        let c = q1.add_any_vertex();
        q1.add_edge(a, b, t);
        q1.add_edge(a, c, t);
        // in-in wedge: a -> b <- c.
        let mut q2 = QueryGraph::new("in-in");
        let a = q2.add_any_vertex();
        let b = q2.add_any_vertex();
        let c = q2.add_any_vertex();
        q2.add_edge(a, b, t);
        q2.add_edge(c, b, t);
        assert_ne!(sig_of(&q1, &[0, 1]).0, sig_of(&q2, &[0, 1]).0);
    }

    #[test]
    fn vertex_types_distinguish_leaves() {
        let t = EdgeType(1);
        let person = VertexType(3);
        let mut q1 = QueryGraph::new("typed");
        let a = q1.add_vertex(person);
        let b = q1.add_any_vertex();
        q1.add_edge(a, b, t);
        let mut q2 = QueryGraph::new("untyped");
        let a = q2.add_any_vertex();
        let b = q2.add_any_vertex();
        q2.add_edge(a, b, t);
        assert_ne!(sig_of(&q1, &[0]).0, sig_of(&q2, &[0]).0);
    }

    #[test]
    fn path_wedges_are_equal_regardless_of_edge_order() {
        // a -s-> b -t-> c  vs  x -t-> y built after z -s-> x ... the wedge
        // s-then-t through the middle vertex must canonicalize identically.
        let s = EdgeType(0);
        let t = EdgeType(1);
        let mut q1 = QueryGraph::new("st");
        let a = q1.add_any_vertex();
        let b = q1.add_any_vertex();
        let c = q1.add_any_vertex();
        q1.add_edge(a, b, s);
        q1.add_edge(b, c, t);
        let mut q2 = QueryGraph::new("ts");
        let x = q2.add_any_vertex();
        let y = q2.add_any_vertex();
        let z = q2.add_any_vertex();
        q2.add_edge(x, y, t); // edge 0: the t leg
        q2.add_edge(z, x, s); // edge 1: the s leg
        assert_eq!(sig_of(&q1, &[0, 1]).0, sig_of(&q2, &[0, 1]).0);
    }

    #[test]
    fn instantiate_roundtrips_the_shape() {
        let s = EdgeType(0);
        let t = EdgeType(1);
        let mut q = QueryGraph::new("st");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, s);
        q.add_edge(b, c, t);
        let (sig, _) = sig_of(&q, &[0, 1]);
        let (canon_q, canon_sub) = sig.instantiate("canon");
        assert_eq!(canon_q.num_vertices(), 3);
        assert_eq!(canon_q.num_edges(), 2);
        assert_eq!(canon_sub.num_edges(), 2);
        // Canonicalizing the instantiation reproduces the signature.
        let again = canonicalize_subgraph(&canon_q, &canon_sub).unwrap().0;
        assert_eq!(again, sig);
        assert_eq!(sig.edge_types(), vec![s, t]);
        assert_eq!(sig.num_vertices(), 3);
        assert_eq!(sig.num_edges(), 2);
    }

    #[test]
    fn parallel_edges_canonicalize_deterministically() {
        let t = EdgeType(2);
        let mut q = QueryGraph::new("parallel");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        q.add_edge(a, b, t);
        q.add_edge(a, b, t);
        let (sig, map) = sig_of(&q, &[0, 1]);
        assert_eq!(sig.num_edges(), 2);
        // Identical triples map to ascending original ids.
        assert_eq!(map.edges, vec![QueryEdgeId(0), QueryEdgeId(1)]);
    }

    #[test]
    fn oversized_and_empty_leaves_are_rejected() {
        let t = EdgeType(0);
        let mut q = QueryGraph::new("big");
        let vs: Vec<_> = (0..9).map(|_| q.add_any_vertex()).collect();
        for i in 0..8 {
            q.add_edge(vs[i], vs[i + 1], t);
        }
        let big = QuerySubgraph::from_edges(&q, q.edge_ids());
        assert!(canonicalize_subgraph(&q, &big).is_none());
        assert!(canonicalize_subgraph(&q, &QuerySubgraph::empty()).is_none());
    }
}
