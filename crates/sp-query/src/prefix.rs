//! Canonical forms for SJ-Tree *prefixes* — the shared-join analogue of the
//! per-leaf [`LeafSignature`](crate::LeafSignature).
//!
//! A left-deep SJ-Tree over leaves `l0..lk-1` contains, for every depth
//! `d ≥ 2`, an internal node covering leaves `0..d-1` — the *prefix* of the
//! decomposition. Two queries whose decompositions begin with structurally
//! identical leaf sequences, glued together the same way, perform identical
//! leaf searches **and identical join work** for that prefix on every
//! streaming edge. [`PrefixSignature`] is a canonical form under which such
//! prefixes compare (and hash) equal, so a registry can maintain **one**
//! refcounted partial-match table per distinct prefix and fan the join
//! results out to every subscriber.
//!
//! # Construction and invariants
//!
//! The signature is built incrementally, one leaf at a time, and never
//! canonicalizes the growing union graph as a whole (which would be
//! exponential in its size). Each [`ChainStep`] records:
//!
//! * the leaf's own exact canonical form ([`LeafSignature`], ≤
//!   [`MAX_CANONICAL_VERTICES`](crate::MAX_CANONICAL_VERTICES) vertices), and
//! * the *glue*: which of the leaf's canonical vertices coincide with
//!   already-assigned union-canonical vertices, as sorted
//!   `(leaf vertex, union vertex)` pairs. Leaf vertices absent from the glue
//!   are fresh and receive union ids in ascending leaf-canonical order, so
//!   the union numbering is a pure function of the step sequence.
//!
//! Invariants that make sharing sound:
//!
//! 1. **Equality ⇒ isomorphism**: two equal signatures instantiate the same
//!    canonical union graph with the same leaf partition, so the canonical
//!    SJ-Tree built over it performs exactly the join work either owner's
//!    prefix would, and every canonical match rebases onto each owner via
//!    its [`CanonicalMapping`] to the byte-identical match the owner's own
//!    prefix would have produced.
//! 2. **Determinism**: the per-leaf canonicalization and the fresh-vertex
//!    numbering are deterministic given the owner query, so re-registering
//!    the same query always yields the same signature. (Leaf automorphisms
//!    may make *different* queries with isomorphic prefixes canonicalize
//!    differently — that only costs sharing opportunity, never soundness.)
//! 3. **Prefix-closure**: truncating a signature to `d` steps yields exactly
//!    the signature of the depth-`d` prefix, so common prefixes of different
//!    queries are discovered by comparing leading steps
//!    ([`PrefixSignature::common_depth`]).

use crate::canonical::{canonicalize_subgraph, CanonicalMapping};
use crate::query::{QueryEdgeId, QueryGraph, QueryVertexId};
use crate::signature::Primitive;
use crate::subgraph::QuerySubgraph;
use crate::LeafSignature;
use sp_graph::EdgeType;

/// One leaf of a canonical prefix chain: the leaf's canonical form plus how
/// it glues onto the union of the leaves before it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainStep {
    /// Exact canonical form of the leaf.
    pub leaf: LeafSignature,
    /// `(leaf-canonical vertex, union-canonical vertex)` identifications for
    /// the leaf vertices already present in the union, sorted by leaf
    /// vertex. Empty for the first leaf (nothing to glue onto) and for a
    /// disconnected-at-this-depth leaf (none exist in practice: left-deep
    /// decompositions keep prefixes connected).
    pub glue: Vec<(u32, u32)>,
}

/// Canonical signature of an SJ-Tree prefix: the ordered leaf-signature
/// sequence plus the join-cut structure gluing each leaf onto the union of
/// its predecessors. See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrefixSignature {
    steps: Vec<ChainStep>,
}

impl PrefixSignature {
    /// Number of leaves the prefix covers.
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// The chain steps, in selectivity (leaf-rank) order.
    pub fn steps(&self) -> &[ChainStep] {
        &self.steps
    }

    /// The signature of the depth-`d` prefix of this chain (invariant 3:
    /// this equals the signature [`prefix_chain`] would compute for the
    /// first `d` leaves directly).
    ///
    /// # Panics
    /// Panics when `d` exceeds [`PrefixSignature::depth`].
    pub fn truncated(&self, d: usize) -> PrefixSignature {
        PrefixSignature {
            steps: self.steps[..d].to_vec(),
        }
    }

    /// Length of the longest common leading step sequence of two chains —
    /// the deepest prefix the two decompositions could share a join table
    /// for.
    pub fn common_depth(&self, other: &PrefixSignature) -> usize {
        self.steps
            .iter()
            .zip(&other.steps)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Whether this chain is a (non-strict) leading prefix of `other` — the
    /// containment relation of the shared-join trie: a table for `self` can
    /// feed a table for `other` exactly when this holds. Equivalent to
    /// `self.common_depth(other) == self.depth()`.
    pub fn is_prefix_of(&self, other: &PrefixSignature) -> bool {
        self.depth() <= other.depth() && self.common_depth(other) == self.depth()
    }

    /// The last chain step — the trie-edge key distinguishing this prefix
    /// from its immediate parent `self.truncated(self.depth() - 1)`.
    ///
    /// # Panics
    /// Never: signatures are non-empty by construction ([`prefix_chain`]
    /// rejects empty leaf sets).
    pub fn last_step(&self) -> &ChainStep {
        self.steps.last().expect("signatures are non-empty")
    }

    /// Distinct edge types occurring anywhere in the prefix, ascending. A
    /// streaming edge whose type is not in this set cannot extend any
    /// partial match of the prefix.
    pub fn edge_types(&self) -> Vec<EdgeType> {
        let mut types: Vec<EdgeType> = self
            .steps
            .iter()
            .flat_map(|s| s.leaf.canonical_edges().iter().map(|&(_, _, t)| t))
            .collect();
        types.sort_unstable();
        types.dedup();
        types
    }

    /// Total number of union-canonical vertices.
    pub fn num_vertices(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.leaf.num_vertices() - s.glue.len())
            .sum()
    }

    /// Total number of edges across the prefix leaves.
    pub fn num_edges(&self) -> usize {
        self.steps.iter().map(|s| s.leaf.num_edges()).sum()
    }

    /// Materializes the canonical prefix as a standalone query graph plus
    /// one edge-subset view per leaf (in rank order) — the inputs an
    /// `SjTree::from_leaves` needs to run the shared join stage. Union
    /// vertex `u` becomes `QueryVertexId(u)`; edges are numbered leaf by
    /// leaf, within each leaf in its signature's sorted order (matching
    /// [`CanonicalMapping::edges`] of [`prefix_chain`]).
    pub fn instantiate(&self, name: &str) -> (QueryGraph, Vec<QuerySubgraph>) {
        let mut q = QueryGraph::new(name);
        // First pass: create the union vertices with their types, walking
        // the steps exactly as construction did.
        let mut union_of: Vec<Vec<u32>> = Vec::with_capacity(self.steps.len());
        let mut next_union = 0u32;
        for step in &self.steps {
            let n = step.leaf.num_vertices();
            let mut ids = vec![u32::MAX; n];
            for &(leaf_v, union_v) in &step.glue {
                ids[leaf_v as usize] = union_v;
            }
            for (c, slot) in ids.iter_mut().enumerate() {
                if *slot == u32::MAX {
                    *slot = next_union;
                    next_union += 1;
                    let v = q.add_vertex(step.leaf.vertex_type(c));
                    debug_assert_eq!(v.0 as u32, *slot);
                }
            }
            union_of.push(ids);
        }
        // Second pass: add the edges and build the per-leaf views.
        let mut leaves = Vec::with_capacity(self.steps.len());
        for (step, ids) in self.steps.iter().zip(&union_of) {
            let mut edge_ids = Vec::with_capacity(step.leaf.num_edges());
            for &(s, d, t) in step.leaf.canonical_edges() {
                edge_ids.push(q.add_edge(
                    QueryVertexId(ids[s as usize] as usize),
                    QueryVertexId(ids[d as usize] as usize),
                    t,
                ));
            }
            leaves.push(QuerySubgraph::from_edges(&q, edge_ids));
        }
        (q, leaves)
    }

    /// Renders the chain compactly for logs and reports, e.g.
    /// `edge[tcp] ⋈ edge[esp]`.
    pub fn describe(&self, schema: &sp_graph::Schema) -> String {
        let (q, leaves) = self.instantiate("describe");
        leaves
            .iter()
            .map(|leaf| {
                leaf.primitive(&q)
                    .map(|p: Primitive| p.describe(schema))
                    .unwrap_or_else(|| format!("{}-edge leaf", leaf.num_edges()))
            })
            .collect::<Vec<_>>()
            .join(" ⋈ ")
    }
}

/// Computes the canonical prefix chain of `leaves` (leaf subgraphs of
/// `query` in selectivity order) together with the mapping from
/// union-canonical vertex/edge ids back to the owner's ids. Returns `None`
/// when `leaves` is empty or any leaf fails per-leaf canonicalization
/// (oversized hand-built leaves) — callers fall back to the private,
/// unshared join path.
pub fn prefix_chain<'a, I>(
    query: &QueryGraph,
    leaves: I,
) -> Option<(PrefixSignature, CanonicalMapping)>
where
    I: IntoIterator<Item = &'a QuerySubgraph>,
{
    let mut steps = Vec::new();
    // Union id -> owner vertex, in assignment order.
    let mut owner_vertices: Vec<QueryVertexId> = Vec::new();
    // Owner edge per union edge, in construction (leaf-by-leaf) order.
    let mut owner_edges: Vec<QueryEdgeId> = Vec::new();
    for leaf in leaves {
        let (sig, mapping) = canonicalize_subgraph(query, leaf)?;
        // A leaf vertex either glues onto a union vertex placed by an
        // earlier leaf or is fresh and takes the next union id, in
        // ascending leaf-canonical order. (The probe cannot hit a fresh
        // vertex pushed for *this* leaf: the per-leaf mapping is a
        // bijection, so the leaf's owner vertices are distinct.)
        let mut glue = Vec::new();
        for (c, &owner_v) in mapping.vertices.iter().enumerate() {
            match owner_vertices.iter().position(|&v| v == owner_v) {
                Some(u) => glue.push((c as u32, u as u32)),
                None => owner_vertices.push(owner_v),
            }
        }
        owner_edges.extend(mapping.edges.iter().copied());
        steps.push(ChainStep { leaf: sig, glue });
    }
    if steps.is_empty() {
        return None;
    }
    Some((
        PrefixSignature { steps },
        CanonicalMapping {
            vertices: owner_vertices,
            edges: owner_edges,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{EdgeType, VertexType};

    /// Chain query `v0 -t0-> v1 -t1-> v2 ...` with single-edge leaves in the
    /// given edge order.
    fn chain_query(types: &[u32]) -> (QueryGraph, Vec<QuerySubgraph>) {
        let mut q = QueryGraph::new("chain");
        let mut prev = q.add_any_vertex();
        for &t in types {
            let next = q.add_any_vertex();
            q.add_edge(prev, next, EdgeType(t));
            prev = next;
        }
        let leaves = (0..types.len())
            .map(|i| QuerySubgraph::from_edges(&q, [QueryEdgeId(i)]))
            .collect();
        (q, leaves)
    }

    #[test]
    fn same_chain_different_numbering_is_equal() {
        let (qa, la) = chain_query(&[3, 7]);
        // Same shape but the owner adds padding vertices and reversed edge
        // insertion order inside each leaf's canonical form.
        let mut qb = QueryGraph::new("padded");
        let _pad = qb.add_any_vertex();
        let a = qb.add_any_vertex();
        let b = qb.add_any_vertex();
        let c = qb.add_any_vertex();
        qb.add_edge(b, c, EdgeType(7));
        qb.add_edge(a, b, EdgeType(3));
        let lb = [
            QuerySubgraph::from_edges(&qb, [QueryEdgeId(1)]),
            QuerySubgraph::from_edges(&qb, [QueryEdgeId(0)]),
        ];
        let (sa, ma) = prefix_chain(&qa, la.iter()).unwrap();
        let (sb, mb) = prefix_chain(&qb, lb.iter()).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(sa.depth(), 2);
        assert_eq!(sa.common_depth(&sb), 2);
        // Mappings point into each owner's own numbering.
        assert_eq!(ma.vertices.len(), 3);
        assert_eq!(mb.vertices.len(), 3);
        assert_eq!(ma.edges, vec![QueryEdgeId(0), QueryEdgeId(1)]);
        assert_eq!(mb.edges, vec![QueryEdgeId(1), QueryEdgeId(0)]);
    }

    #[test]
    fn glue_distinguishes_cut_structure() {
        // Both queries have leaves [t0-edge, t1-edge], but in A they share
        // the middle vertex (a path) and in B the t1 edge points back into
        // the t0 edge's source (a fan-out) — different join cuts, so the
        // prefixes must not unify.
        let (qa, la) = chain_query(&[0, 1]);
        let mut qb = QueryGraph::new("fan");
        let a = qb.add_any_vertex();
        let b = qb.add_any_vertex();
        let c = qb.add_any_vertex();
        qb.add_edge(a, b, EdgeType(0));
        qb.add_edge(a, c, EdgeType(1));
        let lb = [
            QuerySubgraph::from_edges(&qb, [QueryEdgeId(0)]),
            QuerySubgraph::from_edges(&qb, [QueryEdgeId(1)]),
        ];
        let (sa, _) = prefix_chain(&qa, la.iter()).unwrap();
        let (sb, _) = prefix_chain(&qb, lb.iter()).unwrap();
        assert_eq!(sa.steps()[0], sb.steps()[0], "first leaves are identical");
        assert_ne!(sa, sb, "glue differs");
        assert_eq!(sa.common_depth(&sb), 1);
    }

    #[test]
    fn truncation_matches_direct_construction() {
        let (q, leaves) = chain_query(&[2, 5, 9]);
        let (full, _) = prefix_chain(&q, leaves.iter()).unwrap();
        let (two, _) = prefix_chain(&q, leaves[..2].iter()).unwrap();
        assert_eq!(full.truncated(2), two);
        assert_eq!(full.truncated(3), full);
        assert_eq!(full.common_depth(&two), 2);
    }

    #[test]
    fn prefix_containment_orders_the_trie() {
        let (q, leaves) = chain_query(&[2, 5, 9]);
        let (full, _) = prefix_chain(&q, leaves.iter()).unwrap();
        let two = full.truncated(2);
        assert!(two.is_prefix_of(&full));
        assert!(!full.is_prefix_of(&two), "containment is antisymmetric");
        assert!(full.is_prefix_of(&full), "containment is reflexive");
        // A chain diverging at the last step is no prefix, even at equal
        // depth prefixes.
        let (q2, l2) = chain_query(&[2, 5, 7]);
        let (other, _) = prefix_chain(&q2, l2.iter()).unwrap();
        assert!(!other.is_prefix_of(&full) && !full.is_prefix_of(&other));
        assert!(two.is_prefix_of(&other), "shared depth-2 prefix");
        // The last step is the trie-edge key: it distinguishes the child
        // from its parent and matches direct construction.
        assert_eq!(full.last_step(), &full.steps()[2]);
        assert_ne!(full.last_step(), other.last_step());
        assert_eq!(two.last_step(), &full.steps()[1]);
    }

    #[test]
    fn instantiate_roundtrips_shape_and_leaf_partition() {
        let (q, leaves) = chain_query(&[2, 5, 9]);
        let (sig, mapping) = prefix_chain(&q, leaves.iter()).unwrap();
        assert_eq!(sig.num_vertices(), 4);
        assert_eq!(sig.num_edges(), 3);
        let (canon, canon_leaves) = sig.instantiate("canon");
        assert_eq!(canon.num_vertices(), 4);
        assert_eq!(canon.num_edges(), 3);
        assert_eq!(canon_leaves.len(), 3);
        // Re-deriving the chain from the instantiation reproduces the
        // signature (fixed point), and the mapping is a bijection.
        let (again, identity) = prefix_chain(&canon, canon_leaves.iter()).unwrap();
        assert_eq!(again, sig);
        assert_eq!(
            identity.vertices,
            (0..4).map(QueryVertexId).collect::<Vec<_>>()
        );
        assert_eq!(mapping.vertices.len(), 4);
        assert_eq!(mapping.edges.len(), 3);
        assert_eq!(
            sig.edge_types(),
            vec![EdgeType(2), EdgeType(5), EdgeType(9)]
        );
    }

    #[test]
    fn vertex_types_flow_into_the_union() {
        let person = VertexType(3);
        let mut q = QueryGraph::new("typed");
        let a = q.add_vertex(person);
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, EdgeType(0));
        q.add_edge(b, c, EdgeType(1));
        let leaves = [
            QuerySubgraph::from_edges(&q, [QueryEdgeId(0)]),
            QuerySubgraph::from_edges(&q, [QueryEdgeId(1)]),
        ];
        let (sig, mapping) = prefix_chain(&q, leaves.iter()).unwrap();
        let (canon, _) = sig.instantiate("canon");
        // Exactly one union vertex carries the person constraint, and the
        // mapping sends it back to `a`.
        let typed: Vec<_> = canon
            .vertices()
            .filter(|(_, v)| v.vertex_type == person)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(typed.len(), 1);
        assert_eq!(mapping.vertices[typed[0].0], a);
        // An untyped variant does not unify with the typed one.
        let (q2, l2) = chain_query(&[0, 1]);
        let (sig2, _) = prefix_chain(&q2, l2.iter()).unwrap();
        assert_ne!(sig, sig2);
    }

    #[test]
    fn oversized_leaves_reject_the_chain() {
        let mut q = QueryGraph::new("big");
        let vs: Vec<_> = (0..9).map(|_| q.add_any_vertex()).collect();
        for i in 0..8 {
            q.add_edge(vs[i], vs[i + 1], EdgeType(0));
        }
        let whole = QuerySubgraph::from_edges(&q, q.edge_ids());
        assert!(prefix_chain(&q, [whole].iter()).is_none());
        assert!(prefix_chain(&q, [].iter()).is_none());
    }

    #[test]
    fn two_edge_path_leaves_chain_with_wedge_glue() {
        // 4-edge chain decomposed into two 2-edge path leaves: the second
        // leaf glues onto the first at exactly one vertex.
        let (q, _) = chain_query(&[1, 1, 1, 1]);
        let leaves = [
            QuerySubgraph::from_edges(&q, [QueryEdgeId(0), QueryEdgeId(1)]),
            QuerySubgraph::from_edges(&q, [QueryEdgeId(2), QueryEdgeId(3)]),
        ];
        let (sig, mapping) = prefix_chain(&q, leaves.iter()).unwrap();
        assert_eq!(sig.depth(), 2);
        assert_eq!(sig.steps()[0].glue.len(), 0);
        assert_eq!(sig.steps()[1].glue.len(), 1);
        assert_eq!(sig.num_vertices(), 5);
        assert_eq!(mapping.vertices.len(), 5);
        let (canon, canon_leaves) = sig.instantiate("canon");
        assert_eq!(canon.num_edges(), 4);
        assert_eq!(canon_leaves[0].num_edges(), 2);
        assert_eq!(canon_leaves[1].num_edges(), 2);
    }
}
