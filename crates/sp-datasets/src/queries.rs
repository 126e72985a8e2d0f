//! Random query generation — the methodology of Section 6.4.
//!
//! * **Path queries** for netflow: vertex labels fixed to "ip", edge types
//!   randomly drawn from the seven protocols; for LSBench the path follows
//!   the valid triples of the schema.
//! * **Binary-tree queries** for netflow, following the test-generation
//!   methodology of Sun et al. (a random tree where no vertex has more than
//!   two children).
//! * **N-ary tree queries** for LSBench: "generated by randomly selecting an
//!   edge from the set of valid triples and then iteratively adding valid new
//!   edges from any of the nodes available".
//! * **K-partite queries** for the news dataset: articles sharing mentioned
//!   entities.
//!
//! The paper additionally *filters* generated queries: any query containing a
//! 2-edge path that was never observed in the sampled stream is dropped
//! because it would be "artificially discriminative" —
//! [`QueryGenerator::has_unseen_wedge`] implements that check.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_graph::Schema;
use sp_query::{EdgeSignature, QueryGraph, QueryVertexId};
use sp_selectivity::SelectivityEstimator;

/// Builds a hand-written SOC-style detection rule: a directed protocol
/// chain over any-typed vertices, one edge per entry of `protocols`. Every
/// protocol name must already be interned in `schema` (panics otherwise) —
/// the helper exists so bench packs and tests can assemble chains of
/// arbitrary depth without each call site re-implementing the loop.
pub fn soc_chain_rule(schema: &Schema, name: &str, protocols: &[&str]) -> QueryGraph {
    assert!(
        !protocols.is_empty(),
        "a chain rule needs at least one edge"
    );
    let mut q = QueryGraph::new(name);
    let mut prev = q.add_any_vertex();
    for p in protocols {
        let t = schema
            .edge_type(p)
            .unwrap_or_else(|| panic!("protocol {p:?} is not interned in the schema"));
        let next = q.add_any_vertex();
        q.add_edge(prev, next, t);
        prev = next;
    }
    q
}

/// Wide-pattern SOC rules over the netflow protocols: 9-edge chains whose
/// full matches carry 9 edge bindings plus 10 vertex bindings — far past
/// `SubgraphMatch`'s inline capacity of 8, so every stored partial from
/// depth 4 onward spills. These rules exist to keep the spilled-match
/// regime exercised by the sharedjoin pack and the allocation ceilings;
/// the rare inner protocols (ESP/GRE) damp the per-step fan-out so
/// partial-match counts stay bounded. Returns the first `n` rules (≤ 2).
pub fn wide_soc_rules(schema: &Schema, n: usize) -> Vec<QueryGraph> {
    let rules = [
        soc_chain_rule(
            schema,
            "wide-lateral",
            &[
                "TCP", "ESP", "TCP", "GRE", "TCP", "ESP", "TCP", "GRE", "TCP",
            ],
        ),
        soc_chain_rule(
            schema,
            "wide-exfil-staging",
            &[
                "ICMP", "TCP", "ESP", "UDP", "GRE", "TCP", "ESP", "UDP", "ESP",
            ],
        ),
    ];
    rules.into_iter().take(n).collect()
}

/// The shape of query to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// A directed path with the given number of edges ("3-hop length" in the
    /// plots = 3 edges).
    Path {
        /// Number of edges on the path.
        length: usize,
    },
    /// A tree where every vertex has at most two children.
    BinaryTree {
        /// Number of vertices in the tree (edges = vertices - 1).
        vertices: usize,
    },
    /// A tree grown by repeatedly attaching a valid edge to any existing
    /// vertex (no fan-out limit).
    NaryTree {
        /// Number of vertices in the tree.
        vertices: usize,
    },
    /// Two "hub" vertices sharing `edges / 2` neighbors each (a small
    /// bipartite pattern, used for the news dataset's 4-edge queries).
    KPartite {
        /// Total number of edges.
        edges: usize,
    },
}

/// Seeded random query generator over a dataset's valid triples.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    schema: Schema,
    triples: Vec<EdgeSignature>,
    rng: SmallRng,
    counter: u64,
}

impl QueryGenerator {
    /// Creates a generator. `triples` describes which
    /// `(src type, edge type, dst type)` combinations the dataset can
    /// produce; queries only use those combinations.
    pub fn new(schema: Schema, triples: Vec<EdgeSignature>, seed: u64) -> Self {
        assert!(!triples.is_empty(), "query generation needs valid triples");
        Self {
            schema,
            triples,
            rng: SmallRng::seed_from_u64(seed),
            counter: 0,
        }
    }

    /// The schema the generator's triples refer to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The valid triples the generator draws from.
    pub fn triples(&self) -> &[EdgeSignature] {
        &self.triples
    }

    /// Generates one random query of the given kind.
    pub fn generate(&mut self, kind: QueryKind) -> QueryGraph {
        self.counter += 1;
        match kind {
            QueryKind::Path { length } => self.path(length),
            QueryKind::BinaryTree { vertices } => self.tree(vertices, Some(2)),
            QueryKind::NaryTree { vertices } => self.tree(vertices, None),
            QueryKind::KPartite { edges } => self.k_partite(edges),
        }
    }

    /// Generates `n` queries of the given kind.
    pub fn generate_batch(&mut self, kind: QueryKind, n: usize) -> Vec<QueryGraph> {
        (0..n).map(|_| self.generate(kind)).collect()
    }

    /// `true` when the query contains at least one 2-edge path whose
    /// signature was never observed by the estimator — the paper drops such
    /// queries from its sweeps.
    pub fn has_unseen_wedge(query: &QueryGraph, estimator: &SelectivityEstimator) -> bool {
        let edges: Vec<_> = query.edge_ids().collect();
        for (i, &a) in edges.iter().enumerate() {
            for &b in &edges[i + 1..] {
                if let Some(p) = query.wedge_primitive(a, b) {
                    if estimator.is_unseen(&p) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Generates a batch and drops the queries the paper's methodology
    /// filters out (those containing unseen 2-edge paths).
    pub fn generate_valid_batch(
        &mut self,
        kind: QueryKind,
        n: usize,
        estimator: &SelectivityEstimator,
    ) -> Vec<QueryGraph> {
        self.generate_batch(kind, n)
            .into_iter()
            .filter(|q| !Self::has_unseen_wedge(q, estimator))
            .collect()
    }

    fn random_triple(&mut self) -> EdgeSignature {
        let i = self.rng.gen_range(0..self.triples.len());
        self.triples[i]
    }

    /// Triples that can start from a vertex of the given type, in either
    /// direction: `(triple, outgoing?)`.
    fn triples_from(&self, vertex_type: sp_graph::VertexType) -> Vec<(EdgeSignature, bool)> {
        let mut out = Vec::new();
        for &t in &self.triples {
            if t.src_type == vertex_type {
                out.push((t, true));
            }
            if t.dst_type == vertex_type {
                out.push((t, false));
            }
        }
        out
    }

    fn path(&mut self, length: usize) -> QueryGraph {
        let length = length.max(1);
        let mut q = QueryGraph::new(format!("path{}-{}", length, self.counter));
        let first = self.random_triple();
        let mut prev = q.add_vertex(first.src_type);
        let mut current = q.add_vertex(first.dst_type);
        q.add_edge(prev, current, first.edge_type);
        for _ in 1..length {
            let current_type = q.vertex(current).vertex_type;
            let candidates = self.triples_from(current_type);
            let (triple, outgoing) = if candidates.is_empty() {
                (self.random_triple(), true)
            } else {
                candidates[self.rng.gen_range(0..candidates.len())]
            };
            let next = if outgoing {
                let v = q.add_vertex(triple.dst_type);
                q.add_edge(current, v, triple.edge_type);
                v
            } else {
                let v = q.add_vertex(triple.src_type);
                q.add_edge(v, current, triple.edge_type);
                v
            };
            prev = current;
            current = next;
        }
        let _ = prev;
        q
    }

    fn tree(&mut self, vertices: usize, max_children: Option<usize>) -> QueryGraph {
        let vertices = vertices.max(2);
        let label = if max_children.is_some() {
            "btree"
        } else {
            "ntree"
        };
        let mut q = QueryGraph::new(format!("{label}{}-{}", vertices, self.counter));
        let first = self.random_triple();
        let root = q.add_vertex(first.src_type);
        let child = q.add_vertex(first.dst_type);
        q.add_edge(root, child, first.edge_type);
        let mut children_count = vec![1usize, 0];

        while q.num_vertices() < vertices {
            // Pick an existing vertex that can still take a child and has at
            // least one valid outgoing triple.
            let mut attach_order: Vec<usize> = (0..q.num_vertices()).collect();
            // Randomize attachment order so trees are not degenerate chains.
            for i in (1..attach_order.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                attach_order.swap(i, j);
            }
            let mut attached = false;
            for idx in attach_order {
                if let Some(limit) = max_children {
                    if children_count[idx] >= limit {
                        continue;
                    }
                }
                let vtype = q.vertex(QueryVertexId(idx)).vertex_type;
                let candidates: Vec<EdgeSignature> = self
                    .triples
                    .iter()
                    .copied()
                    .filter(|t| t.src_type == vtype)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let triple = candidates[self.rng.gen_range(0..candidates.len())];
                let new_v = q.add_vertex(triple.dst_type);
                q.add_edge(QueryVertexId(idx), new_v, triple.edge_type);
                children_count[idx] += 1;
                children_count.push(0);
                attached = true;
                break;
            }
            if !attached {
                // No vertex can grow further under the schema; stop early.
                break;
            }
        }
        q
    }

    fn k_partite(&mut self, edges: usize) -> QueryGraph {
        let edges = edges.max(2);
        let mut q = QueryGraph::new(format!("kpartite{}-{}", edges, self.counter));
        let first = self.random_triple();
        let hub_a = q.add_vertex(first.src_type);
        let hub_b = q.add_vertex(first.src_type);
        let hubs = [hub_a, hub_b];
        // Shared neighbors: both hubs point at the same entity vertices with
        // valid mention types, giving a small bipartite pattern.
        let mut placed = 0;
        let mut entity: Option<QueryVertexId> = None;
        while placed < edges {
            let hub = hubs[placed % 2];
            let hub_type = q.vertex(hub).vertex_type;
            let candidates: Vec<EdgeSignature> = self
                .triples
                .iter()
                .copied()
                .filter(|t| t.src_type == hub_type)
                .collect();
            let triple = if candidates.is_empty() {
                self.random_triple()
            } else {
                candidates[self.rng.gen_range(0..candidates.len())]
            };
            let target = match (placed % 2, entity) {
                (1, Some(e)) if q.vertex(e).vertex_type == triple.dst_type => e,
                _ => {
                    let v = q.add_vertex(triple.dst_type);
                    entity = Some(v);
                    v
                }
            };
            q.add_edge(hub, target, triple.edge_type);
            placed += 1;
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsbench::LsbenchConfig;
    use crate::netflow::NetflowConfig;
    use crate::nytimes::NytimesConfig;

    fn netflow_generator() -> QueryGenerator {
        let d = NetflowConfig::tiny().generate();
        QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 99)
    }

    #[test]
    fn path_query_has_requested_length() {
        let mut gen = netflow_generator();
        for len in [3, 4, 5] {
            let q = gen.generate(QueryKind::Path { length: len });
            assert_eq!(q.num_edges(), len);
            assert_eq!(q.num_vertices(), len + 1);
            assert!(q.is_connected());
            assert_eq!(q.undirected_diameter(), len);
        }
    }

    #[test]
    fn binary_tree_respects_fanout_limit() {
        let mut gen = netflow_generator();
        for n in [5, 9, 15] {
            let q = gen.generate(QueryKind::BinaryTree { vertices: n });
            assert_eq!(q.num_vertices(), n);
            assert_eq!(q.num_edges(), n - 1);
            assert!(q.is_connected());
            for (v, _) in q.vertices() {
                let out_children = q.edges().filter(|e| e.src == v).count();
                assert!(out_children <= 2, "vertex {v} has {out_children} children");
            }
        }
    }

    #[test]
    fn nary_tree_over_lsbench_triples_is_schema_valid() {
        let d = LsbenchConfig::tiny().generate();
        let mut gen = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 5);
        let q = gen.generate(QueryKind::NaryTree { vertices: 6 });
        assert!(q.num_edges() >= 1);
        assert!(q.is_connected());
        // Every query edge must correspond to a valid triple.
        for e in q.edges() {
            let src_t = q.vertex(e.src).vertex_type;
            let dst_t = q.vertex(e.dst).vertex_type;
            assert!(
                d.valid_triples.iter().any(|t| t.edge_type == e.edge_type
                    && t.src_type == src_t
                    && t.dst_type == dst_t),
                "edge {e:?} is not a valid triple"
            );
        }
    }

    #[test]
    fn k_partite_query_for_news() {
        let d = NytimesConfig::tiny().generate();
        let mut gen = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 1);
        let q = gen.generate(QueryKind::KPartite { edges: 4 });
        assert_eq!(q.num_edges(), 4);
        assert!(q.num_vertices() <= 6);
    }

    #[test]
    fn batches_are_distinct_and_reproducible() {
        let mut a = netflow_generator();
        let mut b = netflow_generator();
        let qa = a.generate_batch(QueryKind::Path { length: 3 }, 10);
        let qb = b.generate_batch(QueryKind::Path { length: 3 }, 10);
        for (x, y) in qa.iter().zip(qb.iter()) {
            let ex: Vec<_> = x.edges().map(|e| e.edge_type).collect();
            let ey: Vec<_> = y.edges().map(|e| e.edge_type).collect();
            assert_eq!(ex, ey);
        }
        // Not all ten queries should be identical.
        let signatures: std::collections::HashSet<Vec<u32>> = qa
            .iter()
            .map(|q| q.edges().map(|e| e.edge_type.0).collect())
            .collect();
        assert!(signatures.len() > 1);
    }

    #[test]
    fn unseen_wedge_filter_drops_impossible_queries() {
        let d = NetflowConfig::tiny().generate();
        let est = d.estimator_from_prefix(d.len());
        let mut gen = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 3);
        let all = gen.generate_batch(QueryKind::Path { length: 4 }, 50);
        let valid: Vec<_> = all
            .iter()
            .filter(|q| !QueryGenerator::has_unseen_wedge(q, &est))
            .collect();
        // The filter keeps at least something and the kept queries really
        // have no unseen wedge.
        assert!(!valid.is_empty());
        for q in valid {
            assert!(!QueryGenerator::has_unseen_wedge(q, &est));
        }
    }

    #[test]
    fn generate_valid_batch_equals_manual_filtering() {
        let d = NetflowConfig::tiny().generate();
        let est = d.estimator_from_prefix(d.len());
        let mut g1 = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 3);
        let mut g2 = QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 3);
        let auto = g1.generate_valid_batch(QueryKind::Path { length: 3 }, 20, &est);
        let manual: Vec<_> = g2
            .generate_batch(QueryKind::Path { length: 3 }, 20)
            .into_iter()
            .filter(|q| !QueryGenerator::has_unseen_wedge(q, &est))
            .collect();
        assert_eq!(auto.len(), manual.len());
    }

    #[test]
    #[should_panic(expected = "valid triples")]
    fn empty_triples_are_rejected() {
        let _ = QueryGenerator::new(Schema::new(), vec![], 0);
    }

    #[test]
    fn wide_soc_rules_force_the_spill_regime() {
        let d = NetflowConfig::tiny().generate();
        let rules = wide_soc_rules(&d.schema, 2);
        assert_eq!(rules.len(), 2);
        for q in &rules {
            assert_eq!(q.num_edges(), 9);
            assert_eq!(q.num_vertices(), 10);
            assert!(q.is_connected());
            // 9 edge bindings + 10 vertex bindings = 19 > the inline
            // capacity of 8 — a full `SubgraphMatch` must spill to the heap.
            assert!(q.num_edges() + q.num_vertices() > 8);
        }
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn soc_chain_rule_rejects_unknown_protocols() {
        let d = NetflowConfig::tiny().generate();
        let _ = soc_chain_rule(&d.schema, "bogus", &["NOPE"]);
    }
}
