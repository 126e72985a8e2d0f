//! Analytic cost model for SJ-Tree decompositions (Appendix A and the
//! Theorems of Section 5).
//!
//! The model estimates, for a given decomposition and stream statistics:
//!
//! * **space** — `S(T) = Σ_k |E(g_k)| · frequency(g_k)` where the frequency
//!   of an internal node is bounded by the frequency of its more selective
//!   child (the "group" approximation of Section 5.2);
//! * **per-edge work** — the sum of the leaf search costs (`O(1)` for a
//!   single edge, `O(d̄)` for a 2-edge path) plus the expected hash-join work
//!   `(fS(g¹) + fS(g²) + O(n₁) + O(n₂) + min(n₁,n₂)) / N`, computed
//!   recursively from the root as in Appendix A.
//!
//! The model is used by the `costmodel` experiment to compare the analytic
//! prediction against measured runtimes, and by Observation 3-style reasoning
//! about whether decomposing a subgraph further is worthwhile.

use crate::tree::SjTree;
use crate::NodeId;
use serde::{Deserialize, Serialize};
use sp_selectivity::SelectivityEstimator;

/// Cost estimates for one SJ-Tree under given stream statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Estimated number of (partial-match, edge) units stored:
    /// `Σ |E(g_k)| · frequency(g_k)` over all nodes.
    pub space_units: f64,
    /// Estimated number of elementary search + join operations per streaming
    /// edge.
    pub work_per_edge: f64,
    /// The leaf-search share of [`CostModel::work_per_edge`].
    pub leaf_search_work: f64,
    /// Per-leaf search work in selectivity-rank order
    /// (`leaf_search_cost.iter().sum() == leaf_search_work`).
    pub leaf_search_cost: Vec<f64>,
    /// Per-internal-node hash-join work, bottom-up: `join_work[j]` is the
    /// expected per-edge probe+insert work of the node joining leaves
    /// `0..=j+1`. This is the share the shared **join** stage eliminates
    /// when the shard already maintains the query's depth-`d` prefix
    /// table (`join_work[..d-1]`), on top of the prefix's leaf searches.
    pub join_work: Vec<f64>,
    /// Estimated frequency (expected number of matches over the sampled
    /// stream) per node, indexed by [`NodeId`].
    pub node_frequency: Vec<f64>,
}

impl CostModel {
    /// Builds the cost model for `tree` from stream statistics.
    ///
    /// * `estimator` supplies leaf frequencies (1-edge histogram and 2-edge
    ///   path counts);
    /// * `avg_degree` is the mean vertex degree of the data graph (`d̄`),
    ///   which scales the cost of searching for a 2-edge leaf;
    /// * `stream_len` is the number of edges the statistics were collected
    ///   over (`N` in Appendix A).
    pub fn build(
        tree: &SjTree,
        estimator: &SelectivityEstimator,
        avg_degree: f64,
        stream_len: u64,
    ) -> Self {
        let n = stream_len.max(1) as f64;
        let mut node_frequency = vec![0.0_f64; tree.num_nodes()];

        // Leaf frequencies come straight from the statistics.
        for &leaf in tree.leaves() {
            let prim = tree
                .subgraph(leaf)
                .primitive(tree.query())
                .expect("leaves are primitives");
            node_frequency[leaf.0] = estimator.frequency(&prim) as f64;
        }
        // Internal frequencies: bounded by the more selective child
        // (frequency of the larger subgraph cannot exceed that of its most
        // selective component).
        for node in tree.nodes() {
            if let (Some(l), Some(r)) = (node.left, node.right) {
                node_frequency[node.id.0] = node_frequency[l.0].min(node_frequency[r.0]);
            }
        }

        // Space: Σ |E(g_k)| * frequency(g_k).
        let mut space_units = 0.0;
        for node in tree.nodes() {
            space_units += node.subgraph.num_edges() as f64 * node_frequency[node.id.0];
        }

        // Work per edge: leaf search costs plus expected hash-join work,
        // accumulated over every internal node.
        let mut leaf_search_cost = Vec::with_capacity(tree.num_leaves());
        for &leaf in tree.leaves() {
            let edges = tree.subgraph(leaf).num_edges();
            // O(1) for a single edge, O(d̄^(k-1)) for a k-edge primitive.
            leaf_search_cost.push(avg_degree.max(1.0).powi(edges as i32 - 1));
        }
        let leaf_search_work: f64 = leaf_search_cost.iter().sum();
        let mut work_per_edge = leaf_search_work;
        // Internal nodes appear after the leaves in bottom-up (prefix-depth)
        // order, so collecting their join work in node order yields
        // `join_work[j]` = the node covering leaves `0..=j+1`.
        let mut join_work = Vec::with_capacity(tree.num_nodes() - tree.num_leaves());
        for node in tree.nodes() {
            if let (Some(l), Some(r)) = (node.left, node.right) {
                let n1 = node_frequency[l.0];
                let n2 = node_frequency[r.0];
                // (O(n1) + O(n2) + min(n1,n2)) / N probes+inserts per edge.
                let w = (n1 + n2 + n1.min(n2)) / n;
                join_work.push(w);
                work_per_edge += w;
            }
        }

        Self {
            space_units,
            work_per_edge,
            leaf_search_work,
            leaf_search_cost,
            join_work,
            node_frequency,
        }
    }

    /// Estimated frequency of a node.
    pub fn frequency(&self, node: NodeId) -> f64 {
        self.node_frequency[node.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose, PrimitivePolicy};
    use sp_graph::{DynamicGraph, Schema, Timestamp};
    use sp_query::QueryGraph;

    fn skewed_fixture() -> (Schema, SelectivityEstimator, f64, u64) {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let esp = schema.intern_edge_type("esp");
        let mut g = DynamicGraph::new(schema.clone());
        let nodes: Vec<_> = (0..50).map(|_| g.add_vertex(vt)).collect();
        for i in 0..45 {
            g.add_edge(nodes[i], nodes[i + 1], tcp, Timestamp(i as u64));
        }
        g.add_edge(nodes[49], nodes[0], esp, Timestamp(100));
        let stats = g.degree_stats();
        let len = g.num_edges() as u64;
        (
            schema,
            SelectivityEstimator::from_graph(&g),
            stats.average_degree,
            len,
        )
    }

    fn two_edge_query(schema: &Schema) -> QueryGraph {
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let mut q = QueryGraph::new("esp-tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, esp);
        q.add_edge(b, c, tcp);
        q
    }

    #[test]
    fn leaf_frequencies_match_estimator() {
        let (schema, est, d, n) = skewed_fixture();
        let q = two_edge_query(&schema);
        let tree = decompose(&q, PrimitivePolicy::SingleEdge, &est).unwrap();
        let model = CostModel::build(&tree, &est, d, n);
        // Leaf 0 is the esp edge with frequency 1; leaf 1 the tcp edge with 45.
        assert_eq!(model.frequency(tree.leaf(0)), 1.0);
        assert_eq!(model.frequency(tree.leaf(1)), 45.0);
    }

    #[test]
    fn internal_frequency_is_bounded_by_selective_child() {
        let (schema, est, d, n) = skewed_fixture();
        let q = two_edge_query(&schema);
        let tree = decompose(&q, PrimitivePolicy::SingleEdge, &est).unwrap();
        let model = CostModel::build(&tree, &est, d, n);
        assert_eq!(model.frequency(tree.root()), 1.0);
    }

    #[test]
    fn space_estimate_is_positive_and_dominated_by_frequent_leaf() {
        let (schema, est, d, n) = skewed_fixture();
        let q = two_edge_query(&schema);
        let tree = decompose(&q, PrimitivePolicy::SingleEdge, &est).unwrap();
        let model = CostModel::build(&tree, &est, d, n);
        // 1*1 (esp leaf) + 1*45 (tcp leaf) + 2*1 (root) = 48.
        assert!((model.space_units - 48.0).abs() < 1e-9);
    }

    #[test]
    fn single_edge_leaves_cost_unit_search() {
        let (schema, est, d, n) = skewed_fixture();
        let q = two_edge_query(&schema);
        let single = decompose(&q, PrimitivePolicy::SingleEdge, &est).unwrap();
        let model = CostModel::build(&single, &est, d, n);
        // Two 1-edge leaves cost 1 each; join work is small but positive.
        assert!(model.work_per_edge >= 2.0);
        assert!(model.work_per_edge < 5.0);
        assert!((model.leaf_search_work - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shared_prefix_strips_prefix_search_and_join_work() {
        let (schema, est, d, n) = skewed_fixture();
        // 3-edge chain: 3 leaves, 2 internal joins — a depth-2 shared
        // prefix covers leaves 0..1 and the first join.
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let mut q = QueryGraph::new("p3");
        let v: Vec<_> = (0..4).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], esp);
        q.add_edge(v[1], v[2], tcp);
        q.add_edge(v[2], v[3], tcp);
        let tree = decompose(&q, PrimitivePolicy::SingleEdge, &est).unwrap();
        let model = CostModel::build(&tree, &est, d, n);
        assert_eq!(model.leaf_search_cost.len(), 3);
        assert_eq!(model.join_work.len(), 2);
        assert!((model.leaf_search_cost.iter().sum::<f64>() - model.leaf_search_work).abs() < 1e-9);
        // The per-leaf and per-join breakdown accounts for the whole
        // estimate, so a consumer that knows a depth-2 prefix is shared can
        // strip exactly that prefix's two searches and one join.
        let total = model.leaf_search_work + model.join_work.iter().sum::<f64>();
        assert!((model.work_per_edge - total).abs() < 1e-9);
        let prefix = model.leaf_search_cost[..2].iter().sum::<f64>() + model.join_work[0];
        assert!(prefix > 0.0 && prefix < model.work_per_edge);
    }

    #[test]
    fn path_decomposition_trades_search_cost_for_space() {
        let (schema, est, d, n) = skewed_fixture();
        // 4-edge query so both decompositions are non-trivial.
        let tcp = schema.edge_type("tcp").unwrap();
        let mut q = QueryGraph::new("tcp-chain");
        let v: Vec<_> = (0..5).map(|_| q.add_any_vertex()).collect();
        for i in 0..4 {
            q.add_edge(v[i], v[i + 1], tcp);
        }
        let single = decompose(&q, PrimitivePolicy::SingleEdge, &est).unwrap();
        let path = decompose(&q, PrimitivePolicy::TwoEdgePath, &est).unwrap();
        let m_single = CostModel::build(&single, &est, d, n);
        let m_path = CostModel::build(&path, &est, d, n);
        // The 2-edge decomposition pays more per leaf search (d̄ vs 1 per
        // leaf) but has fewer leaves and stores fewer partial matches, so its
        // space estimate must not exceed the single-edge one.
        assert!(m_path.work_per_edge > 0.0 && m_single.work_per_edge > 0.0);
        assert!(path.num_leaves() < single.num_leaves());
        assert!(m_path.space_units <= m_single.space_units);
    }
}
