//! The SJ-Tree structure: a left-deep binary tree over query subgraphs.

use crate::node::{NodeId, SjTreeNode};
use serde::{Deserialize, Serialize};
use sp_graph::{EdgeType, Schema};
use sp_query::{QueryGraph, QuerySubgraph};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

/// A Subgraph Join Tree: the decomposition of one query graph into an
/// ordered sequence of leaf subgraphs plus the left-deep join structure above
/// them.
///
/// The tree is immutable once built; the runtime match tables live in
/// [`crate::MatchStore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SjTree {
    query: QueryGraph,
    nodes: Vec<SjTreeNode>,
    leaves: Vec<NodeId>,
    root: NodeId,
    /// Distinct edge types of each leaf, ascending, by selectivity rank.
    /// Derived from the leaves (never persisted).
    #[serde(skip)]
    leaf_edge_types: Vec<Vec<EdgeType>>,
    /// Distinct edge types of the whole query, ascending. Derived likewise.
    #[serde(skip)]
    edge_types: Vec<EdgeType>,
}

fn sorted_distinct(types: impl Iterator<Item = EdgeType>) -> Vec<EdgeType> {
    let mut types: Vec<EdgeType> = types.collect();
    types.sort_unstable();
    types.dedup();
    types
}

impl SjTree {
    /// Builds a left-deep SJ-Tree from leaf subgraphs given in selectivity
    /// order (most selective first). The leaves must partition the query's
    /// edges.
    ///
    /// For `k` leaves the tree has `k-1` internal nodes:
    /// `((((l0 ⋈ l1) ⋈ l2) ⋈ ...) ⋈ lk-1)`, mirroring Theorem 2's left-deep
    /// construction. A single-leaf tree consists of just that leaf, which is
    /// also the root (the query itself is one primitive).
    ///
    /// # Panics
    /// Panics if `leaves` is empty or does not partition the query edges.
    pub fn from_leaves(query: QueryGraph, leaves: Vec<QuerySubgraph>) -> Self {
        assert!(!leaves.is_empty(), "SJ-Tree needs at least one leaf");
        // Validate that the leaves partition the query edges.
        let mut covered = BTreeSet::new();
        for leaf in &leaves {
            for e in leaf.edges() {
                assert!(
                    covered.insert(e),
                    "leaf subgraphs must be edge-disjoint (edge {e} repeated)"
                );
            }
        }
        assert_eq!(
            covered.len(),
            query.num_edges(),
            "leaf subgraphs must cover every query edge"
        );

        let mut nodes: Vec<SjTreeNode> = Vec::with_capacity(2 * leaves.len() - 1);
        let mut leaf_ids = Vec::with_capacity(leaves.len());

        // Create leaf nodes first.
        for (rank, subgraph) in leaves.into_iter().enumerate() {
            let id = NodeId(nodes.len());
            nodes.push(SjTreeNode {
                id,
                subgraph,
                parent: None,
                left: None,
                right: None,
                sibling: None,
                cut_vertices: Vec::new(),
                leaf_rank: Some(rank),
            });
            leaf_ids.push(id);
        }

        // Chain internal nodes left-deep.
        let mut current = leaf_ids[0];
        for &right in &leaf_ids[1..] {
            let id = NodeId(nodes.len());
            let joined = nodes[current.0].subgraph.join(&nodes[right.0].subgraph);
            let cut = nodes[current.0]
                .subgraph
                .cut_vertices(&nodes[right.0].subgraph);
            nodes.push(SjTreeNode {
                id,
                subgraph: joined,
                parent: None,
                left: Some(current),
                right: Some(right),
                sibling: None,
                cut_vertices: cut,
                leaf_rank: None,
            });
            nodes[current.0].parent = Some(id);
            nodes[current.0].sibling = Some(right);
            nodes[right.0].parent = Some(id);
            nodes[right.0].sibling = Some(current);
            current = id;
        }

        SjTree {
            query,
            nodes,
            leaves: leaf_ids,
            root: current,
            leaf_edge_types: Vec::new(),
            edge_types: Vec::new(),
        }
        .with_edge_types()
    }

    /// Fills in the per-leaf and whole-tree edge-type lists.
    fn with_edge_types(mut self) -> Self {
        self.leaf_edge_types = self
            .leaf_subgraphs()
            .map(|leaf| sorted_distinct(leaf.edges().map(|e| self.query.edge(e).edge_type)))
            .collect();
        self.edge_types = sorted_distinct(self.leaf_edge_types.iter().flatten().copied());
        self
    }

    /// The query graph this tree decomposes.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All nodes (leaves first, then internal nodes bottom-up).
    pub fn nodes(&self) -> &[SjTreeNode] {
        &self.nodes
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &SjTreeNode {
        &self.nodes[id.0]
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf node ids in selectivity order (rank 0 first).
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The leaf with the given selectivity rank.
    pub fn leaf(&self, rank: usize) -> NodeId {
        self.leaves[rank]
    }

    /// The query subgraph of a node.
    pub fn subgraph(&self, id: NodeId) -> &QuerySubgraph {
        &self.nodes[id.0].subgraph
    }

    /// The distinct edge types of the leaf with the given selectivity rank,
    /// ascending: an edge of any other type can be part of no match of that
    /// leaf, so no search anchored at it need run.
    pub fn leaf_edge_types(&self, rank: usize) -> &[EdgeType] {
        &self.leaf_edge_types[rank]
    }

    /// The distinct edge types of the whole query, ascending.
    pub fn edge_types(&self) -> &[EdgeType] {
        &self.edge_types
    }

    /// The internal node covering exactly the leading leaves `0..depth`
    /// (`depth >= 2`): the root of the left-deep sub-tree a shared prefix of
    /// that depth evaluates.
    pub fn prefix_root(&self, depth: usize) -> NodeId {
        self.parent(self.leaf(depth - 1))
            .expect("a prefix of two or more leaves has a covering join node")
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].parent
    }

    /// Sibling of a node (`None` for the root).
    pub fn sibling(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].sibling
    }

    /// `true` when the tree is a single leaf (the query is one primitive).
    pub fn is_single_node(&self) -> bool {
        self.nodes.len() == 1
    }

    /// For a node covering leaves `0..=j`, the "next" leaf in the
    /// selectivity order is leaf `j+1` — the one whose search the Lazy
    /// strategy enables when a match materializes at this node.
    /// Returns `None` when the node already covers every leaf (root) or the
    /// node is a right leaf other than rank 0.
    pub fn next_leaf_to_enable(&self, id: NodeId) -> Option<NodeId> {
        let node = &self.nodes[id.0];
        match node.leaf_rank {
            Some(0) => self.leaves.get(1).copied(),
            Some(_) => None,
            None => {
                // Internal node: covers leaves 0..=r where r is the rank of
                // its right child (which is always a leaf in a left-deep
                // tree).
                let right = node.right.expect("internal node has right child");
                let rank = self.nodes[right.0]
                    .leaf_rank
                    .expect("right child of a left-deep internal node is a leaf");
                self.leaves.get(rank + 1).copied()
            }
        }
    }

    /// Leaf subgraphs in selectivity order.
    pub fn leaf_subgraphs(&self) -> impl Iterator<Item = &QuerySubgraph> + '_ {
        self.leaves.iter().map(move |id| &self.nodes[id.0].subgraph)
    }

    /// Renders the tree with readable names (one line per node).
    pub fn describe(&self, schema: &Schema) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "SJ-Tree for \"{}\": {} leaves, {} nodes",
            self.query.name(),
            self.leaves.len(),
            self.nodes.len()
        );
        for node in &self.nodes {
            let kind = if node.is_root() {
                "root"
            } else if node.is_leaf() {
                "leaf"
            } else {
                "join"
            };
            let prim = node
                .subgraph
                .primitive(&self.query)
                .map(|p| p.describe(schema))
                .unwrap_or_else(|| format!("{} edges", node.subgraph.num_edges()));
            let _ = writeln!(
                out,
                "  {} [{kind}{}] {} (cut: {:?})",
                node.id,
                node.leaf_rank
                    .map(|r| format!(" rank {r}"))
                    .unwrap_or_default(),
                prim,
                node.cut_vertices.iter().map(|v| v.0).collect::<Vec<_>>()
            );
        }
        out
    }

    /// Serializes the tree to JSON (the paper stores the decomposition as an
    /// ASCII file between the decomposition and query-processing steps).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes a tree from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json).map(Self::with_edge_types)
    }

    /// Writes the tree to a file as JSON.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = self
            .to_json()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json)
    }

    /// Reads a tree from a JSON file.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_query::QueryEdgeId;

    /// 4-edge path query decomposed into single edges.
    fn path4_single_leaves() -> (QueryGraph, Vec<QuerySubgraph>) {
        let mut q = QueryGraph::new("path4");
        let v: Vec<_> = (0..5).map(|_| q.add_any_vertex()).collect();
        for i in 0..4 {
            q.add_edge(v[i], v[i + 1], EdgeType(i as u32));
        }
        let leaves = (0..4)
            .map(|i| QuerySubgraph::from_edges(&q, [QueryEdgeId(i)]))
            .collect();
        (q, leaves)
    }

    #[test]
    fn left_deep_structure() {
        let (q, leaves) = path4_single_leaves();
        let t = SjTree::from_leaves(q, leaves);
        assert_eq!(t.num_leaves(), 4);
        assert_eq!(t.num_nodes(), 7);
        // Root covers the whole query (Property 1).
        assert!(t.subgraph(t.root()).covers(t.query()));
        // Every internal node's subgraph is the join of its children
        // (Property 2).
        for node in t.nodes() {
            if let (Some(l), Some(r)) = (node.left, node.right) {
                let joined = t.subgraph(l).join(t.subgraph(r));
                assert_eq!(&joined, &node.subgraph);
            }
        }
        // Left-deep: the right child of every internal node is a leaf.
        for node in t.nodes() {
            if let Some(r) = node.right {
                assert!(t.node(r).is_leaf());
            }
        }
    }

    #[test]
    fn sibling_and_parent_links_are_consistent() {
        let (q, leaves) = path4_single_leaves();
        let t = SjTree::from_leaves(q, leaves);
        for node in t.nodes() {
            if let Some(p) = node.parent {
                let parent = t.node(p);
                assert!(parent.left == Some(node.id) || parent.right == Some(node.id));
                let sib = node.sibling.expect("non-root nodes have siblings");
                assert!(parent.left == Some(sib) || parent.right == Some(sib));
                assert_ne!(sib, node.id);
            } else {
                assert_eq!(node.id, t.root());
                assert!(node.sibling.is_none());
            }
        }
    }

    #[test]
    fn cut_vertices_are_shared_path_vertices() {
        let (q, leaves) = path4_single_leaves();
        let t = SjTree::from_leaves(q, leaves);
        // First internal node joins edge0 (v0-v1) and edge1 (v1-v2): cut {v1}.
        let first_internal = t.parent(t.leaf(0)).unwrap();
        assert_eq!(
            t.node(first_internal)
                .cut_vertices
                .iter()
                .map(|v| v.0)
                .collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn next_leaf_to_enable_progression() {
        let (q, leaves) = path4_single_leaves();
        let t = SjTree::from_leaves(q, leaves);
        // Leaf 0 enables leaf 1.
        assert_eq!(t.next_leaf_to_enable(t.leaf(0)), Some(t.leaf(1)));
        // Other leaves do not enable anything directly.
        assert_eq!(t.next_leaf_to_enable(t.leaf(1)), None);
        // The internal node covering leaves 0..=1 enables leaf 2.
        let n1 = t.parent(t.leaf(0)).unwrap();
        assert_eq!(t.next_leaf_to_enable(n1), Some(t.leaf(2)));
        // The root covers everything; nothing left to enable.
        assert_eq!(t.next_leaf_to_enable(t.root()), None);
    }

    #[test]
    fn edge_type_lists_and_prefix_roots_follow_the_leaves() {
        // Two 2-edge leaves over types (0, 1) and (1, 1): per-leaf lists are
        // sorted and distinct, the tree list is their union.
        let mut q = QueryGraph::new("wedges");
        let v: Vec<_> = (0..5).map(|_| q.add_any_vertex()).collect();
        for (i, t) in [1u32, 0, 1, 1].into_iter().enumerate() {
            q.add_edge(v[i], v[i + 1], EdgeType(t));
        }
        let leaves = [[0, 1], [2, 3]]
            .map(|es| QuerySubgraph::from_edges(&q, es.map(QueryEdgeId)))
            .to_vec();
        let t = SjTree::from_leaves(q, leaves);
        assert_eq!(t.leaf_edge_types(0), &[EdgeType(0), EdgeType(1)]);
        assert_eq!(t.leaf_edge_types(1), &[EdgeType(1)]);
        assert_eq!(t.edge_types(), &[EdgeType(0), EdgeType(1)]);
        // The lists are derived, not persisted: a reloaded tree has them too.
        let back = SjTree::from_json(&t.to_json().unwrap()).unwrap();
        assert_eq!(back.leaf_edge_types(0), t.leaf_edge_types(0));
        assert_eq!(back.edge_types(), t.edge_types());

        let (q, leaves) = path4_single_leaves();
        let t = SjTree::from_leaves(q, leaves);
        assert_eq!(t.prefix_root(2), t.parent(t.leaf(0)).unwrap());
        assert_eq!(t.prefix_root(3), t.parent(t.leaf(2)).unwrap());
        assert_eq!(t.prefix_root(4), t.root());
    }

    #[test]
    fn single_leaf_tree() {
        let mut q = QueryGraph::new("one-edge");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        q.add_edge(a, b, EdgeType(0));
        let leaves = vec![QuerySubgraph::from_edges(&q, q.edge_ids())];
        let t = SjTree::from_leaves(q, leaves);
        assert!(t.is_single_node());
        assert_eq!(t.root(), t.leaf(0));
        assert_eq!(t.next_leaf_to_enable(t.root()), None);
    }

    #[test]
    #[should_panic(expected = "cover every query edge")]
    fn missing_edges_are_rejected() {
        let (q, mut leaves) = path4_single_leaves();
        leaves.pop();
        let _ = SjTree::from_leaves(q, leaves);
    }

    #[test]
    #[should_panic(expected = "edge-disjoint")]
    fn overlapping_leaves_are_rejected() {
        let (q, mut leaves) = path4_single_leaves();
        leaves[1] = leaves[0].clone();
        let _ = SjTree::from_leaves(q, leaves);
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        let (q, leaves) = path4_single_leaves();
        let t = SjTree::from_leaves(q, leaves);
        let json = t.to_json().unwrap();
        let back = SjTree::from_json(&json).unwrap();
        assert_eq!(back.num_nodes(), t.num_nodes());
        assert_eq!(back.root(), t.root());
        assert_eq!(back.leaves(), t.leaves());
    }

    #[test]
    fn describe_mentions_every_node() {
        let (q, leaves) = path4_single_leaves();
        let t = SjTree::from_leaves(q, leaves);
        let schema = Schema::new();
        let text = t.describe(&schema);
        assert!(text.contains("root"));
        assert!(text.contains("leaf"));
        assert_eq!(text.lines().count(), 1 + t.num_nodes());
    }
}
