//! The selectivity estimator: single place the engine and the decomposition
//! ask "how frequent is this primitive?".

use crate::histogram::EdgeTypeHistogram;
use crate::paths::TwoEdgePathCounter;
use serde::{Deserialize, Serialize};
use sp_graph::{DynamicGraph, EdgeData};
use sp_query::{LeafSignature, Primitive};

/// How the estimator weighs history when accumulating statistics.
///
/// The paper assumes the selectivity order is stable over the stream
/// (Section 5.1) and accumulates counts forever; that assumption breaks on
/// drifting streams, where a query registered early keeps a leaf ordering
/// the stream has since invalidated. [`StatsMode::Decayed`] turns the
/// estimator into a *moving* signal: every `interval` observed edges, every
/// count is halved, so the statistics form an exponentially weighted window
/// (weight `2^-k` for edges `k` intervals old) and the drift detector can
/// see ranking changes instead of being drowned out by history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StatsMode {
    /// Counts accumulate forever (the paper's methodology; the default).
    #[default]
    Cumulative,
    /// Every `N` observed edges (the variant's payload), all counts are
    /// halved — exponential decay with half-life `N` edges. The interval
    /// must be positive.
    Decayed(u64),
}

/// Distributional statistics of a graph stream: the 1-edge histogram and the
/// 2-edge path distribution, plus the Expected / Relative Selectivity metrics
/// derived from them (Section 5.2).
///
/// The estimator is typically populated from a prefix of the stream
/// ([`SelectivityEstimator::observe_edge`]) or from a whole graph snapshot
/// ([`SelectivityEstimator::from_graph`]); the paper assumes "the selectivity
/// order remains the same for the dynamic graph when we perform the query
/// processing" (Section 5.1), and Section 6.3 validates that assumption. For
/// drifting streams, [`StatsMode::Decayed`] keeps the statistics tracking
/// the recent stream instead.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SelectivityEstimator {
    edges: EdgeTypeHistogram,
    paths: TwoEdgePathCounter,
    mode: StatsMode,
    since_decay: u64,
    /// Monotonic count of edges ever observed (snapshot + incremental);
    /// unlike the histogram total it never decays.
    lifetime_observed: u64,
}

/// A summary of the selectivity of one SJ-Tree decomposition: the per-leaf
/// selectivities and their product (Expected Selectivity, Equation 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecompositionSelectivity {
    /// Selectivity of each leaf primitive, in leaf order.
    pub leaf_selectivities: Vec<f64>,
    /// Product of the leaf selectivities — Ŝ(T).
    pub expected: f64,
}

impl DecompositionSelectivity {
    /// Relative Selectivity ξ(Tk, T1) = Ŝ(Tk) / Ŝ(T1) (Equation 2).
    pub fn relative_to(&self, baseline: &DecompositionSelectivity) -> f64 {
        if baseline.expected == 0.0 {
            return f64::INFINITY;
        }
        self.expected / baseline.expected
    }
}

impl SelectivityEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the estimator from a complete graph snapshot: the edge
    /// histogram from the live edges and the 2-edge path distribution via
    /// Algorithm 5. The mode is [`StatsMode::Cumulative`]; use
    /// [`SelectivityEstimator::with_mode`] to change it.
    pub fn from_graph(graph: &DynamicGraph) -> Self {
        let mut edges = EdgeTypeHistogram::new();
        for e in graph.edges() {
            edges.observe(e.edge_type);
        }
        let lifetime_observed = edges.total();
        Self {
            edges,
            paths: TwoEdgePathCounter::from_graph(graph),
            mode: StatsMode::Cumulative,
            since_decay: 0,
            lifetime_observed,
        }
    }

    /// Sets how history is weighted (see [`StatsMode`]). Switching modes
    /// keeps the counts accumulated so far; decay starts applying from the
    /// next observed edge.
    ///
    /// # Panics
    /// Panics when given [`StatsMode::Decayed`] with a zero interval.
    pub fn with_mode(mut self, mode: StatsMode) -> Self {
        if let StatsMode::Decayed(interval) = mode {
            assert!(interval > 0, "decay interval must be positive");
        }
        self.mode = mode;
        self
    }

    /// The statistics mode in force.
    pub fn mode(&self) -> StatsMode {
        self.mode
    }

    /// Incrementally records one streaming edge (both the 1-edge histogram
    /// and the 2-edge path counts are updated). Under
    /// [`StatsMode::Decayed`] every count is halved once per decay interval
    /// of observed edges.
    ///
    /// # Count provenance
    ///
    /// The estimator does **not** distinguish counts that came from a
    /// snapshot ([`SelectivityEstimator::from_graph`]) from counts observed
    /// incrementally: calling `observe_edge` for edges that were already in
    /// the snapshot double-counts them, and the 2-edge path counters then
    /// also disagree with the true wedge census (the snapshot does not seed
    /// the per-vertex incidence state the incremental update pairs new edges
    /// against). Callers that need exact statistics for the current graph
    /// should use [`SelectivityEstimator::rebuild_from_graph`] (or a fresh
    /// [`SelectivityEstimator::from_graph`]) instead of mixing the two
    /// sources; the decayed mode tolerates the mixture by design, since old
    /// weight — wherever it came from — halves away.
    pub fn observe_edge(&mut self, edge: &EdgeData) {
        self.edges.observe(edge.edge_type);
        self.paths.observe_edge(edge);
        self.lifetime_observed += 1;
        if let StatsMode::Decayed(interval) = self.mode {
            self.since_decay += 1;
            if self.since_decay >= interval {
                self.since_decay = 0;
                self.edges.halve();
                self.paths.halve();
            }
        }
    }

    /// Clears every count (and the decay phase) while keeping the configured
    /// [`StatsMode`]. This is the escape hatch from the mixed-provenance
    /// trap documented on [`SelectivityEstimator::observe_edge`]: reset, then
    /// re-observe from a single source.
    pub fn reset(&mut self) {
        self.edges = EdgeTypeHistogram::new();
        self.paths = TwoEdgePathCounter::new();
        self.since_decay = 0;
        self.lifetime_observed = 0;
    }

    /// Replaces the accumulated counts with exact statistics of the given
    /// graph snapshot (its live — e.g. retained-window — edges), keeping the
    /// configured [`StatsMode`]. The decayed mode uses this to re-anchor the
    /// statistics on the retained graph instead of blending snapshot and
    /// incremental counts of unknown provenance.
    pub fn rebuild_from_graph(&mut self, graph: &DynamicGraph) {
        self.reset();
        let mut edges = EdgeTypeHistogram::new();
        for e in graph.edges() {
            edges.observe(e.edge_type);
        }
        self.lifetime_observed = edges.total();
        self.edges = edges;
        self.paths = TwoEdgePathCounter::from_graph(graph);
    }

    /// Read access to the single-edge histogram.
    pub fn edge_histogram(&self) -> &EdgeTypeHistogram {
        &self.edges
    }

    /// Read access to the 2-edge path distribution.
    pub fn path_counter(&self) -> &TwoEdgePathCounter {
        &self.paths
    }

    /// Number of edges currently *weighted* by the statistics: the
    /// histogram total, which under [`StatsMode::Decayed`] shrinks as old
    /// weight halves away (it never exceeds twice the decay interval). Use
    /// [`SelectivityEstimator::lifetime_edges_observed`] for a monotonic
    /// "how much stream has this estimator seen" count.
    pub fn num_edges_observed(&self) -> u64 {
        self.edges.total()
    }

    /// Monotonic count of edges ever fed to this estimator (snapshot +
    /// incremental), independent of decay. This is the count warm-up gates
    /// like `DriftConfig::min_observations` are checked against — gating on
    /// the decayed total would silently disable such gates whenever the
    /// threshold exceeds twice the decay interval.
    pub fn lifetime_edges_observed(&self) -> u64 {
        self.lifetime_observed
    }

    /// Frequency (raw count) of a primitive.
    pub fn frequency(&self, p: &Primitive) -> u64 {
        match p {
            Primitive::SingleEdge(t) => self.edges.count(*t),
            Primitive::TwoEdgePath(sig) => self.paths.count(sig),
        }
    }

    /// Selectivity of a primitive: its frequency over the total count of
    /// same-size subgraphs (Section 5's definition of Subgraph Selectivity).
    pub fn selectivity(&self, p: &Primitive) -> f64 {
        match p {
            Primitive::SingleEdge(t) => self.edges.selectivity(*t),
            Primitive::TwoEdgePath(sig) => self.paths.selectivity(sig),
        }
    }

    /// Expected Selectivity of a decomposition, given its leaf primitives:
    /// Ŝ(T) = ∏ S(leaf) (Equation 1).
    pub fn expected_selectivity<'a, I>(&self, leaves: I) -> DecompositionSelectivity
    where
        I: IntoIterator<Item = &'a Primitive>,
    {
        let leaf_selectivities: Vec<f64> =
            leaves.into_iter().map(|p| self.selectivity(p)).collect();
        let expected = leaf_selectivities.iter().product();
        DecompositionSelectivity {
            leaf_selectivities,
            expected,
        }
    }

    /// Relative Selectivity ξ(Tk, T1) between two decompositions described by
    /// their leaf primitives (Equation 2). `t1_leaves` is conventionally the
    /// 1-edge decomposition.
    pub fn relative_selectivity<'a, I, J>(&self, tk_leaves: I, t1_leaves: J) -> f64
    where
        I: IntoIterator<Item = &'a Primitive>,
        J: IntoIterator<Item = &'a Primitive>,
    {
        let tk = self.expected_selectivity(tk_leaves);
        let t1 = self.expected_selectivity(t1_leaves);
        tk.relative_to(&t1)
    }

    /// Returns `true` when a primitive was never observed in the sampled
    /// stream. The query-sweep methodology of Section 6.4 filters out queries
    /// containing unseen 2-edge paths because they are "artificially
    /// discriminative".
    pub fn is_unseen(&self, p: &Primitive) -> bool {
        self.frequency(p) == 0
    }

    /// Estimated per-stream-edge processing cost of running a continuous
    /// query against this stream, used by the parallel runtime to balance
    /// queries across worker shards.
    ///
    /// The estimate is `P(dispatch) × |E(query)|`: the probability that an
    /// incoming edge's type occurs in the query (the fraction of the stream
    /// that reaches the query's engine through the edge-type dispatch index)
    /// times the number of query edges (a proxy for the per-invocation leaf
    /// search and join work, which grows with the decomposition size). A
    /// query full of frequent edge types on a large pattern therefore costs
    /// the most; a query watching a rare type is nearly free.
    ///
    /// On an empty estimator every edge type reports selectivity 1, so the
    /// estimate degrades to `(#distinct types) × |E|` — still a usable
    /// relative ordering for shard assignment.
    pub fn estimate_query_cost(&self, query: &sp_query::QueryGraph) -> f64 {
        let mut types: Vec<_> = query.edges().map(|e| e.edge_type).collect();
        types.sort_unstable();
        types.dedup();
        let dispatch_probability: f64 = types
            .iter()
            .map(|&t| self.selectivity(&Primitive::SingleEdge(t)))
            .sum();
        dispatch_probability * query.num_edges() as f64
    }

    /// Expected fraction of a query's leaf-search **and join** work that the
    /// shared stages would eliminate, given the query's canonical leaf
    /// shapes in selectivity-rank order, a residency predicate
    /// (`is_resident(sig)` = "some already registered query subscribes to
    /// this shape here") and `shared_prefix_depths`, the depth of **every**
    /// resident shared prefix of the query's chain.
    ///
    /// Weights: a leaf's weight is its *search rate* — the probability that
    /// an incoming edge triggers the leaf's anchored search, i.e. the summed
    /// selectivity of the leaf's distinct edge types (capped at 1), so a
    /// resident leaf over hot types counts for more than one over rare
    /// types; the internal node joining leaves `0..=r` is weighted by the
    /// *rarest* leaf rate among them — the selectivity bound on how often
    /// that join produces (and therefore costs) anything, mirroring the cost
    /// model's "frequency of an internal node is bounded by its most
    /// selective child". The first `d` leaves of a depth-`d` shared prefix
    /// and the joins combining them run once registry-wide, so they count
    /// as covered regardless of leaf residency. Nesting prefixes of one
    /// chain share storage in the join trie — a resident `[A,B]` node is the
    /// parent of a resident `[A,B,C]` node, not an independent copy — so the
    /// covered work is the **union** of the per-prefix coverage: each leaf
    /// and each internal join node counts once, at the deepest prefix
    /// covering it. Returns a value in `[0, 1]`; 0 for an empty leaf set;
    /// with no prefix of depth ≥ 2 no join node is shared and the estimate
    /// is the resident-leaf fraction of the (leaf + join) pool. On an empty
    /// estimator every type reports selectivity 1, degrading to plain
    /// counting — still a usable ordering.
    pub fn estimate_sharing_benefit_with_prefixes<'a, I, F, D>(
        &self,
        leaves: I,
        is_resident: F,
        shared_prefix_depths: D,
    ) -> f64
    where
        I: IntoIterator<Item = &'a LeafSignature>,
        F: Fn(&LeafSignature) -> bool,
        D: IntoIterator<Item = usize>,
    {
        let shared_join_depth = shared_prefix_depths.into_iter().max().unwrap_or(0);
        let rates: Vec<(f64, bool)> = leaves
            .into_iter()
            .map(|sig| {
                let rate: f64 = sig
                    .edge_types()
                    .iter()
                    .map(|&t| self.selectivity(&Primitive::SingleEdge(t)))
                    .sum::<f64>()
                    .min(1.0);
                (rate, is_resident(sig))
            })
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        let d = shared_join_depth.min(rates.len());
        let mut total = 0.0;
        let mut covered = 0.0;
        let mut rarest = f64::INFINITY;
        for (r, &(rate, resident)) in rates.iter().enumerate() {
            total += rate;
            if r < d || resident {
                covered += rate;
            }
            rarest = rarest.min(rate);
            if r >= 1 {
                // Internal node joining leaves 0..=r.
                total += rarest;
                if r < d {
                    covered += rarest;
                }
            }
        }
        if total == 0.0 {
            0.0
        } else {
            covered / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{Direction, EdgeType, Schema, Timestamp};
    use sp_query::QueryGraph;

    /// Data: 90 tcp edges out of one hub, 10 udp edges out of another.
    fn sample_graph() -> DynamicGraph {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let udp = schema.intern_edge_type("udp");
        let mut g = DynamicGraph::new(schema);
        let hub1 = g.add_vertex(vt);
        let hub2 = g.add_vertex(vt);
        for i in 0..90u64 {
            let leaf = g.add_vertex(vt);
            g.add_edge(hub1, leaf, tcp, Timestamp(i));
        }
        for i in 0..10u64 {
            let leaf = g.add_vertex(vt);
            g.add_edge(hub2, leaf, udp, Timestamp(100 + i));
        }
        g
    }

    #[test]
    fn single_edge_selectivity_matches_frequency() {
        let g = sample_graph();
        let est = SelectivityEstimator::from_graph(&g);
        let tcp = g.schema().edge_type("tcp").unwrap();
        let udp = g.schema().edge_type("udp").unwrap();
        assert_eq!(est.frequency(&Primitive::SingleEdge(tcp)), 90);
        assert_eq!(est.frequency(&Primitive::SingleEdge(udp)), 10);
        assert!((est.selectivity(&Primitive::SingleEdge(udp)) - 0.1).abs() < 1e-12);
        assert!(!est.is_unseen(&Primitive::SingleEdge(udp)));
        assert!(est.is_unseen(&Primitive::SingleEdge(EdgeType(99))));
    }

    #[test]
    fn expected_selectivity_is_product_of_leaves() {
        let g = sample_graph();
        let est = SelectivityEstimator::from_graph(&g);
        let tcp = g.schema().edge_type("tcp").unwrap();
        let udp = g.schema().edge_type("udp").unwrap();
        let leaves = [Primitive::SingleEdge(tcp), Primitive::SingleEdge(udp)];
        let d = est.expected_selectivity(leaves.iter());
        assert_eq!(d.leaf_selectivities.len(), 2);
        assert!((d.expected - 0.9 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_selectivity_compares_decompositions() {
        let g = sample_graph();
        let est = SelectivityEstimator::from_graph(&g);
        let tcp = g.schema().edge_type("tcp").unwrap();
        let udp = g.schema().edge_type("udp").unwrap();
        // A wedge primitive that exists (tcp out / tcp out at hub1).
        let wedge = Primitive::TwoEdgePath(TwoEdgePathCounter::signature(
            tcp,
            Direction::Outgoing,
            tcp,
            Direction::Outgoing,
        ));
        let single_leaves = [Primitive::SingleEdge(tcp), Primitive::SingleEdge(udp)];
        let path_leaves = [wedge, Primitive::SingleEdge(udp)];
        let xi = est.relative_selectivity(path_leaves.iter(), single_leaves.iter());
        assert!(xi.is_finite());
        assert!(xi > 0.0);
    }

    #[test]
    fn relative_to_handles_zero_baseline() {
        let a = DecompositionSelectivity {
            leaf_selectivities: vec![0.5],
            expected: 0.5,
        };
        let zero = DecompositionSelectivity {
            leaf_selectivities: vec![0.0],
            expected: 0.0,
        };
        assert!(a.relative_to(&zero).is_infinite());
    }

    #[test]
    fn incremental_observation_matches_from_graph() {
        let g = sample_graph();
        let batch = SelectivityEstimator::from_graph(&g);
        let mut inc = SelectivityEstimator::new();
        for e in g.edges() {
            inc.observe_edge(e);
        }
        assert_eq!(inc.num_edges_observed(), batch.num_edges_observed());
        assert_eq!(inc.path_counter().total(), batch.path_counter().total());
    }

    #[test]
    fn empty_estimator_defaults_are_safe() {
        let est = SelectivityEstimator::new();
        let p = Primitive::SingleEdge(EdgeType(0));
        assert_eq!(est.frequency(&p), 0);
        assert_eq!(est.selectivity(&p), 1.0);
        let d = est.expected_selectivity(std::iter::empty());
        assert_eq!(d.expected, 1.0);
        assert!(d.leaf_selectivities.is_empty());
    }

    #[test]
    fn query_cost_orders_frequent_before_rare() {
        let g = sample_graph();
        let est = SelectivityEstimator::from_graph(&g);
        let tcp = g.schema().edge_type("tcp").unwrap();
        let udp = g.schema().edge_type("udp").unwrap();
        let mut q_hot = QueryGraph::new("hot");
        let a = q_hot.add_any_vertex();
        let b = q_hot.add_any_vertex();
        let c = q_hot.add_any_vertex();
        q_hot.add_edge(a, b, tcp);
        q_hot.add_edge(b, c, tcp);
        let mut q_cold = QueryGraph::new("cold");
        let a = q_cold.add_any_vertex();
        let b = q_cold.add_any_vertex();
        let c = q_cold.add_any_vertex();
        q_cold.add_edge(a, b, udp);
        q_cold.add_edge(b, c, udp);
        // 90% of the stream dispatches to the tcp query, 10% to the udp one.
        let hot = est.estimate_query_cost(&q_hot);
        let cold = est.estimate_query_cost(&q_cold);
        assert!(hot > cold, "hot={hot} cold={cold}");
        assert!((hot - 0.9 * 2.0).abs() < 1e-9);
        assert!((cold - 0.1 * 2.0).abs() < 1e-9);
        // A larger pattern on the same types costs more.
        let mut q_big = q_hot.clone();
        let d = q_big.add_any_vertex();
        let e0 = q_big.vertex_ids().next().unwrap();
        q_big.add_edge(d, e0, tcp);
        assert!(est.estimate_query_cost(&q_big) > hot);
        // The empty estimator still yields a finite, positive ordering key.
        let empty = SelectivityEstimator::new();
        assert!(empty.estimate_query_cost(&q_hot) > 0.0);
    }

    #[test]
    fn sharing_benefit_weights_leaves_by_search_rate() {
        use sp_query::{canonicalize_subgraph, QuerySubgraph};
        let g = sample_graph();
        let est = SelectivityEstimator::from_graph(&g);
        let tcp = g.schema().edge_type("tcp").unwrap();
        let udp = g.schema().edge_type("udp").unwrap();
        let sig_for = |t| {
            let mut q = QueryGraph::new("leaf");
            let a = q.add_any_vertex();
            let b = q.add_any_vertex();
            q.add_edge(a, b, t);
            let sub = QuerySubgraph::from_edges(&q, q.edge_ids());
            canonicalize_subgraph(&q, &sub).unwrap().0
        };
        let hot = sig_for(tcp); // selectivity 0.9
        let cold = sig_for(udp); // selectivity 0.1
        let leaves = [hot.clone(), cold.clone()];

        // No shared prefix: the pool is both leaves plus their join (bounded
        // by the rarest leaf), 0.9 + 0.1 + 0.1; only resident leaves count.
        let benefit = |is_resident: &dyn Fn(&LeafSignature) -> bool| {
            est.estimate_sharing_benefit_with_prefixes(leaves.iter(), is_resident, [])
        };
        assert_eq!(benefit(&|_| false), 0.0);
        assert!((benefit(&|_| true) - 1.0 / 1.1).abs() < 1e-12);
        // Only the hot leaf resident: its share of the search rate.
        let b = benefit(&|s| *s == hot);
        assert!((b - 0.9 / 1.1).abs() < 1e-12, "benefit = {b}");
        let b = benefit(&|s| *s == cold);
        assert!((b - 0.1 / 1.1).abs() < 1e-12, "benefit = {b}");
        // Empty leaf sets report no benefit.
        assert_eq!(
            est.estimate_sharing_benefit_with_prefixes([].iter(), |_| true, []),
            0.0
        );
    }

    #[test]
    fn prefix_benefit_counts_shared_internal_nodes() {
        use sp_query::{canonicalize_subgraph, QuerySubgraph};
        let g = sample_graph();
        let est = SelectivityEstimator::from_graph(&g);
        let tcp = g.schema().edge_type("tcp").unwrap(); // rate 0.9
        let udp = g.schema().edge_type("udp").unwrap(); // rate 0.1
        let sig_for = |t| {
            let mut q = QueryGraph::new("leaf");
            let a = q.add_any_vertex();
            let b = q.add_any_vertex();
            q.add_edge(a, b, t);
            let sub = QuerySubgraph::from_edges(&q, q.edge_ids());
            canonicalize_subgraph(&q, &sub).unwrap().0
        };
        let hot = sig_for(tcp);
        let cold = sig_for(udp);
        // Chain [cold, hot]: pool = 0.1 + 0.9 (leaves) + 0.1 (the join,
        // bounded by the rarest leaf) = 1.1.
        let leaves = [cold.clone(), hot.clone()];
        // No shared prefix, nothing resident: zero.
        assert_eq!(
            est.estimate_sharing_benefit_with_prefixes(leaves.iter(), |_| false, [0]),
            0.0
        );
        // A depth-2 shared prefix covers both leaves AND the join: full
        // benefit.
        let full = est.estimate_sharing_benefit_with_prefixes(leaves.iter(), |_| false, [2]);
        assert!((full - 1.0).abs() < 1e-12, "full = {full}");
        // Leaf-only residency of the hot leaf covers 0.9 of the 1.1 pool —
        // strictly less than prefix sharing, which also takes the join.
        let leaf_only =
            est.estimate_sharing_benefit_with_prefixes(leaves.iter(), |s| *s == hot, [0]);
        assert!(
            (leaf_only - 0.9 / 1.1).abs() < 1e-12,
            "leaf_only = {leaf_only}"
        );
        assert!(leaf_only < full);
        // A 3-leaf chain with a depth-2 shared prefix: the second join
        // (0..=2) stays uncovered.
        let leaves3 = [cold.clone(), hot.clone(), cold.clone()];
        // pool = (0.1 + 0.9 + 0.1) + (0.1 + 0.1) = 1.3; covered = 0.1 +
        // 0.9 + 0.1 (first join) = 1.1.
        let partial = est.estimate_sharing_benefit_with_prefixes(leaves3.iter(), |_| false, [2]);
        assert!((partial - 1.1 / 1.3).abs() < 1e-12, "partial = {partial}");
        // Residency of the remaining suffix leaf adds its rate on top.
        let with_suffix =
            est.estimate_sharing_benefit_with_prefixes(leaves3.iter(), |s| *s == cold, [2]);
        assert!((with_suffix - 1.2 / 1.3).abs() < 1e-12);
        assert_eq!(
            est.estimate_sharing_benefit_with_prefixes([].iter(), |_| true, [2]),
            0.0
        );
    }

    #[test]
    fn nested_resident_prefixes_count_each_trie_node_once() {
        use sp_query::{canonicalize_subgraph, QuerySubgraph};
        let g = sample_graph();
        let est = SelectivityEstimator::from_graph(&g);
        let tcp = g.schema().edge_type("tcp").unwrap(); // rate 0.9
        let udp = g.schema().edge_type("udp").unwrap(); // rate 0.1
        let sig_for = |t| {
            let mut q = QueryGraph::new("leaf");
            let a = q.add_any_vertex();
            let b = q.add_any_vertex();
            q.add_edge(a, b, t);
            let sub = QuerySubgraph::from_edges(&q, q.edge_ids());
            canonicalize_subgraph(&q, &sub).unwrap().0
        };
        let hot = sig_for(tcp);
        let cold = sig_for(udp);
        // Chain [cold, hot, cold] with BOTH its depth-2 and depth-3
        // prefixes resident (the trie nests them): pool = 1.3 as above, and
        // the union of coverage is the full chain — benefit 1.0, identical
        // to depth 3 alone. The shallower node adds nothing new.
        let leaves3 = [cold.clone(), hot.clone(), cold.clone()];
        let nested = est.estimate_sharing_benefit_with_prefixes(leaves3.iter(), |_| false, [2, 3]);
        let deep_only = est.estimate_sharing_benefit_with_prefixes(leaves3.iter(), |_| false, [3]);
        assert!((nested - 1.0).abs() < 1e-12, "nested = {nested}");
        assert_eq!(nested, deep_only);
        // The naive per-prefix sum double-counts everything the depth-2
        // node covers (1.1 of the 1.3 pool) — the union stays a fraction.
        let shallow = est.estimate_sharing_benefit_with_prefixes(leaves3.iter(), |_| false, [2]);
        let deep = est.estimate_sharing_benefit_with_prefixes(leaves3.iter(), |_| false, [3]);
        assert!(nested < shallow + deep, "union beats the double-count");
        assert!(shallow + deep > 1.0, "the naive sum overflows the pool");
        // Depth order is irrelevant, and the singular form is the
        // one-element special case.
        assert_eq!(
            est.estimate_sharing_benefit_with_prefixes(leaves3.iter(), |_| false, [3, 2]),
            nested
        );
        assert_eq!(
            est.estimate_sharing_benefit_with_prefixes(leaves3.iter(), |_| false, [2]),
            shallow
        );
        assert_eq!(
            est.estimate_sharing_benefit_with_prefixes(leaves3.iter(), |_| false, []),
            est.estimate_sharing_benefit_with_prefixes(leaves3.iter(), |_| false, [0])
        );
    }

    #[test]
    fn decayed_mode_forgets_old_traffic() {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let udp = schema.intern_edge_type("udp");
        let mut est = SelectivityEstimator::new().with_mode(StatsMode::Decayed(100));
        assert_eq!(est.mode(), StatsMode::Decayed(100));
        let mut g = DynamicGraph::new(schema);
        let feed = |est: &mut SelectivityEstimator, g: &mut DynamicGraph, t, n: u64| {
            for i in 0..n {
                let a = g.add_vertex(vt);
                let b = g.add_vertex(vt);
                let e = g.add_edge(a, b, t, Timestamp(i));
                est.observe_edge(g.edge(e).unwrap());
            }
        };
        // Phase 1: tcp dominates.
        feed(&mut est, &mut g, tcp, 450);
        feed(&mut est, &mut g, udp, 50);
        assert!(
            est.frequency(&Primitive::SingleEdge(tcp)) > est.frequency(&Primitive::SingleEdge(udp))
        );
        // Phase 2: only udp. After a few half-lives the ranking flips — the
        // cumulative estimator would need 450+ udp edges to ever catch up.
        feed(&mut est, &mut g, udp, 400);
        assert!(
            est.frequency(&Primitive::SingleEdge(udp)) > est.frequency(&Primitive::SingleEdge(tcp)),
            "decay must let the new mix overtake the old: tcp={} udp={}",
            est.frequency(&Primitive::SingleEdge(tcp)),
            est.frequency(&Primitive::SingleEdge(udp)),
        );
    }

    #[test]
    fn cumulative_mode_never_decays() {
        let g = sample_graph();
        let mut est = SelectivityEstimator::new();
        for e in g.edges() {
            est.observe_edge(e);
        }
        assert_eq!(est.num_edges_observed(), 100);
        assert_eq!(est.mode(), StatsMode::Cumulative);
    }

    #[test]
    fn reset_clears_counts_but_keeps_mode() {
        let g = sample_graph();
        let mut est = SelectivityEstimator::new().with_mode(StatsMode::Decayed(7));
        for e in g.edges() {
            est.observe_edge(e);
        }
        assert!(est.num_edges_observed() > 0);
        est.reset();
        assert_eq!(est.num_edges_observed(), 0);
        assert_eq!(est.path_counter().total(), 0);
        assert_eq!(est.mode(), StatsMode::Decayed(7));
    }

    #[test]
    fn rebuild_from_graph_matches_a_fresh_snapshot() {
        let g = sample_graph();
        let mut est = SelectivityEstimator::new();
        // Pollute with arbitrary incremental counts first.
        for e in g.edges().take(20) {
            est.observe_edge(e);
        }
        est.rebuild_from_graph(&g);
        let fresh = SelectivityEstimator::from_graph(&g);
        assert_eq!(est.num_edges_observed(), fresh.num_edges_observed());
        assert_eq!(est.path_counter().total(), fresh.path_counter().total());
    }

    #[test]
    fn snapshot_then_incremental_continuation_is_exact() {
        // The documented contract: from_graph seeds the per-vertex wedge
        // state, so observing only *new* edges afterwards continues the
        // exact census (no mixed-provenance undercount).
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let mut g = DynamicGraph::new(schema);
        let hub = g.add_vertex(vt);
        for i in 0..5u64 {
            let leaf = g.add_vertex(vt);
            g.add_edge(hub, leaf, tcp, Timestamp(i));
        }
        let mut est = SelectivityEstimator::from_graph(&g);
        // Add three more spokes incrementally.
        for i in 5..8u64 {
            let leaf = g.add_vertex(vt);
            let e = g.add_edge(hub, leaf, tcp, Timestamp(i));
            est.observe_edge(g.edge(e).unwrap());
        }
        let batch = SelectivityEstimator::from_graph(&g);
        assert_eq!(est.path_counter().total(), batch.path_counter().total());
        assert_eq!(est.num_edges_observed(), batch.num_edges_observed());
    }

    #[test]
    #[should_panic(expected = "decay interval must be positive")]
    fn zero_decay_interval_is_rejected() {
        let _ = SelectivityEstimator::new().with_mode(StatsMode::Decayed(0));
    }

    #[test]
    fn query_primitives_can_be_scored() {
        // End-to-end: build a query, derive its primitives, score them.
        let g = sample_graph();
        let est = SelectivityEstimator::from_graph(&g);
        let tcp = g.schema().edge_type("tcp").unwrap();
        let udp = g.schema().edge_type("udp").unwrap();
        let mut q = QueryGraph::new("demo");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        let e0 = q.add_edge(a, b, tcp);
        let e1 = q.add_edge(b, c, udp);
        let single0 = q.edge_primitive(e0);
        let wedge = q.wedge_primitive(e0, e1).unwrap();
        assert!(est.selectivity(&single0) > est.selectivity(&wedge));
    }
}
