//! The selectivity estimator: single place the engine and the decomposition
//! ask "how frequent is this primitive?".

use crate::histogram::EdgeTypeHistogram;
use crate::paths::TwoEdgePathCounter;
use serde::{Deserialize, Serialize};
use sp_graph::{DynamicGraph, EdgeData};
use sp_query::Primitive;
use std::sync::Arc;

/// How the estimator weighs history when accumulating statistics.
///
/// The paper assumes the selectivity order is stable over the stream
/// (Section 5.1) and accumulates counts forever; that assumption breaks on
/// drifting streams, where a query registered early keeps a leaf ordering
/// the stream has since invalidated. [`StatsMode::Decayed`] turns the
/// estimator into a *moving* signal: every `interval` observed edges, every
/// count is halved, so the statistics form an exponentially weighted window
/// (weight `2^-k` for edges `k` intervals old) and a re-plan sees ranking
/// changes instead of being drowned out by history.
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
///
/// A clone is cheap: the wedge census, which holds a row per vertex seen
/// (7.1 MB on the `lsbench_calm` benchmark's sample), is shared
/// copy-on-write, and a clone copies only the 1-edge histogram. The census
/// is copied the first time one of the sharers changes it
/// ([`observe_edge`](SelectivityEstimator::observe_edge), or its decay
/// step); the others keep their counts. So a processor seeded with a clone
/// and run without live statistics reads the caller's census for the
/// whole stream.
#[derive(Debug, Clone, Default)]
pub struct SelectivityEstimator {
    edges: EdgeTypeHistogram,
    /// Shared with every clone until one of them observes an edge.
    paths: Arc<TwoEdgePathCounter>,
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
            paths: Arc::new(TwoEdgePathCounter::from_graph(graph)),
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
    /// of observed edges. A census shared with a clone is copied first, so
    /// the clone's counts stay as they were.
    ///
    /// # Count provenance
    ///
    /// A snapshot ([`SelectivityEstimator::from_graph`]) seeds the counts
    /// *and* the per-vertex incidence state the incremental update pairs new
    /// edges against, so observing only the edges that arrive after the
    /// snapshot continues the exact census. The estimator does **not**
    /// record which edges it has seen: observing an edge that was already in
    /// the snapshot counts it, and every wedge it closes, twice. Callers that
    /// need exact statistics of a graph build a fresh
    /// [`SelectivityEstimator::from_graph`]; the decayed mode tolerates a
    /// double count by design, since old weight — wherever it came from —
    /// halves away.
    pub fn observe_edge(&mut self, edge: &EdgeData) {
        self.edges.observe(edge.edge_type);
        let paths = Arc::make_mut(&mut self.paths);
        paths.observe_edge(edge);
        self.lifetime_observed += 1;
        if let StatsMode::Decayed(interval) = self.mode {
            self.since_decay += 1;
            if self.since_decay >= interval {
                self.since_decay = 0;
                self.edges.halve();
                paths.halve();
            }
        }
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
    fn a_clone_shares_the_census_until_one_side_changes_it() {
        let g = sample_graph();
        let tcp = g.schema().edge_type("tcp").unwrap();
        let udp = g.schema().edge_type("udp").unwrap();
        let wedge = Primitive::TwoEdgePath(TwoEdgePathCounter::signature(
            tcp,
            Direction::Outgoing,
            tcp,
            Direction::Outgoing,
        ));
        let probes = [
            Primitive::SingleEdge(tcp),
            Primitive::SingleEdge(udp),
            wedge,
        ];
        let readings = |e: &SelectivityEstimator| -> Vec<(u64, u64)> {
            probes
                .iter()
                .map(|p| (e.frequency(p), e.selectivity(p).to_bits()))
                .chain([(e.path_counter().total(), e.num_edges_observed())])
                .collect()
        };
        let edge = g.edges().next().unwrap();
        // Decayed(1) halves on every observed edge.
        for mode in [StatsMode::Cumulative, StatsMode::Decayed(1)] {
            let mut caller = SelectivityEstimator::from_graph(&g).with_mode(mode);
            let before = readings(&caller);
            let mut live = caller.clone();
            assert!(Arc::ptr_eq(&caller.paths, &live.paths), "{mode:?}");
            live.observe_edge(edge);
            assert!(!Arc::ptr_eq(&caller.paths, &live.paths), "{mode:?}");
            assert_eq!(readings(&caller), before, "{mode:?}: the caller moved");
            assert_ne!(readings(&live), before, "{mode:?}: the clone did not");
            // The other direction: the caller observing leaves the clone.
            let frozen = caller.clone();
            caller.observe_edge(edge);
            assert_eq!(readings(&frozen), before, "{mode:?}");
        }
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
