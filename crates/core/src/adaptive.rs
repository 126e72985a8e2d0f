//! Adaptive re-decomposition: keeping registered queries' plans aligned
//! with a drifting stream.
//!
//! A query's SJ-Tree is built from the stream statistics at registration
//! time; on a drifting stream those statistics go stale and the engine keeps
//! searching a now-common leaf first. This module provides the plumbing the
//! [`ControlPlane`](crate::ControlPlane) closes the loop with:
//!
//! 1. a moving [`SelectivityEstimator`] ([`StatsMode::Decayed`]) keeps the
//!    statistics tracking the recent stream;
//! 2. a per-query [`DriftDetector`] (wrapped in [`QueryDriftState`]) watches
//!    the frequency ranking of the query's candidate primitives and the
//!    Relative Selectivity threshold side;
//! 3. when the detector fires, [`plan_query`] re-plans authoritatively —
//!    re-resolving `Auto` strategies and re-running the decomposition — and
//!    the caller swaps engines with
//!    [`ContinuousQueryEngine::rebuild`](crate::ContinuousQueryEngine::rebuild)
//!    only when the plan really changed ([`leaf_structure`] decides).
//!
//! [`StatsMode::Decayed`]: sp_selectivity::StatsMode

use crate::control::StrategySpec;
use crate::error::EngineError;
use crate::strategy::{choose_plan, Strategy, RELATIVE_SELECTIVITY_THRESHOLD};
use sp_query::{Primitive, QueryEdgeId, QueryGraph};
use sp_selectivity::{DriftConfig, DriftDetector, SelectivityEstimator};
use sp_sjtree::{decompose, PrimitivePolicy, SjTree};

/// Cumulative adaptivity counters of one [`ControlPlane`](crate::ControlPlane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Per-query drift checks evaluated.
    pub checks: u64,
    /// Checks whose detector fired (ranking or threshold-side movement).
    pub drifts_detected: u64,
    /// Engine rebuilds actually performed (detector fired *and* the
    /// authoritative re-plan differed from the active plan).
    pub redecompositions: u64,
}

/// Computes the authoritative plan for a query under the current statistics:
/// the strategy (re-resolving [`StrategySpec::Auto`] with the Relative
/// Selectivity rule) and the SJ-Tree it decomposes to.
///
/// # Errors
/// [`EngineError::RebuildMismatch`] for [`Strategy::Vf2Baseline`] (no
/// SJ-Tree to plan), or a decomposition error for empty queries.
pub fn plan_query(
    query: &QueryGraph,
    spec: StrategySpec,
    estimator: &SelectivityEstimator,
) -> Result<(Strategy, SjTree), EngineError> {
    match spec {
        StrategySpec::Fixed(strategy) => {
            let policy = strategy.policy().ok_or(EngineError::RebuildMismatch)?;
            Ok((strategy, decompose(query, policy, estimator)?))
        }
        StrategySpec::Auto => {
            let (choice, tree) = choose_plan(query, estimator, RELATIVE_SELECTIVITY_THRESHOLD)?;
            Ok((choice.strategy, tree))
        }
    }
}

/// The order-sensitive leaf structure of a tree: each leaf's (sorted) query
/// edge ids, in selectivity-rank order. Two plans over the same query are
/// interchangeable exactly when their strategy and leaf structure agree —
/// this is the comparison that decides whether a detected drift warrants an
/// engine rebuild.
pub fn leaf_structure(tree: &SjTree) -> Vec<Vec<QueryEdgeId>> {
    tree.leaf_subgraphs()
        .map(|sg| {
            let mut edges: Vec<QueryEdgeId> = sg.edges().collect();
            edges.sort_unstable();
            edges
        })
        .collect()
}

/// A replacement plan must beat the active one by at least this factor on
/// the [`plan_cost`] proxy before an engine rebuild (window replay) is paid
/// for. Mid-rank reorders among similarly selective leaves move the proxy
/// barely at all and are ignored; a genuine rank-0 flip (the hot leaf
/// becoming cold or vice versa) moves it by orders of magnitude. A strategy
/// change always rebuilds.
pub(crate) const REDECOMPOSITION_GAIN: f64 = 0.5;

/// Geometric down-weighting of later leaf ranks in [`plan_cost`].
const RANK_WEIGHT: f64 = 0.25;

/// Lazy-search cost proxy of a leaf order under the current statistics:
/// the selectivity of each leaf, geometrically down-weighted by rank. Rank 0
/// dominates because the lazy gate searches it for every dispatched edge
/// and its matches trigger the enablement cascade; later ranks only run
/// when enabled. The proxy deliberately depends on *order* — the Expected
/// Selectivity product does not, so it cannot rank two orderings of the
/// same leaves.
pub(crate) fn plan_cost(
    query: &QueryGraph,
    leaves: &[Vec<QueryEdgeId>],
    estimator: &SelectivityEstimator,
) -> f64 {
    let mut cost = 0.0;
    let mut weight = 1.0;
    for leaf in leaves {
        let s = match leaf.as_slice() {
            [e] => estimator.selectivity(&query.edge_primitive(*e)),
            [a, b] => query
                .wedge_primitive(*a, *b)
                .map(|p| estimator.selectivity(&p))
                .unwrap_or_else(|| {
                    leaf.iter()
                        .map(|&e| estimator.selectivity(&query.edge_primitive(e)))
                        .product()
                }),
            _ => leaf
                .iter()
                .map(|&e| estimator.selectivity(&query.edge_primitive(e)))
                .product(),
        };
        cost += s * weight;
        weight *= RANK_WEIGHT;
    }
    cost
}

/// Every primitive the decomposition could rank for this query: each
/// distinct single-edge primitive plus each distinct wedge its edge pairs
/// can form. Tracking the full candidate set (instead of just the current
/// leaves) lets the detector see a wedge overtaking a single edge before
/// the plan uses it.
fn tracked_primitives(query: &QueryGraph) -> Vec<Primitive> {
    let mut tracked: Vec<Primitive> = Vec::new();
    for e in query.edge_ids() {
        let p = query.edge_primitive(e);
        if !tracked.contains(&p) {
            tracked.push(p);
        }
    }
    let edges: Vec<QueryEdgeId> = query.edge_ids().collect();
    for (i, &a) in edges.iter().enumerate() {
        for &b in &edges[i + 1..] {
            if let Some(p) = query.wedge_primitive(a, b) {
                if !tracked.contains(&p) {
                    tracked.push(p);
                }
            }
        }
    }
    tracked
}

/// Leaf primitives of a query under one decomposition policy; used for the
/// detector's ξ baseline. Falls back to the single-edge primitives when the
/// decomposition fails (it cannot for registered queries).
fn leaf_primitives(
    query: &QueryGraph,
    policy: PrimitivePolicy,
    estimator: &SelectivityEstimator,
) -> Vec<Primitive> {
    match decompose(query, policy, estimator) {
        Ok(tree) => tree
            .leaf_subgraphs()
            .filter_map(|sg| sg.primitive(query))
            .collect(),
        Err(_) => query.edge_ids().map(|e| query.edge_primitive(e)).collect(),
    }
}

/// Per-query drift bookkeeping: a [`DriftDetector`] baselined on the active
/// plan. Owned by the [`ControlPlane`](crate::ControlPlane), one per
/// registered query with an SJ-Tree.
#[derive(Debug, Clone)]
pub(crate) struct QueryDriftState {
    detector: DriftDetector,
}

impl QueryDriftState {
    /// Creates the state for a freshly (re)planned query and baselines the
    /// detector on the current statistics.
    pub fn new(config: DriftConfig, query: &QueryGraph, estimator: &SelectivityEstimator) -> Self {
        let mut state = Self {
            detector: DriftDetector::new(config),
        };
        state.rebase(query, estimator);
        state
    }

    /// Re-baselines the detector against the current statistics: the
    /// ranking of the query's candidate primitives and the ξ threshold side
    /// of its two decompositions. Call after every plan change (and after
    /// an externally driven [`redecompose`](crate::StreamProcessor::redecompose)).
    pub fn rebase(&mut self, query: &QueryGraph, estimator: &SelectivityEstimator) {
        let tracked = tracked_primitives(query);
        let t1 = leaf_primitives(query, PrimitivePolicy::SingleEdge, estimator);
        let tk = leaf_primitives(query, PrimitivePolicy::TwoEdgePath, estimator);
        self.detector
            .rebase(estimator, tracked, tk, t1, RELATIVE_SELECTIVITY_THRESHOLD);
    }

    /// One drift check against the active plan of a query registered under
    /// `spec`. Returns the replacement `(strategy, tree)` when the detector
    /// confirms movement **and** the authoritative re-plan
    /// ([`plan_query`]) is *materially* better: the strategy changed,
    /// or the new leaf order beats the active one by
    /// [`REDECOMPOSITION_GAIN`] on the [`plan_cost`] proxy (an engine
    /// rebuild replays the retained window, so marginal reorders are not
    /// worth paying for — and on a stream mid-transition they would thrash).
    /// Returns `None` (re-baselining, so the movement becomes the new
    /// normal) otherwise. `drifted` reports whether the detector fired, for
    /// stats.
    pub fn check_plan(
        &mut self,
        query: &QueryGraph,
        spec: StrategySpec,
        current_strategy: Strategy,
        current_leaves: &[Vec<QueryEdgeId>],
        estimator: &SelectivityEstimator,
        drifted: &mut bool,
    ) -> Option<(Strategy, SjTree)> {
        *drifted = false;
        if !self.detector.check(estimator) {
            return None;
        }
        *drifted = true;
        let plan = plan_query(query, spec, estimator).ok()?;
        if plan.0 == current_strategy {
            let new_leaves = leaf_structure(&plan.1);
            if new_leaves == current_leaves {
                // The movement did not touch the plan: it is the new normal.
                self.rebase(query, estimator);
                return None;
            }
            let current_cost = plan_cost(query, current_leaves, estimator);
            let new_cost = plan_cost(query, &new_leaves, estimator);
            if new_cost > current_cost * REDECOMPOSITION_GAIN {
                // The plan wants to move but not (yet) materially — the
                // ranking typically first flips right at the selectivity
                // crossing point, where the two orders cost the same.
                // Deliberately keep the *old* baseline so the detector keeps
                // firing while the gap widens; once it clears the gain
                // threshold the rebuild below goes through.
                return None;
            }
        }
        self.rebase(query, estimator);
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{DynamicGraph, EdgeType, Schema, Timestamp};

    fn two_type_query(a: EdgeType, b: EdgeType) -> QueryGraph {
        let mut q = QueryGraph::new("chain");
        let v0 = q.add_any_vertex();
        let v1 = q.add_any_vertex();
        let v2 = q.add_any_vertex();
        q.add_edge(v0, v1, a);
        q.add_edge(v1, v2, b);
        q
    }

    fn estimator_with_mix(a: EdgeType, na: u64, b: EdgeType, nb: u64) -> SelectivityEstimator {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let mut g = DynamicGraph::new(schema);
        let mut est = SelectivityEstimator::new();
        let mut feed = |g: &mut DynamicGraph, t, n: u64| {
            for i in 0..n {
                let x = g.add_vertex(vt);
                let y = g.add_vertex(vt);
                let e = g.add_edge(x, y, t, Timestamp(i));
                est.observe_edge(g.edge(e).unwrap());
            }
        };
        feed(&mut g, a, na);
        feed(&mut g, b, nb);
        est
    }

    #[test]
    fn plan_query_resolves_auto_and_rejects_vf2() {
        let a = EdgeType(0);
        let b = EdgeType(1);
        let q = two_type_query(a, b);
        let est = estimator_with_mix(a, 90, b, 10);
        let (strategy, tree) = plan_query(&q, StrategySpec::Auto, &est).unwrap();
        assert!(strategy.is_lazy());
        assert_eq!(tree.query().num_edges(), 2);
        let (strategy, _) = plan_query(&q, StrategySpec::Fixed(Strategy::Path), &est).unwrap();
        assert_eq!(strategy, Strategy::Path);
        assert!(matches!(
            plan_query(&q, StrategySpec::Fixed(Strategy::Vf2Baseline), &est),
            Err(EngineError::RebuildMismatch)
        ));
    }

    #[test]
    fn leaf_structure_orders_by_rank() {
        let a = EdgeType(0);
        let b = EdgeType(1);
        let q = two_type_query(a, b);
        // b rare: the b-edge leaf (query edge 1) ranks first.
        let est = estimator_with_mix(a, 90, b, 10);
        let (_, tree) = plan_query(&q, StrategySpec::Fixed(Strategy::SingleLazy), &est).unwrap();
        assert_eq!(
            leaf_structure(&tree),
            vec![vec![QueryEdgeId(1)], vec![QueryEdgeId(0)]]
        );
        // Flip the mix: the leaf order flips with it.
        let est = estimator_with_mix(a, 10, b, 90);
        let (_, tree) = plan_query(&q, StrategySpec::Fixed(Strategy::SingleLazy), &est).unwrap();
        assert_eq!(
            leaf_structure(&tree),
            vec![vec![QueryEdgeId(0)], vec![QueryEdgeId(1)]]
        );
    }

    #[test]
    fn tracked_primitives_cover_edges_and_wedges() {
        let a = EdgeType(0);
        let q = two_type_query(a, a);
        let tracked = tracked_primitives(&q);
        // One distinct single-edge primitive + one wedge.
        assert_eq!(tracked.len(), 2);
        assert!(tracked.contains(&Primitive::SingleEdge(a)));
    }

    #[test]
    fn check_plan_fires_only_when_the_plan_changes() {
        let a = EdgeType(0);
        let b = EdgeType(1);
        let q = two_type_query(a, b);
        let est = estimator_with_mix(a, 90, b, 10);
        let cfg = DriftConfig {
            check_interval: 1,
            min_observations: 1,
        };
        let spec = StrategySpec::Fixed(Strategy::SingleLazy);
        let mut state = QueryDriftState::new(cfg, &q, &est);
        let (strategy, tree) = plan_query(&q, spec, &est).unwrap();
        let leaves = leaf_structure(&tree);

        // Same statistics: no drift, no plan.
        let mut drifted = false;
        assert!(state
            .check_plan(&q, spec, strategy, &leaves, &est, &mut drifted)
            .is_none());
        assert!(!drifted);

        // Inverted mix: drift fires and the re-plan flips the leaf order.
        let inverted = estimator_with_mix(a, 10, b, 90);
        let plan = state.check_plan(&q, spec, strategy, &leaves, &inverted, &mut drifted);
        assert!(drifted);
        let (new_strategy, new_tree) = plan.expect("plan must change");
        assert_eq!(new_strategy, strategy);
        assert_ne!(leaf_structure(&new_tree), leaves);

        // The detector re-baselined: the inverted mix is the new normal.
        let new_leaves = leaf_structure(&new_tree);
        assert!(state
            .check_plan(&q, spec, new_strategy, &new_leaves, &inverted, &mut drifted)
            .is_none());
        assert!(!drifted);
    }
}
