//! Adaptive re-decomposition: keeping registered queries' plans aligned
//! with a drifting stream.
//!
//! A query's SJ-Tree is built from the stream statistics at registration
//! time; on a drifting stream those statistics go stale and the engine keeps
//! searching a now-common leaf first. This module provides the pieces the
//! [`ControlPlane`](crate::control::ControlPlane) closes the loop with:
//!
//! 1. a moving [`SelectivityEstimator`] ([`StatsMode::Decayed`]) keeps the
//!    statistics tracking the recent stream;
//! 2. on each due check, [`plan_query`] re-plans the query from those
//!    statistics — re-resolving `Auto` strategies and re-running the
//!    decomposition;
//! 3. the re-plan replaces the live plan when it changes the strategy or
//!    its leaf order ([`leaf_structure`]) costs at most
//!    `REDECOMPOSITION_GAIN` times the live one by `plan_cost`; the caller
//!    then swaps engines with
//!    [`ContinuousQueryEngine::rebuild`](crate::ContinuousQueryEngine::rebuild).
//!
//! [`StatsMode::Decayed`]: sp_selectivity::StatsMode

use crate::control::StrategySpec;
use crate::error::EngineError;
use crate::strategy::{choose_plan, Strategy, RELATIVE_SELECTIVITY_THRESHOLD};
use sp_query::{QueryEdgeId, QueryGraph};
use sp_selectivity::SelectivityEstimator;
use sp_sjtree::{decompose, SjTree};

/// Cumulative adaptivity counters of one processor
/// ([`Processor::adaptive_stats`](crate::Processor::adaptive_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Per-query drift checks evaluated.
    pub checks: u64,
    /// Checks whose re-plan differed from the live plan, material or not.
    pub drifts_detected: u64,
    /// Engine rebuilds the drift checks ordered (the re-plan was materially
    /// better than the live plan): the only way a live plan changes.
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
/// this is the comparison a drift check makes before it weighs the costs.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlPlane;
    use sp_graph::{DynamicGraph, EdgeData, EdgeId, EdgeType, Schema, Timestamp, VertexId};
    use sp_selectivity::{DriftConfig, StatsMode};

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

    /// A control plane re-planning at every check, its statistics seeded
    /// with `est`, running `q` under `SingleLazy`.
    fn adaptive_control(q: &QueryGraph, est: SelectivityEstimator, min: u64) -> ControlPlane {
        let mut control = ControlPlane::new(1);
        control.set_estimator(est);
        control.set_adaptive(DriftConfig {
            check_interval: 1,
            min_observations: min,
        });
        control
            .plan(q.clone(), StrategySpec::Fixed(Strategy::SingleLazy), None)
            .unwrap();
        control
    }

    /// A fresh `ty` edge between two unseen vertices.
    fn edge(ty: EdgeType, i: u64, ts: u64) -> EdgeData {
        EdgeData {
            id: EdgeId(i),
            src: VertexId(2 * i),
            dst: VertexId(2 * i + 1),
            edge_type: ty,
            timestamp: Timestamp(ts),
        }
    }

    /// Feeds `n` fresh `ty` edges to the control plane's statistics.
    fn feed(control: &mut ControlPlane, ty: EdgeType, n: u64, base: u64) {
        for i in base..base + n {
            control.observe(&edge(ty, i, i));
        }
    }

    #[test]
    fn min_observations_gates_checks() {
        let (a, b) = (EdgeType(0), EdgeType(1));
        let q = two_type_query(a, b);
        let mut gated = adaptive_control(&q, estimator_with_mix(a, 5, b, 0), 1_000);
        let mut ungated = adaptive_control(&q, estimator_with_mix(a, 5, b, 0), 1);
        for control in [&mut gated, &mut ungated] {
            feed(control, b, 50, 10_000);
        }
        assert_eq!(ungated.check_drift().len(), 1, "the ranking flipped");
        assert!(gated.check_drift().is_empty(), "below min_observations");
        // A gated check still counts as a check, but re-plans nothing.
        let stats = gated.adaptive_stats();
        assert_eq!((stats.checks, stats.drifts_detected), (1, 0));
    }

    #[test]
    fn min_observations_gate_survives_decay() {
        // The decayed histogram total is capped near 2×interval, so gating
        // on it would stop re-planning whenever min_observations exceeds
        // that cap. The gate reads the lifetime count instead.
        let (a, b) = (EdgeType(0), EdgeType(1));
        let q = two_type_query(a, b);
        let interval = 64u64;
        let mut est = SelectivityEstimator::new().with_mode(StatsMode::Decayed(interval));
        for i in 0..100 {
            est.observe_edge(&edge(if i < 90 { a } else { b }, i, i));
        }
        let mut control = adaptive_control(&q, est, 300);
        // The mix inverts, but 250 edges are below the gate.
        feed(&mut control, b, 150, 10_000);
        assert!(control.check_drift().is_empty(), "not warmed up yet");
        // The lifetime count passes the gate long after the decayed total
        // has stopped growing, and the flip re-plans.
        feed(&mut control, b, 250, 20_000);
        let est = control.estimator();
        assert!(est.num_edges_observed() < 2 * interval, "decay cap holds");
        assert!(est.lifetime_edges_observed() >= 300);
        assert_eq!(control.check_drift().len(), 1);
    }

    #[test]
    fn stable_stream_never_replans() {
        let (a, b) = (EdgeType(0), EdgeType(1));
        let q = two_type_query(a, b);
        let mut control = adaptive_control(&q, estimator_with_mix(a, 90, b, 10), 1);
        for round in 0..5u64 {
            feed(&mut control, a, 90, 100_000 * round);
            feed(&mut control, b, 10, 100_000 * round + 50_000);
            assert!(control.check_drift().is_empty(), "re-planned at {round}");
        }
        let stats = control.adaptive_stats();
        assert_eq!((stats.checks, stats.drifts_detected), (5, 0));
    }

    #[test]
    fn check_plan_fires_only_when_the_plan_changes() {
        let (a, b) = (EdgeType(0), EdgeType(1));
        let q = two_type_query(a, b);
        let est = estimator_with_mix(a, 90, b, 10);
        let (_, tree) = plan_query(&q, StrategySpec::Fixed(Strategy::SingleLazy), &est).unwrap();
        let live = leaf_structure(&tree);
        let mut control = adaptive_control(&q, est, 1);
        assert!(control.check_drift().is_empty(), "same statistics");

        // The mix inverts: the re-plan flips the leaf order and rebuilds.
        control.set_estimator(estimator_with_mix(a, 10, b, 90));
        let plans = control.check_drift();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].2, Strategy::SingleLazy);
        assert_ne!(leaf_structure(&plans[0].3), live);

        // The rebuilt plan is live: the inverted mix is the new normal.
        assert!(control.check_drift().is_empty());
        let stats = control.adaptive_stats();
        assert_eq!(
            (stats.checks, stats.drifts_detected, stats.redecompositions),
            (3, 1, 1)
        );
    }

    #[test]
    fn a_marginal_reorder_is_a_drift_but_not_a_rebuild() {
        // Right at the selectivity crossing both orders cost about the
        // same: the re-plan differs, yet it does not clear the gain.
        let (a, b) = (EdgeType(0), EdgeType(1));
        let q = two_type_query(a, b);
        let mut control = adaptive_control(&q, estimator_with_mix(a, 55, b, 45), 1);
        control.set_estimator(estimator_with_mix(a, 45, b, 55));
        assert!(control.check_drift().is_empty());
        let stats = control.adaptive_stats();
        assert_eq!((stats.drifts_detected, stats.redecompositions), (1, 0));
    }

    #[test]
    fn equal_frequencies_never_flap() {
        let (a, b) = (EdgeType(0), EdgeType(1));
        let q = two_type_query(a, b);
        let mut control = adaptive_control(&q, estimator_with_mix(a, 50, b, 50), 1);
        // Keep the counts tied while the stream advances.
        for round in 0..5u64 {
            feed(&mut control, a, 7, 100_000 * round);
            feed(&mut control, b, 7, 100_000 * round + 50_000);
            assert!(control.check_drift().is_empty(), "flapped at {round}");
        }
        assert_eq!(control.adaptive_stats().drifts_detected, 0);
    }

    #[test]
    fn out_of_order_timestamps_do_not_affect_replanning() {
        // Re-planning is count-driven: the same edge multiset under
        // scrambled timestamps is the same plan.
        let q = two_type_query(EdgeType(0), EdgeType(1));
        let stream = |scramble: bool| {
            let mut est = SelectivityEstimator::new();
            for i in 0..60u64 {
                let ts = if scramble { (i * 37) % 11 } else { i };
                est.observe_edge(&edge(EdgeType((i % 3 == 0) as u32), i, ts));
            }
            est
        };
        let mut control = adaptive_control(&q, stream(false), 1);
        control.set_estimator(stream(true));
        assert!(control.check_drift().is_empty());
        assert_eq!(control.adaptive_stats().drifts_detected, 0);
    }
}
