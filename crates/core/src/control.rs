//! The control plane: every decision the paper derives from the stream
//! statistics, made in one place ([`ControlPlane`]).

use crate::adaptive::{leaf_structure, plan_query, AdaptiveStats, QueryDriftState};
use crate::engine::ContinuousQueryEngine;
use crate::error::EngineError;
use crate::lazy::MAX_LEAVES;
use crate::registry::{retention_for_windows, QueryId, StrategySpec};
use crate::strategy::Strategy;
use sp_graph::EdgeData;
use sp_query::{QueryEdgeId, QueryGraph};
use sp_selectivity::{DriftConfig, SelectivityEstimator};
use sp_sjtree::SjTree;
use std::collections::BTreeMap;

/// What the control plane remembers about one registered query.
#[derive(Debug, Clone)]
struct Planned {
    query: QueryGraph,
    /// The registration spec, kept so `Auto` stays auto across re-plans no
    /// matter when adaptivity is switched on.
    spec: StrategySpec,
    window: Option<u64>,
    /// The plan live on the data half — strategy plus order-sensitive
    /// [`leaf_structure`] — which re-plans are compared against (the engine
    /// itself may be on another thread). `None` for the VF2 baseline.
    plan: Option<(Strategy, Vec<Vec<QueryEdgeId>>)>,
    /// Present while adaptivity is on and the query has an SJ-Tree.
    drift: Option<QueryDriftState>,
}

/// The drift-check cadence and counters, present while adaptivity is on.
#[derive(Debug, Clone)]
struct Adaptive {
    config: DriftConfig,
    /// Accepted edges since the cadence last came due.
    since_check: u64,
    stats: AdaptiveStats,
}

/// The statistics-driven planner in front of the executors.
///
/// Decomposing by selectivity, choosing PathLazy or SingleLazy by Relative
/// Selectivity (§6.5) and re-planning when the statistics move are all
/// functions of one [`SelectivityEstimator`]. The control plane owns that
/// estimator and everything decided from it — query ids, each query's
/// [`StrategySpec`], window and live plan, the drift detectors and their
/// cadence, and the graph retention window — and executes nothing: edges run
/// on a data half ([`Shard`](crate::Shard)) that is told what to register,
/// what to retain and what to rebuild.
///
/// The sequential [`StreamProcessor`](crate::StreamProcessor) is a control
/// plane plus one shard applied inline; the parallel runtime is the same
/// control plane plus shard placement plus N shards behind channels. Ids,
/// strategies, retention and re-plans therefore agree between the two by
/// construction.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    estimator: SelectivityEstimator,
    collect_statistics: bool,
    next_id: u64,
    /// By id, so drift checks run in registration order.
    queries: BTreeMap<QueryId, Planned>,
    retention: Option<u64>,
    adaptive: Option<Adaptive>,
}

impl Default for ControlPlane {
    fn default() -> Self {
        Self {
            estimator: SelectivityEstimator::new(),
            collect_statistics: true,
            next_id: 0,
            queries: BTreeMap::new(),
            retention: None,
            adaptive: None,
        }
    }
}

impl ControlPlane {
    /// An empty control plane: no statistics yet, live collection on,
    /// adaptivity off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches live statistics collection ([`ControlPlane::observe`]) on
    /// or off. Off reproduces the paper's methodology, where statistics
    /// come from a stream prefix only.
    pub fn set_statistics(&mut self, enabled: bool) {
        self.collect_statistics = enabled;
    }

    /// Replaces the stream statistics, e.g. with a prefix-seeded estimator.
    pub fn set_estimator(&mut self, estimator: SelectivityEstimator) {
        self.estimator = estimator;
    }

    /// The stream statistics every decision is made from.
    pub fn estimator(&self) -> &SelectivityEstimator {
        &self.estimator
    }

    /// Switches drift-adaptive re-planning on: every already registered
    /// query with an SJ-Tree gets a detector baselined on the current
    /// statistics, under its original spec.
    pub fn set_adaptive(&mut self, config: DriftConfig) {
        for planned in self.queries.values_mut() {
            planned.drift = planned
                .plan
                .is_some()
                .then(|| QueryDriftState::new(config, &planned.query, &self.estimator));
        }
        self.adaptive = Some(Adaptive {
            config,
            since_check: 0,
            stats: AdaptiveStats::default(),
        });
    }

    /// Cumulative adaptivity counters (zeroes while adaptivity is off).
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        self.adaptive.as_ref().map(|a| a.stats).unwrap_or_default()
    }

    /// Takes note of one accepted stream edge: feeds the statistics (when
    /// collection is on) and advances the drift cadence.
    pub fn observe(&mut self, edge: &EdgeData) {
        if self.collect_statistics {
            self.estimator.observe_edge(edge);
        }
        if let Some(adaptive) = self.adaptive.as_mut() {
            adaptive.since_check += 1;
        }
    }

    /// Whether [`DriftConfig::check_interval`] edges have been observed
    /// since this last returned `true`. Each front end asks at its own
    /// cadence — the sequential processor after every edge, the runtime at
    /// batch boundaries — and runs [`ControlPlane::check_drift`] on `true`.
    pub fn drift_due(&mut self) -> bool {
        match self.adaptive.as_mut() {
            Some(a) if a.since_check >= a.config.check_interval => {
                a.since_check = 0;
                true
            }
            _ => false,
        }
    }

    /// Plans a new query against the current statistics — the strategy (or
    /// the Relative Selectivity choice for [`StrategySpec::Auto`]) and its
    /// decomposition, via [`plan_query`] — and returns the engine built on
    /// that plan together with its freshly allocated id.
    ///
    /// # Errors
    /// A decomposition error for empty queries,
    /// [`EngineError::DisconnectedQuery`] for a disconnected VF2 query,
    /// [`EngineError::TooManyLeaves`] past the lazy bitmap capacity. A
    /// failed plan consumes no id.
    pub fn plan(
        &mut self,
        query: QueryGraph,
        spec: StrategySpec,
        window: Option<u64>,
    ) -> Result<(QueryId, ContinuousQueryEngine), EngineError> {
        let engine = if spec == StrategySpec::Fixed(Strategy::Vf2Baseline) {
            // No SJ-Tree to plan.
            ContinuousQueryEngine::new(query, Strategy::Vf2Baseline, &self.estimator, window)?
        } else {
            let (strategy, tree) = plan_query(&query, spec, &self.estimator)?;
            ContinuousQueryEngine::from_plan(strategy, tree, window)?
        };
        Ok((self.record(&engine, spec), engine))
    }

    /// Takes a pre-built engine (custom decompositions, replayed trees)
    /// under control and returns its id. Its current strategy counts as a
    /// `Fixed` registration: drift may re-order its leaves but never change
    /// the strategy.
    pub fn adopt(&mut self, engine: &ContinuousQueryEngine) -> QueryId {
        self.record(engine, StrategySpec::Fixed(engine.strategy()))
    }

    /// The one place a [`QueryId`] is allocated.
    fn record(&mut self, engine: &ContinuousQueryEngine, spec: StrategySpec) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let plan = engine
            .tree()
            .map(|tree| (engine.strategy(), leaf_structure(tree)));
        let config = self.adaptive.as_ref().map(|a| a.config);
        let drift = config
            .filter(|_| plan.is_some())
            .map(|config| QueryDriftState::new(config, engine.query(), &self.estimator));
        self.queries.insert(
            id,
            Planned {
                query: engine.query().clone(),
                spec,
                window: engine.window(),
                plan,
                drift,
            },
        );
        self.refresh_retention();
        id
    }

    /// Drops a query (a no-op for an unknown id).
    pub fn forget(&mut self, id: QueryId) {
        self.queries.remove(&id);
        self.refresh_retention();
    }

    /// The last query leaving keeps the current retention (rather than
    /// reverting to "retain everything"), so an idle system does not
    /// accumulate edges forever; the next registration recomputes it.
    fn refresh_retention(&mut self) {
        if !self.queries.is_empty() {
            self.retention = retention_for_windows(self.queries.values().map(|p| p.window));
        }
    }

    /// How long every data graph must retain edges: the largest window
    /// across registered queries, `None` (retain everything) when any query
    /// is unwindowed or none was ever registered. Each engine still filters
    /// and purges with its own, possibly smaller, `tW`.
    pub fn retention(&self) -> Option<u64> {
        self.retention
    }

    /// One drift check over every registered query, in id order: where the
    /// detector confirms movement and the authoritative re-plan
    /// ([`plan_query`]) changes the strategy or beats the live plan by
    /// [`REDECOMPOSITION_GAIN`](crate::REDECOMPOSITION_GAIN), the new plan
    /// is recorded as live and returned for the caller to apply to the data
    /// half that runs the query. Empty while adaptivity is off.
    pub fn check_drift(&mut self) -> Vec<(QueryId, Strategy, SjTree)> {
        let Some(adaptive) = self.adaptive.as_mut() else {
            return Vec::new();
        };
        let mut plans = Vec::new();
        for (&id, planned) in &mut self.queries {
            let (Some(drift), Some((strategy, leaves))) =
                (planned.drift.as_mut(), planned.plan.as_mut())
            else {
                continue;
            };
            adaptive.stats.checks += 1;
            let mut drifted = false;
            let plan = drift.check_plan(
                &planned.query,
                planned.spec,
                *strategy,
                leaves,
                &self.estimator,
                &mut drifted,
            );
            if drifted {
                adaptive.stats.drifts_detected += 1;
            }
            // A plan no engine could be rebuilt onto (the lazy bitmap's leaf
            // cap) is dropped; the active plan stays.
            let Some((new_strategy, tree)) = plan.filter(|(_, t)| t.num_leaves() <= MAX_LEAVES)
            else {
                continue;
            };
            *strategy = new_strategy;
            *leaves = leaf_structure(&tree);
            adaptive.stats.redecompositions += 1;
            plans.push((id, new_strategy, tree));
        }
        plans
    }

    /// Records a plan that was applied to a query from outside the drift
    /// path (an explicit `redecompose`): it becomes the plan re-plans are
    /// compared against, and the query's detector is re-baselined on the
    /// current statistics.
    pub fn replanned(&mut self, id: QueryId, strategy: Strategy, tree: &SjTree) {
        let Some(planned) = self.queries.get_mut(&id) else {
            return;
        };
        planned.plan = Some((strategy, leaf_structure(tree)));
        if let Some(drift) = planned.drift.as_mut() {
            drift.rebase(&planned.query, &self.estimator);
        }
        if let Some(adaptive) = self.adaptive.as_mut() {
            adaptive.stats.redecompositions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::EdgeType;

    fn engine(window: Option<u64>) -> ContinuousQueryEngine {
        let mut q = QueryGraph::new("q");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        q.add_edge(a, b, EdgeType(0));
        let est = SelectivityEstimator::new();
        ContinuousQueryEngine::new(q, Strategy::SingleLazy, &est, window).unwrap()
    }

    #[test]
    fn retention_is_the_max_window_and_survives_the_last_forget() {
        let mut control = ControlPlane::new();
        assert_eq!(control.retention(), None);
        let narrow = control.adopt(&engine(Some(10)));
        assert_eq!(control.retention(), Some(10));
        let wide = control.adopt(&engine(Some(500)));
        assert_eq!(control.retention(), Some(500));
        let unbounded = control.adopt(&engine(None));
        assert_eq!(control.retention(), None);
        control.forget(wide);
        assert_eq!(control.retention(), None);
        control.forget(unbounded);
        assert_eq!(control.retention(), Some(10));
        // The last query leaving keeps the window in force.
        control.forget(narrow);
        assert_eq!(control.retention(), Some(10));
    }

    #[test]
    fn failed_plans_consume_no_id_and_auto_is_planned_once() {
        let mut control = ControlPlane::new();
        let empty = QueryGraph::new("empty");
        assert!(control.plan(empty, StrategySpec::Auto, None).is_err());
        let q = engine(None).query().clone();
        let (id, planned) = control
            .plan(q.clone(), StrategySpec::Auto, Some(7))
            .unwrap();
        assert_eq!(id, QueryId(0));
        assert!(planned.strategy().is_lazy());
        assert_eq!(planned.window(), Some(7));
        let (id, vf2) = control
            .plan(q, StrategySpec::Fixed(Strategy::Vf2Baseline), None)
            .unwrap();
        assert_eq!(id, QueryId(1));
        assert!(vf2.tree().is_none());
    }
}
