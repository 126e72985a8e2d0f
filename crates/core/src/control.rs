//! The control plane: every decision the paper derives from the stream
//! statistics, made in one place ([`ControlPlane`]).

use crate::adaptive::{leaf_structure, plan_cost, plan_query, AdaptiveStats, REDECOMPOSITION_GAIN};
use crate::engine::ContinuousQueryEngine;
use crate::error::EngineError;
use crate::lazy::MAX_LEAVES;
use crate::strategy::Strategy;
use sp_graph::EdgeData;
use sp_query::{QueryEdgeId, QueryGraph};
use sp_selectivity::{DriftConfig, SelectivityEstimator};
use sp_sjtree::SjTree;
use std::collections::BTreeMap;
use std::fmt;

/// Stable identifier of a registered continuous query. Ids are handed out by
/// the processor's control plane and never reused, even after the query is
/// deregistered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// How a query's execution strategy is chosen at registration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategySpec {
    /// Use the given strategy as-is.
    Fixed(Strategy),
    /// Choose between `SingleLazy` and `PathLazy` with the Relative
    /// Selectivity rule of Section 6.5, evaluated against the stream
    /// statistics the processor has collected so far.
    Auto,
}

impl From<Strategy> for StrategySpec {
    fn from(s: Strategy) -> Self {
        StrategySpec::Fixed(s)
    }
}

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
    /// The shard that runs the query.
    shard: usize,
    /// The cost the query added to its shard's load.
    cost: f64,
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
/// Selectivity (§6.5), re-planning when the statistics move and placing a
/// query on a shard are all functions of one [`SelectivityEstimator`]. The
/// control plane owns that estimator and everything decided from it — query
/// ids, each query's [`StrategySpec`], window, live plan and shard, the
/// shards' loads, the drift-check cadence, and the graph retention window —
/// and executes nothing: edges run on the [`Shard`](crate::Shard)s of its
/// [`Processor`](crate::Processor), which tell them what to register, what
/// to retain and what to rebuild, through whichever executor runs them.
/// Placement is the rule [`Processor`](crate::Processor) documents.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    estimator: SelectivityEstimator,
    collect_statistics: bool,
    next_id: u64,
    /// By id, so drift checks run in registration order.
    queries: BTreeMap<QueryId, Planned>,
    /// Per shard, the summed placement cost of the queries it hosts.
    loads: Vec<f64>,
    retention: Option<u64>,
    adaptive: Option<Adaptive>,
}

impl ControlPlane {
    /// An empty control plane over `shards` shards (at least one): no
    /// statistics yet, live collection on, adaptivity off.
    pub fn new(shards: usize) -> Self {
        Self {
            estimator: SelectivityEstimator::new(),
            collect_statistics: true,
            next_id: 0,
            queries: BTreeMap::new(),
            loads: vec![0.0; shards],
            retention: None,
            adaptive: None,
        }
    }

    /// Switches live statistics collection ([`ControlPlane::observe`]) on
    /// or off. Off reproduces the paper's methodology, where statistics
    /// come from a stream prefix only.
    pub fn set_statistics(&mut self, enabled: bool) {
        self.collect_statistics = enabled;
    }

    /// Replaces the stream statistics, e.g. with a prefix-seeded estimator.
    /// A clone of the caller's estimator shares its wedge census: the copy
    /// is made by the first edge [`ControlPlane::observe`] feeds it, so
    /// with statistics off the census exists once for the whole stream.
    pub fn set_estimator(&mut self, estimator: SelectivityEstimator) {
        self.estimator = estimator;
    }

    /// The stream statistics every decision is made from.
    pub fn estimator(&self) -> &SelectivityEstimator {
        &self.estimator
    }

    /// Switches drift-adaptive re-planning on: from the next due check,
    /// every registered query with an SJ-Tree is re-planned under its
    /// original spec, whenever it was registered.
    pub fn set_adaptive(&mut self, config: DriftConfig) {
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
    /// since this last returned `true` (asked after every edge inline, at
    /// batch boundaries on threads).
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
    /// that plan together with its freshly allocated id and its shard.
    ///
    /// # Errors
    /// A decomposition error for empty queries,
    /// [`EngineError::DisconnectedQuery`] for a disconnected query under the
    /// VF2 baseline or a lazy strategy (which `Auto` always picks),
    /// [`EngineError::TooManyLeaves`] past the lazy bitmap capacity. A
    /// failed plan consumes no id.
    pub fn plan(
        &mut self,
        query: QueryGraph,
        spec: StrategySpec,
        window: Option<u64>,
    ) -> Result<(QueryId, usize, ContinuousQueryEngine), EngineError> {
        let engine = if spec == StrategySpec::Fixed(Strategy::Vf2Baseline) {
            // No SJ-Tree to plan.
            ContinuousQueryEngine::new(query, Strategy::Vf2Baseline, &self.estimator, window)?
        } else {
            let (strategy, tree) = plan_query(&query, spec, &self.estimator)?;
            ContinuousQueryEngine::from_plan(strategy, tree, window)?
        };
        let (id, shard) = self.record(&engine, spec);
        Ok((id, shard, engine))
    }

    /// Takes a pre-built engine (custom decompositions, replayed trees)
    /// under control and returns its id and shard. Its current strategy
    /// counts as a `Fixed` registration: drift may re-order its leaves but
    /// never change the strategy. Its tree is judged at the next due check
    /// like any planned one, so a custom leaf order the planner beats
    /// materially is rebuilt.
    pub fn adopt(&mut self, engine: &ContinuousQueryEngine) -> (QueryId, usize) {
        self.record(engine, StrategySpec::Fixed(engine.strategy()))
    }

    /// The one place a [`QueryId`] is allocated and a shard picked: the
    /// first least-loaded one takes the query's cost.
    fn record(&mut self, engine: &ContinuousQueryEngine, spec: StrategySpec) -> (QueryId, usize) {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let plan = engine
            .tree()
            .map(|tree| (engine.strategy(), leaf_structure(tree)));
        // The floor keeps a shard from absorbing unboundedly many "free"
        // queries: even a never-dispatched query costs shard space.
        let cost = self.estimator.estimate_query_cost(engine.query()).max(1e-6);
        let loads = &self.loads;
        let shard = (0..loads.len())
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("a control plane has at least one shard");
        self.loads[shard] += cost;
        self.queries.insert(
            id,
            Planned {
                query: engine.query().clone(),
                spec,
                window: engine.window(),
                plan,
                shard,
                cost,
            },
        );
        self.refresh_retention();
        (id, shard)
    }

    /// Drops a query, releasing its cost from its shard's load, and returns
    /// that shard (`None` for an unknown id).
    pub fn forget(&mut self, id: QueryId) -> Option<usize> {
        let Planned { shard, cost, .. } = self.queries.remove(&id)?;
        self.loads[shard] = (self.loads[shard] - cost).max(0.0);
        self.refresh_retention();
        Some(shard)
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Ids of the registered queries, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries.keys().copied().collect()
    }

    /// The shard a registered query runs on.
    pub fn shard_of(&self, id: QueryId) -> Option<usize> {
        self.queries.get(&id).map(|p| p.shard)
    }

    /// The current load of every shard, in shard order: the summed
    /// placement costs of the queries each hosts.
    pub fn loads(&self) -> &[f64] {
        &self.loads
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

    /// One drift check over every registered query with an SJ-Tree, in id
    /// order. Once the statistics have seen
    /// [`DriftConfig::min_observations`] edges, each query is re-planned
    /// ([`plan_query`]); a re-plan that changes the strategy, or whose leaf
    /// order costs at most `REDECOMPOSITION_GAIN` times the live one by
    /// `plan_cost`, is recorded as live and returned, with the shard that
    /// runs the query, for the caller to apply there. Empty while adaptivity
    /// is off.
    pub fn check_drift(&mut self) -> Vec<(QueryId, usize, Strategy, SjTree)> {
        let Some(adaptive) = self.adaptive.as_mut() else {
            return Vec::new();
        };
        let warm = adaptive.config.is_warm(&self.estimator);
        let mut plans = Vec::new();
        for (&id, planned) in &mut self.queries {
            let Some((strategy, leaves)) = planned.plan.as_mut() else {
                continue;
            };
            adaptive.stats.checks += 1;
            if !warm {
                continue;
            }
            let Ok((new_strategy, tree)) =
                plan_query(&planned.query, planned.spec, &self.estimator)
            else {
                continue;
            };
            let new_leaves = leaf_structure(&tree);
            if new_strategy == *strategy && new_leaves == *leaves {
                continue;
            }
            adaptive.stats.drifts_detected += 1;
            // A reorder first shows right at the selectivity crossing, where
            // both orders cost the same: it waits until it clears the gain.
            // A plan no engine could be rebuilt onto (the lazy bitmap's leaf
            // cap) is dropped; the live plan stays.
            let material = new_strategy != *strategy
                || plan_cost(&planned.query, &new_leaves, &self.estimator)
                    <= plan_cost(&planned.query, leaves, &self.estimator) * REDECOMPOSITION_GAIN;
            if !material || tree.num_leaves() > MAX_LEAVES {
                continue;
            }
            *strategy = new_strategy;
            *leaves = new_leaves;
            adaptive.stats.redecompositions += 1;
            plans.push((id, planned.shard, new_strategy, tree));
        }
        plans
    }
}

/// The graph retention window implied by a set of per-query windows: the
/// maximum `tW`, or `None` (retain everything) when any window is `None` or
/// the set is empty. This is the single encoding of the retention rule: the
/// [`ControlPlane`] applies it to the registered queries, the shared join
/// stage to a prefix table's subscribers.
pub(crate) fn retention_for_windows<I>(windows: I) -> Option<u64>
where
    I: IntoIterator<Item = Option<u64>>,
{
    let mut max = 0u64;
    let mut any = false;
    for window in windows {
        match window {
            None => return None,
            Some(w) => {
                any = true;
                max = max.max(w);
            }
        }
    }
    if any {
        Some(max)
    } else {
        None
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
        let mut control = ControlPlane::new(1);
        assert_eq!(control.retention(), None);
        let (narrow, _) = control.adopt(&engine(Some(10)));
        assert_eq!(control.retention(), Some(10));
        let (wide, _) = control.adopt(&engine(Some(500)));
        assert_eq!(control.retention(), Some(500));
        let (unbounded, _) = control.adopt(&engine(None));
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
    fn retention_rule_helper_matches_control_plane_semantics() {
        assert_eq!(retention_for_windows([]), None);
        assert_eq!(retention_for_windows([Some(10)]), Some(10));
        assert_eq!(retention_for_windows([Some(10), Some(500)]), Some(500));
        assert_eq!(retention_for_windows([Some(10), None]), None);
    }

    #[test]
    fn failed_plans_consume_no_id_and_auto_is_planned_once() {
        let mut control = ControlPlane::new(1);
        let empty = QueryGraph::new("empty");
        assert!(control.plan(empty, StrategySpec::Auto, None).is_err());
        let q = engine(None).query().clone();
        let (id, _, planned) = control
            .plan(q.clone(), StrategySpec::Auto, Some(7))
            .unwrap();
        assert_eq!(id, QueryId(0));
        assert!(planned.strategy().is_lazy());
        assert_eq!(planned.window(), Some(7));
        let (id, _, vf2) = control
            .plan(q, StrategySpec::Fixed(Strategy::Vf2Baseline), None)
            .unwrap();
        assert_eq!(id, QueryId(1));
        assert!(vf2.tree().is_none());
    }
}
