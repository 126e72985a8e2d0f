//! Query-execution strategies and the automatic strategy selector.
//!
//! The evaluation (Section 6.4) compares four SJ-Tree strategies — the cross
//! product of {1-edge, 2-edge path} decomposition and {track-everything,
//! lazy} search — against a non-incremental VF2 baseline. Section 6.5 then
//! derives a selection heuristic from the Relative Selectivity distribution:
//! "PathLazy strategy could be employed for queries with relative selectivity
//! below 0.001, and SingleLazy be employed for queries above 0.001".

use serde::{Deserialize, Serialize};
use sp_query::QueryGraph;
use sp_selectivity::SelectivityEstimator;
use sp_sjtree::{decompose, expected_selectivity, DecompositionError, PrimitivePolicy, SjTree};
use std::fmt;

/// The Relative Selectivity threshold below which the 2-edge ("PathLazy")
/// strategy is preferred (Section 6.5).
pub const RELATIVE_SELECTIVITY_THRESHOLD: f64 = 1e-3;

/// A query-execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// 1-edge decomposition, track every matching subgraph.
    Single,
    /// 1-edge decomposition with Lazy Search.
    SingleLazy,
    /// 2-edge path decomposition, track every matching subgraph.
    Path,
    /// 2-edge path decomposition with Lazy Search.
    PathLazy,
    /// Non-incremental baseline: full VF2 subgraph isomorphism over the
    /// current graph on every new edge.
    Vf2Baseline,
}

impl Strategy {
    /// All strategies, in the order the paper's plots list them.
    pub const ALL: [Strategy; 5] = [
        Strategy::Path,
        Strategy::Single,
        Strategy::PathLazy,
        Strategy::SingleLazy,
        Strategy::Vf2Baseline,
    ];

    /// The SJ-Tree strategies (everything except the VF2 baseline).
    pub const SJ_TREE: [Strategy; 4] = [
        Strategy::Path,
        Strategy::Single,
        Strategy::PathLazy,
        Strategy::SingleLazy,
    ];

    /// The decomposition policy behind the strategy, `None` for the VF2
    /// baseline.
    pub fn policy(self) -> Option<PrimitivePolicy> {
        match self {
            Strategy::Single | Strategy::SingleLazy => Some(PrimitivePolicy::SingleEdge),
            Strategy::Path | Strategy::PathLazy => Some(PrimitivePolicy::TwoEdgePath),
            Strategy::Vf2Baseline => None,
        }
    }

    /// Whether the strategy uses the Lazy Search bitmap.
    pub fn is_lazy(self) -> bool {
        matches!(self, Strategy::SingleLazy | Strategy::PathLazy)
    }

    /// The tag used in the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Single => "Single",
            Strategy::SingleLazy => "SingleLazy",
            Strategy::Path => "Path",
            Strategy::PathLazy => "PathLazy",
            Strategy::Vf2Baseline => "VF2",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of the automatic strategy selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyChoice {
    /// The selected strategy.
    pub strategy: Strategy,
    /// Relative Selectivity ξ(T_path, T_single) of the query under the given
    /// statistics.
    pub relative_selectivity: f64,
    /// Expected Selectivity of the 2-edge decomposition.
    pub expected_path: f64,
    /// Expected Selectivity of the 1-edge decomposition.
    pub expected_single: f64,
}

/// Chooses between `SingleLazy` and `PathLazy` for a query using the
/// Relative Selectivity rule of Section 6.5: build both decompositions,
/// compute ξ = Ŝ(T_path)/Ŝ(T_single), and pick `PathLazy` when
/// ξ < [`RELATIVE_SELECTIVITY_THRESHOLD`].
pub fn choose_strategy(
    query: &QueryGraph,
    estimator: &SelectivityEstimator,
    threshold: f64,
) -> Result<StrategyChoice, DecompositionError> {
    choose_plan(query, estimator, threshold).map(|(choice, _)| choice)
}

/// [`choose_strategy`], keeping the chosen decomposition: the rule has to
/// build both trees to compare them, so the planner
/// ([`plan_query`](crate::plan_query)) takes the winner instead of
/// decomposing a third time.
pub(crate) fn choose_plan(
    query: &QueryGraph,
    estimator: &SelectivityEstimator,
    threshold: f64,
) -> Result<(StrategyChoice, SjTree), DecompositionError> {
    let single = decompose(query, PrimitivePolicy::SingleEdge, estimator)?;
    let path = decompose(query, PrimitivePolicy::TwoEdgePath, estimator)?;
    let s_single = expected_selectivity(&single, estimator);
    let s_path = expected_selectivity(&path, estimator);
    let xi = s_path.relative_to(&s_single);
    let (strategy, tree) = if xi < threshold {
        (Strategy::PathLazy, path)
    } else {
        (Strategy::SingleLazy, single)
    };
    let choice = StrategyChoice {
        strategy,
        relative_selectivity: xi,
        expected_path: s_path.expected,
        expected_single: s_single.expected,
    };
    Ok((choice, tree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{DynamicGraph, Schema, Timestamp};

    #[test]
    fn policy_and_laziness_mapping() {
        assert_eq!(Strategy::Single.policy(), Some(PrimitivePolicy::SingleEdge));
        assert_eq!(
            Strategy::PathLazy.policy(),
            Some(PrimitivePolicy::TwoEdgePath)
        );
        assert_eq!(Strategy::Vf2Baseline.policy(), None);
        assert!(Strategy::SingleLazy.is_lazy());
        assert!(Strategy::PathLazy.is_lazy());
        assert!(!Strategy::Single.is_lazy());
        assert!(!Strategy::Vf2Baseline.is_lazy());
    }

    #[test]
    fn labels_match_the_paper() {
        let labels: Vec<&str> = Strategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["Path", "Single", "PathLazy", "SingleLazy", "VF2"]
        );
        assert_eq!(Strategy::PathLazy.to_string(), "PathLazy");
    }

    /// A stream where both query edge types are common but the specific
    /// 2-edge combination the query needs is vanishingly rare: the Relative
    /// Selectivity is tiny and the selector must pick PathLazy. This is the
    /// netflow-shaped case of Figure 10.
    #[test]
    fn selector_picks_path_lazy_for_rare_wedges() {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let esp = schema.intern_edge_type("esp");
        let mut g = DynamicGraph::new(schema);
        // Two disjoint hubs: one fans out esp edges, one fans out tcp edges,
        // so esp-in/tcp-out wedges are almost nonexistent even though both
        // types are plentiful.
        let hub_esp = g.add_vertex(vt);
        let hub_tcp = g.add_vertex(vt);
        for i in 0..300u64 {
            let a = g.add_vertex(vt);
            g.add_edge(hub_esp, a, esp, Timestamp(i));
            let b = g.add_vertex(vt);
            g.add_edge(hub_tcp, b, tcp, Timestamp(1000 + i));
        }
        // Exactly one esp -> tcp chain.
        let x = g.add_vertex(vt);
        let y = g.add_vertex(vt);
        let z = g.add_vertex(vt);
        g.add_edge(x, y, esp, Timestamp(5000));
        g.add_edge(y, z, tcp, Timestamp(5001));
        let est = SelectivityEstimator::from_graph(&g);

        // Query: v0 -esp-> v1 -tcp-> v2.
        let mut q = QueryGraph::new("esp-tcp");
        let v: Vec<_> = (0..3).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], esp);
        q.add_edge(v[1], v[2], tcp);
        let choice = choose_strategy(&q, &est, RELATIVE_SELECTIVITY_THRESHOLD).unwrap();
        assert!(
            choice.relative_selectivity < RELATIVE_SELECTIVITY_THRESHOLD,
            "xi = {}",
            choice.relative_selectivity
        );
        assert_eq!(choice.strategy, Strategy::PathLazy);
        assert!(choice.expected_path <= choice.expected_single);
    }

    /// A uniform stream where wedges are as common as edges: SingleLazy wins.
    #[test]
    fn selector_picks_single_lazy_for_uniform_streams() {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t = schema.intern_edge_type("t");
        let mut g = DynamicGraph::new(schema);
        // A short chain: only one edge type, wedges plentiful relative to the
        // tiny edge count.
        let vs: Vec<_> = (0..6).map(|_| g.add_vertex(vt)).collect();
        for i in 0..5 {
            g.add_edge(vs[i], vs[i + 1], t, Timestamp(i as u64));
        }
        let est = SelectivityEstimator::from_graph(&g);
        let mut q = QueryGraph::new("t-t");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, t);
        q.add_edge(b, c, t);
        let choice = choose_strategy(&q, &est, RELATIVE_SELECTIVITY_THRESHOLD).unwrap();
        assert_eq!(choice.strategy, Strategy::SingleLazy);
        assert!(choice.relative_selectivity >= RELATIVE_SELECTIVITY_THRESHOLD);
    }

    #[test]
    fn selector_rejects_empty_queries() {
        let est = SelectivityEstimator::new();
        let q = QueryGraph::new("empty");
        assert!(choose_strategy(&q, &est, 1e-3).is_err());
    }
}
