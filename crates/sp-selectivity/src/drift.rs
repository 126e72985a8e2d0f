//! The drift-check cadence: how often a query's plan is re-judged against
//! the moving statistics.
//!
//! The decomposition order of a continuous query is chosen from the stream
//! statistics *at registration time*; on a drifting stream those statistics
//! go stale and the SJ-Tree keeps searching its least selective leaf first.
//! The judge of a stale plan is the planner itself: on each due check the
//! caller re-plans the query from the live statistics and compares the
//! result with the plan it runs. [`DriftConfig`] only says when a check is
//! due and when the statistics are warm enough to re-plan from.

use serde::{Deserialize, Serialize};

use crate::SelectivityEstimator;

/// When drift checks run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Stream edges between drift checks, honored by the callers that own
    /// the edge loop (`StreamProcessor`, the parallel runtime facade).
    pub check_interval: u64,
    /// Minimum number of edges the estimator must have observed over its
    /// lifetime ([`SelectivityEstimator::lifetime_edges_observed`], which
    /// never decays) before a check may re-plan; prevents re-planning off a
    /// near-empty histogram.
    ///
    /// [`SelectivityEstimator::lifetime_edges_observed`]:
    ///     crate::SelectivityEstimator::lifetime_edges_observed
    pub min_observations: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            check_interval: 2_048,
            min_observations: 512,
        }
    }
}

impl DriftConfig {
    /// Whether `estimator` has seen enough of the stream for a check to
    /// re-plan from it. The lifetime count never decays: a decayed
    /// histogram's total is capped near twice its interval and would stop
    /// every re-plan.
    pub fn is_warm(&self, estimator: &SelectivityEstimator) -> bool {
        estimator.lifetime_edges_observed() >= self.min_observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StatsMode;
    use sp_graph::{EdgeData, EdgeId, EdgeType, Timestamp, VertexId};
    use sp_query::Primitive;

    fn feed(est: &mut SelectivityEstimator, ty: u32, n: u64, base: u64) {
        for i in 0..n {
            est.observe_edge(&EdgeData {
                id: EdgeId(base + i),
                src: VertexId(base + 2 * i),
                dst: VertexId(base + 2 * i + 1),
                edge_type: EdgeType(ty),
                timestamp: Timestamp(i),
            });
        }
    }

    #[test]
    fn frequency_flip_fires() {
        // A check re-plans off the decayed statistics once they are warm:
        // an inverted mix must flip the frequency order it plans from.
        let config = DriftConfig {
            check_interval: 1,
            min_observations: 300,
        };
        let (a, b) = (
            Primitive::SingleEdge(EdgeType(0)),
            Primitive::SingleEdge(EdgeType(1)),
        );
        let mut est = SelectivityEstimator::new().with_mode(StatsMode::Decayed(64));
        feed(&mut est, 0, 90, 0);
        feed(&mut est, 1, 10, 10_000);
        assert!(est.frequency(&a) > est.frequency(&b));
        assert!(!config.is_warm(&est), "too early to re-plan");
        feed(&mut est, 1, 400, 20_000);
        assert!(est.frequency(&b) > est.frequency(&a), "the mix inverted");
        // The decayed total stays capped; the lifetime count opens the gate.
        assert!(est.num_edges_observed() < config.min_observations);
        assert!(config.is_warm(&est), "the flip must reach a re-plan");
    }
}
