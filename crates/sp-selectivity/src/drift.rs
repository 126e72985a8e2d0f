//! Selectivity-drift detection: when the moving statistics stop agreeing
//! with the plan they produced.
//!
//! The decomposition order of a continuous query is chosen from the stream
//! statistics *at registration time*; on a drifting stream those statistics
//! go stale and the SJ-Tree keeps searching its least selective leaf first.
//! A [`DriftDetector`] watches, per query, the two signals that feed the
//! planner:
//!
//! * the **frequency ranking** of the query's candidate primitives (every
//!   single-edge primitive and every wedge its edges can form) — the order
//!   `decompose` consumes primitives in, so a ranking change is a necessary
//!   condition for the leaf order to change;
//! * the **Relative Selectivity** ξ of the query's 2-edge vs 1-edge
//!   decomposition relative to the `choose_strategy` threshold — a
//!   side-flip changes the `Auto` strategy decision itself.
//!
//! The detector is deliberately cheap (a frequency sort over a handful of
//! primitives) and conservative: it *fires* when either signal moved, and
//! the caller then re-plans authoritatively (re-running the decomposition)
//! to decide whether the plan really changed. Ties in the ranking break by
//! position, so equal frequencies never flap it.

use crate::estimator::SelectivityEstimator;
use serde::{Deserialize, Serialize};
use sp_query::Primitive;

/// Tunables of a [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Stream edges between drift checks. The detector itself is cadence
    /// free — this is the interval honored by the callers that own the edge
    /// loop (`StreamProcessor`, the parallel runtime facade).
    pub check_interval: u64,
    /// Minimum number of edges the estimator must have observed over its
    /// lifetime ([`SelectivityEstimator::lifetime_edges_observed`], which
    /// never decays) before a check can fire; prevents re-planning off a
    /// near-empty histogram.
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

/// The recorded baseline a detector compares the live statistics against.
#[derive(Debug, Clone)]
struct Baseline {
    tracked: Vec<Primitive>,
    ranking: Vec<usize>,
    tk_leaves: Vec<Primitive>,
    t1_leaves: Vec<Primitive>,
    threshold: f64,
    below_threshold: bool,
}

/// Detects when the selectivity ranking of a query's primitives (or the
/// Relative Selectivity side of the `choose_strategy` threshold) has moved
/// away from a recorded baseline; the caller re-plans authoritatively when
/// it fires (see the module-level discussion above for the division of
/// labour).
#[derive(Debug, Clone)]
pub struct DriftDetector {
    config: DriftConfig,
    baseline: Option<Baseline>,
}

impl DriftDetector {
    /// Creates a detector with no baseline; [`DriftDetector::check`] returns
    /// `false` until the first [`DriftDetector::rebase`].
    pub fn new(config: DriftConfig) -> Self {
        Self {
            config,
            baseline: None,
        }
    }

    /// The configuration this detector was built with.
    pub fn config(&self) -> DriftConfig {
        self.config
    }

    /// Records the current statistics as the baseline: the frequency ranking
    /// of `tracked` and which side of `threshold` the Relative Selectivity
    /// ξ(`tk_leaves`, `t1_leaves`) falls on. Call after (re)planning the
    /// query so the detector measures movement *since the active plan was
    /// chosen*.
    pub fn rebase(
        &mut self,
        estimator: &SelectivityEstimator,
        tracked: Vec<Primitive>,
        tk_leaves: Vec<Primitive>,
        t1_leaves: Vec<Primitive>,
        threshold: f64,
    ) {
        let ranking = Self::ranking(estimator, &tracked);
        let xi = estimator.relative_selectivity(tk_leaves.iter(), t1_leaves.iter());
        self.baseline = Some(Baseline {
            tracked,
            ranking,
            tk_leaves,
            t1_leaves,
            threshold,
            below_threshold: xi < threshold,
        });
    }

    /// The frequency ranking of a primitive set: the indices of `primitives`
    /// ordered rarest first, with ties broken by position so equal
    /// frequencies never flap the ranking.
    pub fn ranking(estimator: &SelectivityEstimator, primitives: &[Primitive]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..primitives.len()).collect();
        order.sort_by_key(|&i| (estimator.frequency(&primitives[i]), i));
        order
    }

    /// Compares the live statistics against the baseline. Returns `true`
    /// when the estimator has seen at least
    /// [`DriftConfig::min_observations`] edges and the ranking changed or ξ
    /// crossed the threshold. Without a baseline (no
    /// [`DriftDetector::rebase`] yet) it returns `false`.
    pub fn check(&self, estimator: &SelectivityEstimator) -> bool {
        let Some(baseline) = &self.baseline else {
            return false;
        };
        // Gate on the lifetime count: the decayed histogram total is capped
        // near twice the decay interval, which would permanently disable
        // detection for any threshold above that.
        if estimator.lifetime_edges_observed() < self.config.min_observations {
            return false;
        }
        let ranking = Self::ranking(estimator, &baseline.tracked);
        let xi =
            estimator.relative_selectivity(baseline.tk_leaves.iter(), baseline.t1_leaves.iter());
        ranking != baseline.ranking || (xi < baseline.threshold) != baseline.below_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::StatsMode;
    use sp_graph::{EdgeData, EdgeId, EdgeType, Timestamp, VertexId};

    fn edge(ty: u32, src: u64, dst: u64, ts: u64) -> EdgeData {
        EdgeData {
            id: EdgeId(src * 10_000 + dst),
            src: VertexId(src),
            dst: VertexId(dst),
            edge_type: EdgeType(ty),
            timestamp: Timestamp(ts),
        }
    }

    fn feed(est: &mut SelectivityEstimator, ty: u32, n: u64, base: u64) {
        for i in 0..n {
            est.observe_edge(&edge(ty, base + 2 * i, base + 2 * i + 1, i));
        }
    }

    fn single(ty: u32) -> Primitive {
        Primitive::SingleEdge(EdgeType(ty))
    }

    fn config(min: u64) -> DriftConfig {
        DriftConfig {
            check_interval: 1,
            min_observations: min,
        }
    }

    #[test]
    fn stable_stream_never_fires() {
        let mut est = SelectivityEstimator::new();
        feed(&mut est, 0, 90, 0);
        feed(&mut est, 1, 10, 10_000);
        let mut d = DriftDetector::new(config(1));
        let tracked = vec![single(0), single(1)];
        d.rebase(&est, tracked, vec![single(1)], vec![single(0)], 1e-3);
        // More of the same mix: ranking unchanged.
        feed(&mut est, 0, 90, 20_000);
        feed(&mut est, 1, 10, 30_000);
        assert!(!d.check(&est));
    }

    #[test]
    fn frequency_flip_fires() {
        let mut est = SelectivityEstimator::new().with_mode(StatsMode::Decayed(64));
        feed(&mut est, 0, 90, 0);
        feed(&mut est, 1, 10, 10_000);
        let mut d = DriftDetector::new(config(1));
        d.rebase(
            &est,
            vec![single(0), single(1)],
            vec![single(1)],
            vec![single(0)],
            1e-3,
        );
        // The mix inverts; with decay the ranking flips.
        feed(&mut est, 1, 400, 20_000);
        assert!(d.check(&est), "inverted mix must register as drift");
        // No hysteresis: every check of the moved statistics fires until the
        // caller re-baselines.
        assert!(d.check(&est));
        d.rebase(
            &est,
            vec![single(0), single(1)],
            vec![single(1)],
            vec![single(0)],
            1e-3,
        );
        assert!(!d.check(&est), "the rebased mix is the new normal");
    }

    #[test]
    fn ties_break_deterministically_and_do_not_flap() {
        let mut est = SelectivityEstimator::new();
        // Two primitives with *equal* counts: the ranking tie-breaks by
        // index, so repeated checks see the identical ranking.
        feed(&mut est, 0, 50, 0);
        feed(&mut est, 1, 50, 10_000);
        let mut d = DriftDetector::new(config(1));
        d.rebase(
            &est,
            vec![single(0), single(1)],
            vec![single(1)],
            vec![single(0)],
            1e-3,
        );
        // Keep the counts tied while the stream advances.
        for round in 0..5u64 {
            feed(&mut est, 0, 7, 20_000 + round * 1_000);
            feed(&mut est, 1, 7, 50_000 + round * 1_000);
            assert!(!d.check(&est), "tied ranking flapped at round {round}");
        }
    }

    #[test]
    fn out_of_order_timestamps_do_not_affect_detection() {
        // Drift detection is count-driven: two streams with the same edge
        // multiset but scrambled timestamps produce identical rankings.
        let ordered = {
            let mut est = SelectivityEstimator::new();
            for i in 0..60u64 {
                est.observe_edge(&edge((i % 3) as u32, 2 * i, 2 * i + 1, i));
            }
            est
        };
        let scrambled = {
            let mut est = SelectivityEstimator::new();
            for i in 0..60u64 {
                // Timestamps jump around arbitrarily.
                est.observe_edge(&edge((i % 3) as u32, 2 * i, 2 * i + 1, (i * 37) % 11));
            }
            est
        };
        let tracked = vec![single(0), single(1), single(2)];
        assert_eq!(
            DriftDetector::ranking(&ordered, &tracked),
            DriftDetector::ranking(&scrambled, &tracked)
        );
        let mut d = DriftDetector::new(config(1));
        d.rebase(&ordered, tracked, vec![single(0)], vec![single(1)], 1e-3);
        assert!(!d.check(&scrambled));
    }

    #[test]
    fn min_observations_gates_checks() {
        let mut est = SelectivityEstimator::new();
        feed(&mut est, 0, 5, 0);
        let tracked = vec![single(0), single(1)];
        let mut gated = DriftDetector::new(config(1_000));
        let mut ungated = DriftDetector::new(config(1));
        for d in [&mut gated, &mut ungated] {
            d.rebase(
                &est,
                tracked.clone(),
                vec![single(1)],
                vec![single(0)],
                1e-3,
            );
        }
        feed(&mut est, 1, 50, 10_000);
        assert!(ungated.check(&est), "the ranking flipped");
        assert!(!gated.check(&est), "below min_observations nothing fires");
    }

    #[test]
    fn min_observations_gate_survives_decay() {
        // Regression: the decayed histogram total is capped near 2×interval,
        // so gating on it would permanently disable detection whenever
        // min_observations exceeds that cap. The gate must use the lifetime
        // count instead.
        let interval = 64u64;
        let mut est = SelectivityEstimator::new().with_mode(StatsMode::Decayed(interval));
        feed(&mut est, 0, 90, 0);
        feed(&mut est, 1, 10, 10_000);
        // min_observations far above the decay cap; below the lifetime the
        // stream will eventually reach.
        let min = 300u64;
        assert!(min > 2 * interval);
        let mut d = DriftDetector::new(config(min));
        d.rebase(
            &est,
            vec![single(0), single(1)],
            vec![single(1)],
            vec![single(0)],
            1e-3,
        );
        // Not warmed up yet: gated.
        assert!(!d.check(&est));
        // Invert the mix; the lifetime passes the gate long after the
        // decayed total has stopped growing, and the flip must register.
        feed(&mut est, 1, 400, 20_000);
        assert!(est.num_edges_observed() < 2 * interval, "decay cap holds");
        assert!(est.lifetime_edges_observed() >= min);
        assert!(d.check(&est), "lifetime-gated detection must stay alive");
    }

    #[test]
    fn no_baseline_means_no_drift() {
        let est = SelectivityEstimator::new();
        let d = DriftDetector::new(DriftConfig::default());
        assert!(!d.check(&est));
    }
}
