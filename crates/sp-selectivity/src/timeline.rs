//! Per-interval edge-type distribution over the lifetime of a stream.
//!
//! Figure 6 of the paper plots, for each dataset, the (non-cumulative) count
//! of every edge type in consecutive fixed-size intervals of the stream, to
//! show that "the relative order of different types of edges stays similar
//! even as the graph evolves". [`EdgeDistributionTimeline`] collects exactly
//! those series.

use crate::histogram::EdgeTypeHistogram;
use sp_graph::EdgeType;

/// Collects one [`EdgeTypeHistogram`] per interval of `interval` consecutive
/// edges.
#[derive(Debug, Clone)]
pub struct EdgeDistributionTimeline {
    interval: u64,
    seen_in_current: u64,
    current: EdgeTypeHistogram,
    snapshots: Vec<EdgeTypeHistogram>,
}

impl EdgeDistributionTimeline {
    /// Creates a timeline that snapshots the edge-type counts every
    /// `interval` edges (10 000 for NYTimes, 100 000 for CAIDA, 1 000 000 for
    /// LSBench in the paper).
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "interval must be positive");
        Self {
            interval,
            seen_in_current: 0,
            current: EdgeTypeHistogram::new(),
            snapshots: Vec::new(),
        }
    }

    /// Records one streaming edge of the given type.
    pub fn observe(&mut self, edge_type: EdgeType) {
        self.current.observe(edge_type);
        self.seen_in_current += 1;
        if self.seen_in_current == self.interval {
            self.flush();
        }
    }

    /// Closes the current (possibly partial) interval, if non-empty.
    pub fn finish(&mut self) {
        if self.seen_in_current > 0 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let full = std::mem::take(&mut self.current);
        self.snapshots.push(full);
        self.seen_in_current = 0;
    }

    /// Returns the completed interval histograms in stream order.
    pub fn snapshots(&self) -> &[EdgeTypeHistogram] {
        &self.snapshots
    }

    /// Number of completed intervals.
    pub fn num_intervals(&self) -> usize {
        self.snapshots.len()
    }

    /// The interval width in edges.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The count series for one edge type across all completed intervals —
    /// one line of Figure 6.
    pub fn series(&self, edge_type: EdgeType) -> Vec<u64> {
        self.snapshots.iter().map(|h| h.count(edge_type)).collect()
    }

    /// Mean rank-order agreement between consecutive snapshots: 1.0 means the
    /// selectivity order of edge types never changed across the stream
    /// (Section 6.3's stability observation).
    pub fn rank_stability(&self) -> f64 {
        if self.snapshots.len() < 2 {
            return 1.0;
        }
        let mut total = 0.0;
        let mut pairs = 0usize;
        for w in self.snapshots.windows(2) {
            let a = w[0].rank_order();
            let b = w[1].rank_order();
            total += EdgeTypeHistogram::rank_agreement(&a, &b);
            pairs += 1;
        }
        total / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_are_cut_every_interval() {
        let mut t = EdgeDistributionTimeline::new(10);
        for i in 0..35 {
            t.observe(EdgeType((i % 3) as u32));
        }
        assert_eq!(t.num_intervals(), 3);
        t.finish();
        assert_eq!(t.num_intervals(), 4);
        // The last partial interval holds the remaining 5 edges.
        assert_eq!(t.snapshots()[3].total(), 5);
        assert_eq!(t.interval(), 10);
    }

    #[test]
    fn finish_on_empty_tail_adds_nothing() {
        let mut t = EdgeDistributionTimeline::new(5);
        for _ in 0..10 {
            t.observe(EdgeType(0));
        }
        t.finish();
        assert_eq!(t.num_intervals(), 2);
    }

    #[test]
    fn series_extracts_counts_per_type() {
        let mut t = EdgeDistributionTimeline::new(4);
        // interval 1: 3 of type0, 1 of type1; interval 2: 4 of type1.
        for _ in 0..3 {
            t.observe(EdgeType(0));
        }
        t.observe(EdgeType(1));
        for _ in 0..4 {
            t.observe(EdgeType(1));
        }
        assert_eq!(t.series(EdgeType(0)), vec![3, 0]);
        assert_eq!(t.series(EdgeType(1)), vec![1, 4]);
    }

    #[test]
    fn stable_stream_has_perfect_rank_stability() {
        let mut t = EdgeDistributionTimeline::new(100);
        for i in 0..1000u32 {
            // Always 9:1 ratio between type 0 and type 1.
            let ty = if i % 10 == 0 {
                EdgeType(1)
            } else {
                EdgeType(0)
            };
            t.observe(ty);
        }
        assert!((t.rank_stability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shifting_stream_has_reduced_rank_stability() {
        let mut t = EdgeDistributionTimeline::new(100);
        // First half dominated by type 0, second half by type 1 (like the
        // LSBench phase shift).
        for i in 0..400u32 {
            let ty = if i % 10 == 0 {
                EdgeType(1)
            } else {
                EdgeType(0)
            };
            t.observe(ty);
        }
        for i in 0..400u32 {
            let ty = if i % 10 == 0 {
                EdgeType(0)
            } else {
                EdgeType(1)
            };
            t.observe(ty);
        }
        let s = t.rank_stability();
        assert!(s < 1.0, "expected a rank flip, stability={s}");
    }

    #[test]
    fn single_interval_is_trivially_stable() {
        let mut t = EdgeDistributionTimeline::new(1000);
        for _ in 0..10 {
            t.observe(EdgeType(0));
        }
        t.finish();
        assert_eq!(t.rank_stability(), 1.0);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_is_rejected() {
        let _ = EdgeDistributionTimeline::new(0);
    }

    #[test]
    fn tied_counts_are_rank_stable_across_intervals() {
        // Two types arrive in exactly equal volume in every interval. The
        // rank order tie-breaks by type id, so consecutive snapshots agree
        // perfectly — ties must not read as drift.
        let mut t = EdgeDistributionTimeline::new(20);
        for _ in 0..5 {
            for i in 0..20u32 {
                t.observe(EdgeType(i % 2));
            }
        }
        assert_eq!(t.num_intervals(), 5);
        assert!((t.rank_stability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tie_broken_then_restored_reduces_stability_once() {
        // Interval 1: tie (order by id: 0,1). Interval 2: type 1 rarer
        // (order: 1,0). Interval 3: tie again (order: 0,1). Two of the two
        // consecutive pairs disagree completely.
        let mut t = EdgeDistributionTimeline::new(10);
        for i in 0..10u32 {
            t.observe(EdgeType(i % 2)); // 5 / 5
        }
        for i in 0..10u32 {
            t.observe(EdgeType(u32::from(i % 10 == 0))); // 9 / 1
        }
        for i in 0..10u32 {
            t.observe(EdgeType(i % 2)); // 5 / 5
        }
        let s = t.rank_stability();
        assert!((s - 0.0).abs() < 1e-12, "both transitions flip, s={s}");
    }

    #[test]
    fn arrival_order_not_timestamps_drives_stability() {
        // The timeline cuts intervals by *arrival position* — observe() does
        // not even take a timestamp, so an out-of-order stream (late event
        // timestamps arriving early) is measured by when the edges arrive,
        // which is the signal drift detection needs. Same multiset, two
        // arrival orders:
        let mut interleaved = EdgeDistributionTimeline::new(100);
        for i in 0..400u32 {
            let ty = u32::from(i % 10 == 0);
            interleaved.observe(EdgeType(ty));
        }
        assert!((interleaved.rank_stability() - 1.0).abs() < 1e-12);

        // ... but the same 360/40 mix arriving clustered (the rare type's
        // edges all at the end, e.g. replayed with wildly out-of-order
        // timestamps) flips the final interval's ranking.
        let mut clustered = EdgeDistributionTimeline::new(100);
        for _ in 0..360u32 {
            clustered.observe(EdgeType(0));
        }
        for _ in 0..40u32 {
            clustered.observe(EdgeType(1));
        }
        assert!(clustered.rank_stability() < 1.0);
    }
}
