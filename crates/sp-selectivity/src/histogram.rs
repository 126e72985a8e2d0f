//! Single-edge type histogram.
//!
//! "Computing the selectivity distribution for single-edge subgraphs resolves
//! to computing a histogram of various edge types" (Section 5.1). The
//! histogram is maintained incrementally as edges stream in.

use sp_graph::{EdgeType, FastMap};

/// Count of observed edges per edge type.
#[derive(Debug, Clone, Default)]
pub struct EdgeTypeHistogram {
    counts: FastMap<EdgeType, u64>,
    total: u64,
}

impl EdgeTypeHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one edge of the given type.
    pub fn observe(&mut self, edge_type: EdgeType) {
        *self.counts.entry(edge_type).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records `n` edges of the given type at once.
    pub fn observe_n(&mut self, edge_type: EdgeType, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(edge_type).or_insert(0) += n;
        self.total += n;
    }

    /// Number of edges of the given type observed so far.
    pub fn count(&self, edge_type: EdgeType) -> u64 {
        self.counts.get(&edge_type).copied().unwrap_or(0)
    }

    /// Total number of edges observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Selectivity of a single-edge subgraph of the given type: its frequency
    /// divided by the total number of 1-edge subgraphs (= total edges).
    ///
    /// Types never observed get a pseudo-count of 1 ("optimistic one"), so an
    /// unseen type is treated as extremely rare rather than impossible; this
    /// mirrors the paper's treatment of unseen 2-edge paths as "artificially
    /// discriminative" and keeps the metrics finite.
    pub fn selectivity(&self, edge_type: EdgeType) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let c = self.count(edge_type).max(1);
        c as f64 / self.total as f64
    }

    /// Returns `(edge type, count)` pairs sorted by ascending count — the
    /// "selectivity distribution" with the most selective (rarest) types
    /// first, which is the order the decomposition consumes primitives in.
    pub fn ascending(&self) -> Vec<(EdgeType, u64)> {
        let mut v: Vec<(EdgeType, u64)> = self.counts.iter().map(|(&t, &c)| (t, c)).collect();
        v.sort_by_key(|&(t, c)| (c, t.0));
        v
    }

    /// Iterates over the raw counts in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeType, u64)> + '_ {
        self.counts.iter().map(|(&t, &c)| (t, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &EdgeTypeHistogram) {
        for (t, c) in other.iter() {
            self.observe_n(t, c);
        }
    }

    /// Halves every count (integer division), dropping types whose count
    /// reaches zero, and recomputes the total. This is the decay step behind
    /// [`StatsMode::Decayed`](crate::StatsMode): applied once per decay
    /// interval it turns the histogram into an exponentially weighted view of
    /// the stream, so a type that stopped arriving loses half its weight
    /// every interval instead of dominating the selectivity order forever.
    pub fn halve(&mut self) {
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        self.total = self.counts.values().sum();
    }

    /// The rank order of edge types (rarest first). Used to assess the
    /// stability of the selectivity order across stream snapshots
    /// (Section 6.3: "it is the relative order ... that matters").
    pub fn rank_order(&self) -> Vec<EdgeType> {
        self.ascending().into_iter().map(|(t, _)| t).collect()
    }

    /// Fraction of positions at which two rank orders agree, over the longer
    /// of the two. 1.0 means identical ordering.
    pub fn rank_agreement(a: &[EdgeType], b: &[EdgeType]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let n = a.len().max(b.len());
        let matches = a.iter().zip(b.iter()).filter(|(x, y)| x == y).count();
        matches as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_totals() {
        let mut h = EdgeTypeHistogram::new();
        h.observe(EdgeType(0));
        h.observe(EdgeType(0));
        h.observe(EdgeType(1));
        assert_eq!(h.count(EdgeType(0)), 2);
        assert_eq!(h.count(EdgeType(1)), 1);
        assert_eq!(h.count(EdgeType(9)), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.iter().count(), 2);
    }

    #[test]
    fn selectivity_is_relative_frequency() {
        let mut h = EdgeTypeHistogram::new();
        h.observe_n(EdgeType(0), 90);
        h.observe_n(EdgeType(1), 10);
        assert!((h.selectivity(EdgeType(0)) - 0.9).abs() < 1e-12);
        assert!((h.selectivity(EdgeType(1)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unseen_type_gets_pseudo_count() {
        let mut h = EdgeTypeHistogram::new();
        h.observe_n(EdgeType(0), 100);
        let s = h.selectivity(EdgeType(7));
        assert!(s > 0.0 && s <= 0.01 + 1e-12);
    }

    #[test]
    fn empty_histogram_has_selectivity_one() {
        let h = EdgeTypeHistogram::new();
        assert_eq!(h.selectivity(EdgeType(0)), 1.0);
    }

    #[test]
    fn ascending_order_is_rarest_first() {
        let mut h = EdgeTypeHistogram::new();
        h.observe_n(EdgeType(0), 50);
        h.observe_n(EdgeType(1), 5);
        h.observe_n(EdgeType(2), 500);
        let order: Vec<u32> = h.ascending().iter().map(|(t, _)| t.0).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn observe_n_zero_is_a_noop() {
        let mut h = EdgeTypeHistogram::new();
        h.observe_n(EdgeType(0), 0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.iter().count(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = EdgeTypeHistogram::new();
        a.observe_n(EdgeType(0), 3);
        let mut b = EdgeTypeHistogram::new();
        b.observe_n(EdgeType(0), 2);
        b.observe_n(EdgeType(1), 1);
        a.merge(&b);
        assert_eq!(a.count(EdgeType(0)), 5);
        assert_eq!(a.count(EdgeType(1)), 1);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn rank_agreement_metric() {
        let a = vec![EdgeType(0), EdgeType(1), EdgeType(2)];
        let b = vec![EdgeType(0), EdgeType(2), EdgeType(1)];
        assert!((EdgeTypeHistogram::rank_agreement(&a, &a) - 1.0).abs() < 1e-12);
        assert!((EdgeTypeHistogram::rank_agreement(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(EdgeTypeHistogram::rank_agreement(&[], &[]), 1.0);
    }

    #[test]
    fn ties_break_deterministically() {
        let mut h = EdgeTypeHistogram::new();
        h.observe_n(EdgeType(3), 5);
        h.observe_n(EdgeType(1), 5);
        let order: Vec<u32> = h.rank_order().iter().map(|t| t.0).collect();
        assert_eq!(order, vec![1, 3]);
    }
}
