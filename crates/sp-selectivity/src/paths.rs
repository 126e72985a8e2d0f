//! The 2-edge path (wedge) distribution — Algorithm 5, `COUNT-2-EDGE-PATHS`.
//!
//! A 2-edge path is a pair of edges sharing a center vertex; its signature is
//! the unordered pair of (edge type, direction at the center) of the two
//! edges ([`TwoEdgePathSignature`]). The paper computes the distribution with
//! a per-vertex pass over the graph (`O(V(E + k²))`); this module provides
//! that batch computation and an equivalent incremental variant that updates
//! the counts as every edge streams in, which is what the engine and the
//! dataset analysis use.

use serde::{Deserialize, Serialize};
use sp_graph::{Direction, DynamicGraph, EdgeData, EdgeType, FastMap, VertexId};
use sp_query::{DirectedEdgeType, TwoEdgePathSignature};
use std::collections::HashMap;

/// Adds `n` wedges of signature `sig` to `counts` and `total`; zero counts
/// leave no entry.
fn add(
    counts: &mut HashMap<TwoEdgePathSignature, u64>,
    total: &mut u64,
    sig: TwoEdgePathSignature,
    n: u64,
) {
    if n == 0 {
        return;
    }
    *counts.entry(sig).or_insert(0) += n;
    *total += n;
}

/// Counts of 2-edge paths per wedge signature.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TwoEdgePathCounter {
    counts: HashMap<TwoEdgePathSignature, u64>,
    total: u64,
    /// Per-vertex counter of incident directed edge types, used only by the
    /// incremental update path (`Cv` in Algorithm 5).
    #[serde(skip)]
    per_vertex: FastMap<VertexId, FastMap<DirectedEdgeType, u64>>,
}

impl TwoEdgePathCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs Algorithm 5 (`COUNT-2-EDGE-PATHS`) over the current graph: for
    /// every vertex, counts its incident directed edge types and accumulates
    /// `n1*(n1-1)/2` same-type and `n1*n2` cross-type wedges.
    ///
    /// The result replaces any previously accumulated counts. The per-vertex
    /// incidence state of the incremental path is seeded from the snapshot,
    /// so following a `from_graph` with [`TwoEdgePathCounter::observe_edge`]
    /// for *new* edges continues the exact census.
    pub fn from_graph(graph: &DynamicGraph) -> Self {
        let mut counter = Self::new();
        let Self {
            counts,
            total,
            per_vertex,
        } = &mut counter;
        for (v, _) in graph.vertices() {
            // Cv: count of each directed edge type incident to v.
            let mut cv: FastMap<DirectedEdgeType, u64> = FastMap::default();
            for inc in graph.incident_edges(v) {
                *cv.entry(DirectedEdgeType::new(inc.edge_type, inc.direction))
                    .or_insert(0) += 1;
            }
            let mut types: Vec<(DirectedEdgeType, u64)> =
                cv.iter().map(|(&t, &n)| (t, n)).collect();
            types.sort_by_key(|&(t, _)| (t.edge_type.0, t.direction));
            for (i, &(t1, n1)) in types.iter().enumerate() {
                // Same-type pairs: C(n1, 2).
                let same = n1 * n1.saturating_sub(1) / 2;
                add(counts, total, TwoEdgePathSignature::new(t1, t1), same);
                // Cross-type pairs with lexically greater types: n1 * n2.
                for &(t2, n2) in &types[i + 1..] {
                    add(counts, total, TwoEdgePathSignature::new(t1, t2), n1 * n2);
                }
            }
            if !cv.is_empty() {
                per_vertex.insert(v, cv);
            }
        }
        counter
    }

    /// Incremental update: call *after* the edge has been inserted into the
    /// graph (or independently of any graph). The new edge forms one new
    /// wedge with every edge already incident to each of its endpoints.
    /// Allocation-free once the endpoints and signatures have been seen.
    pub fn observe_edge(&mut self, edge: &EdgeData) {
        let Self {
            counts,
            total,
            per_vertex,
        } = self;
        for (v, dir) in [
            (edge.src, Direction::Outgoing),
            (edge.dst, Direction::Incoming),
        ] {
            let new_type = DirectedEdgeType::new(edge.edge_type, dir);
            let incident = per_vertex.entry(v).or_default();
            // New wedges centered at v: pair the new edge with every existing
            // incident edge.
            for (&t, &n) in incident.iter() {
                add(counts, total, TwoEdgePathSignature::new(new_type, t), n);
            }
            *incident.entry(new_type).or_insert(0) += 1;
        }
    }

    /// Halves every wedge count (integer division), dropping signatures that
    /// reach zero, and recomputes the total — the decay step behind
    /// [`StatsMode::Decayed`](crate::StatsMode). The per-vertex incidence
    /// counters the incremental path uses are halved as well, so wedges
    /// formed by future edges are weighted toward recent structure; under
    /// decay the incremental counts are therefore a recency-weighted
    /// approximation rather than the exact census of
    /// [`TwoEdgePathCounter::from_graph`].
    pub fn halve(&mut self) {
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        self.total = self.counts.values().sum();
        for per in self.per_vertex.values_mut() {
            per.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
        self.per_vertex.retain(|_, per| !per.is_empty());
    }

    /// Count of wedges with the given signature.
    pub fn count(&self, sig: &TwoEdgePathSignature) -> u64 {
        self.counts.get(sig).copied().unwrap_or(0)
    }

    /// Total number of wedges counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct wedge signatures observed (the "unique 2-edge
    /// paths" counts reported in Section 6.3: 14 for NYTimes, 62 for netflow,
    /// 676 for LSBench).
    pub fn num_signatures(&self) -> usize {
        self.counts.len()
    }

    /// Selectivity of a wedge: its frequency over the total number of wedges,
    /// with a pseudo-count of 1 for unseen signatures.
    pub fn selectivity(&self, sig: &TwoEdgePathSignature) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.count(sig).max(1) as f64 / self.total as f64
    }

    /// `(signature, count)` pairs sorted by descending count — the
    /// distribution plotted in Figure 7.
    pub fn descending(&self) -> Vec<(TwoEdgePathSignature, u64)> {
        let mut v: Vec<(TwoEdgePathSignature, u64)> =
            self.counts.iter().map(|(&s, &c)| (s, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// `(signature, count)` pairs sorted by ascending count — rarest wedges
    /// first, the order the decomposition consumes 2-edge primitives in.
    pub fn ascending(&self) -> Vec<(TwoEdgePathSignature, u64)> {
        let mut v = self.descending();
        v.reverse();
        v
    }

    /// Convenience constructor of a wedge signature from raw components.
    pub fn signature(
        a: EdgeType,
        a_dir: Direction,
        b: EdgeType,
        b_dir: Direction,
    ) -> TwoEdgePathSignature {
        TwoEdgePathSignature::new(
            DirectedEdgeType::new(a, a_dir),
            DirectedEdgeType::new(b, b_dir),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{Schema, Timestamp};

    fn star_graph(k: u64) -> DynamicGraph {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("ip");
        schema.intern_edge_type("tcp");
        let tcp = schema.edge_type("tcp").unwrap();
        let mut g = DynamicGraph::new(schema);
        let hub = g.add_vertex(vt);
        for i in 0..k {
            let leaf = g.add_vertex(vt);
            g.add_edge(hub, leaf, tcp, Timestamp(i));
        }
        g
    }

    #[test]
    fn star_wedge_count_is_choose_two() {
        let g = star_graph(5);
        let c = TwoEdgePathCounter::from_graph(&g);
        // At the hub: C(5,2)=10 out-out wedges. Each leaf has a single
        // incident edge, so no other wedges.
        assert_eq!(c.total(), 10);
        let tcp = g.schema().edge_type("tcp").unwrap();
        let sig = TwoEdgePathCounter::signature(tcp, Direction::Outgoing, tcp, Direction::Outgoing);
        assert_eq!(c.count(&sig), 10);
        assert_eq!(c.num_signatures(), 1);
    }

    #[test]
    fn cross_type_wedges_are_counted_with_directions() {
        // a -tcp-> b -udp-> c : at b, one incoming tcp and one outgoing udp.
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let udp = schema.intern_edge_type("udp");
        let mut g = DynamicGraph::new(schema);
        let a = g.add_vertex(vt);
        let b = g.add_vertex(vt);
        let c = g.add_vertex(vt);
        g.add_edge(a, b, tcp, Timestamp(1));
        g.add_edge(b, c, udp, Timestamp(2));
        let counter = TwoEdgePathCounter::from_graph(&g);
        assert_eq!(counter.total(), 1);
        let sig = TwoEdgePathCounter::signature(tcp, Direction::Incoming, udp, Direction::Outgoing);
        assert_eq!(counter.count(&sig), 1);
        // The out-out variant was never observed.
        let other =
            TwoEdgePathCounter::signature(tcp, Direction::Outgoing, udp, Direction::Outgoing);
        assert_eq!(counter.count(&other), 0);
    }

    #[test]
    fn incremental_matches_batch_on_random_like_graph() {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let types: Vec<EdgeType> = (0..3)
            .map(|i| schema.intern_edge_type(&format!("t{i}")))
            .collect();
        let mut g = DynamicGraph::new(schema);
        let vs: Vec<VertexId> = (0..8).map(|_| g.add_vertex(vt)).collect();
        let mut incremental = TwoEdgePathCounter::new();
        // A deterministic pseudo-random edge pattern.
        let mut x: u64 = 7;
        for i in 0..60u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = vs[(x >> 33) as usize % vs.len()];
            let mut y = x ^ (i << 7);
            y = y.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let d = vs[(y >> 33) as usize % vs.len()];
            if s == d {
                continue;
            }
            let t = types[(i % 3) as usize];
            let e = g.add_edge(s, d, t, Timestamp(i));
            let data = *g.edge(e).unwrap();
            incremental.observe_edge(&data);
        }
        let batch = TwoEdgePathCounter::from_graph(&g);
        assert_eq!(incremental.total(), batch.total());
        for (sig, count) in batch.descending() {
            assert_eq!(incremental.count(&sig), count, "mismatch for {sig:?}");
        }
    }

    #[test]
    fn selectivity_and_pseudo_count() {
        let g = star_graph(3);
        let c = TwoEdgePathCounter::from_graph(&g);
        let tcp = g.schema().edge_type("tcp").unwrap();
        let seen =
            TwoEdgePathCounter::signature(tcp, Direction::Outgoing, tcp, Direction::Outgoing);
        assert!((c.selectivity(&seen) - 1.0).abs() < 1e-12);
        let unseen =
            TwoEdgePathCounter::signature(tcp, Direction::Incoming, tcp, Direction::Incoming);
        assert!(c.selectivity(&unseen) > 0.0);
        assert!(c.selectivity(&unseen) < 1.0);
    }

    #[test]
    fn empty_counter_defaults() {
        let c = TwoEdgePathCounter::new();
        assert_eq!(c.total(), 0);
        assert_eq!(c.num_signatures(), 0);
        let sig = TwoEdgePathCounter::signature(
            EdgeType(0),
            Direction::Outgoing,
            EdgeType(0),
            Direction::Outgoing,
        );
        assert_eq!(c.selectivity(&sig), 1.0);
    }

    #[test]
    fn descending_is_sorted() {
        // Build a graph with two wedge types of different frequencies.
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let a_t = schema.intern_edge_type("a");
        let b_t = schema.intern_edge_type("b");
        let mut g = DynamicGraph::new(schema);
        let hub = g.add_vertex(vt);
        for i in 0..4 {
            let leaf = g.add_vertex(vt);
            g.add_edge(hub, leaf, a_t, Timestamp(i));
        }
        let leaf = g.add_vertex(vt);
        g.add_edge(hub, leaf, b_t, Timestamp(10));
        let c = TwoEdgePathCounter::from_graph(&g);
        let desc = c.descending();
        assert!(desc.windows(2).all(|w| w[0].1 >= w[1].1));
        let asc = c.ascending();
        assert!(asc.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(desc.len(), asc.len());
    }
}
