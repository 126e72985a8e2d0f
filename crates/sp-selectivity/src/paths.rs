//! The 2-edge path (wedge) distribution — Algorithm 5, `COUNT-2-EDGE-PATHS`.
//!
//! A 2-edge path is a pair of edges sharing a center vertex; its signature is
//! the unordered pair of (edge type, direction at the center) of the two
//! edges ([`TwoEdgePathSignature`]). The paper computes the distribution with
//! a per-vertex pass over the graph (`O(V(E + k²))`); this module provides
//! that batch computation and an equivalent incremental variant that updates
//! the counts as every edge streams in, which is what the engine and the
//! dataset analysis use.
//!
//! # Layout
//!
//! The census is two flat maps on [`FastMap`]. The wedge counts map a
//! signature to its count. The incremental path's per-vertex state (`Cv`
//! in Algorithm 5) is one table row per vertex: a 32-byte `Incidence` that
//! holds the vertex's first two `(directed edge type, count)` pairs inline
//! and moves them to a `Vec` at the third type. With the 8-byte vertex id
//! and the table's control byte a slot is 41 bytes, so a tracked vertex
//! costs 47 to 94 bytes (the table is between 7/16 and 7/8 full), plus one
//! heap block of at least four pairs (64 bytes) for each vertex with three
//! or more directed types. On the LSBench sample stream of the benchmark
//! that is 68 bytes per vertex in all.

use sp_graph::{Direction, DynamicGraph, EdgeData, EdgeType, FastMap, VertexId};
use sp_query::{DirectedEdgeType, TwoEdgePathSignature};

/// Adds `n` wedges of signature `sig` to `counts` and `total`; zero counts
/// leave no entry.
fn add(
    counts: &mut FastMap<TwoEdgePathSignature, u64>,
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

/// Directed edge types a vertex's row keeps without a heap allocation.
const INLINE_TYPES: usize = 2;

/// Filler of an unused inline slot: a count of zero, which no kept pair
/// has.
const NO_TYPE: (DirectedEdgeType, u64) = (
    DirectedEdgeType {
        edge_type: EdgeType(0),
        direction: Direction::Outgoing,
    },
    0,
);

/// One vertex's row of the census: each directed edge type incident to the
/// vertex with its (positive) count, in the order the types first arrived.
/// Up to [`INLINE_TYPES`] pairs live inline (filled slots first,
/// [`NO_TYPE`] behind them); the next type moves the row to the heap, where
/// it stays until decay empties the vertex. This is the `EdgeList` idiom of
/// `sp-graph`'s adjacency.
#[derive(Debug, Clone)]
enum Incidence {
    Inline([(DirectedEdgeType, u64); INLINE_TYPES]),
    Spilled(Vec<(DirectedEdgeType, u64)>),
}

impl Default for Incidence {
    fn default() -> Self {
        Incidence::Inline([NO_TYPE; INLINE_TYPES])
    }
}

impl Incidence {
    fn as_slice(&self) -> &[(DirectedEdgeType, u64)] {
        match self {
            Incidence::Inline(pairs) => {
                let len = pairs.iter().take_while(|&&(_, n)| n > 0).count();
                &pairs[..len]
            }
            Incidence::Spilled(pairs) => pairs,
        }
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Counts one more incident edge of directed type `t`.
    fn bump(&mut self, t: DirectedEdgeType) {
        match self {
            // Filled slots come first, so the first slot that is `t`'s or
            // free is where `t` is counted.
            Incidence::Inline(pairs) => match pairs.iter_mut().find(|(u, n)| *u == t || *n == 0) {
                Some(pair) => *pair = (t, pair.1 + 1),
                None => {
                    let mut spilled = Vec::with_capacity(2 * INLINE_TYPES);
                    spilled.extend_from_slice(pairs);
                    spilled.push((t, 1));
                    *self = Incidence::Spilled(spilled);
                }
            },
            Incidence::Spilled(pairs) => match pairs.iter_mut().find(|(u, _)| *u == t) {
                Some(pair) => pair.1 += 1,
                None => pairs.push((t, 1)),
            },
        }
    }

    /// Halves every count (integer division) and drops the pairs that reach
    /// zero, keeping the others in order.
    fn halve(&mut self) {
        match self {
            Incidence::Inline(pairs) => {
                let mut kept = 0;
                for (t, n) in *pairs {
                    if n / 2 > 0 {
                        pairs[kept] = (t, n / 2);
                        kept += 1;
                    }
                }
                pairs[kept..].fill(NO_TYPE);
            }
            Incidence::Spilled(pairs) => pairs.retain_mut(|(_, n)| {
                *n /= 2;
                *n > 0
            }),
        }
    }
}

/// Counts of 2-edge paths per wedge signature.
#[derive(Debug, Clone, Default)]
pub struct TwoEdgePathCounter {
    counts: FastMap<TwoEdgePathSignature, u64>,
    total: u64,
    /// Per-vertex counts of incident directed edge types, used only by the
    /// incremental update path (`Cv` in Algorithm 5).
    per_vertex: FastMap<VertexId, Incidence>,
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
            let mut cv = Incidence::default();
            for inc in graph.incident_edges(v) {
                cv.bump(DirectedEdgeType::new(inc.edge_type, inc.direction));
            }
            let types = cv.as_slice();
            for (i, &(t1, n1)) in types.iter().enumerate() {
                // Same-type pairs: C(n1, 2).
                let same = n1 * n1.saturating_sub(1) / 2;
                add(counts, total, TwoEdgePathSignature::new(t1, t1), same);
                // Cross-type pairs, each unordered pair once: n1 * n2.
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
            for &(t, n) in incident.as_slice() {
                add(counts, total, TwoEdgePathSignature::new(new_type, t), n);
            }
            incident.bump(new_type);
        }
    }

    /// Halves every wedge count (integer division), dropping signatures that
    /// reach zero, and recomputes the total — the decay step behind
    /// [`StatsMode::Decayed`](crate::StatsMode). The per-vertex incidence
    /// counters the incremental path uses are halved as well (a vertex whose
    /// counts all reach zero is dropped), so wedges formed by future edges
    /// are weighted toward recent structure; under decay the incremental
    /// counts are therefore a recency-weighted approximation rather than the
    /// exact census of [`TwoEdgePathCounter::from_graph`].
    pub fn halve(&mut self) {
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        self.total = self.counts.values().sum();
        self.per_vertex.retain(|_, row| {
            row.halve();
            !row.is_empty()
        });
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
    use crate::StatsMode;
    use sp_graph::{EdgeEvent, Schema, Timestamp, VertexType};
    use std::collections::HashMap;

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

    /// A nested-map census: a hash map of incident type counts per vertex,
    /// and the wedge counts on the default hasher. It is the oracle of the
    /// equivalence tests below.
    #[derive(Default)]
    struct NestedCensus {
        counts: HashMap<TwoEdgePathSignature, u64>,
        per_vertex: HashMap<VertexId, HashMap<DirectedEdgeType, u64>>,
    }

    impl NestedCensus {
        fn observe_edge(&mut self, edge: &EdgeData) {
            for (v, dir) in [
                (edge.src, Direction::Outgoing),
                (edge.dst, Direction::Incoming),
            ] {
                let new_type = DirectedEdgeType::new(edge.edge_type, dir);
                let incident = self.per_vertex.entry(v).or_default();
                for (&t, &n) in incident.iter() {
                    *self
                        .counts
                        .entry(TwoEdgePathSignature::new(new_type, t))
                        .or_insert(0) += n;
                }
                *incident.entry(new_type).or_insert(0) += 1;
            }
        }

        fn halve(&mut self) {
            self.counts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
            for per in self.per_vertex.values_mut() {
                per.retain(|_, c| {
                    *c /= 2;
                    *c > 0
                });
            }
            self.per_vertex.retain(|_, per| !per.is_empty());
        }

        fn descending(&self) -> Vec<(TwoEdgePathSignature, u64)> {
            let mut v: Vec<_> = self.counts.iter().map(|(&s, &c)| (s, c)).collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        }
    }

    /// Asserts that `census` and the oracle hold the same census: the same
    /// wedge counts, total and number of tracked vertices.
    fn assert_same(census: &TwoEdgePathCounter, oracle: &NestedCensus, at: &str) {
        assert_eq!(census.descending(), oracle.descending(), "{at}");
        assert_eq!(census.total(), oracle.counts.values().sum::<u64>(), "{at}");
        assert_eq!(census.num_signatures(), oracle.counts.len(), "{at}");
        assert_eq!(census.per_vertex.len(), oracle.per_vertex.len(), "{at}");
    }

    /// A seeded stream over ten edge types and 60 vertices. Four hubs take
    /// half the endpoints, so their rows reach five and more directed types
    /// and spill; about one edge in twelve is a self-loop and one in eight
    /// repeats the edge before it.
    fn hub_stream(len: u64) -> Vec<EdgeEvent> {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let mut events: Vec<EdgeEvent> = Vec::new();
        for i in 0..len {
            let roll = next(24);
            let mut endpoint = || if next(2) == 0 { next(4) } else { next(60) };
            let (src, dst, t) = match (roll, events.last()) {
                (0..=2, Some(last)) => (last.src, last.dst, last.edge_type),
                (3 | 4, _) => {
                    let v = endpoint();
                    (v, v, EdgeType(next(10) as u32))
                }
                _ => (endpoint(), endpoint(), EdgeType(next(10) as u32)),
            };
            events.push(EdgeEvent::homogeneous(
                src,
                dst,
                VertexType(0),
                t,
                Timestamp(i),
            ));
        }
        events
    }

    /// The stream's edges as a graph stores them.
    fn ingested(events: &[EdgeEvent]) -> Vec<EdgeData> {
        let mut g = DynamicGraph::new(Schema::new());
        events.iter().map(|ev| g.ingest(ev).0).collect()
    }

    #[test]
    fn flat_census_equals_the_nested_census_under_every_mode() {
        let edges = ingested(&hub_stream(3_000));
        for mode in [
            StatsMode::Cumulative,
            StatsMode::Decayed(1),
            StatsMode::Decayed(7),
            StatsMode::Decayed(64),
        ] {
            let mut census = TwoEdgePathCounter::new();
            let mut oracle = NestedCensus::default();
            for (i, edge) in edges.iter().enumerate() {
                census.observe_edge(edge);
                oracle.observe_edge(edge);
                let decays = match mode {
                    StatsMode::Cumulative => false,
                    StatsMode::Decayed(k) => (i as u64 + 1).is_multiple_of(k),
                };
                if decays {
                    census.halve();
                    oracle.halve();
                    assert_same(&census, &oracle, &format!("{mode:?}, decay after edge {i}"));
                }
            }
            assert_same(&census, &oracle, &format!("{mode:?}, end of stream"));
        }
        // The stream reaches the layout's corners: spilled rows and
        // self-loops.
        let mut census = TwoEdgePathCounter::new();
        edges.iter().for_each(|e| census.observe_edge(e));
        let widest = census.per_vertex.values().map(|r| r.as_slice().len()).max();
        assert!(widest >= Some(5), "widest row: {widest:?}");
        assert!(edges.iter().any(|e| e.src == e.dst));
    }

    #[test]
    fn snapshot_then_later_edges_equals_observing_every_edge() {
        let events = hub_stream(2_000);
        let edges = ingested(&events);
        let before = &events[..events.len() / 2];
        let mut graph = DynamicGraph::new(Schema::new());
        before.iter().for_each(|ev| {
            graph.ingest(ev);
        });
        let mut continued = TwoEdgePathCounter::from_graph(&graph);
        let mut everything = TwoEdgePathCounter::new();
        let mut oracle = NestedCensus::default();
        for edge in &edges[..before.len()] {
            everything.observe_edge(edge);
            oracle.observe_edge(edge);
        }
        assert_same(&continued, &oracle, "snapshot");
        for edge in &edges[before.len()..] {
            continued.observe_edge(edge);
            everything.observe_edge(edge);
            oracle.observe_edge(edge);
        }
        assert_same(&continued, &oracle, "snapshot continued");
        assert_same(&everything, &oracle, "every edge observed");
    }

    #[test]
    fn a_row_is_the_size_of_a_bare_vec_and_one_more_word() {
        assert_eq!(std::mem::size_of::<Incidence>(), 32);
    }
}
