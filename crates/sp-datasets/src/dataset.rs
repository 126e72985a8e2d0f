//! The common output shape of every generator.

use sp_graph::{DynamicGraph, EdgeData, EdgeEvent, EdgeId, Schema, VertexId};
use sp_query::EdgeSignature;
use sp_selectivity::{EdgeDistributionTimeline, SelectivityEstimator, StatsMode};

/// A generated dataset: a schema, an ordered edge stream and the list of
/// valid `(vertex type, edge type, vertex type)` triples that describe which
/// edges can occur (used by the query generators, mirroring how the paper
/// derives LSBench queries from the benchmark schema).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable dataset name ("netflow", "lsbench", "nytimes").
    pub name: String,
    /// Schema holding the interned vertex and edge type names.
    pub schema: Schema,
    /// The edge stream in arrival order.
    pub events: Vec<EdgeEvent>,
    /// Valid triples of the dataset's schema.
    pub valid_triples: Vec<EdgeSignature>,
}

impl Dataset {
    /// Number of events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of distinct external vertex ids referenced by the stream.
    pub fn num_vertices(&self) -> usize {
        let mut ids: Vec<u64> = self.events.iter().flat_map(|e| [e.src, e.dst]).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Builds a [`SelectivityEstimator`] from the first `prefix` events —
    /// the paper's "processing an initial set of edges from the graph
    /// stream" (Section 5.1). The 2-edge path statistics are collected
    /// incrementally, which matches Algorithm 5 run over the prefix graph.
    pub fn estimator_from_prefix(&self, prefix: usize) -> SelectivityEstimator {
        Self::estimator_from_events(
            &self.events[..prefix.min(self.events.len())],
            StatsMode::Cumulative,
        )
    }

    /// Builds a [`SelectivityEstimator`] with the given [`StatsMode`] over
    /// an arbitrary event slice (edge ids are assigned by slice position).
    /// This is the single seeding path shared by the drift benchmark, tests
    /// and examples: phase-specific statistics come from the matching
    /// segment of the stream, decayed statistics from
    /// [`StatsMode::Decayed`].
    pub fn estimator_from_events(events: &[EdgeEvent], mode: StatsMode) -> SelectivityEstimator {
        let mut est = SelectivityEstimator::new().with_mode(mode);
        for (i, ev) in events.iter().enumerate() {
            est.observe_edge(&EdgeData {
                id: EdgeId(i as u64),
                src: VertexId(ev.src),
                dst: VertexId(ev.dst),
                edge_type: ev.edge_type,
                timestamp: ev.timestamp,
            });
        }
        est
    }

    /// Collects the per-interval edge type distribution of the whole stream
    /// (Figure 6).
    pub fn edge_distribution(&self, interval: u64) -> EdgeDistributionTimeline {
        let mut timeline = EdgeDistributionTimeline::new(interval);
        for ev in &self.events {
            timeline.observe(ev.edge_type);
        }
        timeline.finish();
        timeline
    }

    /// Materializes the whole stream into a [`DynamicGraph`] (used by tests
    /// and by analyses of a graph snapshot, such as its degree statistics).
    /// A vertex-type conflict keeps the first type.
    pub fn build_graph(&self) -> DynamicGraph {
        let mut g = DynamicGraph::new(self.schema.clone());
        for ev in &self.events {
            g.ingest(ev);
        }
        g
    }

    /// The events of the stream (borrowed).
    pub fn events(&self) -> &[EdgeEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{EdgeType, Timestamp, VertexType};

    fn tiny_dataset() -> Dataset {
        let mut schema = Schema::new();
        let v = schema.intern_vertex_type("v");
        let t0 = schema.intern_edge_type("t0");
        let t1 = schema.intern_edge_type("t1");
        let events = vec![
            EdgeEvent::homogeneous(1, 2, v, t0, Timestamp(1)),
            EdgeEvent::homogeneous(2, 3, v, t1, Timestamp(2)),
            EdgeEvent::homogeneous(1, 3, v, t0, Timestamp(3)),
        ];
        Dataset {
            name: "tiny".into(),
            schema,
            events,
            valid_triples: vec![EdgeSignature::new(
                VertexType(0),
                EdgeType(0),
                VertexType(0),
            )],
        }
    }

    #[test]
    fn counts_vertices_and_events() {
        let d = tiny_dataset();
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.num_vertices(), 3);
    }

    #[test]
    fn estimator_prefix_only_sees_prefix() {
        let d = tiny_dataset();
        let est = d.estimator_from_prefix(2);
        assert_eq!(est.num_edges_observed(), 2);
        let full = d.estimator_from_prefix(100);
        assert_eq!(full.num_edges_observed(), 3);
    }

    #[test]
    fn graph_matches_stream() {
        let d = tiny_dataset();
        let g = d.build_graph();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn timeline_covers_stream() {
        let d = tiny_dataset();
        let t = d.edge_distribution(2);
        assert_eq!(t.num_intervals(), 2);
        let total: u64 = t.snapshots().iter().map(|h| h.total()).sum();
        assert_eq!(total, 3);
    }
}
