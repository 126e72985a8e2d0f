//! Pipeline instrumentation: the bundle of `sp-metrics` handles the
//! processor and registry record into when metrics are enabled.
//!
//! The paper's §6.4 splits query cost into isomorphism (search) time and
//! SJ-Tree maintenance time from end-of-run totals; [`PipelineMetrics`]
//! makes the same split observable continuously, one span counter per
//! pipeline stage:
//!
//! | metric | type | unit | stage |
//! |---|---|---|---|
//! | `stream.edges_total`      | counter   | events | ingest |
//! | `stream.matches_total`    | counter   | matches | emit |
//! | `stage.ingest_ns`         | counter   | ns | vertex/edge insert + statistics |
//! | `stage.dispatch_ns`       | counter   | ns | edge-type dispatch lookup |
//! | `stage.shared_join_ns`    | counter   | ns | shared prefix-table advance + prefix-row pulls |
//! | `stage.shared_leaf_ns`    | counter   | ns | shared anchored leaf searches + their fan-out |
//! | `stage.private_engine_ns` | counter   | ns | per-engine SJ-Tree / VF2 work |
//! | `stage.emit_ns`           | counter   | ns | match delivery to the sink |
//! | `stage.purge_ns`          | counter   | ns | amortized expiry / purge passes |
//! | `pipeline.edge_ns`        | histogram | ns | whole per-edge pipeline |
//! | `match.latency_ns`        | histogram | ns | event arrival → match emission |
//!
//! Every handle is an `Arc`-backed atomic, so cloning the bundle into the
//! runtime's worker replicas aggregates all shards into one set of series.
//!
//! # Span boundaries
//!
//! The registry's stage spans are laps of one clock ([`StageClock`]): each
//! boundary is a single clock read that closes one span and opens the next,
//! so the spans of an edge tile its dispatch without gaps. A stage that did
//! no work for an edge takes no lap (and so books nothing).
//!
//! * `shared_join_ns` is the join work proper: the once-per-edge
//!   `advance_edge` over the prefix tables (leaf searches, row inserts,
//!   hash joins, rows written to the tables' pending buffers) — one lap,
//!   taken only when some table holds the edge's type — plus, per
//!   partial-depth subscriber, one lap closing the pull of its prefix-root
//!   rows into its engine (filter + slot permutation into the arena). A
//!   candidate without a join subscription takes none.
//! * `shared_leaf_ns` is charged from inside the registry's leaf source,
//!   two clock reads per *served* shared leaf: the canonical search (or memo
//!   hit) plus the slot permutation of its rows into the pulling engine's
//!   arena. Leaves handed back to their engine (single-subscriber shapes)
//!   read no clock and are `private_engine_ns`, like the rest of the
//!   engine's leaf loop around the pulls: type filter, Lazy Search gate,
//!   own searches, inserts and joins.
//! * `emit_ns` is delivery: for a full-depth subscriber of a prefix table
//!   the whole direct path — window/boundary filter on the row, the one
//!   row → `SubgraphMatch` materialization, the sink callback; for an
//!   engine that ran, draining its complete matches into the sink.
//! * `stream.matches_total` and `match.latency_ns` are recorded once per
//!   delivering query per edge, after its burst: one clock read, the
//!   burst's match count, every match of the burst at that latency.

use sp_metrics::{Counter, Histogram, MetricsRegistry};
use std::time::Instant;

/// The instrumentation bundle threaded through
/// [`StreamProcessor`](crate::StreamProcessor) and
/// [`QueryRegistry`](crate::QueryRegistry).
///
/// Attach with
/// [`StreamProcessor::with_metrics`](crate::StreamProcessor::with_metrics);
/// when absent, the hot path pays a single branch.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// Events ingested (`stream.edges_total`).
    pub edges: Counter,
    /// Matches emitted across all queries (`stream.matches_total`).
    pub matches: Counter,
    /// Nanoseconds in vertex/edge insertion and statistics
    /// (`stage.ingest_ns`).
    pub ingest_ns: Counter,
    /// Nanoseconds in the edge-type dispatch lookup (`stage.dispatch_ns`).
    pub dispatch_ns: Counter,
    /// Nanoseconds advancing shared prefix tables and pulling their rows
    /// into partial-depth subscribers' engines (`stage.shared_join_ns`).
    pub shared_join_ns: Counter,
    /// Nanoseconds in shared anchored leaf searches and their fan-out
    /// (`stage.shared_leaf_ns`).
    pub shared_leaf_ns: Counter,
    /// Nanoseconds in private engine work — SJ-Tree joins, lazy searches,
    /// VF2 (`stage.private_engine_ns`).
    pub private_engine_ns: Counter,
    /// Nanoseconds delivering matches to the sink, direct row → match
    /// delivery included (`stage.emit_ns`).
    pub emit_ns: Counter,
    /// Nanoseconds in amortized expiry/purge passes (`stage.purge_ns`).
    pub purge_ns: Counter,
    /// Per-edge wall time through the whole pipeline (`pipeline.edge_ns`).
    pub edge_ns: Histogram,
    /// Detection latency, event arrival to match emission
    /// (`match.latency_ns`).
    pub match_latency_ns: Histogram,
}

impl PipelineMetrics {
    /// Register (or re-acquire) the pipeline instruments in `registry`.
    /// Registration is idempotent: every caller passing the same registry
    /// shares the same underlying atomics.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            edges: registry.counter("stream.edges_total"),
            matches: registry.counter("stream.matches_total"),
            ingest_ns: registry.counter("stage.ingest_ns"),
            dispatch_ns: registry.counter("stage.dispatch_ns"),
            shared_join_ns: registry.counter("stage.shared_join_ns"),
            shared_leaf_ns: registry.counter("stage.shared_leaf_ns"),
            private_engine_ns: registry.counter("stage.private_engine_ns"),
            emit_ns: registry.counter("stage.emit_ns"),
            purge_ns: registry.counter("stage.purge_ns"),
            edge_ns: registry.histogram("pipeline.edge_ns"),
            match_latency_ns: registry.histogram("match.latency_ns"),
        }
    }

    /// A bundle detached from any registry (tests and internal defaults).
    pub fn detached() -> Self {
        Self::register(&MetricsRegistry::new())
    }

    /// The per-stage span totals as `(stage name, nanoseconds)`, in pipeline
    /// order — the live counterpart of the paper's §6.4 cost split.
    pub fn stage_split(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("ingest", self.ingest_ns.get()),
            ("dispatch", self.dispatch_ns.get()),
            ("shared_join", self.shared_join_ns.get()),
            ("shared_leaf", self.shared_leaf_ns.get()),
            ("private_engine", self.private_engine_ns.get()),
            ("emit", self.emit_ns.get()),
            ("purge", self.purge_ns.get()),
        ]
    }
}

/// Lap timer behind the per-stage spans of
/// [`QueryRegistry::process_edge`](crate::QueryRegistry::process_edge): each
/// [`StageClock::charge`] books the time since the previous one to a stage
/// counter with a single clock read, so consecutive spans tile the edge's
/// wall time without gaps. Without metrics it never reads the clock.
pub(crate) struct StageClock<'a>(Option<(&'a PipelineMetrics, Instant)>);

impl<'a> StageClock<'a> {
    pub(crate) fn start(metrics: Option<&'a PipelineMetrics>) -> Self {
        Self(metrics.map(|m| (m, Instant::now())))
    }

    pub(crate) fn charge(&mut self, stage: impl FnOnce(&'a PipelineMetrics) -> &'a Counter) {
        if let Some((metrics, since)) = &mut self.0 {
            let now = Instant::now();
            stage(metrics).add((now - *since).as_nanos() as u64);
            *since = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_across_bundles() {
        let reg = MetricsRegistry::new();
        let a = PipelineMetrics::register(&reg);
        let b = PipelineMetrics::register(&reg);
        a.edges.add(2);
        b.edges.inc();
        assert_eq!(reg.snapshot().counter("stream.edges_total"), Some(3));
    }

    #[test]
    fn stage_split_reports_in_pipeline_order() {
        let m = PipelineMetrics::detached();
        m.shared_join_ns.add(10);
        let split = m.stage_split();
        assert_eq!(split[0].0, "ingest");
        assert_eq!(split[2], ("shared_join", 10));
    }
}
