//! Tunables of the parallel runtime.

use streampattern::DriftConfig;

/// Configuration of a [`ParallelStreamProcessor`](crate::ParallelStreamProcessor).
///
/// The defaults are sized for a laptop-class machine: enough batching to
/// amortize channel traffic, channels bounded tightly enough that a stalled
/// worker (or a slow match consumer) pushes backpressure all the way to the
/// ingest loop instead of buffering the stream in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of worker threads (shards). Clamped to at least 1.
    pub workers: usize,
    /// Number of stream events per ingest batch. Each batch is broadcast to
    /// every worker as one `Arc`'d message.
    pub batch_size: usize,
    /// Capacity, in batches, of each worker's bounded input channel. When a
    /// worker falls this many batches behind, the ingest loop blocks
    /// (backpressure) instead of queueing more.
    pub channel_capacity: usize,
    /// Capacity, in match batches, of the shared aggregation channel workers
    /// report matches through. A slow match consumer eventually blocks the
    /// workers, which in turn blocks ingest — memory stays bounded end to
    /// end.
    pub match_capacity: usize,
    /// Edges between partial-match purges in each worker's shard (the
    /// sequential `StreamProcessor::with_purge_interval`).
    pub purge_interval: u64,
    /// Maintain live stream statistics on the ingest path (feeds
    /// `StrategySpec::Auto` registration, exactly like the sequential
    /// processor's default). Disable for measurement parity with the paper's
    /// prefix-statistics methodology.
    pub collect_statistics: bool,
    /// When `true`, a worker skips ingesting edges whose type is absent from
    /// its local dispatch index entirely (they are not even added to the
    /// shard's graph replica). This shards the graph as well as the engine
    /// work and is substantially faster, but it assumes queries are
    /// registered before the stream starts (late registrations will not see
    /// skipped history) and that the stream has no vertex-type conflicts
    /// (conflict resolution becomes shard-local). Match sets for
    /// pre-registered queries are unaffected: a match can only use edges
    /// whose types occur in its query.
    pub ingest_filter: bool,
    /// Drift-adaptive re-decomposition (`None` = off). When set, the
    /// facade's control plane checks every registered query's drift
    /// detector against the ingest-path statistics every `check_interval`
    /// edges (at the next batch boundary) and, on a confirmed plan change,
    /// the facade sends a `Redecompose` control message down the owning
    /// worker's FIFO channel — the swap lands at a deterministic point
    /// between batches and replays the worker's retained graph, so the
    /// reported match multiset is unchanged.
    /// Requires `collect_statistics`; with statistics off the detectors
    /// never see movement.
    pub adaptive: Option<DriftConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            batch_size: 256,
            channel_capacity: 32,
            match_capacity: 1024,
            purge_interval: 4096,
            collect_statistics: true,
            ingest_filter: false,
            adaptive: None,
        }
    }
}

impl RuntimeConfig {
    /// Default configuration with the given worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ..Self::default()
        }
    }

    /// Sets the ingest batch size (clamped to at least 1).
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Sets each worker's input channel capacity in batches (clamped to at
    /// least 1).
    pub fn channel_capacity(mut self, cap: usize) -> Self {
        self.channel_capacity = cap.max(1);
        self
    }

    /// Sets the aggregation channel capacity in match batches (clamped to at
    /// least 1).
    pub fn match_capacity(mut self, cap: usize) -> Self {
        self.match_capacity = cap.max(1);
        self
    }

    /// Sets the per-worker purge interval (clamped to at least 1).
    pub fn purge_interval(mut self, interval: u64) -> Self {
        self.purge_interval = interval.max(1);
        self
    }

    /// Enables or disables live stream-statistics collection on the ingest
    /// path.
    pub fn statistics(mut self, enabled: bool) -> Self {
        self.collect_statistics = enabled;
        self
    }

    /// Enables or disables shard-local ingest filtering (see
    /// [`RuntimeConfig::ingest_filter`] for the trade-off).
    pub fn ingest_filtering(mut self, enabled: bool) -> Self {
        self.ingest_filter = enabled;
        self
    }

    /// Enables drift-adaptive re-decomposition with the given detector
    /// configuration (see [`RuntimeConfig::adaptive`]).
    pub fn adaptive(mut self, config: DriftConfig) -> Self {
        self.adaptive = Some(config);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = RuntimeConfig::default();
        assert!(c.workers >= 1);
        assert!(c.batch_size >= 1);
        assert!(c.channel_capacity >= 1);
        assert!(c.match_capacity >= 1);
        assert!(c.collect_statistics);
        assert!(!c.ingest_filter);
    }

    #[test]
    fn builders_clamp_to_minimums() {
        let c = RuntimeConfig::with_workers(0)
            .batch_size(0)
            .channel_capacity(0)
            .match_capacity(0)
            .purge_interval(0);
        assert_eq!(c.workers, 1);
        assert_eq!(c.batch_size, 1);
        assert_eq!(c.channel_capacity, 1);
        assert_eq!(c.match_capacity, 1);
        assert_eq!(c.purge_interval, 1);
    }
}
