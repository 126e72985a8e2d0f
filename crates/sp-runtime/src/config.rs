//! Tunables of the parallel runtime.

use streampattern::{DriftConfig, DEFAULT_PURGE_INTERVAL};

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
    /// sequential `StreamProcessor::with_purge_interval`; the default is the
    /// sequential shard's, [`DEFAULT_PURGE_INTERVAL`]).
    pub purge_interval: u64,
    /// Maintain live stream statistics on the ingest path (feeds
    /// `StrategySpec::Auto` registration, exactly like the sequential
    /// processor's default). Disable for measurement parity with the paper's
    /// prefix-statistics methodology.
    pub collect_statistics: bool,
    /// Drift-adaptive re-decomposition (`None` = off). When set, the
    /// facade's control plane re-plans every registered query from the
    /// ingest-path statistics every `check_interval` edges (at the next
    /// batch boundary) and, on a materially better plan, the facade sends a
    /// re-decomposition job down the owning worker's FIFO channel — the swap
    /// lands at a deterministic point between batches and replays the
    /// worker's retained graph, so the reported match multiset is unchanged.
    /// Requires `collect_statistics`; with statistics off the re-plans
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
            purge_interval: DEFAULT_PURGE_INTERVAL,
            collect_statistics: true,
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

    /// Enables drift-adaptive re-decomposition with the given check
    /// cadence (see [`RuntimeConfig::adaptive`]).
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
        // Both front ends purge on one cadence, so a lazy retroactive probe
        // sees the same pre-registration edges on either.
        assert_eq!(c.purge_interval, DEFAULT_PURGE_INTERVAL);
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
