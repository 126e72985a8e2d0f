//! Tunables of the thread executor.

/// Configuration of a [`ParallelStreamProcessor`](crate::ParallelStreamProcessor):
/// its worker threads and the channels between them and the caller. The
/// defaults batch enough to amortize channel traffic and bound the channels
/// tightly enough that a stalled worker (or a slow match consumer) pushes
/// backpressure to the ingest loop instead of buffering the stream.
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
    /// Maintain live stream statistics on the ingest path (see
    /// [`RuntimeConfig::statistics`]).
    pub collect_statistics: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            batch_size: 256,
            channel_capacity: 32,
            match_capacity: 1024,
            collect_statistics: true,
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

    /// Enables or disables live stream-statistics collection on the ingest
    /// path: the processor's `with_statistics`, as a setting. Kept only
    /// because the repository benchmark sets it; it goes once that stops
    /// (ROADMAP item 12).
    pub fn statistics(mut self, enabled: bool) -> Self {
        self.collect_statistics = enabled;
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
    }

    #[test]
    fn builders_clamp_to_minimums() {
        let c = RuntimeConfig::with_workers(0)
            .batch_size(0)
            .channel_capacity(0)
            .match_capacity(0);
        assert_eq!(c.workers, 1);
        assert_eq!(c.batch_size, 1);
        assert_eq!(c.channel_capacity, 1);
        assert_eq!(c.match_capacity, 1);
    }
}
