//! Log-bucketed latency histogram with a lock-free, allocation-free record
//! path.
//!
//! The bucket layout is *log-linear* (the scheme used by HdrHistogram and the
//! tokio runtime metrics): each power-of-two octave is split into
//! [`SUB_BUCKETS`] linear sub-buckets, so any recorded value lands in a
//! bucket whose width is at most `1/SUB_BUCKETS` of its lower bound. With 16
//! sub-buckets the worst-case relative quantile error is 6.25%, constant
//! across nine decades of nanosecond latencies.
//!
//! Recording touches only relaxed atomics — histograms can be shared across
//! runtime workers and sampled concurrently by the exporter without locks —
//! and [`HistogramSnapshot`]s merge associatively, so per-worker histograms
//! aggregate to exactly the histogram a single shared instance would have
//! produced.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave. Must be a power of two.
pub const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros(); // 4

/// Total number of buckets: the linear group for values `0..SUB_BUCKETS`
/// plus one group of `SUB_BUCKETS` sub-buckets per octave up to `u64::MAX`
/// (whose top bit yields group index `64 - SUB_BITS`, hence the `+ 1`).
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// Index of the bucket a value is recorded into.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    // `msb >= SUB_BITS` here, so the shift is non-negative and the offset
    // lands in `0..SUB_BUCKETS`.
    let msb = 63 - value.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let offset = ((value >> (msb - SUB_BITS)) as usize) - SUB_BUCKETS;
    group * SUB_BUCKETS + offset
}

/// Smallest value that maps to bucket `index` (the bucket's lower bound).
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    let group = index / SUB_BUCKETS;
    let offset = (index % SUB_BUCKETS) as u64;
    if group == 0 {
        offset
    } else {
        (SUB_BUCKETS as u64 + offset) << (group - 1)
    }
}

/// A concurrent log-linear histogram of `u64` values (typically nanoseconds).
///
/// All mutation goes through `&self` with relaxed atomics: the record path
/// performs three `fetch_add`s and two min/max updates, allocates nothing,
/// and never blocks. Use one instance shared across threads, or one per
/// worker merged at read time via [`HistogramSnapshot::merge`].
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free, allocation-free, relaxed ordering.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of one value — a burst observed with a single
    /// clock read — at the cost of recording one.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current contents into an owned, mergeable snapshot.
    ///
    /// Concurrent recording may race the copy (counts are not a single
    /// atomic transaction), but every individual bucket value read is exact
    /// and the snapshot's `count` is recomputed from the buckets so the
    /// percentile walk is always internally consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`LogHistogram`]'s state: mergeable across workers and
/// queryable for percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no recorded values.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Fold another snapshot into this one. Merging is commutative and
    /// associative: merging per-worker histograms in any order yields the
    /// histogram a single shared instance would have recorded.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in `[0, 1]`: the lower bound of the bucket
    /// holding the `ceil(q * count)`-th smallest recorded value (so values
    /// below [`SUB_BUCKETS`] are reported exactly, larger ones with at most
    /// `1/SUB_BUCKETS` relative error, and the result never exceeds the true
    /// value). Returns `None` if the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target value, 1-based; q = 0 maps to the first value.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The bucket's lower bound can undershoot the recorded
                // minimum (e.g. a single sample of 1000 reports p50 = the
                // bucket floor); clamp into the observed range instead.
                return Some(bucket_lower_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// p50 / p90 / p99 / p99.9 / max, as a fixed summary for exporters.
    pub fn percentiles(&self) -> PercentileSummary {
        PercentileSummary {
            count: self.count,
            p50: self.percentile(0.50).unwrap_or(0),
            p90: self.percentile(0.90).unwrap_or(0),
            p99: self.percentile(0.99).unwrap_or(0),
            p999: self.percentile(0.999).unwrap_or(0),
            max: self.max().unwrap_or(0),
        }
    }
}

/// The fixed percentile ladder reported by exporters and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PercentileSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest recorded value.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic 64-bit LCG (same constants as the runtime's synthetic
    /// stream generator) — keeps the oracle test seeded without a `rand`
    /// dependency.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 ^ (self.0 >> 33)
        }
    }

    #[test]
    fn record_n_equals_n_records() {
        let (burst, single) = (LogHistogram::new(), LogHistogram::new());
        for (value, n) in [(7u64, 3u64), (1_000, 1), (123_456, 57)] {
            burst.record_n(value, n);
            for _ in 0..n {
                single.record(value);
            }
        }
        assert_eq!(burst.snapshot(), single.snapshot());
        assert_eq!(burst.count(), 61);
    }

    #[test]
    fn small_values_are_exact() {
        // Values below SUB_BUCKETS get a bucket each: boundaries are exact.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_exact_at_octave_edges() {
        // The lower bound of every bucket must map back to that bucket, and
        // the value one below must map to the previous bucket.
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lower_bound(i);
            if i > 0 {
                assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
                assert_eq!(bucket_index(lo - 1), i - 1, "predecessor of bucket {i}");
            }
        }
        // Spot-check octave edges explicitly.
        for &v in &[16u64, 31, 32, 63, 64, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v);
            if i + 1 < NUM_BUCKETS {
                assert!(v < bucket_lower_bound(i + 1));
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut x = 1u64;
        while x < u64::MAX / 3 {
            let i = bucket_index(x);
            let lo = bucket_lower_bound(i);
            assert!(lo <= x);
            let err = (x - lo) as f64 / x as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64, "value {x}: error {err}");
            x = x.wrapping_mul(3).wrapping_add(7);
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 1000, 123456]);
        let b = mk(&[2, 2, 2, 999999999]);
        let c = mk(&[77, 88, u64::MAX]);

        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        // a ∪ b == b ∪ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        assert_eq!(ab_c.count(), 11);
        assert_eq!(ab_c.max(), Some(u64::MAX));
        assert_eq!(ab_c.min(), Some(1));
    }

    #[test]
    fn merged_workers_equal_shared_instance() {
        // Recording split across N "workers" then merged must equal one
        // shared histogram fed the full stream.
        let shared = LogHistogram::new();
        let workers: Vec<LogHistogram> = (0..4).map(|_| LogHistogram::new()).collect();
        let mut rng = Lcg(42);
        for k in 0..10_000u64 {
            let v = rng.next() >> (rng.next() % 50);
            shared.record(v);
            workers[(k % 4) as usize].record(v);
        }
        let mut merged = HistogramSnapshot::empty();
        for w in &workers {
            merged.merge(&w.snapshot());
        }
        assert_eq!(merged, shared.snapshot());
    }

    #[test]
    fn percentiles_are_monotone_on_adversarial_distributions() {
        let cases: Vec<Vec<u64>> = vec![
            vec![0; 1000],                                             // all zero
            vec![u64::MAX; 10],                                        // all max
            (0..1000u64).collect(),                                    // uniform ramp
            (0..64).map(|k| 1u64 << k).collect(),                      // one per octave
            std::iter::repeat_n(7u64, 999).chain([1 << 40]).collect(), // extreme outlier
            vec![15, 16, 17], // straddling the linear/log edge
        ];
        for vals in cases {
            let h = LogHistogram::new();
            for &v in &vals {
                h.record(v);
            }
            let s = h.snapshot();
            let mut prev = 0u64;
            for step in 0..=1000 {
                let q = step as f64 / 1000.0;
                let p = s.percentile(q).unwrap();
                assert!(p >= prev, "percentile({q}) = {p} < {prev}");
                prev = p;
            }
            assert!(s.percentile(1.0).unwrap() <= s.max().unwrap());
            assert!(s.percentile(0.0).unwrap() >= s.min().unwrap());
        }
    }

    #[test]
    fn seeded_randomized_comparison_against_sorted_oracle() {
        let mut rng = Lcg(0x9E3779B97F4A7C15);
        let h = LogHistogram::new();
        let mut oracle: Vec<u64> = Vec::new();
        for _ in 0..50_000 {
            // Mix of magnitudes: shifts spread values across octaves the way
            // real latency distributions do.
            let v = rng.next() >> (rng.next() % 56);
            h.record(v);
            oracle.push(v);
        }
        oracle.sort_unstable();
        let s = h.snapshot();
        assert_eq!(s.count(), oracle.len() as u64);
        assert_eq!(s.min(), oracle.first().copied());
        assert_eq!(s.max(), oracle.last().copied());
        for &q in &[0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * oracle.len() as f64).ceil() as usize).clamp(1, oracle.len());
            let truth = oracle[rank - 1];
            let est = s.percentile(q).unwrap();
            // The estimate is the bucket lower bound: never above the truth,
            // and within the 1/SUB_BUCKETS relative error envelope below it.
            assert!(est <= truth, "q={q}: est {est} > truth {truth}");
            let tolerance = truth / SUB_BUCKETS as u64 + 1;
            assert!(
                truth - est <= tolerance,
                "q={q}: est {est} too far below truth {truth}"
            );
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(LogHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for k in 0..10_000u64 {
                        h.record(t * 1_000_000 + k);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().count(), 40_000);
    }
}
