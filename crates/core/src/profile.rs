//! Per-engine profiling counters.
//!
//! Section 6.4 of the paper profiles "the time spent in performing subgraph
//! isomorphism and the time spent in updating the SJ-Tree" and finds the
//! former to dominate (≥ 95%). [`ProfileCounters`] exposes the same split so
//! that the `profile` experiment can reproduce the claim.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters and timers accumulated while an engine processes a stream.
///
/// Every engine owns one instance counting only the edges *dispatched to it*
/// by the edge-type index; `StreamProcessor::profile` additionally reports
/// stream-level counters (events ingested, vertex-type conflicts) aggregated
/// with the engines' counters via [`ProfileCounters::merge`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileCounters {
    /// Number of streaming edges processed. For an engine this counts the
    /// edges dispatched to it; in the processor aggregate it counts events
    /// ingested from the stream.
    pub edges_processed: u64,
    /// Number of stream events whose external vertex id arrived with a type
    /// conflicting with the type already recorded for that vertex (the
    /// original type is kept). Only the stream-level counters track this;
    /// engines never see the conflict.
    pub vertex_type_conflicts: u64,
    /// Number of stream events rejected before ingest because they name
    /// vertex id `u64::MAX`, which the interned match rows reserve as the
    /// unbound-slot sentinel. Stream-level only, like the conflicts.
    pub rejected_events: u64,
    /// Number of leaf-level subgraph-isomorphism invocations: leaves that
    /// *reached a search* for a dispatched edge — run by the engine, run by
    /// the shared leaf stage on its behalf, or served from that stage's
    /// per-edge memo ([`ProfileCounters::leaf_searches_shared`] says how many
    /// were the last kind). A leaf whose edge types do not include the
    /// edge's type is dropped before the Lazy Search gate and counted
    /// nowhere. (Until PR 24 such leaves were counted here, or in
    /// [`ProfileCounters::searches_skipped`] when gated off: on a typed pack
    /// like `lsbench_calm` that was 71 % of this counter. With every query
    /// on the shared leaf stage and no shared-join table live, this equals
    /// `SharedLeafStats::{searches_run + searches_shared +
    /// searches_delegated}`.)
    pub iso_searches: u64,
    /// Number of leaf matches found by those searches.
    pub leaf_matches: u64,
    /// Number of retroactive (vertex-anchored) searches triggered by enabling
    /// a lazy leaf.
    pub retroactive_searches: u64,
    /// Number of searches skipped because the lazy bitmap had them disabled:
    /// gate-refused leaves whose edge types include the edge's type, i.e.
    /// searches that could have found something.
    pub searches_skipped: u64,
    /// Number of leaf searches this query did **not** have to run because a
    /// structurally identical leaf had already been searched for this edge
    /// (shared-leaf evaluation): the engine consumed the shared result
    /// instead. Always 0 when sharing is disabled or the engine runs
    /// standalone.
    pub leaf_searches_shared: u64,
    /// Prefix-root matches this query consumed from the shared join stage
    /// (`SharedJoinIndex`) instead of producing them with its own leaf
    /// searches and hash joins. Always 0 when the query is not subscribed
    /// to a shared prefix table.
    pub shared_join_emissions: u64,
    /// Number of dispatched edges on which this query's prefix work (leaf
    /// searches + internal joins for the leading leaves) was served by a
    /// shared prefix table with other live subscribers — i.e. join-stage
    /// work genuinely deduplicated across the registry.
    pub join_stages_shared: u64,
    /// Number of complete query matches reported.
    pub complete_matches: u64,
    /// Number of times the engine's decomposition was swapped for a new
    /// SJ-Tree by drift-triggered re-decomposition
    /// (`ContinuousQueryEngine::rebuild`).
    pub redecompositions: u64,
    /// Anchored + retroactive searches performed while replaying the
    /// retained graph during re-decompositions. Kept separate from
    /// [`ProfileCounters::iso_searches`] /
    /// [`ProfileCounters::retroactive_searches`] so the steady-state stream
    /// cost of a plan and the one-off cost of switching plans stay
    /// individually visible (the `drift` benchmark reports both).
    pub replay_searches: u64,
    /// Wall time spent inside re-decomposition replays (isomorphism and
    /// store updates), likewise kept out of
    /// [`ProfileCounters::iso_time`] / [`ProfileCounters::update_time`].
    #[serde(with = "duration_nanos")]
    pub replay_time: Duration,
    /// Number of partial matches purged (window expiry).
    pub partial_matches_purged: u64,
    /// Wall time spent inside subgraph isomorphism.
    #[serde(with = "duration_nanos")]
    pub iso_time: Duration,
    /// Wall time spent updating the SJ-Tree (hash probes, joins, inserts).
    #[serde(with = "duration_nanos")]
    pub update_time: Duration,
    /// Peak number of partial matches stored at any point.
    pub peak_partial_matches: usize,
}

impl ProfileCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of the measured time spent in subgraph isomorphism
    /// (`NaN`-free: returns 0 when nothing was measured).
    pub fn iso_time_fraction(&self) -> f64 {
        let total = self.iso_time.as_secs_f64() + self.update_time.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.iso_time.as_secs_f64() / total
        }
    }

    /// Records a new partial-match population and updates the peak.
    pub fn note_partial_matches(&mut self, live: usize) {
        if live > self.peak_partial_matches {
            self.peak_partial_matches = live;
        }
    }

    /// Adds `other`'s counters and timers into `self`. Peaks are summed: the
    /// aggregate reports an upper bound of the simultaneous partial-match
    /// population across engines.
    pub fn merge(&mut self, other: &ProfileCounters) {
        self.edges_processed += other.edges_processed;
        self.vertex_type_conflicts += other.vertex_type_conflicts;
        self.rejected_events += other.rejected_events;
        self.iso_searches += other.iso_searches;
        self.leaf_matches += other.leaf_matches;
        self.retroactive_searches += other.retroactive_searches;
        self.searches_skipped += other.searches_skipped;
        self.leaf_searches_shared += other.leaf_searches_shared;
        self.shared_join_emissions += other.shared_join_emissions;
        self.join_stages_shared += other.join_stages_shared;
        self.complete_matches += other.complete_matches;
        self.redecompositions += other.redecompositions;
        self.replay_searches += other.replay_searches;
        self.replay_time += other.replay_time;
        self.partial_matches_purged += other.partial_matches_purged;
        self.iso_time += other.iso_time;
        self.update_time += other.update_time;
        self.peak_partial_matches += other.peak_partial_matches;
    }
}

/// Serialize `Duration` as integer **nanoseconds** so profiles are readable
/// in JSON experiment output at full precision (sub-microsecond engine spans
/// used to round to 0). The field names are unchanged, so historical
/// `BENCH_*.json` files still diff structurally; only the unit moved.
mod duration_nanos {
    use serde::{Deserialize, Deserializer, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(d.as_nanos() as u64)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let nanos = u64::deserialize(d)?;
        Ok(Duration::from_nanos(nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_fraction_handles_zero() {
        let p = ProfileCounters::new();
        assert_eq!(p.iso_time_fraction(), 0.0);
    }

    #[test]
    fn iso_fraction_is_ratio() {
        let mut p = ProfileCounters::new();
        p.iso_time = Duration::from_millis(95);
        p.update_time = Duration::from_millis(5);
        assert!((p.iso_time_fraction() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn peak_tracking() {
        let mut p = ProfileCounters::new();
        p.note_partial_matches(10);
        p.note_partial_matches(3);
        p.note_partial_matches(25);
        assert_eq!(p.peak_partial_matches, 25);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = ProfileCounters::new();
        a.edges_processed = 5;
        a.iso_searches = 2;
        a.vertex_type_conflicts = 1;
        a.iso_time = Duration::from_micros(10);
        a.peak_partial_matches = 4;
        let mut b = ProfileCounters::new();
        b.edges_processed = 7;
        b.iso_searches = 3;
        b.iso_time = Duration::from_micros(5);
        b.peak_partial_matches = 2;
        a.merge(&b);
        assert_eq!(a.edges_processed, 12);
        assert_eq!(a.iso_searches, 5);
        assert_eq!(a.vertex_type_conflicts, 1);
        assert_eq!(a.iso_time, Duration::from_micros(15));
        assert_eq!(a.peak_partial_matches, 6);
    }

    #[test]
    fn serde_roundtrip_keeps_durations() {
        let mut p = ProfileCounters::new();
        p.iso_time = Duration::from_micros(1234);
        p.update_time = Duration::from_micros(56);
        p.replay_time = Duration::from_nanos(789); // sub-microsecond survives
        p.edges_processed = 9;
        let json = serde_json::to_string(&p).unwrap();
        let back: ProfileCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back.iso_time, Duration::from_micros(1234));
        assert_eq!(back.update_time, Duration::from_micros(56));
        assert_eq!(back.replay_time, Duration::from_nanos(789));
        assert_eq!(back.edges_processed, 9);
    }

    #[test]
    fn durations_serialize_as_integer_nanoseconds() {
        let mut p = ProfileCounters::new();
        p.iso_time = Duration::from_micros(3);
        let json = serde_json::to_string(&p).unwrap();
        // Same field name as before, integer value, nanosecond unit.
        assert!(json.contains("\"iso_time\":3000"), "json: {json}");
        assert!(json.contains("\"update_time\":0"), "json: {json}");
    }
}
