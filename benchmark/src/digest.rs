//! Input and output fingerprints.
//!
//! * [`stream_digest`] — order-dependent hash of the generated event stream,
//!   so a changed generator is told apart from a changed engine.
//! * [`MatchDigest`] — order-**independent** hash of the reported match
//!   multiset: every match hashes to one word from `(QueryId, edge bindings)`
//!   and the words are combined with wrapping add and xor, so any delivery
//!   order (sequential, two workers, paced) of the same multiset gives the
//!   same digest, while a missing, extra or altered match changes it.

use sp_graph::EdgeEvent;
use sp_iso::SubgraphMatch;
use streampattern::QueryId;

/// SplitMix64 finalizer: a cheap bijective scrambler of one word.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-dependent digest of an event stream (ids, types and timestamps).
pub fn stream_digest(events: &[EdgeEvent]) -> u64 {
    let mut h = mix(events.len() as u64);
    for e in events {
        for word in [
            e.src,
            e.dst,
            (u64::from(e.src_type.0) << 32) | u64::from(e.dst_type.0),
            u64::from(e.edge_type.0),
            e.timestamp.0,
        ] {
            h = mix(h ^ word);
        }
    }
    h
}

/// Commutative digest of a multiset of `(QueryId, match)` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchDigest {
    /// Matches folded in.
    pub count: u64,
    /// Wrapping sum of the per-match words.
    pub sum: u64,
    /// Xor of the per-match words (catches pairs a sum alone would cancel).
    pub xor: u64,
}

impl MatchDigest {
    /// Folds one reported match in and returns the id of its newest data
    /// edge — the event that completed it, which the paced stretch needs for
    /// the latency of the same match.
    #[inline]
    pub fn add(&mut self, query: QueryId, m: &SubgraphMatch) -> u64 {
        let mut word = mix(query.0);
        let mut newest = 0u64;
        for (qe, de) in m.edge_pairs() {
            // Commutative over the bindings too: the digest depends on which
            // data edge plays which query edge, not on iteration order.
            word = word.wrapping_add(mix(((qe.0 as u64) << 48) ^ de.0));
            newest = newest.max(de.0);
        }
        let word = mix(word);
        self.count += 1;
        self.sum = self.sum.wrapping_add(word);
        self.xor ^= word;
        newest
    }

    /// Compact rendering for reports: `count:sum:xor` in hex.
    pub fn render(&self) -> String {
        format!("{}:{:016x}:{:016x}", self.count, self.sum, self.xor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{EdgeId, Timestamp, VertexId};
    use sp_query::{QueryEdgeId, QueryVertexId};

    fn m(edges: &[(usize, u64)]) -> SubgraphMatch {
        SubgraphMatch::from_sorted_bindings(
            edges.iter().map(|&(q, d)| (QueryEdgeId(q), EdgeId(d))),
            [(QueryVertexId(0), VertexId(1))],
            Timestamp(0),
            Timestamp(1),
        )
    }

    #[test]
    fn digest_is_commutative() {
        let reports = [
            (QueryId(0), m(&[(0, 10), (1, 11)])),
            (QueryId(1), m(&[(0, 10), (1, 11)])),
            (QueryId(0), m(&[(0, 12), (1, 13)])),
            (QueryId(0), m(&[(0, 10), (1, 11)])),
        ];
        let mut forward = MatchDigest::default();
        for (q, x) in &reports {
            forward.add(*q, x);
        }
        let mut backward = MatchDigest::default();
        for (q, x) in reports.iter().rev() {
            backward.add(*q, x);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.count, 4);
    }

    #[test]
    fn digest_separates_query_binding_and_multiplicity() {
        let one = |q: u64, e: &[(usize, u64)]| {
            let mut d = MatchDigest::default();
            d.add(QueryId(q), &m(e));
            d
        };
        let base = one(0, &[(0, 10), (1, 11)]);
        assert_ne!(base, one(1, &[(0, 10), (1, 11)]), "query id");
        assert_ne!(base, one(0, &[(0, 11), (1, 10)]), "which edge plays which");
        assert_ne!(base, one(0, &[(0, 10), (1, 12)]), "data edge");
        let mut twice = base;
        twice.add(QueryId(0), &m(&[(0, 10), (1, 11)]));
        assert_ne!(twice, base, "multiplicity");
        assert_eq!(twice.count, 2);
    }

    #[test]
    fn add_returns_the_newest_data_edge() {
        let mut d = MatchDigest::default();
        assert_eq!(d.add(QueryId(3), &m(&[(0, 7), (1, 42), (2, 9)])), 42);
    }

    #[test]
    fn stream_digest_depends_on_order_and_content() {
        use sp_graph::{EdgeType, VertexType};
        let e = |s, d, t| EdgeEvent::homogeneous(s, d, VertexType(0), EdgeType(1), Timestamp(t));
        let a = [e(1, 2, 0), e(2, 3, 1)];
        let b = [e(2, 3, 1), e(1, 2, 0)];
        assert_ne!(stream_digest(&a), stream_digest(&b));
        assert_ne!(stream_digest(&a), stream_digest(&a[..1]));
        assert_eq!(stream_digest(&a), stream_digest(&a.clone()));
    }
}
