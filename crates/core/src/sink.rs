//! Pluggable receivers for reported matches.
//!
//! [`StreamProcessor::process_into`](crate::StreamProcessor::process_into)
//! pushes every complete match into a [`MatchSink`] instead of returning an
//! allocated vector, so high-throughput consumers (benchmarks, counters,
//! alert pipelines) can consume matches without per-event allocation.
//!
//! The sink is the **copy-on-emit boundary**: partial matches only ever
//! live as fixed-width arena rows inside their `MatchStore`s, and a
//! completion is materialized into the caller-visible [`SubgraphMatch`]
//! form exactly once, on its way into `on_match`:
//!
//! * a query evaluated wholly by a shared prefix table (its prefix spans
//!   its whole SJ-Tree) has each match built from the table's emission row
//!   — in the query's own numbering, after the query's window and boundary
//!   filters ran on the row — and passed to `on_match` directly, with no
//!   intermediate match, feed or buffer ([`crate::SharedJoinIndex::deliver`]);
//! * a query whose root join runs in its own engine has the match built
//!   from the two operand rows of that join (`MatchStore::insert`), then
//!   drained from the registry's per-engine buffer into `on_match`.
//!
//! Everything a sink receives is an owned, self-contained match — no arena
//! ids or store lifetimes leak past this trait.

use crate::registry::QueryId;
use sp_iso::SubgraphMatch;

/// Receives the complete matches produced while processing stream events.
pub trait MatchSink {
    /// Called once per complete match, with the id of the query it belongs
    /// to.
    fn on_match(&mut self, query: QueryId, m: SubgraphMatch);
}

/// A sink that only counts matches — no allocation per match.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountSink {
    /// Number of matches received so far.
    pub matches: u64,
}

impl CountSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MatchSink for CountSink {
    fn on_match(&mut self, _query: QueryId, _m: SubgraphMatch) {
        self.matches += 1;
    }
}

/// A sink that collects `(query, match)` pairs into a vector.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    /// The collected matches, in report order.
    pub matches: Vec<(QueryId, SubgraphMatch)>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, yielding the collected matches.
    pub fn into_matches(self) -> Vec<(QueryId, SubgraphMatch)> {
        self.matches
    }
}

impl MatchSink for CollectSink {
    fn on_match(&mut self, query: QueryId, m: SubgraphMatch) {
        self.matches.push((query, m));
    }
}

impl MatchSink for Vec<(QueryId, SubgraphMatch)> {
    fn on_match(&mut self, query: QueryId, m: SubgraphMatch) {
        self.push((query, m));
    }
}

/// Adapts a closure into a [`MatchSink`].
#[derive(Debug)]
pub struct FnSink<F>(pub F);

impl<F: FnMut(QueryId, SubgraphMatch)> MatchSink for FnSink<F> {
    fn on_match(&mut self, query: QueryId, m: SubgraphMatch) {
        (self.0)(query, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sink_counts() {
        let mut sink = CountSink::new();
        sink.on_match(QueryId(0), SubgraphMatch::new());
        sink.on_match(QueryId(1), SubgraphMatch::new());
        assert_eq!(sink.matches, 2);
    }

    #[test]
    fn collect_sink_collects_in_order() {
        let mut sink = CollectSink::new();
        sink.on_match(QueryId(3), SubgraphMatch::new());
        sink.on_match(QueryId(1), SubgraphMatch::new());
        let matches = sink.into_matches();
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].0, QueryId(3));
        assert_eq!(matches[1].0, QueryId(1));
    }

    #[test]
    fn fn_sink_forwards() {
        let mut seen = Vec::new();
        {
            let mut sink = FnSink(|q: QueryId, _m: SubgraphMatch| seen.push(q));
            sink.on_match(QueryId(7), SubgraphMatch::new());
        }
        assert_eq!(seen, vec![QueryId(7)]);
    }
}
