//! Pluggable receivers for reported matches.
//!
//! [`StreamProcessor::process_into`](crate::StreamProcessor::process_into)
//! pushes every complete match into a [`MatchSink`] instead of returning an
//! allocated vector, so high-throughput consumers (benchmarks, counters,
//! alert pipelines) can consume matches without per-event allocation.
//!
//! The sink is the **copy-on-emit boundary**. From the anchored search that
//! finds a leaf match to the join that completes a query, a match is a
//! fixed-width `u64` row ([`RowLayout`]): in a `MatchStore`'s arena, in a
//! shared table's emission buffer, in the registry's per-edge report buffer,
//! in a runtime worker's outgoing batch. It becomes the caller-visible
//! [`SubgraphMatch`] exactly once, in the frame that calls
//! [`MatchSink::on_match`]:
//!
//! * a query evaluated wholly by a shared prefix table (its prefix spans
//!   its whole SJ-Tree) has each match built from the table's emission row
//!   — in the query's own numbering, after the query's window and boundary
//!   filters ran on the row — and passed to `on_match` directly
//!   ([`SharedRow::materialize`]);
//! * a query whose root join runs in its own engine has that join appended,
//!   as the union of its two operand rows, to the registry's flat report
//!   buffer, and each row of the burst is built into a match on its way
//!   into `on_match` ([`RowLayout::materialize`]).
//!
//! [`RowSink`] is the registry-facing side of that boundary: it receives
//! the rows. [`Materialize`] turns any [`MatchSink`] into one by doing the
//! two constructions above; the parallel runtime's workers implement it
//! directly and ship the rows across their channel, so there a match is
//! built only on the facade, in the caller's thread.
//!
//! Everything a [`MatchSink`] receives is an owned, self-contained match —
//! no arena ids or store lifetimes leak past that trait.

use crate::registry::QueryId;
use crate::sharedjoin::SharedRow;
use sp_iso::SubgraphMatch;
use sp_sjtree::RowLayout;

/// Receives complete matches as rows, straight from the pipeline stage that
/// completed them. Implemented by [`Materialize`] (build the match, call a
/// [`MatchSink`]) and by the parallel runtime's worker batches (keep the
/// row).
pub trait RowSink {
    /// A burst of complete matches of `query` whose root join ran in the
    /// query's own engine: `rows` holds them back to back,
    /// [`RowLayout::stride`] words each, in the query's own numbering.
    fn on_rows(&mut self, query: QueryId, layout: RowLayout, rows: &[u64]);

    /// One complete match of `query` delivered by the shared prefix table
    /// that spans its whole tree, still in the table's canonical numbering.
    fn on_shared_row(&mut self, query: QueryId, row: SharedRow<'_>);
}

/// The [`RowSink`] over a [`MatchSink`]: every row is materialized once, as
/// the argument of `on_match`.
#[derive(Debug)]
pub struct Materialize<'a, S: ?Sized>(pub &'a mut S);

impl<S: MatchSink + ?Sized> RowSink for Materialize<'_, S> {
    #[inline]
    fn on_rows(&mut self, query: QueryId, layout: RowLayout, rows: &[u64]) {
        for m in layout.materialize_all(rows) {
            self.0.on_match(query, m);
        }
    }

    #[inline]
    fn on_shared_row(&mut self, query: QueryId, row: SharedRow<'_>) {
        self.0.on_match(query, row.materialize());
    }
}

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
