//! Pluggable receivers for reported matches.
//!
//! [`StreamProcessor::process_into`](crate::StreamProcessor::process_into)
//! pushes every complete match into a [`RowSink`] instead of returning an
//! allocated vector, so high-throughput consumers (benchmarks, counters,
//! alert pipelines) can consume matches without per-event allocation.
//! [`RowSink`] is the one consumer trait of both front ends and of
//! [`Shard`](crate::Shard); every [`MatchSink`] is a [`RowSink`] through one
//! blanket impl.
//!
//! The sink is the **copy-on-emit boundary**. From the anchored search that
//! finds a leaf match to the join that completes a query, a match is a
//! fixed-width `u64` row ([`RowLayout`]): in a `MatchStore`'s arena, in a
//! shared table's emission buffer, in the shard's per-edge report buffer,
//! in a runtime worker's outgoing batch. A [`RowSink`] receives it in one of
//! two row forms:
//!
//! * a query whose root join runs in its own engine has that join appended,
//!   as the union of its two operand rows, to the shard's flat report
//!   buffer, and the burst arrives through [`RowSink::on_rows`] in the
//!   query's own numbering;
//! * a query evaluated wholly by a shared prefix table (its prefix spans
//!   its whole SJ-Tree) has each match arrive through
//!   [`RowSink::on_shared_row`] as the table's emission row — still in the
//!   table's canonical numbering, after the query's window and boundary
//!   filters ran on the row — together with the query's slot order.
//!
//! A row sink that only counts ([`CountSink`]) never builds a match. The
//! blanket impl builds the caller-visible [`SubgraphMatch`] exactly once, in
//! the frame that calls [`MatchSink::on_match`]: [`RowLayout::materialize`]
//! for each row of a burst, [`SharedRow::materialize`] for a shared row. The
//! parallel runtime's workers implement [`RowSink`] themselves and ship the
//! rows across their channel, so there a match is built only on the facade,
//! in the caller's thread.
//!
//! Everything a [`MatchSink`] receives is an owned, self-contained match —
//! no arena ids or store lifetimes leak past that trait.

use crate::control::QueryId;
use crate::sharedjoin::SharedRow;
use sp_iso::SubgraphMatch;
use sp_sjtree::RowLayout;

/// Receives complete matches as rows, straight from the pipeline stage that
/// completed them: the consumer trait of [`Shard`](crate::Shard),
/// [`StreamProcessor`](crate::StreamProcessor) and the parallel runtime.
/// Every [`MatchSink`] implements it by building each match once;
/// [`CountSink`] and the parallel runtime's worker batches implement it
/// directly and keep the rows.
pub trait RowSink {
    /// A burst of complete matches of `query` whose root join ran in the
    /// query's own engine: `rows` holds them back to back,
    /// [`RowLayout::stride`] words each, in the query's own numbering.
    fn on_rows(&mut self, query: QueryId, layout: RowLayout, rows: &[u64]);

    /// One complete match of `query` delivered by the shared prefix table
    /// that spans its whole tree, still in the table's canonical numbering.
    fn on_shared_row(&mut self, query: QueryId, row: SharedRow<'_>);
}

/// Receives the complete matches produced while processing stream events,
/// each built into an owned [`SubgraphMatch`].
pub trait MatchSink {
    /// Called once per complete match, with the id of the query it belongs
    /// to.
    fn on_match(&mut self, query: QueryId, m: SubgraphMatch);
}

/// Every [`MatchSink`] is a [`RowSink`]: each row is materialized once, as
/// the argument of `on_match`.
impl<S: MatchSink + ?Sized> RowSink for S {
    #[inline]
    fn on_rows(&mut self, query: QueryId, layout: RowLayout, rows: &[u64]) {
        for m in layout.materialize_all(rows) {
            self.on_match(query, m);
        }
    }

    #[inline]
    fn on_shared_row(&mut self, query: QueryId, row: SharedRow<'_>) {
        self.on_match(query, row.materialize());
    }
}

/// A sink that only counts matches: it reads no row and builds no match.
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

impl RowSink for CountSink {
    fn on_rows(&mut self, _query: QueryId, layout: RowLayout, rows: &[u64]) {
        self.matches += (rows.len() / layout.stride()) as u64;
    }

    fn on_shared_row(&mut self, _query: QueryId, _row: SharedRow<'_>) {
        self.matches += 1;
    }
}

/// The collecting sink: `(query, match)` pairs in report order.
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
        let layout = RowLayout {
            edges: 2,
            vertices: 3,
        };
        let mut rows = Vec::new();
        for _ in 0..3 {
            layout.push_unbound(&mut rows);
        }
        let mut sink = CountSink::new();
        sink.on_rows(QueryId(0), layout, &rows);
        sink.on_rows(QueryId(1), layout, &rows[..layout.stride()]);
        sink.on_rows(QueryId(1), layout, &[]);
        assert_eq!(sink.matches, 4);
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink: Vec<(QueryId, SubgraphMatch)> = Vec::new();
        sink.on_match(QueryId(3), SubgraphMatch::new());
        sink.on_match(QueryId(1), SubgraphMatch::new());
        assert_eq!(sink.len(), 2);
        assert_eq!(sink[0].0, QueryId(3));
        assert_eq!(sink[1].0, QueryId(1));
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
