//! Shared-leaf evaluation: one anchored search per distinct leaf shape per
//! streaming edge.
//!
//! The SJ-Tree decomposes each query into small leaf subgraphs whose matches
//! are found by anchored search and joined upward. With many registered
//! queries, distinct queries routinely decompose into *structurally
//! identical* leaves (the same typed edge, the same wedge), and the
//! per-engine pipeline re-ran the same anchored search once per query per
//! edge. [`SharedLeafIndex`] deduplicates that work across a shard's
//! queries — the shared-subpattern design of "Large-scale continuous
//! subgraph queries on streams" (Choudhury et al., 2012) and StreamWorks:
//!
//! * at registration, every SJ-Tree leaf is canonicalized to a
//!   [`LeafSignature`] (vertex numbering normalized; vertex types, edge
//!   types and direction preserved) and the query subscribes to that shape,
//!   keeping the [`CanonicalMapping`] back to its own numbering;
//! * per edge, every candidate engine runs its one leaf loop
//!   ([`ContinuousQueryEngine::process_edge_into`]) and *pulls* each leaf
//!   that survives its own type filter and Lazy Search gate from the
//!   shard's [`SharedSource`]: the anchored search for each distinct
//!   signature runs **once** — on first pull, memoized in the index for the
//!   duration of the edge, its matches kept as canonical rows — and each
//!   subscriber gets them by slot permutation straight into rows of its own
//!   arena — no `SubgraphMatch` and no buffer on the way;
//! * lazy engines keep their enable/disable gating because the gate sits in
//!   front of the pull: a signature none of whose gate-passing subscribers
//!   need it is never searched at all, and a shape with a single subscriber
//!   is handed back to its engine ([`Served::Declined`]).
//!
//! The engine queues pulled rows in exactly the order its own search would
//! have produced work items; the equivalence tests hold the shard's match
//! multiset to that of independent single-query processors.

use crate::control::QueryId;
use crate::engine::{ContinuousQueryEngine, Served};
use crate::metrics::StageClock;
use crate::sharedjoin::PrefixRows;
use sp_graph::{DynamicGraph, EdgeData, FastMap};
use sp_iso::{find_matches_containing_edge_with, SearchScratch};
use sp_query::{canonicalize_subgraph, CanonicalMapping, LeafSignature, QueryGraph, QuerySubgraph};
use sp_sjtree::{MatchStore, RowId, RowLayout};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::time::{Duration, Instant};

/// One interned canonical leaf shape: the materialized canonical query (what
/// the anchored matcher runs against) plus its subscriber count.
#[derive(Debug, Clone)]
struct SigEntry {
    signature: LeafSignature,
    /// Canonical query graph the shared search runs against.
    query: QueryGraph,
    /// Subgraph view covering all of `query`.
    subgraph: QuerySubgraph,
    /// Layout of the canonical rows the shared search's results are kept
    /// as.
    layout: RowLayout,
    /// The `(query, leaf)` subscriptions currently pointing here; the last
    /// one leaving drops the entry, and a single one means nothing to
    /// share.
    subscribers: usize,
}

/// One leaf subscription of one query: which signature it points at and how
/// to translate canonical matches back into the query's own numbering.
#[derive(Debug, Clone)]
struct LeafSub {
    /// Selectivity rank of the leaf in its engine.
    rank: usize,
    /// Index into the entry table.
    sig: usize,
    /// Canonical → subscriber numbering.
    mapping: CanonicalMapping,
}

/// Snapshot of the index's bookkeeping, used by tests, examples and the
/// repository benchmark's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedLeafStats {
    /// Distinct canonical leaf shapes currently interned.
    pub distinct_leaves: usize,
    /// Current (query, leaf) subscriptions across all shared queries.
    pub total_subscriptions: usize,
    /// Queries currently evaluated through the shared stage.
    pub shared_queries: usize,
    /// Anchored leaf searches actually executed by the shared stage.
    pub searches_run: u64,
    /// Leaf searches *eliminated*: consumers served from a search another
    /// subscriber already triggered for the same edge.
    pub searches_shared: u64,
    /// Leaf searches delegated back to their engine because the shape has a
    /// single subscriber — nothing to share, so the engine searches its own
    /// numbering directly (no canonical search, no rebase).
    pub searches_delegated: u64,
}

impl SharedLeafStats {
    /// Fraction of would-be leaf searches that sharing eliminated
    /// (`shared / (run + shared + delegated)`; 0 when nothing ran).
    pub fn elimination_ratio(&self) -> f64 {
        let total = self.searches_run + self.searches_shared + self.searches_delegated;
        if total == 0 {
            0.0
        } else {
            self.searches_shared as f64 / total as f64
        }
    }
}

/// The shard-wide index of canonical leaf shapes and their subscribers,
/// plus the per-edge memo of the searches run for them.
#[derive(Debug, Clone, Default)]
pub(crate) struct SharedLeafIndex {
    by_sig: HashMap<LeafSignature, usize>,
    entries: Vec<Option<SigEntry>>,
    free: Vec<usize>,
    /// Per-query subscriptions in leaf-rank order. A query absent from this
    /// map (VF2 baseline, oversized leaf) is evaluated on its private path.
    subs: BTreeMap<QueryId, Vec<LeafSub>>,
    /// Per-edge memo: where each signature searched for the current edge
    /// left its canonical rows in `rows`, as a word range.
    memo: FastMap<usize, Range<usize>>,
    /// The canonical result rows of every search run for the current edge,
    /// back to back.
    rows: Vec<u64>,
    /// Reusable anchored-search working binding.
    scratch: SearchScratch,
    /// The cumulative search counters; [`SharedLeafIndex::stats`] fills in
    /// the rest.
    counts: SharedLeafStats,
}

impl SharedLeafIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribes a query's engine: canonicalizes every SJ-Tree leaf of rank
    /// `start_rank` and above and interns the shapes. The VF2 baseline, or
    /// an engine with a (hand-built) leaf past the canonicalization size
    /// cap, is left unsubscribed, on its private search path.
    ///
    /// A non-zero `start_rank` is for queries whose leading leaves are
    /// already evaluated inside a shared prefix table of the shared **join**
    /// stage: the prefix leaves must not be interned here, or the leaf stage
    /// would run (and count) searches the join stage already performed. A
    /// `start_rank` at or past the leaf count still subscribes (with no
    /// shapes).
    pub fn subscribe(&mut self, id: QueryId, engine: &ContinuousQueryEngine, start_rank: usize) {
        let Some(tree) = engine.tree() else {
            return;
        };
        let query = tree.query();
        let mut canon = Vec::with_capacity(tree.num_leaves());
        for (rank, &leaf) in tree.leaves().iter().enumerate().skip(start_rank) {
            let Some((sig, mapping)) = canonicalize_subgraph(query, tree.subgraph(leaf)) else {
                return;
            };
            canon.push((rank, sig, mapping));
        }
        let subs = canon
            .into_iter()
            .map(|(rank, sig, mapping)| LeafSub {
                rank,
                sig: self.intern(sig),
                mapping,
            })
            .collect();
        self.subs.insert(id, subs);
    }

    /// Drops a query's subscriptions. The last unsubscriber of a shape drops
    /// the interned entry entirely (`distinct_leaves` shrinks).
    pub fn unsubscribe(&mut self, id: QueryId) {
        let Some(subs) = self.subs.remove(&id) else {
            return;
        };
        for sub in subs {
            let entry = self.entries[sub.sig]
                .as_mut()
                .expect("subscription references a live entry");
            entry.subscribers -= 1;
            if entry.subscribers == 0 {
                let entry = self.entries[sub.sig].take().expect("checked above");
                self.by_sig.remove(&entry.signature);
                self.free.push(sub.sig);
            }
        }
    }

    /// Resets the per-edge memo for a new edge, keeping the warmed-up
    /// capacity of its map, its row buffer and the search scratch, so the
    /// shared stage stops allocating once the buffers have warmed up.
    pub fn begin_edge(&mut self) {
        self.memo.clear();
        self.rows.clear();
    }

    /// Current and cumulative bookkeeping.
    pub fn stats(&self) -> SharedLeafStats {
        SharedLeafStats {
            distinct_leaves: self.by_sig.len(),
            total_subscriptions: self.subs.values().map(Vec::len).sum(),
            shared_queries: self.subs.len(),
            ..self.counts
        }
    }

    /// Interns a signature, materializing the canonical query on first use.
    fn intern(&mut self, sig: LeafSignature) -> usize {
        if let Some(&idx) = self.by_sig.get(&sig) {
            let entry = self.entries[idx].as_mut().expect("interned entry is live");
            entry.subscribers += 1;
            return idx;
        }
        let (query, subgraph) = sig.instantiate("shared-leaf");
        let entry = SigEntry {
            signature: sig.clone(),
            layout: RowLayout::of(&query),
            query,
            subgraph,
            subscribers: 1,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = Some(entry);
                slot
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        };
        self.by_sig.insert(sig, idx);
        idx
    }
}

/// Where one candidate engine's leaf loop
/// ([`ContinuousQueryEngine::process_edge_into`]) pulls, on one edge, the
/// rows it need not compute itself — only for leaves that passed the loop's
/// type filter, Lazy Search gate and type-signature refusal. Leaf shapes
/// with several subscribers come from the per-edge search memo, a
/// partial-depth shared-join subscriber's prefix-root rows from its prefix
/// table; everything else the engine searches itself
/// ([`Served::Declined`]), as an engine run on its own does for every leaf.
/// A served row is written once, by slot permutation from the shared
/// stage's canonical row straight into the engine's arena, in the engine's
/// own numbering.
///
/// The stage spans are charged from in here: a served leaf takes two laps of
/// the shard's clock (what ran since the last boundary is the engine's;
/// the canonical search or memo lookup plus the permutation is
/// `shared_leaf_ns`), a pulled prefix one (`shared_join_ns`). A leaf handed
/// back to the engine reads no clock.
pub(crate) struct SharedSource<'a, 'm> {
    /// The query the engine answers.
    pub id: QueryId,
    /// The shared-leaf index, with its per-edge search memo.
    pub leaves: &'a mut SharedLeafIndex,
    /// The current edge's emissions of the prefix table the query rides at
    /// partial depth, if it does.
    pub prefix: Option<PrefixRows<'a>>,
    /// The shard's stage clock.
    pub clock: &'a mut StageClock<'m>,
}

impl SharedSource<'_, '_> {
    /// Whether the engine times its searches and inserts into
    /// [`ProfileCounters::iso_time`](crate::ProfileCounters::iso_time) /
    /// [`ProfileCounters::update_time`](crate::ProfileCounters::update_time)
    /// for this edge: asked once per edge. Answers whether metrics are
    /// attached, so an un-metered pipeline reads no clock.
    pub(crate) fn timed(&self) -> bool {
        self.clock.is_on()
    }

    /// Number of leading leaves (selectivity ranks `0..depth`) a shared
    /// prefix table evaluates on the engine's behalf — searches, inserts and
    /// internal joins: `0` for none, else `2 <= depth < leaves`. The engine
    /// skips those leaves and pulls [`SharedSource::prefix_rows`] instead.
    pub(crate) fn prefix_depth(&self) -> usize {
        self.prefix.as_ref().map_or(0, PrefixRows::depth)
    }

    /// Writes the prefix-root matches this edge created (those the engine's
    /// window and subscription boundary admit; the suffix slots stay
    /// unbound) into `store` and queues them. Returns whether the table has
    /// other live subscribers, i.e. the prefix work was genuinely
    /// deduplicated. Only called when [`SharedSource::prefix_depth`] is
    /// non-zero.
    pub(crate) fn prefix_rows(&mut self, store: &mut MatchStore, queue: impl FnMut(RowId)) -> bool {
        let prefix = self.prefix.as_mut().expect("only pulled with a prefix");
        let shared = prefix.encode_into(store, queue);
        self.clock.charge(|m| &m.shared_join_ns);
        shared
    }

    /// Serves the leaf of selectivity rank `rank`, which the edge's type,
    /// the Lazy Search gate and the endpoints' type signatures all let
    /// through. The first consumer of a signature this edge triggers the
    /// actual anchored search (and is charged its wall time, measured only
    /// when metrics are attached); every further consumer is served from the
    /// memo and counted as an eliminated search. A shape with a single
    /// subscriber is delegated back — nothing to share, so the engine
    /// searches its own numbering, paying neither the canonical search nor
    /// the permutation.
    pub(crate) fn leaf_rows(
        &mut self,
        rank: usize,
        graph: &DynamicGraph,
        edge: &EdgeData,
        store: &mut MatchStore,
        mut queue: impl FnMut(RowId),
    ) -> Served {
        let SharedLeafIndex {
            entries,
            subs,
            memo,
            rows,
            scratch,
            counts,
            ..
        } = &mut *self.leaves;
        // Subscriptions are in rank order from the first leaf past any
        // shared-join prefix.
        let Some(sub) = subs
            .get(&self.id)
            .and_then(|subs| subs.get(rank.checked_sub(subs.first()?.rank)?))
        else {
            return Served::Declined;
        };
        debug_assert_eq!(sub.rank, rank, "subscriptions are in rank order");
        let entry = entries[sub.sig]
            .as_ref()
            .expect("subscription references a live entry");
        if entry.subscribers == 1 {
            counts.searches_delegated += 1;
            return Served::Declined;
        }
        self.clock.charge(|m| &m.private_engine_ns);
        let (found, served) = match memo.entry(sub.sig) {
            Entry::Occupied(hit) => {
                counts.searches_shared += 1;
                (hit.get().clone(), Served::Shared)
            }
            Entry::Vacant(miss) => {
                let t0 = self.clock.is_on().then(Instant::now);
                let (start, layout) = (rows.len(), entry.layout);
                find_matches_containing_edge_with(
                    graph,
                    &entry.query,
                    &entry.subgraph,
                    edge,
                    scratch,
                    |m| layout.write(m, layout.push_unbound(rows)),
                );
                let elapsed = t0.map_or(Duration::ZERO, |t| t.elapsed());
                counts.searches_run += 1;
                (
                    miss.insert(start..rows.len()).clone(),
                    Served::Searched(elapsed),
                )
            }
        };
        // A leaf binds every canonical slot, so the permutation reads each
        // one: canonical edge `c` is the subscriber's `mapping.edges[c]`,
        // likewise for vertices.
        let from = entry.layout;
        for canon in rows[found].chunks_exact(from.stride()) {
            let (edges, vertices) = canon.split_at(from.edges);
            queue(
                store.encode_bindings(
                    sub.mapping.edges.iter().copied().zip(edges.iter().copied()),
                    sub.mapping
                        .vertices
                        .iter()
                        .copied()
                        .zip(vertices.iter().copied()),
                    from.earliest(canon),
                    from.latest(canon),
                ),
            );
        }
        self.clock.charge(|m| &m.shared_leaf_ns);
        served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use sp_graph::EdgeType;
    use sp_selectivity::SelectivityEstimator;

    fn engine_for(types: &[u32]) -> ContinuousQueryEngine {
        let mut q = QueryGraph::new("q");
        let mut prev = q.add_any_vertex();
        for &t in types {
            let next = q.add_any_vertex();
            q.add_edge(prev, next, EdgeType(t));
            prev = next;
        }
        ContinuousQueryEngine::new(q, Strategy::Single, &SelectivityEstimator::new(), None).unwrap()
    }

    #[test]
    fn identical_leaves_intern_once_and_drop_with_the_last_subscriber() {
        let mut index = SharedLeafIndex::new();
        // Two queries over the same two edge types share both leaf shapes.
        index.subscribe(QueryId(0), &engine_for(&[1, 2]), 0);
        index.subscribe(QueryId(1), &engine_for(&[1, 2]), 0);
        // A third query shares one type and brings one new shape.
        index.subscribe(QueryId(2), &engine_for(&[2, 9]), 0);
        let stats = index.stats();
        assert_eq!(stats.distinct_leaves, 3);
        assert_eq!(stats.total_subscriptions, 6);
        assert_eq!(stats.shared_queries, 3);

        index.unsubscribe(QueryId(0));
        assert_eq!(index.stats().distinct_leaves, 3, "Q1 still holds both");
        index.unsubscribe(QueryId(1));
        // The type-1 shape lost its last subscriber; type-2 survives via Q2.
        assert_eq!(index.stats().distinct_leaves, 2);
        index.unsubscribe(QueryId(2));
        assert_eq!(index.stats().distinct_leaves, 0);
        assert_eq!(index.stats().total_subscriptions, 0);
    }

    #[test]
    fn vf2_engines_are_not_subscribed() {
        let mut q = QueryGraph::new("vf2");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        q.add_edge(a, b, EdgeType(0));
        let engine = ContinuousQueryEngine::new(
            q,
            Strategy::Vf2Baseline,
            &SelectivityEstimator::new(),
            None,
        )
        .unwrap();
        let mut index = SharedLeafIndex::new();
        index.subscribe(QueryId(0), &engine, 0);
        assert_eq!(index.stats().shared_queries, 0);
    }

    /// The subscriber count of a canonical leaf shape (0 once it is
    /// dropped).
    fn subscribers(index: &SharedLeafIndex, sig: &LeafSignature) -> usize {
        index
            .by_sig
            .get(sig)
            .and_then(|&idx| index.entries[idx].as_ref())
            .map_or(0, |entry| entry.subscribers)
    }

    #[test]
    fn a_shape_counts_its_subscribers_and_drops_with_the_last() {
        let mut index = SharedLeafIndex::new();
        // A two-leaf query with the same shape twice, and a one-leaf query
        // of that shape: three subscriptions on one entry.
        let twice = engine_for(&[4, 4]);
        index.subscribe(QueryId(7), &twice, 0);
        index.subscribe(QueryId(9), &engine_for(&[4]), 0);
        let tree = twice.tree().unwrap();
        let (sig, _) = canonicalize_subgraph(tree.query(), tree.subgraph(tree.leaf(0))).unwrap();
        assert_eq!(subscribers(&index, &sig), 3);
        assert_eq!(index.stats().distinct_leaves, 1);

        index.unsubscribe(QueryId(7));
        assert_eq!(subscribers(&index, &sig), 1);
        index.unsubscribe(QueryId(9));
        assert_eq!(subscribers(&index, &sig), 0);
        assert_eq!(index.stats().distinct_leaves, 0);
        assert!(index.entries.iter().all(Option::is_none));
    }
}
