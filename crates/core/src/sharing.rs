//! Shared-leaf evaluation: one anchored search per distinct leaf shape per
//! streaming edge.
//!
//! The SJ-Tree decomposes each query into small leaf subgraphs whose matches
//! are found by anchored search and joined upward. With many registered
//! queries, distinct queries routinely decompose into *structurally
//! identical* leaves (the same typed edge, the same wedge), and the
//! per-engine pipeline re-ran the same anchored search once per query per
//! edge. [`SharedLeafIndex`] deduplicates that work across the registry —
//! the shared-subpattern design of "Large-scale continuous subgraph queries
//! on streams" (Choudhury et al., 2012) and StreamWorks:
//!
//! * at registration, every SJ-Tree leaf is canonicalized to a
//!   [`LeafSignature`] (vertex numbering normalized; vertex types, edge
//!   types and direction preserved) and the query subscribes to that shape,
//!   keeping the [`CanonicalMapping`] back to its own numbering;
//! * per edge, every candidate engine runs its one leaf loop
//!   ([`ContinuousQueryEngine::process_edge_into`]) and *pulls* each leaf
//!   that survives its own type filter and Lazy Search gate from the
//!   registry's [`SharedSource`]: the anchored search for each distinct
//!   signature runs **once** — on first pull, memoized in an
//!   [`EdgeSearchCache`] for the duration of the edge, its matches kept as
//!   canonical rows — and each subscriber gets them by slot permutation
//!   straight into rows of its own arena — no `SubgraphMatch` and no buffer
//!   on the way;
//! * lazy engines keep their enable/disable gating because the gate sits in
//!   front of the pull: a signature none of whose gate-passing subscribers
//!   need it is never searched at all, and a shape with a single subscriber
//!   is handed back to its engine ([`Served::Declined`]).
//!
//! Sharing is semantics-preserving: the engine queues pulled rows in
//! exactly the order its own search would have produced work items, so the
//! reported match multiset is byte-identical to the per-engine path (the
//! equivalence tests assert this with sharing on, off, and against
//! independent processors).

use crate::engine::{ContinuousQueryEngine, LeafSource, Served};
use crate::metrics::StageClock;
use crate::registry::QueryId;
use crate::sharedjoin::PrefixRows;
use sp_graph::{DynamicGraph, EdgeData, FastMap};
use sp_iso::{find_matches_containing_edge_with, SearchScratch};
use sp_query::{canonicalize_subgraph, CanonicalMapping, LeafSignature, QueryGraph, QuerySubgraph};
use sp_sjtree::{MatchStore, NodeId, RowId, RowLayout};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::time::Instant;

/// One interned canonical leaf shape: the materialized canonical query (what
/// the anchored matcher runs against) plus subscriber bookkeeping.
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
    /// The `(query, leaf node)` subscriptions currently pointing here, in
    /// subscription order. Owned by the entry so
    /// [`SharedLeafIndex::subscribers`] can hand out a slice instead of
    /// assembling a fresh `Vec` per call (the old per-edge allocation).
    subs: Vec<(QueryId, NodeId)>,
}

/// One leaf subscription of one query: which signature it points at and how
/// to translate canonical matches back into the query's own numbering.
#[derive(Debug, Clone)]
struct LeafSub {
    /// Selectivity rank of the leaf in its engine.
    rank: usize,
    /// The SJ-Tree node of the leaf (introspection only; the engine resolves
    /// ranks itself).
    node: NodeId,
    /// Index into the entry table.
    sig: usize,
    /// Canonical → subscriber numbering.
    mapping: CanonicalMapping,
}

/// Snapshot of the index's bookkeeping, used by tests, examples and the
/// `sharing` benchmark.
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

/// Per-edge memo of shared search executions: signature index → the
/// search's matches (rows in the shape's canonical numbering).
///
/// The cache is scoped to one edge *logically* but owned by the registry
/// *physically*: every search of an edge appends its rows to one flat
/// buffer, and [`EdgeSearchCache::begin_edge`] resets memo and buffer while
/// keeping their capacity and the anchored-search scratch — so the per-edge
/// shared stage stops allocating once the buffers have warmed up.
#[derive(Debug, Clone, Default)]
pub struct EdgeSearchCache {
    /// Where each search run for this edge left its rows in `rows`, as a
    /// word range.
    searches: FastMap<usize, Range<usize>>,
    /// The canonical result rows of every search run for this edge, back to
    /// back.
    rows: Vec<u64>,
    /// Reusable anchored-search working binding.
    scratch: SearchScratch,
}

impl EdgeSearchCache {
    /// An empty cache for one edge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the memo for a new edge, keeping warmed-up capacity.
    pub fn begin_edge(&mut self) {
        self.searches.clear();
        self.rows.clear();
    }
}

/// The registry-wide index of canonical leaf shapes and their subscribers.
#[derive(Debug, Clone, Default)]
pub struct SharedLeafIndex {
    by_sig: HashMap<LeafSignature, usize>,
    entries: Vec<Option<SigEntry>>,
    free: Vec<usize>,
    /// Per-query subscriptions in leaf-rank order. A query absent from this
    /// map (VF2 baseline, oversized leaf) is evaluated on its private path.
    subs: BTreeMap<QueryId, Vec<LeafSub>>,
    searches_run: u64,
    searches_shared: u64,
    searches_delegated: u64,
}

impl SharedLeafIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribes a query's engine: canonicalizes every SJ-Tree leaf of rank
    /// `start_rank` and above and interns the shapes. Returns `false` —
    /// leaving the engine on its private search path — for the VF2 baseline
    /// or when a (hand-built) leaf exceeds the canonicalization size cap.
    ///
    /// A non-zero `start_rank` is for queries whose leading leaves are
    /// already evaluated inside a shared prefix table of the shared **join**
    /// stage: the prefix leaves must not be interned here, or the leaf stage
    /// would run (and count) searches the join stage already performed. A
    /// `start_rank` at or past the leaf count still subscribes (with no
    /// shapes).
    pub fn subscribe(
        &mut self,
        id: QueryId,
        engine: &ContinuousQueryEngine,
        start_rank: usize,
    ) -> bool {
        let Some(tree) = engine.tree() else {
            return false;
        };
        let query = tree.query();
        let mut canon = Vec::with_capacity(tree.num_leaves());
        for (rank, &leaf) in tree.leaves().iter().enumerate().skip(start_rank) {
            let Some((sig, mapping)) = canonicalize_subgraph(query, tree.subgraph(leaf)) else {
                return false;
            };
            canon.push((rank, leaf, sig, mapping));
        }
        let subs = canon
            .into_iter()
            .map(|(rank, node, sig, mapping)| LeafSub {
                rank,
                node,
                sig: self.intern(sig, id, node),
                mapping,
            })
            .collect();
        self.subs.insert(id, subs);
        true
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
            let at = entry
                .subs
                .iter()
                .position(|&(q, n)| q == id && n == sub.node)
                .expect("subscription is listed on its entry");
            entry.subs.remove(at);
            if entry.subs.is_empty() {
                let entry = self.entries[sub.sig].take().expect("checked above");
                self.by_sig.remove(&entry.signature);
                self.free.push(sub.sig);
            }
        }
    }

    /// Whether a query is evaluated through the shared stage.
    pub fn is_subscribed(&self, id: QueryId) -> bool {
        self.subs.contains_key(&id)
    }

    /// The subscribers of a canonical leaf shape, as `(query, leaf node)`
    /// pairs in subscription order. Borrows the entry-owned list — no
    /// allocation per call (the old implementation assembled a fresh `Vec`
    /// by walking every subscription).
    pub fn subscribers(&self, sig: &LeafSignature) -> &[(QueryId, NodeId)] {
        self.by_sig
            .get(sig)
            .and_then(|&idx| self.entries[idx].as_ref())
            .map(|entry| entry.subs.as_slice())
            .unwrap_or(&[])
    }

    /// Current and cumulative bookkeeping.
    pub fn stats(&self) -> SharedLeafStats {
        SharedLeafStats {
            distinct_leaves: self.by_sig.len(),
            total_subscriptions: self.subs.values().map(Vec::len).sum(),
            shared_queries: self.subs.len(),
            searches_run: self.searches_run,
            searches_shared: self.searches_shared,
            searches_delegated: self.searches_delegated,
        }
    }

    /// Interns a signature, materializing the canonical query on first use.
    fn intern(&mut self, sig: LeafSignature, id: QueryId, node: NodeId) -> usize {
        if let Some(&idx) = self.by_sig.get(&sig) {
            let entry = self.entries[idx].as_mut().expect("interned entry is live");
            entry.subs.push((id, node));
            return idx;
        }
        let (query, subgraph) = sig.instantiate("shared-leaf");
        let entry = SigEntry {
            signature: sig.clone(),
            layout: RowLayout::of(&query),
            query,
            subgraph,
            subs: vec![(id, node)],
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

/// The registry's [`LeafSource`] for one candidate engine on one edge: leaf
/// shapes with several subscribers come from the per-edge search memo, a
/// partial-depth shared-join subscriber's prefix-root rows from its prefix
/// table; everything else the engine searches itself. Either way a served
/// row is written once, by slot permutation from the shared stage's
/// canonical row straight into the engine's arena.
///
/// The stage spans are charged from in here: a served leaf takes two laps of
/// the registry's clock (what ran since the last boundary is the engine's;
/// the canonical search or memo lookup plus the permutation is
/// `shared_leaf_ns`), a pulled prefix one (`shared_join_ns`). A leaf handed
/// back to the engine reads no clock.
pub(crate) struct SharedSource<'a, 'm> {
    /// The query the engine answers.
    pub id: QueryId,
    /// The shared-leaf index, or `None` while leaf sharing is switched off.
    pub leaves: Option<&'a mut SharedLeafIndex>,
    /// The registry's per-edge search memo.
    pub cache: &'a mut EdgeSearchCache,
    /// The current edge's emissions of the prefix table the query rides at
    /// partial depth, if it does.
    pub prefix: Option<PrefixRows<'a>>,
    /// The registry's stage clock.
    pub clock: &'a mut StageClock<'m>,
}

impl LeafSource for SharedSource<'_, '_> {
    fn prefix_depth(&self) -> usize {
        self.prefix.as_ref().map_or(0, PrefixRows::depth)
    }

    fn prefix_rows(&mut self, store: &mut MatchStore, queue: impl FnMut(RowId)) -> bool {
        let prefix = self.prefix.as_mut().expect("only pulled with a prefix");
        let shared = prefix.encode_into(store, queue);
        self.clock.charge(|m| &m.shared_join_ns);
        shared
    }

    /// The first consumer of a signature this edge triggers the actual
    /// anchored search (and is charged its wall time); every further
    /// consumer is served from the memo and counted as an eliminated search.
    /// A shape with a single subscriber is delegated back — nothing to
    /// share, so the engine searches its own numbering, paying neither the
    /// canonical search nor the permutation.
    fn leaf_rows(
        &mut self,
        rank: usize,
        graph: &DynamicGraph,
        edge: &EdgeData,
        store: &mut MatchStore,
        mut queue: impl FnMut(RowId),
    ) -> Served {
        let Some(SharedLeafIndex {
            entries,
            subs,
            searches_run,
            searches_shared,
            searches_delegated,
            ..
        }) = self.leaves.as_deref_mut()
        else {
            return Served::Declined;
        };
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
        if entry.subs.len() == 1 {
            *searches_delegated += 1;
            return Served::Declined;
        }
        self.clock.charge(|m| &m.private_engine_ns);
        let EdgeSearchCache {
            searches,
            rows,
            scratch,
        } = &mut *self.cache;
        let (found, served) = match searches.entry(sub.sig) {
            Entry::Occupied(memo) => {
                *searches_shared += 1;
                (memo.get().clone(), Served::Shared)
            }
            Entry::Vacant(memo) => {
                let t0 = Instant::now();
                let (start, layout) = (rows.len(), entry.layout);
                find_matches_containing_edge_with(
                    graph,
                    &entry.query,
                    &entry.subgraph,
                    edge,
                    scratch,
                    |m| layout.write(m, layout.push_unbound(rows)),
                );
                let elapsed = t0.elapsed();
                *searches_run += 1;
                (
                    memo.insert(start..rows.len()).clone(),
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
        assert!(index.subscribe(QueryId(0), &engine_for(&[1, 2]), 0));
        assert!(index.subscribe(QueryId(1), &engine_for(&[1, 2]), 0));
        // A third query shares one type and brings one new shape.
        assert!(index.subscribe(QueryId(2), &engine_for(&[2, 9]), 0));
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
        assert!(!index.subscribe(QueryId(0), &engine, 0));
        assert!(!index.is_subscribed(QueryId(0)));
    }

    #[test]
    fn subscribers_lists_query_and_node() {
        let mut index = SharedLeafIndex::new();
        let e0 = engine_for(&[4]);
        let e1 = engine_for(&[4]);
        index.subscribe(QueryId(7), &e0, 0);
        index.subscribe(QueryId(9), &e1, 0);
        let tree = e0.tree().unwrap();
        let (sig, _) = canonicalize_subgraph(tree.query(), tree.subgraph(tree.leaf(0))).unwrap();
        let subs = index.subscribers(&sig);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].0, QueryId(7));
        assert_eq!(subs[1].0, QueryId(9));
    }
}
