//! Shared join stage: refcounted canonical partial-match tables for common
//! SJ-Tree prefixes across the queries of a shard.
//!
//! Every engine runs the anchored search for each of its own leaves, so
//! two queries with the same leading leaves would keep duplicate
//! partial-match tables and run duplicate searches and hash joins on every
//! edge. [`SharedJoinIndex`] shares that work per common *prefix* of at
//! least two leaves — the multi-query design of the StreamWorks line of
//! work (Choudhury et al., EDBT 2015; arXiv:1407.3745):
//!
//! * every registered query's decomposition is canonicalized to a
//!   [`PrefixSignature`] chain (`sp-query`); queries whose chains begin with
//!   the same steps can share one **canonical prefix table** — a
//!   shard-owned [`SjTree`] + [`MatchStore`] over the canonical union
//!   graph of the common leading leaves;
//! * per streaming edge, each live prefix table advances **once**: the
//!   prefix leaves are searched, the discovered matches inserted, and the
//!   recursive hash join run against the one shared table set. New
//!   prefix-root matches are *emitted* — as rows, see below — and
//!   delivered per subscriber: straight to the sink as complete matches
//!   when the prefix spans the subscriber's whole tree, else pulled by the
//!   subscriber's engine as inserts at its own prefix-covering node
//!   ([`ContinuousQueryEngine::process_edge_into`]);
//! * tables are **refcounted**: the last unsubscriber (deregistration or a
//!   drift-driven re-subscription) drops the table; a late subscriber to an
//!   existing table sees no pre-registration matches (see *Boundaries*).
//!
//! # Emissions are rows; rebased at the sink
//!
//! Inside this stage a match is only ever a fixed-width row of `u64` slots
//! in the table's canonical numbering ([`RowLayout`]): the tables are
//! [`MatchStore`]s, a leaf match goes from the anchored search's working
//! binding straight into an arena row, a root join is written from its two
//! operand rows straight into the table's flat `pending` buffer
//! ([`MatchStore::insert_row`]), and a trie child adopts its parent's
//! pending rows slot for slot ([`MatchStore::adopt`]). The copy-on-emit
//! boundary sits at delivery ([`SharedJoinIndex::deliver`]): per
//! subscriber, the window filter reads the row's two timestamp words, the
//! boundary filter reads its edge slots, and each admitted row leaves in
//! the subscriber's own numbering through a slot order precomputed at
//! subscription time. For a full-depth subscriber it is handed to the
//! [`RowSink`] on the spot as a [`SharedRow`], which a materializing sink
//! turns into the one [`SubgraphMatch`] of that match (canonical slots
//! sorted by the subscriber's ids, so construction is one pass per binding
//! map) — no engine call, no buffer between the table and the sink. For a
//! partial-depth subscriber the engine's leaf loop pulls it
//! ([`PrefixRows`]): one slot permutation from the table's pending buffer
//! straight into a row of the engine's arena, where it seeds the engine's
//! join continuation.
//!
//! # Trie of prefix tables
//!
//! Tables are organized as a **trie keyed on
//! [`ChainStep`](sp_query::ChainStep)s** (the
//! query-clustering shape of Zervakis et al., "Efficient Continuous
//! Multi-Query Processing over Graph Streams"): a node whose signature
//! extends another materialized signature is that node's *child*, and on
//! every dispatched edge the parent advances first and its freshly emitted
//! prefix-root matches are **consumed by the child** as inserts at the
//! child's internal node covering the parent's leaves — instead of the
//! child re-running the parent's leaf searches and re-storing its partials.
//! A child therefore stores only its *suffix* stages (the consume node plus
//! its own leaves and upper joins); the storage for the shared `[A,B]`
//! partials exists in exactly one place. Subscribers hang off the node
//! covering their deepest shared prefix, refcounts are per node, and a node
//! outlived by its children (its own last subscriber left) stays alive
//! until the whole subtree is unsubscribed. The trie grows **downward
//! only**: a new node links under the deepest materialized strict prefix
//! of its signature, and an existing deeper node is never re-parented. When
//! a later registration materializes a prefix of an existing node (a
//! shallow pair arriving after a deep one), both stay trie roots: the deep
//! node keeps computing its own leading stages, so every table stays
//! complete and exact, and only the deduplication of those stages is lost,
//! in that registration order.
//!
//! # Windows move to emit time
//!
//! Subscribers with different `tW` share one table: the table itself prunes
//! joins only against the *loosest* subscriber window (the same rule the
//! [`ControlPlane`](crate::control::ControlPlane) derives the graph's retention
//! from), and each subscriber's own `tW` is applied when emissions
//! are delivered. A match over-window for one subscriber but inside another's
//! is thus delivered exactly where the private path would have delivered
//! it; stored partials an individual engine would have pruned early are
//! kept (they are still needed by the loosest subscriber) and expire with
//! the table's window instead — semantics are unaffected because a match's
//! time span only grows as it joins upward.
//!
//! # Expiry in time order
//!
//! The data graph is a window in time (§2 of the paper): an edge older than
//! `t_last − tW` is gone. A windowed table follows it edge by edge, not on
//! the shard's purge cadence. Its store keeps an expiry log
//! ([`MatchStore::set_expiry_window`]), and before every edge it takes the
//! table drops each row whose earliest edge is older than
//! `latest − tW` ([`MatchStore::expire`]), `tW` being the table's window
//! and `latest` the graph's newest timestamp. On a stream whose timestamps
//! never decrease such a row can join no later row — the join would span
//! the window, `joinable` refuses it, and the probe's time-range skip
//! already steps over it — so no answer moves; the tables shrink from up
//! to a window plus a purge interval of rows to one window. With late
//! edges, what a windowed table reports now depends on the stream alone,
//! no longer on the purge interval. A table whose window turns from none to
//! some logs the rows it already holds, so they expire too. Only an
//! unwindowed table is still swept, on the shard's cadence, by the
//! dead-edge rule ([`SharedJoinIndex::purge`]).
//!
//! # Lazy Search moves to emit time
//!
//! The shared table is evaluated eagerly (no lazy gating inside the
//! prefix): gating is a per-engine work-saving device, and with multiple
//! subscribers the one shared evaluation replaces *all* of their prefix
//! work. Lazy partial-depth subscribers keep their gating for the suffix
//! leaves — each emission inserted at the subscriber's prefix node trips
//! the ordinary
//! `ENABLE-SEARCH-SIBLING` machinery (retroactive probe included), so the
//! next leaf's search is enabled exactly when a private insert would have
//! enabled it. Eager and lazy execution of the same tree report identical
//! match multisets (the PR 1 equivalence tests), so the emitted stream is
//! the one every subscriber's own prefix would have produced.
//!
//! # Boundaries: late subscribers
//!
//! A query that joins an existing table at stream position `B` must not see
//! matches it would not have found had it run privately from `B`. For the
//! eager semantics this set is exact and *intrinsic to the match*: a
//! private engine registered at `B` holds a leaf match iff the leaf's
//! last-arriving edge was dispatched at or after `B` (anchored searches may
//! bind older retained edges — only the *anchor* must be new). A
//! prefix-root match is therefore visible to the subscriber iff
//! `min over leaves (max edge id within the leaf) ≥ B` — computed per
//! emission against each subscriber's recorded boundary, with no epoch
//! bookkeeping in the table itself. (Lazy engines registered mid-stream can
//! additionally resurrect *wholly pre-registration* leaf matches through
//! retroactive probes; under the shared join stage a late subscriber gets
//! the strategy-independent eager-late semantics instead.)
//!
//! Conversely, when a *live* query migrates onto a newly created table
//! (a later registration or re-decomposition finally gives it a sharing
//! partner), the table is back-filled by replaying the retained graph in
//! `(timestamp, id)` order — the same recipe as
//! [`ContinuousQueryEngine::rebuild`] — so partials the query's private
//! prefix already held keep completing. Replay emissions are discarded
//! (every one of them was already reported) and replayed matches carry
//! their original edge ids, so boundary filtering keeps working unchanged.

use crate::control::{retention_for_windows, QueryId};
use crate::engine::{retained_edges, ContinuousQueryEngine};
use crate::metrics::StageClock;
use crate::sink::RowSink;
use sp_graph::{DynamicGraph, EdgeData, EdgeId, EdgeType, FastMap, Timestamp, VertexId};
use sp_iso::{find_matches_containing_edge_with, SearchScratch, SubgraphMatch};
use sp_query::{prefix_chain, CanonicalMapping, PrefixSignature, QueryEdgeId, QueryVertexId};
use sp_sjtree::{MatchStore, RowId, RowLayout, SjTree};
use std::collections::{BTreeMap, HashMap};

/// A shared prefix must contain at least one internal join node, i.e. cover
/// at least two leaves. A depth-1 table would share a single leaf search,
/// and sharing single leaves across queries was measured to save time on
/// no benchmark workload: each engine searches its own leaves.
pub(crate) const MIN_PREFIX_DEPTH: usize = 2;

/// The canonical chain of one SJ-Tree, as the shared join stage sees it,
/// together with the full-chain union→owner mapping: `None` for trees with
/// nothing to join (fewer than [`MIN_PREFIX_DEPTH`] leaves) or whose leaves
/// defeat canonicalization (oversized hand-built leaves). Both are computed
/// once per (re)registration and kept in [`SharedJoinIndex`]'s `chains`;
/// the mapping is *sliced* per attachment depth (prefix-closure: the
/// depth-`d` prefix's union ids are exactly the first ids of the full
/// chain), so attaching never re-canonicalizes.
fn chain_and_mapping(tree: &SjTree) -> Option<(PrefixSignature, CanonicalMapping)> {
    if tree.num_leaves() < MIN_PREFIX_DEPTH {
        return None;
    }
    let leaves: Vec<_> = tree.leaf_subgraphs().cloned().collect();
    prefix_chain(tree.query(), leaves.iter())
}

/// Whether a row spanning `earliest..=latest` already spans the table
/// `window`: every join it takes part in spans at least as much, so the
/// table does not store it — it could only wait there to expire.
fn outlives(window: Option<u64>, earliest: u64, latest: u64) -> bool {
    window.is_some_and(|tw| latest.saturating_sub(earliest) >= tw)
}

/// One query's subscription to a prefix table.
#[derive(Debug, Clone)]
struct JoinSub {
    id: QueryId,
    /// `(subscriber query edge, canonical row slot)`, sorted by the
    /// subscriber's id: walking it builds the subscriber's edge bindings in
    /// ascending key order, so rebasing an emission is straight array
    /// writes (no search, no intermediate canonical match).
    edge_order: Vec<(QueryEdgeId, usize)>,
    /// Likewise `(subscriber query vertex, canonical row slot)`.
    vertex_order: Vec<(QueryVertexId, usize)>,
    /// Layout of rows in the subscriber's own numbering (its engine's).
    target: RowLayout,
    /// The subscriber's own `tW`, applied to emissions at delivery time.
    window: Option<u64>,
    /// First edge id whose dispatch the subscriber is entitled to see
    /// (`0` for queries registered before any edge was processed).
    boundary: u64,
    /// The prefix spans the subscriber's whole tree, so every admitted
    /// emission *is* one of its complete matches and goes straight to the
    /// sink; otherwise emissions seed the engine's join continuation.
    full_depth: bool,
}

/// One complete match on its way out of a shared prefix table: an admitted
/// emission row, still in the table's canonical numbering, together with
/// the receiving subscriber's slot order. What a [`RowSink`] gets for a
/// full-depth subscriber; it picks the form it needs.
#[derive(Debug, Clone, Copy)]
pub struct SharedRow<'a> {
    row: &'a [u64],
    layout: RowLayout,
    sub: &'a JoinSub,
}

impl SharedRow<'_> {
    /// Builds the subscriber-numbered match — the single materialization of
    /// a delivered match, inlined into the frame that hands it to the sink.
    #[inline]
    pub fn materialize(&self) -> SubgraphMatch {
        let (row, sub) = (self.row, self.sub);
        SubgraphMatch::from_sorted_bindings(
            sub.edge_order.iter().map(|&(q, s)| (q, EdgeId(row[s]))),
            sub.vertex_order.iter().map(|&(q, s)| (q, VertexId(row[s]))),
            Timestamp(self.layout.earliest(row)),
            Timestamp(self.layout.latest(row)),
        )
    }

    /// The layout of the rows [`SharedRow::rebase_into`] appends: the
    /// subscriber's own numbering.
    pub(crate) fn target_layout(&self) -> RowLayout {
        self.sub.target
    }

    /// Writes the match into a fresh row of `store` — the subscriber
    /// engine's — in the subscriber's own numbering (slots the prefix does
    /// not cover stay unbound).
    fn encode_into(&self, store: &mut MatchStore) -> RowId {
        let (row, sub) = (self.row, self.sub);
        store.encode_bindings(
            sub.edge_order.iter().map(|&(q, s)| (q, row[s])),
            sub.vertex_order.iter().map(|&(q, s)| (q, row[s])),
            self.layout.earliest(row),
            self.layout.latest(row),
        )
    }

    /// Appends the match to `out` as one row in the subscriber's own
    /// numbering (slots the prefix does not cover stay unbound).
    pub(crate) fn rebase_into(&self, out: &mut Vec<u64>) {
        let (row, sub) = (self.row, self.sub);
        sub.target.fill(
            sub.target.push_unbound(out),
            sub.edge_order.iter().map(|&(q, s)| (q, row[s])),
            sub.vertex_order.iter().map(|&(q, s)| (q, row[s])),
            self.layout.earliest(row),
            self.layout.latest(row),
        );
    }
}

/// One refcounted canonical prefix table.
#[derive(Debug, Clone)]
struct PrefixEntry {
    sig: PrefixSignature,
    /// Left-deep canonical tree over the prefix leaves (the anchored
    /// searches run against its union query); its root is the
    /// prefix-covering node whose matches are emitted.
    tree: SjTree,
    /// Emissions leave it as rows, never as matches.
    store: MatchStore,
    /// Slot schema of the rows in `store` and `pending`.
    layout: RowLayout,
    /// Canonical edge ids per leaf rank, for the boundary (`dep`) filter.
    leaf_edges: Vec<Vec<QueryEdgeId>>,
    /// Loosest window across the node's **subtree** (own subscribers plus
    /// every descendant's; `None` = someone is unwindowed): a parent's
    /// emissions feed its children, so its table must retain at least as
    /// much as any consumer downstream. Prunes joins inside the table and
    /// sets its expiry cutoff.
    window: Option<u64>,
    /// Subscribers in subscription order (the node refcount is
    /// `subs.len()`, but lifetime also considers `children`).
    subs: Vec<JoinSub>,
    /// Stream position the table's contents are complete from; subscribing
    /// with an earlier boundary triggers a replay.
    populated_since: u64,
    /// Prefix-root matches created by the current edge: canonical rows,
    /// `layout.stride()` words each, back to back.
    pending: Vec<u64>,
    /// Edge the `pending` buffer belongs to.
    advanced_for: Option<EdgeId>,
    /// Trie parent: the deepest strict prefix of `sig` that was
    /// materialized when this node was created (the trie never re-parents).
    /// `None` for trie roots.
    parent: Option<usize>,
    /// `self.entries[parent].depth()`, or `0` without a parent. Leaf ranks
    /// `0..parent_depth` are covered by consuming the parent's emissions,
    /// so this node searches and stores only from rank `parent_depth` up.
    parent_depth: usize,
    /// Trie children: materialized extensions consuming this node's
    /// emissions.
    children: Vec<usize>,
    /// Subscribers across the node's subtree (own + descendants) — the
    /// would-be-runner count behind the saved-work accounting.
    subtree_subs: usize,
}

impl PrefixEntry {
    fn new(sig: PrefixSignature, populated_since: u64) -> Self {
        let (query, leaves) = sig.instantiate("shared-prefix");
        let leaf_edges: Vec<Vec<QueryEdgeId>> =
            leaves.iter().map(|leaf| leaf.edges().collect()).collect();
        let tree = SjTree::from_leaves(query, leaves);
        let store = MatchStore::new(&tree);
        let layout = store.row_layout();
        PrefixEntry {
            sig,
            tree,
            store,
            layout,
            leaf_edges,
            window: None,
            subs: Vec::new(),
            populated_since,
            pending: Vec::new(),
            advanced_for: None,
            parent: None,
            parent_depth: 0,
            children: Vec::new(),
            subtree_subs: 0,
        }
    }

    fn depth(&self) -> usize {
        self.sig.depth()
    }

    /// Drops the rows the table's window has passed: those whose earliest
    /// edge is older than `latest − window` (see the module docs). Returns
    /// how many; an unwindowed table drops nothing here.
    fn expire(&mut self, latest: Timestamp) -> u64 {
        self.window.map_or(0, |tw| {
            self.store.expire(&self.tree, latest.0.saturating_sub(tw)) as u64
        })
    }

    /// Runs the prefix's per-edge work against the shared table, leaving the
    /// new prefix-root rows in `pending`: first expires the rows the window
    /// has passed, then consumes `parent_feed` — the trie parent's emission
    /// rows for this same edge, in `parent_layout` — as inserts at the
    /// consume node, then runs the leaf searches for this node's own ranks
    /// (`parent_depth..`). Returns `(searches run, leaf matches found,
    /// matches inserted, rows expired)`.
    fn advance(
        &mut self,
        graph: &DynamicGraph,
        edge: &EdgeData,
        parent_feed: &[u64],
        parent_layout: RowLayout,
        scratch: &mut SearchScratch,
    ) -> (u64, u64, u64, u64) {
        let expired = self.expire(graph.latest_timestamp());
        self.pending.clear();
        self.advanced_for = Some(edge.id);
        let inserted_before = self.store.lifetime_inserted();
        let (mut searches, mut leaf_matches) = (0u64, 0u64);
        if !parent_feed.is_empty() {
            // The join node covering exactly the parent's leaves. Canonical
            // ids line up across the two trees by prefix-closure, so the
            // parent's rows are adopted slot for slot.
            let consume = self.tree.prefix_root(self.parent_depth);
            for row in parent_feed.chunks_exact(parent_layout.stride()) {
                if outlives(
                    self.window,
                    parent_layout.earliest(row),
                    parent_layout.latest(row),
                ) {
                    continue;
                }
                let row = self.store.adopt(row, parent_layout);
                self.store.insert_row(
                    &self.tree,
                    consume,
                    row,
                    self.window,
                    &mut self.pending,
                    None,
                );
            }
        }
        for rank in self.parent_depth..self.tree.num_leaves() {
            if self.tree.leaf_edge_types(rank).contains(&edge.edge_type) {
                leaf_matches += self.search_and_insert(graph, edge, self.tree.leaf(rank), scratch);
                searches += 1;
            }
        }
        let inserts = self.store.lifetime_inserted() - inserted_before;
        (searches, leaf_matches, inserts, expired)
    }

    /// One anchored leaf search of the table's canonical query around
    /// `edge`: every match it visits goes from the search's working binding
    /// into an arena row and through the recursive join, root joins landing
    /// in `pending`. Returns the number of leaf matches found.
    fn search_and_insert(
        &mut self,
        graph: &DynamicGraph,
        edge: &EdgeData,
        leaf: sp_sjtree::NodeId,
        scratch: &mut SearchScratch,
    ) -> u64 {
        let PrefixEntry {
            tree,
            store,
            window,
            pending,
            ..
        } = self;
        let (query, subgraph) = (tree.query(), tree.subgraph(leaf));
        let mut found = 0;
        find_matches_containing_edge_with(graph, query, subgraph, edge, scratch, |m| {
            found += 1;
            let (earliest, latest) = m.time_span();
            if outlives(*window, earliest.0, latest.0) {
                return;
            }
            let row = store.encode(m);
            store.insert_row(tree, leaf, row, *window, pending, None);
        });
        found
    }

    /// Rebuilds the table from the retained graph, in the deterministic
    /// `(timestamp, id)` order `ContinuousQueryEngine::rebuild` uses
    /// ([`retained_edges`]).
    /// Emissions are discarded: every prefix-root match reconstructed here
    /// lies entirely in the retained (pre-subscription) graph, so whoever
    /// was subscribed when its last edge arrived already consumed it.
    ///
    /// A windowed table expires as it replays. It skips every edge older
    /// than its expiry cutoff: each row such an edge anchors binds it, so
    /// the table would drop the row before its next edge anyway. Then it
    /// expires once at the cutoff, for the rows of newer edges that bind an
    /// older one. Returns the rows so expired.
    ///
    /// The replay always runs **all** ranks — a node with a trie parent
    /// needs the lower stages live while the joins propagate upward — and
    /// the caller clears the parent-owned stages afterwards
    /// ([`MatchStore::clear_below_prefix`]).
    fn replay(&mut self, graph: &DynamicGraph, scratch: &mut SearchScratch) -> u64 {
        self.store.clear();
        self.advanced_for = None;
        let latest = graph.latest_timestamp();
        let cutoff = self.window.map_or(0, |tw| latest.0.saturating_sub(tw));
        for edge in &retained_edges(graph, self.tree.edge_types()) {
            if edge.timestamp.0 < cutoff {
                continue;
            }
            for rank in 0..self.tree.num_leaves() {
                if self.tree.leaf_edge_types(rank).contains(&edge.edge_type) {
                    self.search_and_insert(graph, edge, self.tree.leaf(rank), scratch);
                }
            }
            self.pending.clear();
        }
        self.expire(latest)
    }

    /// The boundary value of a prefix-root row: the smallest, over the
    /// prefix leaves, of the newest edge id bound within the leaf. A
    /// subscriber sees the match iff this is at or past its subscription
    /// boundary (see the module docs).
    fn dep_of(&self, row: &[u64]) -> u64 {
        self.leaf_edges
            .iter()
            .map(|edges| {
                edges
                    .iter()
                    .map(|&e| row[e.0])
                    .max()
                    .expect("leaves are non-empty")
            })
            .min()
            .expect("prefixes have at least two leaves")
    }

    /// Whether `sub` is entitled to the emission `row`: inside its own
    /// window (two timestamp words) and at or past its boundary (edge
    /// slots).
    fn admits(&self, sub: &JoinSub, row: &[u64]) -> bool {
        sub.window.is_none_or(|tw| {
            self.layout
                .latest(row)
                .saturating_sub(self.layout.earliest(row))
                < tw
        }) && (sub.boundary == 0 || self.dep_of(row) >= sub.boundary)
    }
}

/// Snapshot of the shared join stage's bookkeeping, used by tests, examples
/// and the repository benchmark's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedJoinStats {
    /// Live canonical prefix tables.
    pub tables: usize,
    /// Current subscriptions across all tables (each query subscribes to at
    /// most one table).
    pub subscriptions: usize,
    /// Prefix leaf searches the shared stage actually executed.
    pub searches_run: u64,
    /// Leaf matches those searches found: the shared stage's share of
    /// [`ProfileCounters::leaf_matches`](crate::ProfileCounters::leaf_matches).
    pub leaf_matches: u64,
    /// Partial-match inserts (leaf + internal) performed in shared tables.
    pub inserts_run: u64,
    /// Prefix leaf searches subscribers did **not** run because another
    /// subscriber's table advance covered them: per advance, `searches ×
    /// (live subscribers − 1)`. This counts against the *eager* private
    /// path — a lazy subscriber's own engine would have gated some of
    /// these behind its bitmap, so for lazy packs the counter is an upper
    /// bound on physically eliminated work (the insert-reduction test in
    /// `sp-bench` compares actually-performed work instead).
    pub searches_saved: u64,
    /// Partial-match inserts subscribers did not perform, accounted the
    /// same way (and with the same eager-equivalent caveat).
    pub inserts_saved: u64,
    /// Prefix-root matches emitted (before per-subscriber filtering).
    pub emissions: u64,
    /// Emissions delivered after window/boundary filtering, summed over
    /// subscribers.
    pub deliveries: u64,
    /// Table back-fills (late-partner migrations and re-subscriptions).
    pub replays: u64,
    /// Deepest live trie node (0 with no tables).
    pub max_depth: usize,
    /// Parent-node emissions consumed by child trie nodes in place of
    /// re-running the parent's leaf searches and joins.
    pub parent_feeds: u64,
    /// Partial-match rows the live tables hold right now: the sum of their
    /// arenas' O(1) live counts, the tables' own share of memory.
    pub live_rows: usize,
    /// Rows the tables dropped since construction: by their expiry log when
    /// windowed, by the dead-edge sweep when not.
    pub rows_expired: u64,
}

impl SharedJoinStats {
    /// Fraction of would-be prefix work (searches + inserts) that sharing
    /// eliminated; 0 when the stage never ran.
    pub fn elimination_ratio(&self) -> f64 {
        let run = self.searches_run + self.inserts_run;
        let saved = self.searches_saved + self.inserts_saved;
        if run + saved == 0 {
            0.0
        } else {
            saved as f64 / (run + saved) as f64
        }
    }
}

/// One live node of the prefix-table trie, as reported by
/// [`SharedJoinIndex::trie_nodes`] for tests and benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrieNodeInfo {
    /// Leaves the node's canonical prefix covers.
    pub depth: usize,
    /// Depth of the trie parent feeding this node (`None` for trie roots).
    pub parent_depth: Option<usize>,
    /// Child nodes consuming this node's emissions.
    pub children: usize,
    /// Queries subscribed directly at this node.
    pub subscribers: usize,
    /// Live stored partial matches per canonical tree node: first the leaf
    /// ranks `0..depth`, then the internal join nodes by ascending coverage
    /// (`leaves 0..=1`, `0..=2`, …). The last slot is the prefix root,
    /// whose matches are emitted, never stored — it stays 0. A node with a
    /// trie parent keeps its parent-covered slots empty: those partials
    /// live in exactly one place, the child's consume slot.
    pub live_by_node: Vec<usize>,
}

/// The current edge's emissions of the prefix table a **partial-depth**
/// subscriber rides, on their way into that subscriber's engine: a borrowed
/// view the engine's leaf loop pulls through the shard's [`SharedSource`] —
/// nothing is built until then. (A subscriber whose prefix spans its whole
/// tree never sees one — its matches go from the table straight to the
/// sink.)
#[derive(Debug)]
pub(crate) struct PrefixRows<'a> {
    entry: &'a PrefixEntry,
    sub: &'a JoinSub,
    /// The table's pending rows for this edge (empty when it did not
    /// advance).
    rows: &'a [u64],
    /// The index's delivery counter.
    deliveries: &'a mut u64,
}

impl PrefixRows<'_> {
    /// Number of leading leaves (selectivity ranks `0..depth`) the table
    /// covers, `2 <= depth < leaves`.
    pub fn depth(&self) -> usize {
        self.entry.depth()
    }

    /// Writes every pending row the subscriber's window and boundary admit
    /// into `store` — one slot permutation from the table's canonical row
    /// into a row of the subscriber engine's arena, suffix slots unbound —
    /// and hands it to `queue`. Returns whether the table has other live
    /// subscribers, i.e. the prefix work was genuinely deduplicated this
    /// edge.
    pub fn encode_into(&mut self, store: &mut MatchStore, mut queue: impl FnMut(RowId)) -> bool {
        let (entry, sub, layout) = (self.entry, self.sub, self.entry.layout);
        for row in self.rows.chunks_exact(layout.stride()) {
            if entry.admits(sub, row) {
                *self.deliveries += 1;
                queue(SharedRow { row, layout, sub }.encode_into(store));
            }
        }
        entry.subtree_subs > 1
    }
}

/// What the shard hands one candidate engine's leaf loop
/// ([`ContinuousQueryEngine::process_edge_into`]) on one edge: the rows of
/// the prefix table it rides at partial depth, if any, and the shard's stage
/// clock. The engine skips the leaves the prefix covers and pulls
/// [`SharedSource::prefix_rows`] in their place; it searches every other
/// leaf itself, as an engine run on its own does for every leaf. A pulled
/// prefix takes one lap of the clock (`shared_join_ns`).
pub(crate) struct SharedSource<'a, 'm> {
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
}

/// What [`SharedJoinIndex::deliver`] did for one dispatched query.
#[derive(Debug)]
pub(crate) enum JoinDelivery<'a> {
    /// Full-depth subscriber: `delivered` complete matches went straight to
    /// the sink; no engine work remains for this edge.
    Complete {
        /// Matches handed to the sink.
        delivered: u64,
        /// Whether the table has other live subscribers, i.e. the work was
        /// genuinely deduplicated this edge.
        shared: bool,
    },
    /// The query's engine runs: pulling the prefix-root rows of its
    /// partial-depth subscription, or (`None`, not subscribed) every leaf
    /// from rank 0.
    Engine(Option<PrefixRows<'a>>),
}

/// The shard-wide index of canonical prefix tables and their
/// subscribers. See the module docs for the semantics.
#[derive(Debug, Clone, Default)]
pub struct SharedJoinIndex {
    entries: Vec<Option<PrefixEntry>>,
    by_sig: HashMap<PrefixSignature, usize>,
    free: Vec<usize>,
    /// Edge type → entries whose prefix contains it (entry dispatch), each
    /// list kept sorted shallow-first so a trie parent always advances
    /// before any of its children on the same edge.
    by_type: FastMap<EdgeType, Vec<usize>>,
    /// Query → entry index, for subscribed queries.
    subs: BTreeMap<QueryId, usize>,
    /// Full canonical chain of every join-capable registered query
    /// (subscribed or not), for partner matching, with its union→owner
    /// mapping for attaching.
    chains: BTreeMap<QueryId, (PrefixSignature, CanonicalMapping)>,
    /// The cumulative counters; [`SharedJoinIndex::stats`] fills in the
    /// rest.
    counts: SharedJoinStats,
    /// Reusable anchored-search working binding for
    /// [`SharedJoinIndex::advance_edge`] and the table back-fills — one
    /// serves every table on every edge.
    scratch: SearchScratch,
}

impl SharedJoinIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total partial matches ever stored across every live prefix table
    /// (tables dropped when their last subscriber left no longer count) —
    /// the shared-join share of
    /// [`Shard::stored_matches`](crate::Shard::stored_matches).
    pub(crate) fn lifetime_stored(&self) -> u64 {
        self.entries
            .iter()
            .flatten()
            .map(|e| e.store.lifetime_inserted())
            .sum()
    }

    /// The number of leading leaves a query's shared table covers (`None`
    /// when the query runs its join stage privately).
    pub fn subscription_depth(&self, id: QueryId) -> Option<usize> {
        let &idx = self.subs.get(&id)?;
        self.entries[idx].as_ref().map(PrefixEntry::depth)
    }

    /// Current and cumulative bookkeeping.
    pub fn stats(&self) -> SharedJoinStats {
        SharedJoinStats {
            tables: self.by_sig.len(),
            subscriptions: self.subs.len(),
            max_depth: self
                .entries
                .iter()
                .flatten()
                .map(PrefixEntry::depth)
                .max()
                .unwrap_or(0),
            live_rows: self
                .entries
                .iter()
                .flatten()
                .map(|e| e.store.live_rows())
                .sum(),
            ..self.counts
        }
    }

    /// Snapshot of every live trie node, shallow-first (ties broken by
    /// signature order), for tests and the bench's trie statistics.
    pub fn trie_nodes(&self) -> Vec<TrieNodeInfo> {
        let mut live: Vec<&PrefixEntry> = self.entries.iter().flatten().collect();
        live.sort_by(|a, b| (a.depth(), &a.sig).cmp(&(b.depth(), &b.sig)));
        live.into_iter()
            .map(|e| {
                let k = e.tree.num_leaves();
                let mut live_by_node = Vec::with_capacity(2 * k - 1);
                for &leaf in e.tree.leaves() {
                    live_by_node.push(e.store.live_matches(leaf));
                }
                for depth in 2..=k {
                    live_by_node.push(e.store.live_matches(e.tree.prefix_root(depth)));
                }
                TrieNodeInfo {
                    depth: e.depth(),
                    parent_depth: e.parent.map(|_| e.parent_depth),
                    children: e.children.len(),
                    subscribers: e.subs.len(),
                    live_by_node,
                }
            })
            .collect()
    }

    /// Places a registered query on the shared join stage, together with
    /// the partners its arrival pulls in, and returns every placement made:
    /// the registrant first (depth `0` when it stays private), then each
    /// mover on the deepest table of its chain. `engines` is the shard's
    /// engine map, which holds `id` and every partner; each engine carries
    /// its window, row layout and registration boundary. `now` is the
    /// current stream position; `graph` is the retained data graph, needed
    /// when a table must be back-filled for an early boundary.
    ///
    /// Policy (greedy, deterministic): the target depth is the deeper of
    /// the deepest materialized node on the chain's path and the deepest
    /// prefix shared with any other registered chain not already covered
    /// that deep for its owner; the node at that depth is attached to or
    /// created (linked under its deepest materialized strict prefix), and
    /// every query whose chain runs through the node but is covered more
    /// shallowly — private *or* subscribed — moves: creating a table is only
    /// worthwhile with at least two users. A subscribed mover is detached
    /// from its shallower node first.
    pub(crate) fn subscribe(
        &mut self,
        id: QueryId,
        engines: &BTreeMap<QueryId, ContinuousQueryEngine>,
        now: u64,
        graph: &DynamicGraph,
    ) -> Vec<(QueryId, usize)> {
        let engine = &engines[&id];
        // `None` for the VF2 baseline and trees `chain_and_mapping` rejects.
        let Some(canonical) = engine.tree().and_then(chain_and_mapping) else {
            return vec![(id, 0)];
        };
        self.chains.insert(id, canonical);
        let chain = &self.chains[&id].0;
        // Deepest materialized node on the chain's path.
        let existing_depth = self.deepest_node(chain).unwrap_or(0);
        // Deepest prefix shared with another registered chain whose owner
        // is not already covered that deep — subscribed-but-shallower
        // partners count (they re-point onto the deeper node).
        let mut partner_depth = 0usize;
        for (&other, (other_chain, _)) in &self.chains {
            if other == id {
                continue;
            }
            let d = chain.common_depth(other_chain);
            if d > self.subscription_depth(other).unwrap_or(0) {
                partner_depth = partner_depth.max(d);
            }
        }
        let target = existing_depth.max(partner_depth);
        if target < MIN_PREFIX_DEPTH {
            return vec![(id, 0)];
        }
        let sig = chain.truncated(target);
        let movers: Vec<QueryId> = self
            .chains
            .iter()
            .filter(|&(&other, (oc, _))| {
                other != id
                    && oc.common_depth(&sig) == target
                    && self.subscription_depth(other).unwrap_or(0) < target
            })
            .map(|(&other, _)| other)
            .collect();
        let idx = match self.by_sig.get(&sig) {
            Some(&idx) => idx,
            None => self.create_node(sig, now),
        };
        self.attach_at(idx, id, engine, graph);
        let mut placed = vec![(id, target)];
        for mover in movers {
            // Every mover's chain runs through the node just attached to.
            let depth = self
                .deepest_node(&self.chains[&mover].0)
                .expect("the target node lies on the mover's chain");
            let idx = self.by_sig[&self.chains[&mover].0.truncated(depth)];
            self.detach(mover);
            self.attach_at(idx, mover, &engines[&mover], graph);
            placed.push((mover, depth));
        }
        placed
    }

    /// Depth of the deepest materialized node on `chain`'s path, if any.
    fn deepest_node(&self, chain: &PrefixSignature) -> Option<usize> {
        (MIN_PREFIX_DEPTH..=chain.depth())
            .rev()
            .find(|&d| self.by_sig.contains_key(&chain.truncated(d)))
    }

    /// Pushes one subscription onto an entry, slicing the subscriber's
    /// recorded full-chain mapping down to the entry's depth: union vertex
    /// and edge ids are assigned leaf by leaf, so the depth-`d` prefix owns
    /// exactly the first `sig.num_vertices()` / `sig.num_edges()` ids of
    /// the full chain (prefix-closure), no re-canonicalization needed.
    fn attach_at(
        &mut self,
        idx: usize,
        id: QueryId,
        engine: &ContinuousQueryEngine,
        graph: &DynamicGraph,
    ) {
        let mapping = &self.chains[&id].1;
        let entry = self.entries[idx].as_mut().expect("live entry");
        let RowLayout { edges, vertices } = entry.layout;
        debug_assert!(vertices <= mapping.vertices.len() && edges <= mapping.edges.len());
        let mut edge_order: Vec<(QueryEdgeId, usize)> = mapping.edges[..edges]
            .iter()
            .enumerate()
            .map(|(slot, &q)| (q, slot))
            .collect();
        edge_order.sort_unstable();
        let mut vertex_order: Vec<(QueryVertexId, usize)> = mapping.vertices[..vertices]
            .iter()
            .enumerate()
            .map(|(slot, &q)| (q, edges + slot))
            .collect();
        vertex_order.sort_unstable();
        entry.subs.push(JoinSub {
            id,
            edge_order,
            vertex_order,
            target: engine.row_layout(),
            window: engine.window(),
            boundary: engine.boundary,
            // Every leaf owns at least one edge, so the prefix covers the
            // subscriber's whole chain iff it covers all its edges.
            full_depth: mapping.edges.len() == edges,
        });
        self.subs.insert(id, idx);
        self.refresh_structure();
        // The subscriber may be entitled to matches older than the node's
        // (or any feeding ancestor's) coverage: back-fill from the retained
        // graph (replayed matches keep their original edge ids, so
        // everyone's boundary filter still applies).
        self.ensure_populated(idx, engine.boundary, graph);
    }

    /// Back-fills `idx` and every trie ancestor whose contents start later
    /// than `boundary`: a node is only complete from `populated_since`, and
    /// a consumer downstream entitled to older matches needs the whole
    /// feeding path complete from its boundary.
    fn ensure_populated(&mut self, idx: usize, boundary: u64, graph: &DynamicGraph) {
        let mut cur = Some(idx);
        while let Some(i) = cur {
            let entry = self.entries[i].as_mut().expect("live entry");
            if boundary < entry.populated_since {
                self.counts.rows_expired += entry.replay(graph, &mut self.scratch);
                // The stages a trie parent owns on this node's behalf were
                // only needed while the replayed joins propagated upward.
                entry
                    .store
                    .clear_below_prefix(&entry.tree, entry.parent_depth);
                entry.populated_since = boundary;
                self.counts.replays += 1;
            }
            cur = entry.parent;
        }
    }

    /// Recomputes the structure-derived per-node state after any
    /// subscription or trie change: subtree subscriber counts, subtree
    /// windows (children processed before parents: depth strictly grows
    /// down the trie), and the shallow-first order of the dispatch lists.
    fn refresh_structure(&mut self) {
        let mut order: Vec<usize> = (0..self.entries.len())
            .filter(|&i| self.entries[i].is_some())
            .collect();
        order.sort_by_key(|&i| {
            std::cmp::Reverse(self.entries[i].as_ref().expect("filtered live").depth())
        });
        for &i in &order {
            let (mut subs, mut windows, children) = {
                let e = self.entries[i].as_ref().expect("filtered live");
                let windows: Vec<Option<u64>> = e.subs.iter().map(|s| s.window).collect();
                (e.subs.len(), windows, e.children.clone())
            };
            for c in children {
                let child = self.entries[c].as_ref().expect("children are live");
                subs += child.subtree_subs;
                windows.push(child.window);
            }
            let e = self.entries[i].as_mut().expect("filtered live");
            e.subtree_subs = subs;
            e.window = retention_for_windows(windows);
            // A window from none to some logs the rows already stored, so
            // they expire like every later one.
            e.store.set_expiry_window(e.window);
        }
        for ids in self.by_type.values_mut() {
            ids.sort_by_key(|&i| (self.entries[i].as_ref().map(PrefixEntry::depth), i));
        }
    }

    /// Materializes a new trie node for `sig`, complete from `now`, linked
    /// under the deepest materialized strict prefix (a trie root when there
    /// is none). The trie grows downward only: an existing deeper node on
    /// the same chain keeps its parent and its own leading stages.
    fn create_node(&mut self, sig: PrefixSignature, now: u64) -> usize {
        let parent = (MIN_PREFIX_DEPTH..sig.depth())
            .rev()
            .find_map(|d| self.by_sig.get(&sig.truncated(d)).copied());
        let mut entry = PrefixEntry::new(sig.clone(), now);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            self.entries.len() - 1
        });
        if let Some(p) = parent {
            let pe = self.entries[p].as_mut().expect("live parent");
            pe.children.push(idx);
            entry.parent = Some(p);
            entry.parent_depth = pe.depth();
        }
        for &t in entry.tree.edge_types() {
            self.by_type.entry(t).or_default().push(idx);
        }
        self.entries[idx] = Some(entry);
        self.by_sig.insert(sig, idx);
        idx
    }

    /// Removes a query's subscription (keeping its chain registered) and
    /// collapses any nodes left without subscribers or children.
    fn detach(&mut self, id: QueryId) {
        let Some(idx) = self.subs.remove(&id) else {
            return;
        };
        self.entries[idx]
            .as_mut()
            .expect("live entry")
            .subs
            .retain(|s| s.id != id);
        self.collapse(idx);
        self.refresh_structure();
    }

    /// Drops `idx` and then its ancestors while they have neither own
    /// subscribers nor children — a node outlived by its children keeps
    /// running (it feeds them); a fully unsubscribed subtree unwinds
    /// bottom-up.
    fn collapse(&mut self, idx: usize) {
        let mut cur = Some(idx);
        while let Some(i) = cur {
            {
                let entry = self.entries[i].as_ref().expect("live entry");
                if !entry.subs.is_empty() || !entry.children.is_empty() {
                    break;
                }
            }
            let entry = self.entries[i].take().expect("checked above");
            self.by_sig.remove(&entry.sig);
            for ids in self.by_type.values_mut() {
                ids.retain(|&x| x != i);
            }
            self.by_type.retain(|_, ids| !ids.is_empty());
            self.free.push(i);
            if let Some(p) = entry.parent {
                self.entries[p]
                    .as_mut()
                    .expect("trie parent is live")
                    .children
                    .retain(|&c| c != i);
            }
            cur = entry.parent;
        }
    }

    /// Drops a query's subscription and chain. The last unsubscriber of a
    /// childless node drops it ([`SharedJoinStats::tables`] shrinks), and
    /// the drop cascades up through ancestors left with no subtree.
    /// Returns whether the query had been subscribed.
    pub(crate) fn unsubscribe(&mut self, id: QueryId) -> bool {
        self.chains.remove(&id);
        let had = self.subs.contains_key(&id);
        self.detach(id);
        had
    }

    /// Advances every node whose prefix contains the edge's type: one
    /// shared search-and-join pass per node per edge, regardless of how
    /// many queries subscribe. This is the per-edge **trie walk**: dispatch
    /// lists are sorted shallow-first and a child's edge types are a
    /// superset of its parent's, so whenever a child is dispatched its
    /// parent has already advanced for this edge and the child consumes the
    /// parent's fresh emissions instead of re-running the parent's ranks.
    /// Returns whether any node was dispatched (`false`: no table holds the
    /// edge's type, so the stage did no work).
    pub(crate) fn advance_edge(&mut self, graph: &DynamicGraph, edge: &EdgeData) -> bool {
        let Some(ids) = self.by_type.get(&edge.edge_type) else {
            return false;
        };
        for &idx in ids {
            // Detach the parent's pending buffer for the duration of the
            // advance (a second live borrow into `entries` otherwise); the
            // swap is allocation-free and the buffer goes straight back.
            let parent = self.entries[idx]
                .as_ref()
                .expect("dispatched entry is live")
                .parent;
            let parent_pending = parent.and_then(|p| {
                let pe = self.entries[p].as_mut().expect("trie parent is live");
                (pe.advanced_for == Some(edge.id) && !pe.pending.is_empty())
                    .then(|| (std::mem::take(&mut pe.pending), pe.layout))
            });
            let entry = self.entries[idx]
                .as_mut()
                .expect("dispatched entry is live");
            let (feed, feed_layout) = match &parent_pending {
                Some((rows, layout)) => (rows.as_slice(), *layout),
                None => (&[][..], entry.layout),
            };
            let (searches, leaf_matches, inserts, expired) =
                entry.advance(graph, edge, feed, feed_layout, &mut self.scratch);
            let saved = entry.subtree_subs.saturating_sub(1) as u64;
            let counts = &mut self.counts;
            counts.searches_run += searches;
            counts.leaf_matches += leaf_matches;
            counts.inserts_run += inserts;
            counts.searches_saved += searches * saved;
            counts.inserts_saved += inserts * saved;
            counts.emissions += (entry.pending.len() / entry.layout.stride()) as u64;
            counts.parent_feeds += (feed.len() / feed_layout.stride()) as u64;
            counts.rows_expired += expired;
            if let (Some(p), Some((buf, _))) = (parent, parent_pending) {
                self.entries[p]
                    .as_mut()
                    .expect("trie parent is live")
                    .pending = buf;
            }
        }
        true
    }

    /// Delivers the current edge's emissions of `id`'s table to `id`. A
    /// full-depth subscriber's matches are complete: each pending row its
    /// window and boundary admit (both read off the row) goes straight into
    /// `sink`, in the subscriber's own numbering
    /// ([`RowSink::on_shared_row`]). A partial-depth subscriber gets the
    /// pending rows as a [`PrefixRows`] view for its engine to pull —
    /// possibly empty, because the engine must skip the prefix leaves either
    /// way.
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        id: QueryId,
        edge: &EdgeData,
        sink: &mut (impl RowSink + ?Sized),
    ) -> JoinDelivery<'_> {
        let Some(&idx) = self.subs.get(&id) else {
            return JoinDelivery::Engine(None);
        };
        let entry = self.entries[idx]
            .as_ref()
            .expect("subscribed entry is live");
        let sub = entry
            .subs
            .iter()
            .find(|s| s.id == id)
            .expect("subscription is listed on its entry");
        let rows: &[u64] = if entry.advanced_for == Some(edge.id) {
            &entry.pending
        } else {
            &[]
        };
        if !sub.full_depth {
            return JoinDelivery::Engine(Some(PrefixRows {
                entry,
                sub,
                rows,
                deliveries: &mut self.counts.deliveries,
            }));
        }
        let layout = entry.layout;
        let mut delivered = 0;
        for row in rows.chunks_exact(layout.stride()) {
            if entry.admits(sub, row) {
                delivered += 1;
                sink.on_shared_row(id, SharedRow { row, layout, sub });
            }
        }
        self.counts.deliveries += delivered;
        JoinDelivery::Complete {
            delivered,
            shared: entry.subtree_subs > 1,
        }
    }

    /// Sweeps every **unwindowed** table by the dead-edge rule: a row that
    /// binds an edge no longer in `graph` goes ([`MatchStore::purge`]). A
    /// windowed table is not swept: it expires its own rows before each
    /// edge it takes (see the module docs).
    pub(crate) fn purge(&mut self, graph: &DynamicGraph) {
        let latest = graph.latest_timestamp();
        for entry in self.entries.iter_mut().flatten() {
            if entry.window.is_none() {
                self.counts.rows_expired += entry.store.purge(graph, latest, None) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::FnSink;
    use crate::strategy::Strategy;
    use sp_graph::Schema;
    use sp_query::QueryGraph;
    use sp_selectivity::SelectivityEstimator;

    fn chain_engine(types: &[u32], window: Option<u64>) -> ContinuousQueryEngine {
        let mut q = QueryGraph::new("q");
        let mut prev = q.add_any_vertex();
        for &t in types {
            let next = q.add_any_vertex();
            q.add_edge(prev, next, EdgeType(t));
            prev = next;
        }
        ContinuousQueryEngine::new(q, Strategy::Single, &SelectivityEstimator::new(), window)
            .unwrap()
    }

    /// An index together with the engines map and graph a shard would hand
    /// it; every engine registers at stream position 0.
    struct Fixture {
        index: SharedJoinIndex,
        engines: BTreeMap<QueryId, ContinuousQueryEngine>,
        graph: DynamicGraph,
    }

    impl Fixture {
        fn new() -> Self {
            Self::on(DynamicGraph::new(Schema::new()))
        }

        fn on(graph: DynamicGraph) -> Self {
            Fixture {
                index: SharedJoinIndex::new(),
                engines: BTreeMap::new(),
                graph,
            }
        }

        /// Registers `engine` as query `id` and returns the placements.
        fn place(&mut self, id: u64, engine: ContinuousQueryEngine) -> Vec<(QueryId, usize)> {
            self.engines.insert(QueryId(id), engine);
            self.index
                .subscribe(QueryId(id), &self.engines, 0, &self.graph)
        }

        /// Registers the chain query `types` as query `id`.
        fn chain(&mut self, id: u64, types: &[u32], window: Option<u64>) -> Vec<(QueryId, usize)> {
            self.place(id, chain_engine(types, window))
        }

        fn depth(&self, id: u64) -> Option<usize> {
            self.index.subscription_depth(QueryId(id))
        }
    }

    #[test]
    fn first_query_stays_private_until_a_partner_arrives() {
        let mut f = Fixture::new();
        assert_eq!(f.chain(0, &[1, 2], None), vec![(QueryId(0), 0)]);
        assert_eq!(f.index.stats().tables, 0);
        // The partner arrives: a table is created and the private query
        // moves onto it in the same call.
        assert_eq!(
            f.chain(1, &[1, 2], Some(100)),
            vec![(QueryId(1), 2), (QueryId(0), 2)]
        );
        let stats = f.index.stats();
        assert_eq!(stats.tables, 1);
        assert_eq!(stats.subscriptions, 2);
        assert_eq!((f.depth(0), f.depth(1)), (Some(2), Some(2)));
    }

    #[test]
    fn later_queries_attach_to_the_deepest_existing_table() {
        let mut f = Fixture::new();
        f.chain(0, &[1, 2], None);
        f.chain(1, &[1, 2], None);
        // A 3-leaf query whose chain starts with the existing [1, 2] prefix
        // attaches at depth 2 — no new table, nobody moves.
        assert_eq!(f.chain(2, &[1, 2, 3], None), vec![(QueryId(2), 2)]);
        assert_eq!(f.index.stats().tables, 1);
        assert_eq!(f.depth(2), Some(2));
    }

    #[test]
    fn deeper_private_partner_beats_shallower_existing_table() {
        let mut f = Fixture::new();
        // Private [1,2,3], then a [9,8] pair that creates its own table.
        f.chain(0, &[1, 2, 3], None);
        f.chain(1, &[9, 8], None);
        f.chain(2, &[9, 8], None);
        // Query 3's chain [1,2,3] shares depth 3 with private query 0 and
        // nothing with the [9,8] table: a new depth-3 table wins.
        assert_eq!(
            f.chain(3, &[1, 2, 3], None),
            vec![(QueryId(3), 3), (QueryId(0), 3)]
        );
        assert_eq!(f.index.stats().tables, 2);
    }

    #[test]
    fn last_unsubscriber_drops_the_table() {
        let mut f = Fixture::new();
        f.chain(0, &[1, 2], None);
        f.chain(1, &[1, 2], None);
        let index = &mut f.index;
        assert_eq!(index.stats().tables, 1);
        assert!(index.unsubscribe(QueryId(0)));
        assert_eq!(index.stats().tables, 1, "query 1 still holds the table");
        assert!(index.unsubscribe(QueryId(1)));
        let stats = index.stats();
        assert_eq!(stats.tables, 0);
        assert_eq!(stats.subscriptions, 0);
        assert!(!index.unsubscribe(QueryId(1)), "double unsubscribe");
    }

    #[test]
    fn single_leaf_and_vf2_queries_are_not_join_capable() {
        let mut f = Fixture::new();
        assert_eq!(f.chain(0, &[4], None), vec![(QueryId(0), 0)]);
        assert!(!f.index.chains.contains_key(&QueryId(0)));
        let mut q = QueryGraph::new("vf2");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, EdgeType(0));
        q.add_edge(b, c, EdgeType(1));
        let vf2 = ContinuousQueryEngine::new(
            q,
            Strategy::Vf2Baseline,
            &SelectivityEstimator::new(),
            None,
        )
        .unwrap();
        assert_eq!(f.place(1, vf2), vec![(QueryId(1), 0)]);
        assert!(!f.index.chains.contains_key(&QueryId(1)));
    }

    #[test]
    fn nested_chain_forms_a_trie_child() {
        let mut f = Fixture::new();
        f.chain(0, &[1, 2], None);
        f.chain(1, &[1, 2], None);
        // The first [1,2,3] query attaches at the existing [1,2] node...
        assert_eq!(f.chain(2, &[1, 2, 3], None), vec![(QueryId(2), 2)]);
        // ... and its partner materializes the depth-3 node as a trie child
        // of [1,2], re-pointing query 2 from the shallower node.
        assert_eq!(
            f.chain(3, &[1, 2, 3], None),
            vec![(QueryId(3), 3), (QueryId(2), 3)]
        );
        let nodes = f.index.trie_nodes();
        assert_eq!(nodes.len(), 2);
        let (shallow, deep) = (&nodes[0], &nodes[1]);
        assert_eq!(
            (
                shallow.depth,
                shallow.parent_depth,
                shallow.children,
                shallow.subscribers
            ),
            (2, None, 1, 2)
        );
        assert_eq!(
            (
                deep.depth,
                deep.parent_depth,
                deep.children,
                deep.subscribers
            ),
            (3, Some(2), 0, 2)
        );
        assert_eq!(f.index.stats().max_depth, 3);
        // Dropping the deep pair collapses only the child; the parent node
        // keeps serving its own subscribers.
        f.index.unsubscribe(QueryId(2));
        f.index.unsubscribe(QueryId(3));
        let nodes = f.index.trie_nodes();
        assert_eq!(nodes.len(), 1);
        assert_eq!((nodes[0].depth, nodes[0].children), (2, 0));
    }

    #[test]
    fn later_shallow_pair_leaves_the_deep_node_a_root() {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let mut f = Fixture::on(DynamicGraph::new(schema));
        let v: Vec<_> = (0..3).map(|_| f.graph.add_vertex(vt)).collect();
        // The deep pair arrives first: a parentless depth-3 node.
        f.chain(0, &[1, 2, 3], None);
        f.chain(1, &[1, 2, 3], None);
        let nodes = f.index.trie_nodes();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].parent_depth, None);
        // A [1,2] pair arrives later: the depth-2 node materializes as a
        // second root, and the deep node keeps its place.
        assert_eq!(
            f.chain(2, &[1, 2], None),
            vec![(QueryId(2), 0)],
            "a lone depth-2 chain cannot use the deeper node"
        );
        assert_eq!(
            f.chain(3, &[1, 2], None),
            vec![(QueryId(3), 2), (QueryId(2), 2)]
        );
        let nodes = f.index.trie_nodes();
        let shape: Vec<_> = nodes
            .iter()
            .map(|n| (n.depth, n.parent_depth, n.children, n.subscribers))
            .collect();
        assert_eq!(shape, vec![(2, None, 0, 2), (3, None, 0, 2)]);
        assert_eq!(f.index.stats().replays, 0, "no node needed a back-fill");
        // Both roots run their own leading stages: a 1 → 2 pair is a live
        // partial of each, and neither feeds the other.
        for (src, dst, ty) in [(0, 1, 1), (1, 2, 2)] {
            let id = f.graph.add_edge(v[src], v[dst], EdgeType(ty), Timestamp(0));
            let edge = *f.graph.edge(id).unwrap();
            f.index.advance_edge(&f.graph, &edge);
        }
        let nodes = f.index.trie_nodes();
        assert_eq!(nodes[0].live_by_node, vec![1, 1, 0]);
        assert_eq!(nodes[1].live_by_node, vec![1, 1, 0, 1, 0]);
        assert_eq!(f.index.stats().parent_feeds, 0);
        // Each pair leaving drops its own root.
        f.index.unsubscribe(QueryId(0));
        f.index.unsubscribe(QueryId(1));
        assert_eq!(f.index.trie_nodes().len(), 1);
        f.index.unsubscribe(QueryId(2));
        f.index.unsubscribe(QueryId(3));
        assert_eq!(f.index.stats().tables, 0);
    }

    #[test]
    fn deliver_goes_direct_for_full_depth_and_feeds_partial_depth() {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let mut f = Fixture::on(DynamicGraph::new(schema));
        let v: Vec<_> = (0..3).map(|_| f.graph.add_vertex(vt)).collect();
        f.chain(0, &[1, 2], None);
        f.chain(1, &[1, 2], Some(5));
        f.chain(2, &[1, 2, 3], None);
        assert_eq!(f.depth(2), Some(2));

        // 0 -1-> 1 at t=0, then 1 -2-> 2 at t=9: one [1,2] completion,
        // outside query 1's window of 5.
        let mut last = None;
        for (src, dst, ty, ts) in [(0, 1, 1, 0), (1, 2, 2, 9)] {
            let id = f
                .graph
                .add_edge(v[src], v[dst], EdgeType(ty), Timestamp(ts));
            let edge = *f.graph.edge(id).unwrap();
            f.index.advance_edge(&f.graph, &edge);
            last = Some(edge);
        }
        let (edge, index) = (last.unwrap(), &mut f.index);
        let mut sunk: Vec<(QueryId, SubgraphMatch)> = Vec::new();
        let direct = index.deliver(QueryId(0), &edge, &mut sunk);
        assert!(matches!(
            direct,
            JoinDelivery::Complete {
                delivered: 1,
                shared: true
            }
        ));
        assert_eq!(sunk.len(), 1);
        assert_eq!(sunk[0].0, QueryId(0));
        assert_eq!(sunk[0].1.num_edges(), 2);
        assert_eq!(sunk[0].1.time_span(), (Timestamp(0), Timestamp(9)));
        // The narrow twin's window filter runs on the row: nothing reaches
        // its sink, yet it is still a (complete, empty) direct delivery.
        let mut over_window = FnSink(|_, _| panic!("over-window match"));
        let narrow = index.deliver(QueryId(1), &edge, &mut over_window);
        assert!(matches!(
            narrow,
            JoinDelivery::Complete { delivered: 0, .. }
        ));
        // The 3-leaf query rides the same table at partial depth: same row,
        // pulled into a row of its engine's arena (third edge and fourth
        // vertex unbound) at its prefix-covering node, never into the sink.
        let mut partial = FnSink(|_, _| panic!("partial-depth match"));
        match index.deliver(QueryId(2), &edge, &mut partial) {
            JoinDelivery::Engine(Some(mut rows)) => {
                let tree = f.engines[&QueryId(2)].tree().unwrap();
                let (mut store, mut pulled) = (MatchStore::new(tree), Vec::new());
                assert_eq!(rows.depth(), 2);
                assert!(rows.encode_into(&mut store, |row| pulled.push(row)));
                assert_eq!(pulled.len(), 1);
                let node = tree.prefix_root(2);
                store.insert_row(tree, node, pulled[0], None, &mut Vec::new(), None);
                let prefix = &store.decoded_at(node)[0];
                assert_eq!((prefix.num_edges(), prefix.num_vertices()), (2, 3));
                assert_eq!(prefix.time_span(), sunk[0].1.time_span());
            }
            other => panic!("expected prefix rows, got {other:?}"),
        }
        assert!(matches!(
            index.deliver(QueryId(9), &edge, &mut partial),
            JoinDelivery::Engine(None)
        ));
        let stats = index.stats();
        assert_eq!((stats.emissions, stats.deliveries), (1, 2));
    }

    /// Adds an edge of type `ty` between vertices `src` and `dst` at `ts`
    /// and advances the index for it.
    fn feed(
        f: &mut Fixture,
        v: &[VertexId],
        (src, dst, ty, ts): (usize, usize, u32, u64),
    ) -> EdgeData {
        let id = f
            .graph
            .add_edge(v[src], v[dst], EdgeType(ty), Timestamp(ts));
        let edge = *f.graph.edge(id).unwrap();
        f.index.advance_edge(&f.graph, &edge);
        edge
    }

    /// A fixture over a graph of `n` vertices, and those vertices.
    fn with_vertices(n: usize) -> (Fixture, Vec<VertexId>) {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let mut f = Fixture::on(DynamicGraph::new(schema));
        let v = (0..n).map(|_| f.graph.add_vertex(vt)).collect();
        (f, v)
    }

    /// The expiry invariant, edge by edge on a time-ordered stream: once a
    /// windowed table has taken an edge, it holds no row whose earliest
    /// edge is older than `latest − window` — at leaves, at an internal
    /// join node (a parentless depth-3 table), at a consume node (a trie
    /// child, whose parent runs a looser window) — and the counters agree.
    #[test]
    fn windowed_tables_hold_no_row_the_window_has_passed() {
        let (mut f, v) = with_vertices(12);
        f.chain(0, &[1, 2], Some(100));
        f.chain(1, &[1, 2], Some(50));
        f.chain(2, &[1, 2, 3], Some(40));
        f.chain(3, &[1, 2, 3], Some(40));
        f.chain(4, &[4, 5, 6], Some(80));
        f.chain(5, &[4, 5, 6], Some(60));
        let shape: Vec<_> = f
            .index
            .trie_nodes()
            .iter()
            .map(|n| (n.depth, n.parent_depth))
            .collect();
        assert_eq!(shape, vec![(2, None), (3, Some(2)), (3, None)]);
        let (mut state, mut ts) = (7u64, 0u64);
        let mut joined_rows_seen = 0;
        for _ in 0..3_000 {
            let mut draw = |n: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % n
            };
            ts += draw(4);
            let (src, dst) = (draw(12) as usize, draw(12) as usize);
            let edge = feed(&mut f, &v, (src, dst, 1 + draw(6) as u32, ts));
            let latest = f.graph.latest_timestamp().0;
            for entry in f.index.entries.iter().flatten() {
                let tw = entry.window.expect("every table here is windowed");
                if entry.advanced_for == Some(edge.id) {
                    let oldest = entry.store.oldest().map_or(latest, |t| t.0);
                    assert!(
                        oldest >= latest.saturating_sub(tw),
                        "a depth-{} table holds a row from {oldest} at {latest} under window {tw}",
                        entry.depth()
                    );
                }
            }
            joined_rows_seen += f
                .index
                .trie_nodes()
                .iter()
                .filter(|n| n.depth == 3)
                .map(|n| n.live_by_node[3])
                .sum::<usize>();
        }
        assert!(
            joined_rows_seen > 0,
            "no internal or consume node held a row"
        );
        let stats = f.index.stats();
        let live: usize = f
            .index
            .entries
            .iter()
            .flatten()
            .map(|e| e.store.live_rows())
            .sum();
        assert_eq!(stats.live_rows, live);
        assert!(
            stats.rows_expired > 1_000,
            "{} rows expired",
            stats.rows_expired
        );
    }

    /// A table whose window turns from none to some expires the rows it
    /// stored while it had none, at the next edge it takes.
    #[test]
    fn a_window_from_none_to_some_expires_the_rows_stored_without_one() {
        let (mut f, v) = with_vertices(30);
        f.chain(0, &[1, 2], None);
        f.chain(1, &[1, 2], Some(100));
        for i in 0..10 {
            feed(&mut f, &v, (i, i + 10, 1, i as u64));
        }
        assert_eq!(f.index.stats().live_rows, 10);
        f.index.unsubscribe(QueryId(0));
        feed(&mut f, &v, (20, 21, 1, 500));
        let stats = f.index.stats();
        assert_eq!((stats.live_rows, stats.rows_expired), (1, 10));
    }

    #[test]
    fn table_window_is_the_loosest_subscriber_window() {
        let mut f = Fixture::new();
        f.chain(0, &[1, 2], Some(100));
        f.chain(1, &[1, 2], Some(500));
        let idx = f.index.subs[&QueryId(0)];
        let window = |f: &Fixture| f.index.entries[idx].as_ref().unwrap().window;
        assert_eq!(window(&f), Some(500));
        // An unwindowed subscriber makes the table unbounded.
        f.chain(2, &[1, 2], None);
        assert_eq!(window(&f), None);
        // ... and its departure tightens the window again.
        f.index.unsubscribe(QueryId(2));
        assert_eq!(window(&f), Some(500));
    }
}
