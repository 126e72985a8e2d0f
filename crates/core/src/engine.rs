//! The continuous query engine: Algorithms 1–3 of the paper.
//!
//! [`ContinuousQueryEngine`] is constructed once per registered query and
//! invoked once per streaming edge (after the edge has been added to the
//! data graph). Depending on the [`Strategy`] it either:
//!
//! * runs the SJ-Tree search — for each leaf (in selectivity order), perform
//!   an anchored subgraph-isomorphism search around the new edge, insert the
//!   discovered matches into the match store, and let the recursive hash
//!   join propagate larger matches towards the root (Algorithms 1–2). With
//!   Lazy Search enabled, leaves other than the most selective one are only
//!   searched around vertices whose bitmap bit is set, and enabling a bit
//!   triggers a retroactive neighborhood search so that the result does not
//!   depend on the arrival order of the query's components (Algorithm 3).
//!   That loop over the leaves is the only one in the pipeline: under a
//!   registry, sharing is a memo lookup *inside* it — a [`LeafSource`] the
//!   loop pulls each leaf's (or a shared prefix's) rows from once the leaf
//!   has passed the loop's own type filter and gate;
//! * or runs the non-incremental baseline — a full VF2 enumeration of the
//!   query over the current graph, filtered to embeddings that use the new
//!   edge (Section 6's comparison baseline).

use crate::error::EngineError;
use crate::lazy::{LazyBitmap, MAX_LEAVES};
use crate::profile::ProfileCounters;
use crate::strategy::Strategy;
use sp_graph::{DynamicGraph, EdgeData, EdgeType, VertexId};
use sp_iso::{
    find_matches_around_vertex_with, find_matches_containing_edge_with, SearchScratch,
    SubgraphMatch, Vf2Matcher,
};
use sp_query::QueryGraph;
use sp_query::QuerySubgraph;
use sp_selectivity::SelectivityEstimator;
use sp_sjtree::{decompose, InsertTrace, MatchStore, NodeId, RowId, RowLayout, SjTree, StoreStats};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What a [`LeafSource`] did for one leaf the engine's per-edge loop asked
/// it about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Nothing to share — the engine runs the anchored search itself, in its
    /// own numbering.
    Declined,
    /// The source ran the (canonical) search on this engine's behalf and
    /// queued its matches; the search's wall time is charged to this engine.
    Searched(Duration),
    /// The source queued the matches of a search another subscriber of the
    /// same leaf shape already triggered for this edge: this engine's own
    /// search was eliminated by sharing.
    Shared,
}

/// Where the engine's per-edge leaf loop
/// ([`ContinuousQueryEngine::process_edge_into`]) gets rows it need not
/// compute itself. The loop stays the only one: it drops leaves the edge's
/// type cannot match, evaluates the Lazy Search gate, and only then *pulls* —
/// per surviving leaf — from the source, which either answers
/// [`Served::Declined`] or writes the leaf's matches straight into the
/// engine's arena (`store`), in the engine's own numbering, handing each new
/// row to `queue`. The registry's source serves multi-subscriber leaf shapes
/// from its per-edge search memo and a partial-depth shared-join
/// subscriber's prefix rows from its prefix table; [`SearchLocally`] is the
/// source of an engine run on its own.
pub trait LeafSource {
    /// Number of leading leaves (selectivity ranks `0..depth`) a shared
    /// prefix table evaluates on the engine's behalf — searches, inserts and
    /// internal joins: `0` for none, else `2 <= depth < leaves`. The engine
    /// skips those leaves and pulls [`LeafSource::prefix_rows`] instead.
    fn prefix_depth(&self) -> usize {
        0
    }

    /// Writes the prefix-root matches this edge created (those the engine's
    /// window and subscription boundary admit; the suffix slots stay
    /// unbound) into `store` and queues them. Returns whether the table has
    /// other live subscribers, i.e. the prefix work was genuinely
    /// deduplicated. Only called when [`LeafSource::prefix_depth`] is
    /// non-zero.
    fn prefix_rows(&mut self, _store: &mut MatchStore, _queue: impl FnMut(RowId)) -> bool {
        false
    }

    /// Serves the leaf of selectivity rank `rank`, which the edge's type and
    /// the Lazy Search gate both let through.
    fn leaf_rows(
        &mut self,
        _rank: usize,
        _graph: &DynamicGraph,
        _edge: &EdgeData,
        _store: &mut MatchStore,
        _queue: impl FnMut(RowId),
    ) -> Served {
        Served::Declined
    }
}

/// The [`LeafSource`] with nothing to share — the trait's defaults: every
/// leaf is searched by the engine itself. What
/// [`ContinuousQueryEngine::process_edge`] and the rebuild replay run with.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchLocally;

impl LeafSource for SearchLocally {}

/// The retained edges of the given (ascending) types in `(timestamp, id)`
/// order: the deterministic replay order of
/// [`ContinuousQueryEngine::rebuild`] and of the shared join stage's table
/// back-fill. Edges of other types can neither produce a leaf match nor
/// enable a lazy search, exactly as the dispatch index assumes on a live
/// stream.
pub(crate) fn retained_edges(graph: &DynamicGraph, types: &[EdgeType]) -> Vec<EdgeData> {
    let mut edges: Vec<EdgeData> = graph
        .edges()
        .filter(|e| types.binary_search(&e.edge_type).is_ok())
        .copied()
        .collect();
    edges.sort_unstable_by_key(|e| (e.timestamp, e.id));
    edges
}

/// Reusable per-engine buffers for the per-edge hot path. Owned by the
/// engine so every processed edge reuses the capacity the previous edges
/// grew: the anchored-search scratch, the join worklist, the insert trace,
/// and the (rare-path) enablement propagation buffers. The scratch lives as
/// long as the engine and is semantically invisible — every buffer is fully
/// drained or cleared between edges.
#[derive(Debug, Clone, Default)]
struct EngineScratch {
    /// Working state of the anchored subgraph-isomorphism searches.
    search: SearchScratch,
    /// Pending `(tree node, row)` insertions: a found match is encoded into
    /// the store's arena the moment the search visits it, so the queue moves
    /// 16-byte handles. Always empty between edges.
    worklist: VecDeque<(NodeId, RowId)>,
    /// Newly stored matches of one traced insert (Lazy Search enablement),
    /// as a flat node/vertex record — the enablement loop only needs each
    /// new match's bound data vertices. Cleared per worklist item.
    trace: InsertTrace,
    /// One-hop neighbors to propagate enablement to.
    neighbors: Vec<VertexId>,
}

/// Enables search for a leaf around `v`. On a fresh 0→1 transition, performs
/// the retroactive neighborhood probe the paper mandates ("whenever we enable
/// the search on a node in the data graph, we also perform a subgraph search
/// around the node", Section 4), queueing every match it finds as an insert
/// at `leaf`, and returns `true`; returns `false` when the bit was already
/// set (the probe already ran when it was set).
#[allow(clippy::too_many_arguments)]
fn enable_with_probe(
    bitmap: &mut LazyBitmap,
    graph: &DynamicGraph,
    query: &QueryGraph,
    subgraph: &QuerySubgraph,
    v: VertexId,
    (leaf, rank): (NodeId, usize),
    profile: &mut ProfileCounters,
    search: &mut SearchScratch,
    store: &mut MatchStore,
    worklist: &mut VecDeque<(NodeId, RowId)>,
) -> bool {
    if !bitmap.enable(v, rank) {
        return false;
    }
    let t = Instant::now();
    let queued = worklist.len();
    find_matches_around_vertex_with(graph, query, subgraph, v, search, |m| {
        worklist.push_back((leaf, store.encode(m)));
    });
    profile.iso_time += t.elapsed();
    profile.retroactive_searches += 1;
    profile.leaf_matches += (worklist.len() - queued) as u64;
    true
}

/// Structural equality of two query graphs (same vertices with the same
/// type constraints, same edges in the same order): the precondition for
/// swapping one decomposition for another.
fn same_query(a: &QueryGraph, b: &QueryGraph) -> bool {
    a.num_vertices() == b.num_vertices()
        && a.num_edges() == b.num_edges()
        && a.vertices()
            .zip(b.vertices())
            .all(|((_, x), (_, y))| x.vertex_type == y.vertex_type)
        && a.edges()
            .zip(b.edges())
            .all(|(x, y)| x.src == y.src && x.dst == y.dst && x.edge_type == y.edge_type)
}

/// Execution backend: either the SJ-Tree machinery or the VF2 baseline.
/// There is one per registered query and the (larger) SJ-Tree variant is the
/// one on the per-edge path, so it is not boxed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Backend {
    SjTree {
        tree: SjTree,
        store: MatchStore,
        lazy: bool,
        bitmap: LazyBitmap,
    },
    Vf2 {
        matcher: Vf2Matcher,
    },
}

/// A registered continuous query and its runtime state.
#[derive(Debug, Clone)]
pub struct ContinuousQueryEngine {
    query: QueryGraph,
    strategy: Strategy,
    window: Option<u64>,
    backend: Backend,
    profile: ProfileCounters,
    /// Reusable hot-path buffers; semantically invisible (always drained
    /// between edges), kept so steady-state processing is allocation-free.
    scratch: EngineScratch,
}

impl ContinuousQueryEngine {
    /// Builds an engine for `query` under the given strategy.
    ///
    /// * `estimator` supplies the stream statistics used by the selectivity
    ///   driven decomposition (ignored for the VF2 baseline);
    /// * `window` is the time window `tW`: only matches whose edges span less
    ///   than `window` time units are reported, and partial matches older
    ///   than the window are purged. `None` disables windowing.
    pub fn new(
        query: QueryGraph,
        strategy: Strategy,
        estimator: &SelectivityEstimator,
        window: Option<u64>,
    ) -> Result<Self, EngineError> {
        let Some(policy) = strategy.policy() else {
            if !query.is_connected() {
                return Err(EngineError::DisconnectedQuery);
            }
            let matcher = Vf2Matcher::new(query.clone());
            let backend = Backend::Vf2 { matcher };
            return Ok(Self::with_backend(query, strategy, window, backend));
        };
        Self::from_plan(strategy, decompose(&query, policy, estimator)?, window)
    }

    /// Builds an engine from an already planned `(strategy, tree)` pair —
    /// what [`plan_query`](crate::plan_query) returns. The strategy is taken
    /// as given (unlike [`ContinuousQueryEngine::from_tree`], which infers
    /// it from the leaf sizes and would relabel a `PathLazy` plan whose
    /// leaves all came out as single edges).
    ///
    /// # Errors
    /// [`EngineError::RebuildMismatch`] for [`Strategy::Vf2Baseline`], which
    /// has no SJ-Tree; [`EngineError::TooManyLeaves`] when the tree exceeds
    /// the lazy bitmap capacity.
    pub fn from_plan(
        strategy: Strategy,
        tree: SjTree,
        window: Option<u64>,
    ) -> Result<Self, EngineError> {
        if strategy.policy().is_none() {
            return Err(EngineError::RebuildMismatch);
        }
        let query = tree.query().clone();
        let backend = Self::backend_from_tree(tree, strategy.is_lazy())?;
        Ok(Self::with_backend(query, strategy, window, backend))
    }

    fn with_backend(
        query: QueryGraph,
        strategy: Strategy,
        window: Option<u64>,
        backend: Backend,
    ) -> Self {
        Self {
            query,
            strategy,
            window,
            backend,
            profile: ProfileCounters::new(),
            scratch: EngineScratch::default(),
        }
    }

    /// Builds an engine from a pre-built SJ-Tree (used for custom or
    /// ablation decompositions, and to replay a decomposition persisted with
    /// [`SjTree::save`]). `lazy` selects between the track-everything and the
    /// Lazy Search execution of the same tree; the strategy label is
    /// inferred from `lazy` and the leaf sizes.
    pub fn from_tree(tree: SjTree, lazy: bool, window: Option<u64>) -> Result<Self, EngineError> {
        let strategy = match (lazy, tree.leaf_subgraphs().any(|s| s.num_edges() > 1)) {
            (true, true) => Strategy::PathLazy,
            (true, false) => Strategy::SingleLazy,
            (false, true) => Strategy::Path,
            (false, false) => Strategy::Single,
        };
        Self::from_plan(strategy, tree, window)
    }

    fn backend_from_tree(tree: SjTree, lazy: bool) -> Result<Backend, EngineError> {
        if tree.num_leaves() > MAX_LEAVES {
            return Err(EngineError::TooManyLeaves {
                leaves: tree.num_leaves(),
                max: MAX_LEAVES,
            });
        }
        let store = MatchStore::new(&tree);
        Ok(Backend::SjTree {
            tree,
            store,
            lazy,
            bitmap: LazyBitmap::new(),
        })
    }

    /// Total partial matches ever stored by this engine's match store (0 for
    /// the VF2 baseline). Summed across engines, shared-prefix tables and
    /// workers this is the denominator of the allocs-per-stored-match
    /// ceilings in `tests/integration_scratch.rs`.
    pub fn stored_matches(&self) -> u64 {
        match &self.backend {
            Backend::SjTree { store, .. } => store.lifetime_inserted(),
            Backend::Vf2 { .. } => 0,
        }
    }

    /// The query this engine answers.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// The execution strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The time window `tW`, if any.
    pub fn window(&self) -> Option<u64> {
        self.window
    }

    /// The SJ-Tree backing this engine (`None` for the VF2 baseline).
    pub fn tree(&self) -> Option<&SjTree> {
        match &self.backend {
            Backend::SjTree { tree, .. } => Some(tree),
            Backend::Vf2 { .. } => None,
        }
    }

    /// Profiling counters accumulated so far.
    pub fn profile(&self) -> &ProfileCounters {
        &self.profile
    }

    /// Statistics of the partial-match store (`None` for the VF2 baseline).
    pub fn store_stats(&self) -> Option<StoreStats> {
        match &self.backend {
            Backend::SjTree { store, .. } => Some(store.stats()),
            Backend::Vf2 { .. } => None,
        }
    }

    /// The layout of the rows this engine reports its complete matches as:
    /// one slot per edge and vertex of [`ContinuousQueryEngine::query`], in
    /// the query's own numbering.
    pub fn row_layout(&self) -> RowLayout {
        RowLayout::of(&self.query)
    }

    /// Processes one new edge that has already been inserted into `graph`.
    /// Returns the complete query matches created by this edge, i.e.
    /// `M(G^{k+1}) − M(G^k)` of the problem statement — the materializing
    /// adapter over [`ContinuousQueryEngine::process_edge_into`] for
    /// single-engine callers.
    pub fn process_edge(&mut self, graph: &DynamicGraph, edge: &EdgeData) -> Vec<SubgraphMatch> {
        let mut complete = Vec::new();
        self.process_edge_into(graph, edge, &mut SearchLocally, &mut complete);
        self.row_layout().materialize_all(&complete).collect()
    }

    /// Books one dispatched edge whose matches the shared join stage
    /// delivered to the sink directly (the prefix table spans this query's
    /// whole tree, so there was nothing left for the engine to do): the
    /// counters move exactly as if the engine had consumed the same
    /// `delivered` emissions as a feed and reported them itself.
    pub fn record_shared_delivery(&mut self, delivered: u64, shared: bool) {
        self.profile.edges_processed += 1;
        self.profile.shared_join_emissions += delivered;
        if shared {
            self.profile.join_stages_shared += 1;
        }
        self.profile.complete_matches += delivered;
    }

    /// The per-edge entry point, and the only loop over an SJ-Tree's leaves.
    /// Complete matches are appended to the caller-owned `complete` buffer
    /// (cleared first) as rows of [`ContinuousQueryEngine::row_layout`];
    /// whoever delivers them builds each `SubgraphMatch` once, at the sink.
    /// Inside the engine a match is a row from the moment its anchored
    /// search finds it.
    ///
    /// Per leaf, in selectivity order, the engine (1) drops the leaf —
    /// uncounted — when the edge's type is not among the leaf's edge types,
    /// (2) evaluates the Lazy Search gate, and (3) asks `source` for the
    /// leaf's rows ([`LeafSource::leaf_rows`]), running the anchored search
    /// itself when the source answers [`Served::Declined`]. When the
    /// source covers a prefix ([`LeafSource::prefix_depth`]), the leading
    /// leaves **and their internal hash joins** are the shared join stage's:
    /// the engine skips them and seeds its join continuation with the
    /// prefix-root rows it pulls, inserted at the internal node covering the
    /// prefix, so lazy enablement of the next leaf fires exactly as a private
    /// insert would (enablement "moves to emit time"). Whatever the source,
    /// the engine performs all per-engine work itself — lazy enablement
    /// probes, the recursive hash join, windowing — in the same order, so the
    /// reported match multiset does not depend on it.
    ///
    /// The VF2 baseline ignores the source (it has no leaves to share).
    pub fn process_edge_into(
        &mut self,
        graph: &DynamicGraph,
        edge: &EdgeData,
        source: &mut impl LeafSource,
        complete: &mut Vec<u64>,
    ) {
        complete.clear();
        self.profile.edges_processed += 1;
        let window = self.window;
        let layout = self.row_layout();
        match &mut self.backend {
            Backend::Vf2 { matcher } => {
                let t0 = Instant::now();
                // The baseline re-runs full-graph subgraph isomorphism on
                // every edge and keeps the embeddings that use the new edge.
                let all = matcher.find_all(graph);
                self.profile.iso_time += t0.elapsed();
                self.profile.iso_searches += 1;
                for m in all {
                    if m.uses_data_edge(edge.id) && window.is_none_or(|tw| m.within_window(tw)) {
                        layout.write(&m, layout.push_unbound(complete));
                    }
                }
            }
            Backend::SjTree {
                tree,
                store,
                lazy,
                bitmap,
            } => {
                let lazy = *lazy;
                // Work items: (tree node, arena row of a match of that
                // node's subgraph) — leaf matches from the per-edge
                // searches, plus prefix-root rows pulled from the shared
                // join stage. The queue lives in the engine-owned scratch so
                // its capacity persists across edges; it is always drained
                // before this function returns.
                let worklist = &mut self.scratch.worklist;
                debug_assert!(worklist.is_empty());

                let start_rank = source.prefix_depth();
                if start_rank > 0 {
                    debug_assert!(
                        start_rank >= 2 && start_rank < tree.num_leaves(),
                        "a shared prefix the engine continues covers 2..k leaves"
                    );
                    // Seed the join continuation: each emission is an insert
                    // at the internal node covering the prefix leaves,
                    // exactly where the private path would have created it.
                    let prefix_node = tree.prefix_root(start_rank);
                    if source.prefix_rows(store, |row| worklist.push_back((prefix_node, row))) {
                        self.profile.join_stages_shared += 1;
                    }
                    self.profile.shared_join_emissions += worklist.len() as u64;
                }

                for (rank, &leaf) in tree.leaves().iter().enumerate().skip(start_rank) {
                    // An edge whose type the leaf does not contain is part
                    // of none of its matches: no gate, no search, no count.
                    if !tree.leaf_edge_types(rank).contains(&edge.edge_type) {
                        continue;
                    }
                    // The Lazy Search gate.
                    if lazy
                        && rank > 0
                        && !bitmap.is_enabled(edge.src, rank)
                        && !bitmap.is_enabled(edge.dst, rank)
                    {
                        self.profile.searches_skipped += 1;
                        continue;
                    }
                    let subgraph = tree.subgraph(leaf);
                    if lazy && rank > 0 && subgraph.num_edges() > 1 {
                        // Multi-edge leaves need enablement propagation: the
                        // leaf match that will eventually join via an enabled
                        // vertex may contain edges that do not touch that
                        // vertex themselves. The arriving edge could be part
                        // of such a match (its type occurs in the leaf), so
                        // enable the leaf's search on both endpoints — with
                        // the retroactive probe every fresh enablement gets —
                        // and the remaining edges of the match are searched
                        // when they arrive.
                        for v in [edge.src, edge.dst] {
                            enable_with_probe(
                                bitmap,
                                graph,
                                &self.query,
                                subgraph,
                                v,
                                (leaf, rank),
                                &mut self.profile,
                                &mut self.scratch.search,
                                store,
                                worklist,
                            );
                        }
                    }
                    // The per-edge anchored search (the LeafMatcher stage):
                    // pull its result from the source, or run it here.
                    // `iso_searches` counts the searches this query
                    // *logically* performed either way, so per-query
                    // profiles keep their meaning; `leaf_searches_shared` and
                    // the absent `iso_time` record that sharing made one
                    // free.
                    let queued = worklist.len();
                    let pull = |row| worklist.push_back((leaf, row));
                    match source.leaf_rows(rank, graph, edge, store, pull) {
                        Served::Searched(elapsed) => self.profile.iso_time += elapsed,
                        Served::Shared => self.profile.leaf_searches_shared += 1,
                        // Each match the search visits goes from its working
                        // binding straight into an arena row.
                        Served::Declined => {
                            let t0 = Instant::now();
                            find_matches_containing_edge_with(
                                graph,
                                &self.query,
                                subgraph,
                                edge,
                                &mut self.scratch.search,
                                |m| worklist.push_back((leaf, store.encode(m))),
                            );
                            self.profile.iso_time += t0.elapsed();
                        }
                    }
                    self.profile.leaf_matches += (worklist.len() - queued) as u64;
                    self.profile.iso_searches += 1;
                }

                // Insert matches; when Lazy Search is active, every newly
                // created match (leaf or internal) may enable the next leaf's
                // search on its vertices and trigger a retroactive probe for
                // that leaf, which can in turn produce more work items.
                while let Some((node, row)) = worklist.pop_front() {
                    let trace = &mut self.scratch.trace;
                    trace.clear();
                    let t0 = Instant::now();
                    store.insert_row(tree, node, row, window, complete, lazy.then_some(trace));
                    self.profile.update_time += t0.elapsed();

                    for item in 0..self.scratch.trace.len() {
                        let node = self.scratch.trace.node(item);
                        let Some(next_leaf) = tree.next_leaf_to_enable(node) else {
                            continue;
                        };
                        let next_rank = tree
                            .node(next_leaf)
                            .leaf_rank
                            .expect("next_leaf_to_enable returns leaves");
                        let next_subgraph = tree.subgraph(next_leaf);
                        for &dv in self.scratch.trace.vertices(item) {
                            // Retroactive search on every fresh enablement:
                            // the next leaf's matches may already exist around
                            // this vertex (arrival-order robustness,
                            // Section 4).
                            if !enable_with_probe(
                                bitmap,
                                graph,
                                &self.query,
                                next_subgraph,
                                dv,
                                (next_leaf, next_rank),
                                &mut self.profile,
                                &mut self.scratch.search,
                                store,
                                worklist,
                            ) {
                                continue;
                            }
                            // Multi-edge leaves: partially present matches
                            // around this vertex will complete with edges that
                            // do not touch it; propagate enablement one hop
                            // along edges whose type occurs in the leaf so the
                            // completing edge is searched when it arrives.
                            if next_subgraph.num_edges() > 1 {
                                let leaf_types = tree.leaf_edge_types(next_rank);
                                let neighbors = &mut self.scratch.neighbors;
                                neighbors.clear();
                                neighbors.extend(
                                    graph
                                        .incident_edges(dv)
                                        .filter(|inc| leaf_types.contains(&inc.edge_type))
                                        .map(|inc| inc.neighbor),
                                );
                                for ni in 0..self.scratch.neighbors.len() {
                                    enable_with_probe(
                                        bitmap,
                                        graph,
                                        &self.query,
                                        next_subgraph,
                                        self.scratch.neighbors[ni],
                                        (next_leaf, next_rank),
                                        &mut self.profile,
                                        &mut self.scratch.search,
                                        store,
                                        worklist,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        self.profile.complete_matches += (complete.len() / layout.stride()) as u64;
    }

    /// Drops this engine's own partial-match tables for the nodes a shared
    /// join prefix of `depth` leaves now covers
    /// ([`MatchStore::clear_below_prefix`]). Called when a live query
    /// migrates onto a shared prefix table. No-op for the VF2 baseline.
    pub fn clear_prefix_state(&mut self, depth: usize) {
        if let Backend::SjTree { tree, store, .. } = &mut self.backend {
            store.clear_below_prefix(tree, depth.min(tree.num_leaves()));
        }
    }

    /// Drops partial matches that can no longer contribute to a windowed
    /// match and lazy-bitmap rows for vertices that have left the graph.
    /// Returns the number of partial matches removed.
    pub fn purge(&mut self, graph: &DynamicGraph) -> usize {
        let Backend::SjTree { store, bitmap, .. } = &mut self.backend else {
            return 0;
        };
        // Dead-edge and window expiry in one pass over every bucket (the two
        // separate passes walked the whole store twice per maintenance tick).
        let removed = store.purge(graph, graph.latest_timestamp(), self.window);
        self.profile.partial_matches_purged += removed as u64;
        self.profile.note_partial_matches(store.live_rows());
        // The bitmap only grows; shrink it to the live vertex set during the
        // (infrequent) purge.
        if bitmap.num_tracked_vertices() > 2 * graph.num_vertices() {
            bitmap.retain(|v| graph.contains_vertex(v));
        }
        removed
    }

    /// Swaps this engine's decomposition for `tree` under `strategy` without
    /// losing detection state: the fresh leaf and partial-match stores (and
    /// the lazy bitmap) are repopulated by replaying the retained graph in
    /// deterministic `(timestamp, edge id)` order. Because the shared graph
    /// retains edges for at least this engine's window `tW`, every partial
    /// match that can still participate in a future reported match is
    /// reconstructed, so the engine's continuation reports exactly the
    /// match multiset a never-rebuilt engine would — the drift-adaptivity
    /// equivalence tests assert this across strategies and worker counts.
    ///
    /// Complete matches that materialize during the replay are discarded:
    /// each one lies entirely inside the retained (pre-swap) graph, so the
    /// old decomposition already reported it when its last edge arrived.
    ///
    /// Counter accounting: the replay's searches and wall time are charged
    /// to the dedicated [`ProfileCounters::replay_searches`] /
    /// [`ProfileCounters::replay_time`] counters — the ordinary per-stream
    /// counters keep describing the live stream only, so steady-state plan
    /// cost and one-off switching cost stay individually visible — and
    /// [`ProfileCounters::redecompositions`] is incremented.
    ///
    /// # Errors
    /// [`EngineError::RebuildMismatch`] when `strategy` has no SJ-Tree (the
    /// VF2 baseline) or `tree` does not decompose this engine's query;
    /// [`EngineError::TooManyLeaves`] when the tree exceeds the lazy bitmap
    /// capacity.
    pub fn rebuild(
        &mut self,
        strategy: Strategy,
        tree: SjTree,
        graph: &DynamicGraph,
    ) -> Result<(), EngineError> {
        if strategy.policy().is_none() || !same_query(&self.query, tree.query()) {
            return Err(EngineError::RebuildMismatch);
        }
        let edges = retained_edges(graph, tree.edge_types());
        self.backend = Self::backend_from_tree(tree, strategy.is_lazy())?;
        self.strategy = strategy;
        // Swap the live profile out so the replay's work lands on a scratch
        // profile, then fold it into the dedicated replay counters.
        let live = std::mem::take(&mut self.profile);
        let mut discard = Vec::new();
        for e in &edges {
            self.process_edge_into(graph, e, &mut SearchLocally, &mut discard);
        }
        let replay = std::mem::replace(&mut self.profile, live);
        self.profile.replay_searches +=
            replay.iso_searches + replay.retroactive_searches + replay.replay_searches;
        self.profile.replay_time += replay.iso_time + replay.update_time + replay.replay_time;
        self.profile
            .note_partial_matches(replay.peak_partial_matches);
        self.profile.redecompositions += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{EdgeEvent, Schema, Timestamp, VertexId, VertexType};

    /// Schema + estimator for a tiny cyber-like stream where "esp" is rare
    /// and "tcp" is common.
    fn fixture() -> (Schema, SelectivityEstimator) {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let esp = schema.intern_edge_type("esp");
        let mut g = DynamicGraph::new(schema.clone());
        let vs: Vec<_> = (0..20).map(|_| g.add_vertex(vt)).collect();
        for i in 0..15 {
            g.add_edge(vs[i], vs[i + 1], tcp, Timestamp(i as u64));
        }
        g.add_edge(vs[19], vs[0], esp, Timestamp(100));
        (schema, SelectivityEstimator::from_graph(&g))
    }

    fn two_hop_query(schema: &Schema) -> QueryGraph {
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let mut q = QueryGraph::new("esp-tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, esp);
        q.add_edge(b, c, tcp);
        q
    }

    fn run_stream(
        schema: &Schema,
        engine: &mut ContinuousQueryEngine,
        events: &[(u64, u64, &str, u64)],
    ) -> usize {
        let vt = schema.vertex_type("ip").unwrap();
        let mut graph = DynamicGraph::new(schema.clone());
        let mut total = 0;
        for &(s, d, ty, ts) in events {
            let et = schema.edge_type(ty).unwrap();
            let ev = EdgeEvent::homogeneous(s, d, vt, et, Timestamp(ts));
            let src = graph.ensure_vertex(VertexId(ev.src), ev.src_type).unwrap();
            let dst = graph.ensure_vertex(VertexId(ev.dst), ev.dst_type).unwrap();
            let e = graph.add_edge(src, dst, ev.edge_type, ev.timestamp);
            let data = *graph.edge(e).unwrap();
            total += engine.process_edge(&graph, &data).len();
        }
        total
    }

    #[test]
    fn all_strategies_find_the_same_matches_regardless_of_order() {
        let (schema, est) = fixture();
        let q = two_hop_query(&schema);
        // esp edge arrives AFTER the tcp edge it must join with — this is the
        // arrival-order case the retroactive search exists for — plus noise.
        let stream: Vec<(u64, u64, &str, u64)> = vec![
            (10, 11, "tcp", 1),
            (11, 12, "tcp", 2),
            (50, 10, "esp", 3), // completes 50-esp->10-tcp->11
            (12, 13, "tcp", 4),
            (60, 12, "esp", 5), // completes 60-esp->12-tcp->13
        ];
        for strategy in Strategy::ALL {
            let mut engine = ContinuousQueryEngine::new(q.clone(), strategy, &est, None).unwrap();
            let total = run_stream(&schema, &mut engine, &stream);
            assert_eq!(total, 2, "strategy {strategy} found {total} matches");
        }
    }

    #[test]
    fn lazy_reverse_arrival_order_is_still_detected() {
        let (schema, est) = fixture();
        let q = two_hop_query(&schema);
        // The rare esp edge (leaf 0) arrives FIRST; the common tcp edge that
        // completes the pattern arrives later. Then a second pattern where
        // the tcp edge arrives before the esp edge.
        let stream: Vec<(u64, u64, &str, u64)> = vec![
            (1, 2, "esp", 1),
            (2, 3, "tcp", 2), // esp before tcp
            (5, 6, "tcp", 3),
            (4, 5, "esp", 4), // tcp before esp
        ];
        for strategy in [Strategy::SingleLazy, Strategy::PathLazy] {
            let mut engine = ContinuousQueryEngine::new(q.clone(), strategy, &est, None).unwrap();
            let total = run_stream(&schema, &mut engine, &stream);
            assert_eq!(total, 2, "strategy {strategy} missed a match");
        }
    }

    #[test]
    fn window_filters_slow_patterns() {
        let (schema, est) = fixture();
        let q = two_hop_query(&schema);
        let stream: Vec<(u64, u64, &str, u64)> = vec![
            (1, 2, "esp", 0),
            (2, 3, "tcp", 1_000), // 1000 ticks later: outside a 100-tick window
            (4, 5, "esp", 2_000),
            (5, 6, "tcp", 2_050), // inside the window
        ];
        for strategy in Strategy::ALL {
            let mut engine =
                ContinuousQueryEngine::new(q.clone(), strategy, &est, Some(100)).unwrap();
            let total = run_stream(&schema, &mut engine, &stream);
            assert_eq!(total, 1, "strategy {strategy} mishandled the window");
        }
    }

    #[test]
    fn lazy_skips_searches_that_track_everything_performs() {
        let (schema, est) = fixture();
        let q = two_hop_query(&schema);
        // Plenty of tcp noise that never joins an esp edge.
        let mut stream: Vec<(u64, u64, &str, u64)> = Vec::new();
        for i in 0..50u64 {
            stream.push((100 + i, 200 + i, "tcp", i));
        }
        let mut eager =
            ContinuousQueryEngine::new(q.clone(), Strategy::Single, &est, None).unwrap();
        let mut lazy =
            ContinuousQueryEngine::new(q.clone(), Strategy::SingleLazy, &est, None).unwrap();
        assert_eq!(run_stream(&schema, &mut eager, &stream), 0);
        assert_eq!(run_stream(&schema, &mut lazy, &stream), 0);
        // The lazy engine skipped the tcp-leaf searches (nothing enabled) and
        // stored no tcp partial matches; the eager engine tracked them all.
        assert!(lazy.profile().searches_skipped > 0);
        let eager_live = eager.store_stats().unwrap().total_live_matches;
        let lazy_live = lazy.store_stats().unwrap().total_live_matches;
        assert!(
            lazy_live < eager_live,
            "lazy={lazy_live} eager={eager_live}"
        );
    }

    #[test]
    fn from_tree_replays_a_persisted_decomposition() {
        let (schema, est) = fixture();
        let q = two_hop_query(&schema);
        let tree = decompose(&q, sp_sjtree::PrimitivePolicy::SingleEdge, &est).unwrap();
        let json = tree.to_json().unwrap();
        let restored = SjTree::from_json(&json).unwrap();
        let mut engine = ContinuousQueryEngine::from_tree(restored, true, None).unwrap();
        assert_eq!(engine.strategy(), Strategy::SingleLazy);
        let stream = vec![(1u64, 2u64, "esp", 1u64), (2, 3, "tcp", 2)];
        assert_eq!(run_stream(&schema, &mut engine, &stream), 1);
    }

    #[test]
    fn vf2_baseline_requires_connected_query() {
        let (schema, est) = fixture();
        let tcp = schema.edge_type("tcp").unwrap();
        let mut q = QueryGraph::new("disconnected");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        let d = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        q.add_edge(c, d, tcp);
        assert!(matches!(
            ContinuousQueryEngine::new(q, Strategy::Vf2Baseline, &est, None),
            Err(EngineError::DisconnectedQuery)
        ));
    }

    /// Builds a tree over `q` whose leaves are the query's single edges in
    /// the given explicit order (bypassing the selectivity-driven order).
    fn tree_with_leaf_order(q: &QueryGraph, order: &[usize]) -> sp_sjtree::SjTree {
        let leaves = order
            .iter()
            .map(|&i| QuerySubgraph::from_edges(q, [sp_query::QueryEdgeId(i)]))
            .collect();
        sp_sjtree::SjTree::from_leaves(q.clone(), leaves)
    }

    #[test]
    fn rebuild_mid_window_keeps_live_partials_and_reports_once() {
        let (schema, est) = fixture();
        let q = two_hop_query(&schema);
        let vt = schema.vertex_type("ip").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let mut engine =
            ContinuousQueryEngine::new(q.clone(), Strategy::SingleLazy, &est, Some(100)).unwrap();
        let mut graph = DynamicGraph::new(schema.clone());

        // Half the pattern arrives: a live partial match, no report yet.
        let a = graph.ensure_vertex(VertexId(1), vt).unwrap();
        let b = graph.ensure_vertex(VertexId(2), vt).unwrap();
        let e = graph.add_edge(a, b, esp, Timestamp(10));
        let data = *graph.edge(e).unwrap();
        assert!(engine.process_edge(&graph, &data).is_empty());
        assert!(engine.store_stats().unwrap().total_live_matches > 0);

        // The stream drifted: swap in the tree with the flipped leaf order
        // while the partial match is live inside the window.
        let flipped = tree_with_leaf_order(&q, &[1, 0]);
        engine
            .rebuild(Strategy::SingleLazy, flipped, &graph)
            .unwrap();
        assert_eq!(engine.profile().redecompositions, 1);
        // Under the flipped lazy plan the esp leaf is rank 1 and gated off
        // until a tcp match enables it — the replayed store may legitimately
        // be empty; what matters is the continuation below.

        // The completing edge arrives after the swap: exactly one match
        // (rank-0 finds the tcp leaf, the retroactive probe recovers the
        // pre-swap esp edge from the retained graph).
        let c = graph.ensure_vertex(VertexId(3), vt).unwrap();
        let e = graph.add_edge(b, c, tcp, Timestamp(20));
        let data = *graph.edge(e).unwrap();
        assert_eq!(engine.process_edge(&graph, &data).len(), 1);
    }

    #[test]
    fn rebuild_discards_already_reported_matches() {
        let (schema, est) = fixture();
        let q = two_hop_query(&schema);
        let vt = schema.vertex_type("ip").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let mut engine =
            ContinuousQueryEngine::new(q.clone(), Strategy::Single, &est, None).unwrap();
        let mut graph = DynamicGraph::new(schema.clone());
        let mut total = 0usize;
        for (s, d, t, ts) in [(1u64, 2u64, esp, 1u64), (2, 3, tcp, 2)] {
            let sv = graph.ensure_vertex(VertexId(s), vt).unwrap();
            let dv = graph.ensure_vertex(VertexId(d), vt).unwrap();
            let e = graph.add_edge(sv, dv, t, Timestamp(ts));
            let data = *graph.edge(e).unwrap();
            total += engine.process_edge(&graph, &data).len();
        }
        assert_eq!(total, 1);
        let reported_before = engine.profile().complete_matches;

        engine
            .rebuild(Strategy::Single, tree_with_leaf_order(&q, &[1, 0]), &graph)
            .unwrap();
        // The replay rediscovered the completed match internally but must
        // not re-report it (the old decomposition already did).
        assert_eq!(engine.profile().complete_matches, reported_before);
        // An unrelated edge afterwards reports nothing new.
        let x = graph.ensure_vertex(VertexId(50), vt).unwrap();
        let y = graph.ensure_vertex(VertexId(51), vt).unwrap();
        let e = graph.add_edge(x, y, tcp, Timestamp(3));
        let data = *graph.edge(e).unwrap();
        assert!(engine.process_edge(&graph, &data).is_empty());
    }

    #[test]
    fn rebuild_rejects_foreign_trees_and_vf2() {
        let (schema, est) = fixture();
        let q = two_hop_query(&schema);
        let graph = DynamicGraph::new(schema.clone());
        let mut engine =
            ContinuousQueryEngine::new(q.clone(), Strategy::SingleLazy, &est, None).unwrap();
        // A tree over a *different* query is refused.
        let tcp = schema.edge_type("tcp").unwrap();
        let mut other = QueryGraph::new("other");
        let a = other.add_any_vertex();
        let b = other.add_any_vertex();
        other.add_edge(a, b, tcp);
        let foreign = tree_with_leaf_order(&other, &[0]);
        assert!(matches!(
            engine.rebuild(Strategy::SingleLazy, foreign, &graph),
            Err(EngineError::RebuildMismatch)
        ));
        // The VF2 baseline has no SJ-Tree to swap to.
        let own = tree_with_leaf_order(&q, &[0, 1]);
        assert!(matches!(
            engine.rebuild(Strategy::Vf2Baseline, own, &graph),
            Err(EngineError::RebuildMismatch)
        ));
        assert_eq!(engine.profile().redecompositions, 0);
    }

    #[test]
    fn vertex_typed_queries_are_respected() {
        let mut schema = Schema::new();
        let person = schema.intern_vertex_type("person");
        let post = schema.intern_vertex_type("post");
        let likes = schema.intern_edge_type("likes");
        let knows = schema.intern_edge_type("knows");
        let mut g = DynamicGraph::new(schema.clone());
        let p1 = g.add_vertex(person);
        let p2 = g.add_vertex(person);
        let doc = g.add_vertex(post);
        g.add_edge(p1, p2, knows, Timestamp(1));
        g.add_edge(p2, doc, likes, Timestamp(2));
        let est = SelectivityEstimator::from_graph(&g);

        // person -knows-> person -likes-> post
        let mut q = QueryGraph::new("social");
        let a = q.add_vertex(person);
        let b = q.add_vertex(person);
        let c = q.add_vertex(post);
        q.add_edge(a, b, knows);
        q.add_edge(b, c, likes);

        for strategy in Strategy::ALL {
            let mut engine = ContinuousQueryEngine::new(q.clone(), strategy, &est, None).unwrap();
            let mut graph = DynamicGraph::new(schema.clone());
            let a1 = graph.ensure_vertex(VertexId(1), person).unwrap();
            let a2 = graph.ensure_vertex(VertexId(2), person).unwrap();
            let a3 = graph.ensure_vertex(VertexId(3), post).unwrap();
            let a4 = graph.ensure_vertex(VertexId(4), VertexType(99)).unwrap();
            let mut total = 0;
            for (s, d, t, ts) in [
                (a1, a2, knows, 1u64),
                (a2, a3, likes, 2),
                (a2, a4, likes, 3), // likes a non-post vertex: no match
            ] {
                let e = graph.add_edge(s, d, t, Timestamp(ts));
                let data = *graph.edge(e).unwrap();
                total += engine.process_edge(&graph, &data).len();
            }
            assert_eq!(total, 1, "strategy {strategy}");
        }
    }
}
