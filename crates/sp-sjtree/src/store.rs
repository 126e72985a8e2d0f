//! Partial-match storage and the recursive hash-join update
//! (`UPDATE-SJ-TREE`, Algorithm 2).
//!
//! Every SJ-Tree node owns a hash table of the matches of its query subgraph
//! (Property 3). The hash key of a match stored at node `n` is the projection
//! of the match onto the *cut vertices* of `n`'s parent (Property 4), so that
//! probing the sibling's table with the same key yields exactly the partial
//! matches that agree on the shared vertices — a hash join.
//!
//! When a new match is inserted at a node, it is joined with every compatible
//! match of the sibling; each successful join is recursively inserted one
//! level up. A join that reaches the root is a complete match of the query
//! and is returned to the caller instead of being stored.
//!
//! # Two storage backings
//!
//! A store runs in one of two representations:
//!
//! * **Materialized** — buckets hold [`SubgraphMatch`] values directly. For
//!   queries whose matches fit the inline binding maps this is already
//!   allocation-free, and it is the representation callers observe at the
//!   emit boundary.
//! * **Interned** — every stored match is a fixed-width row of `u64` slots
//!   in a store-owned [`RowArena`]: one slot per query edge (slot index =
//!   `QueryEdgeId.0`), one per query vertex (`ew + QueryVertexId.0`), plus
//!   two timestamp words. Buckets hold copyable `u32` row ids; joins read
//!   and write slots at fixed offsets. A join that reaches the root is
//!   reported, never stored, so it never enters the arena: it is built from
//!   its two operand rows straight into the caller's target — a
//!   [`SubgraphMatch`] for a private engine (*copy-on-emit*, [`MatchStore::insert`]),
//!   or a raw [`RowLayout`] row for a shared prefix table, whose consumers
//!   materialize it once, at the sink ([`MatchStore::insert_emit_rows`]).
//!   Matches that spill the inline binding maps (> 8 bindings)
//!   heap-allocate on every clone in the materialized backing — the
//!   interned backing stores them with **zero** steady-state allocations,
//!   because expired rows recycle through the arena free list.
//!
//! Both backings run the identical Algorithm-2 flow (same keys, same
//! per-bucket sort order, same window filter), which the multiset
//! equivalence suites pin down.

use crate::node::NodeId;
use crate::tree::SjTree;
use sp_graph::{DynamicGraph, EdgeId, Timestamp, VertexId};
use sp_iso::{JoinKey, SubgraphMatch, JOIN_KEY_INLINE};
use sp_query::{QueryEdgeId, QueryVertexId};
use std::collections::HashMap;

/// Hash table of materialized matches for one SJ-Tree node, keyed by the
/// projection of each match onto the parent's cut vertices. Keys are
/// interned [`JoinKey`]s — cut sets of up to three vertices (every tree the
/// built-in decompositions produce) are stored inline, so computing the key
/// per insert does not heap-allocate. Every bucket is kept **sorted** (by
/// `SubgraphMatch`'s derived ordering) so duplicate detection on insert is a
/// binary search instead of a linear scan — on a high-fan-in cut vertex a
/// single bucket can hold thousands of partial matches, and the old
/// `bucket.contains(&m)` scan made every insert `O(n)`.
type MatTable = HashMap<JoinKey, Vec<SubgraphMatch>>;

/// Hash table of interned matches for one node: buckets hold arena row ids,
/// sorted by the rows' full-slot lexicographic order (which coincides with
/// the materialized ordering inside a bucket — see [`RowArena::cmp_rows`]).
type RowTable = HashMap<JoinKey, Vec<u32>>;

/// Upper bound on recycled bucket vectors kept in a store's free list. A
/// purge can empty thousands of buckets at once; retaining a bounded pool
/// keeps steady-state inserts allocation-free without pinning a whole
/// window's worth of peak memory forever.
const SPARE_BUCKETS_CAP: usize = 1024;

/// Slot value marking an unbound query edge/vertex in an interned row. Edge
/// ids are dense indices assigned by the graph and can never reach it;
/// vertex ids come from the stream, so the processors reject an event naming
/// vertex `u64::MAX` before it is ingested.
pub const UNBOUND: u64 = u64::MAX;

/// The slot schema of one fixed-width interned row: where the edge, vertex
/// and timestamp words of a row emitted by
/// [`MatchStore::insert_emit_rows`] sit.
///
/// ```text
/// [ edge slots 0..edges ][ vertex slots edges..edges+vertices ][ earliest ][ latest ]
///   slot i = QueryEdgeId(i)   slot edges+j = QueryVertexId(j)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowLayout {
    /// Edge-slot count = the query's edge count.
    pub edges: usize,
    /// Vertex-slot count = the query's vertex count.
    pub vertices: usize,
}

impl RowLayout {
    /// Words per row: the binding slots plus two timestamp words.
    pub fn stride(self) -> usize {
        self.edges + self.vertices + 2
    }

    /// Earliest edge timestamp of a row.
    pub fn earliest(self, row: &[u64]) -> u64 {
        row[self.edges + self.vertices]
    }

    /// Latest edge timestamp of a row.
    pub fn latest(self, row: &[u64]) -> u64 {
        row[self.edges + self.vertices + 1]
    }
}

/// Moves an emptied bucket into the free list, dropping it instead when the
/// pool is full or the bucket never grew.
fn recycle<T>(spare: &mut Vec<Vec<T>>, mut bucket: Vec<T>) {
    if spare.len() < SPARE_BUCKETS_CAP && bucket.capacity() > 0 {
        bucket.clear();
        spare.push(bucket);
    }
}

/// The slab behind an interned [`MatchStore`]: every stored match is one
/// fixed-width row of `stride` consecutive `u64` words in `data`.
///
/// Row layout (slot schema), derived from the query's canonical numbering:
///
/// ```text
/// [ edge slots 0..ew ][ vertex slots ew..ew+vw ][ earliest ][ latest ]
///   slot i = QueryEdgeId(i)   slot ew+j = QueryVertexId(j)
/// ```
///
/// Unbound slots hold [`UNBOUND`]. Rows freed by window expiry, duplicate
/// rejection or emit go on `free` and are reused by the next alloc, so a
/// warm arena grows only while live state grows.
#[derive(Debug, Clone)]
struct RowArena {
    /// Edge-slot count = the query's edge count.
    ew: usize,
    /// Vertex-slot count = the query's vertex count.
    vw: usize,
    /// Words per row: `ew + vw + 2` timestamp words.
    stride: usize,
    data: Vec<u64>,
    /// Recycled row ids.
    free: Vec<u32>,
}

impl RowArena {
    fn new(ew: usize, vw: usize) -> Self {
        Self {
            ew,
            vw,
            stride: ew + vw + 2,
            data: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Claims a row (recycled when possible) with every binding slot reset
    /// to [`UNBOUND`]. Callers overwrite the timestamp words.
    fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(r) => {
                let b = r as usize * self.stride;
                self.data[b..b + self.stride].fill(UNBOUND);
                r
            }
            None => {
                let r = (self.data.len() / self.stride) as u32;
                self.data.resize(self.data.len() + self.stride, UNBOUND);
                r
            }
        }
    }

    /// Returns a row to the free list.
    fn release(&mut self, row: u32) {
        self.free.push(row);
    }

    fn base(&self, row: u32) -> usize {
        row as usize * self.stride
    }

    fn row(&self, row: u32) -> &[u64] {
        let b = self.base(row);
        &self.data[b..b + self.stride]
    }

    fn layout(&self) -> RowLayout {
        RowLayout {
            edges: self.ew,
            vertices: self.vw,
        }
    }

    /// Copies a row of a *prefix* of this arena's query (same canonical
    /// numbering, fewer slots) into a fresh row, slot for slot: the extra
    /// slots stay [`UNBOUND`].
    fn adopt(&mut self, src: &[u64], from: RowLayout) -> u32 {
        debug_assert!(from.edges <= self.ew && from.vertices <= self.vw);
        debug_assert_eq!(src.len(), from.stride());
        let row = self.alloc();
        let b = self.base(row);
        self.data[b..b + from.edges].copy_from_slice(&src[..from.edges]);
        self.data[b + self.ew..b + self.ew + from.vertices]
            .copy_from_slice(&src[from.edges..from.edges + from.vertices]);
        self.data[b + self.ew + self.vw] = from.earliest(src);
        self.data[b + self.ew + self.vw + 1] = from.latest(src);
        row
    }

    /// Encodes a materialized match into a fresh row.
    fn encode(&mut self, m: &SubgraphMatch) -> u32 {
        let row = self.alloc();
        let b = self.base(row);
        for (qe, de) in m.edge_pairs() {
            debug_assert!(qe.0 < self.ew && de.0 != UNBOUND);
            self.data[b + qe.0] = de.0;
        }
        for (qv, dv) in m.vertex_pairs() {
            debug_assert!(qv.0 < self.vw && dv.0 != UNBOUND);
            self.data[b + self.ew + qv.0] = dv.0;
        }
        let (earliest, latest) = m.time_span();
        self.data[b + self.ew + self.vw] = earliest.0;
        self.data[b + self.ew + self.vw + 1] = latest.0;
        row
    }

    /// Materializes binding slots back into caller-visible [`SubgraphMatch`]
    /// form — the copy-on-emit boundary. `edges` / `vertices` yield the edge
    /// and vertex slots of a row (or of the union of two rows) in ascending
    /// index (= ascending query-id) order, so the binding maps are built by
    /// plain appends.
    fn decode_slots(
        edges: impl Iterator<Item = u64>,
        vertices: impl Iterator<Item = u64>,
        earliest: u64,
        latest: u64,
    ) -> SubgraphMatch {
        SubgraphMatch::from_sorted_bindings(
            edges
                .enumerate()
                .filter_map(|(i, v)| (v != UNBOUND).then_some((QueryEdgeId(i), EdgeId(v)))),
            vertices
                .enumerate()
                .filter_map(|(i, v)| (v != UNBOUND).then_some((QueryVertexId(i), VertexId(v)))),
            Timestamp(earliest),
            Timestamp(latest),
        )
    }

    /// Materializes one stored row.
    fn decode(&self, row: u32) -> SubgraphMatch {
        let (ew, slots) = (self.ew, self.ew + self.vw);
        let r = self.row(row);
        Self::decode_slots(
            r[..ew].iter().copied(),
            r[ew..slots].iter().copied(),
            r[slots],
            r[slots + 1],
        )
    }

    /// The bound data vertices of a row in ascending query-vertex order —
    /// what the Lazy Search trace records per newly stored match.
    fn row_vertices(&self, row: u32) -> impl Iterator<Item = VertexId> + '_ {
        let b = self.base(row);
        (0..self.vw).filter_map(move |i| {
            let v = self.data[b + self.ew + i];
            (v != UNBOUND).then_some(VertexId(v))
        })
    }

    /// Projects a row onto the parent's cut vertices as an interned
    /// [`JoinKey`], reading each cut vertex from its fixed slot offset.
    /// Returns `None` when any cut vertex is unbound (mirrors
    /// [`SubgraphMatch::project_key`]).
    fn project_key(&self, row: u32, cut: &[QueryVertexId]) -> Option<JoinKey> {
        let b = self.base(row) + self.ew;
        if cut.len() <= JOIN_KEY_INLINE {
            let mut ids = [VertexId(0); JOIN_KEY_INLINE];
            for (slot, &q) in ids.iter_mut().zip(cut) {
                let v = self.data[b + q.0];
                if v == UNBOUND {
                    return None;
                }
                *slot = VertexId(v);
            }
            Some(JoinKey::Inline(cut.len() as u8, ids))
        } else {
            let mut ids = Vec::with_capacity(cut.len());
            for &q in cut {
                let v = self.data[b + q.0];
                if v == UNBOUND {
                    return None;
                }
                ids.push(VertexId(v));
            }
            Some(JoinKey::Spilled(ids))
        }
    }

    /// Full-row lexicographic comparison. Inside one bucket every row binds
    /// exactly the same slot set (all matches at node `n` are matches of
    /// `subgraph(n)`), so unbound slots compare equal and the order reduces
    /// to data bindings in ascending query-id order followed by the time
    /// span — exactly `SubgraphMatch`'s derived ordering restricted to a
    /// bucket. Dedup and sorted-insert therefore behave identically in both
    /// backings.
    fn cmp_rows(&self, a: u32, b: u32) -> std::cmp::Ordering {
        let (ab, bb) = (self.base(a), self.base(b));
        self.data[ab..ab + self.stride].cmp(&self.data[bb..bb + self.stride])
    }

    /// Whether two rows join, and the joined time span `(earliest, latest)`
    /// if so — the interned mirror of [`SubgraphMatch::compatible_with`]
    /// plus the window filter (applied *before* anything is written, so
    /// rejected joins cost no row traffic):
    ///
    /// * vertex slots bound by both rows must agree;
    /// * the union binding must stay injective (no data vertex at two
    ///   distinct vertex slots);
    /// * no edge slot may be bound by both rows (the decomposition
    ///   partitions query edges) and no data edge may be reused;
    /// * `earliest`/`latest` are the union interval, and with a window `tw`
    ///   the joined span must stay `< tw`.
    fn joinable(&self, a: u32, b: u32, window: Option<u64>) -> Option<(u64, u64)> {
        let (ew, slots) = (self.ew, self.ew + self.vw);
        let (ra, rb) = (self.row(a), self.row(b));
        // The window first: it is two compares, and under a match storm
        // more than half of a hub vertex's sibling rows fail it.
        let earliest = ra[slots].min(rb[slots]);
        let latest = ra[slots + 1].max(rb[slots + 1]);
        if window.is_some_and(|tw| latest.saturating_sub(earliest) >= tw) {
            return None;
        }
        let (ea, va) = ra[..slots].split_at(ew);
        let (eb, vb) = rb[..slots].split_at(ew);
        for (i, (&av, &bv)) in va.iter().zip(vb).enumerate() {
            if av != UNBOUND && bv != UNBOUND && av != bv {
                return None;
            }
            let ui = if av != UNBOUND { av } else { bv };
            if ui != UNBOUND
                && va[..i]
                    .iter()
                    .zip(&vb[..i])
                    .any(|(&aj, &bj)| ui == if aj != UNBOUND { aj } else { bj })
            {
                return None;
            }
        }
        for (&ae, &be) in ea.iter().zip(eb) {
            if ae != UNBOUND && (be != UNBOUND || eb.contains(&ae)) {
                return None;
            }
        }
        Some((earliest, latest))
    }

    /// Joins two rows into a fresh row (the interned mirror of
    /// [`SubgraphMatch::join`]), for joins that are stored one level up.
    fn join_rows(&mut self, a: u32, b: u32, window: Option<u64>) -> Option<u32> {
        let (earliest, latest) = self.joinable(a, b, window)?;
        let out = self.alloc();
        // `alloc` may grow `data`; the row *offsets* stay valid, so index
        // rather than holding slices across it.
        let (ab, bb, ob) = (self.base(a), self.base(b), self.base(out));
        let slots = self.ew + self.vw;
        for i in 0..slots {
            let av = self.data[ab + i];
            self.data[ob + i] = if av != UNBOUND { av } else { self.data[bb + i] };
        }
        self.data[ob + slots] = earliest;
        self.data[ob + slots + 1] = latest;
        Some(out)
    }

    /// Reports the join of two rows into `emit` if they are compatible —
    /// the root-level join, which is never stored: the union is read
    /// straight out of the two operand rows, with no arena row in between.
    fn emit_join(&self, a: u32, b: u32, window: Option<u64>, emit: &mut Emit<'_>) {
        let Some((earliest, latest)) = self.joinable(a, b, window) else {
            return;
        };
        let (ew, slots) = (self.ew, self.ew + self.vw);
        let (ra, rb) = (self.row(a), self.row(b));
        match emit {
            Emit::Matches(out) => out.push(Self::decode_slots(
                union_slots(&ra[..ew], &rb[..ew]),
                union_slots(&ra[ew..slots], &rb[ew..slots]),
                earliest,
                latest,
            )),
            Emit::Rows(out) => {
                out.extend(union_slots(&ra[..slots], &rb[..slots]));
                out.extend([earliest, latest]);
            }
        }
    }
}

/// The binding slots of the union of two (sub)rows that
/// [`RowArena::joinable`] accepted, so bound slots never clash.
fn union_slots<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
    a.iter()
        .zip(b)
        .map(|(&av, &bv)| if av != UNBOUND { av } else { bv })
}

/// Where the joins that reach the root of an interned store are reported.
enum Emit<'a> {
    /// Materialized, one [`SubgraphMatch`] per join (a private engine's
    /// complete matches).
    Matches(&'a mut Vec<SubgraphMatch>),
    /// Appended as raw rows, [`RowLayout::stride`] words per join (a shared
    /// prefix table's emissions).
    Rows(&'a mut Vec<u64>),
}

/// The storage backing of a [`MatchStore`]; see the module docs for the
/// trade-off. Both variants share the `inserted` lifetime counters on the
/// store itself, so conversion preserves every externally visible counter.
#[derive(Debug, Clone)]
enum Backing {
    Materialized {
        tables: Vec<MatTable>,
        /// Free list of emptied bucket vectors (capacity preserved),
        /// refilled by the purge/clear paths and drained by inserts at
        /// previously unseen join keys.
        spare: Vec<Vec<SubgraphMatch>>,
    },
    Interned {
        arena: RowArena,
        tables: Vec<RowTable>,
        spare: Vec<Vec<u32>>,
    },
}

/// The flat, allocation-free record of one recursive insert: which nodes
/// stored a new match, and each new match's bound data vertices in ascending
/// query-vertex order. The Lazy Search engine consumes exactly this (the
/// vertices seed `ENABLE-SEARCH-SIBLING`, Algorithm 3); recording full
/// `SubgraphMatch` clones — as the trace used to — put one allocation per
/// traced insert back on the hot path for spilled (>8-binding) matches.
#[derive(Debug, Clone, Default)]
pub struct InsertTrace {
    /// `(node, start, end)`: one entry per newly stored match, with
    /// `vertices[start..end]` its bound data vertices.
    items: Vec<(NodeId, u32, u32)>,
    vertices: Vec<VertexId>,
}

impl InsertTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the trace, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.items.clear();
        self.vertices.clear();
    }

    /// Number of newly stored matches recorded.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The node the `i`-th recorded match was stored at.
    pub fn node(&self, i: usize) -> NodeId {
        self.items[i].0
    }

    /// The `i`-th recorded match's bound data vertices, in ascending
    /// query-vertex order.
    pub fn vertices(&self, i: usize) -> &[VertexId] {
        let (_, start, end) = self.items[i];
        &self.vertices[start as usize..end as usize]
    }

    fn record(&mut self, node: NodeId, vs: impl Iterator<Item = VertexId>) {
        let start = self.vertices.len() as u32;
        self.vertices.extend(vs);
        self.items.push((node, start, self.vertices.len() as u32));
    }
}

/// Aggregate statistics of a [`MatchStore`], used by the memory/space
/// experiments and by the engine's profiling counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of partial matches currently stored per node (indexed by
    /// [`NodeId`]).
    pub live_matches_per_node: Vec<usize>,
    /// Total number of partial matches currently stored.
    pub total_live_matches: usize,
    /// Total number of matches ever inserted per node (including evicted).
    pub total_inserted_per_node: Vec<u64>,
}

/// Runtime partial-match storage for one SJ-Tree.
///
/// Bucket memory is arena-style in both backings: materialized matches small
/// enough for the inline representation live directly in the bucket vector —
/// dropping a match is a plain `Vec` truncation — while the interned backing
/// stores *every* match (spilled or not) as a fixed-width arena row
/// addressed by a copyable id. Bucket vectors emptied by window expiry are
/// recycled through a bounded free list (`spare`) instead of being freed, so
/// the next insert at a fresh join key reuses their capacity.
#[derive(Debug, Clone)]
pub struct MatchStore {
    backing: Backing,
    inserted: Vec<u64>,
}

impl MatchStore {
    /// Creates an empty **materialized** store shaped for the given tree.
    pub fn new(tree: &SjTree) -> Self {
        Self {
            backing: Backing::Materialized {
                tables: vec![MatTable::new(); tree.num_nodes()],
                spare: Vec::new(),
            },
            inserted: vec![0; tree.num_nodes()],
        }
    }

    /// Creates an empty **interned** store shaped for the given tree: the
    /// row schema is one slot per query edge and vertex of `tree.query()`.
    pub fn new_interned(tree: &SjTree) -> Self {
        let q = tree.query();
        Self {
            backing: Backing::Interned {
                arena: RowArena::new(q.num_edges(), q.num_vertices()),
                tables: vec![RowTable::new(); tree.num_nodes()],
                spare: Vec::new(),
            },
            inserted: vec![0; tree.num_nodes()],
        }
    }

    /// `true` when matches are stored as interned arena rows.
    pub fn is_interned(&self) -> bool {
        matches!(self.backing, Backing::Interned { .. })
    }

    /// Converts the store between backings **in place**, preserving every
    /// stored match, every join key and the per-bucket order (row order and
    /// match order coincide inside a bucket — `RowArena::cmp_rows`), so a
    /// live engine can switch representations mid-stream without replay.
    /// The lifetime-inserted counters are untouched. A no-op when the store
    /// is already in the requested backing.
    pub fn set_interning(&mut self, tree: &SjTree, enabled: bool) {
        if enabled == self.is_interned() {
            return;
        }
        if enabled {
            let Backing::Materialized { tables, .. } = &mut self.backing else {
                unreachable!("checked above");
            };
            let q = tree.query();
            let mut arena = RowArena::new(q.num_edges(), q.num_vertices());
            let new_tables: Vec<RowTable> = tables
                .iter_mut()
                .map(|t| {
                    t.drain()
                        .map(|(k, bucket)| (k, bucket.iter().map(|m| arena.encode(m)).collect()))
                        .collect()
                })
                .collect();
            self.backing = Backing::Interned {
                arena,
                tables: new_tables,
                spare: Vec::new(),
            };
        } else {
            let Backing::Interned { arena, tables, .. } = &mut self.backing else {
                unreachable!("checked above");
            };
            let new_tables: Vec<MatTable> = tables
                .iter_mut()
                .map(|t| {
                    t.drain()
                        .map(|(k, bucket)| (k, bucket.iter().map(|&r| arena.decode(r)).collect()))
                        .collect()
                })
                .collect();
            self.backing = Backing::Materialized {
                tables: new_tables,
                spare: Vec::new(),
            };
        }
    }

    /// Number of recycled bucket vectors currently in the free list.
    pub fn spare_buckets(&self) -> usize {
        match &self.backing {
            Backing::Materialized { spare, .. } => spare.len(),
            Backing::Interned { spare, .. } => spare.len(),
        }
    }

    /// Drops the recycled-bucket free list (the `scratch reuse off`
    /// measurement arm; steady-state operation never calls this). In the
    /// interned backing the arena's row free list is dropped too.
    pub fn release_spare(&mut self) {
        match &mut self.backing {
            Backing::Materialized { spare, .. } => *spare = Vec::new(),
            Backing::Interned { spare, arena, .. } => {
                *spare = Vec::new();
                arena.free = Vec::new();
            }
        }
    }

    /// Inserts a match of `node`'s subgraph, performing the recursive hash
    /// join of Algorithm 2. Complete matches (joins that reach the root) are
    /// appended to `complete`.
    ///
    /// `window`: when `Some(tw)`, joined matches whose edge timestamps span
    /// an interval ≥ `tw` are discarded (the problem statement requires
    /// τ(g) < tW for reported matches).
    ///
    /// Duplicate inserts (the same match already present at the node) are
    /// ignored; the lazy strategy's retroactive searches can legitimately
    /// rediscover a match that the per-edge search already found.
    pub fn insert(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        m: SubgraphMatch,
        window: Option<u64>,
        complete: &mut Vec<SubgraphMatch>,
    ) {
        self.insert_inner(tree, node, m, window, complete, None);
    }

    /// Like [`MatchStore::insert`], but additionally records every newly
    /// stored match (node + bound data vertices) in `trace` — the inserted
    /// leaf match and every intermediate join. The Lazy Search engine uses
    /// the trace to decide which vertices to enable the next leaf's search
    /// on (`ENABLE-SEARCH-SIBLING`, Algorithm 3). The trace is **appended
    /// to**, not cleared.
    pub fn insert_traced(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        m: SubgraphMatch,
        window: Option<u64>,
        complete: &mut Vec<SubgraphMatch>,
        trace: &mut InsertTrace,
    ) {
        self.insert_inner(tree, node, m, window, complete, Some(trace));
    }

    /// The entry point behind both insert flavours: handles the single-node
    /// (root) case, then dispatches to the backing-specific recursion. In
    /// the interned backing the match is encoded into the arena exactly
    /// once, here; every recursive step above works on row ids.
    fn insert_inner(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        m: SubgraphMatch,
        window: Option<u64>,
        complete: &mut Vec<SubgraphMatch>,
        trace: Option<&mut InsertTrace>,
    ) {
        // A single-node tree: the leaf *is* the query. The window constraint
        // still applies (τ(g) < tW).
        if node == tree.root() {
            if window.is_none_or(|tw| m.within_window(tw)) {
                complete.push(m);
            }
            return;
        }
        match &mut self.backing {
            Backing::Materialized { tables, spare } => insert_mat(
                tables,
                spare,
                &mut self.inserted,
                tree,
                node,
                m,
                window,
                complete,
                trace,
            ),
            Backing::Interned {
                arena,
                tables,
                spare,
            } => {
                let row = arena.encode(&m);
                insert_rows(
                    arena,
                    tables,
                    spare,
                    &mut self.inserted,
                    tree,
                    node,
                    row,
                    window,
                    &mut Emit::Matches(complete),
                    trace,
                );
            }
        }
    }

    /// The row schema of an interned store (`None` for the materialized
    /// backing): the layout of the rows [`MatchStore::insert_emit_rows`]
    /// reports.
    pub fn row_layout(&self) -> Option<RowLayout> {
        match &self.backing {
            Backing::Materialized { .. } => None,
            Backing::Interned { arena, .. } => Some(arena.layout()),
        }
    }

    /// [`MatchStore::insert`] for a store whose root joins are consumed as
    /// rows: every join that reaches the root is appended to `rows` as
    /// [`RowLayout::stride`] raw words instead of being materialized. The
    /// shared join stage runs its prefix tables through this, so a
    /// prefix-root match is a `SubgraphMatch` only once, at the sink.
    ///
    /// # Panics
    /// Panics when the store is not interned.
    pub fn insert_emit_rows(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        m: SubgraphMatch,
        window: Option<u64>,
        rows: &mut Vec<u64>,
    ) {
        self.insert_row_with(tree, node, window, rows, |arena| arena.encode(&m));
    }

    /// Like [`MatchStore::insert_emit_rows`], for a match that already is a
    /// row — of a store over a *prefix* of this store's query (`from` is
    /// that store's layout; canonical ids line up by prefix-closure). The
    /// row is copied slot for slot; nothing is materialized. This is how a
    /// trie child of the shared join stage consumes its parent's emissions.
    ///
    /// # Panics
    /// Panics when the store is not interned.
    pub fn insert_row_emit_rows(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        src: &[u64],
        from: RowLayout,
        window: Option<u64>,
        rows: &mut Vec<u64>,
    ) {
        self.insert_row_with(tree, node, window, rows, |arena| arena.adopt(src, from));
    }

    fn insert_row_with(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        window: Option<u64>,
        rows: &mut Vec<u64>,
        make_row: impl FnOnce(&mut RowArena) -> u32,
    ) {
        let Backing::Interned {
            arena,
            tables,
            spare,
        } = &mut self.backing
        else {
            panic!("row emission requires the interned backing");
        };
        let row = make_row(arena);
        if node == tree.root() {
            // A single-node tree: the inserted match is the emission.
            let (words, layout) = (arena.row(row), arena.layout());
            if window
                .is_none_or(|tw| layout.latest(words).saturating_sub(layout.earliest(words)) < tw)
            {
                rows.extend_from_slice(words);
            }
            arena.release(row);
            return;
        }
        insert_rows(
            arena,
            tables,
            spare,
            &mut self.inserted,
            tree,
            node,
            row,
            window,
            &mut Emit::Rows(rows),
            None,
        );
    }

    /// Number of partial matches currently stored at a node.
    pub fn live_matches(&self, node: NodeId) -> usize {
        match &self.backing {
            Backing::Materialized { tables, .. } => tables[node.0].values().map(Vec::len).sum(),
            Backing::Interned { tables, .. } => tables[node.0].values().map(Vec::len).sum(),
        }
    }

    /// Total matches ever inserted at a node.
    pub fn total_inserted(&self, node: NodeId) -> u64 {
        self.inserted[node.0]
    }

    /// Total matches ever inserted across all nodes (the per-edge delta of
    /// this is what the shared join stage reports as deduplicated insert
    /// work, and the denominator of the soak's `alloc.allocs_per_match`).
    pub fn lifetime_inserted(&self) -> u64 {
        self.inserted.iter().sum()
    }

    /// Iterates over the matches stored at a node.
    ///
    /// Only available on the materialized backing (the interned rows have no
    /// `SubgraphMatch` to borrow); use
    /// [`MatchStore::collect_matches_at`] for a backing-agnostic snapshot.
    ///
    /// # Panics
    /// Panics when the store is interned.
    pub fn matches_at(&self, node: NodeId) -> impl Iterator<Item = &SubgraphMatch> + '_ {
        let Backing::Materialized { tables, .. } = &self.backing else {
            panic!("matches_at requires the materialized backing");
        };
        tables[node.0].values().flat_map(|v| v.iter())
    }

    /// Decoded copies of the matches stored at a node, in bucket-iteration
    /// order. Works for both backings (test/diagnostic helper — it
    /// materializes every match).
    pub fn collect_matches_at(&self, node: NodeId) -> Vec<SubgraphMatch> {
        match &self.backing {
            Backing::Materialized { tables, .. } => {
                tables[node.0].values().flatten().cloned().collect()
            }
            Backing::Interned { arena, tables, .. } => tables[node.0]
                .values()
                .flatten()
                .map(|&r| arena.decode(r))
                .collect(),
        }
    }

    /// Single-pass maintenance: removes every stored partial match that is
    /// dead (references an edge expired out of the data graph) **or**, when
    /// `window` is `Some(tw)`, expired (its earliest edge is older than
    /// `latest - tw`, so any future join already spans the window). Walks
    /// every bucket exactly once — the engine's periodic purge used to call
    /// [`MatchStore::purge_dead`] and [`MatchStore::purge_expired`] back to
    /// back, touching every bucket twice. Returns the number removed.
    pub fn purge(&mut self, graph: &DynamicGraph, latest: Timestamp, window: Option<u64>) -> usize {
        let cutoff = window.map(|tw| latest.0.saturating_sub(tw));
        // The expiry check runs first — it is a field read, while liveness
        // probes the graph per matched edge.
        self.retain_matches(
            |m| cutoff.is_none_or(|c| m.earliest().0 >= c) && m.is_live(graph),
            |row, layout| {
                cutoff.is_none_or(|c| layout.earliest(row) >= c)
                    && row[..layout.edges]
                        .iter()
                        .all(|&e| e == UNBOUND || graph.contains_edge(EdgeId(e)))
            },
        )
    }

    /// Removes every stored partial match that can no longer participate in a
    /// windowed complete match: a partial match whose earliest edge is older
    /// than `latest - window` already spans at least the window by the time
    /// any future edge (with timestamp ≥ `latest`) could join it.
    /// Returns the number of matches removed.
    pub fn purge_expired(&mut self, latest: Timestamp, window: u64) -> usize {
        let cutoff = latest.0.saturating_sub(window);
        self.retain_matches(
            |m| m.earliest().0 >= cutoff,
            |row, layout| layout.earliest(row) >= cutoff,
        )
    }

    /// Removes every stored partial match that references an edge that has
    /// been expired out of the data graph. Returns the number removed.
    pub fn purge_dead(&mut self, graph: &DynamicGraph) -> usize {
        self.retain_matches(
            |m| m.is_live(graph),
            |row, layout| {
                row[..layout.edges]
                    .iter()
                    .all(|&e| e == UNBOUND || graph.contains_edge(EdgeId(e)))
            },
        )
    }

    /// One walk over every bucket keeping only matches that satisfy the
    /// backing-appropriate predicate (`keep_m` sees a materialized match,
    /// `keep_row` a raw row slice plus its layout); the single
    /// implementation behind every purge flavour. `retain` preserves
    /// relative order, so the sorted-bucket invariant survives. Removed
    /// interned rows go back to the arena free list. Returns the number of
    /// matches removed.
    fn retain_matches(
        &mut self,
        keep_m: impl Fn(&SubgraphMatch) -> bool,
        keep_row: impl Fn(&[u64], RowLayout) -> bool,
    ) -> usize {
        let mut removed = 0;
        match &mut self.backing {
            Backing::Materialized { tables, spare } => {
                for table in tables {
                    for bucket in table.values_mut() {
                        let before = bucket.len();
                        bucket.retain(&keep_m);
                        removed += before - bucket.len();
                    }
                    // Emptied buckets leave the table but their capacity
                    // goes to the free list — window expiry returns memory
                    // to the store, not the allocator.
                    table.retain(|_, bucket| {
                        if bucket.is_empty() {
                            recycle(spare, std::mem::take(bucket));
                            false
                        } else {
                            true
                        }
                    });
                }
            }
            Backing::Interned {
                arena,
                tables,
                spare,
            } => {
                // Split the arena so the predicate can read `data` while
                // removed rows push onto `free`.
                let (layout, stride) = (arena.layout(), arena.stride);
                let RowArena { data, free, .. } = arena;
                for table in tables {
                    for bucket in table.values_mut() {
                        let before = bucket.len();
                        bucket.retain(|&r| {
                            let b = r as usize * stride;
                            if keep_row(&data[b..b + stride], layout) {
                                true
                            } else {
                                free.push(r);
                                false
                            }
                        });
                        removed += before - bucket.len();
                    }
                    table.retain(|_, bucket| {
                        if bucket.is_empty() {
                            recycle(spare, std::mem::take(bucket));
                            false
                        } else {
                            true
                        }
                    });
                }
            }
        }
        removed
    }

    /// Clears every table, recycling every bucket vector (and, interned,
    /// resetting the whole arena — no live rows remain, so the slab restarts
    /// empty with its capacity preserved).
    pub fn clear(&mut self) {
        match &mut self.backing {
            Backing::Materialized { tables, spare } => {
                for table in tables {
                    for (_, bucket) in table.drain() {
                        recycle(spare, bucket);
                    }
                }
            }
            Backing::Interned {
                arena,
                tables,
                spare,
            } => {
                for table in tables {
                    for (_, bucket) in table.drain() {
                        recycle(spare, bucket);
                    }
                }
                arena.data.clear();
                arena.free.clear();
            }
        }
    }

    /// Clears the table of one node, leaving its lifetime-inserted counter
    /// intact. The shared join stage uses this when a query's prefix state
    /// migrates into a registry-owned canonical table: the engine's own
    /// tables for the prefix-covered nodes become redundant (the canonical
    /// table is repopulated by replaying the retained graph) and would
    /// otherwise linger until window expiry.
    pub fn clear_node(&mut self, node: NodeId) {
        match &mut self.backing {
            Backing::Materialized { tables, spare } => {
                for (_, bucket) in tables[node.0].drain() {
                    recycle(spare, bucket);
                }
            }
            Backing::Interned {
                arena,
                tables,
                spare,
            } => {
                for (_, bucket) in tables[node.0].drain() {
                    for &r in &bucket {
                        arena.release(r);
                    }
                    recycle(spare, bucket);
                }
            }
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        let live_matches_per_node: Vec<usize> = (0..self.inserted.len())
            .map(|n| self.live_matches(NodeId(n)))
            .collect();
        StoreStats {
            total_live_matches: live_matches_per_node.iter().sum(),
            live_matches_per_node,
            total_inserted_per_node: self.inserted.clone(),
        }
    }
}

/// The recursive update over the materialized backing. The trace is
/// optional so the untraced path (single-edge strategies and the shared
/// join stage's per-edge feed, i.e. the steady-state hot path) never
/// materialises a trace. Join results are accumulated into a vector drawn
/// from the bucket free list and recycled afterwards, so a warm store
/// performs the whole recursive update without touching the allocator (for
/// inline-width matches).
#[allow(clippy::too_many_arguments)]
fn insert_mat(
    tables: &mut [MatTable],
    spare: &mut Vec<Vec<SubgraphMatch>>,
    inserted: &mut [u64],
    tree: &SjTree,
    node: NodeId,
    m: SubgraphMatch,
    window: Option<u64>,
    complete: &mut Vec<SubgraphMatch>,
    mut trace: Option<&mut InsertTrace>,
) {
    let parent = tree.parent(node).expect("non-root node has a parent");
    let sibling = tree.sibling(node).expect("non-root node has a sibling");
    let cut = &tree.node(parent).cut_vertices;
    let Some(key) = m.project_key(cut) else {
        // The match does not bind all cut vertices; this cannot happen
        // for leaf matches produced by the anchored matcher (leaves bind
        // every vertex of their subgraph), so treat it as a no-op.
        return;
    };

    // Deduplicate: buckets are sorted, so membership is O(log n). The
    // failed search also yields the position that keeps the bucket
    // sorted when the match is stored below. A miss on the key itself
    // claims a recycled bucket vector from the free list up front.
    let (insert_at, recycled) = match tables[node.0].get(&key) {
        Some(bucket) => match bucket.binary_search(&m) {
            Ok(_) => return,
            Err(pos) => (pos, None),
        },
        None => (0, Some(spare.pop().unwrap_or_default())),
    };

    // Probe the sibling's table with the same key and join (lines 4-7 of
    // Algorithm 2). The accumulator comes from the recycled-bucket free
    // list: a freshly collected vector here would put one heap
    // allocation on every joining insert.
    let mut joined = spare.pop().unwrap_or_default();
    if let Some(bucket) = tables[sibling.0].get(&key) {
        joined.extend(
            bucket
                .iter()
                .filter_map(|ms| m.join(ms))
                .filter(|j| window.is_none_or(|tw| j.within_window(tw))),
        );
    }

    // Store the new match at this node (line 12), preserving the sorted
    // bucket invariant.
    let bucket = match recycled {
        Some(fresh) => tables[node.0].entry(key).or_insert(fresh),
        None => tables[node.0]
            .get_mut(&key)
            .expect("bucket existed at the dedup probe above"),
    };
    inserted[node.0] += 1;
    if let Some(t) = trace.as_deref_mut() {
        t.record(node, m.vertex_pairs().map(|(_, dv)| dv));
    }
    bucket.insert(insert_at, m);

    // Push successful joins up the tree (lines 8-11).
    for msup in joined.drain(..) {
        if parent == tree.root() {
            complete.push(msup);
        } else {
            insert_mat(
                tables,
                spare,
                inserted,
                tree,
                parent,
                msup,
                window,
                complete,
                trace.as_deref_mut(),
            );
        }
    }
    recycle(spare, joined);
}

/// The recursive update over the interned backing: identical control flow
/// to [`insert_mat`], but every probe, key projection, dedup comparison and
/// join works on fixed-width arena rows addressed by copyable ids. A join
/// that reaches the root goes straight from its two operand rows into
/// `emit` ([`RowArena::emit_join`]) — the copy-on-emit boundary; everything
/// below the root moves **zero** match bytes through the allocator, spilled
/// or not.
#[allow(clippy::too_many_arguments)]
fn insert_rows(
    arena: &mut RowArena,
    tables: &mut [RowTable],
    spare: &mut Vec<Vec<u32>>,
    inserted: &mut [u64],
    tree: &SjTree,
    node: NodeId,
    row: u32,
    window: Option<u64>,
    emit: &mut Emit<'_>,
    mut trace: Option<&mut InsertTrace>,
) {
    let parent = tree.parent(node).expect("non-root node has a parent");
    let sibling = tree.sibling(node).expect("non-root node has a sibling");
    let cut = &tree.node(parent).cut_vertices;
    let Some(key) = arena.project_key(row, cut) else {
        arena.release(row);
        return;
    };

    let (insert_at, recycled) = match tables[node.0].get(&key) {
        Some(bucket) => match bucket.binary_search_by(|&r| arena.cmp_rows(r, row)) {
            Ok(_) => {
                // Duplicate: the row never entered a table, recycle it.
                arena.release(row);
                return;
            }
            Err(pos) => (pos, None),
        },
        None => (0, Some(spare.pop().unwrap_or_default())),
    };

    // Sibling probe: failed joins (incompatible or out-of-window) are
    // rejected before any row is allocated, so only *stored* joins ever
    // touch the arena; root joins are reported in place.
    let at_root = parent == tree.root();
    let mut joined = if at_root {
        Vec::new()
    } else {
        spare.pop().unwrap_or_default()
    };
    if let Some(bucket) = tables[sibling.0].get(&key) {
        for &other in bucket {
            if at_root {
                arena.emit_join(row, other, window, emit);
            } else if let Some(j) = arena.join_rows(row, other, window) {
                joined.push(j);
            }
        }
    }

    let bucket = match recycled {
        Some(fresh) => tables[node.0].entry(key).or_insert(fresh),
        None => tables[node.0]
            .get_mut(&key)
            .expect("bucket existed at the dedup probe above"),
    };
    inserted[node.0] += 1;
    if let Some(t) = trace.as_deref_mut() {
        t.record(node, arena.row_vertices(row));
    }
    bucket.insert(insert_at, row);

    for j in joined.drain(..) {
        insert_rows(
            arena,
            tables,
            spare,
            inserted,
            tree,
            parent,
            j,
            window,
            emit,
            trace.as_deref_mut(),
        );
    }
    recycle(spare, joined);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{EdgeId, EdgeType, VertexId};
    use sp_query::{QueryEdgeId, QueryGraph, QuerySubgraph, QueryVertexId};

    /// Query: v0 -t0-> v1 -t1-> v2, decomposed into two single-edge leaves
    /// (leaf 0 = edge 0, leaf 1 = edge 1).
    fn two_leaf_tree() -> SjTree {
        let mut q = QueryGraph::new("p2");
        let v: Vec<_> = (0..3).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], EdgeType(0));
        q.add_edge(v[1], v[2], EdgeType(1));
        let leaves = vec![
            QuerySubgraph::from_edges(&q, [QueryEdgeId(0)]),
            QuerySubgraph::from_edges(&q, [QueryEdgeId(1)]),
        ];
        SjTree::from_leaves(q, leaves)
    }

    /// A leaf-0 match binding v0->a, v1->b via data edge e.
    fn leaf0_match(a: u64, b: u64, e: u64, ts: u64) -> SubgraphMatch {
        let mut m = SubgraphMatch::new();
        assert!(m.bind_vertex(QueryVertexId(0), VertexId(a)));
        assert!(m.bind_vertex(QueryVertexId(1), VertexId(b)));
        assert!(m.bind_edge(QueryEdgeId(0), EdgeId(e), Timestamp(ts)));
        m
    }

    /// A leaf-1 match binding v1->b, v2->c via data edge e.
    fn leaf1_match(b: u64, c: u64, e: u64, ts: u64) -> SubgraphMatch {
        let mut m = SubgraphMatch::new();
        assert!(m.bind_vertex(QueryVertexId(1), VertexId(b)));
        assert!(m.bind_vertex(QueryVertexId(2), VertexId(c)));
        assert!(m.bind_edge(QueryEdgeId(1), EdgeId(e), Timestamp(ts)));
        m
    }

    #[test]
    fn join_through_root_emits_complete_match() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        assert!(complete.is_empty());
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 101, 2),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[0].num_edges(), 2);
        assert_eq!(
            complete[0].data_vertex(QueryVertexId(2)),
            Some(VertexId(12))
        );
    }

    #[test]
    fn join_requires_matching_cut_vertex() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        // leaf-1 match whose v1 binding (20) differs from the stored 11.
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(20, 21, 101, 2),
            None,
            &mut complete,
        );
        assert!(complete.is_empty());
        assert_eq!(store.live_matches(tree.leaf(0)), 1);
        assert_eq!(store.live_matches(tree.leaf(1)), 1);
    }

    #[test]
    fn arrival_order_does_not_matter_for_the_join() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 101, 2),
            None,
            &mut complete,
        );
        assert!(complete.is_empty());
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), 1);
    }

    #[test]
    fn window_filters_slow_matches() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 0),
            Some(50),
            &mut complete,
        );
        // Second edge arrives 100 ticks later: τ = 100 ≥ 50, rejected.
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 101, 100),
            Some(50),
            &mut complete,
        );
        assert!(complete.is_empty());
        // Within the window it is accepted.
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 102, 30),
            Some(50),
            &mut complete,
        );
        assert_eq!(complete.len(), 1);
    }

    #[test]
    fn duplicate_inserts_are_ignored() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        assert_eq!(store.live_matches(tree.leaf(0)), 1);
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 101, 2),
            None,
            &mut complete,
        );
        assert_eq!(
            complete.len(),
            1,
            "duplicate leaf matches must not double-report"
        );
    }

    #[test]
    fn one_to_many_joins_produce_all_combinations() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        // Three leaf-1 matches sharing the cut vertex 11.
        for (i, c) in [(0u64, 12u64), (1, 13), (2, 14)] {
            store.insert(
                &tree,
                tree.leaf(1),
                leaf1_match(11, c, 200 + i, 2),
                None,
                &mut complete,
            );
        }
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), 3);
    }

    #[test]
    fn single_node_tree_reports_immediately() {
        let mut q = QueryGraph::new("one");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        q.add_edge(a, b, EdgeType(0));
        let tree =
            SjTree::from_leaves(q.clone(), vec![QuerySubgraph::from_edges(&q, q.edge_ids())]);
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.root(),
            leaf0_match(1, 2, 3, 0),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), 1);
        assert_eq!(store.stats().total_live_matches, 0);
    }

    #[test]
    fn three_leaf_tree_joins_recursively() {
        // Query: v0 -t0-> v1 -t1-> v2 -t2-> v3, three single-edge leaves.
        let mut q = QueryGraph::new("p3");
        let v: Vec<_> = (0..4).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], EdgeType(0));
        q.add_edge(v[1], v[2], EdgeType(1));
        q.add_edge(v[2], v[3], EdgeType(2));
        let leaves = (0..3)
            .map(|i| QuerySubgraph::from_edges(&q, [QueryEdgeId(i)]))
            .collect();
        let tree = SjTree::from_leaves(q, leaves);
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();

        let m0 = leaf0_match(10, 11, 100, 1);
        let m1 = leaf1_match(11, 12, 101, 2);
        let mut m2 = SubgraphMatch::new();
        m2.bind_vertex(QueryVertexId(2), VertexId(12));
        m2.bind_vertex(QueryVertexId(3), VertexId(13));
        m2.bind_edge(QueryEdgeId(2), EdgeId(102), Timestamp(3));

        store.insert(&tree, tree.leaf(0), m0, None, &mut complete);
        store.insert(&tree, tree.leaf(1), m1, None, &mut complete);
        assert!(complete.is_empty());
        // The intermediate join (leaves 0+1) is stored at the internal node.
        let internal = tree.parent(tree.leaf(0)).unwrap();
        assert_eq!(store.live_matches(internal), 1);
        store.insert(&tree, tree.leaf(2), m2, None, &mut complete);
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[0].num_edges(), 3);
    }

    #[test]
    fn purge_expired_drops_old_partials() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 5),
            None,
            &mut complete,
        );
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(20, 21, 101, 90),
            None,
            &mut complete,
        );
        assert_eq!(store.stats().total_live_matches, 2);
        let removed = store.purge_expired(Timestamp(100), 50);
        assert_eq!(removed, 1);
        assert_eq!(store.stats().total_live_matches, 1);
    }

    #[test]
    fn purge_dead_drops_matches_with_expired_edges() {
        use sp_graph::Schema;
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t0 = schema.intern_edge_type("t0");
        let mut g = DynamicGraph::with_window(schema, 10);
        let a = g.add_vertex(vt);
        let b = g.add_vertex(vt);
        let e_old = g.add_edge(a, b, t0, Timestamp(1));
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        let mut m = SubgraphMatch::new();
        m.bind_vertex(QueryVertexId(0), a);
        m.bind_vertex(QueryVertexId(1), b);
        m.bind_edge(QueryEdgeId(0), e_old, Timestamp(1));
        store.insert(&tree, tree.leaf(0), m, None, &mut complete);
        assert_eq!(store.purge_dead(&g), 0);
        // Slide the window far forward; the old edge disappears.
        g.add_edge(a, b, t0, Timestamp(1000));
        g.expire();
        assert_eq!(store.purge_dead(&g), 1);
        assert_eq!(store.stats().total_live_matches, 0);
    }

    #[test]
    fn single_pass_purge_matches_the_two_pass_result() {
        use sp_graph::Schema;
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t0 = schema.intern_edge_type("t0");
        let mut g = DynamicGraph::with_window(schema, 50);
        let a = g.add_vertex(vt);
        let b = g.add_vertex(vt);
        let e_dead = g.add_edge(a, b, t0, Timestamp(1));
        let e_live = g.add_edge(a, b, t0, Timestamp(90));
        g.add_edge(a, b, t0, Timestamp(100));
        g.expire(); // t=1 is outside the 50-tick graph window

        let tree = two_leaf_tree();
        let build = |edges: &[(u64, u64)]| {
            let mut store = MatchStore::new(&tree);
            let mut complete = Vec::new();
            for &(e, ts) in edges {
                let mut m = SubgraphMatch::new();
                m.bind_vertex(QueryVertexId(0), a);
                m.bind_vertex(QueryVertexId(1), b);
                m.bind_edge(QueryEdgeId(0), EdgeId(e), Timestamp(ts));
                store.insert(&tree, tree.leaf(0), m, None, &mut complete);
            }
            store
        };
        // One dead match, one expired match (earliest 10 < 100-60), one live.
        let edges = [(e_dead.0, 1u64), (777, 10), (e_live.0, 90)];
        let mut single = build(&edges);
        let mut double = build(&edges);
        let removed_single = single.purge(&g, Timestamp(100), Some(60));
        let removed_double = double.purge_dead(&g) + double.purge_expired(Timestamp(100), 60);
        assert_eq!(removed_single, removed_double);
        assert_eq!(removed_single, 2);
        assert_eq!(single.stats().total_live_matches, 1);
        assert_eq!(
            single.stats().total_live_matches,
            double.stats().total_live_matches
        );
        // Without a window only the two dead matches go (edge 777 never
        // existed in the graph, so it is dead as well as expired).
        let mut unwindowed = build(&edges);
        assert_eq!(unwindowed.purge(&g, Timestamp(100), None), 2);
    }

    #[test]
    fn high_fan_in_bucket_dedup_is_exact() {
        // Thousands of leaf-1 matches share the single cut vertex 11, so they
        // all land in ONE bucket. Every insert is repeated; the sorted-bucket
        // dedup must drop each duplicate while keeping every distinct match.
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        const FAN: u64 = 2_000;
        for round in 0..2 {
            for i in 0..FAN {
                store.insert(
                    &tree,
                    tree.leaf(1),
                    leaf1_match(11, 100 + i, 1_000 + i, 2),
                    None,
                    &mut complete,
                );
            }
            // Interleave out-of-order re-inserts to exercise mid-bucket
            // insertion positions.
            for i in (0..FAN).rev().step_by(7) {
                store.insert(
                    &tree,
                    tree.leaf(1),
                    leaf1_match(11, 100 + i, 1_000 + i, 2),
                    None,
                    &mut complete,
                );
            }
            let _ = round;
        }
        assert_eq!(store.live_matches(tree.leaf(1)), FAN as usize);
        assert_eq!(store.total_inserted(tree.leaf(1)), FAN);
        // Micro-assert for the join-stage allocation satellite: every stored
        // partial match of this workload-sized query fits the inline binding
        // maps, so the per-insert move above never heap-allocated.
        assert!(store.matches_at(tree.leaf(1)).all(|m| m.bindings_inline()));
        // Joining against the fan still produces every combination once.
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 5, 1),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), FAN as usize);
        assert!(complete.iter().all(|m| m.bindings_inline()));
    }

    #[test]
    fn purge_recycles_bucket_capacity_into_the_free_list() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        // Distinct cut-vertex bindings → distinct buckets at leaf 0.
        for i in 0..8u64 {
            store.insert(
                &tree,
                tree.leaf(0),
                leaf0_match(10 + i, 50 + i, 100 + i, i),
                None,
                &mut complete,
            );
        }
        assert_eq!(store.spare_buckets(), 0);
        // Expire everything: all eight buckets empty out and are recycled.
        let removed = store.purge_expired(Timestamp(1_000), 10);
        assert_eq!(removed, 8);
        assert_eq!(store.spare_buckets(), 8);
        // New inserts at fresh keys draw from the free list instead of the
        // allocator.
        for i in 0..3u64 {
            store.insert(
                &tree,
                tree.leaf(0),
                leaf0_match(200 + i, 300 + i, 400 + i, 2_000),
                None,
                &mut complete,
            );
        }
        assert_eq!(store.spare_buckets(), 5);
        assert_eq!(store.stats().total_live_matches, 3);
        // `clear` recycles too; `release_spare` drops the pool.
        store.clear();
        assert_eq!(store.spare_buckets(), 8);
        store.release_spare();
        assert_eq!(store.spare_buckets(), 0);
    }

    #[test]
    fn stats_and_clear() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        let stats = store.stats();
        assert_eq!(stats.total_live_matches, 1);
        assert_eq!(stats.live_matches_per_node[tree.leaf(0).0], 1);
        assert_eq!(stats.total_inserted_per_node[tree.leaf(0).0], 1);
        store.clear();
        assert_eq!(store.stats().total_live_matches, 0);
        // The inserted counters survive a clear (they are lifetime totals).
        assert_eq!(store.total_inserted(tree.leaf(0)), 1);
        assert_eq!(store.matches_at(tree.leaf(0)).count(), 0);
    }

    // ---- interned backing ------------------------------------------------

    /// Sorted multiset view of a match list for order-insensitive equality.
    fn multiset(mut ms: Vec<SubgraphMatch>) -> Vec<SubgraphMatch> {
        ms.sort();
        ms
    }

    /// Drives the same insert sequence through a materialized and an
    /// interned store, asserting identical complete-match multisets, live
    /// counts and inserted counters at every step.
    fn assert_equivalent(tree: &SjTree, window: Option<u64>, inserts: &[(usize, SubgraphMatch)]) {
        let mut mat = MatchStore::new(tree);
        let mut int = MatchStore::new_interned(tree);
        let mut mat_complete = Vec::new();
        let mut int_complete = Vec::new();
        for (rank, m) in inserts {
            let node = tree.leaf(*rank);
            mat.insert(tree, node, m.clone(), window, &mut mat_complete);
            int.insert(tree, node, m.clone(), window, &mut int_complete);
        }
        assert_eq!(
            multiset(mat_complete),
            multiset(int_complete),
            "complete-match multisets diverged"
        );
        for n in 0..tree.num_nodes() {
            let node = NodeId(n);
            assert_eq!(mat.live_matches(node), int.live_matches(node));
            assert_eq!(mat.total_inserted(node), int.total_inserted(node));
            assert_eq!(
                multiset(mat.collect_matches_at(node)),
                multiset(int.collect_matches_at(node)),
                "stored matches diverged at node {n}"
            );
        }
    }

    #[test]
    fn interned_store_matches_materialized_on_joins_and_duplicates() {
        let tree = two_leaf_tree();
        let mut inserts = Vec::new();
        // Fan-in, duplicates, a non-joining key and both arrival orders.
        for i in 0..20u64 {
            inserts.push((1usize, leaf1_match(11, 100 + i, 1_000 + i, 2 + i)));
        }
        inserts.push((1, leaf1_match(11, 100, 1_000, 2))); // duplicate
        inserts.push((0, leaf0_match(10, 11, 5, 1)));
        inserts.push((0, leaf0_match(10, 11, 5, 1))); // duplicate
        inserts.push((0, leaf0_match(40, 41, 6, 1))); // never joins
        inserts.push((1, leaf1_match(11, 200, 2_000, 3))); // late sibling
        assert_equivalent(&tree, None, &inserts);
        assert_equivalent(&tree, Some(10), &inserts);
    }

    #[test]
    fn interned_store_handles_single_node_trees() {
        let mut q = QueryGraph::new("one");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        q.add_edge(a, b, EdgeType(0));
        let tree =
            SjTree::from_leaves(q.clone(), vec![QuerySubgraph::from_edges(&q, q.edge_ids())]);
        let mut store = MatchStore::new_interned(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.root(),
            leaf0_match(1, 2, 3, 0),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), 1);
        assert_eq!(store.stats().total_live_matches, 0);
    }

    #[test]
    fn interned_purge_recycles_rows_and_buckets() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new_interned(&tree);
        let mut complete = Vec::new();
        for i in 0..8u64 {
            store.insert(
                &tree,
                tree.leaf(0),
                leaf0_match(10 + i, 50 + i, 100 + i, i),
                None,
                &mut complete,
            );
        }
        assert_eq!(store.spare_buckets(), 0);
        let removed = store.purge_expired(Timestamp(1_000), 10);
        assert_eq!(removed, 8);
        assert_eq!(store.spare_buckets(), 8);
        // Freed rows are reused: eight more inserts and the arena has not
        // grown past its 8-row high-water mark.
        let Backing::Interned { arena, .. } = &store.backing else {
            panic!("interned store");
        };
        let words_before = arena.data.len();
        for i in 0..8u64 {
            store.insert(
                &tree,
                tree.leaf(0),
                leaf0_match(200 + i, 300 + i, 400 + i, 2_000),
                None,
                &mut complete,
            );
        }
        let Backing::Interned { arena, .. } = &store.backing else {
            panic!("interned store");
        };
        assert_eq!(arena.data.len(), words_before);
        assert_eq!(store.stats().total_live_matches, 8);
    }

    #[test]
    fn interned_purge_dead_probes_the_graph() {
        use sp_graph::Schema;
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t0 = schema.intern_edge_type("t0");
        let mut g = DynamicGraph::with_window(schema, 10);
        let a = g.add_vertex(vt);
        let b = g.add_vertex(vt);
        let e_old = g.add_edge(a, b, t0, Timestamp(1));
        let tree = two_leaf_tree();
        let mut store = MatchStore::new_interned(&tree);
        let mut complete = Vec::new();
        let mut m = SubgraphMatch::new();
        m.bind_vertex(QueryVertexId(0), a);
        m.bind_vertex(QueryVertexId(1), b);
        m.bind_edge(QueryEdgeId(0), e_old, Timestamp(1));
        store.insert(&tree, tree.leaf(0), m, None, &mut complete);
        assert_eq!(store.purge_dead(&g), 0);
        g.add_edge(a, b, t0, Timestamp(1000));
        g.expire();
        assert_eq!(store.purge_dead(&g), 1);
        assert_eq!(store.stats().total_live_matches, 0);
    }

    #[test]
    fn set_interning_round_trips_live_state() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        for i in 0..6u64 {
            store.insert(
                &tree,
                tree.leaf(1),
                leaf1_match(11, 100 + i, 1_000 + i, 2),
                None,
                &mut complete,
            );
        }
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 5, 1),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), 6);
        let before: Vec<Vec<SubgraphMatch>> = (0..tree.num_nodes())
            .map(|n| multiset(store.collect_matches_at(NodeId(n))))
            .collect();
        let inserted_before = store.lifetime_inserted();

        // Materialized -> interned: state survives and joining continues.
        store.set_interning(&tree, true);
        assert!(store.is_interned());
        assert_eq!(store.lifetime_inserted(), inserted_before);
        for (n, expected) in before.iter().enumerate() {
            assert_eq!(&multiset(store.collect_matches_at(NodeId(n))), expected);
        }
        let mut complete2 = Vec::new();
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 200, 9_000, 2),
            None,
            &mut complete2,
        );
        assert_eq!(complete2.len(), 1, "joins keep working after conversion");
        // Duplicates are still rejected against the converted buckets.
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 200, 9_000, 2),
            None,
            &mut complete2,
        );
        assert_eq!(complete2.len(), 1);

        // Interned -> materialized: round-trip restores everything.
        store.set_interning(&tree, false);
        assert!(!store.is_interned());
        assert_eq!(
            store.live_matches(tree.leaf(1)),
            7,
            "6 originals + 1 post-conversion insert"
        );
        assert!(store.matches_at(tree.leaf(1)).all(|m| m.bindings_inline()));
    }

    #[test]
    fn interned_rows_handle_spilled_width_queries() {
        // A 9-edge path: 10 vertex bindings — past MATCH_INLINE_BINDINGS, so
        // the materialized representation heap-allocates per clone while the
        // interned rows stay fixed-width. Semantics must be identical.
        const LEN: usize = 9;
        let mut q = QueryGraph::new("wide");
        let v: Vec<_> = (0..=LEN).map(|_| q.add_any_vertex()).collect();
        for i in 0..LEN {
            q.add_edge(v[i], v[i + 1], EdgeType(i as u32));
        }
        let leaves = (0..LEN)
            .map(|i| QuerySubgraph::from_edges(&q, [QueryEdgeId(i)]))
            .collect();
        let tree = SjTree::from_leaves(q, leaves);

        let edge_match = |i: usize, base: u64| {
            let mut m = SubgraphMatch::new();
            m.bind_vertex(QueryVertexId(i), VertexId(base + i as u64));
            m.bind_vertex(QueryVertexId(i + 1), VertexId(base + i as u64 + 1));
            m.bind_edge(
                QueryEdgeId(i),
                EdgeId(1_000 + i as u64),
                Timestamp(i as u64),
            );
            m
        };
        let inserts: Vec<(usize, SubgraphMatch)> =
            (0..LEN).map(|i| (i, edge_match(i, 500))).collect();
        assert_equivalent(&tree, None, &inserts);

        // And explicitly: the interned store emits the full 10-vertex match.
        let mut store = MatchStore::new_interned(&tree);
        let mut complete = Vec::new();
        for (rank, m) in &inserts {
            store.insert(&tree, tree.leaf(*rank), m.clone(), None, &mut complete);
        }
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[0].num_vertices(), LEN + 1);
        assert_eq!(complete[0].num_edges(), LEN);
        assert!(!complete[0].bindings_inline(), "this width must spill");
    }

    /// Reads an emitted row back through its layout (every slot bound).
    fn row_to_match(row: &[u64], layout: RowLayout) -> SubgraphMatch {
        SubgraphMatch::from_sorted_bindings(
            (0..layout.edges).map(|i| (QueryEdgeId(i), EdgeId(row[i]))),
            (0..layout.vertices).map(|i| (QueryVertexId(i), VertexId(row[layout.edges + i]))),
            Timestamp(layout.earliest(row)),
            Timestamp(layout.latest(row)),
        )
    }

    #[test]
    fn row_emission_reports_the_root_joins_of_the_match_path() {
        let tree = two_leaf_tree();
        let mut inserts = Vec::new();
        for i in 0..12u64 {
            inserts.push((1usize, leaf1_match(11, 100 + i, 1_000 + i, 2 + i)));
        }
        inserts.push((0, leaf0_match(10, 11, 5, 1)));
        inserts.push((0, leaf0_match(10, 11, 5, 1))); // duplicate
        inserts.push((0, leaf0_match(100, 11, 6, 4))); // injectivity clash with (11, 100)
        inserts.push((1, leaf1_match(11, 200, 2_000, 3)));
        for window in [None, Some(8)] {
            let mut as_matches = MatchStore::new_interned(&tree);
            let mut as_rows = MatchStore::new_interned(&tree);
            let layout = as_rows.row_layout().unwrap();
            assert_eq!((layout.edges, layout.vertices, layout.stride()), (2, 3, 7));
            let (mut complete, mut rows) = (Vec::new(), Vec::new());
            for (rank, m) in &inserts {
                let node = tree.leaf(*rank);
                as_matches.insert(&tree, node, m.clone(), window, &mut complete);
                as_rows.insert_emit_rows(&tree, node, m.clone(), window, &mut rows);
            }
            let decoded: Vec<SubgraphMatch> = rows
                .chunks_exact(layout.stride())
                .map(|row| row_to_match(row, layout))
                .collect();
            // Same joins, same emission order.
            assert_eq!(decoded, complete);
            assert!(!complete.is_empty());
            assert_eq!(as_rows.lifetime_inserted(), as_matches.lifetime_inserted());
        }
        assert!(MatchStore::new(&tree).row_layout().is_none());
    }

    #[test]
    fn prefix_rows_are_adopted_slot_for_slot() {
        // Parent: the 2-leaf prefix of a 3-edge path; child: the full path.
        // The parent's emitted rows enter the child at the join node
        // covering leaves 0..=1 and must behave exactly like the joined
        // matches themselves.
        let parent_tree = two_leaf_tree();
        let mut q = QueryGraph::new("p3");
        let v: Vec<_> = (0..4).map(|_| q.add_any_vertex()).collect();
        for i in 0..3 {
            q.add_edge(v[i], v[i + 1], EdgeType(i as u32));
        }
        let leaves = (0..3)
            .map(|i| QuerySubgraph::from_edges(&q, [QueryEdgeId(i)]))
            .collect();
        let child_tree = SjTree::from_leaves(q, leaves);
        let consume = child_tree.parent(child_tree.leaf(1)).unwrap();
        let leaf2 = |c: u64, d: u64, e: u64, ts: u64| {
            let mut m = SubgraphMatch::new();
            m.bind_vertex(QueryVertexId(2), VertexId(c));
            m.bind_vertex(QueryVertexId(3), VertexId(d));
            m.bind_edge(QueryEdgeId(2), EdgeId(e), Timestamp(ts));
            m
        };

        let mut parent = MatchStore::new_interned(&parent_tree);
        let from = parent.row_layout().unwrap();
        let mut parent_rows = Vec::new();
        let mut parent_matches = Vec::new();
        let mut reference_parent = MatchStore::new_interned(&parent_tree);
        for (rank, m) in [
            (0, leaf0_match(10, 11, 100, 1)),
            (1, leaf1_match(11, 12, 101, 2)),
            (1, leaf1_match(11, 13, 102, 3)),
        ] {
            let node = parent_tree.leaf(rank);
            parent.insert_emit_rows(&parent_tree, node, m.clone(), None, &mut parent_rows);
            reference_parent.insert(&parent_tree, node, m, None, &mut parent_matches);
        }
        assert_eq!(parent_matches.len(), 2);

        let mut child = MatchStore::new_interned(&child_tree);
        let mut reference = MatchStore::new_interned(&child_tree);
        let (mut rows, mut complete) = (Vec::new(), Vec::new());
        // A suffix match that arrived first, then the parent's emissions
        // (fed twice: the second round must dedup), then another suffix.
        child.insert_emit_rows(
            &child_tree,
            child_tree.leaf(2),
            leaf2(12, 14, 200, 4),
            None,
            &mut rows,
        );
        reference.insert(
            &child_tree,
            child_tree.leaf(2),
            leaf2(12, 14, 200, 4),
            None,
            &mut complete,
        );
        for _ in 0..2 {
            for row in parent_rows.chunks_exact(from.stride()) {
                child.insert_row_emit_rows(&child_tree, consume, row, from, None, &mut rows);
            }
            for m in &parent_matches {
                reference.insert(&child_tree, consume, m.clone(), None, &mut complete);
            }
        }
        child.insert_emit_rows(
            &child_tree,
            child_tree.leaf(2),
            leaf2(13, 15, 201, 5),
            None,
            &mut rows,
        );
        reference.insert(
            &child_tree,
            child_tree.leaf(2),
            leaf2(13, 15, 201, 5),
            None,
            &mut complete,
        );

        let layout = child.row_layout().unwrap();
        let decoded: Vec<SubgraphMatch> = rows
            .chunks_exact(layout.stride())
            .map(|row| row_to_match(row, layout))
            .collect();
        assert_eq!(decoded, complete);
        assert_eq!(complete.len(), 2);
        assert_eq!(child.live_matches(consume), 2);
        assert_eq!(
            multiset(child.collect_matches_at(consume)),
            multiset(reference.collect_matches_at(consume))
        );
    }

    #[test]
    fn insert_trace_records_nodes_and_vertices() {
        let tree = two_leaf_tree();
        for interned in [false, true] {
            let mut store = if interned {
                MatchStore::new_interned(&tree)
            } else {
                MatchStore::new(&tree)
            };
            let mut complete = Vec::new();
            let mut trace = InsertTrace::new();
            store.insert_traced(
                &tree,
                tree.leaf(0),
                leaf0_match(10, 11, 100, 1),
                None,
                &mut complete,
                &mut trace,
            );
            assert_eq!(trace.len(), 1);
            assert_eq!(trace.node(0), tree.leaf(0));
            assert_eq!(trace.vertices(0), &[VertexId(10), VertexId(11)]);
            trace.clear();
            assert!(trace.is_empty());
            // The joining insert stores at the leaf; the root join is
            // emitted, not stored, so it is not traced.
            store.insert_traced(
                &tree,
                tree.leaf(1),
                leaf1_match(11, 12, 101, 2),
                None,
                &mut complete,
                &mut trace,
            );
            assert_eq!(trace.len(), 1);
            assert_eq!(trace.node(0), tree.leaf(1));
            assert_eq!(trace.vertices(0), &[VertexId(11), VertexId(12)]);
            assert_eq!(complete.len(), 1);
        }
    }
}
