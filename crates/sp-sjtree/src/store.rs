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
//! # Storage representation
//!
//! Every stored match is a fixed-width row of `u64` slots in a store-owned
//! [`RowArena`]: one slot per query edge (slot index = `QueryEdgeId.0`), one
//! per query vertex (`ew + QueryVertexId.0`), plus two timestamp words
//! ([`RowLayout`]). Buckets hold copyable `u32` row ids; joins read and write
//! slots at fixed offsets. A match enters the arena once — encoded from the
//! anchored search's working binding ([`MatchStore::encode`]) or copied from
//! another store's row ([`MatchStore::adopt`]) — and is inserted by id
//! ([`MatchStore::insert_row`]). A join that reaches the root is reported,
//! never stored, so it never enters the arena: the union of its two operand
//! rows is appended to the caller's flat row buffer, and whoever delivers it
//! builds the caller-visible [`SubgraphMatch`] exactly once, at the sink
//! ([`RowLayout::materialize`]). Matches of any width — including ones that
//! would spill a `SubgraphMatch`'s inline binding maps (> 8 bindings) — are
//! stored with **zero** steady-state allocations, because expired rows
//! recycle through the arena free list. [`MatchStore::insert`] is the
//! `SubgraphMatch`-in, `SubgraphMatch`-out adapter over the same path, for
//! tests and layer benchmarks.
//!
//! # Bucket order and the probe range
//!
//! A bucket — the rows of one node under one join key — is kept sorted by
//! `(earliest, full row)`: time order first, the row's slots as the
//! tie-break. Three things read that order:
//!
//! * **insert and dedup** — a stream delivers matches in time order, so the
//!   new row usually sorts after the bucket's last one: one comparison, then
//!   an append. Otherwise (a lazy strategy's retroactive search, a replay)
//!   its place is a binary search. Either way a duplicate — same bindings,
//!   hence same timestamps — compares `Equal` to a stored row and is
//!   dropped, so the dedup is exact.
//! * **the sibling probe** — with a window `tw`, a sibling row whose
//!   `earliest` is `<= latest(new) - tw` cannot join the new row: the joined
//!   span would be `>= tw`. Those rows are a prefix of the bucket, found by
//!   `partition_point`; the probe starts behind it, and every row from there
//!   on still passes through the full [`RowArena::joinable`] check. While
//!   `latest(new) < tw` nothing is that old and the probe starts at 0. On a
//!   hub vertex whose bucket outlives the window between two purges, the
//!   skipped prefix is most of the bucket.
//! * **expiry** — the window-expired rows are a prefix too. A bucket counts
//!   the dead slots in front of its live rows, so an expired prefix leaves
//!   in O(expired) without moving the live suffix; the dead slots are
//!   compacted away once they outnumber the live ones. Two passes find the
//!   prefixes: [`MatchStore::purge`], a sweep over every bucket that the
//!   engines run on the shard's purge cadence, and [`MatchStore::expire`],
//!   which visits only the buckets its **expiry log** names. The log holds
//!   one `(earliest, row, node)` entry per stored row, oldest first, so an
//!   expiry costs the rows it drops and nothing per live row; the shared
//!   prefix tables of `core` run it before every edge they take
//!   ([`MatchStore::set_expiry_window`]).
//!
//! Joins are therefore reported in time order of the sibling row, not in
//! lexicographic order of its bindings; which joins are reported does not
//! depend on the order.

use crate::node::NodeId;
use crate::tree::SjTree;
use sp_graph::{DynamicGraph, EdgeId, FastMap, Timestamp, VertexId};
use sp_iso::SubgraphMatch;
use sp_query::{QueryEdgeId, QueryGraph, QueryVertexId};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Maximum number of cut vertices a [`JoinKey`] stores without a heap
/// allocation. Real decompositions join on one or two shared vertices; three
/// covers every tree the workspace builds.
const JOIN_KEY_INLINE: usize = 3;

/// An interned hash-join key: the data vertices a stored row binds to a
/// join node's cut vertices, in cut order.
///
/// The store reads the cut vertices off the row's fixed slots and computes
/// one key per inserted row (Property 4's `GET-JOIN-KEY`), which made a
/// `Vec<VertexId>` key the hottest allocation of the SJ-Tree update path.
/// Keys of up to [`JOIN_KEY_INLINE`] vertices — all real cuts — are stored
/// inline; longer keys spill to a `Vec`. Construction is canonical by
/// length (inline iff it fits), so the derived `Eq`/`Hash` are consistent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    /// At most [`JOIN_KEY_INLINE`] cut vertices, stored inline: the first
    /// field is the number of valid entries, unused slots are zeroed.
    Inline(u8, [VertexId; JOIN_KEY_INLINE]),
    /// More than [`JOIN_KEY_INLINE`] cut vertices (not produced by the
    /// built-in decompositions, but hand-built trees may).
    Spilled(Vec<VertexId>),
}

/// Hash table of the matches stored at one SJ-Tree node, keyed by the
/// projection of each match onto the parent's cut vertices. Keys are
/// interned [`JoinKey`]s — cut sets of up to three vertices (every tree the
/// built-in decompositions produce) are stored inline, so computing the key
/// per insert does not heap-allocate, and hashed by the seeded word hasher
/// of [`FastMap`] (an insert hashes its key three times). Buckets hold arena
/// row ids in **time order** — see the module docs.
type RowTable = FastMap<JoinKey, Bucket>;

/// The rows of one node under one join key, in time order. `words[0]`
/// counts the dead slots that follow it — rows an expiry already dropped —
/// and the live rows come after those, so a bucket stays one `Vec` wide in
/// its table. The dead slots are compacted away once they outnumber the
/// live ones: dropping a prefix costs O(dropped) amortized whatever the
/// bucket's size.
#[derive(Debug, Clone)]
struct Bucket {
    words: Vec<u32>,
}

impl Bucket {
    /// An empty bucket in a recycled vector.
    fn from_vec(mut words: Vec<u32>) -> Self {
        words.clear();
        words.push(0);
        Self { words }
    }

    fn start(&self) -> usize {
        1 + self.words[0] as usize
    }

    /// The live rows, oldest first.
    fn live(&self) -> &[u32] {
        &self.words[self.start()..]
    }

    fn len(&self) -> usize {
        self.words.len() - self.start()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores `row` at live position `at`.
    fn insert(&mut self, at: usize, row: u32) {
        let start = self.start();
        self.words.insert(start + at, row);
    }

    /// Drops the `n` oldest live rows.
    fn drop_front(&mut self, n: usize) {
        let dead = self.words[0] as usize + n;
        if dead > self.words.len() - 1 - dead {
            self.words.drain(1..1 + dead);
            self.words[0] = 0;
        } else {
            self.words[0] = dead as u32;
        }
    }

    /// Keeps the live rows `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(&u32) -> bool) {
        let mut kept = 1;
        for i in self.start()..self.words.len() {
            let row = self.words[i];
            if keep(&row) {
                self.words[kept] = row;
                kept += 1;
            }
        }
        self.words.truncate(kept);
        self.words[0] = 0;
    }

    /// The vector, for the bucket free list.
    fn into_vec(self) -> Vec<u32> {
        self.words
    }
}

/// One stored row as the expiry log remembers it. `earliest` is a copy:
/// row ids are recycled, and a reused id must not move the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Logged {
    earliest: u64,
    row: u32,
    node: u32,
}

/// Slots per window of an [`ExpiryLog`]: a slot is the widest power of two
/// of timestamp ticks at most `window / LOG_SLOTS_PER_WINDOW` wide.
const LOG_SLOTS_PER_WINDOW: u64 = 64;

/// The expiry log of a [`MatchStore`]: an entry per stored row, in a ring of
/// time slots by `earliest`. A slot is a power of two of ticks wide, sized
/// from the window, so one window spans [`LOG_SLOTS_PER_WINDOW`] to twice
/// as many slots.
/// An entry is appended to its slot — a leaf row of a time-ordered stream
/// lands in the newest, a join, whose `earliest` is its older operand's,
/// further back — and the slots wholly older than a cutoff are drained
/// whole. Only the slot the cutoff falls in is sorted, once, so its oldest
/// entries pop off its end. Drained slot vectors are reused, so a warm log
/// allocates nothing.
#[derive(Debug, Clone)]
struct ExpiryLog {
    /// log2 of a slot's width in timestamp ticks.
    shift: u32,
    /// Slot number (`earliest >> shift`) of `slots[0]`; at least that of
    /// the last cutoff.
    base: u64,
    /// `slots[i]` holds the entries of slot `base + i`; `slots[0]` also
    /// holds every older one (a row of a late edge).
    slots: VecDeque<Vec<Logged>>,
    /// Whether `slots[0]` is sorted newest first.
    front_sorted: bool,
    /// Emptied slot vectors, kept for their capacity.
    spare: Vec<Vec<Logged>>,
}

impl ExpiryLog {
    /// An empty log for a window of `window` ticks holding `entries`. An
    /// entry more than a window older than the newest one goes to the front
    /// slot, so the ring spans one window whatever the entries span.
    fn new(window: u64, entries: Vec<Logged>) -> Self {
        let shift = Self::shift_for(window);
        let newest = entries.iter().map(|e| e.earliest >> shift).max();
        let mut log = Self {
            shift,
            base: newest.map_or(0, |n| n.saturating_sub(LOG_SLOTS_PER_WINDOW)),
            slots: VecDeque::new(),
            front_sorted: false,
            spare: Vec::new(),
        };
        for entry in entries {
            log.push(entry);
        }
        log
    }

    /// log2 of the slot width for a window of `window` ticks.
    fn shift_for(window: u64) -> u32 {
        (window / LOG_SLOTS_PER_WINDOW).max(1).ilog2()
    }

    fn push(&mut self, entry: Logged) {
        let slot = entry.earliest >> self.shift;
        if self.slots.is_empty() {
            self.base = self.base.max(slot);
        }
        let i = slot.saturating_sub(self.base) as usize;
        while self.slots.len() <= i {
            self.slots.push_back(self.spare.pop().unwrap_or_default());
        }
        self.front_sorted &= i > 0;
        self.slots[i].push(entry);
    }

    /// Pops an entry whose `earliest` is below `cutoff`, while there is one:
    /// first the whole slots older than the cutoff's, then, oldest first,
    /// those of the front slot.
    fn pop_before(&mut self, cutoff: u64) -> Option<Logged> {
        let last = cutoff >> self.shift;
        loop {
            let Some(front) = self.slots.front_mut() else {
                self.base = self.base.max(last);
                return None;
            };
            if self.base < last {
                if let Some(entry) = front.pop() {
                    return Some(entry);
                }
                let emptied = self.slots.pop_front().expect("front slot exists");
                self.spare.push(emptied);
                self.base += 1;
                self.front_sorted = false;
                continue;
            }
            if !self.front_sorted {
                front.sort_unstable_by(|a, b| b.cmp(a));
                self.front_sorted = true;
            }
            return match front.last() {
                Some(entry) if entry.earliest < cutoff => front.pop(),
                _ => None,
            };
        }
    }

    /// Every entry, in no particular order.
    fn entries(&self) -> impl Iterator<Item = Logged> + '_ {
        self.slots.iter().flatten().copied()
    }

    fn clear(&mut self) {
        while let Some(mut slot) = self.slots.pop_front() {
            slot.clear();
            self.spare.push(slot);
        }
    }
}

/// Upper bound on recycled bucket vectors kept in a store's free list. A
/// purge can empty thousands of buckets at once; retaining a bounded pool
/// keeps steady-state inserts allocation-free without pinning a whole
/// window's worth of peak memory forever.
const SPARE_BUCKETS_CAP: usize = 1024;

/// Slot value marking an unbound query edge/vertex in a stored row. Edge
/// ids are dense indices assigned by the graph and can never reach it;
/// vertex ids come from the stream, so the processors reject an event naming
/// vertex `u64::MAX` before it is ingested.
pub const UNBOUND: u64 = u64::MAX;

/// The slot schema of one fixed-width match row: where the edge, vertex and
/// timestamp words sit. Rows of this shape are what a [`MatchStore`] stores
/// and reports, and what the pipeline moves between its stages.
///
/// ```text
/// [ edge slots 0..edges ][ vertex slots edges..edges+vertices ][ earliest ][ latest ]
///   slot i = QueryEdgeId(i)   slot edges+j = QueryVertexId(j)
/// ```
///
/// Unbound slots hold [`UNBOUND`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowLayout {
    /// Edge-slot count = the query's edge count.
    pub edges: usize,
    /// Vertex-slot count = the query's vertex count.
    pub vertices: usize,
}

impl RowLayout {
    /// The layout of rows in `query`'s own numbering.
    pub fn of(query: &QueryGraph) -> Self {
        Self {
            edges: query.num_edges(),
            vertices: query.num_vertices(),
        }
    }

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

    /// Appends one row with every word [`UNBOUND`] to a flat row buffer and
    /// returns it, for the caller to fill in.
    pub fn push_unbound(self, out: &mut Vec<u64>) -> &mut [u64] {
        let start = out.len();
        out.resize(start + self.stride(), UNBOUND);
        &mut out[start..]
    }

    /// Fills `row`, whose binding slots the caller has already set to
    /// [`UNBOUND`], with the given `(query id, data id)` bindings and time
    /// span. This is how a row changes numbering: the bindings of a row in
    /// one query's ids, named by another's.
    pub fn fill(
        self,
        row: &mut [u64],
        edges: impl IntoIterator<Item = (QueryEdgeId, u64)>,
        vertices: impl IntoIterator<Item = (QueryVertexId, u64)>,
        earliest: u64,
        latest: u64,
    ) {
        for (qe, de) in edges {
            debug_assert!(qe.0 < self.edges && de != UNBOUND);
            row[qe.0] = de;
        }
        for (qv, dv) in vertices {
            debug_assert!(qv.0 < self.vertices && dv != UNBOUND);
            row[self.edges + qv.0] = dv;
        }
        row[self.edges + self.vertices] = earliest;
        row[self.edges + self.vertices + 1] = latest;
    }

    /// [`RowLayout::fill`] from a match's bindings and time span.
    pub fn write(self, m: &SubgraphMatch, row: &mut [u64]) {
        let (earliest, latest) = m.time_span();
        self.fill(
            row,
            m.edge_pairs().map(|(q, d)| (q, d.0)),
            m.vertex_pairs().map(|(q, d)| (q, d.0)),
            earliest.0,
            latest.0,
        );
    }

    /// Builds the caller-visible [`SubgraphMatch`] of a row — the
    /// copy-on-emit boundary. Slots are read in ascending index (= ascending
    /// query-id) order, so each binding map is filled in one pass
    /// ([`SubgraphMatch::from_sorted_bindings`]); inlined, so the value is
    /// constructed in the frame that hands it to the sink.
    #[inline]
    pub fn materialize(self, row: &[u64]) -> SubgraphMatch {
        let (edges, vertices) = row[..self.edges + self.vertices].split_at(self.edges);
        SubgraphMatch::from_sorted_bindings(
            edges
                .iter()
                .enumerate()
                .filter_map(|(i, &v)| (v != UNBOUND).then_some((QueryEdgeId(i), EdgeId(v)))),
            vertices
                .iter()
                .enumerate()
                .filter_map(|(i, &v)| (v != UNBOUND).then_some((QueryVertexId(i), VertexId(v)))),
            Timestamp(self.earliest(row)),
            Timestamp(self.latest(row)),
        )
    }
}

impl RowLayout {
    /// [`RowLayout::materialize`] over a flat buffer of back-to-back rows.
    #[inline]
    pub fn materialize_all(self, rows: &[u64]) -> impl Iterator<Item = SubgraphMatch> + '_ {
        rows.chunks_exact(self.stride())
            .map(move |row| self.materialize(row))
    }
}

/// Handle of one row a [`MatchStore`] holds for its caller between
/// [`MatchStore::encode`] / [`MatchStore::adopt`] and
/// [`MatchStore::insert_row`]. Only the store that minted it can use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowId(u32);

/// Moves an emptied bucket into the free list, dropping it instead when the
/// pool is full or the bucket never grew.
fn recycle(spare: &mut Vec<Vec<u32>>, mut bucket: Vec<u32>) {
    if spare.len() < SPARE_BUCKETS_CAP && bucket.capacity() > 0 {
        bucket.clear();
        spare.push(bucket);
    }
}

/// The slab behind a [`MatchStore`]: every stored match is one
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

    /// Rows allocated and not on the free list. Between store operations
    /// every such row sits in exactly one bucket, so this is the store's
    /// live partial-match count without walking a table.
    fn live(&self) -> usize {
        self.data.len() / self.stride - self.free.len()
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

    /// Claims a fresh row and lets `write` fill it in (binding slots start
    /// out [`UNBOUND`]).
    fn alloc_with(&mut self, write: impl FnOnce(RowLayout, &mut [u64])) -> u32 {
        let row = self.alloc();
        let b = self.base(row);
        write(self.layout(), &mut self.data[b..b + self.stride]);
        row
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
    /// [`JoinKey`] — Property 4's `GET-JOIN-KEY` — reading each cut vertex
    /// from its fixed slot offset, in cut order. Returns `None` when any cut
    /// vertex is unbound.
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

    /// Earliest edge timestamp of a stored row.
    fn earliest(&self, row: u32) -> u64 {
        self.layout().earliest(self.row(row))
    }

    /// Latest edge timestamp of a stored row.
    fn latest(&self, row: u32) -> u64 {
        self.layout().latest(self.row(row))
    }

    /// The bucket order: by `earliest`, ties broken by the full row. Inside
    /// one bucket every row binds exactly the same slot set (all matches at
    /// node `n` are matches of `subgraph(n)`), so unbound slots compare
    /// equal and two rows compare `Equal` only when they are the same match
    /// — a duplicate has equal timestamps, so ordering by time first loses
    /// nothing of the dedup.
    fn cmp_rows(&self, a: u32, b: u32) -> std::cmp::Ordering {
        self.earliest(a)
            .cmp(&self.earliest(b))
            .then_with(|| self.row(a).cmp(self.row(b)))
    }

    /// Whether two rows join (Definition 3.1.3), and the joined time span
    /// `(earliest, latest)` if so, with the window filter applied *before*
    /// anything is written, so rejected joins cost no row traffic:
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

    /// Joins two rows into a fresh row, the union of their bindings, for
    /// joins that are stored one level up.
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

    /// Reports the join of two rows into `reported` if they are compatible
    /// — the root-level join, which is never stored: the union is read
    /// straight out of the two operand rows, with no arena row in between.
    fn report_join(&self, a: u32, b: u32, window: Option<u64>, reported: &mut Vec<u64>) {
        let Some((earliest, latest)) = self.joinable(a, b, window) else {
            return;
        };
        let slots = self.ew + self.vw;
        let (ra, rb) = (&self.row(a)[..slots], &self.row(b)[..slots]);
        // `joinable` accepted the pair, so bound slots never clash.
        reported.extend(
            ra.iter()
                .zip(rb)
                .map(|(&av, &bv)| if av != UNBOUND { av } else { bv }),
        );
        reported.extend([earliest, latest]);
    }
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

/// Runtime partial-match storage for one SJ-Tree.
///
/// Every stored match (spilled or not) is a fixed-width arena row addressed
/// by a copyable id. Bucket vectors emptied by window expiry are recycled
/// through a bounded free list (`spare`) instead of being freed, so the next
/// insert at a fresh join key reuses their capacity.
#[derive(Debug, Clone)]
pub struct MatchStore {
    arena: RowArena,
    tables: Vec<RowTable>,
    /// Free list of emptied bucket vectors (capacity preserved), refilled by
    /// the purge/clear paths and drained by inserts at previously unseen
    /// join keys.
    spare: Vec<Vec<u32>>,
    /// One entry per stored row while the owner expires the store by
    /// [`MatchStore::expire`]; `None` (the default) logs nothing.
    log: Option<ExpiryLog>,
    inserted: Vec<u64>,
    /// Row buffer of the [`MatchStore::insert`] adapter, kept for its
    /// capacity; empty between calls.
    reported: Vec<u64>,
}

impl MatchStore {
    /// Creates an empty store shaped for the given tree: the row schema is
    /// one slot per query edge and vertex of `tree.query()`.
    pub fn new(tree: &SjTree) -> Self {
        let layout = RowLayout::of(tree.query());
        Self {
            arena: RowArena::new(layout.edges, layout.vertices),
            tables: vec![RowTable::default(); tree.num_nodes()],
            spare: Vec::new(),
            log: None,
            inserted: vec![0; tree.num_nodes()],
            reported: Vec::new(),
        }
    }

    /// Alias of [`MatchStore::new`], kept for callers written when a second
    /// representation existed.
    #[doc(hidden)]
    pub fn new_interned(tree: &SjTree) -> Self {
        Self::new(tree)
    }

    /// Number of recycled bucket vectors currently in the free list.
    pub fn spare_buckets(&self) -> usize {
        self.spare.len()
    }

    /// The row schema of this store: the layout of the rows it stores and
    /// of the root joins [`MatchStore::insert_row`] reports.
    pub fn row_layout(&self) -> RowLayout {
        self.arena.layout()
    }

    /// Copies a match into a fresh arena row, to be handed to
    /// [`MatchStore::insert_row`]. The anchored searches visit their working
    /// binding in place; this is where a found match leaves it.
    pub fn encode(&mut self, m: &SubgraphMatch) -> RowId {
        RowId(self.arena.alloc_with(|layout, row| layout.write(m, row)))
    }

    /// Writes a match given as `(query id, data id)` bindings plus its time
    /// span into a fresh arena row, to be handed to
    /// [`MatchStore::insert_row`] — [`RowLayout::fill`] straight into the
    /// arena. This is how a row of a shared stage's canonical numbering
    /// arrives in this store's: one slot permutation, no copy in between.
    pub fn encode_bindings(
        &mut self,
        edges: impl IntoIterator<Item = (QueryEdgeId, u64)>,
        vertices: impl IntoIterator<Item = (QueryVertexId, u64)>,
        earliest: u64,
        latest: u64,
    ) -> RowId {
        RowId(
            self.arena
                .alloc_with(|layout, row| layout.fill(row, edges, vertices, earliest, latest)),
        )
    }

    /// Copies a row of layout `from` — this store's own, or that of a store
    /// over a *prefix* of this store's query (canonical ids line up by
    /// prefix-closure) — slot for slot into a fresh arena row, to be handed
    /// to [`MatchStore::insert_row`]. Nothing is materialized. This is how a
    /// trie child of the shared join stage consumes its parent's emissions.
    pub fn adopt(&mut self, src: &[u64], from: RowLayout) -> RowId {
        RowId(self.arena.adopt(src, from))
    }

    /// Inserts a row of `node`'s subgraph, performing the recursive hash
    /// join of Algorithm 2. Every join that reaches the root is appended to
    /// `reported` as [`RowLayout::stride`] raw words (on a single-node tree
    /// the inserted row itself is the report).
    ///
    /// `window`: when `Some(tw)`, joined matches whose edge timestamps span
    /// an interval ≥ `tw` are discarded (the problem statement requires
    /// τ(g) < tW for reported matches).
    ///
    /// Duplicate inserts (the same match already present at the node) are
    /// ignored; the lazy strategy's retroactive searches can legitimately
    /// rediscover a match that the per-edge search already found.
    ///
    /// With `trace`, every newly stored match (node + bound data vertices)
    /// is additionally recorded — the inserted row and every intermediate
    /// join. The Lazy Search engine uses the trace to decide which vertices
    /// to enable the next leaf's search on (`ENABLE-SEARCH-SIBLING`,
    /// Algorithm 3). The trace is **appended to**, not cleared.
    pub fn insert_row(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        row: RowId,
        window: Option<u64>,
        reported: &mut Vec<u64>,
        trace: Option<&mut InsertTrace>,
    ) {
        let row = row.0;
        if node == tree.root() {
            // A single-node tree: the leaf *is* the query. The window
            // constraint still applies (τ(g) < tW).
            let (words, layout) = (self.arena.row(row), self.arena.layout());
            if window
                .is_none_or(|tw| layout.latest(words).saturating_sub(layout.earliest(words)) < tw)
            {
                reported.extend_from_slice(words);
            }
            self.arena.release(row);
            return;
        }
        self.insert_rows(tree, node, row, window, reported, trace);
    }

    /// [`MatchStore::insert_row`] for callers that hold and want
    /// [`SubgraphMatch`]es (unit tests, the layer benchmark): encodes `m`,
    /// inserts it, and materializes every reported root join into
    /// `complete`.
    pub fn insert(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        m: SubgraphMatch,
        window: Option<u64>,
        complete: &mut Vec<SubgraphMatch>,
    ) {
        let mut reported = std::mem::take(&mut self.reported);
        let row = self.encode(&m);
        self.insert_row(tree, node, row, window, &mut reported, None);
        complete.extend(self.row_layout().materialize_all(&reported));
        reported.clear();
        self.reported = reported;
    }

    /// The recursive update (Algorithm 2): every probe, key projection,
    /// dedup comparison and join works on fixed-width arena rows addressed
    /// by copyable ids. A join that reaches the root goes straight from its
    /// two operand rows into `reported` ([`RowArena::report_join`]);
    /// everything below the root moves **zero** match bytes through the
    /// allocator, spilled or not. The trace is optional so the untraced path
    /// (eager strategies and the shared join stage's per-edge feed, i.e. the
    /// steady-state hot path) never records one.
    fn insert_rows(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        row: u32,
        window: Option<u64>,
        reported: &mut Vec<u64>,
        mut trace: Option<&mut InsertTrace>,
    ) {
        let parent = tree.parent(node).expect("non-root node has a parent");
        let sibling = tree.sibling(node).expect("non-root node has a sibling");
        let cut = &tree.node(parent).cut_vertices;
        let Some(key) = self.arena.project_key(row, cut) else {
            // The match does not bind all cut vertices; this cannot happen
            // for leaf matches produced by the anchored matcher (leaves bind
            // every vertex of their subgraph), so treat it as a no-op.
            self.arena.release(row);
            return;
        };

        // Deduplicate and find the position that keeps the bucket in time
        // order when the row is stored below. A stream delivers matches in
        // time order, so the row usually sorts after the bucket's last and
        // is appended; otherwise membership is a binary search. A miss on
        // the key itself claims a recycled bucket vector from the free list
        // up front.
        let (insert_at, recycled) = match self.tables[node.0].get(&key) {
            Some(bucket) => {
                let bucket = bucket.live();
                let found = match bucket.last() {
                    Some(&last) if self.arena.cmp_rows(last, row).is_ge() => {
                        bucket.binary_search_by(|&r| self.arena.cmp_rows(r, row))
                    }
                    _ => Err(bucket.len()),
                };
                match found {
                    Ok(_) => {
                        // Duplicate: the row never entered a table, recycle it.
                        self.arena.release(row);
                        return;
                    }
                    Err(pos) => (pos, None),
                }
            }
            None => (0, Some(self.spare.pop().unwrap_or_default())),
        };

        // Probe the sibling's table with the same key and join (lines 4-7
        // of Algorithm 2). Failed joins (incompatible or out-of-window) are
        // rejected before any row is allocated, so only *stored* joins ever
        // touch the arena; root joins are reported in place. The
        // accumulator comes from the recycled-bucket free list: a freshly
        // collected vector here would put one heap allocation on every
        // joining insert.
        let at_root = parent == tree.root();
        let mut joined = if at_root {
            Vec::new()
        } else {
            self.spare.pop().unwrap_or_default()
        };
        if let Some(bucket) = self.tables[sibling.0].get(&key) {
            let bucket = bucket.live();
            // A sibling row whose `earliest` is at or before `latest(row) -
            // tw` spans the window with `row` whatever else it binds, and
            // those rows are a prefix of the time-ordered bucket: skip it.
            // Every row after it still goes through `joinable` unchanged.
            // Before the stream's first `tw` ticks nothing can be that old
            // (`checked_sub`; a saturating one would skip rows at time 0).
            let in_range = window
                .and_then(|tw| self.arena.latest(row).checked_sub(tw))
                .map_or(0, |oldest| {
                    bucket.partition_point(|&r| self.arena.earliest(r) <= oldest)
                });
            for &other in &bucket[in_range..] {
                if at_root {
                    self.arena.report_join(row, other, window, reported);
                } else if let Some(j) = self.arena.join_rows(row, other, window) {
                    joined.push(j);
                }
            }
        }

        // Store the new row at this node (line 12), preserving the bucket
        // order.
        let bucket = match recycled {
            Some(fresh) => self.tables[node.0]
                .entry(key)
                .or_insert(Bucket::from_vec(fresh)),
            None => self.tables[node.0]
                .get_mut(&key)
                .expect("bucket existed at the dedup probe above"),
        };
        self.inserted[node.0] += 1;
        if let Some(t) = trace.as_deref_mut() {
            t.record(node, self.arena.row_vertices(row));
        }
        bucket.insert(insert_at, row);
        if let Some(log) = self.log.as_mut() {
            log.push(Logged {
                earliest: self.arena.earliest(row),
                row,
                node: node.0 as u32,
            });
        }

        // Push successful joins up the tree (lines 8-11).
        for j in joined.drain(..) {
            self.insert_rows(tree, parent, j, window, reported, trace.as_deref_mut());
        }
        recycle(&mut self.spare, joined);
    }

    /// Number of partial matches currently stored at a node.
    pub fn live_matches(&self, node: NodeId) -> usize {
        self.tables[node.0].values().map(Bucket::len).sum()
    }

    /// Number of partial matches currently stored across all nodes — the sum
    /// of [`MatchStore::live_matches`] over every node, in O(1).
    pub fn live_rows(&self) -> usize {
        self.arena.live()
    }

    /// The earliest timestamp of the oldest stored row (`None` when the
    /// store is empty), read off every bucket's front row — a diagnostic
    /// for the expiry tests, O(buckets).
    pub fn oldest(&self) -> Option<Timestamp> {
        self.tables
            .iter()
            .flat_map(|t| t.values())
            .filter_map(|b| b.live().first())
            .map(|&r| self.arena.earliest(r))
            .min()
            .map(Timestamp)
    }

    /// Total matches ever inserted at a node.
    pub fn total_inserted(&self, node: NodeId) -> u64 {
        self.inserted[node.0]
    }

    /// Total matches ever inserted across all nodes (the per-edge delta of
    /// this is what the shared join stage reports as deduplicated insert
    /// work, and the denominator of the allocs-per-stored-match ceilings in
    /// `tests/integration_scratch.rs`).
    pub fn lifetime_inserted(&self) -> u64 {
        self.inserted.iter().sum()
    }

    /// Decoded copies of the matches stored at a node, in bucket-iteration
    /// order (test/diagnostic helper — it materializes every match).
    pub fn decoded_at(&self, node: NodeId) -> Vec<SubgraphMatch> {
        self.tables[node.0]
            .values()
            .flat_map(Bucket::live)
            .map(|&r| self.arena.layout().materialize(self.arena.row(r)))
            .collect()
    }

    /// The sweep: one pass over every bucket, which is how the engines'
    /// stores expire, on the shard's purge cadence (a store with an expiry
    /// log runs [`MatchStore::expire`] instead). With `window = Some(tw)`,
    /// removes every stored partial match that is expired: its earliest
    /// edge is older than `latest - tw`, so by the time any future edge —
    /// with timestamp ≥ `latest` — could join it, the join already spans the
    /// window. Those rows are the time-ordered prefix of each bucket, so
    /// each bucket loses a prefix and keeps its order.
    ///
    /// A windowed store does not probe the graph: while the graph retains
    /// at least every store's window (the control plane's retention rule,
    /// and `graph` has slid to `latest`), no row inside its window can
    /// reference an expired edge. Debug builds assert that over every
    /// survivor. Without a window, every row that is dead — references an
    /// edge no longer in `graph` — is removed instead (`retain`, which
    /// keeps relative order).
    ///
    /// Removed rows go back to the arena free list, emptied buckets to the
    /// bucket free list. Returns the number removed.
    pub fn purge(&mut self, graph: &DynamicGraph, latest: Timestamp, window: Option<u64>) -> usize {
        // Split the arena so the predicates can read `data` while removed
        // rows push onto `free`.
        let (layout, stride) = (self.arena.layout(), self.arena.stride);
        let RowArena { data, free, .. } = &mut self.arena;
        let cutoff = window.map(|tw| latest.0.saturating_sub(tw));
        let row = |r: u32| &data[r as usize * stride..][..stride];
        let live = |r: u32| {
            row(r)[..layout.edges]
                .iter()
                .all(|&e| e == UNBOUND || graph.contains_edge(EdgeId(e)))
        };
        let mut removed = 0;
        for table in &mut self.tables {
            table.retain(|_, bucket| {
                let before = bucket.len();
                match cutoff {
                    Some(cutoff) => {
                        let expired = bucket
                            .live()
                            .partition_point(|&r| layout.earliest(row(r)) < cutoff);
                        free.extend_from_slice(&bucket.live()[..expired]);
                        bucket.drop_front(expired);
                        debug_assert!(
                            bucket.live().iter().all(|&r| live(r)),
                            "a row inside its window references an expired edge: \
                             the graph must retain at least every store's window"
                        );
                    }
                    None => bucket.retain(|&r| {
                        let keep = live(r);
                        if !keep {
                            free.push(r);
                        }
                        keep
                    }),
                }
                removed += before - bucket.len();
                // An emptied bucket leaves the table but its capacity goes
                // to the free list — window expiry returns memory to the
                // store, not the allocator.
                if bucket.is_empty() {
                    recycle(&mut self.spare, std::mem::take(&mut bucket.words));
                    false
                } else {
                    true
                }
            });
        }
        removed
    }

    /// Clears every table, recycling every bucket vector and resetting the
    /// whole arena — no live rows remain, so the slab restarts empty with
    /// its capacity preserved.
    pub fn clear(&mut self) {
        for table in &mut self.tables {
            for (_, bucket) in table.drain() {
                recycle(&mut self.spare, bucket.into_vec());
            }
        }
        self.arena.data.clear();
        self.arena.free.clear();
        if let Some(log) = self.log.as_mut() {
            log.clear();
        }
    }

    /// Sets the window the store is expired by. With `Some(tw)` the store
    /// keeps an expiry log, sized for `tw`: every stored row is logged — the
    /// rows already stored on the spot, every later one as it is stored —
    /// and the owner expires the store with [`MatchStore::expire`] instead of
    /// sweeping it with [`MatchStore::purge`]. With `None` the log is
    /// dropped. A window that keeps the log's slot width keeps the log.
    pub fn set_expiry_window(&mut self, window: Option<u64>) {
        let Some(tw) = window else {
            self.log = None;
            return;
        };
        let shift = ExpiryLog::shift_for(tw);
        if self.log.as_ref().is_some_and(|log| log.shift == shift) {
            return;
        }
        let entries: Vec<Logged> = match &self.log {
            Some(log) => log.entries().collect(),
            None => self
                .tables
                .iter()
                .enumerate()
                .flat_map(|(node, table)| {
                    table
                        .values()
                        .flat_map(Bucket::live)
                        .map(move |&row| (node, row))
                })
                .map(|(node, row)| Logged {
                    earliest: self.arena.earliest(row),
                    row,
                    node: node as u32,
                })
                .collect(),
        };
        self.log = Some(ExpiryLog::new(tw, entries));
    }

    /// Drops every stored row whose earliest edge is older than `cutoff`
    /// (`latest - tw` for a window `tw`, the sweep's cutoff) and returns how
    /// many. Only the buckets the expiry log names are visited: each log
    /// entry older than `cutoff` re-projects its row's join key and drops
    /// the expired prefix of that bucket. The entry's row may have left
    /// already with a prefix an earlier entry dropped, and its id may have
    /// been reused since; the entry then drops only rows that are expired
    /// anyway. Removed rows go back to the arena free list, emptied buckets
    /// to the bucket free list. Without a log
    /// ([`MatchStore::set_expiry_window`]) nothing happens.
    ///
    /// Afterwards no row older than `cutoff` is stored, since every row
    /// was logged with its own `earliest`; debug builds check it on every
    /// bucket's oldest row.
    pub fn expire(&mut self, tree: &SjTree, cutoff: u64) -> usize {
        let Some(log) = self.log.as_mut() else {
            return 0;
        };
        let mut removed = 0;
        while let Some(entry) = log.pop_before(cutoff) {
            let node = NodeId(entry.node as usize);
            let parent = tree.parent(node).expect("stored rows sit below the root");
            let Some(key) = self
                .arena
                .project_key(entry.row, &tree.node(parent).cut_vertices)
            else {
                continue;
            };
            let Entry::Occupied(mut bucket) = self.tables[node.0].entry(key) else {
                continue;
            };
            // Mostly the entry's own row is the bucket's oldest, and its
            // words are warm from the projection: drop it alone. Otherwise
            // (a row of equal `earliest` sorts first, or the entry is
            // stale) walk the expired prefix.
            let live = bucket.get().live();
            let expired = if live[0] == entry.row && self.arena.earliest(entry.row) < cutoff {
                1
            } else {
                live.iter()
                    .take_while(|&&r| self.arena.earliest(r) < cutoff)
                    .count()
            };
            if expired == 0 {
                continue;
            }
            self.arena
                .free
                .extend_from_slice(&bucket.get().live()[..expired]);
            bucket.get_mut().drop_front(expired);
            removed += expired;
            if bucket.get().is_empty() {
                recycle(&mut self.spare, bucket.remove().into_vec());
            }
        }
        debug_assert!(
            self.tables.iter().flat_map(|t| t.values()).all(|b| b
                .live()
                .first()
                .is_none_or(|&r| self.arena.earliest(r) >= cutoff)),
            "a row older than the expiry cutoff outlived expire"
        );
        removed
    }

    /// Drops the tables a shared prefix of `depth` leading leaves makes
    /// redundant: the prefix leaves and every internal node *strictly below*
    /// the prefix root ([`SjTree::prefix_root`]). The prefix root's own table
    /// stays — it takes the rows the shared stage delivers and is what the
    /// remaining leaves join against. Lifetime-inserted counters are left
    /// intact. Used when a live query (or a trie node of the shared join
    /// stage) migrates onto a shared table whose contents are rebuilt by
    /// replaying the retained graph, so the covered state does not linger
    /// until window expiry. A `depth` of 0 clears nothing.
    pub fn clear_below_prefix(&mut self, tree: &SjTree, depth: usize) {
        for rank in 0..depth {
            self.clear_node(tree.leaf(rank));
        }
        for below in 2..depth {
            self.clear_node(tree.prefix_root(below));
        }
    }

    /// Clears the table of one node, leaving its lifetime-inserted counter
    /// intact.
    fn clear_node(&mut self, node: NodeId) {
        for (_, bucket) in self.tables[node.0].drain() {
            self.arena.free.extend_from_slice(bucket.live());
            recycle(&mut self.spare, bucket.into_vec());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{EdgeId, EdgeType, Schema, VertexId};
    use sp_query::{QueryEdgeId, QueryGraph, QuerySubgraph, QueryVertexId};

    /// The live partial-match count, read both ways: the O(1) arena count
    /// must agree with the walk over every bucket wherever a test looks.
    fn live(store: &MatchStore) -> usize {
        let walked = (0..store.inserted.len())
            .map(|n| store.live_matches(NodeId(n)))
            .sum();
        assert_eq!(store.live_rows(), walked);
        walked
    }

    /// The production entry: encode the match into the arena, insert it by
    /// row id, collect the reported root joins as raw rows.
    fn insert_reporting_rows(
        store: &mut MatchStore,
        tree: &SjTree,
        node: NodeId,
        m: &SubgraphMatch,
        window: Option<u64>,
        rows: &mut Vec<u64>,
    ) {
        let row = store.encode(m);
        store.insert_row(tree, node, row, window, rows, None);
    }

    /// Materializes a flat buffer of reported rows.
    fn materialized(rows: &[u64], layout: RowLayout) -> Vec<SubgraphMatch> {
        layout.materialize_all(rows).collect()
    }

    /// The bucket invariant, read off the raw rows (not through
    /// `cmp_rows`): every bucket is strictly ascending by `(earliest, full
    /// row)` — time-ordered, and free of duplicates.
    fn assert_buckets_time_ordered(store: &MatchStore) {
        let layout = store.row_layout();
        for bucket in store.tables.iter().flat_map(|t| t.values()) {
            let keys: Vec<(u64, &[u64])> = bucket
                .live()
                .iter()
                .map(|&r| (layout.earliest(store.arena.row(r)), store.arena.row(r)))
                .collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "bucket out of (earliest, row) order or holding a duplicate: {keys:?}"
            );
        }
    }

    /// Deterministic Fisher–Yates shuffle (64-bit LCG), one order per seed.
    fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
        let mut state = seed;
        for i in (1..items.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            items.swap(i, (state >> 33) as usize % (i + 1));
        }
        items
    }

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

    /// Query: v0 -t0-> v1 -t1-> v2 -t2-> v3, three single-edge leaves; the
    /// internal node joins leaves 0 and 1.
    fn three_leaf_tree() -> SjTree {
        let mut q = QueryGraph::new("p3");
        let v: Vec<_> = (0..4).map(|_| q.add_any_vertex()).collect();
        for i in 0..3 {
            q.add_edge(v[i], v[i + 1], EdgeType(i as u32));
        }
        let leaves = (0..3)
            .map(|i| QuerySubgraph::from_edges(&q, [QueryEdgeId(i)]))
            .collect();
        SjTree::from_leaves(q, leaves)
    }

    /// A leaf-2 match of [`three_leaf_tree`] binding v2->c, v3->d via data
    /// edge e.
    fn leaf2_match(c: u64, d: u64, e: u64, ts: u64) -> SubgraphMatch {
        let mut m = SubgraphMatch::new();
        assert!(m.bind_vertex(QueryVertexId(2), VertexId(c)));
        assert!(m.bind_vertex(QueryVertexId(3), VertexId(d)));
        assert!(m.bind_edge(QueryEdgeId(2), EdgeId(e), Timestamp(ts)));
        m
    }

    /// An unwindowed graph holding `n` live edges with ids `0..n`, so that
    /// matches built over those ids pass `purge`'s liveness probe.
    fn graph_with_edges(n: u64) -> DynamicGraph {
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t0 = schema.intern_edge_type("t0");
        let mut g = DynamicGraph::new(schema);
        let (a, b) = (g.add_vertex(vt), g.add_vertex(vt));
        for _ in 0..n {
            g.add_edge(a, b, t0, Timestamp(0));
        }
        g
    }

    /// A fresh row of a 2-edge / 6-vertex arena binding query edge 0 and
    /// query vertex `i` to data vertex `vertices[i]`; the other slots stay
    /// unbound.
    fn vertex_row(arena: &mut RowArena, vertices: &[u64]) -> u32 {
        let mut m = SubgraphMatch::new();
        assert!(m.bind_edge(QueryEdgeId(0), EdgeId(1), Timestamp(1)));
        for (i, &v) in vertices.iter().enumerate() {
            assert!(m.bind_vertex(QueryVertexId(i), VertexId(v)));
        }
        arena.alloc_with(|layout, row| layout.write(&m, row))
    }

    fn cut(vertices: &[usize]) -> Vec<QueryVertexId> {
        vertices.iter().map(|&i| QueryVertexId(i)).collect()
    }

    #[test]
    fn project_key_interns_small_cuts_inline_and_spills_large_ones() {
        let mut arena = RowArena::new(2, 6);
        let row = vertex_row(&mut arena, &[10, 11, 12, 13, 14]);
        let key = |vertices: &[usize]| arena.project_key(row, &cut(vertices));
        // ≤ JOIN_KEY_INLINE cut vertices: inline, in cut order, no heap key.
        let small = key(&[2, 0]).unwrap();
        assert_eq!(
            small,
            JoinKey::Inline(2, [VertexId(12), VertexId(10), VertexId(0)])
        );
        // Same projection, same key — and a different order differs.
        assert_eq!(Some(small.clone()), key(&[2, 0]));
        assert_ne!(Some(small), key(&[0, 2]));
        // Oversized cuts spill to the Vec representation.
        assert_eq!(
            key(&[0, 1, 2, 3]),
            Some(JoinKey::Spilled(
                [10, 11, 12, 13].into_iter().map(VertexId).collect()
            ))
        );
        // An unbound cut vertex (slot 5) fails the projection on both
        // branches.
        assert_eq!(key(&[5]), None);
        assert_eq!(key(&[0, 1, 2, 5]), None);
        assert_eq!(
            key(&[]),
            Some(JoinKey::Inline(0, [VertexId(0); JOIN_KEY_INLINE]))
        );
    }

    #[test]
    fn equal_join_keys_hash_equal_under_the_store_hasher() {
        use std::hash::BuildHasher;
        // Two different rows that agree on the cut: the hash-join probe
        // relies on their keys landing in the same bucket.
        let mut arena = RowArena::new(2, 6);
        let r1 = vertex_row(&mut arena, &[10, 11, 12, 13, 14, 77]);
        let r2 = vertex_row(&mut arena, &[10, 11, 12, 13, 14, 78]);
        let state = sp_graph::FastState::default();
        for vertices in [vec![], vec![1], vec![3, 0], vec![0, 1, 2, 3, 4]] {
            let narrow = cut(&vertices);
            let k1 = arena.project_key(r1, &narrow).unwrap();
            let k2 = arena.project_key(r2, &narrow).unwrap();
            assert_eq!(
                matches!(k1, JoinKey::Inline(..)),
                narrow.len() <= JOIN_KEY_INLINE
            );
            assert_eq!(k1, k2);
            assert_eq!(state.hash_one(&k1), state.hash_one(&k2));
            // A cut that reaches the vertex they disagree on separates them.
            let mut wider = narrow.clone();
            wider.push(QueryVertexId(5));
            let w1 = arena.project_key(r1, &wider).unwrap();
            let w2 = arena.project_key(r2, &wider).unwrap();
            assert_ne!(w1, w2);
            assert_ne!(state.hash_one(&w1), state.hash_one(&w2));
            assert_ne!(state.hash_one(&w1), state.hash_one(&k1));
        }
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
        assert_eq!(live(&store), 0);
    }

    #[test]
    fn three_leaf_tree_joins_recursively() {
        let tree = three_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();

        let m0 = leaf0_match(10, 11, 100, 1);
        let m1 = leaf1_match(11, 12, 101, 2);
        let m2 = leaf2_match(12, 13, 102, 3);

        store.insert(&tree, tree.leaf(0), m0, None, &mut complete);
        store.insert(&tree, tree.leaf(1), m1, None, &mut complete);
        assert!(complete.is_empty());
        // The intermediate join (leaves 0+1) is stored at the internal node.
        let internal = tree.parent(tree.leaf(0)).unwrap();
        assert_eq!(store.live_matches(internal), 1);
        store.insert(&tree, tree.leaf(2), m2, None, &mut complete);
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[0].num_edges(), 3);
        // Three leaf rows plus the stored join; clearing one node's table
        // releases exactly its rows.
        assert_eq!(live(&store), 4);
        store.clear_node(tree.leaf(0));
        assert_eq!(live(&store), 3);
        // A depth-2 prefix makes its two leaves redundant and keeps its root
        // (the stored join); at depth 3 that join sits below the prefix root.
        store.clear_below_prefix(&tree, 0);
        assert_eq!(live(&store), 3);
        store.clear_below_prefix(&tree, 2);
        assert_eq!((live(&store), store.live_matches(internal)), (2, 1));
        store.clear_below_prefix(&tree, 3);
        assert_eq!(live(&store), 0);
    }

    #[test]
    fn encode_bindings_writes_the_row_encode_would() {
        let tree = two_leaf_tree();
        let m = leaf0_match(10, 11, 100, 7);
        let mut reported = Vec::new();
        for from_bindings in [false, true] {
            let mut store = MatchStore::new(&tree);
            let row = if from_bindings {
                store.encode_bindings(
                    m.edge_pairs().map(|(q, d)| (q, d.0)),
                    m.vertex_pairs().map(|(q, d)| (q, d.0)),
                    7,
                    7,
                )
            } else {
                store.encode(&m)
            };
            store.insert_row(&tree, tree.leaf(0), row, None, &mut reported, None);
            assert_eq!(store.decoded_at(tree.leaf(0)), vec![m.clone()]);
        }
        assert!(reported.is_empty());
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
        assert_eq!(live(&store), 2);
        // Both matches are live in the graph; only the window expires one.
        let removed = store.purge(&graph_with_edges(102), Timestamp(100), Some(50));
        assert_eq!(removed, 1);
        assert_eq!(live(&store), 1);
    }

    #[test]
    fn purge_dead_drops_matches_with_expired_edges() {
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
        assert_eq!(store.purge(&g, Timestamp(1), None), 0);
        // Slide the window far forward; the old edge disappears.
        g.add_edge(a, b, t0, Timestamp(1000));
        g.expire();
        assert_eq!(store.purge(&g, Timestamp(1000), None), 1);
        assert_eq!(live(&store), 0);
    }

    #[test]
    fn single_pass_purge_matches_the_two_pass_result() {
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
        // Two passes: liveness only (no window), then expiry against a
        // graph in which every remaining match is live.
        let removed_double = double.purge(&g, Timestamp(100), None)
            + double.purge(&graph_with_edges(1_000), Timestamp(100), Some(60));
        assert_eq!(removed_single, removed_double);
        assert_eq!(removed_single, 2);
        assert_eq!(live(&single), 1);
        assert_eq!(live(&single), live(&double));
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
        assert_eq!(store.decoded_at(tree.leaf(1)).len(), FAN as usize);
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
        let removed = store.purge(&graph_with_edges(500), Timestamp(1_000), Some(10));
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
        assert_eq!(live(&store), 3);
        // `clear` recycles too.
        store.clear();
        assert_eq!(store.spare_buckets(), 8);
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
        assert_eq!(live(&store), 1);
        assert_eq!(store.live_matches(tree.leaf(0)), 1);
        assert_eq!(store.total_inserted(tree.leaf(0)), 1);
        store.clear();
        assert_eq!(live(&store), 0);
        // The inserted counters survive a clear (they are lifetime totals).
        assert_eq!(store.total_inserted(tree.leaf(0)), 1);
        assert!(store.decoded_at(tree.leaf(0)).is_empty());
    }

    // ---- against the brute-force oracle ----------------------------------

    /// Sorted multiset view of a match list for order-insensitive equality.
    fn multiset(mut ms: Vec<SubgraphMatch>) -> Vec<SubgraphMatch> {
        ms.sort();
        ms
    }

    /// The join of two materialized matches (Definition 3.1.3) through the
    /// public binding API: `b`'s bindings added to a copy of `a`, `None` on
    /// any conflict (a shared vertex bound apart, a non-injective union, a
    /// query edge bound twice or a data edge reused).
    fn oracle_join(a: &SubgraphMatch, b: &SubgraphMatch) -> Option<SubgraphMatch> {
        let mut out = a.clone();
        let vertices = b.vertex_pairs().all(|(q, d)| out.bind_vertex(q, d));
        let edges = b
            .edge_pairs()
            .all(|(q, d)| out.bind_edge(q, d, b.earliest()));
        out.restore_time_span((a.earliest().min(b.earliest()), a.latest().max(b.latest())));
        (vertices && edges).then_some(out)
    }

    /// Test-only reference for Algorithm 2 that shares no control flow with
    /// `insert_rows`. By Properties 2–3 a node holds the distinct in-window
    /// joins of its children's matches (plus whatever was inserted at it
    /// directly), so the expected state is a bottom-up fold of *all* inserts
    /// with materialized [`oracle_join`] + `within_window`, blind to
    /// arrival order, join keys, buckets and rows. Fills `per_node` with
    /// each node's sorted matches: distinct below the root, and at the root
    /// (whose joins are reported, never stored or deduplicated) the multiset
    /// of complete matches.
    fn oracle_fold(
        tree: &SjTree,
        node: NodeId,
        window: Option<u64>,
        inserts: &[(NodeId, SubgraphMatch)],
        per_node: &mut [Vec<SubgraphMatch>],
    ) {
        let in_window = |m: &SubgraphMatch| window.is_none_or(|tw| m.within_window(tw));
        let mut ms: Vec<SubgraphMatch> = inserts
            .iter()
            .filter(|(n, _)| *n == node)
            .map(|(_, m)| m.clone())
            .collect();
        let n = tree.node(node);
        if let (Some(l), Some(r)) = (n.left, n.right) {
            oracle_fold(tree, l, window, inserts, per_node);
            oracle_fold(tree, r, window, inserts, per_node);
            for a in &per_node[l.0] {
                ms.extend(
                    per_node[r.0]
                        .iter()
                        .filter_map(|b| oracle_join(a, b))
                        .filter(in_window),
                );
            }
        }
        ms.sort();
        if node != tree.root() {
            ms.dedup();
        }
        per_node[node.0] = ms;
    }

    /// Drives the insert sequence through a store and asserts the
    /// complete-match multiset, the stored matches and the live / inserted
    /// counters of every node against [`oracle_fold`]. Returns the number
    /// of complete matches, so callers can rule out a vacuous comparison.
    fn assert_matches_oracle(
        tree: &SjTree,
        window: Option<u64>,
        inserts: &[(NodeId, SubgraphMatch)],
    ) -> usize {
        // The adapter (`insert`) and the row-reporting entry the pipeline
        // uses run side by side, each on its own store.
        let mut store = MatchStore::new(tree);
        let mut by_row = MatchStore::new(tree);
        let (mut complete, mut rows) = (Vec::new(), Vec::new());
        for (node, m) in inserts {
            store.insert(tree, *node, m.clone(), window, &mut complete);
            insert_reporting_rows(&mut by_row, tree, *node, m, window, &mut rows);
            assert_buckets_time_ordered(&store);
            assert_buckets_time_ordered(&by_row);
        }
        let mut expected = vec![Vec::new(); tree.num_nodes()];
        oracle_fold(tree, tree.root(), window, inserts, &mut expected);
        let reported = complete.len();
        assert_eq!(
            multiset(materialized(&rows, by_row.row_layout())),
            expected[tree.root().0],
            "reported rows diverged from the oracle"
        );
        assert_eq!(live(&by_row), live(&store));
        assert_eq!(by_row.lifetime_inserted(), store.lifetime_inserted());
        assert_eq!(
            multiset(complete),
            expected[tree.root().0],
            "complete-match multisets diverged"
        );
        for n in (0..tree.num_nodes()).filter(|&n| NodeId(n) != tree.root()) {
            let node = NodeId(n);
            assert_eq!(
                multiset(store.decoded_at(node)),
                expected[n],
                "stored matches diverged at node {n}"
            );
            assert_eq!(store.live_matches(node), expected[n].len());
            assert_eq!(store.total_inserted(node), expected[n].len() as u64);
        }
        assert_eq!(
            live(&store),
            expected.iter().map(Vec::len).sum::<usize>() - expected[tree.root().0].len()
        );
        reported
    }

    /// The store's rows against the oracle's materialized
    /// `SubgraphMatch::join` fold.
    #[test]
    fn interned_store_matches_materialized_on_joins_and_duplicates() {
        let tree = two_leaf_tree();
        let (l0, l1) = (tree.leaf(0), tree.leaf(1));
        let mut inserts = Vec::new();
        // Fan-in, duplicates, a non-joining key and both arrival orders.
        for i in 0..20u64 {
            inserts.push((l1, leaf1_match(11, 100 + i, 1_000 + i, 2 + i)));
        }
        inserts.push((l1, leaf1_match(11, 100, 1_000, 2))); // duplicate
        inserts.push((l0, leaf0_match(10, 11, 5, 1)));
        inserts.push((l0, leaf0_match(10, 11, 5, 1))); // duplicate
        inserts.push((l0, leaf0_match(40, 41, 6, 1))); // never joins
        inserts.push((l0, leaf0_match(100, 11, 7, 4))); // injectivity clash with (11, 100)
        inserts.push((l0, leaf0_match(12, 11, 1_003, 3))); // reuses a data edge of leaf 1
        inserts.push((l1, leaf1_match(11, 200, 2_000, 3))); // late sibling

        // 21 distinct leaf-1 matches × the three leaf-0 matches on their
        // key, minus the injectivity and the edge-reuse clash; the window
        // drops more.
        let unwindowed = assert_matches_oracle(&tree, None, &inserts);
        let windowed = assert_matches_oracle(&tree, Some(10), &inserts);
        assert_eq!(unwindowed, 21 * 3 - 2);
        assert!(0 < windowed && windowed < unwindowed);
    }

    /// A three-leaf chain: the internal node's stored joins (dedup, window,
    /// injectivity across levels) and the root's reports, in several
    /// arrival orders.
    #[test]
    fn store_matches_oracle_on_a_three_leaf_tree_in_any_arrival_order() {
        let tree = three_leaf_tree();
        let mut inserts = Vec::new();
        for i in 0..4u64 {
            inserts.push((tree.leaf(0), leaf0_match(50 + i, 11, 100 + i, i)));
            inserts.push((tree.leaf(1), leaf1_match(11, 20 + i, 200 + i, 3 + i)));
            inserts.push((tree.leaf(2), leaf2_match(20 + i, 30 + i, 300 + i, 6 + i)));
            // Closes a cycle back onto leaf 0's source: injectivity must
            // reject it two levels up.
            inserts.push((tree.leaf(2), leaf2_match(20 + i, 50 + i, 400 + i, 7)));
        }
        inserts.push((tree.leaf(1), leaf1_match(11, 20, 200, 3))); // duplicate
        let mut counts = Vec::new();
        for window in [None, Some(6), Some(5)] {
            let in_order = assert_matches_oracle(&tree, window, &inserts);
            let mut reversed = inserts.clone();
            reversed.reverse();
            assert_eq!(assert_matches_oracle(&tree, window, &reversed), in_order);
            // Leaf by leaf, last leaf first.
            let mut by_leaf = inserts.clone();
            by_leaf.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
            assert_eq!(assert_matches_oracle(&tree, window, &by_leaf), in_order);
            counts.push(in_order);
        }
        // 4 × 4 chains plus the 4 × 3 cycle-free closures; tighter windows
        // report strictly fewer, but never nothing.
        assert_eq!(counts[0], 16 + 12);
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > 0);
    }

    /// The time-ordered probe against the oracle: one hub (`v1 = 11`) seen
    /// for five windows, so most rows of a probed sibling bucket are out of
    /// range; equal timestamps inside a bucket, duplicates, rows older than
    /// one window (`t < tw`, where the probe range must start at 0) and
    /// arrival orders with no relation to time.
    #[test]
    fn windowed_store_matches_oracle_under_shuffled_out_of_order_arrival() {
        let tree = three_leaf_tree();
        let mut inserts = Vec::new();
        for t in 0..40u64 {
            inserts.push((tree.leaf(0), leaf0_match(100 + t, 11, 1_000 + t, t)));
            inserts.push((tree.leaf(1), leaf1_match(11, 20 + t % 4, 2_000 + t, t)));
            inserts.push((tree.leaf(2), leaf2_match(20 + t % 4, 300 + t, 3_000 + t, t)));
            if t % 3 == 0 {
                // A second row of the hub bucket at an equal timestamp, and
                // a duplicate of the first.
                inserts.push((tree.leaf(0), leaf0_match(200 + t, 11, 4_000 + t, t)));
                inserts.push((tree.leaf(0), leaf0_match(100 + t, 11, 1_000 + t, t)));
            }
        }
        let unwindowed = assert_matches_oracle(&tree, None, &inserts);
        for tw in [8, 1] {
            let in_order = assert_matches_oracle(&tree, Some(tw), &inserts);
            assert!(0 < in_order && in_order * 4 < unwindowed);
            let mut reversed = inserts.clone();
            reversed.reverse();
            assert_eq!(assert_matches_oracle(&tree, Some(tw), &reversed), in_order);
            for seed in 1..=6 {
                let order = shuffled(inserts.clone(), seed);
                assert_eq!(assert_matches_oracle(&tree, Some(tw), &order), in_order);
            }
        }
    }

    /// Purge on shuffled, duplicate-laden buckets: exactly the rows a
    /// brute-force filter removes go — the dead rows scattered through the
    /// buckets in an unwindowed purge, then the expired prefix in windowed
    /// ones — the order invariant survives, and so does the dedup — before
    /// and after.
    #[test]
    fn purge_keeps_buckets_time_ordered_and_dedup_exact() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        // Edge ids 0..60 are live in the graph, 60..90 are dead.
        let graph = graph_with_edges(60);
        let rows: Vec<SubgraphMatch> = (0..90u64)
            .map(|i| leaf1_match(11 + i % 2, 100 + i, (i * 37) % 90, i / 3))
            .collect();
        let mut arrivals = rows.clone();
        arrivals.extend(rows.iter().step_by(4).cloned());
        for m in shuffled(arrivals, 7) {
            store.insert(&tree, tree.leaf(1), m, Some(10), &mut complete);
            assert_buckets_time_ordered(&store);
        }
        assert_eq!(live(&store), rows.len());

        let survives = |m: &SubgraphMatch, cutoff: u64| {
            m.time_span().0 .0 >= cutoff && m.edge_pairs().all(|(_, e)| e.0 < 60)
        };
        // A windowed purge does not probe the graph, so the dead rows go
        // first, in an unwindowed one.
        let before = store.decoded_at(tree.leaf(1));
        let removed = store.purge(&graph, Timestamp(22), None);
        assert_buckets_time_ordered(&store);
        let expected: Vec<_> = before.into_iter().filter(|m| survives(m, 0)).collect();
        assert_eq!(removed, rows.len() - expected.len());
        assert!(removed > 0);
        assert_eq!(multiset(store.decoded_at(tree.leaf(1))), multiset(expected));
        for (latest, tw) in [(15, 10), (22, 10), (22, 4)] {
            let before = store.decoded_at(tree.leaf(1));
            let removed = store.purge(&graph, Timestamp(latest), Some(tw));
            assert_buckets_time_ordered(&store);
            let expected: Vec<_> = before
                .into_iter()
                .filter(|m| survives(m, latest - tw))
                .collect();
            assert!(removed > 0 && !expected.is_empty());
            assert_eq!(multiset(store.decoded_at(tree.leaf(1))), multiset(expected));
        }
        // Every survivor is still found by the dedup, in any arrival order;
        // a fresh row at an old timestamp still sorts into place.
        let kept = live(&store);
        for m in shuffled(rows, 3) {
            if survives(&m, 18) {
                store.insert(&tree, tree.leaf(1), m, Some(10), &mut complete);
            }
        }
        assert_eq!(live(&store), kept);
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 999, 0, 19),
            Some(10),
            &mut complete,
        );
        assert_eq!(live(&store), kept + 1);
        assert_buckets_time_ordered(&store);
    }

    /// A windowed purge trusts the graph to retain its window and asserts
    /// it in debug builds: a survivor whose edge the graph no longer holds
    /// means retention fell short of the store's window.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "references an expired edge")]
    fn windowed_purge_asserts_every_survivor_is_live() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let m = leaf0_match(10, 11, 5, 90);
        store.insert(&tree, tree.leaf(0), m, Some(50), &mut Vec::new());
        // Edge 5 is not in the graph; the row (earliest 90) is in window.
        store.purge(&graph_with_edges(5), Timestamp(100), Some(50));
    }

    #[test]
    fn interned_store_handles_single_node_trees() {
        // The row-emitting entry point on a single-node tree: the inserted
        // match is the emission, subject to the window, and nothing is
        // stored.
        let mut q = QueryGraph::new("wedge");
        let v: Vec<_> = (0..3).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], EdgeType(0));
        q.add_edge(v[1], v[2], EdgeType(1));
        let tree =
            SjTree::from_leaves(q.clone(), vec![QuerySubgraph::from_edges(&q, q.edge_ids())]);
        let wedge = |ts1: u64| {
            let mut m = leaf0_match(1, 2, 7, 0);
            assert!(m.bind_vertex(QueryVertexId(2), VertexId(3)));
            assert!(m.bind_edge(QueryEdgeId(1), EdgeId(8), Timestamp(ts1)));
            m
        };
        for window in [None, Some(50)] {
            let mut store = MatchStore::new(&tree);
            let layout = store.row_layout();
            let (mut complete, mut rows) = (Vec::new(), Vec::new());
            for m in [wedge(10), wedge(90)] {
                store.insert(&tree, tree.root(), m.clone(), window, &mut complete);
                insert_reporting_rows(&mut store, &tree, tree.root(), &m, window, &mut rows);
            }
            assert_eq!(materialized(&rows, layout), complete);
            assert_eq!(complete.len(), if window.is_some() { 1 } else { 2 });
            assert_eq!(live(&store), 0);
        }
    }

    #[test]
    fn interned_purge_recycles_rows_and_buckets() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
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
        let removed = store.purge(&graph_with_edges(500), Timestamp(1_000), Some(10));
        assert_eq!(removed, 8);
        assert_eq!(store.spare_buckets(), 8);
        // Freed rows are reused: eight more inserts and the arena has not
        // grown past its 8-row high-water mark.
        let words_before = store.arena.data.len();
        for i in 0..8u64 {
            store.insert(
                &tree,
                tree.leaf(0),
                leaf0_match(200 + i, 300 + i, 400 + i, 2_000),
                None,
                &mut complete,
            );
        }
        assert_eq!(store.arena.data.len(), words_before);
        assert_eq!(live(&store), 8);
    }

    #[test]
    fn interned_purge_dead_probes_the_graph() {
        // A stored join row binds two edge slots and leaves the third
        // unbound: the liveness probe must visit every bound slot (one dead
        // edge of two kills the row) and skip the unbound one.
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t0 = schema.intern_edge_type("t0");
        let mut g = DynamicGraph::new(schema);
        let vs: Vec<_> = (0..3).map(|_| g.add_vertex(vt)).collect();
        let e0 = g.add_edge(vs[0], vs[1], t0, Timestamp(1));
        let e1 = g.add_edge(vs[1], vs[2], t0, Timestamp(2));

        let tree = three_leaf_tree();
        let internal = tree.parent(tree.leaf(0)).unwrap();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        let m0 = leaf0_match(vs[0].0, vs[1].0, e0.0, 1);
        let m1 = leaf1_match(vs[1].0, vs[2].0, e1.0, 2);
        store.insert(&tree, tree.leaf(0), m0, None, &mut complete);
        store.insert(&tree, tree.leaf(1), m1, None, &mut complete);
        assert_eq!(store.live_matches(internal), 1);
        assert_eq!(store.purge(&g, Timestamp(2), None), 0);
        g.remove_edge(e0).unwrap();
        // Leaf 0's row and the join row die; leaf 1's row survives.
        assert_eq!(store.purge(&g, Timestamp(2), None), 2);
        assert_eq!(store.live_matches(internal), 0);
        assert_eq!(store.live_matches(tree.leaf(1)), 1);
    }

    #[test]
    fn interned_rows_handle_spilled_width_queries() {
        // A 9-edge path: 10 vertex bindings — past MATCH_INLINE_BINDINGS, so
        // a `SubgraphMatch` of it spills to the heap while the stored rows
        // stay fixed-width. Semantics must match the oracle's.
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
        let inserts: Vec<(NodeId, SubgraphMatch)> = (0..LEN)
            .map(|i| (tree.leaf(i), edge_match(i, 500)))
            .collect();
        // Timestamps 0..LEN span LEN - 1: a window of LEN admits the match,
        // LEN - 1 does not.
        assert_eq!(assert_matches_oracle(&tree, None, &inserts), 1);
        assert_eq!(assert_matches_oracle(&tree, Some(LEN as u64), &inserts), 1);
        assert_eq!(
            assert_matches_oracle(&tree, Some(LEN as u64 - 1), &inserts),
            0
        );

        // And explicitly: the store emits the full 10-vertex match.
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        for (node, m) in &inserts {
            store.insert(&tree, *node, m.clone(), None, &mut complete);
        }
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[0].num_vertices(), LEN + 1);
        assert_eq!(complete[0].num_edges(), LEN);
        assert!(!complete[0].bindings_inline(), "this width must spill");
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
            let mut as_matches = MatchStore::new(&tree);
            let mut as_rows = MatchStore::new(&tree);
            let layout = as_rows.row_layout();
            assert_eq!((layout.edges, layout.vertices, layout.stride()), (2, 3, 7));
            let (mut complete, mut rows) = (Vec::new(), Vec::new());
            for (rank, m) in &inserts {
                let node = tree.leaf(*rank);
                as_matches.insert(&tree, node, m.clone(), window, &mut complete);
                insert_reporting_rows(&mut as_rows, &tree, node, m, window, &mut rows);
            }
            // Same joins, same emission order.
            assert_eq!(materialized(&rows, layout), complete);
            assert!(!complete.is_empty());
            assert_eq!(as_rows.lifetime_inserted(), as_matches.lifetime_inserted());
        }
    }

    #[test]
    fn prefix_rows_are_adopted_slot_for_slot() {
        // Parent: the 2-leaf prefix of a 3-edge path; child: the full path.
        // The parent's emitted rows enter the child at the join node
        // covering leaves 0..=1 and must behave exactly like the joined
        // matches themselves.
        let parent_tree = two_leaf_tree();
        let child_tree = three_leaf_tree();
        let consume = child_tree.parent(child_tree.leaf(1)).unwrap();

        let mut parent = MatchStore::new(&parent_tree);
        let from = parent.row_layout();
        let mut parent_rows = Vec::new();
        let mut parent_matches = Vec::new();
        let mut reference_parent = MatchStore::new(&parent_tree);
        for (rank, m) in [
            (0, leaf0_match(10, 11, 100, 1)),
            (1, leaf1_match(11, 12, 101, 2)),
            (1, leaf1_match(11, 13, 102, 3)),
        ] {
            let node = parent_tree.leaf(rank);
            insert_reporting_rows(&mut parent, &parent_tree, node, &m, None, &mut parent_rows);
            reference_parent.insert(&parent_tree, node, m, None, &mut parent_matches);
        }
        assert_eq!(parent_matches.len(), 2);

        let mut child = MatchStore::new(&child_tree);
        let mut reference = MatchStore::new(&child_tree);
        let (mut rows, mut complete) = (Vec::new(), Vec::new());
        // A suffix match that arrived first, then the parent's emissions
        // (fed twice: the second round must dedup), then another suffix.
        insert_reporting_rows(
            &mut child,
            &child_tree,
            child_tree.leaf(2),
            &leaf2_match(12, 14, 200, 4),
            None,
            &mut rows,
        );
        reference.insert(
            &child_tree,
            child_tree.leaf(2),
            leaf2_match(12, 14, 200, 4),
            None,
            &mut complete,
        );
        for _ in 0..2 {
            for row in parent_rows.chunks_exact(from.stride()) {
                let adopted = child.adopt(row, from);
                child.insert_row(&child_tree, consume, adopted, None, &mut rows, None);
            }
            for m in &parent_matches {
                reference.insert(&child_tree, consume, m.clone(), None, &mut complete);
            }
        }
        insert_reporting_rows(
            &mut child,
            &child_tree,
            child_tree.leaf(2),
            &leaf2_match(13, 15, 201, 5),
            None,
            &mut rows,
        );
        reference.insert(
            &child_tree,
            child_tree.leaf(2),
            leaf2_match(13, 15, 201, 5),
            None,
            &mut complete,
        );

        assert_eq!(materialized(&rows, child.row_layout()), complete);
        assert_eq!(complete.len(), 2);
        assert_eq!(child.live_matches(consume), 2);
        assert_eq!(
            multiset(child.decoded_at(consume)),
            multiset(reference.decoded_at(consume))
        );
    }

    #[test]
    fn insert_trace_records_nodes_and_vertices() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut reported = Vec::new();
        let mut trace = InsertTrace::new();
        let row = store.encode(&leaf0_match(10, 11, 100, 1));
        store.insert_row(
            &tree,
            tree.leaf(0),
            row,
            None,
            &mut reported,
            Some(&mut trace),
        );
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.node(0), tree.leaf(0));
        assert_eq!(trace.vertices(0), &[VertexId(10), VertexId(11)]);
        trace.clear();
        assert!(trace.is_empty());
        // The joining insert stores at the leaf; the root join is
        // reported, not stored, so it is not traced.
        let row = store.encode(&leaf1_match(11, 12, 101, 2));
        store.insert_row(
            &tree,
            tree.leaf(1),
            row,
            None,
            &mut reported,
            Some(&mut trace),
        );
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.node(0), tree.leaf(1));
        assert_eq!(trace.vertices(0), &[VertexId(11), VertexId(12)]);
        assert_eq!(reported.len(), store.row_layout().stride());
    }
}
