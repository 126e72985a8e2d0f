//! The match representation shared by the matchers, the SJ-Tree and the
//! engine.

use sp_graph::{EdgeId, Timestamp, VertexId};
use sp_query::{QueryEdgeId, QueryVertexId};

/// Maximum number of cut vertices a [`JoinKey`] stores without a heap
/// allocation. Real decompositions join on one or two shared vertices; three
/// covers every tree the workspace builds.
pub const JOIN_KEY_INLINE: usize = 3;

/// Maximum number of vertex (and edge) bindings a [`SubgraphMatch`] stores
/// inline, without a heap allocation. Eight covers every query the built-in
/// workloads register (up to a 7-edge / 8-vertex pattern); larger hand-built
/// queries spill to a `Vec` transparently. The price is the value's size —
/// two inline maps make a `SubgraphMatch` 288 bytes — which is why the
/// pipeline moves fixed-width rows and builds this type only at the sink
/// ([`SubgraphMatch::from_sorted_bindings`]) and inside the anchored
/// search's working binding.
pub const MATCH_INLINE_BINDINGS: usize = 8;

/// Generates a sorted small-vec map: entries of up to
/// [`MATCH_INLINE_BINDINGS`] pairs live inline in the enum (no allocation),
/// larger maps spill to a `Vec`. The representation is canonical by length
/// (inline iff it fits), so the derived `Eq`/`Ord` are consistent; unused
/// inline slots are kept zeroed so the derived comparisons never read
/// garbage. Iteration order is ascending by key, matching the `BTreeMap`
/// these maps replaced.
macro_rules! small_sorted_map {
    ($name:ident, $k:ty, $v:ty, $zero:expr) => {
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
        enum $name {
            /// `(len, entries)`; slots at `len..` are zeroed.
            Inline(u8, [($k, $v); MATCH_INLINE_BINDINGS]),
            /// More than [`MATCH_INLINE_BINDINGS`] bindings.
            Spilled(Vec<($k, $v)>),
        }

        impl $name {
            fn new() -> Self {
                $name::Inline(0, [$zero; MATCH_INLINE_BINDINGS])
            }

            fn as_slice(&self) -> &[($k, $v)] {
                match self {
                    $name::Inline(n, entries) => &entries[..*n as usize],
                    $name::Spilled(v) => v.as_slice(),
                }
            }

            fn len(&self) -> usize {
                self.as_slice().len()
            }

            // Generated for both binding maps; only the edge map's emptiness
            // is semantically meaningful (`SubgraphMatch::is_empty`).
            #[allow(dead_code)]
            fn is_empty(&self) -> bool {
                self.len() == 0
            }

            fn get(&self, key: $k) -> Option<$v> {
                let slice = self.as_slice();
                slice
                    .binary_search_by_key(&key, |&(k, _)| k)
                    .ok()
                    .map(|i| slice[i].1)
            }

            fn iter(&self) -> impl Iterator<Item = ($k, $v)> + '_ {
                self.as_slice().iter().copied()
            }

            fn values(&self) -> impl Iterator<Item = $v> + '_ {
                self.as_slice().iter().map(|&(_, v)| v)
            }

            /// Inserts or overwrites, keeping the entries sorted by key.
            fn insert(&mut self, key: $k, value: $v) {
                match self.as_slice().binary_search_by_key(&key, |&(k, _)| k) {
                    Ok(i) => match self {
                        $name::Inline(_, entries) => entries[i].1 = value,
                        $name::Spilled(v) => v[i].1 = value,
                    },
                    Err(i) => self.insert_at(i, (key, value)),
                }
            }

            fn insert_at(&mut self, i: usize, entry: ($k, $v)) {
                match self {
                    $name::Inline(n, entries) if (*n as usize) < MATCH_INLINE_BINDINGS => {
                        let len = *n as usize;
                        entries.copy_within(i..len, i + 1);
                        entries[i] = entry;
                        *n += 1;
                    }
                    $name::Inline(n, entries) => {
                        let mut v: Vec<($k, $v)> = entries[..*n as usize].to_vec();
                        v.insert(i, entry);
                        *self = $name::Spilled(v);
                    }
                    $name::Spilled(v) => v.insert(i, entry),
                }
            }

            /// Removes `key` if present, keeping the entries sorted. The
            /// vacated inline slot is re-zeroed and a spilled map that fits
            /// inline again is converted back, so the representation stays
            /// canonical by length and derived comparisons stay consistent.
            fn remove(&mut self, key: $k) -> bool {
                let Ok(i) = self.as_slice().binary_search_by_key(&key, |&(k, _)| k) else {
                    return false;
                };
                match self {
                    $name::Inline(n, entries) => {
                        let len = *n as usize;
                        entries.copy_within(i + 1..len, i);
                        entries[len - 1] = $zero;
                        *n -= 1;
                    }
                    $name::Spilled(v) => {
                        v.remove(i);
                        if v.len() <= MATCH_INLINE_BINDINGS {
                            let len = v.len();
                            let mut inline = [$zero; MATCH_INLINE_BINDINGS];
                            inline[..len].copy_from_slice(v);
                            *self = $name::Inline(len as u8, inline);
                        }
                    }
                }
                true
            }

            /// Builds the map in one pass from entries given in strictly
            /// ascending key order: the entries fill a local array that is
            /// moved into `Inline` once, so nothing is written twice. The
            /// decode path of the interned match representation yields
            /// bindings in ascending slot (= key) order, which is what makes
            /// materializing a stored row this cheap; only the entry that
            /// outgrows the inline capacity takes the spilling path.
            #[inline]
            fn from_sorted(entries: impl IntoIterator<Item = ($k, $v)>) -> Self {
                let mut inline = [$zero; MATCH_INLINE_BINDINGS];
                let mut n = 0usize;
                let mut entries = entries.into_iter();
                for entry in entries.by_ref() {
                    debug_assert!(
                        n == 0 || inline[n - 1].0 < entry.0,
                        "from_sorted requires strictly ascending keys"
                    );
                    if n == MATCH_INLINE_BINDINGS {
                        let mut spilled = inline.to_vec();
                        spilled.push(entry);
                        spilled.extend(entries);
                        debug_assert!(
                            spilled.windows(2).all(|w| w[0].0 < w[1].0),
                            "from_sorted requires strictly ascending keys"
                        );
                        return $name::Spilled(spilled);
                    }
                    inline[n] = entry;
                    n += 1;
                }
                $name::Inline(n as u8, inline)
            }

            /// Resets to empty in place: an inline map re-zeroes only the
            /// slots it used, a spilled one drops its storage.
            fn clear(&mut self) {
                match self {
                    $name::Inline(n, entries) => {
                        entries[..*n as usize].fill($zero);
                        *n = 0;
                    }
                    $name::Spilled(_) => *self = $name::new(),
                }
            }

            fn is_inline(&self) -> bool {
                matches!(self, $name::Inline(..))
            }
        }
    };
}

small_sorted_map!(
    VertexBindings,
    QueryVertexId,
    VertexId,
    (QueryVertexId(0), VertexId(0))
);
small_sorted_map!(
    EdgeBindings,
    QueryEdgeId,
    EdgeId,
    (QueryEdgeId(0), EdgeId(0))
);

/// An interned hash-join key: the projection of a match onto a join node's
/// cut vertices ([`SubgraphMatch::project_key`]).
///
/// The partial-match store computes one key per inserted match (Property 4's
/// `GET-JOIN-KEY`), which made the `Vec<VertexId>` key the hottest
/// allocation of the SJ-Tree update path. Keys of up to
/// [`JOIN_KEY_INLINE`] vertices — all real cuts — are stored inline;
/// longer keys spill to a `Vec`. Construction is canonical by length
/// (inline iff it fits), so the derived `Eq`/`Hash` are consistent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinKey {
    /// At most [`JOIN_KEY_INLINE`] cut vertices, stored inline: the first
    /// field is the number of valid entries, unused slots are zeroed.
    Inline(u8, [VertexId; JOIN_KEY_INLINE]),
    /// More than [`JOIN_KEY_INLINE`] cut vertices (not produced by the
    /// built-in decompositions, but hand-built trees may).
    Spilled(Vec<VertexId>),
}

/// A match (possibly partial) between a query subgraph and a data subgraph.
///
/// Following Definition 3.1.2 a match is "a set of edge pairs", each pair
/// mapping a query edge to a data edge. The vertex binding is kept alongside
/// because every consistency check (injectivity, join compatibility, join-key
/// projection) is expressed on vertices. Bindings are stored in inline
/// small-vec maps ([`MATCH_INLINE_BINDINGS`] entries each), so building or
/// cloning a match does not allocate for any built-in workload query. This
/// is the caller-visible form of a match — what a sink receives — and the
/// anchored search's working binding; stored and in-flight matches are
/// fixed-width rows (`sp-sjtree`'s `RowLayout`).
/// The derived ordering (edge binding, then vertex binding, then time span)
/// has no semantic meaning; it exists so match collections can be sorted,
/// compared as multisets and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SubgraphMatch {
    edge_map: EdgeBindings,
    vertex_map: VertexBindings,
    earliest: Timestamp,
    latest: Timestamp,
}

impl Default for SubgraphMatch {
    fn default() -> Self {
        Self::new()
    }
}

impl SubgraphMatch {
    /// Creates an empty match.
    pub fn new() -> Self {
        Self {
            edge_map: EdgeBindings::new(),
            vertex_map: VertexBindings::new(),
            earliest: Timestamp(u64::MAX),
            latest: Timestamp(0),
        }
    }

    /// Builds a match directly from binding pairs given in strictly
    /// ascending key order (the order [`SubgraphMatch::edge_pairs`] /
    /// [`SubgraphMatch::vertex_pairs`] iterate), plus the precomputed time
    /// interval. This is the decode half of the interned (fixed-width row)
    /// match representation — the one place a row becomes a
    /// `SubgraphMatch`: the row stores bindings in ascending query-id slot
    /// order, so each binding map is filled in one pass and the value is
    /// constructed once, in the caller's frame (`#[inline]`), with no
    /// searching and no re-derivation of the interval.
    #[inline]
    pub fn from_sorted_bindings(
        edges: impl IntoIterator<Item = (QueryEdgeId, EdgeId)>,
        vertices: impl IntoIterator<Item = (QueryVertexId, VertexId)>,
        earliest: Timestamp,
        latest: Timestamp,
    ) -> Self {
        Self {
            edge_map: EdgeBindings::from_sorted(edges),
            vertex_map: VertexBindings::from_sorted(vertices),
            earliest,
            latest,
        }
    }

    /// `true` while both binding maps still fit their inline storage —
    /// i.e. no heap allocation backs this match. The high-fan-in regression
    /// tests assert this stays true for the workload queries, pinning the
    /// "no per-match allocation in the join stage" property.
    pub fn bindings_inline(&self) -> bool {
        self.edge_map.is_inline() && self.vertex_map.is_inline()
    }

    /// Number of matched edges.
    pub fn num_edges(&self) -> usize {
        self.edge_map.len()
    }

    /// Number of bound vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_map.len()
    }

    /// Returns `true` when nothing is bound yet.
    pub fn is_empty(&self) -> bool {
        self.edge_map.is_empty()
    }

    /// The data edge bound to a query edge, if any.
    pub fn data_edge(&self, q: QueryEdgeId) -> Option<EdgeId> {
        self.edge_map.get(q)
    }

    /// The data vertex bound to a query vertex, if any.
    pub fn data_vertex(&self, q: QueryVertexId) -> Option<VertexId> {
        self.vertex_map.get(q)
    }

    /// Iterates over the (query edge, data edge) pairs in query-edge order.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (QueryEdgeId, EdgeId)> + '_ {
        self.edge_map.iter()
    }

    /// Iterates over the (query vertex, data vertex) pairs in query-vertex
    /// order.
    pub fn vertex_pairs(&self) -> impl Iterator<Item = (QueryVertexId, VertexId)> + '_ {
        self.vertex_map.iter()
    }

    /// Returns `true` if the given data edge is used by this match.
    pub fn uses_data_edge(&self, e: EdgeId) -> bool {
        self.edge_map.values().any(|d| d == e)
    }

    /// Returns `true` if the given data vertex is bound by this match.
    pub fn uses_data_vertex(&self, v: VertexId) -> bool {
        self.vertex_map.values().any(|d| d == v)
    }

    /// Earliest timestamp among the matched edges (`u64::MAX` if empty).
    pub fn earliest(&self) -> Timestamp {
        self.earliest
    }

    /// Latest timestamp among the matched edges (`0` if empty).
    pub fn latest(&self) -> Timestamp {
        self.latest
    }

    /// The time interval τ(g) spanned by the matched edges (Section 2.1).
    pub fn duration(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.latest.saturating_since(self.earliest)
        }
    }

    /// Returns `true` when the match fits inside a time window of width `tw`.
    pub fn within_window(&self, tw: u64) -> bool {
        self.duration() < tw
    }

    /// Attempts to bind `query_vertex -> data_vertex`, enforcing consistency
    /// (a query vertex may only be bound once, to a single data vertex) and
    /// injectivity (two query vertices may not share a data vertex).
    pub fn bind_vertex(&mut self, q: QueryVertexId, d: VertexId) -> bool {
        match self.vertex_map.get(q) {
            Some(existing) => existing == d,
            None => {
                if self.vertex_map.values().any(|v| v == d) {
                    return false;
                }
                self.vertex_map.insert(q, d);
                true
            }
        }
    }

    /// Like [`SubgraphMatch::bind_vertex`], but reports what happened so a
    /// speculative caller knows what to undo: `None` = conflict (nothing
    /// changed), `Some(true)` = a new binding was inserted (undo with
    /// [`SubgraphMatch::unbind_vertex`]), `Some(false)` = the vertex was
    /// already bound to the same data vertex (nothing to undo).
    pub fn bind_vertex_tracked(&mut self, q: QueryVertexId, d: VertexId) -> Option<bool> {
        match self.vertex_map.get(q) {
            Some(existing) => (existing == d).then_some(false),
            None => {
                if self.vertex_map.values().any(|v| v == d) {
                    return None;
                }
                self.vertex_map.insert(q, d);
                Some(true)
            }
        }
    }

    /// Removes the binding of `q`, if any. Paired with
    /// [`SubgraphMatch::bind_vertex`] to extend a match speculatively in
    /// place instead of cloning it per candidate.
    pub fn unbind_vertex(&mut self, q: QueryVertexId) {
        self.vertex_map.remove(q);
    }

    /// Removes the binding of `q`, if any. The time interval is **not**
    /// recomputed (binds only widen it); callers snapshot
    /// [`SubgraphMatch::time_span`] before the bind and restore it after.
    pub fn unbind_edge(&mut self, q: QueryEdgeId) {
        self.edge_map.remove(q);
    }

    /// The `(earliest, latest)` interval, for snapshot/restore around
    /// speculative binds (binds only ever widen the interval, so undo is a
    /// plain restore).
    pub fn time_span(&self) -> (Timestamp, Timestamp) {
        (self.earliest, self.latest)
    }

    /// Restores an interval snapshot taken with
    /// [`SubgraphMatch::time_span`].
    pub fn restore_time_span(&mut self, span: (Timestamp, Timestamp)) {
        self.earliest = span.0;
        self.latest = span.1;
    }

    /// Resets to the empty match in place — the anchored searches do this
    /// once per seed, so inline maps re-zero only the slots they used.
    pub fn clear(&mut self) {
        self.edge_map.clear();
        self.vertex_map.clear();
        self.earliest = Timestamp(u64::MAX);
        self.latest = Timestamp(0);
    }

    /// Attempts to bind `query_edge -> data_edge`. Fails if either side is
    /// already bound (to anything else) — data edges may not be reused.
    pub fn bind_edge(&mut self, q: QueryEdgeId, d: EdgeId, timestamp: Timestamp) -> bool {
        if self.edge_map.get(q).is_some() || self.edge_map.values().any(|e| e == d) {
            return false;
        }
        self.edge_map.insert(q, d);
        if timestamp < self.earliest {
            self.earliest = timestamp;
        }
        if timestamp > self.latest {
            self.latest = timestamp;
        }
        true
    }

    /// Returns `true` when this match can be joined with `other`:
    ///
    /// * query vertices bound by both map to the same data vertex;
    /// * query edges are disjoint and data edges are disjoint;
    /// * the combined vertex binding stays injective.
    pub fn compatible_with(&self, other: &SubgraphMatch) -> bool {
        // Shared query vertices must agree; disjoint query vertices must not
        // collide on data vertices (injectivity of the union).
        for (qv, dv) in self.vertex_map.iter() {
            match other.vertex_map.get(qv) {
                Some(odv) => {
                    if odv != dv {
                        return false;
                    }
                }
                None => {
                    if other
                        .vertex_map
                        .iter()
                        .any(|(oqv, odv)| oqv != qv && odv == dv)
                    {
                        return false;
                    }
                }
            }
        }
        // Query edges must be disjoint (the decomposition partitions edges)
        // and data edges must not be reused.
        for (qe, de) in self.edge_map.iter() {
            if other.edge_map.get(qe).is_some() {
                return false;
            }
            if other.edge_map.values().any(|ode| ode == de) {
                return false;
            }
        }
        true
    }

    /// Joins two compatible matches into a larger one (Definition 3.1.3).
    /// Returns `None` when the matches are incompatible.
    pub fn join(&self, other: &SubgraphMatch) -> Option<SubgraphMatch> {
        if !self.compatible_with(other) {
            return None;
        }
        let mut out = self.clone();
        for (qe, de) in other.edge_map.iter() {
            out.edge_map.insert(qe, de);
        }
        for (qv, dv) in other.vertex_map.iter() {
            out.vertex_map.insert(qv, dv);
        }
        out.earliest = out.earliest.min(other.earliest);
        out.latest = out.latest.max(other.latest);
        Some(out)
    }

    /// Projects the match onto a set of query vertices, returning the bound
    /// data vertices in the order given. Returns `None` when any of the
    /// vertices is unbound. This is the `GET-JOIN-KEY` / projection operator
    /// Π of Property 4 — the result is used as the hash-join key.
    pub fn project_vertices(&self, vertices: &[QueryVertexId]) -> Option<Vec<VertexId>> {
        vertices.iter().map(|&q| self.vertex_map.get(q)).collect()
    }

    /// Projects the match onto a set of query vertices as an interned
    /// [`JoinKey`] — the allocation-free variant of
    /// [`SubgraphMatch::project_vertices`] used by the partial-match store's
    /// hash tables. Returns `None` when any vertex is unbound.
    pub fn project_key(&self, vertices: &[QueryVertexId]) -> Option<JoinKey> {
        if vertices.len() <= JOIN_KEY_INLINE {
            let mut ids = [VertexId(0); JOIN_KEY_INLINE];
            for (slot, &q) in ids.iter_mut().zip(vertices) {
                *slot = self.vertex_map.get(q)?;
            }
            Some(JoinKey::Inline(vertices.len() as u8, ids))
        } else {
            self.project_vertices(vertices).map(JoinKey::Spilled)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qv(i: usize) -> QueryVertexId {
        QueryVertexId(i)
    }
    fn qe(i: usize) -> QueryEdgeId {
        QueryEdgeId(i)
    }
    fn dv(i: u64) -> VertexId {
        VertexId(i)
    }
    fn de(i: u64) -> EdgeId {
        EdgeId(i)
    }

    #[test]
    fn bind_vertex_enforces_consistency_and_injectivity() {
        let mut m = SubgraphMatch::new();
        assert!(m.bind_vertex(qv(0), dv(10)));
        // Re-binding to the same data vertex is fine.
        assert!(m.bind_vertex(qv(0), dv(10)));
        // Re-binding to a different data vertex is not.
        assert!(!m.bind_vertex(qv(0), dv(11)));
        // A second query vertex may not reuse the same data vertex.
        assert!(!m.bind_vertex(qv(1), dv(10)));
        assert!(m.bind_vertex(qv(1), dv(11)));
        assert_eq!(m.num_vertices(), 2);
    }

    #[test]
    fn bind_edge_tracks_time_interval() {
        let mut m = SubgraphMatch::new();
        assert!(m.bind_edge(qe(0), de(100), Timestamp(50)));
        assert!(m.bind_edge(qe(1), de(101), Timestamp(20)));
        assert!(m.bind_edge(qe(2), de(102), Timestamp(70)));
        assert_eq!(m.earliest(), Timestamp(20));
        assert_eq!(m.latest(), Timestamp(70));
        assert_eq!(m.duration(), 50);
        assert!(m.within_window(51));
        assert!(!m.within_window(50));
    }

    #[test]
    fn bind_edge_rejects_reuse() {
        let mut m = SubgraphMatch::new();
        assert!(m.bind_edge(qe(0), de(1), Timestamp(0)));
        // Same query edge cannot be bound twice.
        assert!(!m.bind_edge(qe(0), de(2), Timestamp(0)));
        // Same data edge cannot serve two query edges.
        assert!(!m.bind_edge(qe(1), de(1), Timestamp(0)));
    }

    #[test]
    fn join_of_compatible_matches_unions_bindings() {
        let mut a = SubgraphMatch::new();
        a.bind_vertex(qv(0), dv(10));
        a.bind_vertex(qv(1), dv(11));
        a.bind_edge(qe(0), de(1), Timestamp(5));

        let mut b = SubgraphMatch::new();
        b.bind_vertex(qv(1), dv(11));
        b.bind_vertex(qv(2), dv(12));
        b.bind_edge(qe(1), de(2), Timestamp(9));

        let j = a.join(&b).expect("compatible");
        assert_eq!(j.num_edges(), 2);
        assert_eq!(j.num_vertices(), 3);
        assert_eq!(j.earliest(), Timestamp(5));
        assert_eq!(j.latest(), Timestamp(9));
    }

    #[test]
    fn join_rejects_conflicting_shared_vertex() {
        let mut a = SubgraphMatch::new();
        a.bind_vertex(qv(1), dv(11));
        a.bind_edge(qe(0), de(1), Timestamp(0));
        let mut b = SubgraphMatch::new();
        b.bind_vertex(qv(1), dv(99));
        b.bind_edge(qe(1), de(2), Timestamp(0));
        assert!(a.join(&b).is_none());
    }

    #[test]
    fn join_rejects_non_injective_union() {
        // Different query vertices bound to the same data vertex.
        let mut a = SubgraphMatch::new();
        a.bind_vertex(qv(0), dv(10));
        a.bind_edge(qe(0), de(1), Timestamp(0));
        let mut b = SubgraphMatch::new();
        b.bind_vertex(qv(2), dv(10));
        b.bind_edge(qe(1), de(2), Timestamp(0));
        assert!(a.join(&b).is_none());
    }

    #[test]
    fn join_rejects_data_edge_reuse() {
        let mut a = SubgraphMatch::new();
        a.bind_edge(qe(0), de(7), Timestamp(0));
        let mut b = SubgraphMatch::new();
        b.bind_edge(qe(1), de(7), Timestamp(0));
        assert!(a.join(&b).is_none());
    }

    #[test]
    fn projection_produces_join_keys() {
        let mut m = SubgraphMatch::new();
        m.bind_vertex(qv(0), dv(10));
        m.bind_vertex(qv(2), dv(12));
        assert_eq!(
            m.project_vertices(&[qv(2), qv(0)]),
            Some(vec![dv(12), dv(10)])
        );
        assert_eq!(m.project_vertices(&[qv(1)]), None);
        assert_eq!(m.project_vertices(&[]), Some(vec![]));
    }

    #[test]
    fn project_key_interns_small_cuts_inline_and_spills_large_ones() {
        let mut m = SubgraphMatch::new();
        for i in 0..5usize {
            assert!(m.bind_vertex(qv(i), dv(10 + i as u64)));
        }
        // ≤ JOIN_KEY_INLINE cut vertices: inline, no heap key.
        let small = m.project_key(&[qv(2), qv(0)]).unwrap();
        assert_eq!(small, JoinKey::Inline(2, [dv(12), dv(10), VertexId(0)]));
        // Same projection, same key — and a different projection differs.
        assert_eq!(small, m.project_key(&[qv(2), qv(0)]).unwrap());
        assert_ne!(small, m.project_key(&[qv(0), qv(2)]).unwrap());
        // Oversized cuts spill to the Vec representation.
        let large = m.project_key(&[qv(0), qv(1), qv(2), qv(3)]).unwrap();
        assert_eq!(
            large,
            JoinKey::Spilled(vec![dv(10), dv(11), dv(12), dv(13)])
        );
        // Unbound vertices fail the projection, like project_vertices.
        assert_eq!(m.project_key(&[qv(9)]), None);
        assert_eq!(
            m.project_key(&[]).unwrap(),
            JoinKey::Inline(0, [VertexId(0); JOIN_KEY_INLINE])
        );
    }

    #[test]
    fn equal_join_keys_hash_equal_under_the_store_hasher() {
        use std::hash::BuildHasher;
        // Two different matches that agree on the cut: the hash-join probe
        // relies on their keys landing in the same bucket.
        let (mut m1, mut m2) = (SubgraphMatch::new(), SubgraphMatch::new());
        for i in 0..5usize {
            assert!(m1.bind_vertex(qv(i), dv(10 + i as u64)));
            assert!(m2.bind_vertex(qv(i), dv(10 + i as u64)));
        }
        assert!(m1.bind_vertex(qv(5), dv(77)));
        assert!(m2.bind_vertex(qv(5), dv(78)));
        let state = sp_graph::FastState::default();
        for cut in [
            vec![],
            vec![qv(1)],
            vec![qv(3), qv(0)],
            vec![qv(0), qv(1), qv(2), qv(3), qv(4)],
        ] {
            let (k1, k2) = (m1.project_key(&cut).unwrap(), m2.project_key(&cut).unwrap());
            assert_eq!(
                matches!(k1, JoinKey::Inline(..)),
                cut.len() <= JOIN_KEY_INLINE
            );
            assert_eq!(k1, k2);
            assert_eq!(state.hash_one(&k1), state.hash_one(&k2));
            // A cut that reaches the vertex they disagree on separates them.
            let mut wider = cut.clone();
            wider.push(qv(5));
            let (w1, w2) = (
                m1.project_key(&wider).unwrap(),
                m2.project_key(&wider).unwrap(),
            );
            assert_ne!(w1, w2);
            assert_ne!(state.hash_one(&w1), state.hash_one(&w2));
            assert_ne!(state.hash_one(&w1), state.hash_one(&k1));
        }
    }

    #[test]
    fn empty_match_properties() {
        let m = SubgraphMatch::new();
        assert!(m.is_empty());
        assert_eq!(m.duration(), 0);
        assert!(m.within_window(1));
    }

    #[test]
    fn inline_bindings_spill_transparently_past_the_cap() {
        let mut m = SubgraphMatch::new();
        // Fill exactly to the inline capacity: still allocation-free.
        for i in 0..super::MATCH_INLINE_BINDINGS {
            assert!(m.bind_vertex(qv(i), dv(100 + i as u64)));
            assert!(m.bind_edge(qe(i), de(200 + i as u64), Timestamp(i as u64)));
        }
        assert!(m.bindings_inline());
        assert_eq!(m.num_vertices(), super::MATCH_INLINE_BINDINGS);
        // One more of each spills to the heap without losing anything.
        let extra = super::MATCH_INLINE_BINDINGS;
        assert!(m.bind_vertex(qv(extra), dv(999)));
        assert!(m.bind_edge(qe(extra), de(998), Timestamp(50)));
        assert!(!m.bindings_inline());
        assert_eq!(m.num_vertices(), extra + 1);
        assert_eq!(m.num_edges(), extra + 1);
        for i in 0..extra {
            assert_eq!(m.data_vertex(qv(i)), Some(dv(100 + i as u64)));
            assert_eq!(m.data_edge(qe(i)), Some(de(200 + i as u64)));
        }
        assert_eq!(m.data_vertex(qv(extra)), Some(dv(999)));
        // Iteration order stays ascending by query id across the spill.
        let keys: Vec<usize> = m.vertex_pairs().map(|(q, _)| q.0).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn from_sorted_bindings_equals_bind_built_matches_across_the_spill() {
        // Edge and vertex counts vary independently, so each map crosses the
        // 8/9 spill boundary on its own.
        for ne in 0..=20usize {
            for nv in [0, 1, 7, 8, 9, 20, ne] {
                let mut bound = SubgraphMatch::new();
                for i in 0..nv {
                    assert!(bound.bind_vertex(qv(i), dv(100 + i as u64)));
                }
                for i in 0..ne {
                    assert!(bound.bind_edge(qe(i), de(200 + i as u64), Timestamp(i as u64)));
                }
                let (earliest, latest) = bound.time_span();
                let built = SubgraphMatch::from_sorted_bindings(
                    (0..ne).map(|i| (qe(i), de(200 + i as u64))),
                    (0..nv).map(|i| (qv(i), dv(100 + i as u64))),
                    earliest,
                    latest,
                );
                assert_eq!(built, bound, "{ne} edges, {nv} vertices");
                assert_eq!(built.cmp(&bound), std::cmp::Ordering::Equal);
                assert_eq!(
                    built.bindings_inline(),
                    ne <= MATCH_INLINE_BINDINGS && nv <= MATCH_INLINE_BINDINGS
                );
                // Canonical by length, unused inline slots zeroed: the
                // derived comparisons read every slot.
                match &built.edge_map {
                    EdgeBindings::Inline(n, entries) => {
                        assert_eq!(*n as usize, ne);
                        assert!(entries[ne..].iter().all(|&e| e == (qe(0), de(0))));
                    }
                    EdgeBindings::Spilled(v) => {
                        assert!(ne > MATCH_INLINE_BINDINGS && v.len() == ne);
                    }
                }
                match &built.vertex_map {
                    VertexBindings::Inline(n, entries) => {
                        assert_eq!(*n as usize, nv);
                        assert!(entries[nv..].iter().all(|&e| e == (qv(0), dv(0))));
                    }
                    VertexBindings::Spilled(v) => {
                        assert!(nv > MATCH_INLINE_BINDINGS && v.len() == nv);
                    }
                }
                // One binding fewer is a different, smaller match.
                if ne > 0 {
                    let shorter = SubgraphMatch::from_sorted_bindings(
                        (0..ne - 1).map(|i| (qe(i), de(200 + i as u64))),
                        (0..nv).map(|i| (qv(i), dv(100 + i as u64))),
                        earliest,
                        latest,
                    );
                    assert_ne!(shorter, built);
                    assert_eq!(shorter.num_edges(), ne - 1);
                }
            }
        }
    }

    #[test]
    fn out_of_order_binds_keep_sorted_iteration() {
        let mut m = SubgraphMatch::new();
        for &i in &[5usize, 1, 3, 0, 4, 2] {
            assert!(m.bind_vertex(qv(i), dv(10 + i as u64)));
        }
        let keys: Vec<usize> = m.vertex_pairs().map(|(q, _)| q.0).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4, 5]);
        assert!(m.bindings_inline());
    }

    #[test]
    fn unbind_reverses_bind_exactly() {
        let mut m = SubgraphMatch::new();
        assert!(m.bind_vertex(qv(0), dv(10)));
        assert!(m.bind_vertex(qv(2), dv(12)));
        assert!(m.bind_edge(qe(0), de(100), Timestamp(5)));
        let reference = m.clone();
        let span = m.time_span();

        // Speculative extension: bind, then undo.
        assert_eq!(m.bind_vertex_tracked(qv(1), dv(11)), Some(true));
        assert!(m.bind_edge(qe(1), de(101), Timestamp(9)));
        assert_eq!(m.latest(), Timestamp(9));
        m.unbind_edge(qe(1));
        m.unbind_vertex(qv(1));
        m.restore_time_span(span);
        assert_eq!(m, reference, "undo must restore the match byte for byte");

        // Tracked re-bind of an existing consistent binding: nothing to undo.
        assert_eq!(m.bind_vertex_tracked(qv(0), dv(10)), Some(false));
        assert_eq!(m, reference);
        // Conflicting tracked bind changes nothing.
        assert_eq!(m.bind_vertex_tracked(qv(0), dv(99)), None);
        assert_eq!(m.bind_vertex_tracked(qv(5), dv(12)), None);
        assert_eq!(m, reference);
    }

    #[test]
    fn remove_from_spilled_map_restores_canonical_inline_form() {
        // Spill past the inline cap, then unbind back under it: the match
        // must compare equal to one that never spilled (store-bucket dedup
        // relies on the derived Eq/Ord).
        let build = |extra: bool| {
            let mut m = SubgraphMatch::new();
            for i in 0..super::MATCH_INLINE_BINDINGS {
                assert!(m.bind_vertex(qv(i), dv(100 + i as u64)));
            }
            if extra {
                let e = super::MATCH_INLINE_BINDINGS;
                assert!(m.bind_vertex(qv(e), dv(999)));
                assert!(!m.bindings_inline());
                m.unbind_vertex(qv(e));
            }
            m
        };
        let via_spill = build(true);
        let never_spilled = build(false);
        assert!(via_spill.bindings_inline());
        assert_eq!(via_spill, never_spilled);
        assert_eq!(via_spill.cmp(&never_spilled), std::cmp::Ordering::Equal);
    }

    #[test]
    fn clear_resets_to_the_empty_match() {
        let mut m = SubgraphMatch::new();
        m.bind_vertex(qv(3), dv(30));
        m.bind_edge(qe(2), de(20), Timestamp(7));
        m.clear();
        assert_eq!(m, SubgraphMatch::new());
        assert!(m.is_empty());
        assert_eq!(m.duration(), 0);
    }

    #[test]
    fn usage_queries() {
        let mut m = SubgraphMatch::new();
        m.bind_vertex(qv(0), dv(10));
        m.bind_edge(qe(0), de(5), Timestamp(1));
        assert!(m.uses_data_vertex(dv(10)));
        assert!(!m.uses_data_vertex(dv(11)));
        assert!(m.uses_data_edge(de(5)));
        assert!(!m.uses_data_edge(de(6)));
        assert_eq!(m.data_vertex(qv(0)), Some(dv(10)));
        assert_eq!(m.data_edge(qe(0)), Some(de(5)));
        assert_eq!(m.data_edge(qe(9)), None);
    }
}
