//! The per-vertex search-enablement bitmap of the Lazy Search algorithm.
//!
//! "We use a bitmap structure Mb to maintain this information. Each row in
//! the bitmap refers to a vertex in Gd and the i-th column refers to gi, or
//! the i-th leaf in the SJ-Tree. If the search for subgraph gi is enabled for
//! vertex u in Gd, then Mb[u][i] = 1 and zero otherwise." (Section 4)
//!
//! Rows are stored sparsely (most vertices never enable anything), and each
//! row is a 64-bit mask, which bounds supported SJ-Trees to 64 leaves — far
//! above the query sizes the paper evaluates (≤ 15 edges).

use sp_graph::{FastMap, VertexId};

/// Maximum number of SJ-Tree leaves the bitmap supports.
pub const MAX_LEAVES: usize = 64;

/// Sparse per-vertex bitmap of enabled leaf searches.
#[derive(Debug, Clone, Default)]
pub struct LazyBitmap {
    rows: FastMap<VertexId, u64>,
}

impl LazyBitmap {
    /// Creates an empty bitmap (nothing enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables search for leaf `rank` around vertex `v`. Returns `true` if
    /// the bit was newly set (i.e. the search was previously disabled).
    pub fn enable(&mut self, v: VertexId, rank: usize) -> bool {
        debug_assert!(rank < MAX_LEAVES);
        let row = self.rows.entry(v).or_insert(0);
        let bit = 1u64 << rank;
        let newly = *row & bit == 0;
        *row |= bit;
        newly
    }

    /// Returns `true` when search for leaf `rank` is enabled around `v`.
    /// Leaf 0 (the most selective primitive) is always enabled — it is
    /// searched unconditionally around every new edge.
    pub fn is_enabled(&self, v: VertexId, rank: usize) -> bool {
        if rank == 0 {
            return true;
        }
        debug_assert!(rank < MAX_LEAVES);
        self.rows
            .get(&v)
            .is_some_and(|row| row & (1u64 << rank) != 0)
    }

    /// Keeps only the rows of the vertices `keep` accepts, in one pass over
    /// the rows, and gives the freed table space back. The engine's purge
    /// compacts the bitmap to the live vertex set with it.
    pub fn retain(&mut self, mut keep: impl FnMut(VertexId) -> bool) {
        self.rows.retain(|&v, _| keep(v));
        self.rows.shrink_to_fit();
    }

    /// Number of vertices with at least one enabled bit.
    pub fn num_tracked_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Total number of set bits (enabled (vertex, leaf) pairs).
    pub fn num_enabled(&self) -> usize {
        self.rows.values().map(|r| r.count_ones() as usize).sum()
    }

    /// Clears the bitmap.
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_zero_is_always_enabled() {
        let b = LazyBitmap::new();
        assert!(b.is_enabled(VertexId(1), 0));
        assert!(!b.is_enabled(VertexId(1), 1));
    }

    #[test]
    fn enable_is_idempotent_and_reports_newness() {
        let mut b = LazyBitmap::new();
        assert!(b.enable(VertexId(5), 2));
        assert!(!b.enable(VertexId(5), 2));
        assert!(b.is_enabled(VertexId(5), 2));
        assert!(!b.is_enabled(VertexId(6), 2));
        assert_eq!(b.num_enabled(), 1);
        assert_eq!(b.num_tracked_vertices(), 1);
    }

    #[test]
    fn retain_drops_whole_rows_and_keeps_the_others_bit_for_bit() {
        let mut b = LazyBitmap::new();
        b.enable(VertexId(5), 1);
        b.enable(VertexId(5), 3);
        b.enable(VertexId(6), 2);
        b.enable(VertexId(6), MAX_LEAVES - 1);
        assert_eq!(b.num_enabled(), 4);
        b.retain(|v| v != VertexId(5));
        assert!(!b.is_enabled(VertexId(5), 1) && !b.is_enabled(VertexId(5), 3));
        assert!(b.is_enabled(VertexId(6), 2) && b.is_enabled(VertexId(6), MAX_LEAVES - 1));
        assert_eq!((b.num_tracked_vertices(), b.num_enabled()), (1, 2));
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = LazyBitmap::new();
        b.enable(VertexId(1), 1);
        b.enable(VertexId(2), 2);
        b.clear();
        assert_eq!(b.num_enabled(), 0);
        assert!(b.is_enabled(VertexId(1), 0));
        assert!(!b.is_enabled(VertexId(1), 1));
    }

    #[test]
    fn highest_supported_rank_works() {
        let mut b = LazyBitmap::new();
        assert!(b.enable(VertexId(1), MAX_LEAVES - 1));
        assert!(b.is_enabled(VertexId(1), MAX_LEAVES - 1));
    }
}
