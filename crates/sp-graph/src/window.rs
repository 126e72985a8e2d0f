//! The live edges of the window, by stream position.
//!
//! The paper maintains the data graph "as a window in time": given a window
//! `tW`, edges are deleted once they become older than `t_last - tW`, where
//! `t_last` is the timestamp of the newest edge (Section 2). Edge ids are
//! stream positions, so [`EdgeRing`] keeps the live edges in a ring, slot
//! `i` holding edge `base + i`: a lookup by id is an index, not a hash.
//!
//! The ring is also the expiry order, which is `(timestamp, id)`: real
//! traces contain small reorderings. An in-order edge (at or past the
//! newest timestamp) is never older than the in-order edges before it. A
//! late edge also goes on a min-heap, and every in-order edge after it is
//! newer than it. So the smaller of the heap's top and the ring's front is
//! always the oldest live edge. An in-order edge costs one append at ingest
//! and one pop at expiry, and once warmed up neither side allocates.

use crate::graph::{EdgeData, NO_EDGE};
use crate::ids::{EdgeId, Timestamp};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The live edges, indexed by stream position, and the order in which they
/// leave the window. A removed edge leaves a hole (its slot's id set to
/// [`NO_EDGE`]) until the edges before it have gone too: the front slot is
/// never a hole, so with a window the ring spans about one window.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeRing {
    /// Id of the edge in `slots[0]`.
    base: u64,
    slots: VecDeque<EdgeData>,
    /// Number of slots that are not holes.
    live: usize,
    /// The late edges, oldest on top. An entry whose edge has gone is
    /// dropped when it reaches the top.
    late: BinaryHeap<Reverse<(Timestamp, EdgeId)>>,
}

impl EdgeRing {
    /// Appends the next edge of the stream; `late` when its timestamp is
    /// behind the newest one seen before it.
    pub(crate) fn push(&mut self, edge: EdgeData, late: bool) {
        debug_assert_eq!(edge.id.0, self.base + self.slots.len() as u64);
        if late {
            self.late.push(Reverse((edge.timestamp, edge.id)));
        }
        self.slots.push_back(edge);
        self.live += 1;
    }

    /// The live edge with this id. An id below `base` wraps to an index
    /// past the end; the slot's own id rejects a hole or a stray index.
    #[inline]
    pub(crate) fn get(&self, id: EdgeId) -> Option<&EdgeData> {
        let slot = self.slots.get(id.0.wrapping_sub(self.base) as usize);
        slot.filter(|e| e.id == id)
    }

    /// Removes the live edge with this id, leaving a hole, and drops the
    /// holes at the front.
    pub(crate) fn remove(&mut self, id: EdgeId) -> Option<EdgeData> {
        let slot = self.slots.get_mut(id.0.wrapping_sub(self.base) as usize);
        let slot = slot.filter(|e| e.id == id)?;
        let data = *slot;
        slot.id = NO_EDGE;
        self.live -= 1;
        while self.slots.front().is_some_and(|e| e.id == NO_EDGE) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(data)
    }

    /// Removes and returns the oldest live edge by `(timestamp, id)` if it
    /// is strictly older than `cutoff`.
    pub(crate) fn pop_older_than(&mut self, cutoff: Timestamp) -> Option<EdgeData> {
        while let Some(&Reverse((_, id))) = self.late.peek() {
            if self.get(id).is_some() {
                break;
            }
            self.late.pop();
        }
        let front = self.slots.front().map(|e| (e.timestamp, e.id));
        let late = self.late.peek().map(|top| top.0);
        let (ts, id) = front.into_iter().chain(late).min()?;
        if ts < cutoff {
            self.remove(id)
        } else {
            None
        }
    }

    /// Number of live edges.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The live edges in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &EdgeData> + '_ {
        self.slots.iter().filter(|e| e.id != NO_EDGE)
    }
}

#[cfg(test)]
mod tests {
    //! The window as the graph keeps it: which edges `expire` removes, and
    //! in what order.

    use crate::{DynamicGraph, EdgeId, EdgeType, GraphError, Schema, Timestamp, VertexId};

    /// A graph with window `w` and one edge per timestamp in `stamps`:
    /// edge `i` (its id is its stream position) runs from vertex `i + 1`
    /// into the hub, vertex 0.
    fn graph_with(w: u64, stamps: &[u64]) -> DynamicGraph {
        let mut g = DynamicGraph::with_window(Schema::new(), w);
        for (i, &ts) in stamps.iter().enumerate() {
            let src = VertexId(i as u64 + 1);
            g.ensure_vertex(src, Default::default()).unwrap();
            g.ensure_vertex(VertexId(0), Default::default()).unwrap();
            let id = g.add_edge(src, VertexId(0), EdgeType(0), Timestamp(ts));
            assert_eq!(id, EdgeId(i as u64));
        }
        g
    }

    /// Narrows the window so the cutoff is `cutoff`, expires, and returns
    /// the ids `expire` removed, ascending.
    fn expire_below(g: &mut DynamicGraph, cutoff: u64) -> Vec<u64> {
        let live = |g: &DynamicGraph| g.edges().map(|e| e.id.0).collect::<Vec<_>>();
        let before = live(g);
        g.set_window(Some(g.latest_timestamp().0 - cutoff));
        let removed = g.expire();
        let after = live(g);
        let gone: Vec<u64> = before.into_iter().filter(|i| !after.contains(i)).collect();
        assert_eq!(removed, gone.len(), "expire counts what it removed");
        gone
    }

    #[test]
    fn expires_only_strictly_older_edges() {
        // Newest 30, window 10: the cutoff is 20, and the edge at 20 stays.
        let mut g = graph_with(10, &[10, 20, 30]);
        assert_eq!(g.expire(), 1);
        assert!(!g.contains_edge(EdgeId(0)));
        assert!(g.contains_edge(EdgeId(1)) && g.contains_edge(EdgeId(2)));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn expiry_is_in_timestamp_order_even_with_out_of_order_insertion() {
        let mut g = graph_with(100, &[50, 10, 30, 100]);
        assert_eq!(expire_below(&mut g, 11), [1]);
        assert_eq!(expire_below(&mut g, 31), [2]);
        assert_eq!(expire_below(&mut g, 51), [0]);
        assert_eq!(g.edges().map(|e| e.id).collect::<Vec<_>>(), [EdgeId(3)]);
    }

    #[test]
    fn remove_drops_a_specific_edge() {
        // Edge 1 is late: it sits on the heap as well as in the ring.
        let mut g = graph_with(100, &[10, 5, 20, 30]);
        for id in [EdgeId(1), EdgeId(0)] {
            assert_eq!(g.remove_edge(id).unwrap().id, id);
            assert!(matches!(g.remove_edge(id), Err(GraphError::UnknownEdge(e)) if e == id));
            assert!(g.edge(id).is_none());
        }
        // Neither removed edge is expired again.
        assert_eq!(expire_below(&mut g, 20), Vec::<u64>::new());
        assert_eq!(expire_below(&mut g, 21), [2]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn oldest_reports_minimum_timestamp() {
        // The first edge `expire` removes is the one with the smallest
        // timestamp, though it arrived after a newer one.
        let mut g = graph_with(100, &[25, 5, 40]);
        assert_eq!(expire_below(&mut g, 6), [1]);
        assert_eq!(expire_below(&mut g, 26), [0]);
    }

    #[test]
    fn same_timestamp_edges_are_distinguished_by_id() {
        let mut g = graph_with(100, &[10, 10, 20, 30]);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(expire_below(&mut g, 11), [0, 1]);
        // Edge 0 left first: the hub's list [0, 1, 2, 3] became [3, 1, 2],
        // then [3, 2]. Edge 1 first would have left [2, 3].
        let hub = g.vertex(VertexId(0)).unwrap();
        assert_eq!(hub.in_edges(), [EdgeId(3), EdgeId(2)]);
    }

    /// Both sides in use: the merged expiry order is the global
    /// `(timestamp, id)` order, and removal finds an edge on either side.
    #[test]
    fn in_order_and_late_sides_merge_in_timestamp_order() {
        // In order: 10, 20, 20, 40. Late (behind 40): 15, 5, 20.
        let mut g = graph_with(100, &[10, 20, 20, 40, 15, 5, 20]);
        g.remove_edge(EdgeId(4)).expect("late side");
        g.remove_edge(EdgeId(2)).expect("in-order side");
        assert!(g.remove_edge(EdgeId(2)).is_err());
        assert_eq!(expire_below(&mut g, 6), [5]);
        assert_eq!(expire_below(&mut g, 11), [0]);
        assert_eq!(expire_below(&mut g, 21), [1, 6]);
        assert_eq!(expire_below(&mut g, 40), Vec::<u64>::new());
        assert_eq!(g.edges().map(|e| e.id).collect::<Vec<_>>(), [EdgeId(3)]);
    }
}
