//! Sliding time-window bookkeeping.
//!
//! The paper maintains the data graph "as a window in time": given a window
//! `tW`, edges are deleted once they become older than `t_last - tW`, where
//! `t_last` is the timestamp of the newest edge (Section 2). [`ExpiryQueue`]
//! tracks edge arrival in timestamp order and yields the edges that fall out
//! of the window as new edges arrive.
//!
//! Streaming edges are *mostly* ordered by timestamp but real traces contain
//! small reorderings, so the queue orders by `(timestamp, edge id)` rather
//! than assuming monotone arrival. It has two sides:
//!
//! * an edge whose `(timestamp, id)` is at or past the newest entry of the
//!   in-order side is appended to it — a FIFO ring, so an in-order edge
//!   costs one append at ingest and one pop at expiry;
//! * an edge that arrives late (behind that entry) goes to a Vec-backed
//!   min-heap.
//!
//! Expiry, removal and [`ExpiryQueue::oldest`] merge the two sides, so edges
//! leave in exactly the global `(timestamp, id)` order a single heap would
//! give. Neither side is an ordered map: a B-tree splits and frees nodes as
//! the window boundary rolls through it, while both sides here reuse their
//! backing storage once warmed up — the steady-state `add_edge` path
//! allocates nothing.

use crate::ids::{EdgeId, Timestamp};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Tracks live edges in timestamp order and computes which edges expire when
/// the window slides forward.
#[derive(Debug, Clone, Default)]
pub struct ExpiryQueue {
    /// Edges in ascending `(timestamp, id)` order, appended at the back.
    in_order: VecDeque<(Timestamp, EdgeId)>,
    /// Edges that arrived behind the back of `in_order`.
    late: BinaryHeap<Reverse<(Timestamp, EdgeId)>>,
}

impl ExpiryQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new live edge.
    pub fn push(&mut self, edge: EdgeId, ts: Timestamp) {
        let entry = (ts, edge);
        if self.in_order.back().is_none_or(|&back| entry >= back) {
            self.in_order.push_back(entry);
        } else {
            self.late.push(Reverse(entry));
        }
    }

    /// Removes an edge that is being deleted for a reason other than expiry
    /// (the explicit-deletion path — O(n), never on the streaming path).
    pub fn remove(&mut self, edge: EdgeId, ts: Timestamp) -> bool {
        if let Ok(pos) = self.in_order.binary_search(&(ts, edge)) {
            self.in_order.remove(pos);
            return true;
        }
        let before = self.late.len();
        self.late.retain(|&Reverse(entry)| entry != (ts, edge));
        before != self.late.len()
    }

    /// The oldest entry of either side, and whether it is the late side's.
    fn peek(&self) -> Option<((Timestamp, EdgeId), bool)> {
        match (self.in_order.front(), self.late.peek()) {
            (Some(&first), Some(&Reverse(late))) if late < first => Some((late, true)),
            (Some(&first), _) => Some((first, false)),
            (None, Some(&Reverse(late))) => Some((late, true)),
            (None, None) => None,
        }
    }

    /// Pops the oldest edge if it is strictly older than `cutoff`.
    pub fn pop_older_than(&mut self, cutoff: Timestamp) -> Option<(EdgeId, Timestamp)> {
        let ((ts, edge), late) = self.peek()?;
        if ts >= cutoff {
            return None;
        }
        if late {
            self.late.pop();
        } else {
            self.in_order.pop_front();
        }
        Some((edge, ts))
    }

    /// Number of live (non-expired) edges tracked.
    pub fn len(&self) -> usize {
        self.in_order.len() + self.late.len()
    }

    /// Returns `true` when no live edges are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timestamp of the oldest live edge, if any.
    pub fn oldest(&self) -> Option<Timestamp> {
        self.peek().map(|((ts, _), _)| ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops every edge strictly older than `cutoff`, in timestamp order.
    fn pop_all_older_than(q: &mut ExpiryQueue, cutoff: Timestamp) -> Vec<(EdgeId, Timestamp)> {
        std::iter::from_fn(|| q.pop_older_than(cutoff)).collect()
    }

    #[test]
    fn expires_only_strictly_older_edges() {
        let mut q = ExpiryQueue::new();
        q.push(EdgeId(1), Timestamp(10));
        q.push(EdgeId(2), Timestamp(20));
        q.push(EdgeId(3), Timestamp(30));
        let expired = pop_all_older_than(&mut q, Timestamp(20));
        assert_eq!(expired, vec![(EdgeId(1), Timestamp(10))]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn expiry_is_in_timestamp_order_even_with_out_of_order_insertion() {
        let mut q = ExpiryQueue::new();
        q.push(EdgeId(5), Timestamp(50));
        q.push(EdgeId(1), Timestamp(10));
        q.push(EdgeId(3), Timestamp(30));
        let expired = pop_all_older_than(&mut q, Timestamp(100));
        let ts: Vec<u64> = expired.iter().map(|(_, t)| t.0).collect();
        assert_eq!(ts, vec![10, 30, 50]);
        assert!(q.is_empty());
    }

    #[test]
    fn remove_drops_a_specific_edge() {
        let mut q = ExpiryQueue::new();
        q.push(EdgeId(1), Timestamp(10));
        assert!(q.remove(EdgeId(1), Timestamp(10)));
        assert!(!q.remove(EdgeId(1), Timestamp(10)));
        assert!(q.is_empty());
    }

    #[test]
    fn oldest_reports_minimum_timestamp() {
        let mut q = ExpiryQueue::new();
        assert_eq!(q.oldest(), None);
        q.push(EdgeId(2), Timestamp(25));
        q.push(EdgeId(1), Timestamp(5));
        assert_eq!(q.oldest(), Some(Timestamp(5)));
    }

    #[test]
    fn same_timestamp_edges_are_distinguished_by_id() {
        let mut q = ExpiryQueue::new();
        q.push(EdgeId(1), Timestamp(10));
        q.push(EdgeId(2), Timestamp(10));
        assert_eq!(q.len(), 2);
        let expired = pop_all_older_than(&mut q, Timestamp(11));
        assert_eq!(expired.len(), 2);
    }

    /// Both sides in use: the merged expiry order is the global
    /// `(timestamp, id)` order, and removal finds an edge on either side.
    #[test]
    fn in_order_and_late_sides_merge_in_timestamp_order() {
        let mut q = ExpiryQueue::new();
        // In order: 10, 20, 20, 40. Late (behind the back, 40): 15, 5, 20.
        for (id, ts) in [(1, 10), (3, 20), (4, 20), (6, 40), (5, 15), (7, 5), (2, 20)] {
            q.push(EdgeId(id), Timestamp(ts));
        }
        assert_eq!(q.oldest(), Some(Timestamp(5)));
        assert!(q.remove(EdgeId(5), Timestamp(15)), "late side");
        assert!(q.remove(EdgeId(4), Timestamp(20)), "in-order side");
        assert!(!q.remove(EdgeId(4), Timestamp(20)));
        assert_eq!(
            pop_all_older_than(&mut q, Timestamp(40)),
            [(7, 5), (1, 10), (2, 20), (3, 20)].map(|(id, ts)| (EdgeId(id), Timestamp(ts)))
        );
        assert_eq!((q.len(), q.oldest()), (1, Some(Timestamp(40))));
    }
}
