//! External stream events.
//!
//! Dataset loaders and synthetic generators describe the stream as a sequence
//! of [`EdgeEvent`]s using *external* numeric vertex ids (an IP address index,
//! a user id, ...). The engine maps external ids onto graph vertices on
//! ingestion; using plain integers keeps generators independent of the
//! graph's internal id allocation.

use crate::ids::{EdgeType, Timestamp, VertexType};
use serde::{Deserialize, Serialize};

/// One edge arriving on the stream, described with external vertex ids.
///
/// An event is 40 bytes and holds only what the stream says: the two
/// endpoints with their types, the edge type and the logical timestamp.
/// It carries no arrival instant; the threaded runtime keeps its ingest
/// stamps beside a batch, and only while metrics are attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeEvent {
    /// External id of the source vertex.
    pub src: u64,
    /// External id of the destination vertex.
    pub dst: u64,
    /// Type of the source vertex.
    pub src_type: VertexType,
    /// Type of the destination vertex.
    pub dst_type: VertexType,
    /// Edge type (output of the dataset's `Map()` function).
    pub edge_type: EdgeType,
    /// Event timestamp.
    pub timestamp: Timestamp,
}

impl EdgeEvent {
    /// Convenience constructor for homogeneous-vertex streams (e.g. netflow,
    /// where every vertex is an "ip").
    pub fn homogeneous(
        src: u64,
        dst: u64,
        vertex_type: VertexType,
        edge_type: EdgeType,
        timestamp: Timestamp,
    ) -> Self {
        Self {
            src,
            dst,
            src_type: vertex_type,
            dst_type: vertex_type,
            edge_type,
            timestamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_constructor_sets_both_types() {
        let e = EdgeEvent::homogeneous(1, 2, VertexType(3), EdgeType(4), Timestamp(5));
        assert_eq!(e.src_type, VertexType(3));
        assert_eq!(e.dst_type, VertexType(3));
        assert_eq!(e.src, 1);
        assert_eq!(e.dst, 2);
        assert_eq!(e.edge_type, EdgeType(4));
        assert_eq!(e.timestamp, Timestamp(5));
    }

    #[test]
    fn event_roundtrips_through_serde() {
        let e = EdgeEvent::homogeneous(7, 8, VertexType(0), EdgeType(1), Timestamp(2));
        let json = serde_json::to_string(&e).unwrap();
        let back: EdgeEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    /// Stream buffers and runtime batches hold events by the hundred
    /// thousand; an event is its six fields and nothing more.
    #[test]
    fn an_event_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<EdgeEvent>(), 40);
    }
}
