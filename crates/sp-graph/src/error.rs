//! Error type for graph operations.

use crate::ids::{EdgeId, VertexId};
use std::fmt;

/// Errors produced by [`crate::DynamicGraph`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge id was referenced that is not present (possibly expired).
    UnknownEdge(EdgeId),
    /// A vertex was inserted twice with conflicting types.
    VertexTypeConflict {
        /// The offending vertex.
        vertex: VertexId,
        /// The type already recorded for the vertex.
        existing: u32,
        /// The conflicting new type.
        requested: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownEdge(e) => write!(f, "unknown edge {e}"),
            GraphError::VertexTypeConflict {
                vertex,
                existing,
                requested,
            } => write!(
                f,
                "vertex {vertex} already has type {existing}, cannot re-type as {requested}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_human_readable() {
        let e = GraphError::UnknownEdge(EdgeId(3));
        assert!(e.to_string().contains("e3"));
        let e = GraphError::VertexTypeConflict {
            vertex: VertexId(1),
            existing: 2,
            requested: 5,
        };
        assert!(e.to_string().contains("v1 already has type 2"));
    }
}
