//! Engine error type.

use sp_sjtree::DecompositionError;
use std::fmt;

/// Errors produced while constructing or driving the continuous query engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query graph could not be decomposed (e.g. it has no edges).
    Decomposition(DecompositionError),
    /// The query graph has more leaves than the lazy bitmap supports.
    TooManyLeaves {
        /// Number of leaves in the decomposition.
        leaves: usize,
        /// Maximum supported.
        max: usize,
    },
    /// The query graph, or the join order, is not connected where the
    /// strategy needs it: the VF2 baseline needs a connected query, and a
    /// lazy strategy needs every leaf of rank `k ≥ 1` to share a query
    /// vertex with leaves `0..k` (so a disconnected query is refused under
    /// every lazy strategy).
    DisconnectedQuery,
    /// A re-decomposition was requested with a strategy that has no SJ-Tree
    /// (the VF2 baseline) or with a tree that does not decompose the
    /// engine's own query.
    RebuildMismatch,
    /// The query id is not (or no longer) registered.
    UnknownQuery,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Decomposition(e) => write!(f, "query decomposition failed: {e}"),
            EngineError::TooManyLeaves { leaves, max } => {
                write!(
                    f,
                    "SJ-Tree has {leaves} leaves, the engine supports at most {max}"
                )
            }
            EngineError::DisconnectedQuery => write!(f, "query graph must be connected"),
            EngineError::RebuildMismatch => write!(
                f,
                "rebuild requires an SJ-Tree strategy and a tree over the same query"
            ),
            EngineError::UnknownQuery => write!(f, "query is not registered"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DecompositionError> for EngineError {
    fn from(e: DecompositionError) -> Self {
        EngineError::Decomposition(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = EngineError::from(DecompositionError::EmptyQuery);
        assert!(e.to_string().contains("decomposition failed"));
        let e = EngineError::TooManyLeaves {
            leaves: 70,
            max: 64,
        };
        assert!(e.to_string().contains("70"));
        assert!(EngineError::DisconnectedQuery
            .to_string()
            .contains("connected"));
    }
}
