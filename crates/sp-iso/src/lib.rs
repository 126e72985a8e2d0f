//! # sp-iso — subgraph isomorphism for streaming pattern detection
//!
//! Three matching capabilities, mirroring the paper's use of subgraph
//! isomorphism:
//!
//! * [`SubgraphMatch`] — the representation of a (partial) match: a set of
//!   (query edge → data edge) pairs plus the induced (query vertex → data
//!   vertex) binding and the time interval spanned by the matched edges
//!   (Definition 3.1.2). Stored matches are joined (Definition 3.1.3) as
//!   fixed-width rows by the partial-match store (`sp-sjtree`).
//! * [`anchored`] — local search: find every match of a small connected query
//!   subgraph that *contains a given data edge* or *touches a given data
//!   vertex*. This is the `SUBGRAPH-ISO(Gd, gqsub, es)` routine invoked for
//!   every incoming edge in Algorithms 1 and 3. [`TypeNeeds`] refuses, in
//!   O(1), the searches whose anchor lacks an edge type the subgraph needs.
//! * [`vf2`] — full-graph enumeration used by the non-incremental baseline
//!   ("perform subgraph isomorphism for the query graph using VF2 on every
//!   new edge", Section 6).
//!
//! All matchers enforce *isomorphism* semantics: the vertex binding is
//! injective and no data edge is used twice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anchored;
mod match_map;
pub mod vf2;

pub use anchored::{
    find_matches_around_vertex, find_matches_around_vertex_with, find_matches_containing_edge,
    find_matches_containing_edge_into, find_matches_containing_edge_with, SearchScratch, TypeNeeds,
};
pub use match_map::{SubgraphMatch, MATCH_INLINE_BINDINGS};
pub use vf2::Vf2Matcher;
