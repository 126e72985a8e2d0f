//! # sp-sjtree — the Subgraph Join Tree
//!
//! The SJ-Tree (Section 3 of the paper) is the data structure at the heart of
//! the continuous query engine. It plays two roles:
//!
//! 1. **Query decomposition** — a left-deep binary tree whose leaves are the
//!    small query subgraphs ("primitives": single edges or 2-edge paths) that
//!    are searched for on every incoming edge, ordered by selectivity; every
//!    internal node is the join of its children, and the root is the whole
//!    query (Properties 1–2). [`SjTree`] is that static structure, built
//!    either directly from an ordered list of leaf subgraphs
//!    ([`SjTree::from_leaves`]) or by the greedy selectivity-driven
//!    decomposition of Algorithm 4 ([`decompose`]).
//! 2. **Partial-match tracking** — every node owns a hash table of matches of
//!    its subgraph, keyed by the projection of the match onto the parent's
//!    *cut subgraph* (Properties 3–4), so that combining partial matches is a
//!    hash join. [`MatchStore`] owns those tables — every match in them a
//!    fixed-width row ([`RowLayout`]) — and [`MatchStore::insert_row`]
//!    implements the recursive `UPDATE-SJ-TREE` procedure of Algorithm 2.
//!
//! The analytic space/time cost model of Appendix A is provided by
//! [`cost::CostModel`] and backs the ablation experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod decompose;
mod node;
mod store;
mod tree;

pub use cost::CostModel;
pub use decompose::{decompose, expected_selectivity, DecompositionError, PrimitivePolicy};
pub use node::{NodeId, SjTreeNode};
pub use store::{InsertTrace, MatchStore, RowId, RowLayout, StoreStats, UNBOUND};
pub use tree::SjTree;
