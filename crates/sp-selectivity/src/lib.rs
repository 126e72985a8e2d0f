//! # sp-selectivity — distributional statistics of a graph stream
//!
//! The paper's central idea is to drive the query-processing strategy from
//! *subgraph distributional statistics* that are cheap to collect from the
//! stream (Section 5):
//!
//! * the **single-edge histogram** — a count per edge type
//!   ([`EdgeTypeHistogram`]);
//! * the **2-edge path distribution** — a count per wedge signature, computed
//!   by Algorithm 5's `COUNT-2-EDGE-PATHS` ([`TwoEdgePathCounter`]) or
//!   maintained incrementally as edges stream in
//!   ([`TwoEdgePathCounter::observe_edge`]);
//! * the derived metrics **subgraph selectivity** (frequency of a primitive
//!   divided by the total number of same-size primitives), **Expected
//!   Selectivity** Ŝ(T) = ∏ leaf selectivities, and **Relative Selectivity**
//!   ξ(Tk,T1) = Ŝ(Tk)/Ŝ(T1) ([`SelectivityEstimator`]).
//!
//! Every count lives in a flat map on the seeded [`FastMap`](sp_graph::FastMap)
//! hasher; none is on SipHash. The wedge census keeps one table row per
//! vertex for the incremental update: the vertex's incident directed edge
//! types with their counts, the first two inline and the rest in a `Vec`.
//! A tracked vertex costs 47 to 94 bytes of table (the row is 32 bytes, the
//! slot 41), plus a heap block of at least 64 bytes from its third directed
//! type on. Built from the LSBench sample stream of the `lsbench_calm`
//! benchmark (150,000 edges, 104,515 vertices) the estimator's heap is 7.1
//! MB, 68 bytes per vertex.
//!
//! The crate also provides [`EdgeDistributionTimeline`], the per-interval edge
//! type counts plotted in Figure 6, and helpers for reasoning about the
//! stability of the selectivity order over time (Section 6.3). When that
//! stability assumption does *not* hold, [`StatsMode::Decayed`] makes the
//! estimator an exponentially weighted window over the recent stream, and
//! [`DriftConfig`] sets how often a caller re-plans its queries from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drift;
mod estimator;
mod histogram;
mod paths;
mod timeline;

pub use drift::DriftConfig;
pub use estimator::{DecompositionSelectivity, SelectivityEstimator, StatsMode};
pub use histogram::EdgeTypeHistogram;
pub use paths::TwoEdgePathCounter;
pub use timeline::EdgeDistributionTimeline;
