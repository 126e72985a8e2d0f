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
