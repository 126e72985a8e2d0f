//! # sp-bench — experiment harness
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! (Section 6) on the synthetic datasets of `sp-datasets`:
//!
//! | experiment | paper artifact | harness entry point |
//! |---|---|---|
//! | `table1`   | Table 1 — dataset summary | [`experiments::table1`] |
//! | `fig6a/b/c` | Figure 6 — edge-type distribution over time | [`experiments::fig6`] |
//! | `fig7`     | Figure 7 — 2-edge-path distribution | [`experiments::fig7`] |
//! | `fig8`     | Figure 8 — 1- vs 2-edge decomposition of a path query | [`experiments::fig8`] |
//! | `fig9a-d`  | Figure 9 — runtime per strategy vs query size | [`experiments::fig9`] |
//! | `fig10`    | Figure 10 — Relative Selectivity distribution | [`experiments::fig10`] |
//! | `profile`  | §6.4 — time split between isomorphism and SJ-Tree update | [`experiments::profile`] |
//! | `strategy` | §6.5 — ξ-rule vs measured fastest strategy | [`experiments::strategy_selection`] |
//! | `costmodel`| Appendix A — analytic cost model vs measurement | [`experiments::costmodel`] |
//! | `multiquery` | Multi-query scaling: shared graph + edge-type dispatch vs N independent processors | [`experiments::multiquery`] |
//! | `sharing`  | Shared-leaf evaluation: one leaf search per shape per edge vs per-engine searches | [`experiments::sharing`] |
//! | `sharedjoin` | Shared join stage: trie of canonical prefix tables vs leaf-only sharing | [`experiments::sharedjoin`] |
//! | `parallel` | Threaded runtime vs the sequential processor across worker counts | [`experiments::parallel`] |
//! | `drift`    | Drift-adaptive re-decomposition vs a frozen plan vs a post-shift oracle | [`experiments::drift`] |
//!
//! The repository's end-to-end benchmark (throughput, CPU, memory, latency
//! and the per-layer trace) is the separate `benchmark/` package; see
//! `benchmark/README.md`.
//!
//! The `reproduce` binary drives these functions and renders markdown tables
//! (the basis of `EXPERIMENTS.md`); the Criterion benches under `benches/`
//! cover the same code paths at a smaller scale for regression tracking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{
    MultiQueryMeasurement, QueryGroupResult, RunMeasurement, Scale, SharedJoinMeasurement,
    SharingMeasurement,
};
