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
//! | `drift`    | Drift-adaptive re-decomposition vs a frozen plan vs a post-shift oracle | [`experiments::drift`] |
//!
//! The repository's end-to-end benchmark (throughput, CPU, memory, latency
//! and the per-layer trace) is the separate `benchmark/` package; see
//! `benchmark/README.md`. Its traced `core.shared_leaf_elimination`,
//! `core.shared_join_inserts_saved_ratio` and `core.trie_replays` report
//! what the shared leaf and join stages save.
//!
//! The `reproduce` binary drives these functions and renders markdown tables
//! (the basis of `EXPERIMENTS.md`). The Criterion benches under `benches/`
//! measure what no experiment reports: single components in isolation
//! (`micro_components`), the paper's design choices switched off one at a
//! time (`ablations`), and the speed of the Figure 7 path census
//! (`fig7_path_stats`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{QueryGroupResult, RunMeasurement, Scale};
