//! # sp-bench — experiment harness
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! (Section 6) on the synthetic datasets of `sp-datasets`:
//!
//! | experiment | paper artifact | harness entry point |
//! |---|---|---|
//! | `table1`   | Table 1 — dataset summary | [`experiments::table1`] |
//! | `fig6a/b/c` | Figure 6 — edge-type distribution over time | [`experiments::fig6`] |
//! | `fig7`     | Figure 7 — 2-edge-path distribution and its census cost | [`experiments::fig7`] |
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
//! `benchmark/README.md`. Its traced `core.shared_join_inserts_saved_ratio`
//! and `core.trie_replays` report what the shared join stage saves;
//! `core.shared_leaf_elimination` and `core.shared_leaf_share` read 0, as
//! every engine searches its own leaves.
//!
//! The `reproduce` binary drives these functions and renders markdown tables
//! (the basis of `EXPERIMENTS.md`). Component costs come from the
//! benchmark's per-layer trace:
//!
//! * anchored search: `iso.search_ns_per_call`;
//! * `MatchStore` insert and purge: `sjtree.insert_ns_per_row`,
//!   `sjtree.purge_ms_per_pass`;
//! * graph ingest and expiry: `graph.ingest_ns_per_edge`,
//!   `graph.expire_ns_per_edge`;
//! * dispatch, shared join fan-out, and emit: `core.dispatch_share`,
//!   `core.shared_join_share`, `core.emit_share`;
//! * decomposition: `core.register_ms_p50`;
//! * stream statistics: `selectivity.observe_ns_per_edge`;
//! * stream generation: `datasets.generate_s`.
//!
//! The paper's design choices are checked here and in the tests: lazy vs
//! eager search is `fig9a`–`fig9d`; the Figure 7 census cost (one Algorithm 5
//! pass and the incremental `observe_edge` per edge) is two columns of
//! `fig7`; that the selectivity join order stores fewer partial matches than
//! its reverse is `tests/integration_strategies.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{QueryGroupResult, RunMeasurement, Scale};
