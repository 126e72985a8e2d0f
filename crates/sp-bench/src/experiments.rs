//! One function per table/figure of the paper's evaluation. Each function
//! returns a rendered markdown section (and, where useful, structured data)
//! so the `reproduce` binary can assemble `EXPERIMENTS.md`.

use crate::report::{ascii_histogram, fmt_ratio, fmt_seconds, markdown_table, render_groups};
use crate::runner::{
    run_drift, run_group, run_query, run_query_metered, sample_by_expected_selectivity,
    DriftMeasurement, Scale,
};
use sp_datasets::{
    soc_chain_rule, Dataset, LsbenchConfig, NetflowConfig, NetflowDriftConfig, NytimesConfig,
    QueryGenerator, QueryKind,
};
use sp_graph::{DynamicGraph, EdgeData, Schema};
use sp_query::QueryGraph;
use sp_selectivity::{DriftConfig, TwoEdgePathCounter};
use sp_sjtree::{decompose, CostModel, PrimitivePolicy};
use std::time::Instant;
use streampattern::{choose_strategy, Strategy, StrategySpec, RELATIVE_SELECTIVITY_THRESHOLD};

/// Generates the three datasets at the requested scale.
pub fn datasets(scale: Scale) -> Vec<Dataset> {
    let netflow = NetflowConfig {
        num_hosts: scale.entities(),
        num_edges: scale.stream_edges(),
        ..NetflowConfig::default()
    }
    .generate();
    let lsbench = LsbenchConfig {
        num_persons: scale.entities(),
        num_edges: scale.stream_edges(),
        ..LsbenchConfig::default()
    }
    .generate();
    let nytimes = NytimesConfig {
        num_articles: scale.stream_edges() / 6,
        entities_per_type: (scale.entities() / 4).max(100),
        ..NytimesConfig::default()
    }
    .generate();
    vec![netflow, lsbench, nytimes]
}

/// Table 1 — dataset summary (vertices and edges per dataset).
pub fn table1(scale: Scale) -> String {
    let mut rows = Vec::new();
    for d in datasets(scale) {
        rows.push(vec![
            d.name.clone(),
            d.schema.num_vertex_types().to_string(),
            d.schema.num_edge_types().to_string(),
            d.num_vertices().to_string(),
            d.len().to_string(),
        ]);
    }
    format!(
        "## Table 1 — dataset summary (synthetic, scale-dependent)\n\n{}",
        markdown_table(
            &["dataset", "vertex types", "edge types", "vertices", "edges"],
            &rows
        )
    )
}

/// Figure 6 — per-interval edge-type distribution for one dataset.
/// `which` ∈ {"a" (nytimes), "b" (netflow), "c" (lsbench)}.
pub fn fig6(scale: Scale, which: &str) -> String {
    let all = datasets(scale);
    let (dataset, label) = match which {
        "a" => (&all[2], "NYTimes-like news stream"),
        "b" => (&all[0], "CAIDA-like netflow"),
        _ => (&all[1], "LSBench-like social stream"),
    };
    let interval = (dataset.len() as u64 / 10).max(1);
    let timeline = dataset.edge_distribution(interval);
    let mut rows = Vec::new();
    // One row per edge type; columns = interval counts. Limit to the ten most
    // frequent types so the table stays readable for LSBench.
    let mut totals: Vec<(sp_graph::EdgeType, u64)> = dataset
        .schema
        .edge_types()
        .map(|t| (t, timeline.series(t).iter().sum()))
        .collect();
    totals.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (t, _) in totals.iter().take(10) {
        let series = timeline.series(*t);
        let mut row = vec![dataset.schema.edge_type_name(*t).to_owned()];
        row.extend(series.iter().map(u64::to_string));
        rows.push(row);
    }
    let mut header = vec!["edge type".to_owned()];
    header.extend((1..=timeline.num_intervals()).map(|i| format!("interval {i}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    format!(
        "## Figure 6{which} — edge-type distribution over time ({label})\n\n\
         interval = {interval} edges; rank stability across intervals = {:.3}\n\n{}",
        timeline.rank_stability(),
        markdown_table(&header_refs, &rows)
    )
}

/// Figure 7 — 2-edge path distribution of the LSBench-like stream, and what
/// the census costs: one batch pass of Algorithm 5 over the whole graph, and
/// the incremental `observe_edge` per edge of the stream, in stream order.
///
/// # Panics
/// Panics when the two censuses differ on any dataset.
pub fn fig7(scale: Scale) -> String {
    let all = datasets(scale);
    let mut out = String::from("## Figure 7 — 2-edge path (wedge) distribution\n\n");
    let mut rows = Vec::new();
    for d in &all {
        let mut graph = DynamicGraph::new(d.schema.clone());
        let edges: Vec<EdgeData> = d.events().iter().map(|ev| graph.ingest(ev).0).collect();
        let started = Instant::now();
        let paths = TwoEdgePathCounter::from_graph(&graph);
        let batch = started.elapsed();
        let mut incremental = TwoEdgePathCounter::new();
        let started = Instant::now();
        for edge in &edges {
            incremental.observe_edge(edge);
        }
        let per_edge = started.elapsed().as_secs_f64() / edges.len().max(1) as f64;
        let desc = paths.descending();
        // The graph is unwindowed, so the two censuses count the same wedges.
        assert_eq!(
            incremental.total(),
            paths.total(),
            "{}: census totals",
            d.name
        );
        assert!(
            incremental.descending() == desc,
            "{}: incremental and batch census disagree",
            d.name
        );
        let top = desc.first().map(|&(_, c)| c).unwrap_or(0);
        let median = desc.get(desc.len() / 2).map(|&(_, c)| c).unwrap_or(0);
        rows.push(vec![
            d.name.clone(),
            paths.num_signatures().to_string(),
            paths.total().to_string(),
            top.to_string(),
            median.to_string(),
            fmt_ratio(top as f64 / median.max(1) as f64),
            fmt_seconds(batch.as_secs_f64()),
            fmt_seconds(per_edge),
        ]);
        if d.name == "lsbench" {
            let logs: Vec<f64> = desc.iter().map(|&(_, c)| (c as f64).log10()).collect();
            out.push_str(&format!(
                "log10(count) histogram of the {} unique LSBench wedges:\n\n```\n{}```\n\n",
                desc.len(),
                ascii_histogram(&logs, 8)
            ));
        }
    }
    out.push_str(&markdown_table(
        &[
            "dataset",
            "unique wedges",
            "total wedges",
            "top count",
            "median count",
            "top/median skew",
            "Algorithm 5 pass",
            "observe_edge per edge",
        ],
        &rows,
    ));
    out
}

/// Figure 8 — the 1-edge and 2-edge decompositions of the example netflow
/// path query (ESP, TCP, ICMP, GRE).
pub fn fig8(scale: Scale) -> String {
    let netflow = &datasets(scale)[0];
    let est = netflow.estimator_from_prefix(netflow.len() / 4);
    let schema = &netflow.schema;
    let mut q = QueryGraph::new("fig8-path");
    let v: Vec<_> = (0..5).map(|_| q.add_any_vertex()).collect();
    for (i, proto) in ["ESP", "TCP", "ICMP", "GRE"].iter().enumerate() {
        q.add_edge(
            v[i],
            v[i + 1],
            schema.edge_type(proto).expect("protocol interned"),
        );
    }
    let single = decompose(&q, PrimitivePolicy::SingleEdge, &est).expect("decomposes");
    let path = decompose(&q, PrimitivePolicy::TwoEdgePath, &est).expect("decomposes");
    format!(
        "## Figure 8 — decompositions of the ESP-TCP-ICMP-GRE path query\n\n\
         ### 1-edge decomposition\n\n```\n{}```\n\n### 2-edge decomposition\n\n```\n{}```\n",
        single.describe(schema),
        path.describe(schema)
    )
}

/// The query groups of one Figure 9 panel.
struct Fig9Panel {
    label: &'static str,
    dataset_index: usize,
    groups: Vec<(String, QueryKind)>,
}

fn fig9_panels() -> Vec<Fig9Panel> {
    vec![
        Fig9Panel {
            label: "a — path queries on netflow",
            dataset_index: 0,
            groups: vec![
                ("path-3".into(), QueryKind::Path { length: 3 }),
                ("path-4".into(), QueryKind::Path { length: 4 }),
                ("path-5".into(), QueryKind::Path { length: 5 }),
            ],
        },
        Fig9Panel {
            label: "b — tree queries on netflow",
            dataset_index: 0,
            groups: vec![
                ("tree-5".into(), QueryKind::BinaryTree { vertices: 5 }),
                ("tree-7".into(), QueryKind::BinaryTree { vertices: 7 }),
                ("tree-9".into(), QueryKind::BinaryTree { vertices: 9 }),
            ],
        },
        Fig9Panel {
            label: "c — path queries on lsbench",
            dataset_index: 1,
            groups: vec![
                ("path-3".into(), QueryKind::Path { length: 3 }),
                ("path-4".into(), QueryKind::Path { length: 4 }),
                ("path-5".into(), QueryKind::Path { length: 5 }),
            ],
        },
        Fig9Panel {
            label: "d — tree queries on lsbench",
            dataset_index: 1,
            groups: vec![
                ("tree-4".into(), QueryKind::NaryTree { vertices: 4 }),
                ("tree-6".into(), QueryKind::NaryTree { vertices: 6 }),
                ("tree-8".into(), QueryKind::NaryTree { vertices: 8 }),
            ],
        },
    ]
}

/// Figure 9 — runtime per strategy vs. query size, for the requested panel
/// (`"a"`, `"b"`, `"c"` or `"d"`). The four SJ-Tree strategies run over the
/// full stream; the VF2-per-edge baseline runs over a shorter prefix (its
/// per-edge cost grows with the graph), and all means are reported per group.
pub fn fig9(scale: Scale, panel: &str) -> String {
    let all = datasets(scale);
    let panels = fig9_panels();
    let chosen = panels
        .iter()
        .find(|p| p.label.starts_with(panel))
        .unwrap_or(&panels[0]);
    let dataset = &all[chosen.dataset_index];
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let mut generator = QueryGenerator::new(
        dataset.schema.clone(),
        dataset.valid_triples.clone(),
        0xF19 + chosen.dataset_index as u64,
    );

    let mut sj_groups = Vec::new();
    let mut baseline_groups = Vec::new();
    for (name, kind) in &chosen.groups {
        let raw = generator.generate_valid_batch(*kind, scale.queries_per_group(), &estimator);
        let queries = sample_by_expected_selectivity(raw, &estimator, scale.sampled_queries());
        if queries.is_empty() {
            continue;
        }
        sj_groups.push(run_group(
            name,
            dataset,
            &estimator,
            &queries,
            &Strategy::SJ_TREE,
            scale.stream_edges(),
            None,
        ));
        baseline_groups.push(run_group(
            name,
            dataset,
            &estimator,
            &queries,
            &Strategy::ALL,
            scale.baseline_edges(),
            None,
        ));
    }

    format!(
        "## Figure 9{} \n\n\
         ### SJ-Tree strategies, full stream ({} edges)\n\n{}\n\
         ### All strategies including the VF2-per-edge baseline, stream prefix ({} edges)\n\n{}\n",
        chosen.label,
        scale.stream_edges(),
        render_groups(&sj_groups, &["Path", "Single", "PathLazy", "SingleLazy"]),
        scale.baseline_edges(),
        render_groups(
            &baseline_groups,
            &["Path", "Single", "PathLazy", "SingleLazy", "VF2"]
        ),
    )
}

/// Figure 10 — distribution of Relative Selectivity across 4-edge queries in
/// the three datasets (log10 scale, like the paper's x-axis).
pub fn fig10(scale: Scale) -> String {
    let all = datasets(scale);
    let mut out =
        String::from("## Figure 10 — Relative Selectivity of 4-edge queries (log10 buckets)\n\n");
    for (i, d) in all.iter().enumerate() {
        let estimator = d.estimator_from_prefix(d.len() / 4);
        let mut generator =
            QueryGenerator::new(d.schema.clone(), d.valid_triples.clone(), 77 + i as u64);
        let kind = if d.name == "nytimes" {
            QueryKind::KPartite { edges: 4 }
        } else {
            QueryKind::Path { length: 4 }
        };
        let queries = generator.generate_valid_batch(kind, 25, &estimator);
        let xs: Vec<f64> = queries
            .iter()
            .map(|q| {
                choose_strategy(q, &estimator, RELATIVE_SELECTIVITY_THRESHOLD)
                    .map_or(1.0, |c| c.relative_selectivity)
                    .log10()
            })
            .filter(|x| x.is_finite())
            .collect();
        let below = xs
            .iter()
            .filter(|&&x| x < RELATIVE_SELECTIVITY_THRESHOLD.log10())
            .count();
        out.push_str(&format!(
            "### {} ({} queries, {} below the 10⁻³ threshold)\n\n```\n{}```\n\n",
            d.name,
            xs.len(),
            below,
            ascii_histogram(&xs, 8)
        ));
    }
    out
}

/// §6.4 profiling claim — fraction of time spent in subgraph isomorphism vs
/// SJ-Tree maintenance. The only experiment that attaches metrics: the
/// split's timers run only then.
pub fn profile(scale: Scale) -> String {
    let dataset = &datasets(scale)[0];
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 555);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 4 }, 10, &estimator);
    let queries = sample_by_expected_selectivity(queries, &estimator, 3);
    let mut rows = Vec::new();
    for strategy in Strategy::SJ_TREE {
        for q in &queries {
            let m = run_query_metered(dataset, &estimator, q, strategy, scale.stream_edges(), None);
            rows.push(vec![
                q.name().to_owned(),
                strategy.label().to_owned(),
                fmt_seconds(m.elapsed.as_secs_f64()),
                format!("{:.1}%", 100.0 * m.profile.iso_time_fraction()),
                m.profile.iso_searches.to_string(),
                m.profile.searches_skipped.to_string(),
            ]);
        }
    }
    format!(
        "## §6.4 profiling — time split between subgraph isomorphism and SJ-Tree update\n\n{}",
        markdown_table(
            &[
                "query",
                "strategy",
                "runtime",
                "iso share",
                "iso searches",
                "skipped"
            ],
            &rows
        )
    )
}

/// §6.5 — does the ξ < 10⁻³ rule pick the faster lazy strategy?
pub fn strategy_selection(scale: Scale) -> String {
    let all = datasets(scale);
    let mut rows = Vec::new();
    let mut hits = 0usize;
    let mut total = 0usize;
    for (i, dataset) in all.iter().take(2).enumerate() {
        let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
        let mut generator = QueryGenerator::new(
            dataset.schema.clone(),
            dataset.valid_triples.clone(),
            900 + i as u64,
        );
        let queries = generator.generate_valid_batch(QueryKind::Path { length: 4 }, 20, &estimator);
        let queries = sample_by_expected_selectivity(queries, &estimator, scale.sampled_queries());
        for q in &queries {
            let choice = match choose_strategy(q, &estimator, RELATIVE_SELECTIVITY_THRESHOLD) {
                Ok(c) => c,
                Err(_) => continue,
            };
            let single = run_query(
                dataset,
                &estimator,
                q,
                Strategy::SingleLazy,
                scale.stream_edges() / 2,
                None,
            );
            let path = run_query(
                dataset,
                &estimator,
                q,
                Strategy::PathLazy,
                scale.stream_edges() / 2,
                None,
            );
            let faster = if path.elapsed < single.elapsed {
                Strategy::PathLazy
            } else {
                Strategy::SingleLazy
            };
            total += 1;
            if faster == choice.strategy {
                hits += 1;
            }
            rows.push(vec![
                dataset.name.clone(),
                q.name().to_owned(),
                format!("{:.2e}", choice.relative_selectivity),
                choice.strategy.label().to_owned(),
                fmt_seconds(single.elapsed.as_secs_f64()),
                fmt_seconds(path.elapsed.as_secs_f64()),
                faster.label().to_owned(),
            ]);
        }
    }
    format!(
        "## §6.5 strategy selection — ξ-rule vs measured fastest lazy strategy\n\n\
         rule agreement: {hits}/{total}\n\n{}",
        markdown_table(
            &[
                "dataset",
                "query",
                "xi",
                "rule picks",
                "SingleLazy",
                "PathLazy",
                "faster"
            ],
            &rows
        )
    )
}

/// A SOC-style netflow rule pack with heavy leaf overlap: scan, beacon,
/// exfiltration and tunnel variants that all decompose into a small pool of
/// shared single-edge / wedge leaves (TCP appears in most rules, ICMP and
/// ESP in several). Returns the first `n` rules of the pack (≤ 12).
pub fn netflow_rule_pack(schema: &Schema, n: usize) -> Vec<QueryGraph> {
    let chain = |name: &str, protos: &[&str]| soc_chain_rule(schema, name, protos);
    let rules = [
        chain("scan-tcp", &["ICMP", "TCP"]),
        chain("exfil-esp", &["TCP", "ESP"]),
        chain("scan-udp", &["ICMP", "UDP"]),
        chain("exfil-gre", &["TCP", "GRE"]),
        chain("tunnel", &["GRE", "ESP"]),
        chain("beacon", &["UDP", "UDP"]),
        chain("relay", &["TCP", "TCP"]),
        chain("probe-chain", &["ICMP", "ICMP"]),
        chain("exfil-bounce", &["TCP", "ESP", "TCP"]),
        chain("scan-then-flood", &["ICMP", "TCP", "UDP"]),
        chain("ah-probe", &["AH", "TCP"]),
        chain("v6-relay", &["IPv6", "TCP"]),
    ];
    rules.into_iter().take(n).collect()
}

/// A rule pack whose selectivity-optimal leaf orders are *inverted* by the
/// netflow drift stream's protocol flip: every chain pairs a protocol from
/// one end of the phase-1 rank order with one from the other end, so the
/// rare-leaf-first ordering chosen before the shift is exactly wrong after
/// it. Returns the first `n` rules (≤ 5).
pub fn drift_rule_pack(schema: &Schema, n: usize) -> Vec<QueryGraph> {
    let chain = |name: &str, protos: &[&str]| soc_chain_rule(schema, name, protos);
    let rules = [
        chain("exfil-ah", &["AH", "TCP"]),
        chain("exfil-esp", &["ESP", "UDP"]),
        chain("tunnel-gre", &["GRE", "ICMP"]),
        chain("deep-exfil", &["AH", "TCP", "UDP"]),
        chain("relay-v6", &["IPv6", "TCP"]),
    ];
    rules.into_iter().take(n).collect()
}

/// Drift measurements for the adaptive-vs-fixed-vs-oracle comparison on the
/// shifting netflow stream, under the fixed lazy strategy and under `Auto`.
/// Used by the `drift` experiment section and serialized to
/// `BENCH_adaptive.json` by the `reproduce` binary's `--json` flag.
pub fn drift_measurements(scale: Scale) -> Vec<DriftMeasurement> {
    let edges = scale.stream_edges();
    // Shift early: the interesting regime is the long steady state *after*
    // the flip, where the frozen plan keeps paying for the wrong leaf order
    // while the adaptive engine has amortized its one-off replay.
    let shift_at = edges / 3;
    let dataset = NetflowDriftConfig {
        // Sparse vertex reuse (≈1 edge per host) and flatter host
        // popularity than the stock netflow stream: lazy gating is the
        // mechanism the leaf order controls, and dense reuse or mega-hubs
        // would saturate the enablement bitmap and let every plan search
        // everything regardless of order.
        num_hosts: edges,
        num_edges: edges,
        shift_at,
        popularity_exponent: 0.5,
        ..NetflowDriftConfig::default()
    }
    .generate();
    let window = Some((edges / 20).max(100) as u64);
    let drift_config = DriftConfig {
        check_interval: (edges as u64 / 64).max(64),
        min_observations: 64,
    };
    let decay_interval = (edges as u64 / 16).max(128);
    let pack = drift_rule_pack(&dataset.schema, 4);
    let mut out = Vec::new();
    for spec in [
        StrategySpec::Fixed(Strategy::SingleLazy),
        StrategySpec::Auto,
    ] {
        out.push(run_drift(
            &dataset,
            &pack,
            spec,
            shift_at,
            edges,
            window,
            drift_config,
            decay_interval,
        ));
    }
    out
}

/// Adaptive re-decomposition — drift-aware selectivity on a stream whose
/// protocol mix flips mid-way. All three arms are asserted to report
/// identical match multisets; the counters compare post-shift engine work.
pub fn drift(scale: Scale) -> String {
    render_drift(&drift_measurements(scale))
}

/// Renders the `drift` experiment table from precomputed measurements.
pub fn render_drift(measurements: &[DriftMeasurement]) -> String {
    let mut rows = Vec::new();
    for m in measurements {
        rows.push(vec![
            m.strategy.clone(),
            m.queries.to_string(),
            format!("{}@{}", m.edges, m.shift_at),
            m.redecompositions.to_string(),
            m.fixed_post_leaf_searches.to_string(),
            m.adaptive_post_leaf_searches.to_string(),
            m.oracle_post_leaf_searches.to_string(),
            format!("{:.1}%", 100.0 * m.search_savings()),
            m.adaptive_replay_searches.to_string(),
            m.fixed_post_leaf_matches.to_string(),
            m.adaptive_post_leaf_matches.to_string(),
            fmt_seconds(m.fixed_post_elapsed.as_secs_f64()),
            fmt_seconds(m.adaptive_post_elapsed.as_secs_f64()),
            fmt_ratio(m.post_speedup()),
            m.matches.to_string(),
        ]);
    }
    format!(
        "## Adaptive re-decomposition — drift-aware selectivity vs a frozen plan\n\n\
         Netflow stream whose protocol rank order reverses at `shift` (Zipf rank flip).\n\
         Both the adaptive and fixed arms share the same decayed estimator and phase-1\n\
         registration statistics; the oracle registered against phase-2 statistics. All\n\
         columns except `redecomp` are **post-shift deltas**; `searches` count the\n\
         steady-state leaf searches (the engines' anchored and retroactive ones and\n\
         the shared prefix tables'), `leaf matches` the leaf matches those searches\n\
         found, `replay` the one-off searches\n\
         spent re-populating the swapped engines' stores (the wall-clock\n\
         columns include them). Match multisets are asserted identical across the\n\
         three arms.\n\n{}",
        markdown_table(
            &[
                "strategy",
                "queries",
                "edges@shift",
                "redecomp",
                "searches (fixed)",
                "searches (adaptive)",
                "searches (oracle)",
                "eliminated",
                "replay",
                "leaf matches (fixed)",
                "leaf matches (adaptive)",
                "post time (fixed)",
                "post time (adaptive)",
                "post speedup",
                "matches",
            ],
            &rows
        )
    )
}

/// Appendix A — analytic cost model vs measured runtime and memory.
pub fn costmodel(scale: Scale) -> String {
    let dataset = &datasets(scale)[0];
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let graph_stats = dataset.build_graph().degree_stats();
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 4242);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 4 }, 12, &estimator);
    let queries = sample_by_expected_selectivity(queries, &estimator, 4);
    let mut rows = Vec::new();
    for q in &queries {
        for policy in [PrimitivePolicy::SingleEdge, PrimitivePolicy::TwoEdgePath] {
            let Ok(tree) = decompose(q, policy, &estimator) else {
                continue;
            };
            let model = CostModel::build(
                &tree,
                &estimator,
                graph_stats.average_degree,
                estimator.num_edges_observed(),
            );
            let strategy = if policy == PrimitivePolicy::SingleEdge {
                Strategy::Single
            } else {
                Strategy::Path
            };
            let measured = run_query(
                dataset,
                &estimator,
                q,
                strategy,
                scale.stream_edges() / 2,
                None,
            );
            rows.push(vec![
                q.name().to_owned(),
                policy.to_string(),
                format!("{:.1}", model.space_units),
                measured.peak_partial_matches.to_string(),
                format!("{:.2}", model.work_per_edge),
                fmt_seconds(measured.elapsed.as_secs_f64()),
            ]);
        }
    }
    format!(
        "## Appendix A — analytic cost model vs measurement\n\n{}",
        markdown_table(
            &[
                "query",
                "decomposition",
                "predicted space units",
                "measured stored matches",
                "predicted work/edge",
                "measured runtime",
            ],
            &rows
        )
    )
}

/// Every experiment id accepted by the `reproduce` binary.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig7",
    "fig8",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9d",
    "fig10",
    "profile",
    "strategy",
    "costmodel",
    "drift",
];

/// Runs one experiment by id, returning its markdown section.
pub fn run_experiment(id: &str, scale: Scale) -> Option<String> {
    let section = match id {
        "table1" => table1(scale),
        "fig6a" => fig6(scale, "a"),
        "fig6b" => fig6(scale, "b"),
        "fig6c" => fig6(scale, "c"),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9a" => fig9(scale, "a"),
        "fig9b" => fig9(scale, "b"),
        "fig9c" => fig9(scale, "c"),
        "fig9d" => fig9(scale, "d"),
        "fig10" => fig10(scale),
        "profile" => profile(scale),
        "strategy" => strategy_selection(scale),
        "costmodel" => costmodel(scale),
        "drift" => drift(scale),
        _ => return None,
    };
    Some(section)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{partial_match_inserts, run_alone};
    use streampattern::{ContinuousQueryEngine, StreamProcessor, SubgraphMatch};

    #[test]
    fn experiment_ids_are_exhaustive() {
        for id in ALL_EXPERIMENTS {
            // Only check that the dispatcher knows every id; running them all
            // here would be too slow for a unit test. The cheap ones are run
            // for real below.
            assert!(
                *id == "table1"
                    || id.starts_with("fig")
                    || ["profile", "strategy", "costmodel", "drift"].contains(id)
            );
        }
        assert!(run_experiment("unknown", Scale::Small).is_none());
    }

    #[test]
    fn table1_lists_three_datasets() {
        let t = table1(Scale::Small);
        assert!(t.contains("netflow"));
        assert!(t.contains("lsbench"));
        assert!(t.contains("nytimes"));
    }

    #[test]
    fn fig8_shows_both_decompositions() {
        let t = fig8(Scale::Small);
        assert!(t.contains("1-edge decomposition"));
        assert!(t.contains("2-edge decomposition"));
        assert!(t.contains("ESP"));
    }

    #[test]
    fn fig7_reports_what_the_census_costs() {
        let t = fig7(Scale::Small);
        assert!(t.contains("| Algorithm 5 pass | observe_edge per edge |"));
        for name in ["netflow", "lsbench", "nytimes"] {
            let row = t
                .lines()
                .find(|l| l.starts_with(&format!("| {name} |")))
                .unwrap_or_else(|| panic!("no {name} row in\n{t}"));
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            // `| a | … | y | z |` splits into ["", a, …, y, z, ""].
            for cell in &cells[cells.len() - 3..cells.len() - 1] {
                assert!(
                    ["µs", "ms", " s"].iter().any(|unit| cell.ends_with(unit)),
                    "{name}: `{cell}` is not a time"
                );
            }
        }
    }

    #[test]
    fn fig6_reports_rank_stability() {
        let t = fig6(Scale::Small, "b");
        assert!(t.contains("rank stability"));
        assert!(t.contains("TCP"));
    }

    #[test]
    fn rule_pack_has_twelve_overlapping_rules() {
        let d = &datasets(Scale::Small)[0];
        let pack = netflow_rule_pack(&d.schema, 12);
        assert_eq!(pack.len(), 12);
        assert_eq!(netflow_rule_pack(&d.schema, 3).len(), 3);
        // Heavy overlap: far fewer distinct edge types than edges.
        let mut types: Vec<_> = pack
            .iter()
            .flat_map(|q| q.edges().map(|e| e.edge_type))
            .collect();
        let total = types.len();
        types.sort_unstable();
        types.dedup();
        assert!(types.len() * 3 <= total, "pack is not overlapping enough");
    }

    #[test]
    fn adaptive_eliminates_post_shift_engine_work() {
        // The acceptance bar for drift-adaptive re-decomposition: after the
        // protocol flip, the adaptive engine performs measurably fewer leaf
        // searches (anchored + retroactive + shared prefix) than the frozen
        // plan, at least one re-decomposition actually happened, and the
        // match multisets are identical (asserted inside run_drift).
        let edges = 3_000;
        let shift_at = 1_000;
        let dataset = NetflowDriftConfig {
            num_hosts: edges,
            num_edges: edges,
            shift_at,
            popularity_exponent: 0.5,
            ..NetflowDriftConfig::default()
        }
        .generate();
        let pack = drift_rule_pack(&dataset.schema, 4);
        let m = run_drift(
            &dataset,
            &pack,
            StrategySpec::Fixed(Strategy::SingleLazy),
            shift_at,
            edges,
            Some(300),
            DriftConfig {
                check_interval: 64,
                min_observations: 64,
            },
            128,
        );
        assert!(m.redecompositions >= 1, "no plan ever moved: {m:?}");
        assert!(
            m.search_savings() >= 0.20,
            "adaptive must eliminate ≥20% of post-shift leaf searches: \
             fixed={} adaptive={} ({:.1}%)",
            m.fixed_post_leaf_searches,
            m.adaptive_post_leaf_searches,
            100.0 * m.search_savings(),
        );
        assert!(m.adaptive_post_leaf_matches <= m.fixed_post_leaf_matches);
    }

    #[test]
    fn drift_counts_match_the_committed_bench_adaptive_json() {
        // `BENCH_adaptive.json` is `reproduce -e drift -s small --json`
        // output: every count in it is deterministic, only the times move.
        let committed: Vec<DriftMeasurement> =
            serde_json::from_str(include_str!("../../../BENCH_adaptive.json"))
                .expect("BENCH_adaptive.json parses");
        let counts = |m: &DriftMeasurement| {
            (
                (m.queries, m.edges, m.shift_at, m.post_edges),
                (m.strategy.clone(), m.matches, m.redecompositions),
                [
                    m.adaptive_replay_searches,
                    m.adaptive_post_leaf_searches,
                    m.fixed_post_leaf_searches,
                    m.oracle_post_leaf_searches,
                    m.adaptive_post_leaf_matches,
                    m.fixed_post_leaf_matches,
                    m.oracle_post_leaf_matches,
                ],
            )
        };
        let measured = drift_measurements(Scale::Small);
        assert_eq!(
            measured.iter().map(counts).collect::<Vec<_>>(),
            committed.iter().map(counts).collect::<Vec<_>>(),
            "regenerate with `reproduce -e drift -s small --json BENCH_adaptive.json`"
        );
    }

    /// A test pack: `(rule name, protocol chain, window)` per rule.
    type Pack = [(&'static str, &'static [&'static str], Option<u64>)];

    /// Identical chains under different windows (one tight alerting, one
    /// wide forensic: they share one refcounted prefix table and filter by
    /// window at emit time), 3-step rules extending a 2-step chain (the
    /// shorter rule's whole tree is the longer rule's prefix), and rules
    /// that must stay private.
    const JOIN_PACK: &Pack = &[
        ("exfil-alert", &["TCP", "ESP"], Some(400)),
        ("exfil-forensic", &["TCP", "ESP"], None),
        ("exfil-bounce", &["TCP", "ESP", "TCP"], Some(2_000)),
        ("scan-alert", &["ICMP", "TCP"], Some(400)),
        ("scan-forensic", &["ICMP", "TCP"], Some(4_000)),
        ("scan-flood", &["ICMP", "TCP", "UDP"], Some(2_000)),
        ("beacon", &["UDP", "UDP"], Some(1_000)),
        ("tunnel", &["GRE", "ESP"], Some(1_000)),
    ];

    /// Every 2-step chain under two windows AND as the proper prefix of a
    /// 3-step chain under two windows, registered shallow-first: two 2-node
    /// tries (`[TCP,ESP]→[TCP,ESP,TCP]`, `[ICMP,TCP]→[ICMP,TCP,UDP]`) whose
    /// deep node consumes its parent's emissions instead of re-running the
    /// prefix's leaf searches and storing its partials again.
    const NESTED_PACK: &Pack = &[
        ("exfil-alert", &["TCP", "ESP"], Some(400)),
        ("exfil-forensic", &["TCP", "ESP"], None),
        ("bounce-alert", &["TCP", "ESP", "TCP"], Some(2_000)),
        ("bounce-forensic", &["TCP", "ESP", "TCP"], None),
        ("scan-alert", &["ICMP", "TCP"], Some(400)),
        ("scan-forensic", &["ICMP", "TCP"], Some(4_000)),
        ("flood-alert", &["ICMP", "TCP", "UDP"], Some(2_000)),
        ("flood-forensic", &["ICMP", "TCP", "UDP"], None),
    ];

    fn rules(schema: &Schema, pack: &Pack) -> Vec<(QueryGraph, Option<u64>)> {
        pack.iter()
            .map(|&(name, chain, window)| (soc_chain_rule(schema, name, chain), window))
            .collect()
    }

    /// A match as `(rule slot, edge bindings)`.
    fn fingerprint(slot: usize, m: &SubgraphMatch) -> (usize, String) {
        (slot, format!("{:?}", m.edge_pairs().collect::<Vec<_>>()))
    }

    /// Runs `rules` over the first 2 000 edges on one processor and on one
    /// engine per rule run alone ([`run_alone`]), asserts both report the
    /// same `(rule, match)` multiset, and returns the shared processor with
    /// the partial-match inserts of each side.
    fn shared_and_independent(
        d: &Dataset,
        rules: &[(QueryGraph, Option<u64>)],
        strategy: Strategy,
    ) -> (StreamProcessor, u64, u64) {
        let est = d.estimator_from_prefix(d.len() / 4);
        let events = &d.events()[..2_000];
        let mut shared = StreamProcessor::new(d.schema.clone())
            .with_estimator(est.clone())
            .with_statistics(false);
        let ids: Vec<_> = rules
            .iter()
            .map(|(q, w)| shared.register(q.clone(), strategy, *w).unwrap())
            .collect();
        let mut found = Vec::new();
        for ev in events {
            for (q, m) in shared.process(ev) {
                found.push(fingerprint(ids.iter().position(|&i| i == q).unwrap(), &m));
            }
        }
        let (mut expected, mut independent_inserts) = (Vec::new(), 0);
        for (slot, (q, w)) in rules.iter().enumerate() {
            let engine = ContinuousQueryEngine::new(q.clone(), strategy, &est, *w).unwrap();
            let engine = run_alone(&d.schema, engine, events, 0, |m| {
                expected.push(fingerprint(slot, &m));
            });
            independent_inserts += engine.stored_matches();
        }
        found.sort();
        expected.sort();
        assert!(!found.is_empty(), "{strategy:?}: the pack found no matches");
        assert_eq!(
            found, expected,
            "{strategy:?}: shared run diverges from the oracle"
        );
        let inserts = partial_match_inserts(&shared);
        (shared, inserts, independent_inserts)
    }

    #[test]
    fn shared_and_independent_agree_on_the_8_query_pack() {
        // An overlapping 8-query netflow rule pack on one processor reports
        // the (rule, match) multiset of its rules run alone.
        let d = &datasets(Scale::Small)[0];
        let pack: Vec<_> = netflow_rule_pack(&d.schema, 8)
            .into_iter()
            .map(|q| (q, Some(400)))
            .collect();
        for strategy in [Strategy::Single, Strategy::SingleLazy] {
            let (proc, _, _) = shared_and_independent(d, &pack, strategy);
            assert_eq!(proc.num_queries(), 8);
        }
    }

    #[test]
    fn sharedjoin_measurably_reduces_join_inserts_on_the_8_rule_pack() {
        // The acceptance bar for the shared join stage: on the overlapping
        // windowed netflow rule pack, the refcounted prefix tables perform
        // measurably (≥10%) fewer inserts than independent processors.
        let d = &datasets(Scale::Small)[0];
        let pack = rules(&d.schema, JOIN_PACK);
        for strategy in [Strategy::Single, Strategy::SingleLazy] {
            let (proc, inserts, independent) = shared_and_independent(d, &pack, strategy);
            let stats = proc.shared_join_stats();
            assert!(
                stats.tables >= 2,
                "{strategy:?}: the pack must coalesce into ≥2 tables, got {}",
                stats.tables
            );
            assert!(stats.subscriptions >= 4, "{stats:?}");
            let reduction = 1.0 - inserts as f64 / independent as f64;
            assert!(
                reduction >= 0.10,
                "{strategy:?}: only {:.1}% of join-stage inserts eliminated \
                 (independent={independent} shared={inserts})",
                100.0 * reduction,
            );
            assert!(stats.searches_saved > 0);
            assert!(stats.emissions > 0);
        }
    }

    #[test]
    fn nested_prefix_pack_forms_trie_children_that_consume_parent_emissions() {
        // On the nested-prefix pack the stage must actually form depth-3
        // children that consume parent emissions, and strictly reduce
        // join-stage inserts versus independent processors.
        let d = &datasets(Scale::Small)[0];
        let pack = rules(&d.schema, NESTED_PACK);
        for strategy in [Strategy::Single, Strategy::SingleLazy] {
            let (proc, inserts, independent) = shared_and_independent(d, &pack, strategy);
            let stats = proc.shared_join_stats();
            assert!(
                stats.max_depth >= 3,
                "{strategy:?}: nested pack must materialize a depth-3 trie child, got {}",
                stats.max_depth
            );
            assert!(
                stats.parent_feeds > 0,
                "{strategy:?}: child nodes consumed no parent emissions"
            );
            assert!(
                inserts < independent,
                "{strategy:?}: trie inserts {inserts} not < independent inserts {independent}",
            );
        }
    }
}
