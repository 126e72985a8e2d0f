//! Ablation benches for three of the paper's design choices:
//!
//! * **join order** — selectivity-ordered leaves (Theorem 1/2) vs the same
//!   leaves in reverse (most frequent primitive first);
//! * **lazy search** — the bitmap-gated search vs track-everything on the
//!   same decomposition;
//! * **window purging** — the cost of maintaining a sliding window with
//!   different purge intervals.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sp_datasets::{NetflowConfig, QueryGenerator, QueryKind};
use sp_query::QuerySubgraph;
use sp_sjtree::{decompose, PrimitivePolicy, SjTree};
use streampattern::{ContinuousQueryEngine, Strategy, StreamProcessor};

const STREAM_EDGES: usize = 1_000;

fn fixture() -> (
    sp_datasets::Dataset,
    streampattern::SelectivityEstimator,
    Vec<streampattern::QueryGraph>,
) {
    let dataset = NetflowConfig {
        num_hosts: 1_000,
        num_edges: STREAM_EDGES,
        ..NetflowConfig::default()
    }
    .generate();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 0xAB);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 4 }, 10, &estimator);
    let queries = queries.into_iter().take(2).collect();
    (dataset, estimator, queries)
}

/// Rebuilds an SJ-Tree with the leaf order reversed (a selectivity-agnostic
/// join order).
fn reversed_tree(tree: &SjTree) -> SjTree {
    let query = tree.query().clone();
    let mut leaves: Vec<QuerySubgraph> = tree.leaf_subgraphs().cloned().collect();
    leaves.reverse();
    SjTree::from_leaves(query, leaves)
}

fn join_order_ablation(c: &mut Criterion) {
    let (dataset, estimator, queries) = fixture();
    let mut group = c.benchmark_group("ablation_join_order");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for (i, q) in queries.iter().enumerate() {
        let ordered = decompose(q, PrimitivePolicy::SingleEdge, &estimator).unwrap();
        let reversed = reversed_tree(&ordered);
        for (label, tree) in [("selectivity-ordered", &ordered), ("reversed", &reversed)] {
            group.bench_with_input(BenchmarkId::new(label, i), tree, |b, tree| {
                b.iter(|| {
                    let engine =
                        ContinuousQueryEngine::from_tree(tree.clone(), true, None).unwrap();
                    let mut proc = StreamProcessor::with_engine(dataset.schema.clone(), engine)
                        .with_statistics(false);
                    proc.process_all(dataset.events().iter())
                })
            });
        }
    }
    group.finish();
}

fn lazy_ablation(c: &mut Criterion) {
    let (dataset, estimator, queries) = fixture();
    let mut group = c.benchmark_group("ablation_lazy");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for (i, q) in queries.iter().enumerate() {
        for strategy in [
            Strategy::Single,
            Strategy::SingleLazy,
            Strategy::Path,
            Strategy::PathLazy,
        ] {
            group.bench_with_input(BenchmarkId::new(strategy.label(), i), q, |b, q| {
                b.iter(|| {
                    let engine =
                        ContinuousQueryEngine::new(q.clone(), strategy, &estimator, None).unwrap();
                    let mut proc = StreamProcessor::with_engine(dataset.schema.clone(), engine)
                        .with_statistics(false);
                    proc.process_all(dataset.events().iter())
                })
            });
        }
    }
    group.finish();
}

fn window_purge_ablation(c: &mut Criterion) {
    let (dataset, estimator, queries) = fixture();
    let q = &queries[0];
    let mut group = c.benchmark_group("ablation_window_purge");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for purge_interval in [64u64, 1024, 16_384] {
        group.bench_with_input(
            BenchmarkId::from_parameter(purge_interval),
            &purge_interval,
            |b, &interval| {
                b.iter(|| {
                    let engine = ContinuousQueryEngine::new(
                        q.clone(),
                        Strategy::SingleLazy,
                        &estimator,
                        Some(2_000),
                    )
                    .unwrap();
                    let mut proc = StreamProcessor::with_engine(dataset.schema.clone(), engine)
                        .with_statistics(false)
                        .with_purge_interval(interval);
                    proc.process_all(dataset.events().iter())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    join_order_ablation,
    lazy_ablation,
    window_purge_ablation
);
criterion_main!(benches);
