//! Cross-crate integration: the parallel runtime against generated dataset
//! streams, asserting exact match-multiset equivalence with the sequential
//! processor for 1, 2 and 4 workers.

use sp_datasets::{NetflowConfig, QueryGenerator, QueryKind};
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use streampattern::{FnSink, QueryId, Strategy, StreamProcessor, SubgraphMatch};

/// Worker counts under test.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

#[test]
fn netflow_multi_query_equivalence_across_worker_counts() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 4_000,
        ..NetflowConfig::tiny()
    }
    .generate();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 47);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 3 }, 6, &estimator);
    assert!(queries.len() >= 3, "generator produced too few queries");

    // Sequential reference: full (query, match) multiset.
    let mut seq = StreamProcessor::new(dataset.schema.clone())
        .with_estimator(estimator.clone())
        .with_statistics(false);
    for q in &queries {
        seq.register(q.clone(), Strategy::SingleLazy, Some(5_000))
            .unwrap();
    }
    let mut expected: Vec<(QueryId, String)> = Vec::new();
    let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
        expected.push((q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
    });
    for ev in dataset.events() {
        seq.process_into(ev, &mut sink);
    }
    expected.sort();
    assert!(!expected.is_empty(), "workload produced no matches");

    for workers in WORKER_COUNTS {
        let mut runtime = ParallelStreamProcessor::new(
            dataset.schema.clone(),
            RuntimeConfig::with_workers(workers).statistics(false),
        )
        .with_estimator(estimator.clone());
        for q in &queries {
            runtime
                .register(q.clone(), Strategy::SingleLazy, Some(5_000))
                .unwrap();
        }
        let mut got: Vec<(QueryId, String)> = Vec::new();
        let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
            got.push((q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
        });
        runtime.process_all_into(dataset.events().iter(), &mut sink);
        got.sort();
        assert_eq!(
            got.len(),
            expected.len(),
            "match count diverged at {workers} workers"
        );
        assert_eq!(
            got, expected,
            "match multiset diverged at {workers} workers"
        );
    }
}

#[test]
fn auto_strategy_registration_matches_sequential_choice() {
    // `StrategySpec::Auto` consults the ingest-path statistics; the facade
    // maintains them exactly like the sequential processor does, so both
    // must pick the same strategy for a query registered mid-stream.
    let dataset = NetflowConfig {
        num_hosts: 200,
        num_edges: 2_000,
        ..NetflowConfig::tiny()
    }
    .generate();
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 1234);
    let estimator = dataset.estimator_from_prefix(dataset.len() / 2);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 4 }, 3, &estimator);
    assert!(!queries.is_empty());
    let (prefix, suffix) = dataset.events().split_at(dataset.len() / 2);

    let mut seq = StreamProcessor::new(dataset.schema.clone());
    seq.process_all(prefix.iter());
    let mut runtime =
        ParallelStreamProcessor::new(dataset.schema.clone(), RuntimeConfig::with_workers(2));
    runtime.process_all(prefix.iter());

    for q in &queries {
        let seq_id = seq
            .register(q.clone(), streampattern::StrategySpec::Auto, None)
            .unwrap();
        let par_id = runtime
            .register(q.clone(), streampattern::StrategySpec::Auto, None)
            .unwrap();
        assert_eq!(seq_id, par_id, "id assignment diverged");
    }
    let seq_found = seq.process_all(suffix.iter());
    let par_found = runtime.process_all(suffix.iter());
    assert_eq!(seq_found, par_found, "post-registration matches diverged");
}
