//! Cross-crate integration: the thread executor against generated dataset
//! streams, asserting exact match-multiset equivalence with the inline
//! executor for 1, 2 and 4 workers.

use sp_datasets::{NetflowConfig, QueryGenerator, QueryKind};
use streampattern::{FnSink, QueryId, Strategy, StrategySpec, SubgraphMatch};

#[macro_use]
mod common;

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

    // The full (query, match) multiset on every executor.
    let runs = on_every_executor!(&dataset.schema, |_, p| {
        let mut p = p.with_estimator(estimator.clone()).with_statistics(false);
        for q in &queries {
            p.register(q.clone(), Strategy::SingleLazy, Some(5_000))
                .unwrap();
        }
        let mut got: Vec<(QueryId, String)> = Vec::new();
        let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
            got.push((q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
        });
        p.process_all_into(dataset.events().iter(), &mut sink);
        got.sort();
        got
    });
    let (_, expected) = &runs[0];
    assert!(!expected.is_empty(), "workload produced no matches");
    for (label, got) in &runs[1..] {
        assert_eq!(got.len(), expected.len(), "match count diverged at {label}");
        assert_eq!(got, expected, "match multiset diverged at {label}");
    }
}

#[test]
fn auto_strategy_registration_matches_sequential_choice() {
    // `StrategySpec::Auto` consults the ingest-path statistics, which every
    // executor feeds the same way, so each must pick the same strategy (and
    // id) for a query registered mid-stream.
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

    let runs = on_every_executor!(&dataset.schema, |_, mut p| {
        p.process_all(prefix.iter());
        let ids: Vec<QueryId> = queries
            .iter()
            .map(|q| p.register(q.clone(), StrategySpec::Auto, None).unwrap())
            .collect();
        (ids, p.process_all(suffix.iter()))
    });
    let (_, (seq_ids, seq_found)) = &runs[0];
    for (label, (ids, found)) in &runs[1..] {
        assert_eq!(ids, seq_ids, "id assignment diverged at {label}");
        assert_eq!(
            found, seq_found,
            "post-registration matches diverged at {label}"
        );
    }
}
