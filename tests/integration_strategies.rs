//! Cross-strategy agreement and the behavioural expectations behind the
//! paper's evaluation: all strategies report the same matches, lazy variants
//! do less work, path variants store fewer partial matches, the selectivity
//! join order stores fewer than its reverse, and the ξ-based selector returns
//! one of the lazy strategies.

use sp_datasets::{NetflowConfig, QueryGenerator, QueryKind};
use std::collections::HashSet;
use streampattern::{
    choose_strategy, plan_query, ContinuousQueryEngine, SjTree, Strategy, StreamProcessor,
    RELATIVE_SELECTIVITY_THRESHOLD,
};

/// Runs one query with one strategy over the full stream and returns the set
/// of reported matches as canonical (query edge, data edge) pair lists plus
/// the processor for inspection.
fn run(
    dataset: &sp_datasets::Dataset,
    query: &streampattern::QueryGraph,
    strategy: Strategy,
) -> (HashSet<Vec<(usize, u64)>>, StreamProcessor) {
    let estimator = dataset.estimator_from_prefix(dataset.len() / 2);
    let engine = ContinuousQueryEngine::new(query.clone(), strategy, &estimator, None)
        .expect("engine builds");
    run_engine(dataset, engine)
}

/// [`run`] for an engine built by the caller.
fn run_engine(
    dataset: &sp_datasets::Dataset,
    engine: ContinuousQueryEngine,
) -> (HashSet<Vec<(usize, u64)>>, StreamProcessor) {
    let strategy = engine.strategy();
    let mut proc = StreamProcessor::with_engine(dataset.schema.clone(), engine);
    let mut found = HashSet::new();
    for ev in dataset.events() {
        for (_, m) in proc.process(ev) {
            let key: Vec<(usize, u64)> = m.edge_pairs().map(|(q, d)| (q.0, d.0)).collect();
            assert!(found.insert(key), "duplicate match reported by {strategy}");
        }
    }
    (found, proc)
}

fn small_netflow() -> sp_datasets::Dataset {
    NetflowConfig {
        num_hosts: 200,
        num_edges: 1_200,
        ..NetflowConfig::tiny()
    }
    .generate()
}

#[test]
fn random_path_queries_agree_across_all_strategies() {
    let dataset = small_netflow();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 2);
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 17);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 3 }, 4, &estimator);
    assert!(!queries.is_empty());
    for query in &queries {
        let (reference, _) = run(&dataset, query, Strategy::Vf2Baseline);
        for strategy in Strategy::SJ_TREE {
            let (found, _) = run(&dataset, query, strategy);
            assert_eq!(
                found,
                reference,
                "{strategy} disagrees with VF2 on {}",
                query.name()
            );
        }
    }
}

#[test]
fn random_tree_queries_agree_across_sjtree_strategies() {
    let dataset = small_netflow();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 2);
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 23);
    let queries =
        generator.generate_valid_batch(QueryKind::BinaryTree { vertices: 5 }, 4, &estimator);
    for query in &queries {
        let (reference, _) = run(&dataset, query, Strategy::Single);
        for strategy in [Strategy::SingleLazy, Strategy::Path, Strategy::PathLazy] {
            let (found, _) = run(&dataset, query, strategy);
            assert_eq!(found, reference, "{strategy} disagrees on {}", query.name());
        }
    }
}

#[test]
fn lazy_strategies_do_less_search_work() {
    let dataset = small_netflow();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 2);
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 31);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 4 }, 4, &estimator);
    for query in &queries {
        let (_, mut eager) = run(&dataset, query, Strategy::Single);
        let (_, mut lazy) = run(&dataset, query, Strategy::SingleLazy);
        let eager_work = eager.profile().iso_searches + eager.profile().leaf_matches;
        let lazy_work = lazy.profile().iso_searches + lazy.profile().leaf_matches;
        assert!(
            lazy_work <= eager_work,
            "lazy did more work ({lazy_work} vs {eager_work}) on {}",
            query.name()
        );
        assert!(lazy.profile().searches_skipped > 0);
    }
}

#[test]
fn lazy_strategies_store_fewer_partial_matches() {
    let dataset = small_netflow();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 2);
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 37);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 3 }, 4, &estimator);
    for query in &queries {
        let (_, eager) = run(&dataset, query, Strategy::Single);
        let (_, lazy) = run(&dataset, query, Strategy::SingleLazy);
        let eager_live = eager.engine().live_partial_matches();
        let lazy_live = lazy.engine().live_partial_matches();
        assert!(
            lazy_live <= eager_live,
            "lazy stored more ({lazy_live} vs {eager_live}) on {}",
            query.name()
        );
    }
}

#[test]
fn selectivity_join_order_stores_fewer_partial_matches() {
    // Theorems 1–2: joining the most selective leaves first keeps the
    // partial matches small. Eager trees are exact in any leaf order, so the
    // decomposition's order and its reverse must agree on every match. The
    // order comes from estimated selectivities, so it is a bet that pays
    // over a batch, not on every query: here `path4-12` stores 1 046 rows
    // in selectivity order against 908 reversed, while the batch stores
    // about a twelfth.
    let dataset = small_netflow();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 2);
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 41);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 4 }, 12, &estimator);
    assert!(queries.len() >= 5);
    let (mut ordered_total, mut reversed_total) = (0, 0);
    for query in &queries {
        let (_, ordered) = plan_query(query, Strategy::Single.into(), &estimator).unwrap();
        let mut leaves: Vec<_> = ordered.leaf_subgraphs().cloned().collect();
        leaves.reverse();
        let reversed = SjTree::from_leaves(query.clone(), leaves);
        let [(found, ordered), (found_reversed, reversed)] = [ordered, reversed].map(|tree| {
            run_engine(
                &dataset,
                ContinuousQueryEngine::from_plan(Strategy::Single, tree, None).unwrap(),
            )
        });
        assert_eq!(
            found,
            found_reversed,
            "join orders disagree on {}",
            query.name()
        );
        ordered_total += ordered.engine().stored_matches();
        reversed_total += reversed.engine().stored_matches();
    }
    assert!(
        ordered_total * 4 <= reversed_total,
        "selectivity order stored {ordered_total} partial matches, its reverse {reversed_total}"
    );
}

#[test]
fn selector_picks_a_lazy_strategy_and_xi_is_in_range() {
    let dataset = small_netflow();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 2);
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 41);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 4 }, 8, &estimator);
    for query in &queries {
        let choice = choose_strategy(query, &estimator, RELATIVE_SELECTIVITY_THRESHOLD)
            .expect("query decomposes");
        assert!(choice.strategy.is_lazy());
        assert!(choice.relative_selectivity.is_finite());
        assert!(choice.relative_selectivity > 0.0);
        // ξ compares a finer decomposition against the 1-edge one; it can
        // never exceed ~1 by more than floating error on seen primitives.
        assert!(choice.relative_selectivity <= 10.0);
    }
}

#[test]
fn vf2_baseline_is_slower_than_lazy_on_a_growing_graph() {
    // Not a benchmark, just a sanity check of the complexity gap: the VF2
    // baseline rescans the whole graph per edge, so on a few thousand edges
    // it must already do far more isomorphism work than the lazy engine.
    let dataset = NetflowConfig {
        num_hosts: 200,
        num_edges: 1_200,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = &dataset.schema;
    let tcp = schema.edge_type("TCP").unwrap();
    let esp = schema.edge_type("ESP").unwrap();
    let mut q = streampattern::QueryGraph::new("esp-tcp");
    let a = q.add_any_vertex();
    let b = q.add_any_vertex();
    let c = q.add_any_vertex();
    q.add_edge(a, b, esp);
    q.add_edge(b, c, tcp);

    let t0 = std::time::Instant::now();
    let (vf2_matches, _) = run(&dataset, &q, Strategy::Vf2Baseline);
    let vf2_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let (lazy_matches, _) = run(&dataset, &q, Strategy::PathLazy);
    let lazy_time = t1.elapsed();
    assert_eq!(vf2_matches, lazy_matches);
    assert!(
        vf2_time > lazy_time,
        "expected VF2 ({vf2_time:?}) to be slower than PathLazy ({lazy_time:?})"
    );
}
