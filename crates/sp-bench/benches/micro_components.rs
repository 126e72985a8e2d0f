//! Micro-benchmarks of the individual components on the hot path: anchored
//! subgraph isomorphism around one edge, the SJ-Tree hash-join insert, the
//! shared join stage's row → delivered-match fan-out, the greedy
//! decomposition, and the dataset generators themselves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sp_datasets::{NetflowConfig, QueryGenerator, QueryKind, ZipfSampler};
use sp_graph::{EdgeEvent, Schema, Timestamp};
use sp_iso::find_matches_containing_edge;
use sp_query::{QueryGraph, QuerySubgraph};
use sp_sjtree::{decompose, MatchStore, PrimitivePolicy};
use streampattern::{CountSink, Strategy, StreamProcessor};

fn anchored_search(c: &mut Criterion) {
    let dataset = NetflowConfig {
        num_hosts: 2_000,
        num_edges: 20_000,
        ..NetflowConfig::default()
    }
    .generate();
    let graph = dataset.build_graph();
    let estimator = dataset.estimator_from_prefix(dataset.len());
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 3);
    let query = generator
        .generate_valid_batch(QueryKind::Path { length: 3 }, 10, &estimator)
        .into_iter()
        .next()
        .expect("at least one valid query");
    let single = QuerySubgraph::from_edges(&query, [query.edge_ids().next().unwrap()]);
    let wedge_edges: Vec<_> = query.edge_ids().take(2).collect();
    let wedge = QuerySubgraph::from_edges(&query, wedge_edges);
    let edges: Vec<_> = graph.edges().copied().take(256).collect();

    let mut group = c.benchmark_group("anchored_search");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("single_edge_leaf", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for e in &edges {
                n += find_matches_containing_edge(&graph, &query, &single, e).len();
            }
            n
        })
    });
    group.bench_function("two_edge_wedge_leaf", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for e in &edges {
                n += find_matches_containing_edge(&graph, &query, &wedge, e).len();
            }
            n
        })
    });
    group.finish();
}

fn sjtree_operations(c: &mut Criterion) {
    let dataset = NetflowConfig {
        num_hosts: 1_000,
        num_edges: 5_000,
        ..NetflowConfig::default()
    }
    .generate();
    let graph = dataset.build_graph();
    let estimator = dataset.estimator_from_prefix(dataset.len());
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 5);
    let queries = generator.generate_valid_batch(QueryKind::Path { length: 4 }, 10, &estimator);
    let query = queries.into_iter().next().expect("valid query");

    let mut group = c.benchmark_group("sjtree");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.bench_function("decompose_single", |b| {
        b.iter(|| {
            decompose(&query, PrimitivePolicy::SingleEdge, &estimator)
                .unwrap()
                .num_nodes()
        })
    });
    group.bench_function("decompose_path", |b| {
        b.iter(|| {
            decompose(&query, PrimitivePolicy::TwoEdgePath, &estimator)
                .unwrap()
                .num_nodes()
        })
    });

    // Hash-join insert throughput: pre-compute leaf matches for a batch of
    // edges, then measure pushing them through the store.
    let tree = decompose(&query, PrimitivePolicy::SingleEdge, &estimator).unwrap();
    let mut batch = Vec::new();
    for e in graph.edges().take(2_000) {
        for (rank, &leaf) in tree.leaves().iter().enumerate() {
            let found = find_matches_containing_edge(&graph, &query, tree.subgraph(leaf), e);
            for m in found {
                batch.push((rank, m));
            }
        }
    }
    group.throughput(Throughput::Elements(batch.len().max(1) as u64));
    group.bench_function("matchstore_insert", |b| {
        b.iter(|| {
            let mut store = MatchStore::new(&tree);
            let mut complete = Vec::new();
            for (rank, m) in &batch {
                store.insert(&tree, tree.leaf(*rank), m.clone(), None, &mut complete);
            }
            complete.len()
        })
    });
    group.finish();
}

/// The match-storm delivery path in isolation: two full-depth subscribers
/// (two windows) on one `[tcp, esp]` prefix table, every edge through one
/// hub vertex, so each esp edge joins ~100 live tcp rows and every emitted
/// row is filtered and materialized once per subscriber, straight into the
/// sink. Elements are stream edges; each delivers ~75 matches.
fn shared_join_fanout(c: &mut Criterion) {
    let mut schema = Schema::new();
    let ip = schema.intern_vertex_type("ip");
    let tcp = schema.intern_edge_type("tcp");
    let esp = schema.intern_edge_type("esp");
    let mut proc = StreamProcessor::new(schema)
        .with_statistics(false)
        .with_purge_interval(256);
    for window in [200, 100] {
        let mut q = QueryGraph::new("exfil");
        let (a, b, c) = (q.add_any_vertex(), q.add_any_vertex(), q.add_any_vertex());
        q.add_edge(a, b, tcp);
        q.add_edge(b, c, esp);
        proc.register(q, Strategy::Single, Some(window)).unwrap();
    }
    assert_eq!(proc.shared_join_stats().tables, 1);

    const HUB: u64 = 0;
    const SLICE: u64 = 512;
    let mut sink = CountSink::new();
    let mut tick = 0u64;
    let mut feed = |edges: u64| {
        for _ in 0..edges {
            let spoke = 1 + (tick / 2) % 96;
            let event = if tick.is_multiple_of(2) {
                EdgeEvent::homogeneous(spoke, HUB, ip, tcp, Timestamp(tick))
            } else {
                EdgeEvent::homogeneous(HUB, spoke, ip, esp, Timestamp(tick))
            };
            proc.process_into(&event, &mut sink);
            tick += 1;
        }
        sink.matches
    };
    feed(4_096); // past the first purges: buffers and buckets are warm

    let mut group = c.benchmark_group("shared_join");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.throughput(Throughput::Elements(SLICE));
    group.bench_function("shared_join_fanout", |b| b.iter(|| feed(SLICE)));
    group.finish();
}

fn generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for edges in [10_000usize, 50_000] {
        group.throughput(Throughput::Elements(edges as u64));
        group.bench_with_input(BenchmarkId::new("netflow", edges), &edges, |b, &edges| {
            b.iter(|| {
                NetflowConfig {
                    num_hosts: 2_000,
                    num_edges: edges,
                    ..NetflowConfig::default()
                }
                .generate()
                .len()
            })
        });
    }
    group.bench_function("zipf_sampling_1M", |b| {
        let sampler = ZipfSampler::new(100_000, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1_000_000 {
                acc += sampler.sample(&mut rng);
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    anchored_search,
    sjtree_operations,
    shared_join_fanout,
    generators
);
criterion_main!(benches);
