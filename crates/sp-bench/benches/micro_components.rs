//! Micro-benchmarks of the individual components on the hot path: anchored
//! subgraph isomorphism around one edge, the SJ-Tree hash-join insert, the
//! shared join stage's row → delivered-match fan-out, the row → `on_match`
//! materialization, the shared leaf stage's fan-out, the registry's dispatch
//! of an edge that matches (almost) nothing, the graph's ingest and window
//! expiry, the greedy decomposition, and the dataset generators themselves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sp_datasets::{LsbenchConfig, NetflowConfig, QueryGenerator, QueryKind, ZipfSampler};
use sp_graph::{DynamicGraph, EdgeEvent, FastState, Schema, Timestamp, VertexId};
use sp_iso::{find_matches_containing_edge, JoinKey, SubgraphMatch, JOIN_KEY_INLINE};
use sp_query::{QueryEdgeId, QueryGraph, QuerySubgraph, QueryVertexId};
use sp_sjtree::{decompose, MatchStore, PrimitivePolicy, RowLayout, SjTree};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use streampattern::{
    ContinuousQueryEngine, CountSink, MatchSink, Materialize, QueryId, QueryRegistry, RowSink,
    SharedRow, Strategy, StreamProcessor,
};

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
    hub_bucket(&mut group);
    join_key_hash(&mut group);
    group.finish();
}

/// One hot join key: every tick a `spoke → hub` edge (leaf 0) and a
/// `hub → spoke` edge (leaf 1) arrive in time order and join under a window
/// of `HUB_WINDOW` ticks, while the purge — one per iteration, as the
/// production purge cadence lags the window — keeps three windows of rows.
/// So each insert probes a sibling bucket of 768–1024 rows of which 256 are
/// inside the window; the other two thirds can only fail the window test.
fn hub_bucket(group: &mut criterion::BenchmarkGroup<'_>) {
    const HUB_WINDOW: u64 = 256;
    const SPOKES: u64 = 64;
    let mut schema = Schema::new();
    let ip = schema.intern_vertex_type("ip");
    let (t0, t1) = (schema.intern_edge_type("t0"), schema.intern_edge_type("t1"));
    let mut q = QueryGraph::new("hub");
    let (a, b, c) = (q.add_any_vertex(), q.add_any_vertex(), q.add_any_vertex());
    q.add_edge(a, b, t0);
    q.add_edge(b, c, t1);
    let leaves = (0..2)
        .map(|i| QuerySubgraph::from_edges(&q, [QueryEdgeId(i)]))
        .collect();
    let tree = SjTree::from_leaves(q, leaves);

    let mut graph = DynamicGraph::with_window(schema, 3 * HUB_WINDOW);
    let hub = graph.add_vertex(ip);
    let spokes: Vec<VertexId> = (0..2 * SPOKES).map(|_| graph.add_vertex(ip)).collect();
    let mut store = MatchStore::new(&tree);
    let mut rows = Vec::new();
    let mut tick = 0u64;
    let mut one_window = |store: &mut MatchStore| {
        rows.clear();
        for _ in 0..HUB_WINDOW {
            // Sources and sinks are disjoint spoke sets, so every in-window
            // pair joins.
            let (src, dst) = (
                spokes[(tick % SPOKES) as usize],
                spokes[(SPOKES + tick % SPOKES) as usize],
            );
            let ts = Timestamp(tick);
            let sides = [
                (0, src, hub, graph.add_edge(src, hub, t0, ts)),
                (1, hub, dst, graph.add_edge(hub, dst, t1, ts)),
            ];
            for (leaf, from, to, edge) in sides {
                let mut m = SubgraphMatch::new();
                m.bind_vertex(QueryVertexId(leaf), from);
                m.bind_vertex(QueryVertexId(leaf + 1), to);
                m.bind_edge(QueryEdgeId(leaf), edge, ts);
                let row = store.encode(&m);
                let window = Some(HUB_WINDOW);
                store.insert_row(&tree, tree.leaf(leaf), row, window, &mut rows, None);
            }
            tick += 1;
        }
        graph.expire();
        store.purge(&graph, Timestamp(tick), Some(3 * HUB_WINDOW));
        rows.len()
    };
    for _ in 0..3 {
        one_window(&mut store);
    }
    let resident = store.live_matches(tree.leaf(0)) as u64;
    println!(
        "bench sjtree/matchstore_hub_bucket: a probe's sibling bucket holds {resident}..{} rows, \
         {HUB_WINDOW} of them inside the window",
        resident + HUB_WINDOW
    );
    group.throughput(Throughput::Elements(2 * HUB_WINDOW));
    group.bench_function("matchstore_hub_bucket_512_inserts", |b| {
        b.iter(|| one_window(&mut store))
    });
}

/// Hashing the store's key — three times per insert — under the hasher the
/// row tables use and under `std`'s default, which they used before.
fn join_key_hash(group: &mut criterion::BenchmarkGroup<'_>) {
    const KEYS: u64 = 4_096;
    let keys: Vec<JoinKey> = (0..KEYS)
        .map(|i| {
            let mut ids = [VertexId(0); JOIN_KEY_INLINE];
            ids[0] = VertexId(i * 7919);
            JoinKey::Inline(1, ids)
        })
        .collect();
    fn hash_all(state: &impl BuildHasher, keys: &[JoinKey]) -> u64 {
        keys.iter().fold(0, |acc, k| acc ^ state.hash_one(k))
    }
    group.throughput(Throughput::Elements(KEYS));
    let fast = FastState::default();
    group.bench_function("joinkey_hash_4096_fast", |b| {
        b.iter(|| hash_all(&fast, &keys))
    });
    let sip = RandomState::new();
    group.bench_function("joinkey_hash_4096_siphash", |b| {
        b.iter(|| hash_all(&sip, &keys))
    });
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

/// The copy-on-emit boundary in isolation: a burst of complete-match rows
/// (an `n`-edge chain: `n` edge and `n + 1` vertex bindings) is handed to a
/// sink that reads every edge binding it is given. 3 and 5 edges stay
/// inline; 9 edges spill both binding maps. Divide by 4096 for ns/match.
fn row_to_on_match(c: &mut Criterion) {
    /// Folds every edge binding into one word, so no part of the
    /// materialized match is dead to the optimizer.
    struct DigestSink(u64);
    impl MatchSink for DigestSink {
        fn on_match(&mut self, query: QueryId, m: SubgraphMatch) {
            for (qe, de) in m.edge_pairs() {
                self.0 = self.0.rotate_left(5) ^ de.0 ^ qe.0 as u64 ^ query.0;
            }
        }
    }
    const ROWS: u64 = 4_096;
    let mut group = c.benchmark_group("sink");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.throughput(Throughput::Elements(ROWS));
    for edges in [3usize, 5, 9] {
        let layout = RowLayout {
            edges,
            vertices: edges + 1,
        };
        let mut rows = Vec::new();
        for r in 0..ROWS {
            let row = layout.push_unbound(&mut rows);
            for (slot, word) in row.iter_mut().enumerate() {
                *word = r * 31 + slot as u64;
            }
        }
        group.bench_function(format!("row_to_on_match_4096_rows_{edges}_edges"), |b| {
            b.iter(|| {
                let mut sink = DigestSink(0);
                Materialize(&mut sink).on_rows(QueryId(7), layout, &rows);
                sink.0
            })
        });
    }
    group.finish();
}

/// The shared leaf stage's fan-out in isolation: four eager rules share
/// their first leaf shape (a `tcp` edge) and nothing else, so every `tcp`
/// edge of the ring stream runs one shared anchored search whose single
/// match is fanned out to four private engines, each storing it. Elements
/// are stream edges; each fans out four matches.
fn shared_leaf_fanout(c: &mut Criterion) {
    let mut schema = Schema::new();
    let ip = schema.intern_vertex_type("ip");
    let tcp = schema.intern_edge_type("tcp");
    let seconds: Vec<_> = (0..4)
        .map(|i| schema.intern_edge_type(&format!("p{i}")))
        .collect();
    let mut proc = StreamProcessor::new(schema)
        .with_statistics(false)
        .with_purge_interval(256);
    for second in seconds {
        let mut q = QueryGraph::new("tcp-then");
        let (a, b, c) = (q.add_any_vertex(), q.add_any_vertex(), q.add_any_vertex());
        q.add_edge(a, b, tcp);
        q.add_edge(b, c, second);
        proc.register(q, Strategy::Single, Some(150)).unwrap();
    }
    assert_eq!(proc.shared_leaf_stats().distinct_leaves, 5);

    const HOSTS: u64 = 64;
    const SLICE: u64 = 512;
    let mut sink = CountSink::new();
    let mut tick = 0u64;
    let mut feed = |edges: u64| {
        for _ in 0..edges {
            let (src, dst) = (tick % HOSTS, (tick + 1) % HOSTS);
            proc.process_into(
                &EdgeEvent::homogeneous(src, dst, ip, tcp, Timestamp(tick)),
                &mut sink,
            );
            tick += 1;
        }
        proc.shared_leaf_stats().searches_shared
    };
    feed(4_096); // past the first purges: buffers and buckets are warm

    let mut group = c.benchmark_group("shared_leaf");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.throughput(Throughput::Elements(SLICE));
    group.bench_function("shared_leaf_fanout_512_edges_4_subscribers", |b| {
        b.iter(|| feed(SLICE))
    });
    group.finish();
}

/// The per-candidate cost of dispatch where almost nothing matches — the
/// `lsbench_calm` regime in miniature: 48 typed path/tree queries (the
/// benchmark's four kinds, alternating `PathLazy` / `SingleLazy`) over an
/// LSBench stream, no shared-join table live, a sink that only counts rows.
/// Each edge is ingested and handed to [`QueryRegistry::process_edge`]; the
/// time inside those calls alone is printed per call, next to the iteration
/// time (which includes the graph ingest), with the shared leaf stage's
/// search counts and the leaf searches and retroactive probes the engines'
/// type signatures refused.
fn registry_dispatch(c: &mut Criterion) {
    struct CountRows(u64);
    impl RowSink for CountRows {
        fn on_rows(&mut self, _: QueryId, layout: RowLayout, rows: &[u64]) {
            self.0 += (rows.len() / layout.stride()) as u64;
        }
        fn on_shared_row(&mut self, _: QueryId, _: SharedRow<'_>) {
            self.0 += 1;
        }
    }
    const WINDOW: u64 = 5_000;
    const SLICE: usize = 4_096;
    let dataset = LsbenchConfig {
        num_persons: 5_000,
        num_edges: 6 * SLICE,
        seed: 77,
        ..LsbenchConfig::default()
    }
    .generate();
    let estimator = dataset.estimator_from_prefix(dataset.len());
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 77);
    let mut graph = DynamicGraph::with_window(dataset.schema.clone(), WINDOW);
    let mut registry = QueryRegistry::new();
    for kind in [
        QueryKind::Path { length: 3 },
        QueryKind::NaryTree { vertices: 4 },
        QueryKind::NaryTree { vertices: 5 },
        QueryKind::Path { length: 4 },
    ] {
        for query in generator.generate_valid_batch(kind, 12, &estimator) {
            let id = registry.len() as u64;
            let strategy = [Strategy::PathLazy, Strategy::SingleLazy][id as usize % 2];
            let engine =
                ContinuousQueryEngine::new(query, strategy, &estimator, Some(WINDOW)).unwrap();
            registry.register(QueryId(id), engine, &graph);
        }
    }
    assert_eq!(registry.len(), 48);
    assert_eq!(registry.shared_join_stats().tables, 0, "no join tables");

    let mut events = dataset.events().iter().cycle();
    let mut sink = CountRows(0);
    // (calls, time inside them)
    let mut timed = (0u64, std::time::Duration::ZERO);
    let mut feed = |timed: &mut (u64, std::time::Duration)| {
        for event in events.by_ref().take(SLICE) {
            let (edge, _) = graph.ingest(event);
            let t0 = std::time::Instant::now();
            registry.process_edge(&graph, &edge, &mut sink, None);
            timed.1 += t0.elapsed();
            timed.0 += 1;
        }
        graph.expire();
        registry.purge(&graph);
        sink.0
    };
    feed(&mut (0, std::time::Duration::ZERO)); // bitmaps, arenas and buffers are warm

    let mut group = c.benchmark_group("registry");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.throughput(Throughput::Elements(SLICE as u64));
    group.bench_function("calm_like_dispatch", |b| b.iter(|| feed(&mut timed)));
    group.finish();
    let leaf = registry.shared_leaf_stats();
    let refused: u64 = registry
        .iter()
        .map(|(_, engine)| engine.profile().searches_rejected)
        .sum();
    println!(
        "bench registry/calm_like_dispatch: {:.0} ns per process_edge over {} edges \
         ({} searches run, {} shared, {} delegated, {} refused)",
        timed.1.as_nanos() as f64 / timed.0 as f64,
        timed.0,
        leaf.searches_run,
        leaf.searches_shared,
        leaf.searches_delegated,
        refused
    );
}

/// Graph maintenance in isolation, the `lsbench_calm` regime in miniature:
/// slices of 4 096 edges, each ingested ([`DynamicGraph::ingest`]) and then
/// expired out of an 8 192-tick window, as the shard's purge cadence does.
/// One edge in sixteen leaves one of eight hubs, whose adjacency spills past
/// the inline slots; every other endpoint is created by its edge and dropped
/// with it. The `late` case delays one edge in eight
/// by up to half a window, so those take the expiry queue's heap side (and
/// leave sooner: that case holds fewer live edges). Prints ns per edge,
/// ingest and expiry together.
fn graph_ingest_expire(c: &mut Criterion) {
    const SLICE: u64 = 4_096;
    const WINDOW: u64 = 2 * SLICE;
    const HUBS: u64 = 8;
    let mut group = c.benchmark_group("graph");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.throughput(Throughput::Elements(SLICE));
    for (name, late) in [
        ("ingest_expire_4096_in_order", false),
        ("ingest_expire_4096_late", true),
    ] {
        let mut schema = Schema::new();
        let ip = schema.intern_vertex_type("ip");
        let tcp = schema.intern_edge_type("tcp");
        let mut graph = DynamicGraph::with_window(schema, WINDOW);
        let mut tick = 0u64;
        // (edges, time spent on them)
        let mut timed = (0u64, std::time::Duration::ZERO);
        let mut slice = |timed: &mut (u64, std::time::Duration)| {
            let t0 = std::time::Instant::now();
            for _ in 0..SLICE {
                let ts = if late && tick % 8 == 3 {
                    tick.saturating_sub(tick * 7_919 % (WINDOW / 2))
                } else {
                    tick
                };
                let src = if tick.is_multiple_of(16) {
                    tick / 16 % HUBS
                } else {
                    HUBS + 2 * tick
                };
                let dst = HUBS + 2 * tick + 1;
                graph.ingest(&EdgeEvent::homogeneous(src, dst, ip, tcp, Timestamp(ts)));
                tick += 1;
            }
            let expired = graph.expire();
            timed.0 += SLICE;
            timed.1 += t0.elapsed();
            expired
        };
        for _ in 0..3 {
            slice(&mut (0, std::time::Duration::ZERO)); // the window is full
        }
        group.bench_function(name, |b| b.iter(|| slice(&mut timed)));
        println!(
            "bench graph/{name}: {:.1} ns per edge (ingest + expire)",
            timed.1.as_nanos() as f64 / timed.0 as f64
        );
    }
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
    row_to_on_match,
    shared_leaf_fanout,
    registry_dispatch,
    graph_ingest_expire,
    generators
);
criterion_main!(benches);
