//! Integration tests of the parallel runtime against hand-rolled streams:
//! equivalence with the inline executor, backpressure under a deliberately
//! slow sink, mid-stream (de)registration, and graceful shutdown.

use sp_graph::{EdgeEvent, Schema, Timestamp};
use sp_query::QueryGraph;
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use streampattern::{Executor, FnSink, Processor, QueryId, Strategy, StreamProcessor};

#[macro_use]
#[path = "../../../tests/common/mod.rs"]
mod common;

/// Schema with a handful of protocols over "ip" vertices.
fn cyber_schema() -> Schema {
    let mut schema = Schema::new();
    schema.intern_vertex_type("ip");
    for proto in ["tcp", "esp", "dns", "icmp"] {
        schema.intern_edge_type(proto);
    }
    schema
}

/// A deterministic pseudo-random stream mixing all four protocols, with
/// enough structure that multi-edge patterns complete regularly.
fn synth_stream(schema: &Schema, n: usize) -> Vec<EdgeEvent> {
    let ip = schema.vertex_type("ip").unwrap();
    let protos = ["tcp", "tcp", "tcp", "dns", "esp", "icmp"];
    let mut events = Vec::with_capacity(n);
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let src = (state >> 33) % 50;
        let dst = (state >> 17) % 50;
        let et = schema.edge_type(protos[i % protos.len()]).unwrap();
        events.push(EdgeEvent::homogeneous(
            src,
            dst,
            ip,
            et,
            Timestamp(i as u64),
        ));
    }
    events
}

/// The monitoring queries: two-hop patterns over different protocol pairs
/// plus a single-edge watcher, exercising dispatch skew across shards.
fn queries(schema: &Schema) -> Vec<(QueryGraph, Strategy, Option<u64>)> {
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();
    let dns = schema.edge_type("dns").unwrap();
    let icmp = schema.edge_type("icmp").unwrap();
    let two_hop = |name: &str, a_t, b_t| {
        let mut q = QueryGraph::new(name);
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, a_t);
        q.add_edge(b, c, b_t);
        q
    };
    let mut dns_watch = QueryGraph::new("dns-watch");
    let a = dns_watch.add_any_vertex();
    let b = dns_watch.add_any_vertex();
    dns_watch.add_edge(a, b, dns);
    vec![
        (
            two_hop("esp-tcp", esp, tcp),
            Strategy::SingleLazy,
            Some(200),
        ),
        (two_hop("dns-tcp", dns, tcp), Strategy::PathLazy, Some(100)),
        (two_hop("icmp-esp", icmp, esp), Strategy::Single, None),
        (dns_watch, Strategy::SingleLazy, Some(50)),
        (two_hop("tcp-tcp", tcp, tcp), Strategy::SingleLazy, Some(30)),
    ]
}

/// The sorted `(query, edges)` multiset of `events` with every query of
/// [`queries`] registered on `p`. Worker replicas ingest the identical
/// stream, so data edge ids align with the inline executor's and the
/// encoding is exact.
fn matches<X: Executor>(mut p: Processor<X>, events: &[EdgeEvent]) -> Vec<(QueryId, String)> {
    for (q, s, w) in queries(&cyber_schema()) {
        p.register(q, s, w).unwrap();
    }
    let mut out = Vec::new();
    let mut sink = FnSink(|q: QueryId, m: streampattern::SubgraphMatch| {
        out.push((q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
    });
    p.process_all_into(events, &mut sink);
    out.sort();
    out
}

/// The inline executor's [`matches`].
fn sequential_matches(events: &[EdgeEvent]) -> Vec<(QueryId, String)> {
    matches(StreamProcessor::new(cyber_schema()), events)
}

/// Asserts [`matches`] is the inline executor's on 1, 2 and 4 workers
/// batching `batch` events.
fn assert_equivalent(events: &[EdgeEvent], batch: usize) -> Vec<(QueryId, String)> {
    let runs = on_every_executor!(&cyber_schema(), |c| c.batch_size(batch), |_, p| {
        matches(p, events)
    });
    let (_, expected) = &runs[0];
    for (label, got) in &runs[1..] {
        assert_eq!(
            got, expected,
            "match multiset diverged at {label} batching {batch}"
        );
    }
    runs.into_iter().next().unwrap().1
}

#[test]
fn parallel_equals_sequential_for_1_2_4_workers() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 3_000);
    let expected = assert_equivalent(&events, 64);
    assert!(
        expected.len() > 50,
        "stream too quiet to be a meaningful test: {} matches",
        expected.len()
    );
}

#[test]
fn equivalence_survives_odd_batch_sizes() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 700);
    for batch in [1, 7, 700, 10_000] {
        assert_equivalent(&events, batch);
    }
}

#[test]
fn backpressure_engages_with_a_slow_sink_and_loses_nothing() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 1_200);
    let expected = sequential_matches(&events).len() as u64;
    // Tiny channels everywhere: 1 batch in flight per worker, 1 match batch
    // in the aggregation channel. The sink sleeps per match, so the
    // aggregation channel fills, workers block on it, input channels fill,
    // and the ingest loop has to wait.
    let mut runtime = ParallelStreamProcessor::new(
        schema.clone(),
        RuntimeConfig::with_workers(2)
            .batch_size(16)
            .channel_capacity(1)
            .match_capacity(1),
    );
    for (q, s, w) in queries(&schema) {
        runtime.register(q, s, w).unwrap();
    }
    let mut seen = 0u64;
    let mut sink = FnSink(|_q: QueryId, _m: streampattern::SubgraphMatch| {
        seen += 1;
        std::thread::sleep(std::time::Duration::from_micros(200));
    });
    let delivered = runtime.process_all_into(events.iter(), &mut sink);
    assert_eq!(seen, expected, "slow sink dropped matches");
    assert_eq!(delivered, expected);
    let stats = runtime.stats();
    assert!(
        stats.backpressure_events > 0,
        "bounded channels never pushed back: {stats:?}"
    );
}

#[test]
fn queries_spread_across_shards_by_cost() {
    let schema = cyber_schema();
    let mut runtime = ParallelStreamProcessor::new(schema.clone(), RuntimeConfig::with_workers(4));
    // Live statistics first, so the protocols' costs differ.
    runtime.process_all(synth_stream(&schema, 600).iter());
    let mut placed = Vec::new();
    for (q, s, w) in queries(&schema) {
        let cost = runtime.estimator().estimate_query_cost(&q).max(1e-6);
        let before = runtime.shard_costs().to_vec();
        let id = runtime.register(q, s, w).unwrap();
        let shard = runtime.shard_of(id).unwrap();
        // The query went to a least-loaded shard, and only that shard's
        // load grew, by exactly the query's floored cost.
        let least = before.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(before[shard], least, "{id} skipped a lighter shard");
        let after = runtime.shard_costs();
        for (w, (&b, &a)) in before.iter().zip(after).enumerate() {
            let grew = if w == shard { cost } else { 0.0 };
            assert!((a - b - grew).abs() < 1e-9, "shard {w}: {b} -> {a}");
        }
        placed.push((id, shard, cost));
    }
    let shards: std::collections::BTreeSet<usize> = placed.iter().map(|&(_, w, _)| w).collect();
    assert!(
        shards.len() >= 3,
        "5 queries landed on only {} of 4 shards",
        shards.len()
    );
    let total = |rt: &ParallelStreamProcessor| rt.shard_costs().iter().sum::<f64>();
    let registered: f64 = placed.iter().map(|&(_, _, c)| c).sum();
    assert!((total(&runtime) - registered).abs() < 1e-9);

    // Deregistering hands the query's cost back to its shard.
    let (victim, shard, cost) = placed[4];
    let before = runtime.shard_costs()[shard];
    runtime.deregister(victim).unwrap();
    assert!((before - cost - runtime.shard_costs()[shard]).abs() < 1e-9);
    assert!((total(&runtime) - (registered - cost)).abs() < 1e-9);
}

#[test]
fn placement_takes_the_first_least_loaded_shard_and_releases_exactly() {
    // No statistics: every copy of one query costs the same floored 1e-6,
    // so ties decide every placement.
    let schema = cyber_schema();
    let query = || queries(&schema).swap_remove(0).0;
    let mut runtime = ParallelStreamProcessor::new(
        schema.clone(),
        RuntimeConfig::with_workers(4).statistics(false),
    );
    let mut ids = Vec::new();
    for i in 0..8 {
        if i == 5 {
            // A failed registration consumes no id and books no load.
            let before = runtime.shard_costs().to_vec();
            assert!(runtime
                .register(QueryGraph::new("empty"), Strategy::SingleLazy, None)
                .is_err());
            assert_eq!(runtime.shard_costs(), &before[..]);
        }
        let id = runtime
            .register(query(), Strategy::SingleLazy, None)
            .unwrap();
        assert_eq!(id, QueryId(i));
        ids.push(id);
    }
    let shards: Vec<usize> = ids
        .iter()
        .map(|&id| runtime.shard_of(id).unwrap())
        .collect();
    assert_eq!(
        shards,
        [0, 1, 2, 3, 0, 1, 2, 3],
        "ties go to the lowest index"
    );
    for id in ids {
        runtime.deregister(id).unwrap();
    }
    assert_eq!(runtime.shard_costs(), &[0.0; 4]);

    let mut inline = StreamProcessor::new(schema.clone()).with_statistics(false);
    for (q, s, w) in queries(&schema) {
        let id = inline.register(q, s, w).unwrap();
        assert_eq!(inline.shard_of(id), Some(0));
    }
}

#[test]
fn deregister_midstream_returns_engine_and_stops_matching() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 600);
    let (first, second) = events.split_at(300);
    let runs = on_every_executor!(&schema, |c| c.batch_size(32), |_, mut p| {
        let mut ids = Vec::new();
        for (q, s, w) in queries(&schema) {
            ids.push(p.register(q, s, w).unwrap());
        }
        let before = p.process_all(first.iter());
        assert!(before > 0);

        // Pull the busiest query (tcp-tcp) out mid-stream.
        let victim = ids[4];
        let engine = p.deregister(victim).expect("victim was registered");
        assert!(engine.profile().edges_processed > 0);
        assert_eq!(p.num_queries(), 4);
        assert!(p.profile_for(victim).is_none());

        let mut post = Vec::new();
        let mut sink = FnSink(|q: QueryId, _m: streampattern::SubgraphMatch| post.push(q));
        p.process_all_into(second.iter(), &mut sink);
        assert!(
            post.iter().all(|&q| q != victim),
            "deregistered query kept matching"
        );
        (before, post.len() as u64)
    });
    // The same schedule on every executor.
    let (_, expected) = runs[0];
    for (label, got) in runs {
        assert_eq!(got, expected, "{label}");
    }
}

#[test]
fn late_registration_sees_retained_history() {
    // A query registered mid-stream must match against edges that arrived
    // before it was registered (up to retention), exactly like the
    // sequential processor.
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let esp = schema.edge_type("esp").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    on_every_executor!(&schema, |label, mut p| {
        // Warm-up edge arrives before any query exists.
        p.process_all([EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1))].iter());
        let mut q = QueryGraph::new("esp-tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, esp);
        q.add_edge(b, c, tcp);
        p.register(q, Strategy::SingleLazy, None).unwrap();
        // The completing edge arrives after registration; the esp edge is
        // pre-registration history every replica must have retained.
        let found = p.process_all([EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2))].iter());
        assert_eq!(found, 1, "late registration lost history at {label}");
    });
}

#[test]
fn profile_merges_worker_counters() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 1_000);

    // Sequential reference.
    let mut seq = StreamProcessor::new(schema.clone());
    let mut seq_ids = Vec::new();
    for (q, s, w) in queries(&schema) {
        seq_ids.push(seq.register(q, s, w).unwrap());
    }
    let seq_found = seq.process_all(events.iter());
    let seq_profile = seq.profile();

    for workers in [1, 3] {
        let config = RuntimeConfig::with_workers(workers);
        let mut runtime = ParallelStreamProcessor::new(schema.clone(), config);
        for (q, s, w) in queries(&schema) {
            runtime.register(q, s, w).unwrap();
        }
        let found = runtime.process_all(events.iter());
        assert_eq!(found, seq_found, "{workers} workers");

        let profile = runtime.profile();
        assert_eq!(profile.edges_processed, 1_000);
        assert_eq!(profile.complete_matches, seq_profile.complete_matches);
        assert_eq!(profile.iso_searches, seq_profile.iso_searches);
        assert_eq!(profile.leaf_matches, seq_profile.leaf_matches);

        // Per-query counters line up one to one (ids are assigned in the
        // same registration order).
        for &id in &seq_ids {
            let par = runtime.profile_for(id).expect("query registered");
            let seq_p = seq.profile_for(id).expect("query registered");
            assert_eq!(par.edges_processed, seq_p.edges_processed, "query {id}");
            assert_eq!(par.complete_matches, seq_p.complete_matches, "query {id}");
        }

        // Every replica ingests the whole stream; the reports' match counts
        // add up to the sequential total.
        let reports = runtime.worker_reports();
        assert_eq!(reports.len(), workers);
        for report in &reports {
            assert_eq!(report.edges_ingested, seq.graph().total_edges_seen());
            assert_eq!(report.graph_edges_live, seq.graph().num_edges());
        }
        let matches: u64 = reports.iter().map(|r| r.matches_found).sum();
        assert_eq!(matches, seq.total_matches(), "{workers} workers");
        if workers == 1 {
            assert_eq!(runtime.stored_matches(), seq.stored_matches());
        }
    }
}

#[test]
fn facade_rejects_events_naming_the_unbound_sentinel() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let clean = synth_stream(&schema, 600);
    let expected = sequential_matches(&clean);
    // Salt the stream with events through vertex `u64::MAX`; refused at
    // every shard's door, they must shift neither the matches nor the
    // replicas' edge ids (the multiset encodes data edge ids).
    let mut hostile = Vec::new();
    for (i, ev) in clean.iter().enumerate() {
        if i % 100 == 7 {
            hostile.push(EdgeEvent::homogeneous(
                ev.src,
                u64::MAX,
                ip,
                tcp,
                ev.timestamp,
            ));
            hostile.push(EdgeEvent::homogeneous(
                u64::MAX,
                ev.dst,
                ip,
                tcp,
                ev.timestamp,
            ));
        }
        hostile.push(*ev);
    }
    assert_eq!(assert_equivalent(&hostile, 64), expected);

    let mut runtime = ParallelStreamProcessor::new(schema.clone(), RuntimeConfig::with_workers(2));
    runtime.process_all(hostile.iter());
    let profile = runtime.profile();
    assert_eq!(profile.rejected_events, 12);
    assert_eq!(profile.edges_processed, 600);
}

#[test]
fn shutdown_drains_and_reports() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 500);
    let mut runtime = ParallelStreamProcessor::new(schema.clone(), RuntimeConfig::with_workers(2));
    for (q, s, w) in queries(&schema) {
        runtime.register(q, s, w).unwrap();
    }
    let found = runtime.process_all(events.iter());
    let report = runtime.shutdown();
    assert_eq!(report.total_matches, found);
    assert_eq!(report.profile.edges_processed, 500);
    assert_eq!(report.workers.len(), 2);
    assert!(report.pending_matches.is_empty());
    let total_hosted: usize = report.workers.iter().map(|w| w.per_query.len()).sum();
    assert_eq!(total_hosted, 5);
    // Every replica ingested the full stream.
    for w in &report.workers {
        assert_eq!(w.edges_ingested, 500);
    }
}

/// Regression: `RuntimeStats::backpressure_events` used to be the only
/// backpressure signal, and it is only observable from the ingest thread via
/// `stats()` (in practice: after the run). With a `MetricsRegistry` attached,
/// the stall counter and the per-worker queue-depth gauges are live shared
/// handles — readable mid-stream from any thread — and the counter must agree
/// with the legacy stat.
#[test]
fn backpressure_and_queue_depth_are_live_through_metrics() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 1_200);
    let expected = sequential_matches(&events).len() as u64;
    let registry = sp_runtime::MetricsRegistry::new();
    // Same deliberately tiny channels as the slow-sink scenario above.
    let mut runtime = ParallelStreamProcessor::new(
        schema.clone(),
        RuntimeConfig::with_workers(2)
            .batch_size(16)
            .channel_capacity(1)
            .match_capacity(1),
    )
    .with_metrics(&registry);
    for (q, s, w) in queries(&schema) {
        runtime.register(q, s, w).unwrap();
    }
    let stall_counter = registry.counter("runtime.backpressure_stalls_total");
    let depth_w0 = registry.gauge("runtime.queue_depth.w0");
    let depth_w1 = registry.gauge("runtime.queue_depth.w1");
    let mut seen = 0u64;
    let mut mid_stream_stalls = 0u64;
    let mut max_depth_seen = 0i64;
    let mut sink = FnSink(|_q: QueryId, _m: streampattern::SubgraphMatch| {
        seen += 1;
        // Live reads while the pipeline is saturated — no shutdown, no
        // stats() call. The gauges bound by the channel capacity (+1 for the
        // batch the facade has stamped but not yet enqueued).
        mid_stream_stalls = mid_stream_stalls.max(stall_counter.get());
        max_depth_seen = max_depth_seen.max(depth_w0.get()).max(depth_w1.get());
        std::thread::sleep(std::time::Duration::from_micros(200));
    });
    let delivered = runtime.process_all_into(events.iter(), &mut sink);
    assert_eq!(seen, expected, "metrics changed the match multiset");
    assert_eq!(delivered, expected);
    assert!(
        mid_stream_stalls > 0,
        "stall counter not visible live while the sink was slow"
    );
    assert!(
        max_depth_seen >= 1,
        "queue-depth gauges never showed an enqueued batch"
    );
    assert!(
        max_depth_seen <= 2,
        "queue depth exceeded channel capacity + in-flight batch: {max_depth_seen}"
    );
    let stats = runtime.stats();
    assert_eq!(
        stall_counter.get(),
        stats.backpressure_events,
        "live counter diverged from RuntimeStats"
    );
    // After the full drain inside process_all_into, every broadcast batch
    // has been dequeued: the gauges must have returned to zero.
    assert_eq!(depth_w0.get(), 0, "w0 queue depth did not drain to 0");
    assert_eq!(depth_w1.get(), 0, "w1 queue depth did not drain to 0");
    // Worker-side pipeline metrics aggregated across both replicas: each
    // replica ingests all 1200 events.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("stream.edges_total"), Some(2 * 1_200));
    assert_eq!(snap.counter("stream.matches_total"), Some(expected));
    let latency = snap.histogram("match.latency_ns").expect("latency series");
    assert_eq!(latency.count(), expected);
    assert!(latency.percentile(0.5).unwrap() > 0);
    drop(runtime.shutdown());
}
