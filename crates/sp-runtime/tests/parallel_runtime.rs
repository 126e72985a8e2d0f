//! Integration tests of the parallel runtime against hand-rolled streams:
//! sequential equivalence, backpressure under a deliberately slow sink,
//! mid-stream (de)registration, and graceful shutdown.

use sp_graph::{EdgeEvent, Schema, Timestamp};
use sp_query::QueryGraph;
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use streampattern::{FnSink, QueryId, Strategy, StreamProcessor};

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

/// Canonical multiset of matches: one sortable string per match. Worker
/// replicas ingest the identical stream, so data edge ids align with the
/// sequential processor's and the encoding is exact.
fn canonical(mut matches: Vec<(QueryId, String)>) -> Vec<(QueryId, String)> {
    matches.sort();
    matches
}

fn sequential_matches(events: &[EdgeEvent]) -> Vec<(QueryId, String)> {
    let schema = cyber_schema();
    let mut proc = StreamProcessor::new(schema.clone());
    for (q, s, w) in queries(&schema) {
        proc.register(q, s, w).unwrap();
    }
    let mut out = Vec::new();
    let mut sink = FnSink(|q: QueryId, m: streampattern::SubgraphMatch| {
        out.push((q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
    });
    for ev in events {
        proc.process_into(ev, &mut sink);
    }
    canonical(out)
}

fn parallel_matches(events: &[EdgeEvent], workers: usize, batch: usize) -> Vec<(QueryId, String)> {
    let schema = cyber_schema();
    let mut runtime = ParallelStreamProcessor::new(
        schema.clone(),
        RuntimeConfig::with_workers(workers).batch_size(batch),
    );
    for (q, s, w) in queries(&schema) {
        runtime.register(q, s, w).unwrap();
    }
    let mut out = Vec::new();
    let mut sink = FnSink(|q: QueryId, m: streampattern::SubgraphMatch| {
        out.push((q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
    });
    runtime.process_all_into(events.iter(), &mut sink);
    canonical(out)
}

#[test]
fn parallel_equals_sequential_for_1_2_4_workers() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 3_000);
    let expected = sequential_matches(&events);
    assert!(
        expected.len() > 50,
        "stream too quiet to be a meaningful test: {} matches",
        expected.len()
    );
    for workers in [1, 2, 4] {
        let got = parallel_matches(&events, workers, 64);
        assert_eq!(
            got, expected,
            "match multiset diverged at {workers} workers"
        );
    }
}

#[test]
fn equivalence_survives_odd_batch_sizes() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 700);
    let expected = sequential_matches(&events);
    for batch in [1, 7, 700, 10_000] {
        let got = parallel_matches(&events, 3, batch);
        assert_eq!(got, expected, "batch size {batch} diverged");
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
    let mut ids = Vec::new();
    for (q, s, w) in queries(&schema) {
        ids.push(runtime.register(q, s, w).unwrap());
    }
    let shards: std::collections::BTreeSet<usize> =
        ids.iter().filter_map(|&id| runtime.shard_of(id)).collect();
    assert!(
        shards.len() >= 3,
        "5 queries landed on only {} of 4 shards",
        shards.len()
    );
    // Greedy assignment keeps the loads within one query-cost of each other:
    // no shard is empty while another holds two queries of positive cost.
    let costs = runtime.shard_costs();
    assert_eq!(costs.len(), 4);
    assert!(costs.iter().all(|&c| c >= 0.0));
}

#[test]
fn deregister_midstream_returns_engine_and_stops_matching() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 600);
    let mut runtime = ParallelStreamProcessor::new(
        schema.clone(),
        RuntimeConfig::with_workers(2).batch_size(32),
    );
    let mut ids = Vec::new();
    for (q, s, w) in queries(&schema) {
        ids.push(runtime.register(q, s, w).unwrap());
    }
    let (first, second) = events.split_at(300);
    let before = runtime.process_all(first.iter());
    assert!(before > 0);

    // Pull the busiest query (tcp-tcp) out mid-stream.
    let victim = ids[4];
    let engine = runtime.deregister(victim).expect("victim was registered");
    assert!(engine.profile().edges_processed > 0);
    assert_eq!(runtime.num_queries(), 4);
    assert!(runtime.profile_for(victim).is_none());

    let mut post = Vec::new();
    let mut sink = FnSink(|q: QueryId, _m: streampattern::SubgraphMatch| post.push(q));
    runtime.process_all_into(second.iter(), &mut sink);
    assert!(
        post.iter().all(|&q| q != victim),
        "deregistered query kept matching"
    );

    // Sequential cross-check of the same schedule.
    let mut seq = StreamProcessor::new(schema.clone());
    let mut seq_ids = Vec::new();
    for (q, s, w) in queries(&schema) {
        seq_ids.push(seq.register(q, s, w).unwrap());
    }
    let seq_before = seq.process_all(first.iter());
    seq.deregister(seq_ids[4]).unwrap();
    let seq_after = seq.process_all(second.iter());
    assert_eq!(before, seq_before);
    assert_eq!(post.len() as u64, seq_after);
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
    for workers in [1, 3] {
        let mut runtime =
            ParallelStreamProcessor::new(schema.clone(), RuntimeConfig::with_workers(workers));
        // Warm-up edge arrives before any query exists.
        runtime.process_all([EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(1))].iter());
        let mut q = QueryGraph::new("esp-tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, esp);
        q.add_edge(b, c, tcp);
        runtime.register(q, Strategy::SingleLazy, None).unwrap();
        // The completing edge arrives after registration; the esp edge is
        // pre-registration history every replica must have retained.
        let found =
            runtime.process_all([EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(2))].iter());
        assert_eq!(
            found, 1,
            "late registration lost history at {workers} workers"
        );
    }
}

#[test]
fn profile_merges_worker_counters() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 1_000);
    let mut runtime = ParallelStreamProcessor::new(schema.clone(), RuntimeConfig::with_workers(3));
    for (q, s, w) in queries(&schema) {
        runtime.register(q, s, w).unwrap();
    }
    let found = runtime.process_all(events.iter());

    // Sequential reference.
    let mut seq = StreamProcessor::new(schema.clone());
    let mut seq_ids = Vec::new();
    for (q, s, w) in queries(&schema) {
        seq_ids.push(seq.register(q, s, w).unwrap());
    }
    let seq_found = seq.process_all(events.iter());
    assert_eq!(found, seq_found);

    let profile = runtime.profile();
    let seq_profile = seq.profile();
    assert_eq!(profile.edges_processed, 1_000);
    assert_eq!(profile.complete_matches, seq_profile.complete_matches);
    assert_eq!(profile.iso_searches, seq_profile.iso_searches);
    assert_eq!(profile.leaf_matches, seq_profile.leaf_matches);

    // Per-query counters line up one to one (ids are assigned in the same
    // registration order).
    for &id in &seq_ids {
        let par = runtime.profile_for(id).expect("query registered");
        let seq_p = seq.profile_for(id).expect("query registered");
        assert_eq!(par.edges_processed, seq_p.edges_processed, "query {id}");
        assert_eq!(par.complete_matches, seq_p.complete_matches, "query {id}");
    }
}

#[test]
fn facade_rejects_events_naming_the_unbound_sentinel() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let clean = synth_stream(&schema, 600);
    let expected = sequential_matches(&clean);
    // Salt the stream with events through vertex `u64::MAX`; dropped at the
    // facade, they must shift neither the matches nor the replicas' edge
    // ids (the multiset encodes data edge ids).
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
    assert_eq!(parallel_matches(&hostile, 2, 64), expected);
    assert_eq!(sequential_matches(&hostile), expected);

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
    // Every replica ingested the full stream (no ingest filtering).
    for w in &report.workers {
        assert_eq!(w.edges_ingested, 500);
    }
}

#[test]
fn ingest_filter_keeps_match_counts_and_shrinks_replicas() {
    let schema = cyber_schema();
    let events = synth_stream(&schema, 1_500);
    let expected = sequential_matches(&events).len() as u64;
    let mut runtime = ParallelStreamProcessor::new(
        schema.clone(),
        RuntimeConfig::with_workers(4).ingest_filtering(true),
    );
    for (q, s, w) in queries(&schema) {
        runtime.register(q, s, w).unwrap();
    }
    let found = runtime.process_all(events.iter());
    assert_eq!(found, expected, "filtered ingest changed the match count");
    let report = runtime.shutdown();
    // At least one shard hosts no esp/icmp-heavy query and must have skipped
    // part of the stream.
    assert!(
        report.workers.iter().any(|w| w.edges_ingested < 1_500),
        "filter never skipped anything"
    );
}

#[test]
fn shard_assignment_co_locates_leaf_sharers() {
    // Two edge types with equal selectivity (50/50 stream), so every two-hop
    // query has the same estimated cost. Plain least-loaded assignment would
    // alternate shards and split the sharers; the sharing discount must
    // instead co-locate queries with identical canonical leaves.
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let dns = schema.edge_type("dns").unwrap();
    let mut estimator = streampattern::SelectivityEstimator::new();
    for i in 0..100u64 {
        estimator.observe_edge(&sp_graph::EdgeData {
            id: sp_graph::EdgeId(i),
            src: sp_graph::VertexId(i),
            dst: sp_graph::VertexId(i + 1_000),
            edge_type: if i % 2 == 0 { tcp } else { dns },
            timestamp: Timestamp(i),
        });
    }
    let two_hop = |name: &str, t| {
        let mut q = QueryGraph::new(name);
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, t);
        q.add_edge(b, c, t);
        q
    };
    let mut runtime = ParallelStreamProcessor::new(
        schema.clone(),
        RuntimeConfig::with_workers(2).statistics(false),
    )
    .with_estimator(estimator);
    let t1 = runtime
        .register(two_hop("tcp-1", tcp), Strategy::SingleLazy, None)
        .unwrap();
    let d1 = runtime
        .register(two_hop("dns-1", dns), Strategy::SingleLazy, None)
        .unwrap();
    let t2 = runtime
        .register(two_hop("tcp-2", tcp), Strategy::SingleLazy, None)
        .unwrap();
    let d2 = runtime
        .register(two_hop("dns-2", dns), Strategy::SingleLazy, None)
        .unwrap();
    assert_eq!(
        runtime.shard_of(t1),
        runtime.shard_of(t2),
        "tcp sharers must co-locate"
    );
    assert_eq!(
        runtime.shard_of(d1),
        runtime.shard_of(d2),
        "dns sharers must co-locate"
    );
    assert_ne!(runtime.shard_of(t1), runtime.shard_of(d1));
    // Each shard hosts exactly one distinct leaf shape (shared twice).
    assert_eq!(runtime.shard_resident_leaves(0), 1);
    assert_eq!(runtime.shard_resident_leaves(1), 1);

    // Deregistering the sharers releases the residency refcounts.
    runtime.deregister(t1).unwrap();
    runtime.deregister(t2).unwrap();
    let tcp_shard = runtime.shard_of(d1).map(|w| 1 - w).unwrap();
    assert_eq!(runtime.shard_resident_leaves(tcp_shard), 0);

    // The co-located setup still answers correctly end to end.
    let mut events = Vec::new();
    for i in 0..40u64 {
        events.push(EdgeEvent::homogeneous(i, i + 1, ip, dns, Timestamp(i)));
    }
    let found = runtime.process_all(events.iter());
    // Each consecutive dns pair matches both registered dns queries.
    assert_eq!(found, 2 * 39);
}

#[test]
fn shard_assignment_co_locates_prefix_sharers() {
    // Four queries over the SAME two leaf shapes (one tcp edge, one dns
    // edge) but two different join-cut structures: a path (the dns edge
    // hangs off the tcp edge's destination) and a fan-out (both edges leave
    // the same source). Leaf-shape residency cannot tell the shards apart
    // once both host the shapes — only the canonical *chain* (leaf sequence
    // + glue) does, so co-locating path with path and fan with fan proves
    // the prefix-aware discount is live.
    let schema = cyber_schema();
    let tcp = schema.edge_type("tcp").unwrap();
    let dns = schema.edge_type("dns").unwrap();
    let mut estimator = streampattern::SelectivityEstimator::new();
    for i in 0..100u64 {
        estimator.observe_edge(&sp_graph::EdgeData {
            id: sp_graph::EdgeId(i),
            src: sp_graph::VertexId(i),
            dst: sp_graph::VertexId(i + 1_000),
            edge_type: if i % 2 == 0 { tcp } else { dns },
            timestamp: Timestamp(i),
        });
    }
    let path = |name: &str| {
        let mut q = QueryGraph::new(name);
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        q.add_edge(b, c, dns);
        q
    };
    let fan = |name: &str| {
        let mut q = QueryGraph::new(name);
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        q.add_edge(a, c, dns);
        q
    };
    let mut runtime = ParallelStreamProcessor::new(
        schema.clone(),
        RuntimeConfig::with_workers(2).statistics(false),
    )
    .with_estimator(estimator);
    let p1 = runtime
        .register(path("path-1"), Strategy::SingleLazy, None)
        .unwrap();
    let f1 = runtime
        .register(fan("fan-1"), Strategy::SingleLazy, None)
        .unwrap();
    let p2 = runtime
        .register(path("path-2"), Strategy::SingleLazy, None)
        .unwrap();
    let f2 = runtime
        .register(fan("fan-2"), Strategy::SingleLazy, None)
        .unwrap();
    assert_eq!(
        runtime.shard_of(p1),
        runtime.shard_of(p2),
        "identical chains must co-locate"
    );
    assert_eq!(
        runtime.shard_of(f1),
        runtime.shard_of(f2),
        "identical chains must co-locate"
    );
    assert_ne!(
        runtime.shard_of(p1),
        runtime.shard_of(f1),
        "different glue, different shard"
    );
    // Each shard hosts exactly one distinct chain (refcounted twice), and
    // deregistration releases the refcounts.
    assert_eq!(runtime.shard_resident_chains(0), 1);
    assert_eq!(runtime.shard_resident_chains(1), 1);
    let path_shard = runtime.shard_of(p1).unwrap();
    runtime.deregister(p1).unwrap();
    assert_eq!(runtime.shard_resident_chains(path_shard), 1);
    runtime.deregister(p2).unwrap();
    assert_eq!(runtime.shard_resident_chains(path_shard), 0);
    drop(runtime.shutdown());
    let _ = (f1, f2);
}

/// The facade mirrors resident chains as *trie paths*: a depth-3 chain
/// contributes both its depth-2 and depth-3 prefix nodes to the shard's
/// resident set (the worker's shared-join trie can materialize either), and
/// the refcounts release as a path when the queries leave.
#[test]
fn resident_chains_count_trie_paths() {
    let schema = cyber_schema();
    let tcp = schema.edge_type("tcp").unwrap();
    let dns = schema.edge_type("dns").unwrap();
    let path3 = |name: &str| {
        let mut q = QueryGraph::new(name);
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        let d = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        q.add_edge(b, c, dns);
        q.add_edge(c, d, tcp);
        q
    };
    let mut runtime = ParallelStreamProcessor::new(
        schema.clone(),
        RuntimeConfig::with_workers(1).statistics(false),
    );
    let a = runtime
        .register(path3("deep-1"), Strategy::SingleLazy, None)
        .unwrap();
    assert_eq!(
        runtime.shard_resident_chains(0),
        2,
        "a depth-3 chain is resident as its depth-2 and depth-3 paths"
    );
    let b = runtime
        .register(path3("deep-2"), Strategy::SingleLazy, None)
        .unwrap();
    assert_eq!(runtime.shard_resident_chains(0), 2, "paths are refcounted");
    runtime.deregister(a).unwrap();
    assert_eq!(runtime.shard_resident_chains(0), 2);
    runtime.deregister(b).unwrap();
    assert_eq!(runtime.shard_resident_chains(0), 0);
    drop(runtime.shutdown());
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
