//! Shared-leaf evaluation: equivalence and lifecycle.
//!
//! The refactor's contract is that sharing is *semantics-preserving*: for
//! any strategy, window mix and worker count, the reported `(query, match)`
//! multiset is identical with sharing enabled, with sharing disabled, and
//! against the pre-sharing architecture of one independent single-query
//! processor per pattern. The lifecycle tests cover mid-stream subscription
//! churn: a late subscriber to an existing leaf shape must not see
//! pre-registration matches, and the last unsubscriber drops the shared
//! entry.

use sp_datasets::NetflowConfig;
use sp_graph::{EdgeEvent, Timestamp};
use sp_query::{QueryEdgeId, QueryGraph, QuerySubgraph};
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use streampattern::{
    ContinuousQueryEngine, FnSink, QueryId, Schema, SjTree, Strategy, StrategySpec,
    StreamProcessor, SubgraphMatch,
};

/// An overlapping netflow rule pack (shared TCP / ICMP / ESP leaves) with a
/// mix of per-query windows.
fn pack(schema: &Schema) -> Vec<(QueryGraph, Option<u64>)> {
    let chain = |name: &str, protos: &[&str]| {
        let mut q = QueryGraph::new(name);
        let mut prev = q.add_any_vertex();
        for p in protos {
            let next = q.add_any_vertex();
            q.add_edge(prev, next, schema.edge_type(p).unwrap());
            prev = next;
        }
        q
    };
    vec![
        (chain("scan", &["ICMP", "TCP"]), Some(2_000)),
        (chain("exfil", &["TCP", "ESP"]), Some(5_000)),
        (chain("exfil-wide", &["TCP", "ESP"]), None),
        (chain("relay", &["TCP", "TCP"]), Some(1_000)),
        (chain("bounce", &["TCP", "ESP", "TCP"]), Some(5_000)),
    ]
}

/// Sorted `(query slot, match fingerprint)` multiset of a full run.
fn multiset_of<F>(mut process_all: F) -> Vec<(usize, String)>
where
    F: FnMut(&mut dyn FnMut(usize, SubgraphMatch)),
{
    let mut out = Vec::new();
    process_all(&mut |slot, m| {
        out.push((slot, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
    });
    out.sort();
    out
}

#[test]
fn sharing_is_semantics_preserving_across_strategies_and_windows() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);

    let specs: [StrategySpec; 5] = [
        Strategy::Single.into(),
        Strategy::SingleLazy.into(),
        Strategy::Path.into(),
        Strategy::PathLazy.into(),
        StrategySpec::Auto,
    ];
    for spec in specs {
        let run_shared_graph = |sharing: bool| {
            let mut proc = StreamProcessor::new(schema.clone())
                .with_estimator(estimator.clone())
                .with_statistics(false)
                .with_sharing(sharing);
            let ids: Vec<QueryId> = rules
                .iter()
                .map(|(q, w)| proc.register(q.clone(), spec, *w).unwrap())
                .collect();
            let stats = proc.shared_leaf_stats();
            let multiset = multiset_of(|emit| {
                let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                    let slot = ids.iter().position(|&i| i == q).unwrap();
                    emit(slot, m);
                });
                for ev in dataset.events() {
                    proc.process_into(ev, &mut sink);
                }
            });
            (multiset, stats, proc.shared_leaf_stats())
        };
        let (with_sharing, before, after) = run_shared_graph(true);
        let (without_sharing, _, _) = run_shared_graph(false);
        assert_eq!(
            with_sharing, without_sharing,
            "sharing on/off multisets diverge under {spec:?}"
        );
        assert!(!with_sharing.is_empty(), "workload found no matches");
        // The pack genuinely shares: fewer shapes than subscriptions, and the
        // run eliminated searches (counted only while sharing was on).
        assert!(before.distinct_leaves < before.total_subscriptions);
        assert!(
            after.searches_shared > 0,
            "no searches eliminated under {spec:?}"
        );

        // PR-1 architecture: one independent single-query processor per
        // rule, no shared graph, no shared leaves.
        let independent = multiset_of(|emit| {
            for (slot, (q, w)) in rules.iter().enumerate() {
                let mut proc = StreamProcessor::new(schema.clone())
                    .with_estimator(estimator.clone())
                    .with_statistics(false)
                    .with_sharing(false);
                proc.register(q.clone(), spec, *w).unwrap();
                let mut sink = FnSink(|_q: QueryId, m: SubgraphMatch| emit(slot, m));
                for ev in dataset.events() {
                    proc.process_into(ev, &mut sink);
                }
            }
        });
        assert_eq!(
            with_sharing, independent,
            "shared execution diverges from independent processors under {spec:?}"
        );
    }
}

#[test]
fn sharing_matches_parallel_runtime_across_worker_counts() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);

    // Sequential reference with sharing enabled.
    let mut seq = StreamProcessor::new(schema.clone())
        .with_estimator(estimator.clone())
        .with_statistics(false);
    let seq_ids: Vec<QueryId> = rules
        .iter()
        .map(|(q, w)| seq.register(q.clone(), Strategy::SingleLazy, *w).unwrap())
        .collect();
    let expected = multiset_of(|emit| {
        let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
            emit(seq_ids.iter().position(|&i| i == q).unwrap(), m);
        });
        for ev in dataset.events() {
            seq.process_into(ev, &mut sink);
        }
    });
    assert!(seq.shared_leaf_stats().searches_shared > 0);

    // Each worker's registry shares leaves among the queries on its shard;
    // the multiset must match the sequential run for every worker count.
    for workers in [1usize, 2, 4] {
        let mut runtime = ParallelStreamProcessor::new(
            schema.clone(),
            RuntimeConfig::with_workers(workers).statistics(false),
        )
        .with_estimator(estimator.clone());
        let ids: Vec<QueryId> = rules
            .iter()
            .map(|(q, w)| {
                runtime
                    .register(q.clone(), Strategy::SingleLazy, *w)
                    .unwrap()
            })
            .collect();
        let got = multiset_of(|emit| {
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                emit(ids.iter().position(|&i| i == q).unwrap(), m);
            });
            runtime.process_all_into(dataset.events().iter(), &mut sink);
        });
        assert_eq!(got, expected, "multiset diverged at {workers} workers");
    }
}

#[test]
fn late_subscriber_to_an_existing_leaf_sees_only_post_registration_matches() {
    let mut schema = Schema::new();
    let ip = schema.intern_vertex_type("ip");
    let tcp = schema.intern_edge_type("tcp");
    let esp = schema.intern_edge_type("esp");
    let two_hop = |name: &str| {
        let mut q = QueryGraph::new(name);
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        q.add_edge(b, c, esp);
        q
    };
    // A deterministic stream with a tcp→esp completion in each half.
    let events: Vec<EdgeEvent> = (0..40u64)
        .map(|i| {
            let t = if i % 4 == 3 { esp } else { tcp };
            EdgeEvent::homogeneous(i, i + 1, ip, t, Timestamp(i))
        })
        .collect();
    let half = events.len() / 2;

    let mut proc = StreamProcessor::new(schema.clone());
    let early = proc
        .register(two_hop("early"), Strategy::SingleLazy, None)
        .unwrap();
    let mut early_first_half = 0u64;
    for ev in &events[..half] {
        early_first_half += proc.process(ev).iter().filter(|(q, _)| *q == early).count() as u64;
    }
    assert!(early_first_half > 0, "first half produced no matches");

    // The late query subscribes to the *same* leaf shapes: the index gains
    // subscriptions but no new distinct shapes.
    let before = proc.shared_leaf_stats();
    let late = proc
        .register(two_hop("late"), Strategy::SingleLazy, None)
        .unwrap();
    let after = proc.shared_leaf_stats();
    assert_eq!(after.distinct_leaves, before.distinct_leaves);
    assert_eq!(
        after.total_subscriptions,
        before.total_subscriptions + 2,
        "the late query must join the existing shapes"
    );

    let mut early_second_half = 0u64;
    let mut late_second_half = 0u64;
    for ev in &events[half..] {
        for (q, _) in proc.process(ev) {
            if q == late {
                late_second_half += 1;
            } else {
                early_second_half += 1;
            }
        }
    }
    // Reference: a fresh processor that sees only the second half. The late
    // subscriber must report exactly these matches — nothing inherited from
    // the shared shapes' earlier activity.
    let mut fresh = StreamProcessor::new(schema.clone());
    let fresh_id = fresh
        .register(two_hop("fresh"), Strategy::SingleLazy, None)
        .unwrap();
    let mut fresh_matches = 0u64;
    for ev in &events[half..] {
        fresh_matches += fresh
            .process(ev)
            .iter()
            .filter(|(q, _)| *q == fresh_id)
            .count() as u64;
    }
    assert_eq!(
        late_second_half, fresh_matches,
        "late subscriber saw pre-registration history"
    );
    // The early query keeps joining across the registration boundary, so it
    // sees at least as much as the late one.
    assert!(early_second_half >= late_second_half);

    // Unsubscription: the shapes survive while any subscriber remains and
    // drop with the last one.
    proc.deregister(early).unwrap();
    let stats = proc.shared_leaf_stats();
    assert_eq!(
        stats.distinct_leaves, 2,
        "late query still holds both shapes"
    );
    assert_eq!(stats.shared_queries, 1);
    proc.deregister(late).unwrap();
    let stats = proc.shared_leaf_stats();
    assert_eq!(
        stats.distinct_leaves, 0,
        "last unsubscriber must drop the entry"
    );
    assert_eq!(stats.total_subscriptions, 0);
    assert_eq!(stats.shared_queries, 0);
}

/// A hand-planned pack and stream on which one engine — `focus`, registered
/// last — meets every case of the per-edge leaf loop on one and the same
/// edge (`events[probe]`, a `B` edge):
///
/// * its leading `[A, B]` leaves ride a shared prefix table (with `partner`)
///   at partial depth, and the edge completes a prefix match: a row is pulled;
/// * rank 2 (`B`, any → any) is a shape `sharer` — dispatched first —
///   subscribes to as well: served from the edge's search memo;
/// * rank 3 (`B`, any → host) is a shape only `focus` has: handed back to it;
/// * rank 4 (`B` out of a host; with `wedge`, the 2-edge leaf `B, C`) is
///   gated off under Lazy Search — nothing has enabled it around the edge;
/// * the remaining leaves (`C`, `A`) do not contain the edge's type.
struct LoopPack {
    schema: Schema,
    /// `[partner, sharer, focus]`, in registration order.
    engines: Vec<ContinuousQueryEngine>,
    events: Vec<EdgeEvent>,
    probe: usize,
}

fn loop_pack(wedge: bool, lazy: bool) -> LoopPack {
    const WINDOW: Option<u64> = Some(64);
    let mut schema = Schema::new();
    let ip = schema.intern_vertex_type("ip");
    let host = schema.intern_vertex_type("host");
    let [a, b, c] = ["A", "B", "C"].map(|t| schema.intern_edge_type(t));

    let engine = |q: QueryGraph, leaves: &[&[usize]]| {
        let leaves = leaves
            .iter()
            .map(|es| QuerySubgraph::from_edges(&q, es.iter().map(|&e| QueryEdgeId(e))))
            .collect();
        ContinuousQueryEngine::from_tree(SjTree::from_leaves(q, leaves), lazy, WINDOW).unwrap()
    };
    let mut partner = QueryGraph::new("partner");
    let w: Vec<_> = (0..3).map(|_| partner.add_any_vertex()).collect();
    partner.add_edge(w[0], w[1], a);
    partner.add_edge(w[1], w[2], b);
    let mut sharer = QueryGraph::new("sharer");
    let x: Vec<_> = (0..3).map(|_| sharer.add_any_vertex()).collect();
    sharer.add_edge(x[0], x[1], b);
    sharer.add_edge(x[1], x[2], c);
    let mut focus = QueryGraph::new("focus");
    let v: Vec<_> = (0..8)
        .map(|i| {
            if i == 4 {
                focus.add_vertex(host)
            } else {
                focus.add_any_vertex()
            }
        })
        .collect();
    for (i, t) in [a, b, b, b, b, c, a].into_iter().enumerate() {
        focus.add_edge(v[i], v[i + 1], t);
    }
    let focus_leaves: &[&[usize]] = if wedge {
        &[&[0], &[1], &[2], &[3], &[4, 5], &[6]]
    } else {
        &[&[0], &[1], &[2], &[3], &[4], &[5], &[6]]
    };
    let engines = vec![
        engine(partner, &[&[0], &[1]]),
        engine(sharer, &[&[0], &[1]]),
        engine(focus, focus_leaves),
    ];

    // Vertex ids ending in 9 are hosts. One event per tick.
    let mut events: Vec<EdgeEvent> = Vec::new();
    let mut push = |src: u64, dst: u64, edge_type| {
        let vt = |id: u64| if id % 10 == 9 { host } else { ip };
        events.push(EdgeEvent {
            src,
            dst,
            src_type: vt(src),
            dst_type: vt(dst),
            edge_type,
            timestamp: Timestamp(events.len() as u64 + 1),
            arrival_ns: 0,
        });
    };
    let probe = 6;
    // The scripted block, then twice more (on shifted vertices) behind a
    // seeded tail each, so the multisets are not trivial.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for block in 0..3u64 {
        let o = 100 * block;
        push(o + 1, o + 2, a);
        push(o + 2, o + 3, b); // prefix (1,2,3): enables rank 2 around vertex 3
        push(o + 4, o + 5, a);
        push(o + 5, o + 6, b); // prefix (4,5,6)
        push(o + 6, o + 3, b); // rank 2 joins it: enables rank 3 around vertex 3
        push(o + 7, o + 3, a);
        push(o + 3, o + 19, b); // the probed edge: completes prefix (7,3,19)
        push(o + 19, o + 11, b);
        push(o + 11, o + 12, c);
        push(o + 12, o + 13, a); // completes 4-A-5-B-6-B-3-B-19-B-11-C-12-A-13
        for _ in 0..300 {
            let mut draw = |n: u64| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) % n
            };
            let (src, dst) = (20 + draw(40), 20 + draw(40));
            let edge_type = [a, b, b, b, c, c][draw(6) as usize];
            if src != dst {
                push(src, dst, edge_type);
            }
        }
    }
    LoopPack {
        schema,
        engines,
        events,
        probe,
    }
}

#[test]
fn one_engine_meets_every_leaf_loop_case_on_one_edge() {
    for (wedge, lazy, label) in [
        (false, false, Strategy::Single),
        (false, true, Strategy::SingleLazy),
        (true, false, Strategy::Path),
        (true, true, Strategy::PathLazy),
    ] {
        let LoopPack {
            schema,
            engines,
            events,
            probe,
        } = loop_pack(wedge, lazy);
        assert_eq!(engines[2].strategy(), label);

        // The shared pipeline, with the focus engine's counters read around
        // the probed edge.
        let mut proc = StreamProcessor::new(schema.clone()).with_statistics(false);
        let ids: Vec<QueryId> = engines
            .iter()
            .map(|e| proc.register_engine(e.clone()))
            .collect();
        let focus = ids[2];
        assert_eq!(
            proc.registry().shared_joins().subscription_depth(focus),
            Some(2),
            "the focus query rides the [A, B] table at partial depth"
        );
        let mut around_probe = Vec::new();
        let shared = multiset_of(|emit| {
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                emit(ids.iter().position(|&i| i == q).unwrap(), m);
            });
            for (i, ev) in events.iter().enumerate() {
                if i == probe || i == probe + 1 {
                    around_probe.push((
                        proc.profile_for(focus).unwrap().clone(),
                        proc.shared_leaf_stats(),
                    ));
                }
                proc.process_into(ev, &mut sink);
            }
        });
        let [(p0, l0), (p1, l1)] = &around_probe[..] else {
            panic!("two snapshots");
        };
        assert_eq!(
            p1.shared_join_emissions - p0.shared_join_emissions,
            1,
            "{label}: one prefix row pulled"
        );
        assert_eq!(
            p1.leaf_searches_shared - p0.leaf_searches_shared,
            1,
            "{label}: rank 2 served from the memo"
        );
        let gated = u64::from(lazy);
        assert_eq!(
            p1.searches_skipped - p0.searches_skipped,
            gated,
            "{label}: rank 4 gated off iff lazy"
        );
        // Ranks 2, 3 and 4 contain the edge's type; the leaves behind them
        // do not and move no counter.
        assert_eq!(
            p1.iso_searches - p0.iso_searches,
            3 - gated,
            "{label}: only leaves of the edge's type reach a search"
        );
        assert_eq!(
            l1.searches_delegated - l0.searches_delegated,
            2 - gated,
            "{label}: single-subscriber shapes are handed back"
        );
        assert_eq!(
            shared.iter().filter(|(slot, _)| *slot == 2).count(),
            3,
            "{label}: one focus match per scripted block"
        );

        // Independent processors, one per query, nothing shared.
        let independent = multiset_of(|emit| {
            for (slot, engine) in engines.iter().enumerate() {
                let mut proc = StreamProcessor::new(schema.clone())
                    .with_statistics(false)
                    .with_sharing(false);
                proc.register_engine(engine.clone());
                let mut sink = FnSink(|_q: QueryId, m: SubgraphMatch| emit(slot, m));
                for ev in &events {
                    proc.process_into(ev, &mut sink);
                }
            }
        });
        assert_eq!(shared, independent, "{label}: diverges from independent");

        for workers in [1usize, 2, 4] {
            let mut runtime = ParallelStreamProcessor::new(
                schema.clone(),
                RuntimeConfig::with_workers(workers).statistics(false),
            );
            let ids: Vec<QueryId> = engines
                .iter()
                .map(|e| runtime.register_engine(e.clone()))
                .collect();
            let got = multiset_of(|emit| {
                let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                    emit(ids.iter().position(|&i| i == q).unwrap(), m);
                });
                runtime.process_all_into(events.iter(), &mut sink);
            });
            assert_eq!(got, shared, "{label}: diverged at {workers} workers");
        }
    }
}

#[test]
fn iso_searches_count_the_leaves_that_reached_a_search() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    for strategy in [Strategy::Single, Strategy::SingleLazy, Strategy::PathLazy] {
        // Every query on the shared leaf stage, no join table: each leaf
        // that reaches a search is run by the stage, served from its memo or
        // handed back — and nothing else counts as a search.
        let mut proc = StreamProcessor::new(dataset.schema.clone())
            .with_estimator(estimator.clone())
            .with_statistics(false)
            .with_join_sharing(false);
        for (q, w) in pack(&dataset.schema) {
            proc.register(q, strategy, w).unwrap();
        }
        assert_eq!(proc.shared_leaf_stats().shared_queries, 5);
        assert_eq!(proc.shared_join_stats().tables, 0);
        proc.process_all(dataset.events());
        let leaf = proc.shared_leaf_stats();
        assert!(leaf.searches_shared > 0 && leaf.searches_delegated > 0);
        assert_eq!(
            proc.profile().iso_searches,
            leaf.searches_run + leaf.searches_shared + leaf.searches_delegated,
            "{strategy}"
        );
    }

    // A leaf whose edge types exclude the edge's type moves no counter,
    // gated or not: a lazy [t0, t1] chain fed t0 edges only visits its t0
    // leaf once per edge and never counts the (closed, mismatched) t1 leaf
    // as a skipped search.
    let mut schema = Schema::new();
    let ip = schema.intern_vertex_type("ip");
    let (t0, t1) = (schema.intern_edge_type("t0"), schema.intern_edge_type("t1"));
    for lazy in [false, true] {
        let mut q = QueryGraph::new("chain");
        let v: Vec<_> = (0..3).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], t0);
        q.add_edge(v[1], v[2], t1);
        let leaves = (0..2)
            .map(|e| QuerySubgraph::from_edges(&q, [QueryEdgeId(e)]))
            .collect();
        let engine =
            ContinuousQueryEngine::from_tree(SjTree::from_leaves(q, leaves), lazy, None).unwrap();
        let mut proc = StreamProcessor::with_engine(schema.clone(), engine);
        for i in 0..50u64 {
            proc.process(&EdgeEvent::homogeneous(i, i + 1, ip, t0, Timestamp(i)));
        }
        let profile = proc.profile();
        assert_eq!((profile.iso_searches, profile.searches_skipped), (50, 0));
    }
}
