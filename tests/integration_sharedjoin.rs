//! Shared join stage: equivalence and lifecycle.
//!
//! The tentpole contract is that sharing the join stage is
//! *semantics-preserving*: for any strategy, window mix and worker count,
//! the reported `(query, match)` multiset is identical with leaf+join
//! sharing, with leaf-only sharing, with no sharing at all, and against
//! independent single-query processors. The lifecycle tests cover the
//! refcounted tables: the last unsubscriber (deregistration or a
//! drift-driven re-subscription) drops the shared prefix table, a late
//! subscriber to an existing prefix sees no pre-registration matches, and a
//! re-decomposition landing mid-window keeps live partials completing.

use sp_datasets::{soc_chain_rule, NetflowConfig};
use sp_graph::{EdgeEvent, Timestamp};
use sp_query::QueryGraph;
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use streampattern::{
    FnSink, QueryId, Schema, SjTree, Strategy, StrategySpec, StreamProcessor, SubgraphMatch,
};

/// Worker counts under test: `RUNTIME_WORKERS` (e.g. `2` or `1,2,4`) or the
/// default sweep, mirroring `integration_parallel.rs`.
fn worker_counts() -> Vec<usize> {
    match std::env::var("RUNTIME_WORKERS") {
        Ok(v) => v
            .split(',')
            .map(|p| {
                p.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("bad RUNTIME_WORKERS entry '{p}'"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

/// An overlapping netflow rule pack with identical chains (exfil vs
/// exfil-wide — different windows, one table), *nesting* prefix overlaps
/// (bounce and bounce-wide extend the exfil chain, so under the trie policy
/// their depth-3 node consumes the depth-2 exfil node's emissions) and
/// non-overlapping rules, so the shared join stage exercises full-depth
/// sharing, parent-to-child trie feeding and the private fallback at once.
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
        (chain("exfil", &["TCP", "ESP"]), Some(5_000)),
        (chain("exfil-wide", &["TCP", "ESP"]), None),
        (chain("bounce", &["TCP", "ESP", "TCP"]), Some(5_000)),
        (chain("bounce-wide", &["TCP", "ESP", "TCP"]), None),
        (chain("scan", &["ICMP", "TCP"]), Some(2_000)),
        (chain("scan-flood", &["ICMP", "TCP", "UDP"]), Some(4_000)),
        (chain("relay", &["TCP", "TCP"]), Some(1_000)),
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
fn shared_join_is_semantics_preserving_across_strategies_and_windows() {
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
        let run = |leaf_sharing: bool, join_sharing: bool| {
            let mut proc = StreamProcessor::new(schema.clone())
                .with_estimator(estimator.clone())
                .with_statistics(false)
                .with_sharing(leaf_sharing)
                .with_join_sharing(join_sharing);
            let ids: Vec<QueryId> = rules
                .iter()
                .map(|(q, w)| proc.register(q.clone(), spec, *w).unwrap())
                .collect();
            let multiset = multiset_of(|emit| {
                let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                    let slot = ids.iter().position(|&i| i == q).unwrap();
                    emit(slot, m);
                });
                for ev in dataset.events() {
                    proc.process_into(ev, &mut sink);
                }
            });
            (multiset, proc.shared_join_stats(), ids, proc)
        };
        let (full, join_stats, ids, proc) = run(true, true);
        let (leaf_only, leaf_only_stats, _, leaf_only_proc) = run(true, false);
        let (unshared, _, _, _) = run(false, false);
        assert_eq!(
            full, leaf_only,
            "join sharing changed the multiset under {spec:?}"
        );
        assert_eq!(
            full, unshared,
            "sharing (any stage) changed the multiset under {spec:?}"
        );
        assert!(!full.is_empty(), "workload found no matches");
        assert_eq!(
            leaf_only_stats.tables, 0,
            "join sharing off must not create tables"
        );
        // Under the 1-edge decompositions every 2-edge rule is join-capable
        // and the identical exfil/exfil-wide chains must coalesce into one
        // refcounted table that eliminates inserts and searches. (The
        // 2-edge-path decompositions fold those rules into a single leaf —
        // nothing to join — so only the multiset parity above applies.)
        let single_edge = matches!(
            spec,
            StrategySpec::Fixed(Strategy::Single) | StrategySpec::Fixed(Strategy::SingleLazy)
        );
        if single_edge {
            assert!(
                join_stats.tables >= 1,
                "no shared prefix table under {spec:?}: {join_stats:?}"
            );
            assert!(join_stats.subscriptions >= 2);
            assert!(
                join_stats.searches_saved > 0 && join_stats.inserts_saved > 0,
                "no join work eliminated under {spec:?}: {join_stats:?}"
            );
            assert!(join_stats.deliveries > 0);
            // The bounce pair's depth-3 node nests under the exfil pair's
            // depth-2 node and consumes its emissions instead of re-running
            // the shared leaves.
            assert!(
                join_stats.max_depth >= 3,
                "no nested trie node under {spec:?}: {join_stats:?}"
            );
            assert!(
                join_stats.parent_feeds > 0,
                "the trie never fed a child under {spec:?}: {join_stats:?}"
            );
            // Total physical join-stage inserts (every engine's private
            // tables plus the shared stage, each insert counted once): the
            // shared stage must cost strictly less than leaf-only sharing,
            // where every engine stores its own prefix partials.
            let engine_inserts = |p: &StreamProcessor| -> u64 {
                p.query_ids()
                    .iter()
                    .filter_map(|&id| p.engine_for(id))
                    .filter_map(|e| e.store_stats())
                    .map(|s| s.total_inserted_per_node.iter().sum::<u64>())
                    .sum()
            };
            let trie_inserts = engine_inserts(&proc) + join_stats.inserts_run;
            let leaf_only_inserts = engine_inserts(&leaf_only_proc);
            assert!(
                trie_inserts < leaf_only_inserts,
                "shared join stage did not reduce join-stage inserts under {spec:?}: \
                 {trie_inserts} vs leaf-only {leaf_only_inserts}"
            );
            // Per-engine accounting: the identical-chain queries consumed
            // their matches from the shared stage.
            let exfil_profile = proc.profile_for(ids[0]).unwrap();
            assert!(
                exfil_profile.join_stages_shared > 0,
                "exfil never hit a shared table under {spec:?}"
            );
        }

        // Pre-sharing architecture: one independent single-query processor
        // per rule.
        let independent = multiset_of(|emit| {
            for (slot, (q, w)) in rules.iter().enumerate() {
                let mut proc = StreamProcessor::new(schema.clone())
                    .with_estimator(estimator.clone())
                    .with_statistics(false)
                    .with_sharing(false)
                    .with_join_sharing(false);
                proc.register(q.clone(), spec, *w).unwrap();
                let mut sink = FnSink(|_q: QueryId, m: SubgraphMatch| emit(slot, m));
                for ev in dataset.events() {
                    proc.process_into(ev, &mut sink);
                }
            }
        });
        assert_eq!(
            full, independent,
            "shared join stage diverges from independent processors under {spec:?}"
        );
    }
}

#[test]
fn shared_join_matches_parallel_runtime_across_worker_counts() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);

    // Sequential reference with both sharing stages enabled (defaults).
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
    assert!(seq.shared_join_stats().searches_saved > 0);

    for workers in worker_counts() {
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

fn two_hop(schema: &Schema, name: &str) -> QueryGraph {
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();
    let mut q = QueryGraph::new(name);
    let a = q.add_any_vertex();
    let b = q.add_any_vertex();
    let c = q.add_any_vertex();
    q.add_edge(a, b, tcp);
    q.add_edge(b, c, esp);
    q
}

fn cyber_schema() -> Schema {
    let mut schema = Schema::new();
    schema.intern_vertex_type("ip");
    schema.intern_edge_type("tcp");
    schema.intern_edge_type("esp");
    schema
}

#[test]
fn late_subscriber_to_an_existing_prefix_sees_only_post_registration_matches() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();
    // A deterministic stream with tcp→esp completions in each half and no
    // completion straddling the boundary.
    let events: Vec<EdgeEvent> = (0..40u64)
        .map(|i| {
            let t = if i % 4 == 3 { esp } else { tcp };
            EdgeEvent::homogeneous(i, i + 1, ip, t, Timestamp(i))
        })
        .collect();
    let half = events.len() / 2;

    // Statistics stay off so the early and late twins decompose with the
    // same (tie-broken) leaf order — live statistics drifting between the
    // two registrations would give them different chains, and different
    // chains legitimately do not share a table.
    let mut proc = StreamProcessor::new(schema.clone()).with_statistics(false);
    let early = proc
        .register(two_hop(&schema, "early"), Strategy::SingleLazy, None)
        .unwrap();
    // One registered chain: no partner yet, so no table.
    assert_eq!(proc.shared_join_stats().tables, 0);
    let mut early_first_half = 0u64;
    for ev in &events[..half] {
        early_first_half += proc.process(ev).iter().filter(|(q, _)| *q == early).count() as u64;
    }
    assert!(early_first_half > 0, "first half produced no matches");

    // The late twin arrives mid-stream: a shared table is created for the
    // common chain and the early query migrates onto it — back-filled by
    // replaying the retained graph, so the early query's live partials
    // keep completing.
    let late = proc
        .register(two_hop(&schema, "late"), Strategy::SingleLazy, None)
        .unwrap();
    let stats = proc.shared_join_stats();
    assert_eq!(stats.tables, 1);
    assert_eq!(stats.subscriptions, 2);
    assert!(stats.replays >= 1, "migration must back-fill the table");

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
    // Reference: a fresh processor that sees only the second half. The
    // late subscriber must report exactly these matches — nothing
    // inherited from the shared table's earlier activity.
    let mut fresh = StreamProcessor::new(schema.clone());
    let fresh_id = fresh
        .register(two_hop(&schema, "fresh"), Strategy::SingleLazy, None)
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
    // The early query keeps joining across the registration boundary.
    assert!(early_second_half >= late_second_half);
    assert!(early_second_half > 0);

    // Refcount lifecycle via deregistration: the table survives while any
    // subscriber remains and drops with the last one.
    proc.deregister(early).unwrap();
    let stats = proc.shared_join_stats();
    assert_eq!(stats.tables, 1, "late query still holds the table");
    assert_eq!(stats.subscriptions, 1);
    proc.deregister(late).unwrap();
    let stats = proc.shared_join_stats();
    assert_eq!(stats.tables, 0, "last unsubscriber must drop the table");
    assert_eq!(stats.subscriptions, 0);
}

/// Builds a tree over `q` whose leaves are the query's single edges in the
/// given explicit order (bypassing the selectivity-driven order).
fn tree_with_leaf_order(q: &QueryGraph, order: &[usize]) -> SjTree {
    let leaves = order
        .iter()
        .map(|&i| sp_query::QuerySubgraph::from_edges(q, [sp_query::QueryEdgeId(i)]))
        .collect();
    SjTree::from_leaves(q.clone(), leaves)
}

#[test]
fn drift_driven_resubscription_moves_prefix_refcounts() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();

    let mut proc = StreamProcessor::new(schema.clone());
    let q1 = proc
        .register(two_hop(&schema, "one"), Strategy::SingleLazy, Some(1_000))
        .unwrap();
    let q2 = proc
        .register(two_hop(&schema, "two"), Strategy::SingleLazy, Some(1_000))
        .unwrap();
    assert_eq!(proc.shared_join_stats().tables, 1);
    assert_eq!(proc.shared_join_stats().subscriptions, 2);

    // Half a pattern arrives: a live partial sits in the shared table.
    assert!(proc
        .process(&EdgeEvent::homogeneous(1, 2, ip, tcp, Timestamp(10)))
        .is_empty());

    // Re-decompose q1 onto the flipped leaf order mid-window: q1 leaves the
    // table (q2 keeps it alive — the refcount drops to one, the table
    // stays) and runs privately until a partner with the flipped chain
    // appears.
    let query = proc.engine_for(q1).unwrap().query().clone();
    let flipped = tree_with_leaf_order(&query, &[1, 0]);
    proc.redecompose(q1, Strategy::SingleLazy, flipped.clone())
        .unwrap();
    let stats = proc.shared_join_stats();
    assert_eq!(stats.tables, 1, "q2 still holds the original table");
    assert_eq!(stats.subscriptions, 1);

    // Re-decompose q2 the same way: the original table loses its last
    // subscriber and is dropped; the two flipped chains coalesce into a
    // fresh table (replayed from the retained graph).
    proc.redecompose(q2, Strategy::SingleLazy, flipped).unwrap();
    let stats = proc.shared_join_stats();
    assert_eq!(stats.tables, 1, "flipped chains share a fresh table");
    assert_eq!(stats.subscriptions, 2);
    assert!(stats.replays >= 1);

    // The completing edge arrives after both swaps: the pre-swap partial
    // (replayed into the fresh table) completes exactly once per query.
    let matches = proc.process(&EdgeEvent::homogeneous(2, 3, ip, esp, Timestamp(20)));
    let for_q1 = matches.iter().filter(|(q, _)| *q == q1).count();
    let for_q2 = matches.iter().filter(|(q, _)| *q == q2).count();
    assert_eq!(for_q1, 1, "q1 lost its live partial across the swap");
    assert_eq!(for_q2, 1, "q2 lost its live partial across the swap");
}

#[test]
fn mixed_windows_share_one_table_and_filter_at_emit() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();

    let mut proc = StreamProcessor::new(schema.clone());
    let narrow = proc
        .register(two_hop(&schema, "narrow"), Strategy::Single, Some(50))
        .unwrap();
    let wide = proc
        .register(two_hop(&schema, "wide"), Strategy::Single, None)
        .unwrap();
    assert_eq!(proc.shared_join_stats().tables, 1, "one table, two windows");

    // tcp at t=0, esp at t=100: spans 100 ticks — outside the narrow
    // window, inside the (unbounded) wide one.
    proc.process(&EdgeEvent::homogeneous(1, 2, ip, tcp, Timestamp(0)));
    let matches = proc.process(&EdgeEvent::homogeneous(2, 3, ip, esp, Timestamp(100)));
    assert_eq!(matches.iter().filter(|(q, _)| *q == wide).count(), 1);
    assert_eq!(matches.iter().filter(|(q, _)| *q == narrow).count(), 0);

    // A fast completion lands in both.
    proc.process(&EdgeEvent::homogeneous(10, 11, ip, tcp, Timestamp(200)));
    let matches = proc.process(&EdgeEvent::homogeneous(11, 12, ip, esp, Timestamp(210)));
    assert_eq!(matches.iter().filter(|(q, _)| *q == wide).count(), 1);
    assert_eq!(matches.iter().filter(|(q, _)| *q == narrow).count(), 1);
}

fn three_hop(schema: &Schema, name: &str) -> QueryGraph {
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();
    let mut q = QueryGraph::new(name);
    let a = q.add_any_vertex();
    let b = q.add_any_vertex();
    let c = q.add_any_vertex();
    let d = q.add_any_vertex();
    q.add_edge(a, b, tcp);
    q.add_edge(b, c, esp);
    q.add_edge(c, d, tcp);
    q
}

/// Storage contract of the trie: with a `[tcp, esp]` node feeding a
/// `[tcp, esp, tcp]` child, every tcp→esp partial is stored exactly once —
/// in the child's consume slot — while the child's parent-owned stages stay
/// empty and both prefix roots store nothing.
#[test]
fn nested_prefix_partials_are_stored_exactly_once() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();

    let mut proc = StreamProcessor::new(schema.clone()).with_statistics(false);
    proc.register(two_hop(&schema, "n1"), Strategy::SingleLazy, None)
        .unwrap();
    proc.register(two_hop(&schema, "n2"), Strategy::SingleLazy, None)
        .unwrap();
    proc.register(three_hop(&schema, "d1"), Strategy::SingleLazy, None)
        .unwrap();
    proc.register(three_hop(&schema, "d2"), Strategy::SingleLazy, None)
        .unwrap();

    // 20 disjoint tcp→esp pairs, none completed to three hops: every pair
    // is a live partial of both prefixes.
    for i in 0..20u64 {
        let v = 100 * i;
        proc.process(&EdgeEvent::homogeneous(v, v + 1, ip, tcp, Timestamp(2 * i)));
        proc.process(&EdgeEvent::homogeneous(
            v + 1,
            v + 2,
            ip,
            esp,
            Timestamp(2 * i + 1),
        ));
    }

    let stats = proc.shared_join_stats();
    assert_eq!(stats.tables, 2);
    assert_eq!(stats.max_depth, 3);
    assert_eq!(
        stats.parent_feeds, 20,
        "each pair completion must flow parent → child exactly once"
    );
    let nodes = proc.registry().shared_joins().trie_nodes();
    assert_eq!(nodes.len(), 2);
    let (shallow, deep) = (&nodes[0], &nodes[1]);
    assert_eq!(
        (shallow.depth, shallow.parent_depth, shallow.children),
        (2, None, 1)
    );
    assert_eq!((deep.depth, deep.parent_depth), (3, Some(2)));
    // Shallow node layout [leaf0, leaf1, root]: it owns the tcp and esp
    // leaf partials; its root (the [tcp,esp] completions) is emitted, never
    // stored.
    assert_eq!(shallow.live_by_node, vec![20, 20, 0]);
    // Deep node layout [leaf0, leaf1, leaf2, join(0..=1), root]: the
    // parent-owned stages (leaves 0 and 1) stay empty, the 20 fed pair
    // partials live only in the consume slot, its own rank-2 tcp leaf
    // keeps its partials, and the root again stores nothing.
    assert_eq!(deep.live_by_node, vec![0, 0, 20, 20, 0]);
}

/// A later shallow pair splits an existing trie edge *while partials are in
/// flight*: the depth-3 node keeps its live consume-slot and suffix
/// partials across the re-parenting (its parent-owned stages drop, the new
/// parent back-fills by replay), and the full scripted timeline reports the
/// same match multiset as no join sharing at all.
#[test]
fn trie_edge_split_repoints_live_subscribers_with_partials_in_flight() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();

    // Scripted timeline: the deep pair registers first, half the pairs
    // stream (live partials), the shallow pair registers mid-stream, the
    // remaining pairs and all completions follow.
    let run = |join_sharing: bool| {
        let mut proc = StreamProcessor::new(schema.clone())
            .with_statistics(false)
            .with_join_sharing(join_sharing);
        let mut out: Vec<(usize, String)> = Vec::new();
        let mut ids: Vec<QueryId> = Vec::new();
        let mut collect = |ids: &[QueryId], matches: Vec<(QueryId, SubgraphMatch)>| {
            for (q, m) in matches {
                let slot = ids.iter().position(|&i| i == q).unwrap();
                out.push((slot, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
            }
        };
        ids.push(
            proc.register(three_hop(&schema, "d1"), Strategy::SingleLazy, None)
                .unwrap(),
        );
        ids.push(
            proc.register(three_hop(&schema, "d2"), Strategy::SingleLazy, None)
                .unwrap(),
        );
        for i in 0..15u64 {
            let v = 100 * i;
            let m = proc.process(&EdgeEvent::homogeneous(v, v + 1, ip, tcp, Timestamp(2 * i)));
            collect(&ids, m);
            let m = proc.process(&EdgeEvent::homogeneous(
                v + 1,
                v + 2,
                ip,
                esp,
                Timestamp(2 * i + 1),
            ));
            collect(&ids, m);
        }
        ids.push(
            proc.register(two_hop(&schema, "n1"), Strategy::SingleLazy, None)
                .unwrap(),
        );
        ids.push(
            proc.register(two_hop(&schema, "n2"), Strategy::SingleLazy, None)
                .unwrap(),
        );
        if join_sharing {
            // The second shallow registration must have split the trie
            // edge: the depth-3 node now hangs off the fresh depth-2 node,
            // which was back-filled from the retained graph.
            let nodes = proc.registry().shared_joins().trie_nodes();
            assert_eq!(nodes.len(), 2);
            assert_eq!((nodes[0].depth, nodes[0].children), (2, 1));
            assert_eq!((nodes[1].depth, nodes[1].parent_depth), (3, Some(2)));
            assert!(
                proc.shared_join_stats().replays >= 1,
                "the split must back-fill the new parent"
            );
        }
        for i in 15..30u64 {
            let v = 100 * i;
            let m = proc.process(&EdgeEvent::homogeneous(v, v + 1, ip, tcp, Timestamp(2 * i)));
            collect(&ids, m);
            let m = proc.process(&EdgeEvent::homogeneous(
                v + 1,
                v + 2,
                ip,
                esp,
                Timestamp(2 * i + 1),
            ));
            collect(&ids, m);
        }
        for i in 0..30u64 {
            let v = 100 * i;
            let m = proc.process(&EdgeEvent::homogeneous(
                v + 2,
                v + 3,
                ip,
                tcp,
                Timestamp(100 + i),
            ));
            collect(&ids, m);
        }
        out.sort();
        out
    };

    let trie = run(true);
    let unshared = run(false);
    assert_eq!(trie, unshared, "split/re-point diverged from no sharing");
    // Every deep query completes all 30 chains (partials from before the
    // split included); the late shallow pair sees only the pairs completed
    // after its registration.
    let per_slot =
        |set: &[(usize, String)], slot: usize| set.iter().filter(|(s, _)| *s == slot).count();
    assert_eq!(per_slot(&trie, 0), 30);
    assert_eq!(per_slot(&trie, 1), 30);
    assert_eq!(per_slot(&trie, 2), 15);
    assert_eq!(per_slot(&trie, 3), 15);
}

// ---- row-native delivery: rebasing, windows, boundaries, spill ------------

/// The chain `protos[0] → protos[1] → …` numbered *against* the grain:
/// vertices are created from the chain's tail to its head and edges are
/// added last hop first, so the query's own ids are a non-identity
/// permutation of any head-to-tail canonical numbering.
fn permuted_chain(schema: &Schema, name: &str, protos: &[&str]) -> QueryGraph {
    let n = protos.len();
    let mut q = QueryGraph::new(name);
    let ids: Vec<_> = (0..=n).map(|_| q.add_any_vertex()).collect();
    let at = |pos: usize| ids[n - pos];
    for hop in (0..n).rev() {
        q.add_edge(at(hop), at(hop + 1), schema.edge_type(protos[hop]).unwrap());
    }
    q
}

/// Everything a subscriber-side rebase could get wrong: which data edge
/// plays which query edge, which data vertex which query vertex, and the
/// time span.
fn full_fingerprint(m: &SubgraphMatch) -> String {
    format!(
        "{:?} {:?} {:?}",
        m.edge_pairs().collect::<Vec<_>>(),
        m.vertex_pairs().collect::<Vec<_>>(),
        m.time_span()
    )
}

type Rule = (QueryGraph, Option<u64>);

/// Sorted `(rule slot, full fingerprint)` multiset of `rules` on one
/// processor built by `configure`.
fn shared_run(
    schema: &Schema,
    rules: &[Rule],
    events: &[EdgeEvent],
    configure: impl Fn(StreamProcessor) -> StreamProcessor,
) -> (Vec<(usize, String)>, StreamProcessor, Vec<QueryId>) {
    let mut proc = configure(StreamProcessor::new(schema.clone()));
    let ids: Vec<QueryId> = rules
        .iter()
        .map(|(q, w)| proc.register(q.clone(), Strategy::Single, *w).unwrap())
        .collect();
    let mut out = Vec::new();
    {
        let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
            out.push((
                ids.iter().position(|&i| i == q).unwrap(),
                full_fingerprint(&m),
            ));
        });
        for ev in events {
            proc.process_into(ev, &mut sink);
        }
    }
    out.sort();
    (out, proc, ids)
}

/// The oracle: one independent single-query processor per rule, every
/// sharing stage off.
fn independent_run(
    schema: &Schema,
    rules: &[Rule],
    events: &[EdgeEvent],
    configure: impl Fn(StreamProcessor) -> StreamProcessor,
) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (slot, (q, w)) in rules.iter().enumerate() {
        let mut proc = configure(StreamProcessor::new(schema.clone()))
            .with_sharing(false)
            .with_join_sharing(false);
        proc.register(q.clone(), Strategy::Single, *w).unwrap();
        let mut sink = FnSink(|_q: QueryId, m: SubgraphMatch| {
            out.push((slot, full_fingerprint(&m)));
        });
        for ev in events {
            proc.process_into(ev, &mut sink);
        }
    }
    out.sort();
    out
}

/// Three nested chains, each registered head-to-tail under one window and
/// against the grain under another: three prefix tables in a 3-level trie,
/// each with one identity-mapped and one permuted full-depth subscriber.
fn nested_permuted_pack(schema: &Schema) -> Vec<Rule> {
    const CHAIN: [&str; 4] = ["IPv6", "ICMP", "UDP", "TCP"];
    let mut rules = Vec::new();
    for depth in 2..=4 {
        rules.push((
            soc_chain_rule(schema, &format!("straight-{depth}"), &CHAIN[..depth]),
            Some(400),
        ));
        rules.push((
            permuted_chain(schema, &format!("permuted-{depth}"), &CHAIN[..depth]),
            Some(150),
        ));
    }
    rules
}

fn nested_dataset() -> sp_datasets::Dataset {
    NetflowConfig {
        num_hosts: 120,
        num_edges: 4_000,
        ..NetflowConfig::tiny()
    }
    .generate()
}

#[test]
fn permuted_full_depth_subscribers_match_independent_processors() {
    let dataset = nested_dataset();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = nested_permuted_pack(&schema);
    let configure = |p: StreamProcessor| p.with_estimator(estimator.clone()).with_statistics(false);

    let expected = independent_run(&schema, &rules, dataset.events(), configure);
    for slot in 0..rules.len() {
        assert!(
            expected.iter().any(|(s, _)| *s == slot),
            "rule {slot} never matched: the stream does not exercise its delivery"
        );
    }
    // The two windows must actually disagree on each table.
    for pair in 0..3 {
        let count = |slot| expected.iter().filter(|(s, _)| *s == slot).count();
        assert!(count(2 * pair) > count(2 * pair + 1));
    }

    let (trie, proc, ids) = shared_run(&schema, &rules, dataset.events(), configure);
    assert_eq!(trie, expected, "trie delivery diverged from the oracle");
    let stats = proc.shared_join_stats();
    assert_eq!((stats.tables, stats.subscriptions), (3, 6));
    assert_eq!(stats.max_depth, 4, "chains must nest three levels deep");
    assert!(stats.parent_feeds > 0, "no parent row reached a trie child");
    for &id in &ids {
        let engine = proc.engine_for(id).unwrap();
        assert_eq!(
            proc.registry().shared_joins().subscription_depth(id),
            Some(engine.tree().unwrap().num_leaves()),
            "every rule subscribes at full depth"
        );
        assert_eq!(
            engine.store_stats().unwrap().total_inserted_per_node,
            vec![0; engine.tree().unwrap().num_nodes()],
            "a full-depth subscriber's engine stores nothing"
        );
    }

    for workers in worker_counts() {
        let mut runtime = ParallelStreamProcessor::new(
            schema.clone(),
            RuntimeConfig::with_workers(workers).statistics(false),
        )
        .with_estimator(estimator.clone());
        let ids: Vec<QueryId> = rules
            .iter()
            .map(|(q, w)| runtime.register(q.clone(), Strategy::Single, *w).unwrap())
            .collect();
        let mut got = Vec::new();
        let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
            got.push((
                ids.iter().position(|&i| i == q).unwrap(),
                full_fingerprint(&m),
            ));
        });
        runtime.process_all_into(dataset.events().iter(), &mut sink);
        got.sort();
        assert_eq!(got, expected, "multiset diverged at {workers} workers");
    }
}

#[test]
fn late_permuted_subscriber_is_boundary_filtered_on_the_row() {
    let dataset = nested_dataset();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let events = dataset.events();
    let half = events.len() / 2;
    let chain = ["ICMP", "UDP", "TCP"];
    let late_rule = (permuted_chain(&schema, "late", &chain), Some(300));
    let early_rules = [
        (soc_chain_rule(&schema, "early-a", &chain), Some(300)),
        (permuted_chain(&schema, "early-b", &chain), None),
    ];
    let fresh = || {
        StreamProcessor::new(schema.clone())
            .with_estimator(estimator.clone())
            .with_statistics(false)
    };

    let mut proc = fresh();
    let mut ids: Vec<QueryId> = early_rules
        .iter()
        .map(|(q, w)| proc.register(q.clone(), Strategy::Single, *w).unwrap())
        .collect();
    let mut got = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if i == half {
            let (q, w) = &late_rule;
            ids.push(proc.register(q.clone(), Strategy::Single, *w).unwrap());
            assert_eq!(
                proc.shared_join_stats().tables,
                1,
                "the late rule joins the live table"
            );
        }
        for (q, m) in proc.process(ev) {
            got.push((
                ids.iter().position(|&x| x == q).unwrap(),
                full_fingerprint(&m),
            ));
        }
    }
    got.sort();

    // Oracle: each rule alone, registered at the same stream position.
    let mut expected = Vec::new();
    let all_rules = early_rules.iter().chain(std::iter::once(&late_rule));
    for (slot, (q, w)) in all_rules.enumerate() {
        let mut solo = fresh().with_sharing(false).with_join_sharing(false);
        let register_at = if slot == 2 { half } else { 0 };
        for (i, ev) in events.iter().enumerate() {
            if i == register_at {
                solo.register(q.clone(), Strategy::Single, *w).unwrap();
            }
            for (_, m) in solo.process(ev) {
                expected.push((slot, full_fingerprint(&m)));
            }
        }
    }
    expected.sort();
    assert_eq!(got, expected);
    let late = |set: &[(usize, String)]| set.iter().filter(|(s, _)| *s == 2).count();
    assert!(late(&got) > 0, "the late subscriber was never delivered to");
    assert!(
        late(&got) < got.iter().filter(|(s, _)| *s == 0).count(),
        "the boundary must withhold pre-registration matches"
    );
}

#[test]
fn spilled_wide_chain_is_delivered_from_rows_under_two_windows() {
    let dataset = NetflowConfig::tiny().generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len());
    let wide = sp_datasets::wide_soc_rules(&schema, 1).remove(0);
    let protos: Vec<_> = wide.edges().map(|e| e.edge_type).collect();
    assert_eq!(
        protos.len(),
        9,
        "9 edge + 10 vertex bindings: past the inline cap"
    );
    let ip = schema.vertex_type("ip").unwrap();

    // Forty hand-laid instances of the chain on disjoint host runs, one hop
    // per tick; odd instances arrive last hop first. Every fourth instance
    // is stretched to 10 ticks per hop, which only the wide window admits.
    let mut events = Vec::new();
    let mut tick = 0u64;
    for inst in 0..40u64 {
        let base = 10_000 + 20 * inst;
        let stride = if inst % 4 == 3 { 10 } else { 1 };
        let hops: Vec<usize> = if inst % 2 == 1 {
            (0..9).rev().collect()
        } else {
            (0..9).collect()
        };
        for hop in hops {
            tick += stride;
            events.push(EdgeEvent::homogeneous(
                base + hop as u64,
                base + hop as u64 + 1,
                ip,
                protos[hop],
                Timestamp(tick),
            ));
        }
    }
    let rules = vec![(wide.clone(), Some(1_000)), (wide, Some(50))];
    let configure = |p: StreamProcessor| p.with_estimator(estimator.clone()).with_statistics(false);
    let expected = independent_run(&schema, &rules, &events, configure);
    let count = |slot| expected.iter().filter(|(s, _)| *s == slot).count();
    assert_eq!((count(0), count(1)), (40, 30));

    let (got, proc, ids) = shared_run(&schema, &rules, &events, configure);
    assert_eq!(got, expected);
    assert_eq!(proc.shared_join_stats().tables, 1);
    assert_eq!(
        proc.registry().shared_joins().subscription_depth(ids[0]),
        Some(9)
    );
}

/// Sorted `(rule slot, full fingerprint)` multiset of `rules` on the
/// parallel runtime: every match crosses the worker channel as a row and is
/// materialized on the facade.
fn runtime_run(
    schema: &Schema,
    rules: &[Rule],
    events: &[EdgeEvent],
    workers: usize,
    estimator: &streampattern::SelectivityEstimator,
) -> Vec<(usize, String)> {
    let mut runtime = ParallelStreamProcessor::new(
        schema.clone(),
        RuntimeConfig::with_workers(workers).statistics(false),
    )
    .with_estimator(estimator.clone());
    let ids: Vec<QueryId> = rules
        .iter()
        .map(|(q, w)| runtime.register(q.clone(), Strategy::Single, *w).unwrap())
        .collect();
    let mut out = Vec::new();
    let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
        out.push((
            ids.iter().position(|&i| i == q).unwrap(),
            full_fingerprint(&m),
        ));
    });
    // Two calls, so the second starts with whatever the first left behind.
    let (head, tail) = events.split_at(events.len() / 2);
    runtime.process_all_into(head.iter(), &mut sink);
    runtime.process_all_into(tail.iter(), &mut sink);
    out.sort();
    out
}

/// Rows end to end: a partial-depth subscriber gets its prefix as feed rows
/// rebased into its own (permuted) numbering, a chain past the inline cap
/// is stored, fed, shipped and finally materialized at spilled width — and
/// independent processors, the shared sequential pipeline and the runtime
/// at every worker count report the same `(rule, bindings, span)` multiset.
#[test]
fn feed_rows_and_channel_rows_agree_with_independent_processors() {
    // (i) Nested chains: the 4-chain is alone at its depth, so it rides the
    // depth-3 table (a trie child of the depth-2 one) as a partial-depth
    // subscriber, beside the permuted 3-chain's full-depth subscription.
    let dataset = nested_dataset();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    const CHAIN: [&str; 4] = ["IPv6", "ICMP", "UDP", "TCP"];
    let rules = vec![
        (
            soc_chain_rule(&schema, "straight-2", &CHAIN[..2]),
            Some(400),
        ),
        (
            permuted_chain(&schema, "permuted-2", &CHAIN[..2]),
            Some(150),
        ),
        (
            permuted_chain(&schema, "permuted-3", &CHAIN[..3]),
            Some(300),
        ),
        (soc_chain_rule(&schema, "straight-4", &CHAIN), Some(400)),
    ];
    let configure = |p: StreamProcessor| p.with_estimator(estimator.clone()).with_statistics(false);
    let expected = independent_run(&schema, &rules, dataset.events(), configure);
    for slot in 0..rules.len() {
        assert!(
            expected.iter().any(|(s, _)| *s == slot),
            "rule {slot} never matched"
        );
    }
    let (got, proc, ids) = shared_run(&schema, &rules, dataset.events(), configure);
    assert_eq!(got, expected);
    let depth = |id| proc.registry().shared_joins().subscription_depth(id);
    assert_eq!(
        (depth(ids[0]), depth(ids[1]), depth(ids[2]), depth(ids[3])),
        (Some(2), Some(2), Some(3), Some(3)),
        "three full-depth subscribers and the 4-chain at partial depth"
    );
    for workers in worker_counts() {
        assert_eq!(
            runtime_run(&schema, &rules, dataset.events(), workers, &estimator),
            expected,
            "nested pack diverged at {workers} workers"
        );
    }

    // (ii) Spilled width: two 8-edge chains (9 vertex bindings) share a
    // table at full depth, the 9-edge chain extending them (19 bindings)
    // consumes that table's rows as its feed.
    let dataset = NetflowConfig::tiny().generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len());
    const WIDE: [&str; 9] = [
        "TCP", "ESP", "TCP", "GRE", "TCP", "ESP", "TCP", "GRE", "TCP",
    ];
    let protos: Vec<_> = WIDE.iter().map(|p| schema.edge_type(p).unwrap()).collect();
    let ip = schema.vertex_type("ip").unwrap();
    let mut events = Vec::new();
    let mut tick = 0u64;
    for inst in 0..40u64 {
        let base = 10_000 + 20 * inst;
        let stride = if inst % 4 == 3 { 10 } else { 1 };
        let hops: Vec<usize> = if inst % 2 == 1 {
            (0..9).rev().collect()
        } else {
            (0..9).collect()
        };
        for hop in hops {
            tick += stride;
            events.push(EdgeEvent::homogeneous(
                base + hop as u64,
                base + hop as u64 + 1,
                ip,
                protos[hop],
                Timestamp(tick),
            ));
        }
    }
    let rules = vec![
        (soc_chain_rule(&schema, "wide-8", &WIDE[..8]), Some(1_000)),
        (
            soc_chain_rule(&schema, "wide-8-narrow", &WIDE[..8]),
            Some(50),
        ),
        (soc_chain_rule(&schema, "wide-9", &WIDE), Some(1_000)),
    ];
    let configure = |p: StreamProcessor| p.with_estimator(estimator.clone()).with_statistics(false);
    let expected = independent_run(&schema, &rules, &events, configure);
    let count = |slot| expected.iter().filter(|(s, _)| *s == slot).count();
    assert_eq!((count(0), count(1), count(2)), (40, 30, 40));
    let (got, proc, ids) = shared_run(&schema, &rules, &events, configure);
    assert_eq!(got, expected);
    let joins = proc.registry().shared_joins();
    assert_eq!(joins.subscription_depth(ids[0]), Some(8));
    let fed = joins
        .subscription_depth(ids[2])
        .expect("the 9-chain shares a prefix with the 8-chains");
    assert!(
        (2..9).contains(&fed),
        "the 9-chain is a partial-depth subscriber, not depth {fed}"
    );
    assert!(proc.profile_for(ids[2]).unwrap().shared_join_emissions > 0);
    for workers in worker_counts() {
        assert_eq!(
            runtime_run(&schema, &rules, &events, workers, &estimator),
            expected,
            "wide pack diverged at {workers} workers"
        );
    }
}

/// The direct path must not move a single counter: the numbers below were
/// read off the parent commit (feed → engine → `complete` → sink) on the
/// same stream.
#[test]
fn direct_delivery_leaves_every_counter_where_the_feed_path_put_it() {
    let dataset = nested_dataset();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = nested_permuted_pack(&schema);
    let (_, proc, ids) = shared_run(&schema, &rules, dataset.events(), |p| {
        p.with_estimator(estimator.clone()).with_statistics(false)
    });
    let stats = proc.shared_join_stats();
    let per_query: Vec<(u64, u64, u64, u64)> = ids
        .iter()
        .map(|&id| {
            let p = proc.profile_for(id).unwrap();
            (
                p.edges_processed,
                p.shared_join_emissions,
                p.join_stages_shared,
                p.complete_matches,
            )
        })
        .collect();
    assert_eq!(
        (
            stats.emissions,
            stats.deliveries,
            stats.parent_feeds,
            stats.inserts_run
        ),
        PINNED_STATS
    );
    assert_eq!(per_query, PINNED_PROFILES);
}

/// `(emissions, deliveries, parent_feeds, inserts_run)` at the parent commit.
const PINNED_STATS: (u64, u64, u64, u64) = (4814, 5202, 1030, 4796);

/// Per rule of [`nested_permuted_pack`]: `(edges_processed,
/// shared_join_emissions, join_stages_shared, complete_matches)` at the
/// parent commit.
const PINNED_PROFILES: [(u64, u64, u64, u64); 6] = [
    (481, 206, 481, 206),
    (481, 81, 481, 81),
    (1664, 824, 1664, 824),
    (1664, 137, 1664, 137),
    (3766, 3784, 3766, 3784),
    (3766, 170, 3766, 170),
];
