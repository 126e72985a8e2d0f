//! Co-registered queries match independent processors.
//!
//! Queries registered on one shard share its graph, its dispatch index and
//! its shared join stage, and nothing else: every engine searches its own
//! leaves. The contract is that co-registration is *semantics-preserving*:
//! for any strategy, window mix and worker count, the reported
//! `(query, match)` multiset is identical to that of each pattern's engine
//! run alone on its own graph, with no shard
//! (`sp_bench::runner::run_alone`), and so are each engine's own counters.
//! A query registered mid-stream next to a twin must not see
//! pre-registration matches.

use sp_bench::runner::run_alone;
use sp_datasets::NetflowConfig;
use sp_graph::{EdgeEvent, Timestamp};
use sp_query::{QueryEdgeId, QueryGraph, QuerySubgraph};
use streampattern::{
    plan_query, ContinuousQueryEngine, FnSink, ProfileCounters, QueryId, Schema, SjTree, Strategy,
    StrategySpec, StreamProcessor, SubgraphMatch,
};

#[macro_use]
mod common;

/// An overlapping netflow rule pack (TCP / ICMP / ESP leaves in common) with a
/// mix of per-query windows.
fn pack(schema: &Schema) -> Vec<(QueryGraph, Option<u64>)> {
    let chain = |name: &str, protos: &[&str]| sp_datasets::soc_chain_rule(schema, name, protos);
    vec![
        (chain("scan", &["ICMP", "TCP"]), Some(2_000)),
        (chain("exfil", &["TCP", "ESP"]), Some(5_000)),
        (chain("exfil-wide", &["TCP", "ESP"]), None),
        (chain("relay", &["TCP", "TCP"]), Some(1_000)),
        (chain("bounce", &["TCP", "ESP", "TCP"]), Some(5_000)),
    ]
}

/// Rules that have leaf shapes in common but no two leading leaves, so no
/// shared join table forms: under the 1-edge strategies every rule leads
/// with its rarest edge joined to a different neighbour and the TCP / ESP
/// leaves recur; under the 2-edge ones the 3-chain reuses exfil's wedge.
fn unprefixed_pack(schema: &Schema) -> Vec<(QueryGraph, Option<u64>)> {
    [
        ("scan", &["ICMP", "TCP"][..], Some(2_000)),
        ("exfil", &["TCP", "ESP"], Some(5_000)),
        ("beacon", &["TCP", "UDP"], Some(1_000)),
        ("esp-relay", &["ESP", "TCP", "ESP"], None),
    ]
    .into_iter()
    .map(|(name, chain, w)| (sp_datasets::soc_chain_rule(schema, name, chain), w))
    .collect()
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
        let mut proc = StreamProcessor::new(schema.clone())
            .with_estimator(estimator.clone())
            .with_statistics(false);
        let ids: Vec<QueryId> = rules
            .iter()
            .map(|(q, w)| proc.register(q.clone(), spec, *w).unwrap())
            .collect();
        let shared = multiset_of(|emit| {
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                let slot = ids.iter().position(|&i| i == q).unwrap();
                emit(slot, m);
            });
            for ev in dataset.events() {
                proc.process_into(ev, &mut sink);
            }
        });
        assert!(!shared.is_empty(), "workload found no matches");

        // Every rule's engine alone on its own graph, no shard.
        let independent = multiset_of(|emit| {
            for (slot, (q, w)) in rules.iter().enumerate() {
                let (strategy, tree) = plan_query(q, spec, &estimator).unwrap();
                let engine = ContinuousQueryEngine::from_plan(strategy, tree, *w).unwrap();
                run_alone(&schema, engine, dataset.events(), 0, |m| emit(slot, m));
            }
        });
        assert_eq!(
            shared, independent,
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

    // Each worker's shard runs a subset of the queries; the multiset must
    // match the inline run for every worker count.
    let runs = on_every_executor!(&schema, |_, p| {
        let mut p = p.with_estimator(estimator.clone()).with_statistics(false);
        let ids: Vec<QueryId> = rules
            .iter()
            .map(|(q, w)| p.register(q.clone(), Strategy::SingleLazy, *w).unwrap())
            .collect();
        multiset_of(|emit| {
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                emit(ids.iter().position(|&i| i == q).unwrap(), m);
            });
            p.process_all_into(dataset.events().iter(), &mut sink);
        })
    });
    let (_, expected) = &runs[0];
    for (label, got) in &runs[1..] {
        assert_eq!(got, expected, "multiset diverged at {label}");
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

    // The late query has the *same* leaves as the early one.
    let late = proc
        .register(two_hop("late"), Strategy::SingleLazy, None)
        .unwrap();

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
    // its twin's earlier activity.
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
}

/// A hand-planned pack and stream on which one engine — `focus`, registered
/// last — meets every case of the per-edge leaf loop on one and the same
/// edge (`events[probe]`, a `B` edge):
///
/// * its leading `[A, B]` leaves ride a shared prefix table (with `partner`)
///   at partial depth, and the edge completes a prefix match: a row is pulled;
/// * rank 2 (`B`, any → any), a shape `sharer` — dispatched first — has as
///   well, and rank 3 (`B`, any → host) are searched by `focus` itself;
/// * rank 4 (`B` out of a host; with `wedge`, the 2-edge leaf `B, C`) is
///   gated off under Lazy Search — nothing has enabled it around the edge;
///   without it, the wedge is refused by the type signatures: the edge's
///   target has no outgoing `C` edge yet;
/// * the remaining leaves (`C`, `A`) do not contain the edge's type.
struct LoopPack {
    schema: Schema,
    /// `[partner, sharer, focus]`, in registration order.
    engines: Vec<ContinuousQueryEngine>,
    events: Vec<EdgeEvent>,
    probe: usize,
}

fn loop_pack(wedge: bool, strategy: Strategy) -> LoopPack {
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
        ContinuousQueryEngine::from_plan(strategy, SjTree::from_leaves(q, leaves), WINDOW).unwrap()
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
    // (.., retroactive probes demanded around the probed edge, refused)
    for (wedge, lazy, label, probes, probes_refused) in [
        (false, false, Strategy::Single, 0, 0),
        (false, true, Strategy::SingleLazy, 10, 3),
        (true, false, Strategy::Path, 0, 0),
        (true, true, Strategy::PathLazy, 11, 4),
    ] {
        let LoopPack {
            schema,
            engines,
            events,
            probe,
        } = loop_pack(wedge, label);

        // The shared pipeline, with the focus engine's counters read around
        // the probed edge.
        let mut proc = StreamProcessor::new(schema.clone()).with_statistics(false);
        let ids: Vec<QueryId> = engines
            .iter()
            .map(|e| proc.register_engine(e.clone()))
            .collect();
        let focus = ids[2];
        assert_eq!(
            proc.shared_joins().subscription_depth(focus),
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
                    around_probe.push(proc.profile_for(focus).unwrap());
                }
                proc.process_into(ev, &mut sink);
            }
        });
        let [p0, p1] = &around_probe[..] else {
            panic!("two snapshots");
        };
        assert_eq!(
            p1.shared_join_emissions - p0.shared_join_emissions,
            1,
            "{label}: one prefix row pulled"
        );
        let gated = u64::from(lazy);
        let rejected = u64::from(wedge && !lazy);
        assert_eq!(
            p1.searches_skipped - p0.searches_skipped,
            gated,
            "{label}: rank 4 gated off iff lazy"
        );
        // Under Lazy Search the rows this edge inserts enable later leaves
        // around their vertices: each fresh enablement's probe is run, or
        // refused when the vertex lacks an edge type the leaf needs there.
        assert_eq!(
            (
                p1.searches_rejected - p0.searches_rejected,
                p1.retroactive_searches - p0.retroactive_searches,
            ),
            (rejected + probes_refused, probes - probes_refused),
            "{label}: an open rank-4 wedge and the probes of `B`-less vertices are refused"
        );
        // Ranks 2, 3 and 4 contain the edge's type; the leaves behind them
        // do not and move no counter.
        assert_eq!(
            p1.iso_searches - p0.iso_searches,
            3 - gated - rejected,
            "{label}: only leaves of the edge's type reach a search"
        );
        assert_eq!(
            shared.iter().filter(|(slot, _)| *slot == 2).count(),
            3,
            "{label}: one focus match per scripted block"
        );

        // Every engine alone on its own graph, nothing shared.
        let independent = multiset_of(|emit| {
            for (slot, engine) in engines.iter().enumerate() {
                run_alone(&schema, engine.clone(), &events, 0, |m| emit(slot, m));
            }
        });
        assert_eq!(shared, independent, "{label}: diverges from independent");

        let runs = on_every_executor!(&schema, |_, p| {
            let mut p = p.with_statistics(false);
            let ids: Vec<QueryId> = engines
                .iter()
                .map(|e| p.register_engine(e.clone()))
                .collect();
            multiset_of(|emit| {
                let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                    emit(ids.iter().position(|&i| i == q).unwrap(), m);
                });
                p.process_all_into(events.iter(), &mut sink);
            })
        });
        for (executor, got) in &runs {
            assert_eq!(got, &shared, "{label}: diverged at {executor}");
        }
    }
}

#[test]
fn co_registered_engines_keep_the_counters_they_have_alone() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    // One common window: the shard retains the graph exactly as long as
    // each engine alone would.
    const WINDOW: Option<u64> = Some(2_000);
    let rules = unprefixed_pack(&dataset.schema);
    // The timers are wall clock; every other field is a count.
    let counts = |p: &ProfileCounters| {
        let mut p = p.clone();
        (p.iso_time, p.update_time, p.replay_time) = Default::default();
        format!("{p:?}")
    };
    for strategy in [Strategy::Single, Strategy::SingleLazy, Strategy::PathLazy] {
        let mut proc = StreamProcessor::new(dataset.schema.clone())
            .with_estimator(estimator.clone())
            .with_statistics(false);
        let ids: Vec<QueryId> = rules
            .iter()
            .map(|(q, _)| proc.register(q.clone(), strategy, WINDOW).unwrap())
            .collect();
        assert_eq!(proc.shared_join_stats().tables, 0);
        assert!(proc.process_all(dataset.events()) > 0);
        for (&id, (q, _)) in ids.iter().zip(&rules) {
            let (planned, tree) = plan_query(q, strategy.into(), &estimator).unwrap();
            let engine = ContinuousQueryEngine::from_plan(planned, tree, WINDOW).unwrap();
            let alone = run_alone(&dataset.schema, engine, dataset.events(), 0, |_| {});
            assert_eq!(
                counts(&proc.profile_for(id).unwrap()),
                counts(alone.profile()),
                "{strategy}: {} counts differently next to other queries",
                q.name()
            );
        }
    }
}

#[test]
fn iso_searches_count_the_leaves_that_reached_a_search() {
    // A leaf whose edge types exclude the edge's type moves no counter,
    // gated or not: a lazy [t0, t1] chain fed t0 edges only visits its t0
    // leaf once per edge and never counts the (closed, mismatched) t1 leaf
    // as a skipped search.
    let mut schema = Schema::new();
    let ip = schema.intern_vertex_type("ip");
    let (t0, t1) = (schema.intern_edge_type("t0"), schema.intern_edge_type("t1"));
    for strategy in [Strategy::Single, Strategy::SingleLazy] {
        let mut q = QueryGraph::new("chain");
        let v: Vec<_> = (0..3).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], t0);
        q.add_edge(v[1], v[2], t1);
        let leaves = (0..2)
            .map(|e| QuerySubgraph::from_edges(&q, [QueryEdgeId(e)]))
            .collect();
        let engine =
            ContinuousQueryEngine::from_plan(strategy, SjTree::from_leaves(q, leaves), None)
                .unwrap();
        let mut proc = StreamProcessor::with_engine(schema.clone(), engine);
        for i in 0..50u64 {
            proc.process(&EdgeEvent::homogeneous(i, i + 1, ip, t0, Timestamp(i)));
        }
        let profile = proc.profile();
        assert_eq!((profile.iso_searches, profile.searches_skipped), (50, 0));
    }
}
