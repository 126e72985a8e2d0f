//! Sliding-window semantics across the whole stack: the data graph forgets
//! old edges, the match store purges stale partial matches, and only matches
//! whose time span is below `tW` are reported (Section 2.1's τ(g) < tW).

use sp_datasets::{soc_chain_rule, NetflowConfig};
use sp_graph::{EdgeEvent, Timestamp};
use sp_query::QueryGraph;
use streampattern::{
    ContinuousQueryEngine, QueryId, Schema, SelectivityEstimator, Strategy, StreamProcessor,
    SubgraphMatch,
};

#[macro_use]
mod common;

fn two_hop_query(schema: &Schema) -> QueryGraph {
    let esp = schema.edge_type("ESP").unwrap();
    let tcp = schema.edge_type("TCP").unwrap();
    let mut q = QueryGraph::new("esp-tcp");
    let a = q.add_any_vertex();
    let b = q.add_any_vertex();
    let c = q.add_any_vertex();
    q.add_edge(a, b, esp);
    q.add_edge(b, c, tcp);
    q
}

#[test]
fn matches_slower_than_the_window_are_not_reported() {
    let dataset = NetflowConfig::tiny().generate();
    let schema = dataset.schema.clone();
    let ip = schema.vertex_type("ip").unwrap();
    let esp = schema.edge_type("ESP").unwrap();
    let tcp = schema.edge_type("TCP").unwrap();
    let query = two_hop_query(&schema);
    let estimator = dataset.estimator_from_prefix(dataset.len());

    // Pattern 1 completes within 5 ticks; pattern 2 takes 500 ticks.
    let events = [
        EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(0)),
        EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(5)),
        EdgeEvent::homogeneous(10, 11, ip, esp, Timestamp(100)),
        EdgeEvent::homogeneous(11, 12, ip, tcp, Timestamp(600)),
    ];
    for strategy in Strategy::ALL {
        let engine =
            ContinuousQueryEngine::new(query.clone(), strategy, &estimator, Some(50)).unwrap();
        let mut proc = StreamProcessor::with_engine(schema.clone(), engine).with_purge_interval(1);
        let found = proc.process_all(events.iter());
        assert_eq!(found, 1, "strategy {strategy}");
    }
}

#[test]
fn graph_stays_bounded_under_a_window() {
    let schema = {
        let mut s = Schema::new();
        s.intern_vertex_type("ip");
        s.intern_edge_type("TCP");
        s.intern_edge_type("ESP");
        s
    };
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("TCP").unwrap();
    let query = {
        let mut q = QueryGraph::new("tcp-tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        q.add_edge(b, c, tcp);
        q
    };
    let estimator = SelectivityEstimator::new();
    let engine =
        ContinuousQueryEngine::new(query, Strategy::SingleLazy, &estimator, Some(100)).unwrap();
    let mut proc = StreamProcessor::with_engine(schema, engine).with_purge_interval(64);

    // 10 000 edges spread over 100 000 ticks: at any point only ~1% of them
    // fit in the window.
    for i in 0..10_000u64 {
        let ev = EdgeEvent::homogeneous(i % 97, (i * 7) % 89 + 100, ip, tcp, Timestamp(i * 10));
        proc.process(&ev);
    }
    assert!(
        proc.graph().num_edges() < 200,
        "graph kept {} edges despite the window",
        proc.graph().num_edges()
    );
    assert_eq!(proc.graph().total_edges_seen(), 10_000);
}

#[test]
fn partial_matches_are_purged_with_the_window() {
    let schema = {
        let mut s = Schema::new();
        s.intern_vertex_type("ip");
        s.intern_edge_type("TCP");
        s.intern_edge_type("ESP");
        s
    };
    let ip = schema.vertex_type("ip").unwrap();
    let esp = schema.edge_type("ESP").unwrap();
    let tcp = schema.edge_type("TCP").unwrap();
    let query = {
        let mut q = QueryGraph::new("esp-tcp");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, esp);
        q.add_edge(b, c, tcp);
        q
    };
    let estimator = SelectivityEstimator::new();
    let engine = ContinuousQueryEngine::new(query, Strategy::Single, &estimator, Some(50)).unwrap();
    let mut proc = StreamProcessor::with_engine(schema, engine).with_purge_interval(16);

    // Thousands of esp edges that never complete: without purging, the store
    // would grow linearly.
    for i in 0..5_000u64 {
        let ev = EdgeEvent::homogeneous(i, i + 1_000_000, ip, esp, Timestamp(i * 10));
        proc.process(&ev);
    }
    let live = proc.engine().live_partial_matches();
    assert!(
        live < 100,
        "store kept {live} partial matches despite the window"
    );
    assert!(proc.profile().partial_matches_purged > 4_000);

    // The engine still works after heavy purging.
    let found = proc.process(&EdgeEvent::homogeneous(
        4_999 + 1_000_000,
        7,
        ip,
        tcp,
        Timestamp(5_000 * 10 + 1),
    ));
    assert_eq!(found.len(), 1);
}

/// The windowed purge's premise, end to end. A windowed store drops the
/// expired prefix of each bucket without probing the graph, which is sound
/// only while no row inside its own window references an edge the graph
/// has expired. Every purge pass asserts exactly that over its survivors
/// in debug builds (the test profile), so this stream runs the assertion on
/// every pass of every executor — inline and 1, 2 and 4 worker threads —
/// under:
///
/// * mixed windows, 2 000 and 8 000 ticks, eager and lazy strategies, and
///   two prefix sharers on one shared join table (eager: what a lazy
///   prefix sharer reports under mixed windows still depends on the rules
///   it runs beside, so the executors could not be compared);
/// * the wide queries deregistered mid-stream, so retention shrinks from
///   8 000 to 2 000 under live narrow stores, then re-registered;
/// * timestamps in equal pairs, with every ninth edge up to 3 000 ticks
///   late.
#[test]
fn no_row_inside_its_window_references_an_expired_edge() {
    let dataset = NetflowConfig {
        num_hosts: 500,
        num_edges: 16_000,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = &dataset.schema;
    let events: Vec<EdgeEvent> = dataset
        .events()
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let i = i as u64;
            let paired = i - i % 2;
            let ts = if i % 9 == 4 {
                paired.saturating_sub(i * 37 % 3_000)
            } else {
                paired
            };
            EdgeEvent {
                timestamp: Timestamp(ts),
                ..*ev
            }
        })
        .collect();
    let narrow = [
        (
            soc_chain_rule(schema, "icmp-gre", &["ICMP", "GRE"]),
            Strategy::SingleLazy,
        ),
        (
            soc_chain_rule(schema, "ipv6-icmp", &["IPv6", "ICMP"]),
            Strategy::Single,
        ),
    ];
    let wide = [
        (
            soc_chain_rule(schema, "udp-gre-esp", &["UDP", "GRE", "ESP"]),
            Strategy::Path,
        ),
        (
            soc_chain_rule(schema, "udp-gre-esp-icmp", &["UDP", "GRE", "ESP", "ICMP"]),
            Strategy::Single,
        ),
        (
            soc_chain_rule(schema, "gre-ipv6", &["GRE", "IPv6"]),
            Strategy::SingleLazy,
        ),
    ];
    let thirds = [0, events.len() / 3, 2 * events.len() / 3, events.len()];

    let outcomes = on_every_executor!(schema, |_, p| {
        let mut p = p.with_statistics(false).with_purge_interval(256);
        let mut matches: Vec<(QueryId, SubgraphMatch)> = Vec::new();
        for (q, s) in &narrow {
            p.register(q.clone(), *s, Some(2_000)).unwrap();
        }
        let wide_ids: Vec<_> = wide
            .iter()
            .map(|(q, s)| p.register(q.clone(), *s, Some(8_000)).unwrap())
            .collect();
        assert_eq!(p.graph_retention(), Some(8_000));
        p.process_all_into(&events[thirds[0]..thirds[1]], &mut matches);
        for id in wide_ids {
            assert!(p.deregister(id).is_some());
        }
        assert_eq!(p.graph_retention(), Some(2_000), "retention shrinks");
        p.process_all_into(&events[thirds[1]..thirds[2]], &mut matches);
        for (q, s) in &wide {
            p.register(q.clone(), *s, Some(8_000)).unwrap();
        }
        p.process_all_into(&events[thirds[2]..thirds[3]], &mut matches);
        // Rows the live engines' purge passes removed (deregistered
        // engines' counts leave with them).
        let purged = p.profile().partial_matches_purged;
        assert!(
            purged > 1_000,
            "the purge passes removed only {purged} rows"
        );
        assert!(!matches.is_empty());
        matches.sort();
        matches
    });
    let (_, expected) = &outcomes[0];
    for (label, got) in &outcomes[1..] {
        assert_eq!(got, expected, "{label} disagrees with inline");
    }
}

#[test]
fn window_equivalence_between_lazy_and_eager() {
    // With a window, lazy and eager must still report the same matches on a
    // realistic stream (the purge schedule differs but windowed results must
    // not).
    let dataset = NetflowConfig {
        num_hosts: 200,
        num_edges: 2_000,
        ..NetflowConfig::tiny()
    }
    .generate();
    let estimator = dataset.estimator_from_prefix(dataset.len());
    let query = two_hop_query(&dataset.schema);
    let window = Some(500);

    let mut totals = Vec::new();
    for strategy in Strategy::SJ_TREE {
        let engine =
            ContinuousQueryEngine::new(query.clone(), strategy, &estimator, window).unwrap();
        let mut proc =
            StreamProcessor::with_engine(dataset.schema.clone(), engine).with_purge_interval(128);
        totals.push((strategy, proc.process_all(dataset.events().iter())));
    }
    let reference = totals[0].1;
    for (strategy, found) in &totals {
        assert_eq!(*found, reference, "{strategy} disagrees under a window");
    }
}

/// `esp`-`tcp` schema of the hand-built expiry cases.
fn cyber_schema() -> Schema {
    let mut schema = Schema::new();
    schema.intern_vertex_type("ip");
    schema.intern_edge_type("tcp");
    schema.intern_edge_type("esp");
    schema
}

/// A late edge meets a shared prefix table whose window has passed the row
/// it would join. `a -tcp-> b -esp-> c` rides one table at full depth under
/// a wide (100) and a narrow (50) window. `tcp 1→2 @ 0` is joined in time
/// by `esp 2→3 @ 70` (span 70: wide only). Then `tcp 10→11 @ 250` moves
/// the graph on, and `esp 2→7 @ 50` arrives late: it would join `tcp 1→2`
/// with a span of 50, but that row is older than `250 − 100` and the table
/// expires it before the late edge's search, so neither query reports it —
/// whatever the purge interval, on every executor. Along the way: a table
/// edge at 60 must not expire rows by the narrow window (the table keeps the
/// wide one), and a span of exactly 50 is outside the narrow window.
/// Each query is registered [`COPIES`] times, so that every shard of every
/// executor runs the table with both windows.
#[test]
fn a_late_edge_finds_the_row_it_would_join_expired_at_any_purge_interval() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let (tcp, esp) = (
        schema.edge_type("tcp").unwrap(),
        schema.edge_type("esp").unwrap(),
    );
    let edge = |src, dst, ty, ts| EdgeEvent::homogeneous(src, dst, ip, ty, Timestamp(ts));
    let stream = [
        edge(1, 2, tcp, 0),
        edge(8, 9, tcp, 60),
        edge(2, 3, esp, 70),
        edge(4, 5, tcp, 100),
        edge(5, 6, esp, 150),
        edge(10, 11, tcp, 250),
        edge(2, 7, esp, 50),
        edge(20, 21, tcp, 260),
        edge(21, 22, esp, 270),
    ];
    for interval in [1, 64, 4096] {
        let runs = on_every_executor!(&schema, |_, p| {
            let mut p = p.with_statistics(false).with_purge_interval(interval);
            let q = two_hop_tcp_esp(&schema);
            let wide: Vec<QueryId> = (0..COPIES)
                .map(|_| p.register(q.clone(), Strategy::Single, Some(100)).unwrap())
                .collect();
            let narrow: Vec<QueryId> = (0..COPIES)
                .map(|_| {
                    p.register(q.clone(), Strategy::SingleLazy, Some(50))
                        .unwrap()
                })
                .collect();
            let mut matches: Vec<(QueryId, SubgraphMatch)> = Vec::new();
            p.process_all_into(stream.iter(), &mut matches);
            let spans = |id: &QueryId| {
                let mut spans: Vec<(u64, u64)> = matches
                    .iter()
                    .filter(|(q, _)| q == id)
                    .map(|(_, m)| (m.time_span().0 .0, m.time_span().1 .0))
                    .collect();
                spans.sort();
                spans
            };
            let spans_of = |ids: &[QueryId]| ids.iter().map(spans).collect::<Vec<_>>();
            (spans_of(&wide), spans_of(&narrow))
        });
        for (label, (wide, narrow)) in runs {
            for spans in wide {
                assert_eq!(
                    spans,
                    vec![(0, 70), (100, 150), (260, 270)],
                    "wide at interval {interval} on {label}"
                );
            }
            for spans in narrow {
                assert_eq!(
                    spans,
                    vec![(260, 270)],
                    "narrow at interval {interval} on {label}"
                );
            }
        }
    }
}

/// Registrations per query in the shared-table tests: every shard of the
/// widest executor (4 workers) then runs each of them, so queries with one
/// chain share a table there instead of running alone. Equal-cost queries
/// are placed on the shards in turn.
const COPIES: usize = 4;

fn two_hop_tcp_esp(schema: &Schema) -> QueryGraph {
    let mut q = QueryGraph::new("tcp-esp");
    let (a, b, c) = (q.add_any_vertex(), q.add_any_vertex(), q.add_any_vertex());
    q.add_edge(a, b, schema.edge_type("tcp").unwrap());
    q.add_edge(b, c, schema.edge_type("esp").unwrap());
    q
}

/// With late edges, what a windowed shared table reports depends on the
/// stream alone: chains riding one table at full depth under two windows
/// (single-edge leaves, eager and lazy, a depth-3 trie child among them)
/// report the same match multiset at purge intervals 1, 64 and 4096, on
/// every executor. Each registration is repeated [`COPIES`] times.
#[test]
fn windowed_shared_tables_report_the_same_matches_at_every_purge_interval() {
    let dataset = NetflowConfig {
        num_hosts: 600,
        num_edges: 3_000,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = &dataset.schema;
    // Every ninth edge arrives up to 1,500 ticks late: several windows.
    let events: Vec<EdgeEvent> = dataset
        .events()
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let i = i as u64;
            let ts = if i % 9 == 4 {
                i.saturating_sub(i * 37 % 1_500)
            } else {
                i
            };
            EdgeEvent {
                timestamp: Timestamp(ts),
                ..*ev
            }
        })
        .collect();
    let chains: Vec<(QueryGraph, u64)> = [
        (&["ICMP", "TCP"][..], 400),
        (&["TCP", "UDP"], 200),
        (&["ICMP", "TCP", "UDP"], 300),
    ]
    .iter()
    .map(|(protos, w)| (soc_chain_rule(schema, &protos.join("-"), protos), *w))
    .collect();
    let mut reference = None;
    for interval in [1, 64, 4096] {
        let runs = on_every_executor!(schema, |_, p| {
            let mut p = p.with_statistics(false).with_purge_interval(interval);
            let mut ids = Vec::new();
            for (q, w) in &chains {
                for _ in 0..COPIES {
                    ids.push(p.register(q.clone(), Strategy::Single, Some(*w)).unwrap());
                }
                for _ in 0..COPIES {
                    ids.push(
                        p.register(q.clone(), Strategy::SingleLazy, Some(w / 2))
                            .unwrap(),
                    );
                }
            }
            let mut matches: Vec<(QueryId, SubgraphMatch)> = Vec::new();
            p.process_all_into(events.iter(), &mut matches);
            let mut multiset: Vec<(usize, String)> = matches
                .iter()
                .map(|(q, m)| {
                    let slot = ids.iter().position(|i| i == q).unwrap();
                    (slot, format!("{:?}", m.edge_pairs().collect::<Vec<_>>()))
                })
                .collect();
            multiset.sort();
            multiset
        });
        for (label, got) in runs {
            assert!(!got.is_empty());
            let expected = reference.get_or_insert_with(|| got.clone());
            let first_difference = got.iter().zip(expected.iter()).find(|(g, e)| g != e);
            assert!(
                got.len() == expected.len() && first_difference.is_none(),
                "multiset moved at purge interval {interval} on {label}: {} matches against {}, \
                 first difference {first_difference:?}",
                got.len(),
                expected.len()
            );
        }
    }
}
