//! The always-warm per-edge hot path: equivalence and allocation ceilings.
//!
//! The pipeline threads a warm [`sp_iso::SearchScratch`], shard-owned
//! search caches and row buffers, recycled match-store buckets and arena
//! rows through every edge. None of that may be visible: the reported
//! `(query, match)` multiset must equal what each rule's engine run alone
//! on its own graph (no shard, no shared stage, nothing warm between
//! rules) and the parallel runtime report, for every strategy and worker count. The
//! feature-gated tests at the bottom pin the point of the exercise as
//! absolute ceilings: the steady-state per-edge path stops allocating.

use sp_bench::runner::run_alone;
use sp_datasets::NetflowConfig;
use sp_query::QueryGraph;
use streampattern::{
    plan_query, ContinuousQueryEngine, FnSink, QueryId, Schema, Strategy, StrategySpec,
    StreamProcessor, SubgraphMatch,
};

#[macro_use]
mod common;

/// The allocation counters of `--features count-allocs` are process-global,
/// so a test running on another thread of this binary would be billed to
/// whichever slice is being metered. Every test here holds this lock for
/// its whole body.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed while holding the lock poisons it; the `()` inside
    // cannot be left inconsistent, so later tests just take it.
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An overlapping netflow rule pack (identical chains, a proper-prefix
/// overlap, disjoint rules) so both pipeline stages — shared join tables
/// and private engines — run against warm buffers.
fn pack(schema: &Schema) -> Vec<(QueryGraph, Option<u64>)> {
    let chain = |name: &str, protos: &[&str]| sp_datasets::soc_chain_rule(schema, name, protos);
    vec![
        (chain("exfil", &["TCP", "ESP"]), Some(5_000)),
        (chain("exfil-wide", &["TCP", "ESP"]), None),
        (chain("bounce", &["TCP", "ESP", "TCP"]), Some(5_000)),
        (chain("scan", &["ICMP", "TCP"]), Some(2_000)),
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
fn warm_pipeline_matches_independent_processors_across_strategies() {
    let _serial = serial();
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
        let pipeline = multiset_of(|emit| {
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                emit(ids.iter().position(|&i| i == q).unwrap(), m);
            });
            for ev in dataset.events() {
                proc.process_into(ev, &mut sink);
            }
        });
        assert!(
            !pipeline.is_empty(),
            "workload found no matches under {spec:?}"
        );

        // Pre-sharing architecture: every rule's engine alone on its own
        // graph, with nothing to share.
        let independent = multiset_of(|emit| {
            for (slot, (q, w)) in rules.iter().enumerate() {
                let (strategy, tree) = plan_query(q, spec, &estimator).unwrap();
                let engine = ContinuousQueryEngine::from_plan(strategy, tree, *w).unwrap();
                run_alone(&schema, engine, dataset.events(), 0, |m| emit(slot, m));
            }
        });
        assert_eq!(
            pipeline, independent,
            "the shared pipeline diverges from independent processors under {spec:?}"
        );
    }
}

#[test]
fn sequential_pipeline_matches_parallel_runtime_across_worker_counts() {
    let _serial = serial();
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);

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

/// Steady-state allocation ceilings, only meaningful under the counting
/// global allocator (`--features count-allocs`). Two claims:
///
/// 1. **The per-edge machinery is allocation-free.** A cyber stream whose
///    steady-state slice is all gated-leaf traffic (esp edges in a region
///    no tcp partial ever touched, under Lazy Search) drives the full
///    dispatch path — ingest, candidate lookup, lazy gate — without
///    materializing new matches or partials. After warmup
///    that slice must average (almost) zero allocations per edge; the
///    residue is amortized container growth, not per-edge churn.
/// 2. **Stored, pulled and delivered matches are (nearly) free too.**
///    A match is a fixed-width row from the anchored search that finds it
///    to the join that completes it — in recycled arena rows and reused
///    flat buffers, whatever its width — and a delivered inline-width
///    match is built straight into the sink, so the match-heavy packs stay
///    under absolute allocs/edge and allocs/stored-match ceilings. Each ceiling is 1.5× the value measured
///    on the commit that introduced it (the test prints the current value).
#[cfg(feature = "count-allocs")]
mod alloc_regression {
    use super::*;
    use sp_graph::{EdgeEvent, Timestamp};
    use streampattern::StatsMode;

    // Ceilings = 1.5 × the value each test printed on the commit that last
    // measured it (rows from leaf search to sink): 0.526 allocs/edge for the
    // warm pack (2.665 before); 2.577 allocs/edge and 0.3799 allocs/stored
    // match for the SOC pack (6.417 and 0.9462 before). The counts repeat
    // exactly from run to run. Since graph vertices keep up to two edge ids
    // per direction inline they read 0.552, 2.600 and 0.3834: a vertex
    // allocates at its third edge instead of its first, which moves some
    // adjacency allocations from the warmup into the metered half.
    const WARM_PACK_ALLOCS_PER_EDGE_CEILING: f64 = 0.79;
    const SOC_PACK_ALLOCS_PER_EDGE_CEILING: f64 = 3.87;
    const SOC_PACK_ALLOCS_PER_STORED_CEILING: f64 = 0.57;
    // 1.5 × the 0.0100 allocs/edge `SelectivityEstimator::observe_edge`
    // measured on its warm netflow stream since the census keeps one flat
    // row per vertex (0.0106 with a hash map per vertex; 2.011 while the
    // census collected each endpoint's new wedges into a `Vec`).
    const OBSERVE_EDGE_ALLOCS_PER_EDGE_CEILING: f64 = 0.015;
    // 1.5 × the 0.584 allocations per distinct vertex of a census built
    // from nothing (1.328 while each vertex kept a hash map of its incident
    // types).
    const COLD_CENSUS_ALLOCS_PER_VERTEX_CEILING: f64 = 0.88;

    fn cyber_schema() -> Schema {
        let mut schema = Schema::new();
        schema.intern_vertex_type("ip");
        schema.intern_edge_type("tcp");
        schema.intern_edge_type("esp");
        schema
    }

    #[test]
    fn gated_steady_state_is_allocation_free() {
        let _serial = serial();
        let schema = cyber_schema();
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();

        // tcp -> esp chain under Lazy Search: the tcp leaf is primary, the
        // esp leaf is gated per vertex and only enabled where a tcp partial
        // lands. Region A (hosts 0..40) sees completions during warmup;
        // region B (hosts 100..140) sees esp traffic only, so its gate
        // never opens.
        let mut q = sp_query::QueryGraph::new("exfil");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        q.add_edge(b, c, esp);

        // A purge cadence well inside the window keeps the retained graph
        // (and thus every container's high-water mark) bounded, so warmup
        // actually reaches a steady state instead of growing forever.
        let mut proc = StreamProcessor::new(schema.clone())
            .with_statistics(false)
            .with_purge_interval(512);
        proc.register(q, Strategy::SingleLazy, Some(1_000)).unwrap();

        let warm = 8_000u64;
        let metered = 4_000u64;
        let mut sink = streampattern::CountSink::new();
        // `j` is the per-region sequence number (drives the host walk and
        // the tcp/esp mix), `i` the global one (drives the clock).
        let event = |i: u64, j: u64, region_b: bool| {
            let (base, span, t) = if region_b {
                (100, 40, esp)
            } else {
                (0, 40, if j.is_multiple_of(4) { tcp } else { esp })
            };
            let src = base + j % span;
            let dst = base + (j + 1) % span;
            EdgeEvent::homogeneous(src, dst, ip, t, Timestamp(i))
        };
        for i in 0..warm {
            proc.process_into(&event(i, i / 2, i % 2 == 0), &mut sink);
        }
        assert!(sink.matches > 0, "warmup produced no matches");
        let warm_matches = sink.matches;

        let (a0, b0) = sp_metrics::alloc_counts();
        for i in warm..warm + metered {
            proc.process_into(&event(i, warm / 2 + (i - warm), true), &mut sink);
        }
        let (a1, b1) = sp_metrics::alloc_counts();
        assert_eq!(sink.matches, warm_matches, "gated slice completed a match");
        let allocs_per_edge = (a1 - a0) as f64 / metered as f64;
        let bytes_per_edge = (b1 - b0) as f64 / metered as f64;
        println!(
            "gated steady state: {allocs_per_edge:.4} allocs/edge, {bytes_per_edge:.1} bytes/edge"
        );
        assert!(
            allocs_per_edge < 0.1,
            "gated steady-state path allocates per edge: {allocs_per_edge:.4} allocs/edge"
        );
    }

    /// The shared-join delivery path is allocation-light even when every
    /// edge cycle reports matches through the trie: prefix-root emissions
    /// are rows in a reused per-table buffer (adopted slot for slot by the
    /// trie child), each delivered match is built inline
    /// (`MATCH_INLINE_BINDINGS`) straight into the sink, store buckets
    /// recycle through the purge, and the stream's short-lived hosts keep
    /// their adjacency inline in the graph — so a match-heavy nested-prefix
    /// stream allocates nothing after warmup.
    #[test]
    fn shared_join_match_delivery_is_allocation_light() {
        let _serial = serial();
        let schema = cyber_schema();
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();

        let chain = |name: &str, types: &[sp_graph::EdgeType]| {
            let mut q = sp_query::QueryGraph::new(name);
            let mut prev = q.add_any_vertex();
            for &t in types {
                let next = q.add_any_vertex();
                q.add_edge(prev, next, t);
                prev = next;
            }
            q
        };
        let mut proc = StreamProcessor::new(schema.clone())
            .with_statistics(false)
            .with_purge_interval(512);
        // Two [tcp,esp] subscribers on the parent node, two [tcp,esp,tcp]
        // subscribers on its trie child: every completed cycle reports four
        // matches, two of them through the parent-feed path.
        for name in ["exfil-a", "exfil-b"] {
            proc.register(chain(name, &[tcp, esp]), Strategy::SingleLazy, Some(300))
                .unwrap();
        }
        for name in ["bounce-a", "bounce-b"] {
            proc.register(
                chain(name, &[tcp, esp, tcp]),
                Strategy::SingleLazy,
                Some(300),
            )
            .unwrap();
        }
        assert_eq!(proc.shared_join_stats().tables, 2);
        assert_eq!(proc.shared_join_stats().max_depth, 3);

        // Disjoint 4-host chains from a rotating pool; the 300-tick window
        // expires a group's edges well before its hosts are reused (every
        // 384 ticks), so state and match fan-out stay bounded.
        let mut sink = streampattern::CountSink::new();
        let mut run = |cycles: std::ops::Range<u64>, sink: &mut streampattern::CountSink| {
            for c in cycles {
                let b = (c % 128) * 4;
                let t = 3 * c;
                proc.process_into(
                    &EdgeEvent::homogeneous(b, b + 1, ip, tcp, Timestamp(t)),
                    sink,
                );
                proc.process_into(
                    &EdgeEvent::homogeneous(b + 1, b + 2, ip, esp, Timestamp(t + 1)),
                    sink,
                );
                proc.process_into(
                    &EdgeEvent::homogeneous(b + 2, b + 3, ip, tcp, Timestamp(t + 2)),
                    sink,
                );
            }
        };
        run(0..3_000, &mut sink);
        let warm_matches = sink.matches;
        assert!(warm_matches > 0, "warmup produced no matches");

        let metered = 1_500u64;
        let (a0, _) = sp_metrics::alloc_counts();
        run(3_000..3_000 + metered, &mut sink);
        let (a1, _) = sp_metrics::alloc_counts();
        let delivered = sink.matches - warm_matches;
        assert_eq!(
            delivered,
            4 * metered,
            "each metered cycle must deliver all four subscribers' matches"
        );
        let allocs_per_match = (a1 - a0) as f64 / delivered as f64;
        println!(
            "shared-join match delivery: {} allocations for {delivered} delivered matches \
             ({allocs_per_match:.5} allocs/match)",
            a1 - a0
        );
        // The ceiling is 1.5× the measured 0 (0.2605 allocs/match while
        // every graph vertex still held its adjacency in heap `Vec`s).
        assert_eq!(
            a1 - a0,
            0,
            "match delivery through the trie allocates: {allocs_per_match:.5} allocs/match"
        );
    }

    /// The storm regime in miniature: two full-depth subscribers (two
    /// windows) on one `[tcp, esp]` table, every edge through one hub
    /// vertex, so each esp edge completes against every live tcp edge.
    /// Matches go row → `SubgraphMatch` → sink with no buffer in between,
    /// so once the table's row buffer and buckets reach their high-water
    /// mark a delivered inline-width match must cost no allocation at all.
    #[test]
    fn direct_delivery_storm_allocates_nothing_per_delivered_match() {
        let _serial = serial();
        let schema = cyber_schema();
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let exfil = |name: &str| {
            let mut q = sp_query::QueryGraph::new(name);
            let a = q.add_any_vertex();
            let b = q.add_any_vertex();
            let c = q.add_any_vertex();
            q.add_edge(a, b, tcp);
            q.add_edge(b, c, esp);
            q
        };
        let mut proc = StreamProcessor::new(schema.clone())
            .with_statistics(false)
            .with_purge_interval(256);
        let ids = [
            proc.register(exfil("wide"), Strategy::Single, Some(200))
                .unwrap(),
            proc.register(exfil("narrow"), Strategy::Single, Some(100))
                .unwrap(),
        ];
        assert_eq!(proc.shared_join_stats().tables, 1);
        for id in ids {
            assert_eq!(proc.shared_joins().subscription_depth(id), Some(2));
        }

        // One edge per tick: even ticks spoke → hub over tcp, odd ticks
        // hub → spoke over esp, spokes from a rotating pool.
        const HUB: u64 = 0;
        let event = |t: u64| {
            let spoke = 1 + (t / 2) % 96;
            if t.is_multiple_of(2) {
                EdgeEvent::homogeneous(spoke, HUB, ip, tcp, Timestamp(t))
            } else {
                EdgeEvent::homogeneous(HUB, spoke, ip, esp, Timestamp(t))
            }
        };
        let mut sink = streampattern::CountSink::new();
        for t in 0..6_000 {
            proc.process_into(&event(t), &mut sink);
        }
        let warm_matches = sink.matches;

        let (a0, _) = sp_metrics::alloc_counts();
        for t in 6_000..9_000 {
            proc.process_into(&event(t), &mut sink);
        }
        let (a1, _) = sp_metrics::alloc_counts();
        let delivered = sink.matches - warm_matches;
        assert!(
            delivered > 100_000,
            "not a storm: {delivered} matches over 3000 edges"
        );
        let allocs_per_match = (a1 - a0) as f64 / delivered as f64;
        println!(
            "direct-delivery storm: {} allocations for {delivered} delivered matches \
             ({allocs_per_match:.5} allocs/match)",
            a1 - a0
        );
        assert!(
            allocs_per_match < 0.01,
            "direct delivery allocates per match: {allocs_per_match:.5} allocs/match"
        );
    }

    /// The same storm with one subscriber, so nothing is shared and the
    /// root join runs in the query's own engine: it is reported as the
    /// union of its two operand rows into the shard's flat buffer and
    /// built into a `SubgraphMatch` on the way into `on_match` — no
    /// per-match buffer, clone or allocation between the join and the sink.
    #[test]
    fn private_engine_reported_match_allocates_nothing_between_join_and_sink() {
        let _serial = serial();
        let schema = cyber_schema();
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();
        let mut q = sp_query::QueryGraph::new("exfil");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        q.add_edge(b, c, esp);
        let mut proc = StreamProcessor::new(schema.clone())
            .with_statistics(false)
            .with_purge_interval(256);
        let id = proc.register(q, Strategy::Single, Some(200)).unwrap();
        assert_eq!(proc.shared_join_stats().tables, 0);

        const HUB: u64 = 0;
        let event = |t: u64| {
            let spoke = 1 + (t / 2) % 96;
            if t.is_multiple_of(2) {
                EdgeEvent::homogeneous(spoke, HUB, ip, tcp, Timestamp(t))
            } else {
                EdgeEvent::homogeneous(HUB, spoke, ip, esp, Timestamp(t))
            }
        };
        let mut sink = streampattern::CountSink::new();
        for t in 0..6_000 {
            proc.process_into(&event(t), &mut sink);
        }
        let warm_matches = sink.matches;

        let (a0, _) = sp_metrics::alloc_counts();
        for t in 6_000..9_000 {
            proc.process_into(&event(t), &mut sink);
        }
        let (a1, _) = sp_metrics::alloc_counts();
        let delivered = sink.matches - warm_matches;
        assert!(
            delivered > 100_000,
            "not a storm: {delivered} matches over 3000 edges"
        );
        assert_eq!(
            proc.profile_for(id).unwrap().shared_join_emissions,
            0,
            "the matches must come from the private engine's root join"
        );
        let allocs_per_match = (a1 - a0) as f64 / delivered as f64;
        println!(
            "private-engine storm: {} allocations for {delivered} delivered matches \
             ({allocs_per_match:.5} allocs/match)",
            a1 - a0
        );
        assert!(
            allocs_per_match < 0.01,
            "a private engine's report allocates per match: {allocs_per_match:.5} allocs/match"
        );
    }

    /// The prefix pull of the engines' leaf loop, with non-empty results.
    /// Two eager rules share the `[tcp, tcp]` join prefix of their
    /// three-leaf trees, so every edge has both engines pull the prefix
    /// table's new rows out of its pending buffer by slot permutation
    /// straight into their own arenas. No `SubgraphMatch`, no per-pull
    /// vector, no buffer in between.
    #[test]
    fn prefix_pull_allocates_nothing_per_fed_match() {
        let _serial = serial();
        let mut schema = cyber_schema();
        let thirds: Vec<sp_graph::EdgeType> = (0..2)
            .map(|i| schema.intern_edge_type(&format!("p{i}")))
            .collect();
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let mut proc = StreamProcessor::new(schema.clone())
            .with_statistics(false)
            .with_purge_interval(256);
        let chain = |types: &[sp_graph::EdgeType]| {
            let mut q = sp_query::QueryGraph::new("tcp-then");
            let mut prev = q.add_any_vertex();
            for &t in types {
                let next = q.add_any_vertex();
                q.add_edge(prev, next, t);
                prev = next;
            }
            q
        };
        let prefix_sharers: Vec<QueryId> = thirds
            .iter()
            .map(|&third| {
                proc.register(chain(&[tcp, tcp, third]), Strategy::Single, Some(150))
                    .unwrap()
            })
            .collect();
        assert_eq!(proc.shared_join_stats().tables, 1);
        for &id in &prefix_sharers {
            assert_eq!(
                proc.shared_joins().subscription_depth(id),
                Some(2),
                "partial depth: the engine runs and pulls its prefix rows"
            );
        }

        // A 64-host ring of tcp edges, one per tick: every join key recurs
        // inside the window, so buckets and arena rows recycle.
        const HOSTS: u64 = 64;
        let mut sink = streampattern::CountSink::new();
        let mut run = |proc: &mut StreamProcessor, ticks: std::ops::Range<u64>| {
            for t in ticks {
                let (src, dst) = (t % HOSTS, (t + 1) % HOSTS);
                let event = EdgeEvent::homogeneous(src, dst, ip, tcp, Timestamp(t));
                proc.process_into(&event, &mut sink);
            }
        };
        run(&mut proc, 0..8_000);
        let fed = |proc: &mut StreamProcessor| -> u64 {
            prefix_sharers
                .iter()
                .map(|&id| proc.profile_for(id).unwrap().shared_join_emissions)
                .sum()
        };
        let fed0 = fed(&mut proc);
        let (a0, _) = sp_metrics::alloc_counts();
        run(&mut proc, 8_000..12_000);
        let (a1, _) = sp_metrics::alloc_counts();
        let fed = fed(&mut proc) - fed0;
        assert!(fed >= 2 * 4_000, "a prefix row per prefix sharer per edge");
        let allocs_per_match = (a1 - a0) as f64 / fed as f64;
        println!(
            "prefix pull: {} allocations for {fed} fed matches ({allocs_per_match:.5} allocs/match)",
            a1 - a0
        );
        // The ceiling is 1.5× the 0.00214 allocs/match measured when the
        // graph's own per-edge churn (0.03 allocs/edge) was all that was
        // left; with adjacency inline it reads 0. One vector per pull would
        // read 0.43.
        assert!(
            allocs_per_match < 0.0033,
            "the prefix pull allocates per match: {allocs_per_match:.5} allocs/match"
        );
    }

    /// The row-store contract on the spill regime: storing a partial match
    /// wider than `MATCH_INLINE_BINDINGS` must not touch the allocator in
    /// steady state. A 9-edge chain over nine distinct protocols (9 edge +
    /// 10 vertex bindings when full; every partial from depth 4 onward
    /// would spill a `SubgraphMatch`'s inline capacity) is driven by a ring
    /// walk whose type sequence cycles `p0..p7, keepalive` — the ninth
    /// protocol `p8` never arrives, so the metered slice stores deep wide
    /// partials without ever completing a match, isolating the storage path
    /// from copy-on-emit materialization. The ring keeps every vertex
    /// permanently live (no REMOVE-SUBGRAPH vertex eviction/re-creation
    /// noise) and the join keys recurrent, so arena rows, buckets and
    /// adjacency lists all recycle: the slice must average <0.1 allocations
    /// per stored match.
    #[test]
    fn interned_wide_pattern_storage_is_allocation_free_per_stored_match() {
        let _serial = serial();
        // Nine *distinct* protocols so each stream edge matches exactly one
        // leaf shape — the stored-match population is then dominated by the
        // deep (wide) internal partials the test is about, not by shallow
        // leaf inserts.
        let mut schema = Schema::new();
        schema.intern_vertex_type("ip");
        let types: Vec<sp_graph::EdgeType> = (0..9)
            .map(|i| schema.intern_edge_type(&format!("p{i}")))
            .collect();
        let keepalive = schema.intern_edge_type("keepalive");
        let ip = schema.vertex_type("ip").unwrap();

        let mut wide = sp_query::QueryGraph::new("wide-lateral");
        let mut prev = wide.add_any_vertex();
        for &t in &types {
            let next = wide.add_any_vertex();
            wide.add_edge(prev, next, t);
            prev = next;
        }

        // 64-host ring, one edge per tick: host h is touched every 64 ticks,
        // well inside the 150-tick window, so no vertex ever drops to degree
        // zero. A (ring position, protocol) pair recurs every
        // lcm(64, 9) = 576 ticks — far outside the window — so each partial
        // chain has exactly one live extension and match multiplicity stays
        // bounded.
        const HOSTS: u64 = 64;
        let mut proc = StreamProcessor::new(schema.clone())
            .with_statistics(false)
            .with_purge_interval(256);
        proc.register(wide, Strategy::Single, Some(150)).unwrap();
        let mut sink = streampattern::CountSink::new();
        let run = |proc: &mut StreamProcessor,
                   ticks: std::ops::Range<u64>,
                   sink: &mut streampattern::CountSink| {
            for t in ticks {
                let ty = match (t % 9) as usize {
                    8 => keepalive, // the chain's ninth edge never arrives
                    k => types[k],
                };
                proc.process_into(
                    &EdgeEvent::homogeneous(t % HOSTS, (t + 1) % HOSTS, ip, ty, Timestamp(t)),
                    sink,
                );
            }
        };
        run(&mut proc, 0..16_000, &mut sink);
        let s0 = proc.stored_matches();
        let (a0, _) = sp_metrics::alloc_counts();
        run(&mut proc, 16_000..24_000, &mut sink);
        let (a1, _) = sp_metrics::alloc_counts();
        let stored = proc.stored_matches() - s0;
        assert_eq!(
            sink.matches, 0,
            "the p0..p7 runs must never complete the 9-edge chain"
        );
        assert!(stored > 0, "metered slice stored no partial matches");
        let allocs_per_stored = (a1 - a0) as f64 / stored as f64;
        println!(
            "wide-pattern steady state ({stored} partials stored): \
             {allocs_per_stored:.4} allocs/stored match"
        );
        assert!(
            allocs_per_stored < 0.1,
            "wide-row storage allocates in steady state: \
             {allocs_per_stored:.4} allocs/stored match"
        );
    }

    /// Warm the first half of `events` through `proc`, meter the second
    /// half: `(allocs/edge, allocs/stored match)` of the metered slice.
    fn metered_second_half(
        proc: &mut StreamProcessor,
        events: &[sp_graph::EdgeEvent],
    ) -> (f64, f64) {
        let warm = events.len() / 2;
        let mut sink = streampattern::CountSink::new();
        for ev in &events[..warm] {
            proc.process_into(ev, &mut sink);
        }
        let (s0, m0) = (proc.stored_matches(), sink.matches);
        let (a0, _) = sp_metrics::alloc_counts();
        for ev in &events[warm..] {
            proc.process_into(ev, &mut sink);
        }
        let (a1, _) = sp_metrics::alloc_counts();
        assert!(sink.matches > m0, "metered slice found no matches");
        let stored = proc.stored_matches() - s0;
        assert!(stored > 0, "metered slice stored no partial matches");
        (
            (a1 - a0) as f64 / (events.len() - warm) as f64,
            (a1 - a0) as f64 / stored as f64,
        )
    }

    /// Matches flow (per-match materialization at the sink is irreducible
    /// for spilled widths, free for inline ones), yet the warm `SingleLazy`
    /// pack stays under an absolute allocs/edge ceiling.
    #[test]
    fn warm_pack_allocations_per_edge_stay_under_the_ceiling() {
        let _serial = serial();
        let dataset = NetflowConfig {
            num_hosts: 300,
            num_edges: 6_000,
            ..NetflowConfig::tiny()
        }
        .generate();
        let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
        let mut proc = StreamProcessor::new(dataset.schema.clone())
            .with_estimator(estimator)
            .with_statistics(false);
        for (q, w) in pack(&dataset.schema) {
            proc.register(q, Strategy::SingleLazy, w).unwrap();
        }
        let (allocs_per_edge, _) = metered_second_half(&mut proc, dataset.events());
        println!("warm SingleLazy pack: {allocs_per_edge:.3} allocs/edge");
        assert!(
            allocs_per_edge <= WARM_PACK_ALLOCS_PER_EDGE_CEILING,
            "warm pack allocator traffic regressed: {allocs_per_edge:.3} allocs/edge \
             (ceiling {WARM_PACK_ALLOCS_PER_EDGE_CEILING})"
        );
    }

    /// The SOC workload in one processor: the full 12-rule netflow pack
    /// plus the two wide 9-edge spill-regime rules, windowed, under
    /// `SingleLazy` — shared leaves, shared join tables, private engines
    /// and spilled deliveries all live. Both steady-state figures stay
    /// under absolute ceilings.
    #[test]
    fn soc_rule_pack_allocations_stay_under_the_ceilings() {
        let _serial = serial();
        let dataset = NetflowConfig {
            num_hosts: 1_000,
            num_edges: 4_000,
            ..NetflowConfig::default()
        }
        .generate();
        let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
        let mut rules = sp_bench::experiments::netflow_rule_pack(&dataset.schema, 12);
        rules.extend(sp_datasets::wide_soc_rules(&dataset.schema, 2));
        let mut proc = StreamProcessor::new(dataset.schema.clone())
            .with_estimator(estimator)
            .with_statistics(false);
        for q in rules {
            proc.register(q, Strategy::SingleLazy, Some(400)).unwrap();
        }
        let (allocs_per_edge, allocs_per_stored) = metered_second_half(&mut proc, dataset.events());
        println!(
            "SOC rule pack: {allocs_per_edge:.3} allocs/edge, \
             {allocs_per_stored:.4} allocs/stored match"
        );
        assert!(
            allocs_per_edge <= SOC_PACK_ALLOCS_PER_EDGE_CEILING,
            "SOC pack allocs/edge regressed: {allocs_per_edge:.3} \
             (ceiling {SOC_PACK_ALLOCS_PER_EDGE_CEILING})"
        );
        assert!(
            allocs_per_stored <= SOC_PACK_ALLOCS_PER_STORED_CEILING,
            "SOC pack allocs/stored match regressed: {allocs_per_stored:.4} \
             (ceiling {SOC_PACK_ALLOCS_PER_STORED_CEILING})"
        );
    }

    /// The statistics write path the default `StreamProcessor` runs per
    /// edge: once a stream's hosts and wedge signatures have been seen,
    /// `SelectivityEstimator::observe_edge` updates the histogram and the
    /// wedge census in place, with no per-edge buffer.
    #[test]
    fn statistics_observe_edge_stays_under_the_ceiling() {
        let _serial = serial();
        let dataset = NetflowConfig {
            num_hosts: 300,
            num_edges: 20_000,
            ..NetflowConfig::tiny()
        }
        .generate();
        let mut graph = sp_graph::DynamicGraph::new(dataset.schema.clone());
        let edges: Vec<sp_graph::EdgeData> = dataset
            .events()
            .iter()
            .map(|ev| graph.ingest(ev).0)
            .collect();
        let warm = edges.len() / 2;
        let mut estimator = streampattern::SelectivityEstimator::new();
        for edge in &edges[..warm] {
            estimator.observe_edge(edge);
        }
        let (a0, _) = sp_metrics::alloc_counts();
        for edge in &edges[warm..] {
            estimator.observe_edge(edge);
        }
        let (a1, _) = sp_metrics::alloc_counts();
        let allocs_per_edge = (a1 - a0) as f64 / (edges.len() - warm) as f64;
        println!("statistics observe_edge: {allocs_per_edge:.4} allocs/edge");
        assert!(
            allocs_per_edge <= OBSERVE_EDGE_ALLOCS_PER_EDGE_CEILING,
            "observe_edge allocs/edge regressed: {allocs_per_edge:.4} \
             (ceiling {OBSERVE_EDGE_ALLOCS_PER_EDGE_CEILING})"
        );
    }

    /// A census built from nothing: a vertex's row holds its first two
    /// directed edge types inline, so only hubs and the tables' own growth
    /// allocate while a fresh LSBench stream is observed.
    #[test]
    fn cold_census_allocations_per_vertex_stay_under_the_ceiling() {
        let _serial = serial();
        let dataset = sp_datasets::LsbenchConfig {
            num_persons: 5_000,
            num_edges: 50_000,
            ..sp_datasets::LsbenchConfig::default()
        }
        .generate();
        let vertices = dataset.num_vertices();
        let (a0, _) = sp_metrics::alloc_counts();
        let estimator =
            sp_datasets::Dataset::estimator_from_events(dataset.events(), StatsMode::Cumulative);
        let (a1, _) = sp_metrics::alloc_counts();
        assert_eq!(estimator.lifetime_edges_observed(), dataset.len() as u64);
        let allocs_per_vertex = (a1 - a0) as f64 / vertices as f64;
        println!("cold census: {allocs_per_vertex:.3} allocs/vertex over {vertices} vertices");
        assert!(
            allocs_per_vertex <= COLD_CENSUS_ALLOCS_PER_VERTEX_CEILING,
            "cold census allocs/vertex regressed: {allocs_per_vertex:.3} \
             (ceiling {COLD_CENSUS_ALLOCS_PER_VERTEX_CEILING})"
        );
    }
}
